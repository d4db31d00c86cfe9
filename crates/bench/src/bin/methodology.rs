//! The end-to-end "new system design methodology": floorplan the five blocks,
//! budget relay stations from the wire delays, predict the throughput with
//! the loop law, and verify by simulating both WP1 and WP2 implementations of
//! the extraction-sort workload.

use wp_bench::{predict_wp1_throughput, sort_workload, MAX_CYCLES};
use wp_core::SyncPolicy;
use wp_floorplan::{anneal, AnnealConfig, Block, Floorplan, WireModel};
use wp_proc::{build_soc, run_golden_soc, run_wp_soc, Link, Organization, RsConfig};

fn main() {
    // No arguments: any flag or positional is an argument error, not
    // silently ignored.
    let args: Vec<String> = std::env::args().skip(1).collect();
    wp_bench::accept_flags(&args, &[]).unwrap_or_else(|e| e.exit());
    let workload = sort_workload();
    let organization = Organization::Pipelined;

    // 1. The physical view: five blocks on a 12x12 mm die, 1 ns clock.
    let mut fp = Floorplan::new(12.0, 12.0);
    fp.add_block(Block::new("CU", 2.0, 2.0));
    fp.add_block(Block::new("IC", 4.0, 4.0));
    fp.add_block(Block::new("RF", 2.0, 3.0));
    fp.add_block(Block::new("ALU", 3.0, 3.0));
    fp.add_block(Block::new("DC", 4.0, 4.0));
    let model = WireModel::nm130(1.0);

    let builder = build_soc(&workload, organization, &RsConfig::ideal());
    let net = builder.to_netlist();

    // 2. Throughput-aware placement.
    let result = anneal(&fp, &net, &model, &AnnealConfig::default());
    println!("Annealed placement:");
    for (i, block) in fp.blocks().iter().enumerate() {
        let (x, y) = result.placement.position(i);
        println!("  {:<4} at ({x:5.2}, {y:5.2}) mm", block.name());
    }
    println!(
        "total wire length = {:.1} mm, predicted WP1 throughput = {:.3}\n",
        result.wire_length, result.predicted_throughput
    );

    // 3. Relay-station budget per link.
    let budget = fp.relay_station_budget(&net, &result.placement, &model);
    let mut rs = RsConfig::ideal();
    for link in Link::ALL {
        let needed = link
            .channel_names()
            .iter()
            .filter_map(|name| net.find_edge(name))
            .map(|e| budget[e.index()])
            .max()
            .unwrap_or(0);
        rs.set(link, needed);
        println!("link {:<8} -> {needed} relay station(s)", link.label());
    }

    // 4. Predict and simulate.
    let predicted = predict_wp1_throughput(&workload, organization, &rs);
    let golden = run_golden_soc(&workload, organization, MAX_CYCLES).expect("golden runs");
    let wp1 =
        run_wp_soc(&workload, organization, &rs, SyncPolicy::Strict, MAX_CYCLES).expect("WP1 runs");
    let wp2 =
        run_wp_soc(&workload, organization, &rs, SyncPolicy::Oracle, MAX_CYCLES).expect("WP2 runs");
    println!("\ngolden cycles = {}", golden.cycles);
    println!(
        "WP1: cycles = {}, Th = {:.3} (law predicts {predicted:.3})",
        wp1.cycles,
        wp1.throughput_vs(golden.cycles)
    );
    println!(
        "WP2: cycles = {}, Th = {:.3}",
        wp2.cycles,
        wp2.throughput_vs(golden.cycles)
    );
}

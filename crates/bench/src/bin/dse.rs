//! Design-space exploration over relay-station assignments: enumerate or
//! search the assignment space of one netlist, score every candidate with
//! the exact analytic solver (`wp_dse`), rank the results into an
//! (area-cost, effective-throughput) Pareto frontier and spot-verify the
//! frontier by lane simulation.
//!
//! The search never simulates: an exhaustive search scores each block of
//! candidates that differ only in channel 0 with one maximum-cycle-ratio
//! sweep plus a clock-law table lookup per candidate, and a walk step costs
//! one incremental re-solve (see the `wp_dse` crate docs), so millions of
//! relay configurations are scored per run.  `--cap` is at most
//! `wp_spec::MAX_RELAY_STATIONS` (4096); a spec without a channel is an
//! error.
//! Simulation is demoted to `--verify`: only the reported frontier points
//! are re-run through the sweep scheduler (lane-packed when eligible), and
//! any analytic-vs-measured divergence beyond 2% fails the run.
//!
//! Usage: `dse [--spec FILE | --seed S [--blocks LO:HI] [--chords LO:HI]
//! [--max-relay N] [--latency-percent P]] [--clock P] [--cap N]
//! [--mode auto|exhaustive|walk] [--walks N] [--steps N] [--units N]
//! [--limit N] [--firings N] [--quick] [--verify] [--dot]
//! [--workers N] [--batch N] [--lanes on|off|auto] [--oracle on|off|auto]`
//!
//! The work-unit plan is deterministic and worker-count-independent, the
//! per-cost merge is commutative, and all candidate ties break by a total
//! order — so stdout is byte-identical across `--workers` (CI diffs it).
//! Wall-clock figures (configurations/second) go to stderr only.
//!
//! `--quick` shrinks the cap and firing target for the CI smoke.  `--dot`
//! prints the spec annotated with the best frontier assignment as
//! Graphviz.  The CI perf gate over this search is the `bench` binary.

use std::time::Instant;

use wp_bench::cli::DseArgs;
use wp_bench::{exit_on_error, format_frontier, spot_verify_frontier};
use wp_dse::{search, DseConfig, DseOutcome, SearchSpace};
use wp_gen::generate;
use wp_spec::{spec_to_dot, NetlistSpec};

/// The netlist under exploration and its display label: a committed spec
/// file (`--spec`) or a `wp_gen` topology (`--seed` and the generator
/// flags).
fn load_spec(args: &DseArgs) -> Result<(String, NetlistSpec), String> {
    match &args.spec {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let spec = NetlistSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            Ok((path.clone(), spec))
        }
        None => {
            let gen = &args.generator.gen;
            Ok((format!("seed {}", gen.seed), generate(gen)))
        }
    }
}

/// Prints the frontier report (deterministic stdout) and spot-verifies
/// when asked.
fn publish(
    args: &DseArgs,
    label: &str,
    spec: &NetlistSpec,
    space: &SearchSpace,
    outcome: &DseOutcome,
    wall_seconds: f64,
) -> Result<(), Box<dyn std::error::Error>> {
    let coverage = if outcome.exhaustive {
        "exhaustive"
    } else {
        "neighborhood search"
    };
    let title = format!(
        "Pareto frontier: {label} ({} channels, cap {}, {coverage})",
        space.channels(),
        space.cap(),
    );
    print!("{}", format_frontier(&title, &outcome.frontier));
    println!(
        "scored {} configuration(s), frontier {} point(s)",
        outcome.scored,
        outcome.frontier.len()
    );
    let rate = outcome.scored as f64 / wall_seconds.max(1e-9);
    eprintln!(
        "scored {} configuration(s) in {wall_seconds:.3}s ({rate:.0} configurations/s)",
        outcome.scored
    );

    if args.verify {
        let measured = spot_verify_frontier(
            spec,
            args.generator.clock,
            &outcome.frontier,
            args.generator.firings,
            &args.sweep.runner(),
            args.sweep.lanes,
            args.sweep.oracle,
        )?;
        let worst = outcome
            .frontier
            .iter()
            .zip(&measured)
            .map(|(p, th)| (th - p.cycle_throughput).abs() / p.cycle_throughput)
            .fold(0.0f64, f64::max);
        println!(
            "spot-verified {} frontier point(s) by lane simulation within 2% of the analytic \
             scores",
            measured.len()
        );
        eprintln!("worst analytic-vs-measured error: {:.3}%", 100.0 * worst);
    }

    if args.dot {
        // Annotate the spec with the best (highest-effective) frontier
        // assignment — the one a designer would take forward.
        if let Some(best) = outcome.frontier.last() {
            let mut annotated = spec.clone();
            annotated.insert_relays(args.generator.clock);
            annotated.apply_relay_assignment(&best.assignment);
            annotated.budget = None;
            let name: String = label
                .chars()
                .map(|c| if c.is_alphanumeric() { c } else { '_' })
                .collect();
            print!("{}", spec_to_dot(&annotated, &name));
        }
    }

    Ok(())
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = DseArgs::from_args(&argv).unwrap_or_else(|e| e.exit());
    let (label, spec) = load_spec(&args)?;
    let space = SearchSpace::new(&spec, args.cap, args.generator.clock)
        .map_err(|e| format!("{label}: {e}"))?;
    let cfg = DseConfig {
        mode: args.mode,
        seed: args.generator.gen.seed,
        units: args.units,
    };
    let workers = args.sweep.runner().workers();
    eprintln!(
        "searching the {} configuration space of {label} across {workers} worker thread(s)",
        space.size()
    );
    let start = Instant::now();
    let outcome = search(&space, &cfg, workers);
    publish(
        &args,
        &label,
        &spec,
        &space,
        &outcome,
        start.elapsed().as_secs_f64(),
    )
}

fn main() {
    exit_on_error(run());
}

//! End-to-end runner for netlist description files and generated
//! topologies: parse (or generate), insert relay stations from wire
//! latencies, lower, and self-check.
//!
//! Every netlist goes through the full pipeline:
//!
//! 1. **Equivalence** — the wire-pipelined (WP1 strict) run is streamed
//!    against its demand-stepped golden twin
//!    (`wp_sim::Scenario::with_equivalence_check`); any divergence of the
//!    τ-filtered channel realisations fails the netlist.
//! 2. **Throughput** — for synthetic (`fan`) netlists, an 8-lane
//!    bit-parallel batch (`wp_sim::LaneLidSimulator`, lane `k` adding `k`
//!    relay stations to the first channel) measures the steady-state
//!    throughput of each lane, which must match the exact
//!    max-cycle-ratio prediction (`wp_netlist::ThroughputModel::Exact`)
//!    within 2 % relative.  Each line reports how many of the 8 lanes the
//!    period oracle extrapolated, and the summary totals them: a lane that
//!    was not extrapolated simulated all the way to its goal.  Stderr
//!    tallies those lanes by reason (`wp_sim::OracleFallback`).
//!
//!    Before either run, a synthetic netlist whose exact MCR proves that
//!    a run cannot reach its firing target within the run's cycle ceiling
//!    fails at once, naming the cycles the MCR predicts.
//! 3. **Program result** — self-contained SoC specs (a `cu` block with
//!    workload attributes, see `examples/soc_sort.nl`) instead run their
//!    program to the halt and check the final data memory against the
//!    workload's expected image; the golden-vs-WP1 throughput is reported.
//!
//! Flags: `--spec FILE` (repeatable) checks committed `.nl` files;
//! `--count N --seed S` checks `N` seeded `wp_gen` topologies (seeds
//! `S..S+N`); `--blocks LO:HI`, `--chords LO:HI`, `--max-relay N` and
//! `--latency-percent P` shape the generator; `--clock P` sets the clock
//! period for latency→relay insertion; `--firings N` the steady-state
//! target; `--print` / `--dot` dump each spec (canonical text / annotated
//! Graphviz); `--verify` exits 1 on any failure.  The scheduler flags
//! (`--workers N`, `--batch N`, `--lanes`, `--oracle`) are shared with the
//! other binaries.

use std::collections::BTreeMap;
use std::fmt;

use wp_bench::cli::NetlistRunArgs;
use wp_bench::MAX_CYCLES;
use wp_core::ShellConfig;
use wp_gen::{generate, GenConfig};
use wp_netlist::{strongly_connected_components, Netlist, ThroughputModel};
use wp_proc::{soc_spec_context, soc_state, Msg, SocSpecContext, CU, SOC_KINDS};
use wp_sim::{
    GoldenSimulator, LaneLidSimulator, LaneScenario, OracleFallback, RunGoal, Scenario, SweepRunner,
};
use wp_spec::{lower, spec_to_dot, synthetic_registry, NetlistSpec};

/// Lanes of the throughput batch: lane `k` adds `k` relay stations to the
/// first channel, so one batch samples 8 budgets of the same topology.
const LANES: usize = 8;
/// Firing target of the streamed equivalence run (every firing of every
/// process is checked, so a short run proves a long prefix).
const EQUIV_FIRINGS: u64 = 2_000;
/// Cycle ceiling of the streamed equivalence run.
const EQUIV_MAX_CYCLES: u64 = 1_000 * EQUIV_FIRINGS;
/// Cycle ceiling of the lane run, per firing of its target.
const LANE_CYCLES_PER_FIRING: u64 = 100;
/// Measured-vs-predicted steady-state tolerance (relative).
const TOLERANCE: f64 = 0.02;

/// How a netlist failed, for the summary's failure taxonomy.
enum Failure {
    /// The lid-vs-golden streaming equivalence gate tripped.
    Equivalence(String),
    /// A lane's measured steady state missed the exact MCR prediction.
    Throughput(String),
    /// Anything else: parse error, lowering error, deadlock, wrong
    /// program result.
    Other(String),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Equivalence(m) => write!(f, "equivalence: {m}"),
            Failure::Throughput(m) => write!(f, "throughput: {m}"),
            Failure::Other(m) => write!(f, "{m}"),
        }
    }
}

/// Process 0's firing bound in the WP1 realisation of `net`: no run of `c`
/// cycles fires process 0 more than `rate·c + slack` times.
///
/// `rate` is the exact MCR (worst `m/(m+n)` loop ratio) of the strongly
/// connected component holding process 0, or 1 when process 0 is on no
/// loop (a process fires at most once per cycle).  A loop of `m` channels
/// and `n` relay stations holds `m` tokens, and each token needs `m + n`
/// cycles to go round, so a process on the component's critical loop
/// fires at most `m` times in any `m + n` consecutive cycles: fewer than
/// `rate·c + m` times in `c` cycles.  A consumer leads its producer by at
/// most the one token their channel holds at reset, so along a forward
/// path of `p` channels from that loop, process 0 leads it by at most `p`
/// firings.  Both `m` and `p` are at most the block count.
fn firing_bound(net: &Netlist) -> (f64, u64) {
    let slack = 2 * net.node_count() as u64;
    let Some(first) = net.node_ids().next() else {
        return (1.0, slack);
    };
    let component = strongly_connected_components(net)
        .into_iter()
        .find(|c| c.contains(&first))
        .unwrap_or_default();
    let rate = ThroughputModel::Exact
        .analyze(net)
        .loops()
        .iter()
        .filter(|l| component.contains(&l.cycle.nodes[0]))
        .fold(1.0, |rate: f64, l| rate.min(l.throughput));
    (rate, slack)
}

/// Fails a run whose cycle ceiling `cap` is provably too small for
/// `target` firings of process 0 under `bound` (see [`firing_bound`]),
/// naming the cycles the exact MCR predicts.  A run that could still make
/// it within `cap` passes, so no run that would succeed is refused.
fn check_cycle_cap(run: &str, target: u64, bound: (f64, u64), cap: u64) -> Result<(), Failure> {
    let (rate, slack) = bound;
    if target as f64 <= rate * cap as f64 + slack as f64 {
        return Ok(());
    }
    Err(Failure::Other(format!(
        "{run} needs ~{} cycles for {target} firings at exact MCR {rate:.6}, \
         above its cap of {cap} cycles",
        (target as f64 / rate).ceil()
    )))
}

/// A passed check: its report line, and why each lane of the throughput
/// batch was not extrapolated (`None` for an extrapolated lane; no entries
/// when no lane batch ran).
type Checked = (String, Vec<Option<OracleFallback>>);

/// Checks a synthetic (`fan`) netlist: streamed lid-vs-golden equivalence,
/// then the 8-lane steady-state measurement against the exact MCR solver.
fn check_synthetic(
    label: &str,
    spec: &NetlistSpec,
    firings: u64,
    runner: &SweepRunner,
) -> Result<Checked, Failure> {
    // Validate the lowering once up front so factory closures may expect().
    lower::<u64>(spec, &synthetic_registry()).map_err(|e| Failure::Other(e.to_string()))?;
    // Refuse up front a run whose cycle ceiling the exact MCR already rules
    // out, instead of simulating up to the ceiling; the lane run's slowest
    // lane is the last (most relay stations on the first channel).
    check_cycle_cap(
        "equivalence run",
        EQUIV_FIRINGS,
        firing_bound(&spec.to_netlist()),
        EQUIV_MAX_CYCLES,
    )?;
    let mut slowest = spec.clone();
    if let Some(first) = slowest.channels.first_mut() {
        first.relay_stations += LANES - 1;
    }
    check_cycle_cap(
        &format!("lane {}", LANES - 1),
        firings,
        firing_bound(&slowest.to_netlist()),
        LANE_CYCLES_PER_FIRING * firings,
    )?;
    let factory = {
        let spec = spec.clone();
        move || lower(&spec, &synthetic_registry()).expect("validated spec lowers")
    };
    let golden = {
        let spec = spec.clone();
        move || lower(&spec, &synthetic_registry()).expect("validated spec lowers")
    };
    let scenario = Scenario::<u64>::new(
        label,
        ShellConfig::strict(),
        RunGoal::UntilFirings {
            process: 0,
            target: EQUIV_FIRINGS,
            max_cycles: EQUIV_MAX_CYCLES,
        },
        factory,
    )
    .with_equivalence_check(golden);
    let outcome = runner
        .run(vec![scenario])
        .pop()
        .expect("one outcome per scenario")
        .map_err(|e| Failure::Other(format!("equivalence run failed: {e}")))?;
    let report = outcome.equivalence.expect("the gate was installed");
    if !report.is_equivalent() {
        return Err(Failure::Equivalence(report.to_string()));
    }
    let proven_n = report.proven_n();

    let base: Vec<usize> = spec.channels.iter().map(|c| c.relay_stations).collect();
    let lanes: Vec<LaneScenario> = (0..LANES)
        .map(|k| {
            let mut relay_stations = base.clone();
            relay_stations[0] += k;
            LaneScenario {
                relay_stations,
                stall: None,
            }
        })
        .collect();
    let builder = lower(spec, &synthetic_registry()).expect("validated spec lowers");
    let mut sim = LaneLidSimulator::new(builder, &lanes, ShellConfig::strict())
        .map_err(|e| Failure::Other(format!("lane batch failed to assemble: {e}")))?;
    let mut worst = 0.0f64;
    let mut routes = Vec::with_capacity(LANES);
    for (k, outcome) in sim
        .run_until_firings_extrapolated(0, firings, LANE_CYCLES_PER_FIRING * firings)
        .into_iter()
        .enumerate()
    {
        let run = outcome.map_err(|e| Failure::Other(format!("lane {k}: {e}")))?;
        let mut lane_spec = spec.clone();
        lane_spec.channels[0].relay_stations += k;
        let predicted = ThroughputModel::Exact.predict(&lane_spec.to_netlist());
        let measured = firings as f64 / run.report.cycles as f64;
        let error = (measured - predicted).abs() / predicted;
        if error >= TOLERANCE {
            return Err(Failure::Throughput(format!(
                "lane {k}: measured {measured:.6} vs exact MCR {predicted:.6}"
            )));
        }
        worst = worst.max(error);
        routes.push(run.fallback);
    }
    let extrapolated = routes.iter().filter(|why| why.is_none()).count();
    let detail = format!(
        "{} blocks, {} channels, {} RS; proven N {proven_n}, worst lane error {:.3}%, \
         {extrapolated}/{LANES} lanes extrapolated",
        spec.blocks.len(),
        spec.channels.len(),
        spec.total_relay_stations(),
        100.0 * worst
    );
    Ok((detail, routes))
}

/// Checks a self-contained SoC spec: program result and lid-vs-golden
/// equivalence of the WP1 run, with the golden-vs-WP1 throughput reported.
fn check_soc(
    label: &str,
    spec: &NetlistSpec,
    ctx: &SocSpecContext,
    runner: &SweepRunner,
) -> Result<Checked, Failure> {
    let build_err = |e: wp_spec::SpecError| Failure::Other(e.to_string());
    let mut golden = GoldenSimulator::new(lower(spec, &ctx.registry()).map_err(build_err)?)
        .map_err(|e| Failure::Other(format!("golden assembly failed: {e}")))?;
    let golden_cycles = golden
        .run_until_halt(CU, MAX_CYCLES)
        .map_err(|e| Failure::Other(format!("golden run failed: {e}")))?;

    let factory = {
        let spec = spec.clone();
        let ctx = ctx.clone();
        move || lower(&spec, &ctx.registry()).expect("validated spec lowers")
    };
    let golden_factory = {
        let spec = spec.clone();
        let ctx = ctx.clone();
        move || lower(&spec, &ctx.registry()).expect("validated spec lowers")
    };
    let scenario = Scenario::<Msg>::new(
        label,
        ShellConfig::strict(),
        RunGoal::UntilHalt {
            process: CU,
            max_cycles: MAX_CYCLES,
        },
        factory,
    )
    .with_drain(32, 100_000)
    .with_post(|sim| soc_state(sim).expect("spec-built SoC has the five blocks"))
    .with_equivalence_check(golden_factory);
    let outcome = runner
        .run(vec![scenario])
        .pop()
        .expect("one outcome per scenario")
        .map_err(|e| Failure::Other(format!("WP1 run failed: {e}")))?;
    let report = outcome.equivalence.expect("the gate was installed");
    if !report.is_equivalent() {
        return Err(Failure::Equivalence(report.to_string()));
    }
    let state = outcome.post.expect("the post-extraction was installed");
    let expected = ctx.workload.expected_memory.len();
    if state.memory.len() < expected || !ctx.workload.check(&state.memory[..expected]) {
        return Err(Failure::Other(
            "final memory does not match the expected result".to_string(),
        ));
    }
    let detail = format!(
        "workload {}, golden {golden_cycles} cy, WP1 {} cy, Th {:.3}, proven N {}",
        ctx.workload.name,
        outcome.cycles_to_goal,
        golden_cycles as f64 / outcome.cycles_to_goal as f64,
        report.proven_n()
    );
    Ok((detail, Vec::new()))
}

fn check_netlist(
    label: &str,
    mut spec: NetlistSpec,
    opts: &NetlistRunArgs,
    runner: &SweepRunner,
) -> Result<Checked, Failure> {
    if opts.print {
        print!("{spec}");
    }
    if opts.dot {
        let name: String = label
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        print!("{}", spec_to_dot(&spec, &name));
    }
    spec.insert_relays(opts.generator.clock);
    match soc_spec_context(&spec).map_err(|e| Failure::Other(e.to_string()))? {
        Some(ctx) => check_soc(label, &spec, &ctx, runner),
        // A topology-only SoC spec (processor kinds, no workload
        // attributes) has nothing to run: the workload is the caller's to
        // supply, as `wp_proc::build_soc` does for `examples/soc.nl`.
        None if spec
            .blocks
            .iter()
            .any(|b| SOC_KINDS.contains(&b.kind.as_str())) =>
        {
            Ok((
                "skipped: topology-only SoC spec (no workload attributes)".to_string(),
                Vec::new(),
            ))
        }
        None => check_synthetic(label, &spec, opts.generator.firings, runner),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = NetlistRunArgs::from_args(&args).unwrap_or_else(|e| e.exit());
    let runner = opts.sweep.runner();

    // The work list: committed spec files first, then generated seeds.
    let mut netlists: Vec<(String, Result<NetlistSpec, Failure>)> = Vec::new();
    for path in &opts.specs {
        let spec = std::fs::read_to_string(path)
            .map_err(|e| Failure::Other(format!("cannot read: {e}")))
            .and_then(|text| NetlistSpec::parse(&text).map_err(|e| Failure::Other(e.to_string())));
        netlists.push((path.clone(), spec));
    }
    for i in 0..opts.count {
        let cfg = GenConfig {
            seed: opts.generator.gen.seed.wrapping_add(i as u64),
            ..opts.generator.gen
        };
        netlists.push((format!("seed {}", cfg.seed), Ok(generate(&cfg))));
    }

    let (mut equivalence, mut throughput, mut other) = (0usize, 0usize, 0usize);
    let (mut lanes_extrapolated, mut lanes_run) = (0usize, 0usize);
    let mut fallbacks: BTreeMap<&str, usize> = BTreeMap::new();
    let total = netlists.len();
    for (label, spec) in netlists {
        let result = spec.and_then(|spec| check_netlist(&label, spec, &opts, &runner));
        match result {
            Ok((detail, routes)) => {
                lanes_run += routes.len();
                for why in routes {
                    match why {
                        None => lanes_extrapolated += 1,
                        Some(why) => *fallbacks.entry(why.label()).or_default() += 1,
                    }
                }
                println!("{label:<24} ok    {detail}");
            }
            Err(failure) => {
                match failure {
                    Failure::Equivalence(_) => equivalence += 1,
                    Failure::Throughput(_) => throughput += 1,
                    Failure::Other(_) => other += 1,
                }
                println!("{label:<24} FAIL  {failure}");
            }
        }
    }
    println!(
        "\n{total} netlists: {equivalence} equivalence failures, {throughput} throughput \
         mismatches, {other} other failures; {lanes_extrapolated}/{lanes_run} lanes extrapolated"
    );
    let plain: Vec<String> = fallbacks
        .iter()
        .map(|(why, n)| format!("{n} {why}"))
        .collect();
    eprintln!(
        "oracle: {lanes_extrapolated}/{lanes_run} lanes extrapolated; plain: {}",
        if plain.is_empty() {
            "none".into()
        } else {
            plain.join(", ")
        }
    );
    if opts.verify && equivalence + throughput + other > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_sim::LidSimulator;

    /// A one-block spec whose only channel loops back with `relay`
    /// stations.
    fn self_loop(relay: usize) -> NetlistSpec {
        NetlistSpec::parse(&format!(
            "block a kind=fan\nport a in i0\nport a out o0\n\
             channel c from=a.o0 to=a.i0 relay={relay}\n"
        ))
        .unwrap()
    }

    /// The bound refuses a self-loop at the relay limit at once, and on the
    /// lane run's ceiling it draws the line exactly where simulation does:
    /// 92 relay stations (99 in the slowest lane) still fit 20 000 firings
    /// in 2 000 000 cycles, 93 do not.
    #[test]
    fn cycle_caps_refuse_only_runs_out_of_reach() {
        let bound = firing_bound(&self_loop(4096).to_netlist());
        match check_cycle_cap("equivalence run", EQUIV_FIRINGS, bound, EQUIV_MAX_CYCLES) {
            Err(Failure::Other(message)) => assert!(
                message.contains("needs ~8194000 cycles for 2000 firings")
                    && message.contains("cap of 2000000 cycles"),
                "{message}"
            ),
            _ => panic!("a 4096-station loop cannot fire 2000 times in the cap"),
        }
        let lane_cap = |relay| {
            let bound = firing_bound(&self_loop(relay + LANES - 1).to_netlist());
            check_cycle_cap("lane", 20_000, bound, LANE_CYCLES_PER_FIRING * 20_000).is_ok()
        };
        assert!(lane_cap(92));
        assert!(!lane_cap(93));
    }

    /// The bound is sound on simulated runs: at the exact cycle a WP1 run
    /// reaches each firing target, a ceiling of that many cycles passes.
    /// Rings with relay stations start with their tokens bunched and fire
    /// ahead of the steady-state rate, which the slack covers.
    #[test]
    fn firing_bound_holds_at_every_simulated_goal_cycle() {
        let mut specs: Vec<NetlistSpec> = (0..8)
            .map(|seed| {
                let mut spec = generate(&GenConfig {
                    seed,
                    ..GenConfig::default()
                });
                spec.insert_relays(1.0);
                spec
            })
            .collect();
        specs.push(self_loop(5));
        specs.push(
            NetlistSpec::parse(
                "block a kind=fan\nport a in i0\nport a out o0\n\
                 block b kind=fan\nport b in i0\nport b out o0\n\
                 block c kind=fan\nport c in i0\nport c out o0\n\
                 channel ab from=a.o0 to=b.i0 relay=7\n\
                 channel bc from=b.o0 to=c.i0\n\
                 channel ca from=c.o0 to=a.i0\n",
            )
            .unwrap(),
        );
        for spec in &specs {
            let bound = firing_bound(&spec.to_netlist());
            let builder = lower::<u64>(spec, &synthetic_registry()).unwrap();
            let mut sim = LidSimulator::new(builder, ShellConfig::strict()).unwrap();
            sim.set_trace_enabled(false);
            for target in 1..=300 {
                let cycles = sim.run_until_firings(0, target, 1_000_000).unwrap();
                assert!(
                    check_cycle_cap("run", target, bound, cycles).is_ok(),
                    "{spec}: {target} firings at cycle {cycles}, bound {bound:?}"
                );
            }
        }
    }
}

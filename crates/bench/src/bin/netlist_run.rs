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
//! (`--workers N`, `--batch N`) are shared with the other binaries.

use std::collections::BTreeMap;
use std::fmt;

use wp_bench::{flag_value, ArgError, SweepArgs, MAX_CYCLES};
use wp_core::ShellConfig;
use wp_gen::{generate, GenConfig};
use wp_netlist::ThroughputModel;
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

struct Options {
    specs: Vec<String>,
    count: usize,
    seed: u64,
    gen: GenConfig,
    clock: f64,
    firings: u64,
    verify: bool,
    print: bool,
    dot: bool,
}

/// Parses `LO:HI` into an inclusive range pair.
fn parse_range(flag: &'static str, value: &str) -> Result<(usize, usize), ArgError> {
    let invalid = || ArgError::InvalidValue {
        flag: flag.to_string(),
        value: value.to_string(),
        expected: "a range LO:HI of positive integers",
    };
    let (lo, hi) = value.split_once(':').ok_or_else(invalid)?;
    let lo: usize = lo.parse().map_err(|_| invalid())?;
    let hi: usize = hi.parse().map_err(|_| invalid())?;
    if lo == 0 || hi < lo {
        return Err(invalid());
    }
    Ok((lo, hi))
}

fn parse_options(args: &[String]) -> Result<Options, ArgError> {
    let mut specs = Vec::new();
    let mut iter = args.iter().enumerate();
    while let Some((i, arg)) = iter.next() {
        if let Some(v) = arg.strip_prefix("--spec=") {
            specs.push(v.to_string());
        } else if arg == "--spec" {
            match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(v) => {
                    specs.push(v.clone());
                    iter.next();
                }
                None => {
                    return Err(ArgError::MissingValue {
                        flag: "--spec".to_string(),
                    })
                }
            }
        }
    }
    let parse_num = |name: &'static str, expected: &'static str| -> Result<Option<u64>, ArgError> {
        match flag_value(args, name)? {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| ArgError::InvalidValue {
                flag: name.to_string(),
                value: v,
                expected,
            }),
        }
    };
    let mut gen = GenConfig::default();
    if let Some(v) = flag_value(args, "--blocks")? {
        gen.blocks = parse_range("--blocks", &v)?;
    }
    if let Some(v) = flag_value(args, "--chords")? {
        gen.chords = parse_range("--chords", &v)?;
    }
    if let Some(v) = parse_num("--max-relay", "a non-negative integer")? {
        gen.max_relay = v as usize;
    }
    if let Some(v) = parse_num("--latency-percent", "a percentage 0-100")? {
        if v > 100 {
            return Err(ArgError::InvalidValue {
                flag: "--latency-percent".to_string(),
                value: v.to_string(),
                expected: "a percentage 0-100",
            });
        }
        gen.latency_percent = v as u8;
    }
    let clock = match flag_value(args, "--clock")? {
        None => 1.0,
        Some(v) => match v.parse::<f64>() {
            Ok(c) if c > 0.0 => c,
            _ => {
                return Err(ArgError::InvalidValue {
                    flag: "--clock".to_string(),
                    value: v,
                    expected: "a positive clock period",
                })
            }
        },
    };
    // Without --spec the runner checks one generated netlist by default;
    // with --spec, generation is opt-in via --count.
    let default_count = usize::from(specs.is_empty());
    Ok(Options {
        count: parse_num("--count", "a non-negative integer")?
            .map_or(default_count, |v| v as usize),
        seed: parse_num("--seed", "a seed")?.unwrap_or(0),
        gen,
        clock,
        firings: parse_num("--firings", "a positive firing target")?.unwrap_or(20_000),
        verify: args.iter().any(|a| a == "--verify"),
        print: args.iter().any(|a| a == "--print"),
        dot: args.iter().any(|a| a == "--dot"),
        specs,
    })
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
            max_cycles: 1_000 * EQUIV_FIRINGS,
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
        .run_until_firings_extrapolated(0, firings, 100 * firings)
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
    opts: &Options,
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
    spec.insert_relays(opts.clock);
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
        None => check_synthetic(label, &spec, opts.firings, runner),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_options(&args).unwrap_or_else(|e| e.exit());
    let runner = SweepArgs::from_args(&args)
        .unwrap_or_else(|e| e.exit())
        .runner();

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
            seed: opts.seed + i as u64,
            ..opts.gen
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

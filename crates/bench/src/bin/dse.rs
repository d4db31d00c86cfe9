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
//! [--workers N] [--batch N] [--lanes on|off|auto] [--oracle on|off|auto]
//! [--shards N | --shard i/N] [--emit-ndjson]`
//!
//! The work-unit plan is deterministic and worker-count-independent, the
//! per-cost merge is commutative, and all candidate ties break by a total
//! order — so stdout is byte-identical across `--workers` and `--shards`
//! (CI diffs them).  Wall-clock figures (configurations/second)
//! go to stderr only.
//!
//! `--quick` shrinks the cap and firing target for the CI smoke.  `--dot`
//! prints the spec annotated with the best frontier assignment as
//! Graphviz.  The CI perf gate over this search is the `bench` binary.

use std::time::Instant;

use wp_bench::{
    dse_unit_from_json, dse_unit_ndjson, exit_on_error, flag_value, format_frontier,
    spot_verify_frontier, ArgError, ShardArgs, SweepArgs,
};
use wp_dse::{
    merge_outcomes, plan_units, run_units, DseConfig, DseOutcome, Evaluator, SearchMode,
    SearchSpace, WorkUnit, DEFAULT_EXHAUSTIVE_LIMIT, DEFAULT_STEPS, DEFAULT_WALKS,
};
use wp_gen::{generate, GenConfig};
use wp_spec::{spec_to_dot, NetlistSpec, MAX_RELAY_STATIONS};

struct Args {
    spec: Option<String>,
    seed: u64,
    gen: GenConfig,
    clock: f64,
    cap: usize,
    mode: SearchMode,
    firings: u64,
    verify: bool,
    dot: bool,
    units: usize,
    sweep: SweepArgs,
    shard: ShardArgs,
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

fn parse_args(args: &[String]) -> Result<Args, ArgError> {
    let quick = args.iter().any(|a| a == "--quick");
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
    // --quick shrinks the space (cap 2) and the spot-verify target so the
    // smoke run takes seconds; explicit flags still win.  A cap above
    // MAX_RELAY_STATIONS would put channels past what a spec may lower.
    const CAP_EXPECTED: &str = "a relay-station cap from 0 to 4096";
    const _: () = assert!(MAX_RELAY_STATIONS == 4096, "CAP_EXPECTED names the limit");
    let default_cap = if quick { 2 } else { 3 };
    let cap = match parse_num("--cap", CAP_EXPECTED)? {
        None => default_cap,
        Some(v) if v <= MAX_RELAY_STATIONS as u64 => v as usize,
        Some(v) => {
            return Err(ArgError::InvalidValue {
                flag: "--cap".to_string(),
                value: v.to_string(),
                expected: CAP_EXPECTED,
            })
        }
    };
    let firings = parse_num("--firings", "a positive firing target")?.unwrap_or(if quick {
        2_000
    } else {
        20_000
    });
    let walks = parse_num("--walks", "a positive walk count")?
        .map_or(DEFAULT_WALKS, |v| v as usize)
        .max(1);
    let steps = parse_num("--steps", "a positive step count")?
        .map_or(DEFAULT_STEPS, |v| v as usize)
        .max(1);
    let exhaustive_limit = parse_num("--limit", "a maximum exhaustive space size")?
        .map_or(DEFAULT_EXHAUSTIVE_LIMIT, u128::from);
    let mode = match flag_value(args, "--mode")? {
        None => SearchMode::Auto {
            exhaustive_limit,
            walks,
            steps,
        },
        Some(v) => match v.as_str() {
            "auto" => SearchMode::Auto {
                exhaustive_limit,
                walks,
                steps,
            },
            "exhaustive" => SearchMode::Exhaustive,
            "walk" => SearchMode::Neighborhood { walks, steps },
            _ => {
                return Err(ArgError::InvalidValue {
                    flag: "--mode".to_string(),
                    value: v,
                    expected: "one of auto, exhaustive, walk",
                })
            }
        },
    };
    Ok(Args {
        spec: flag_value(args, "--spec")?,
        seed: parse_num("--seed", "a seed")?.unwrap_or(0),
        gen,
        clock,
        cap,
        mode,
        firings,
        verify: args.iter().any(|a| a == "--verify"),
        dot: args.iter().any(|a| a == "--dot"),
        units: parse_num("--units", "a positive unit count")?
            .map_or(wp_dse::DEFAULT_UNITS, |v| v as usize)
            .max(1),
        sweep: SweepArgs::from_args(args)?,
        shard: ShardArgs::from_args(args)?,
    })
}

/// The netlist under exploration and its display label: a committed spec
/// file (`--spec`) or a `wp_gen` topology (`--seed` and the generator
/// flags).  Built identically by the sharding parent and every worker, so
/// the whole fleet agrees on the space and the unit numbering.
fn load_spec(args: &Args) -> Result<(String, NetlistSpec), String> {
    match &args.spec {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let spec = NetlistSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
            Ok((path.clone(), spec))
        }
        None => {
            let cfg = GenConfig {
                seed: args.seed,
                ..args.gen
            };
            Ok((format!("seed {}", args.seed), generate(&cfg)))
        }
    }
}

/// Prints the frontier report (deterministic stdout) and spot-verifies
/// when asked — exactly the same way for the in-process run and the
/// sharding parent.
fn publish(
    args: &Args,
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
            args.clock,
            &outcome.frontier,
            args.firings,
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
            annotated.insert_relays(args.clock);
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
    let args = parse_args(&argv).unwrap_or_else(|e| e.exit());
    let (label, spec) = load_spec(&args)?;
    let space =
        SearchSpace::new(&spec, args.cap, args.clock).map_err(|e| format!("{label}: {e}"))?;
    let cfg = DseConfig {
        mode: args.mode,
        seed: args.seed,
        units: args.units,
    };
    let units = plan_units(&space, &cfg);
    let start = Instant::now();
    // The parent re-scores every survivor a worker returns on its own
    // evaluator, cross-checking bit identity.
    let mut eval = Evaluator::new(&space);
    let Some(outcomes) = args.shard.run_rows(
        units.len(),
        "work unit",
        None,
        |range| {
            let workers = args.sweep.runner().workers();
            eprintln!(
                "searching {} of {} work unit(s) over the {} configuration space of {label} \
                 across {workers} worker thread(s)",
                range.len(),
                units.len(),
                space.size()
            );
            Ok(run_units(&space, &cfg, &units[range], workers))
        },
        dse_unit_ndjson,
        |_, record| dse_unit_from_json(record, &space, &mut eval),
    )?
    else {
        return Ok(());
    };
    let outcome = merge_outcomes(
        outcomes,
        matches!(units.first(), Some(WorkUnit::Range { .. })),
    );
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

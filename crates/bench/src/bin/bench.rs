//! The kernel perf bench: measures the kernels behind the reproduced
//! claims and writes one report of typed metric records
//! (`wp_bench::MetricRecord`) that `bench_compare` gates against the
//! committed `BENCH_baseline.json`.
//!
//! * **Lane kernel** — 64 stall variants of each quick Table-1 WP1 run, by
//!   64 scalar simulators and by one lane-packed simulator (outcomes
//!   asserted bit-identical).  Gated: the wall-clock speedup.
//! * **Period oracle** — each full Table-1 WP1 run to its golden firing
//!   count, plainly and extrapolated by a one-lane batch of the lane
//!   kernel's oracle (report asserted bit-identical, steady state asserted
//!   extrapolated).  Gated: the deterministic cycle saving and the
//!   wall-clock speedup.
//! * **Design-space search** — the exhaustive 4^10 search of generated
//!   netlist seed 9 (5 blocks, 5 chords, cap 3), every frontier point
//!   spot-verified by simulation within 2%.  Gated: the best frontier
//!   point's effective and cycle throughput (exact-rational scores).
//!
//! Ratios are gated at 50% (wall-clock speedups jitter on shared runners,
//! but losing a fast path entirely still fails), the DSE scores at 25%.
//! Raw timings, counts and the scoring rate ride along ungated.
//!
//! Usage: `bench [--iters N] [--json PATH]` — defaults `--iters 3` (the
//! fastest of `N` timed runs wins) and `--json BENCH_fresh.json`.

use std::time::Instant;

use wp_bench::cli::BenchArgs;
use wp_bench::{
    exit_on_error, matmul_workload, metric_report_json, run_soc_lanes_packed, run_soc_lanes_scalar,
    sort_workload, spot_verify_frontier, MetricRecord, SweepArgs, MAX_CYCLES, WORKLOAD_SEED,
};
use wp_core::ShellConfig;
use wp_dse::{merge_outcomes, plan_units, run_units, DseConfig, SearchSpace, WorkUnit};
use wp_gen::{generate, GenConfig};
use wp_proc::{
    build_soc, extraction_sort, matrix_multiply, run_golden_soc, Link, Msg, Organization, RsConfig,
    Workload, CU,
};
use wp_sim::{LaneLidSimulator, LaneScenario, LidSimulator};

/// Tolerance of the lane and oracle ratios.
const RATIO_GATE: Option<f64> = Some(0.5);
/// Tolerance of the DSE frontier scores.
const DSE_GATE: Option<f64> = Some(0.25);

/// Times `f` over `iters` runs and returns the fastest wall-clock seconds.
fn time_best<T>(iters: u32, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// The records `(metric, unit, value, tolerance)` of one workload, named
/// `layer.metric.workload`.
fn records(
    layer: &str,
    workload: &str,
    rows: &[(&str, &str, f64, Option<f64>)],
) -> Vec<MetricRecord> {
    rows.iter()
        .map(|&(metric, unit, value, tolerance)| MetricRecord {
            name: format!("{layer}.{metric}.{workload}"),
            unit: unit.to_string(),
            value,
            tolerance,
        })
        .collect()
}

/// The lane kernel against 64 scalar runs on one quick workload.
fn lane_kernel(workload: &str, soc: &Workload, rs: &RsConfig, iters: u32) -> Vec<MetricRecord> {
    let scalar = run_soc_lanes_scalar(soc, rs, MAX_CYCLES);
    assert_eq!(
        scalar,
        run_soc_lanes_packed(soc, rs, MAX_CYCLES),
        "{workload}: the lane kernel must reproduce every scalar lane bit-identically"
    );
    let cycles: u64 = scalar.iter().map(|(cycles, _)| cycles).sum();
    let scalar_s = time_best(iters, || run_soc_lanes_scalar(soc, rs, MAX_CYCLES));
    let packed_s = time_best(iters, || run_soc_lanes_packed(soc, rs, MAX_CYCLES));
    records(
        "sim",
        workload,
        &[
            ("lane_speedup", "x", scalar_s / packed_s, RATIO_GATE),
            ("lane_scalar_ms", "ms", 1e3 * scalar_s, None),
            ("lane_packed_ms", "ms", 1e3 * packed_s, None),
            ("lane_cycles", "count", cycles as f64, None),
        ],
    )
}

/// A fresh WP1 simulator of `soc`, traces off.
fn wp1_simulator(soc: &Workload, rs: &RsConfig) -> LidSimulator<Msg> {
    let builder = build_soc(soc, Organization::Pipelined, rs);
    let mut sim = LidSimulator::new(builder, ShellConfig::strict()).expect("SoC assembles");
    sim.set_trace_enabled(false);
    sim
}

/// The period oracle against plain simulation on one full workload.
fn period_oracle(workload: &str, soc: &Workload, rs: &RsConfig, iters: u32) -> Vec<MetricRecord> {
    let target = run_golden_soc(soc, Organization::Pipelined, MAX_CYCLES)
        .expect("golden run completes")
        .cycles;
    let plain = || {
        wp1_simulator(soc, rs)
            .run_until_firings(CU, target, MAX_CYCLES)
            .expect("SoC run completes")
    };
    // A single run is a one-lane batch of the lane kernel's oracle.
    let extrapolated = || {
        let builder = build_soc(soc, Organization::Pipelined, rs);
        let lane = LaneScenario {
            relay_stations: builder
                .channels()
                .iter()
                .map(|c| c.relay_stations)
                .collect(),
            stall: None,
        };
        LaneLidSimulator::new(builder, &[lane], ShellConfig::strict())
            .expect("SoC assembles")
            .run_until_firings_extrapolated(CU, target, MAX_CYCLES)
            .remove(0)
            .expect("SoC run completes")
    };
    let oracle = extrapolated();
    let mut reference = wp1_simulator(soc, rs);
    reference
        .run_until_firings(CU, target, MAX_CYCLES)
        .expect("SoC run completes");
    assert_eq!(
        oracle.report,
        reference.report(),
        "{workload}: the oracle must report the plainly-simulated run"
    );
    assert!(
        oracle.extrapolated,
        "{workload}: the WP1 steady state must be detected and extrapolated"
    );
    let plain_s = time_best(iters, plain);
    let oracle_s = time_best(iters, extrapolated);
    let goal = oracle.report.cycles as f64;
    let simulated = oracle.simulated_cycles as f64;
    let saving = goal / simulated.max(1.0);
    records(
        "sim",
        workload,
        &[
            ("oracle_cycle_saving", "x", saving, RATIO_GATE),
            ("oracle_speedup", "x", plain_s / oracle_s, RATIO_GATE),
            ("oracle_plain_ms", "ms", 1e3 * plain_s, None),
            ("oracle_extrapolated_ms", "ms", 1e3 * oracle_s, None),
            ("oracle_goal_cycles", "count", goal, None),
            ("oracle_simulated_cycles", "count", simulated, None),
        ],
    )
}

/// The exhaustive relay-assignment search on generated netlist `seed`,
/// through the same plan/run/merge calls as the `dse` binary, with every
/// frontier point spot-verified by simulation.
fn design_space(seed: u64, iters: u32) -> Result<Vec<MetricRecord>, String> {
    const CAP: usize = 3;
    const CLOCK: f64 = 1.0;
    const FIRINGS: u64 = 20_000;
    let spec = generate(&GenConfig {
        blocks: (5, 5),
        chords: (5, 5),
        ..GenConfig::with_seed(seed)
    });
    let space = SearchSpace::from_spec(&spec, CAP, CLOCK);
    let cfg = DseConfig {
        seed,
        ..DseConfig::default()
    };
    let sweep = SweepArgs::default();
    let runner = sweep.runner();
    let units = plan_units(&space, &cfg);
    let search = || {
        merge_outcomes(
            run_units(&space, &cfg, &units, runner.workers()),
            matches!(units.first(), Some(WorkUnit::Range { .. })),
        )
    };
    let outcome = search();
    let measured = spot_verify_frontier(
        &spec,
        CLOCK,
        &outcome.frontier,
        FIRINGS,
        &runner,
        sweep.lanes,
        sweep.oracle,
    )?;
    println!(
        "spot-verified {} frontier point(s) of seed {seed} by lane simulation within 2%",
        measured.len()
    );
    let search_s = time_best(iters, search);
    let best = outcome.frontier.last().ok_or("empty Pareto frontier")?;
    let best_th = best.cycle_throughput;
    let (scored, points) = (outcome.scored as f64, outcome.frontier.len() as f64);
    Ok(records(
        "dse",
        &format!("seed{seed}"),
        &[
            ("best_effective", "1/period", best.effective, DSE_GATE),
            ("best_cycle_throughput", "1/cycle", best_th, DSE_GATE),
            ("scored", "count", scored, None),
            ("frontier_points", "count", points, None),
            ("configs_per_s", "1/s", scored / search_s, None),
        ],
    ))
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let BenchArgs { iters, json } = BenchArgs::from_args(&args).unwrap_or_else(|e| e.exit());

    let wp1 = |relays| RsConfig::uniform(relays, &[Link::CuIc]);
    let (sort6, matmul3) = (
        extraction_sort(6, WORKLOAD_SEED)?,
        matrix_multiply(3, WORKLOAD_SEED)?,
    );
    let mut records = lane_kernel("sort6", &sort6, &wp1(1), iters);
    records.extend(lane_kernel("matmul3", &matmul3, &wp1(2), iters));
    records.extend(period_oracle("sort16", &sort_workload(), &wp1(1), iters));
    records.extend(period_oracle("matmul5", &matmul_workload(), &wp1(2), iters));
    records.extend(design_space(9, iters)?);

    for record in &records {
        let gate = record
            .tolerance
            .map_or_else(String::new, |t| format!("gated at -{:.0}%", 100.0 * t));
        println!(
            "{:<36} {:>16.4} {:<15} {gate}",
            record.name, record.value, record.unit
        );
    }
    std::fs::write(&json, metric_report_json(&records))?;
    eprintln!("wrote machine-readable report to {json}");
    Ok(())
}

fn main() {
    exit_on_error(run());
}

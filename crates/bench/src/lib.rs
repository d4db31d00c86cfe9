//! # wp-bench — experiment harness for the DATE'05 wire-pipelining paper
//!
//! This crate hosts the shared plumbing of the experiment binaries (one per
//! table/figure of the paper, see `src/bin/`) and of the Criterion
//! benchmarks.  The heavy lifting is done by the other workspace crates; the
//! code here only sweeps configurations, collects rows and formats tables.
//!
//! Every binary computes its rows in process, on the worker threads of
//! `wp_sim::SweepRunner` (`--workers N`), and parses its command line with
//! [`cli`]: a flag the binary does not declare is an argument error (exit
//! status 2), not a run with silent defaults.

#![warn(missing_docs)]

mod args;
pub mod cli;
mod compare;
mod dse;
mod json;
mod wiring;

pub use args::{
    accept_flags, exit_on_error, flag_value, ArgError, LaneMode, OracleMode, SweepArgs,
};
pub use compare::{
    compare_reports, metric_report_json, parse_metric_records, BenchComparison, MetricRecord,
    RecordError,
};
pub use dse::{format_frontier, spot_verify_frontier, SPOT_TOLERANCE};
pub use json::{bench_report_json, json_f64, json_opt_usize, json_string, BenchTable};
pub use wiring::ScenarioWiring;

use wp_core::{PortSet, Process, ShellConfig, SyncPolicy};
use wp_proc::{
    build_soc, extraction_sort, matrix_multiply, soc_state, Link, Msg, Organization, RsConfig,
    SocError, SocState, Workload, CU,
};
use wp_sim::{
    GoldenSimulator, LaneLidSimulator, LaneScenario, LidReport, LidSimulator, RunGoal, Scenario,
    StallSchedule, SweepOutcome, SweepRunner, SweepStats, SystemBuilder, MAX_LANES,
};

/// Default cycle budget for SoC simulations.
pub const MAX_CYCLES: u64 = 20_000_000;

/// Default problem size for the extraction-sort workload (elements).
pub const SORT_ELEMENTS: usize = 16;
/// Default problem size for the matrix-multiply workload (matrix dimension).
pub const MATMUL_DIM: usize = 5;
/// Seed used by every workload generator in the harness.
pub const WORKLOAD_SEED: u64 = 2005;

/// Builds the default extraction-sort workload of the harness.
pub fn sort_workload() -> Workload {
    extraction_sort(SORT_ELEMENTS, WORKLOAD_SEED).expect("sort workload assembles")
}

/// Builds the default matrix-multiply workload of the harness.
pub fn matmul_workload() -> Workload {
    matrix_multiply(MATMUL_DIM, WORKLOAD_SEED).expect("matmul workload assembles")
}

/// One row of a reproduced Table 1 (or of the multicycle companion table).
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// Relay-station configuration label (e.g. "Only RF-DC").
    pub label: String,
    /// Cycles of the golden (un-pipelined) run.
    pub golden_cycles: u64,
    /// Cycles of the WP1 (strict shells) run.
    pub wp1_cycles: u64,
    /// Cycles of the WP2 (oracle shells) run.
    pub wp2_cycles: u64,
    /// Throughput of WP1 (golden cycles / WP1 cycles).
    pub th_wp1: f64,
    /// Throughput of WP2 (golden cycles / WP2 cycles).
    pub th_wp2: f64,
    /// Throughput predicted for WP1 by the worst-loop law.
    pub th_wp1_predicted: f64,
    /// Relative improvement of WP2 over WP1, in percent.
    pub improvement_percent: f64,
    /// Proven equivalence prefix length (N) of the WP1 run against its
    /// golden twin; `None` when the sweep ran without the equivalence gate
    /// (`verify` of [`run_table_oracle`]).
    pub proven_n_wp1: Option<usize>,
    /// Proven equivalence prefix length (N) of the WP2 run against its
    /// golden twin; `None` when the gate was off.
    pub proven_n_wp2: Option<usize>,
}

impl TableRow {
    fn new(
        label: String,
        golden_cycles: u64,
        wp1_cycles: u64,
        wp2_cycles: u64,
        predicted: f64,
    ) -> Self {
        let ratio = |cycles: u64| {
            if cycles == 0 {
                0.0
            } else {
                golden_cycles as f64 / cycles as f64
            }
        };
        let th_wp1 = ratio(wp1_cycles);
        let th_wp2 = ratio(wp2_cycles);
        Self {
            label,
            golden_cycles,
            wp1_cycles,
            wp2_cycles,
            th_wp1,
            th_wp2,
            th_wp1_predicted: predicted,
            improvement_percent: if th_wp1 > 0.0 {
                100.0 * (th_wp2 - th_wp1) / th_wp1
            } else {
                0.0
            },
            proven_n_wp1: None,
            proven_n_wp2: None,
        }
    }
}

/// The relay-station configurations of the upper part of Table 1 (used for
/// both programs): the ideal system, one relay station on each single link
/// and the "All 1 (no CU-IC)" row.
pub fn table1_base_configs() -> Vec<(String, RsConfig)> {
    let mut configs = vec![("All 0 (ideal)".to_string(), RsConfig::ideal())];
    for link in Link::ALL {
        configs.push((format!("Only {link}"), RsConfig::single(link, 1)));
    }
    configs.push((
        "All 1 (no CU-IC)".to_string(),
        RsConfig::uniform(1, &[Link::CuIc]),
    ));
    configs
}

/// The additional configurations of the matrix-multiply half of Table 1:
/// "All 1 and 2 on one link" for every link, plus the all-2 variants.
pub fn table1_two_rs_configs() -> Vec<(String, RsConfig)> {
    let mut configs = Vec::new();
    for link in Link::ALL {
        let cfg = RsConfig::uniform(1, &[Link::CuIc]).with(link, 2);
        configs.push((format!("All 1 and 2 {link}"), cfg));
    }
    configs.push((
        "All 2 (no CU-IC)".to_string(),
        RsConfig::uniform(2, &[Link::CuIc]),
    ));
    configs.push((
        "All 2 and 1 CU-RF".to_string(),
        RsConfig::uniform(2, &[Link::CuIc]).with(Link::CuRf, 1),
    ));
    configs
}

/// Builds the "Optimal k (no CU-IC)" configuration of Table 1: the same total
/// number of relay stations as "All k (no CU-IC)", but re-distributed over
/// the non-CU-IC links so that the worst-loop throughput predicted by the law
/// is maximised (`wp_netlist::optimize_assignment`).
pub fn optimal_config(workload: &Workload, org: Organization, k: usize) -> (String, RsConfig) {
    let uniform = RsConfig::uniform(k, &[Link::CuIc]);
    let builder = wp_proc::build_soc(workload, org, &RsConfig::ideal());
    let net = builder.to_netlist();
    // Candidate edges: every channel except the CU-IC bundle.
    let excluded: Vec<&str> = Link::CuIc.channel_names().to_vec();
    let candidates: Vec<wp_netlist::EdgeId> = net
        .edge_ids()
        .filter(|&e| !excluded.contains(&net.edge(e).name()))
        .collect();
    let budget: usize = candidates.len() * k;
    debug_assert_eq!(budget, uniform.total());
    let minimum = vec![0usize; net.edge_count()];
    // The greedy optimiser is used here because the exact branch-and-bound
    // search over 2k RS on 9 links visits hundreds of thousands of
    // assignments.  On this netlist the greedy assignment predicts the same
    // throughput as the exact one for k = 1 and 2, the k values Table 1
    // uses (`tests/optimal_k.rs`); the assignments may differ among ties.
    let best = wp_netlist::optimize_assignment_greedy(&net, budget, &minimum, &candidates)
        .expect("the uniform assignment is always feasible");

    // Map the per-edge assignment back onto the per-link configuration (every
    // non-CU-IC link is exactly one channel).
    let mut rs = RsConfig::ideal();
    for link in Link::ALL {
        if link == Link::CuIc {
            continue;
        }
        let name = link.channel_names()[0];
        if let Some(edge) = net.find_edge(name) {
            rs.set(link, best.assignment[edge.index()]);
        }
    }
    (format!("Optimal {k} (no CU-IC)"), rs)
}

/// Predicts the WP1 throughput of a relay-station configuration with the
/// worst-loop law applied to the fig. 1 netlist (exact maximum-cycle-ratio
/// solver — no enumeration cap).
pub fn predict_wp1_throughput(workload: &Workload, org: Organization, rs: &RsConfig) -> f64 {
    let builder = wp_proc::build_soc(workload, org, rs);
    let net = builder.to_netlist();
    wp_netlist::ThroughputModel::Exact.predict(&net)
}

/// Builds the sweep scenario for one wire-pipelined SoC run: the workload on
/// the case-study processor with the given relay-station configuration and
/// shell policy, run until the control unit halts, drained, and finished by
/// extracting the architectural state ([`SocState`]).
pub fn soc_scenario(
    label: impl Into<String>,
    workload: &Workload,
    org: Organization,
    rs: RsConfig,
    policy: SyncPolicy,
) -> Scenario<Msg, SocState> {
    let config = ShellConfig::for_policy(policy);
    soc_scenario_with_config(label, workload, org, rs, config)
}

/// [`soc_scenario`] with an explicit [`ShellConfig`] (e.g. a non-default
/// FIFO depth, as swept by the `ablation_fifo` experiment).
pub fn soc_scenario_with_config(
    label: impl Into<String>,
    workload: &Workload,
    org: Organization,
    rs: RsConfig,
    config: ShellConfig,
) -> Scenario<Msg, SocState> {
    let workload = workload.clone();
    Scenario::<Msg>::new(
        label,
        config,
        RunGoal::UntilHalt {
            process: CU,
            max_cycles: MAX_CYCLES,
        },
        move || build_soc(&workload, org, &rs),
    )
    // Stores and write-backs may still be in flight behind relay stations
    // when the CU halts; drain before reading the memory back.
    .with_drain(32, 100_000)
    .with_post(|sim| soc_state(sim).expect("scenario was built by build_soc"))
}

/// The extrapolating twin of [`soc_scenario`] for the strict (WP1) policy:
/// the same workload and relay-station configuration, run as a sweep
/// scenario that is allowed to extrapolate its steady state with the
/// period oracle ([`Scenario::with_oracle`]).
///
/// The halt goal is re-expressed as a firing goal so the oracle applies:
/// the golden (un-pipelined) system fires the control unit once per cycle,
/// so the CU performs exactly `golden_cycles` firings in any equivalent
/// run and halts on the last one — `UntilHalt` and `UntilFirings { target:
/// golden_cycles }` stop on the very same cycle (both run loops check
/// before stepping).  The table runner computes the golden denominator
/// first, so the target is free.
///
/// The scenario carries no drain and no post-extraction: an extrapolated
/// run's architectural state is frozen at the last simulated cycle, so
/// only the cycle/firing report is meaningful — which is all the table
/// reads.  The memory cross-check is skipped for these rows;
/// `--oracle auto` compensates by re-running one row with full simulation
/// and comparing cycle counts.
pub fn soc_oracle_scenario(
    label: impl Into<String>,
    workload: &Workload,
    org: Organization,
    rs: RsConfig,
    golden_cycles: u64,
) -> Scenario<Msg, SocState> {
    let workload = workload.clone();
    Scenario::<Msg>::new(
        label,
        ShellConfig::strict(),
        RunGoal::UntilFirings {
            process: CU,
            target: golden_cycles,
            max_cycles: MAX_CYCLES,
        },
        move || build_soc(&workload, org, &rs),
    )
    .with_oracle()
    .into_result_type()
}

/// An owned SoC system factory: the closure handed to
/// [`ScenarioWiring::wire_verified`] as the golden twin of a SoC scenario
/// (`wp_sim::GoldenSimulator` ignores shells and relay stations, so the
/// twin shares the factory with the wire-pipelined run).
pub fn soc_factory(
    workload: &Workload,
    org: Organization,
    rs: RsConfig,
) -> impl Fn() -> SystemBuilder<Msg> + Send + Sync + 'static {
    let workload = workload.clone();
    move || build_soc(&workload, org, &rs)
}

/// Builds the sweep scenario for one synthetic-ring throughput measurement:
/// `stages` stages, `relay_stations` on the first edge, the first stage's
/// loop input needed every `skip_period`-th firing (when `Some`), run until
/// stage 0 has fired `firings` times.
///
/// The measured throughput is `report.throughput_of(0)` of the outcome.
pub fn ring_scenario(
    label: impl Into<String>,
    stages: usize,
    relay_stations: usize,
    skip_period: Option<u64>,
    policy: SyncPolicy,
    firings: u64,
) -> Scenario<u64> {
    let config = ShellConfig::for_policy(policy);
    Scenario::<u64>::new(
        label,
        config,
        RunGoal::UntilFirings {
            process: 0,
            target: firings,
            max_cycles: firings.saturating_mul(64).max(10_000),
        },
        move || build_ring(stages, relay_stations, skip_period),
    )
}

/// Unwraps one SoC sweep outcome, validates the program result against the
/// workload and — when the equivalence gate ran — requires the streamed
/// golden-vs-pipelined comparison to have come back equivalent.
///
/// `memory_checked` is `false` for extrapolated oracle rows
/// ([`soc_oracle_scenario`]): they carry no post-extracted state, so only
/// the simulation error is checked.
fn check_soc_outcome(
    workload: &Workload,
    outcome: Result<SweepOutcome<SocState>, wp_sim::SweepError>,
    memory_checked: bool,
) -> Result<SweepOutcome<SocState>, SocError> {
    let outcome = outcome.map_err(|e| SocError::Sim(e.error))?;
    if memory_checked {
        let state = outcome.post.as_ref().ok_or(SocError::MemoryUnavailable)?;
        if !workload.check(&state.memory[..workload.expected_memory.len()]) {
            return Err(SocError::WrongResult);
        }
    }
    if let Some(report) = &outcome.equivalence {
        if !report.is_equivalent() || report.is_vacuous() {
            return Err(SocError::NotEquivalent(report.to_string()));
        }
    }
    Ok(outcome)
}

/// Runs golden + WP1 + WP2 for every configuration and collects table rows
/// with the default scheduler, no equivalence gate and no oracle — the
/// plain [`run_table_oracle`] run.
///
/// # Errors
///
/// Propagates any [`SocError`] from the underlying runs.
pub fn run_table(
    workload: &Workload,
    org: Organization,
    configs: &[(String, RsConfig)],
) -> Result<Vec<TableRow>, SocError> {
    run_table_oracle(
        &SweepRunner::default(),
        workload,
        org,
        configs,
        false,
        LaneMode::Auto,
        OracleMode::Off,
    )
    .map(|(rows, _)| rows)
}

/// The one table runner: golden + WP1 + WP2 for every configuration,
/// collected into table rows, plus the sweep's scheduler counters so the
/// binaries can report the lane and oracle savings
/// ([`SweepStats::oracle_extrapolated_cycles`] vs
/// [`SweepStats::oracle_simulated_cycles`]).
///
/// The golden run is sequential (it is the shared denominator); the
/// 2 × `configs.len()` wire-pipelined runs are swept across `runner`'s
/// worker threads.
///
/// With `verify` the per-scenario equivalence gate is on: every
/// wire-pipelined run is streamed against a demand-stepped golden twin
/// while it executes, a non-equivalent scenario fails the whole table with
/// [`SocError::NotEquivalent`], and the proven N per policy lands in
/// [`TableRow::proven_n_wp1`] / [`TableRow::proven_n_wp2`] (surfaced by
/// [`format_table`] and the JSON report).
///
/// When `lanes` tags lanes (`--lanes`), every scenario carries a lane key
/// so the sweep scheduler may pack qualifying ones into the bit-parallel
/// kernel.  Plain table scenarios read the architectural state back after
/// the run, which disqualifies them, so the scheduler demotes each to the
/// scalar kernel; the extrapolating WP1 twins of an oracle run carry no
/// read-back and run in lane batches.  The produced rows are identical in
/// every mode (pinned byte-for-byte by CI).
///
/// When `oracle` converts rows (`--oracle`) and the equivalence gate is
/// off, every WP1 (strict) scenario is replaced by its extrapolating twin
/// ([`soc_oracle_scenario`], with the goal re-expressed as `golden_cycles`
/// CU firings); the produced cycle columns are bit-identical to a plain
/// run while orders of magnitude fewer cycles are simulated (pinned
/// byte-for-byte by CI).  `verify` wins over the oracle: the equivalence
/// gate streams every run against a golden twin, which the oracle's
/// eligibility rules exclude, so verified tables always simulate fully.
/// With [`OracleMode::Auto`] the first converted row is re-run by full
/// simulation and any cycle-count mismatch fails the table with
/// [`SocError::NotEquivalent`].
///
/// # Errors
///
/// Propagates any [`SocError`] from the underlying runs, including gate
/// failures and a failed `auto` spot-check.
pub fn run_table_oracle(
    runner: &SweepRunner,
    workload: &Workload,
    org: Organization,
    configs: &[(String, RsConfig)],
    verify: bool,
    lanes: LaneMode,
    oracle: OracleMode,
) -> Result<(Vec<TableRow>, SweepStats), SocError> {
    // Only the golden cycle count is needed here: run the un-pipelined
    // system without channel traces or the memory read-back.
    let mut golden = GoldenSimulator::new(build_soc(workload, org, &RsConfig::ideal()))?;
    golden.set_trace_enabled(false);
    let golden_cycles = golden.run_until_halt(CU, MAX_CYCLES)?;
    // The equivalence gate needs the full streamed run, so --verify pins
    // plain simulation regardless of the oracle mode.
    let convert = oracle.converts_rows() && !verify;
    let mut scenarios = Vec::with_capacity(configs.len() * 2);
    for (label, rs) in configs {
        for policy in [SyncPolicy::Strict, SyncPolicy::Oracle] {
            let row_label = format!("{label}/{}", policy.label());
            // The oracle conversion happens at construction (the goal is
            // re-expressed as a firing count), not as a wired feature.
            let scenario = if convert && policy == SyncPolicy::Strict {
                soc_oracle_scenario(row_label, workload, org, *rs, golden_cycles)
            } else {
                soc_scenario(row_label, workload, org, *rs, policy)
            };
            let wiring = ScenarioWiring::new()
                .lane_key(lanes, format!("soc/{}", policy.label()))
                .verified(verify);
            scenarios.push(wiring.wire_verified(scenario, soc_factory(workload, org, *rs)));
        }
    }
    let (outcomes, stats) = runner.run_with_stats(scenarios);
    let mut outcomes = outcomes.into_iter();
    let mut rows = Vec::with_capacity(configs.len());
    for (label, rs) in configs {
        let wp1 = check_soc_outcome(
            workload,
            outcomes.next().expect("one outcome per scenario"),
            !convert,
        )?;
        let wp2 = check_soc_outcome(
            workload,
            outcomes.next().expect("one outcome per scenario"),
            true,
        )?;
        let predicted = predict_wp1_throughput(workload, org, rs);
        let mut row = TableRow::new(
            label.clone(),
            golden_cycles,
            wp1.cycles_to_goal,
            wp2.cycles_to_goal,
            predicted,
        );
        row.proven_n_wp1 = wp1.equivalence.as_ref().map(|r| r.proven_n());
        row.proven_n_wp2 = wp2.equivalence.as_ref().map(|r| r.proven_n());
        rows.push(row);
    }
    // The auto spot-check: fully simulate the first converted row's WP1 run
    // and require the extrapolated cycle count to match.  This empirically
    // re-validates the one assumption extrapolation makes beyond the
    // control-plane argument — that no process halts between the last
    // simulated cycle and the extrapolated goal (see `wp_sim::oracle`).
    if convert && oracle.spot_verifies() {
        if let (Some((_, rs)), Some(row)) = (configs.first(), rows.first()) {
            let mut sim = LidSimulator::new(build_soc(workload, org, rs), ShellConfig::strict())?;
            sim.set_trace_enabled(false);
            let cycles = sim.run_until_halt(CU, MAX_CYCLES)?;
            if cycles != row.wp1_cycles {
                return Err(SocError::NotEquivalent(format!(
                    "oracle spot-check: '{}' extrapolated the WP1 run to {} cycles, but full \
                     simulation reached the halt at {} cycles",
                    row.label, row.wp1_cycles, cycles
                )));
            }
        }
    }
    Ok((rows, stats))
}

/// Formats table rows like the paper's Table 1 (plus the analytic column).
///
/// When any row carries proven-N values (the table was produced by
/// [`run_table_oracle`] with `verify`) two extra columns surface the equivalence prefix
/// proven per policy; rows without a value show `-`.
pub fn format_table(title: &str, rows: &[TableRow]) -> String {
    use std::fmt::Write as _;
    let verified = rows
        .iter()
        .any(|r| r.proven_n_wp1.is_some() || r.proven_n_wp2.is_some());
    let opt = |n: Option<usize>| n.map_or_else(|| "-".to_string(), |n| n.to_string());
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = write!(
        out,
        "{:<24} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>12}",
        "RS Configuration",
        "Golden",
        "WP1 cyc",
        "WP2 cyc",
        "Th WP1",
        "Th WP2",
        "law WP1",
        "WP2 vs WP1"
    );
    if verified {
        let _ = write!(out, " {:>8} {:>8}", "N WP1", "N WP2");
    }
    out.push('\n');
    for r in rows {
        let _ = write!(
            out,
            "{:<24} {:>8} {:>8} {:>8} {:>8.3} {:>8.3} {:>9.3} {:>+11.0}%",
            r.label,
            r.golden_cycles,
            r.wp1_cycles,
            r.wp2_cycles,
            r.th_wp1,
            r.th_wp2,
            r.th_wp1_predicted,
            r.improvement_percent
        );
        if verified {
            let _ = write!(
                out,
                " {:>8} {:>8}",
                opt(r.proven_n_wp1),
                opt(r.proven_n_wp2)
            );
        }
        out.push('\n');
    }
    out
}

/// A synthetic ring-stage process used by the loop-law and ablation
/// experiments: it increments the value it receives and forwards it, and its
/// oracle optionally skips the loop input on a periodic schedule.
#[derive(Debug, Clone)]
pub struct SyntheticStage {
    name: String,
    value: u64,
    fires: u64,
    skip_period: Option<u64>,
}

impl SyntheticStage {
    /// A stage that needs its input on every firing (no oracle advantage).
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            value: 0,
            fires: 0,
            skip_period: None,
        }
    }

    /// A stage that needs its input only on firings that are multiples of
    /// `period` (the loop is "excited" once every `period` computations).
    pub fn with_skip_period(mut self, period: u64) -> Self {
        self.skip_period = Some(period.max(1));
        self
    }

    fn input_needed(&self) -> bool {
        match self.skip_period {
            Some(p) => self.fires.is_multiple_of(p),
            None => true,
        }
    }
}

impl Process<u64> for SyntheticStage {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_inputs(&self) -> usize {
        1
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn output(&self, _port: usize) -> u64 {
        self.value
    }
    fn required_inputs(&self) -> PortSet {
        if self.input_needed() {
            PortSet::all(1)
        } else {
            PortSet::empty()
        }
    }
    fn fire(&mut self, inputs: &[Option<u64>]) {
        if self.input_needed() {
            if let Some(v) = inputs[0] {
                self.value = v + 1;
            }
        } else {
            self.value += 1;
        }
        self.fires += 1;
    }
    fn reset(&mut self) {
        self.value = 0;
        self.fires = 0;
    }
}

/// Builds a ring of `stages` synthetic stages with `relay_stations` relay
/// stations on the first edge; when `skip_period` is `Some(p)` the first
/// stage needs its loop input only every `p` firings.
pub fn build_ring(
    stages: usize,
    relay_stations: usize,
    skip_period: Option<u64>,
) -> SystemBuilder<u64> {
    let mut b = SystemBuilder::new();
    let ids: Vec<_> = (0..stages)
        .map(|i| {
            let stage = if i == 0 {
                match skip_period {
                    Some(p) => SyntheticStage::new(format!("s{i}")).with_skip_period(p),
                    None => SyntheticStage::new(format!("s{i}")),
                }
            } else {
                SyntheticStage::new(format!("s{i}"))
            };
            b.add_process(Box::new(stage))
        })
        .collect();
    for i in 0..stages {
        let rs = if i == 0 { relay_stations } else { 0 };
        b.connect(format!("e{i}"), ids[i], 0, ids[(i + 1) % stages], 0, rs);
    }
    b
}

/// The 2-stage, 1-RS ring of the oracle-quality ablation: the first stage
/// needs its loop input only every 4th firing, and when `degrade_period` is
/// `Some(k)` its oracle is wrapped in a [`DegradedOracle`] that falls back
/// to "all inputs required" every `k`-th query.
pub fn build_degraded_ring(degrade_period: Option<u64>) -> SystemBuilder<u64> {
    let mut b = SystemBuilder::new();
    let inner = Box::new(SyntheticStage::new("s0").with_skip_period(4));
    let s0 = match degrade_period {
        Some(p) => b.add_process(Box::new(DegradedOracle::new(inner, p))),
        None => b.add_process(inner),
    };
    let s1 = b.add_process(Box::new(SyntheticStage::new("s1")));
    b.connect("e0", s0, 0, s1, 0, 1);
    b.connect("e1", s1, 0, s0, 0, 0);
    b
}

/// Builds the sweep scenario for one oracle-quality-ablation measurement on
/// [`build_degraded_ring`]; the measured throughput is
/// `report.throughput_of(0)` of the outcome, exactly as for
/// [`ring_scenario`].
pub fn degraded_ring_scenario(
    label: impl Into<String>,
    degrade_period: Option<u64>,
    policy: SyncPolicy,
    firings: u64,
) -> Scenario<u64> {
    Scenario::<u64>::new(
        label,
        ShellConfig::for_policy(policy),
        RunGoal::UntilFirings {
            process: 0,
            target: firings,
            max_cycles: firings.saturating_mul(64).max(10_000),
        },
        move || build_degraded_ring(degrade_period),
    )
}

/// Measured throughput of a synthetic ring under the given policy.
///
/// # Panics
///
/// Panics if the simulation fails (synthetic rings never deadlock).
pub fn measure_ring_throughput(
    stages: usize,
    relay_stations: usize,
    skip_period: Option<u64>,
    policy: SyncPolicy,
    firings: u64,
) -> f64 {
    let config = ShellConfig::for_policy(policy);
    let mut sim = LidSimulator::new(build_ring(stages, relay_stations, skip_period), config)
        .expect("ring is well formed");
    sim.set_trace_enabled(false);
    sim.run_until_firings(0, firings, firings.saturating_mul(64).max(10_000))
        .expect("ring simulation completes");
    firings as f64 / sim.cycles() as f64
}

/// Runs one WP1 workload through the allocation-free kernel
/// ([`LidSimulator`]) with traces disabled, returning the cycle count.
///
/// Paired with [`run_wp1_naive`] by the `kernel_vs_naive` bench groups so
/// both tables measure the kernel speedup with identical methodology.
///
/// # Panics
///
/// Panics if the simulation fails (the bench workloads never do).
pub fn run_wp1_kernel(workload: &Workload, rs: &RsConfig, max_cycles: u64) -> u64 {
    let builder = build_soc(workload, Organization::Pipelined, rs);
    let mut sim = LidSimulator::new(builder, ShellConfig::strict()).expect("SoC assembles");
    sim.set_trace_enabled(false);
    sim.run_until_halt(CU, max_cycles)
        .expect("SoC run completes")
}

/// [`run_wp1_kernel`]'s baseline twin: the same run through the preserved
/// seed step ([`wp_sim::NaiveSimulator`]).
///
/// # Panics
///
/// Panics if the simulation fails (the bench workloads never do).
pub fn run_wp1_naive(workload: &Workload, rs: &RsConfig, max_cycles: u64) -> u64 {
    let builder = build_soc(workload, Organization::Pipelined, rs);
    let mut sim =
        wp_sim::NaiveSimulator::new(builder, ShellConfig::strict()).expect("SoC assembles");
    sim.set_trace_enabled(false);
    sim.run_until_halt(CU, max_cycles)
        .expect("SoC run completes")
}

/// The shared `kernel_vs_naive` bench group: runs the same WP1 workload
/// through the allocation-free kernel and the preserved seed step, asserts
/// they simulate identical cycle counts, and prints the speedup.  Used by
/// the `table1_sort` and `table1_matmul` benches so both tables measure the
/// kernel with identical methodology.
///
/// # Panics
///
/// Panics if the two simulators disagree on the cycle count (a kernel bug).
pub fn bench_kernel_vs_naive(
    c: &mut criterion::Criterion,
    table: &str,
    workload: &Workload,
    rs: &RsConfig,
    max_cycles: u64,
) {
    assert_eq!(
        run_wp1_kernel(workload, rs, max_cycles),
        run_wp1_naive(workload, rs, max_cycles),
        "kernel and naive must simulate identical cycle counts"
    );

    let mut group = c.benchmark_group(format!("{table}/kernel_vs_naive"));
    group.sample_size(20);
    let kernel = group.bench_function("arena_kernel", |b| {
        b.iter(|| run_wp1_kernel(workload, rs, max_cycles))
    });
    let naive = group.bench_function("naive_step", |b| {
        b.iter(|| run_wp1_naive(workload, rs, max_cycles))
    });
    group.finish();
    println!(
        "{table} kernel speedup vs naive baseline: {:.2}x (median), {:.2}x (mean)\n",
        naive.median.as_secs_f64() / kernel.median.as_secs_f64(),
        naive.mean.as_secs_f64() / kernel.mean.as_secs_f64(),
    );
}

/// The stall-schedule family used by the lane-vs-scalar measurements: each
/// of the 64 lanes runs the same SoC under a different pseudo-random shell
/// stall pattern of density `2^-LANE_STALL_LEVEL` (the sweep use case the
/// lane kernel was built for: 64 stall scenarios per instruction).
pub const LANE_STALL_LEVEL: u32 = 2;

/// Builds the 64 per-lane scenarios of a lane-vs-scalar measurement over
/// the given builder: identical relay budgets, one stall schedule per lane
/// drawn from the shared family.
fn lane_stall_scenarios<V>(builder: &SystemBuilder<V>) -> Vec<LaneScenario> {
    let relay_stations: Vec<usize> = builder
        .channels()
        .iter()
        .map(|c| c.relay_stations)
        .collect();
    (0..MAX_LANES)
        .map(|lane| LaneScenario {
            relay_stations: relay_stations.clone(),
            stall: Some(StallSchedule::new(
                WORKLOAD_SEED,
                LANE_STALL_LEVEL,
                lane as u32,
            )),
        })
        .collect()
}

/// Runs the 64 stall variants of one WP1 SoC workload the scalar way: one
/// [`LidSimulator`] per lane, traces off, until the control unit halts.
/// Returns `(cycles_to_goal, report)` per lane — the reference the lane
/// kernel must reproduce bit-identically.
///
/// # Panics
///
/// Panics if a run fails (the bench workloads never do).
pub fn run_soc_lanes_scalar(
    workload: &Workload,
    rs: &RsConfig,
    max_cycles: u64,
) -> Vec<(u64, LidReport)> {
    (0..MAX_LANES)
        .map(|lane| {
            let builder = build_soc(workload, Organization::Pipelined, rs);
            let mut sim = LidSimulator::new(builder, ShellConfig::strict()).expect("SoC assembles");
            sim.set_trace_enabled(false);
            sim.set_stall_schedule(Some(StallSchedule::new(
                WORKLOAD_SEED,
                LANE_STALL_LEVEL,
                lane as u32,
            )));
            let cycles = sim
                .run_until_halt(CU, max_cycles)
                .expect("SoC run completes");
            (cycles, sim.report())
        })
        .collect()
}

/// [`run_soc_lanes_scalar`]'s fast twin: the same 64 stall variants packed
/// into one [`LaneLidSimulator`] and stepped bit-parallel.
///
/// # Panics
///
/// Panics if the batch fails to build or a lane errors (the bench
/// workloads never do).
pub fn run_soc_lanes_packed(
    workload: &Workload,
    rs: &RsConfig,
    max_cycles: u64,
) -> Vec<(u64, LidReport)> {
    let builder = build_soc(workload, Organization::Pipelined, rs);
    let lanes = lane_stall_scenarios(&builder);
    let mut sim =
        LaneLidSimulator::new(builder, &lanes, ShellConfig::strict()).expect("SoC assembles");
    sim.run(
        RunGoal::UntilHalt {
            process: CU,
            max_cycles,
        },
        None,
    )
    .into_iter()
    .map(|outcome| {
        let outcome = outcome.expect("SoC lane completes");
        (outcome.cycles_to_goal, outcome.report)
    })
    .collect()
}

/// The shared `lane_vs_scalar` bench group: runs the same 64 stall
/// variants of a WP1 SoC workload through 64 scalar simulators and through
/// one lane-packed kernel, asserts the outcomes are bit-identical lane by
/// lane, and prints the speedup.  Used by the `table1_sort` and
/// `table1_matmul` benches; the acceptance bar of the lane kernel is ≥ 5x.
///
/// # Panics
///
/// Panics if any lane's outcome differs between the two kernels (a lane
/// kernel bug).
pub fn bench_lane_vs_scalar(
    c: &mut criterion::Criterion,
    table: &str,
    workload: &Workload,
    rs: &RsConfig,
    max_cycles: u64,
) {
    assert_eq!(
        run_soc_lanes_scalar(workload, rs, max_cycles),
        run_soc_lanes_packed(workload, rs, max_cycles),
        "the lane kernel must reproduce every scalar lane bit-identically"
    );

    let mut group = c.benchmark_group(format!("{table}/lane_vs_scalar"));
    group.sample_size(10);
    let scalar = group.bench_function("scalar_64_runs", |b| {
        b.iter(|| run_soc_lanes_scalar(workload, rs, max_cycles))
    });
    let lane = group.bench_function("lane_kernel_64", |b| {
        b.iter(|| run_soc_lanes_packed(workload, rs, max_cycles))
    });
    group.finish();
    println!(
        "{table} lane kernel speedup vs 64 scalar runs: {:.2}x (median), {:.2}x (mean)\n",
        scalar.median.as_secs_f64() / lane.median.as_secs_f64(),
        scalar.mean.as_secs_f64() / lane.mean.as_secs_f64(),
    );
}

/// A process wrapper that degrades the oracle of the inner block: every
/// `degrade_period`-th firing it pretends all inputs are required (falling
/// back to the strict behaviour), which models an imprecise communication
/// profile.  Used by the oracle-quality ablation.
pub struct DegradedOracle<V> {
    inner: Box<dyn Process<V>>,
    degrade_period: u64,
    queries: std::cell::Cell<u64>,
}

impl<V> std::fmt::Debug for DegradedOracle<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DegradedOracle")
            .field("inner", &self.inner.name())
            .field("degrade_period", &self.degrade_period)
            .finish()
    }
}

impl<V> DegradedOracle<V> {
    /// Wraps `inner`; every `degrade_period`-th oracle query returns "all
    /// inputs required".  A period of 1 degrades the oracle completely
    /// (equivalent to WP1); large periods approach the exact oracle.
    pub fn new(inner: Box<dyn Process<V>>, degrade_period: u64) -> Self {
        Self {
            inner,
            degrade_period: degrade_period.max(1),
            queries: std::cell::Cell::new(0),
        }
    }
}

impl<V> Process<V> for DegradedOracle<V> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }
    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }
    fn output(&self, port: usize) -> V {
        self.inner.output(port)
    }
    fn required_inputs(&self) -> PortSet {
        let q = self.queries.get();
        self.queries.set(q + 1);
        if q.is_multiple_of(self.degrade_period) {
            PortSet::all(self.inner.num_inputs())
        } else {
            self.inner.required_inputs()
        }
    }
    fn fire(&mut self, inputs: &[Option<V>]) {
        self.inner.fire(inputs);
    }
    fn is_halted(&self) -> bool {
        self.inner.is_halted()
    }
    fn reset(&mut self) {
        self.inner.reset();
        self.queries.set(0);
    }
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_configs_have_the_expected_cardinality() {
        assert_eq!(table1_base_configs().len(), 12);
        assert_eq!(table1_two_rs_configs().len(), 12);
    }

    #[test]
    fn ring_throughput_matches_the_law() {
        let th = measure_ring_throughput(2, 1, None, SyncPolicy::Strict, 300);
        assert!((th - 2.0 / 3.0).abs() < 0.02, "{th}");
    }

    #[test]
    fn optimal_configuration_beats_the_uniform_spread() {
        let wl = extraction_sort(4, 3).unwrap();
        let (label, optimal) = optimal_config(&wl, Organization::Pipelined, 1);
        assert!(label.starts_with("Optimal 1"));
        let uniform = RsConfig::uniform(1, &[Link::CuIc]);
        assert_eq!(optimal.total(), uniform.total());
        assert_eq!(optimal.get(Link::CuIc), 0);
        let th_optimal = predict_wp1_throughput(&wl, Organization::Pipelined, &optimal);
        let th_uniform = predict_wp1_throughput(&wl, Organization::Pipelined, &uniform);
        assert!(th_optimal >= th_uniform);
    }

    #[test]
    fn small_table_runs_end_to_end() {
        let wl = extraction_sort(4, 3).unwrap();
        let configs = vec![
            ("ideal".to_string(), RsConfig::ideal()),
            ("Only RF-DC".to_string(), RsConfig::single(Link::RfDc, 1)),
        ];
        let rows = run_table(&wl, Organization::Pipelined, &configs).unwrap();
        assert_eq!(rows.len(), 2);
        assert!((rows[0].th_wp1 - 1.0).abs() < 1e-9);
        assert!(rows[1].th_wp2 >= rows[1].th_wp1);
        let text = format_table("test", &rows);
        assert!(text.contains("Only RF-DC"));
    }

    /// The `--oracle` acceptance property: converted tables are
    /// bit-identical to plain ones (which also pins the `UntilHalt` ≡
    /// `UntilFirings(golden_cycles)` re-expression), the auto spot-check
    /// passes, and the sweep reports a real simulated-cycle saving.
    #[test]
    fn oracle_table_matches_the_plain_table_and_reports_the_saving() {
        let wl = extraction_sort(6, WORKLOAD_SEED).unwrap();
        let configs = vec![
            ("ideal".to_string(), RsConfig::ideal()),
            ("Only RF-DC".to_string(), RsConfig::single(Link::RfDc, 1)),
            (
                "All 1 (no CU-IC)".to_string(),
                RsConfig::uniform(1, &[Link::CuIc]),
            ),
        ];
        let runner = SweepRunner::default();
        let plain = run_table(&wl, Organization::Pipelined, &configs).unwrap();
        let (rows, stats) = run_table_oracle(
            &runner,
            &wl,
            Organization::Pipelined,
            &configs,
            false,
            LaneMode::Auto,
            OracleMode::Auto,
        )
        .unwrap();
        assert_eq!(rows, plain, "extrapolation must not change any column");
        assert!(
            stats.oracle_extrapolations >= 1,
            "at least one WP1 row extrapolates: {stats:?}"
        );
        assert!(
            stats.oracle_extrapolated_cycles > stats.oracle_simulated_cycles,
            "the oracle must save more cycles than it simulates: {stats:?}"
        );
        // --verify pins plain simulation: no oracle activity at all.
        let (verified, stats) = run_table_oracle(
            &runner,
            &wl,
            Organization::Pipelined,
            &configs,
            true,
            LaneMode::Auto,
            OracleMode::On,
        )
        .unwrap();
        assert_eq!(stats.oracle_extrapolations + stats.oracle_fallbacks, 0);
        assert!(verified.iter().all(|r| r.proven_n_wp1.is_some()));
    }

    #[test]
    fn degraded_oracle_with_period_one_behaves_strictly() {
        let th_strict = measure_ring_throughput(2, 1, Some(4), SyncPolicy::Strict, 200);
        // Build a ring whose oracle is fully degraded and run it under the
        // oracle policy: the throughput must match the strict one.
        let mut b = SystemBuilder::new();
        let s0 = b.add_process(Box::new(DegradedOracle::new(
            Box::new(SyntheticStage::new("s0").with_skip_period(4)),
            1,
        )));
        let s1 = b.add_process(Box::new(SyntheticStage::new("s1")));
        b.connect("e0", s0, 0, s1, 0, 1);
        b.connect("e1", s1, 0, s0, 0, 0);
        let mut sim = LidSimulator::new(b, ShellConfig::oracle()).unwrap();
        sim.run_until_firings(0, 200, 100_000).unwrap();
        let th = 200.0 / sim.cycles() as f64;
        assert!((th - th_strict).abs() < 0.05, "{th} vs {th_strict}");
    }
}

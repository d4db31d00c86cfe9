//! `table1_verify` and `table1_oracle`: the whole of Table 1 (sort, 16
//! elements, 13 configurations; matmul, 5×5, 26 configurations) per job.
//!
//! `table1_verify` runs every WP1/WP2 scenario with its streamed golden
//! twin (the equivalence gate pins plain scalar simulation), so lanes and
//! the period oracle do no work: it is the control for lane and oracle
//! changes.  `table1_oracle` converts the WP1 rows to extrapolating
//! firing-goal scenarios that the sweep packs into lane batches, exercising
//! the lane and oracle layer on a halting, payload-carrying processor.

use wp_bench::{
    optimal_config, predict_wp1_throughput, run_table_oracle, soc_factory, soc_oracle_scenario,
    soc_scenario, table1_base_configs, table1_two_rs_configs, LaneMode, OracleMode, ScenarioWiring,
    TableRow, MATMUL_DIM, MAX_CYCLES, SORT_ELEMENTS, WORKLOAD_SEED,
};
use wp_core::{ShellConfig, SyncPolicy};
use wp_proc::{
    build_soc, extraction_sort, matrix_multiply, run_golden_soc, Link, Organization, RsConfig,
    SocState, Workload, CU,
};
use wp_sim::{LidSimulator, SweepOutcome, SweepRunner, SweepStats};

use crate::expect::Expected;
use crate::trace::Tracer;
use crate::{median, JobOutput, Layers};

/// Sweep workers, pinned: on 2 workers the slowest matmul scenario sets
/// the job's tail.
const WORKERS: usize = 2;
const ORG: Organization = Organization::Pipelined;
/// Repeats of the fixed-row probes of the traced run.
const PROBE_REPEATS: usize = 9;

struct Table {
    name: &'static str,
    workload: Workload,
    configs: Vec<(String, RsConfig)>,
}

pub struct Table1 {
    oracle: bool,
    key: u64,
    tables: Vec<Table>,
    runner: SweepRunner,
    /// `table1_verify`'s expectations, loaded on the first check of a
    /// `table1_oracle` job: the oracle rows must equal them on every cycle
    /// and throughput column.
    verify_rows: Option<Expected>,
    /// Plain-simulation rows computed untimed when no verify expectation
    /// is committed for the seed.
    plain_rows: Option<String>,
}

impl Table1 {
    /// Builds both tables' workloads and configurations; the workload seed
    /// is the harness default plus `seed`.
    pub fn setup(oracle: bool, seed: u64, tracer: &Tracer) -> Result<Self, String> {
        let key = WORKLOAD_SEED.wrapping_add(seed);
        let tables = tracer.span("proc.workload", || -> Result<_, String> {
            let sort = extraction_sort(SORT_ELEMENTS, key).map_err(|e| e.to_string())?;
            let mut sort_configs = table1_base_configs();
            sort_configs.push(optimal_config(&sort, ORG, 1));
            let matmul = matrix_multiply(MATMUL_DIM, key).map_err(|e| e.to_string())?;
            let mut matmul_configs = table1_base_configs();
            matmul_configs.push(optimal_config(&matmul, ORG, 1));
            matmul_configs.extend(table1_two_rs_configs());
            matmul_configs.push(optimal_config(&matmul, ORG, 2));
            Ok(vec![
                Table {
                    name: "sort",
                    workload: sort,
                    configs: sort_configs,
                },
                Table {
                    name: "matmul",
                    workload: matmul,
                    configs: matmul_configs,
                },
            ])
        })?;
        Ok(Self {
            oracle,
            key,
            tables,
            runner: SweepRunner::new(WORKERS),
            verify_rows: None,
            plain_rows: None,
        })
    }

    /// One table through the wrapper (`run_table_oracle`).
    fn wrapped(&self, table: &Table) -> Result<(Vec<TableRow>, SweepStats), String> {
        let oracle = if self.oracle {
            OracleMode::On
        } else {
            OracleMode::Off
        };
        run_table_oracle(
            &self.runner,
            &table.workload,
            ORG,
            &table.configs,
            !self.oracle,
            LaneMode::Auto,
            oracle,
        )
        .map_err(|e| format!("{}: {e}", table.name))
    }

    /// One table through the wrapper's public parts in its order, with a
    /// span around each: golden run, sweep, worst-loop prediction.
    fn traced(
        &self,
        table: &Table,
        tracer: &Tracer,
    ) -> Result<(Vec<TableRow>, SweepStats), String> {
        let verify = !self.oracle;
        let workload = &table.workload;
        let golden = tracer
            .span("proc.golden", || run_golden_soc(workload, ORG, MAX_CYCLES))
            .map_err(|e| e.to_string())?;
        let mut scenarios = Vec::with_capacity(2 * table.configs.len());
        for (label, rs) in &table.configs {
            for policy in [SyncPolicy::Strict, SyncPolicy::Oracle] {
                let row_label = format!("{label}/{}", policy.label());
                let scenario = if self.oracle && policy == SyncPolicy::Strict {
                    soc_oracle_scenario(row_label, workload, ORG, *rs, golden.cycles)
                } else {
                    soc_scenario(row_label, workload, ORG, *rs, policy)
                };
                let wiring = ScenarioWiring::new()
                    .lane_key(LaneMode::Auto, format!("soc/{}", policy.label()))
                    .verified(verify);
                scenarios.push(wiring.wire_verified(scenario, soc_factory(workload, ORG, *rs)));
            }
        }
        let (outcomes, stats) = tracer.span("sim.sweep", || self.runner.run_with_stats(scenarios));
        let mut outcomes = outcomes.into_iter();
        let mut rows = Vec::with_capacity(table.configs.len());
        for (label, rs) in &table.configs {
            let mut next = |memory_checked| {
                check_outcome(workload, outcomes.next(), memory_checked)
                    .map_err(|e| format!("{}/{label}: {e}", table.name))
            };
            let wp1 = next(!self.oracle)?;
            let wp2 = next(true)?;
            let predicted = tracer.span("netlist.predict", || {
                predict_wp1_throughput(workload, ORG, rs)
            });
            rows.push(table_row(label, golden.cycles, &wp1, &wp2, predicted));
        }
        Ok((rows, stats))
    }

    fn plain_rows(&mut self) -> Result<&str, String> {
        if self.plain_rows.is_none() {
            let mut text = String::new();
            for table in &self.tables {
                let (rows, _) = run_table_oracle(
                    &self.runner,
                    &table.workload,
                    ORG,
                    &table.configs,
                    false,
                    LaneMode::Off,
                    OracleMode::Off,
                )
                .map_err(|e| format!("plain reference {}: {e}", table.name))?;
                text.push_str(&rows_text(table.name, &rows, false));
            }
            self.plain_rows = Some(text);
        }
        Ok(self.plain_rows.as_deref().unwrap_or_default())
    }
}

/// The private row check of `run_table_oracle`, rebuilt from public parts:
/// program result (unless the row was extrapolated) and equivalence gate.
fn check_outcome(
    workload: &Workload,
    outcome: Option<Result<SweepOutcome<SocState>, wp_sim::SweepError>>,
    memory_checked: bool,
) -> Result<SweepOutcome<SocState>, String> {
    let outcome = outcome
        .ok_or("missing outcome")?
        .map_err(|e| e.to_string())?;
    if memory_checked {
        let state = outcome.post.as_ref().ok_or("no memory read back")?;
        let expected = workload.expected_memory.len();
        if state.memory.len() < expected || !workload.check(&state.memory[..expected]) {
            return Err("wrong program result".into());
        }
    }
    if let Some(report) = &outcome.equivalence {
        if !report.is_equivalent() || report.is_vacuous() {
            return Err(format!("not equivalent: {report}"));
        }
    }
    Ok(outcome)
}

/// A Table-1 row with the wrapper's column formulas.
fn table_row(
    label: &str,
    golden_cycles: u64,
    wp1: &SweepOutcome<SocState>,
    wp2: &SweepOutcome<SocState>,
    predicted: f64,
) -> TableRow {
    let ratio = |cycles: u64| {
        if cycles == 0 {
            0.0
        } else {
            golden_cycles as f64 / cycles as f64
        }
    };
    let th_wp1 = ratio(wp1.cycles_to_goal);
    let th_wp2 = ratio(wp2.cycles_to_goal);
    TableRow {
        label: label.to_string(),
        golden_cycles,
        wp1_cycles: wp1.cycles_to_goal,
        wp2_cycles: wp2.cycles_to_goal,
        th_wp1,
        th_wp2,
        th_wp1_predicted: predicted,
        improvement_percent: if th_wp1 > 0.0 {
            100.0 * (th_wp2 - th_wp1) / th_wp1
        } else {
            0.0
        },
        proven_n_wp1: wp1.equivalence.as_ref().map(|r| r.proven_n()),
        proven_n_wp2: wp2.equivalence.as_ref().map(|r| r.proven_n()),
    }
}

/// Canonical text of one table's rows: every cycle and throughput column
/// (floats in shortest round-trip form), plus the proven N columns when
/// `with_n`.
fn rows_text(name: &str, rows: &[TableRow], with_n: bool) -> String {
    let n = |v: Option<usize>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    let mut out = format!("table {name}\n");
    for r in rows {
        out.push_str(&format!(
            "{} | golden {} | wp1 {} | wp2 {} | th {:?} {:?} | law {:?} | {:?}%",
            r.label,
            r.golden_cycles,
            r.wp1_cycles,
            r.wp2_cycles,
            r.th_wp1,
            r.th_wp2,
            r.th_wp1_predicted,
            r.improvement_percent
        ));
        if with_n {
            out.push_str(&format!(" | N {} {}", n(r.proven_n_wp1), n(r.proven_n_wp2)));
        }
        out.push('\n');
    }
    out
}

/// The rows part of a job text (everything before the counters).
fn rows_part(text: &str) -> &str {
    text.split("counters\n").next().unwrap_or(text)
}

/// Strips the proven N columns, leaving the cycle and throughput columns.
fn without_n(rows: &str) -> String {
    rows.lines()
        .map(|l| l.split(" | N ").next().unwrap_or(l))
        .fold(String::new(), |acc, l| acc + l + "\n")
}

impl crate::Workload for Table1 {
    fn workers(&self) -> usize {
        self.runner.workers()
    }

    fn job(&mut self, _index: u64, tracer: &Tracer) -> Result<JobOutput, String> {
        let mut text = String::new();
        let mut total = SweepStats::default();
        let (mut configs, mut model_cycles) = (0u64, 0u64);
        for table in &self.tables {
            let (rows, stats) = if tracer.enabled() {
                self.traced(table, tracer)?
            } else {
                self.wrapped(table)?
            };
            text.push_str(&rows_text(table.name, &rows, !self.oracle));
            configs += rows.len() as u64;
            model_cycles += rows.first().map_or(0, |r| r.golden_cycles);
            model_cycles += rows
                .iter()
                .map(|r| r.wp1_cycles + r.wp2_cycles)
                .sum::<u64>();
            total.leases += stats.leases;
            total.steals += stats.steals;
            total.lane_batches += stats.lane_batches;
            total.lanes_filled += stats.lanes_filled;
            total.lane_fallbacks += stats.lane_fallbacks;
            total.oracle_simulated_cycles += stats.oracle_simulated_cycles;
            total.oracle_extrapolated_cycles += stats.oracle_extrapolated_cycles;
            total.oracle_extrapolations += stats.oracle_extrapolations;
            total.oracle_fallbacks += stats.oracle_fallbacks;
        }
        let exact = [
            ("sim.lane_batches", total.lane_batches),
            ("sim.lanes_filled", total.lanes_filled),
            ("sim.lane_fallbacks", total.lane_fallbacks),
            ("sim.oracle_simulated_cycles", total.oracle_simulated_cycles),
            (
                "sim.oracle_extrapolated_cycles",
                total.oracle_extrapolated_cycles,
            ),
            ("sim.oracle_extrapolations", total.oracle_extrapolations),
            ("sim.oracle_fallbacks", total.oracle_fallbacks),
        ];
        text.push_str("counters\n");
        for (name, value) in exact {
            text.push_str(&format!("{name} {value}\n"));
        }
        Ok(JobOutput {
            key: self.key,
            text,
            configs,
            model_cycles,
            counters: exact.to_vec(),
            gauges: vec![
                ("sim.sweep_leases", total.leases),
                ("sim.sweep_steals", total.steals),
            ],
        })
    }

    fn check(&mut self, out: &JobOutput) -> Result<(), String> {
        if !self.oracle {
            return Ok(());
        }
        if self.verify_rows.is_none() {
            self.verify_rows = Some(Expected::load("table1_verify")?);
        }
        let committed = self.verify_rows.as_ref().and_then(|v| v.get(self.key));
        let reference = match committed {
            Some(text) => without_n(rows_part(text)),
            None => self.plain_rows()?.to_string(),
        };
        if reference != rows_part(&out.text) {
            return Err(format!(
                "oracle rows differ from the verified rows\n--- verified\n{reference}\
                 --- oracle\n{}",
                rows_part(&out.text)
            ));
        }
        Ok(())
    }

    /// The traced run's fixed-row probes: one WP1 row (sort, "All 1 (no
    /// CU-IC)") on the scalar kernel with traces off, and the same row
    /// through the sweep with and without the equivalence gate.
    fn per_run(&mut self, traced: bool, _tracer: &Tracer) -> Result<Layers, String> {
        if !traced {
            return Ok(Layers::new());
        }
        let workload = &self.tables[0].workload;
        let rs = RsConfig::uniform(1, &[Link::CuIc]);
        let mut ns_per_cycle = Vec::new();
        for _ in 0..PROBE_REPEATS {
            let mut sim = LidSimulator::new(build_soc(workload, ORG, &rs), ShellConfig::strict())
                .map_err(|e| e.to_string())?;
            sim.set_trace_enabled(false);
            let start = std::time::Instant::now();
            let cycles = sim
                .run_until_halt(CU, MAX_CYCLES)
                .map_err(|e| e.to_string())?;
            ns_per_cycle.push(start.elapsed().as_nanos() as f64 / cycles as f64);
        }
        let runner = SweepRunner::new(1);
        let sweep_ms = |verified: bool| -> Result<f64, String> {
            let mut samples = Vec::new();
            for _ in 0..PROBE_REPEATS {
                let scenario = soc_scenario("probe", workload, ORG, rs, SyncPolicy::Strict);
                let wiring = ScenarioWiring::new().verified(verified);
                let scenario = wiring.wire_verified(scenario, soc_factory(workload, ORG, rs));
                let start = std::time::Instant::now();
                let outcome = runner.run(vec![scenario]).pop().ok_or("no outcome")?;
                samples.push(start.elapsed().as_secs_f64() * 1e3);
                check_outcome(workload, Some(outcome), true)?;
            }
            Ok(median(&samples))
        };
        let plain = sweep_ms(false)?;
        let verified = sweep_ms(true)?;
        Ok(vec![
            ("sim.scalar_ns_per_cycle", median(&ns_per_cycle)),
            ("core.equiv_overhead_ratio", verified / plain),
        ])
    }
}

//! `dse_search`: one job is `plan_units` + `run_units` + `merge_outcomes`
//! over the exhaustive 4^10 relay assignments of one netlist shaped like
//! the CI gate netlist (5 blocks, 5 chords, cap 3), on one worker.  The
//! search is purely analytic, so this is the control for every simulator
//! change; one worker because two flip between schedules and double the
//! spread.
//!
//! The search cost depends on the netlist's loop structure (its standard
//! deviation over netlists of this shape is a fifth of the mean), so jobs
//! cycle through a pool of [`POOL`] netlists, seeds `9 + POOL * seed ..`:
//! seed 0's pool starts with the CI gate netlist (seed 9).  Once per run,
//! outside the jobs, every pool netlist's search result is spot-verified
//! by lane simulation.

use std::time::Instant;

use wp_bench::{format_frontier, spot_verify_frontier, LaneMode, OracleMode};
use wp_dse::{
    merge_outcomes, plan_units, run_units, DseConfig, DseOutcome, Evaluator, SearchSpace, WorkUnit,
};
use wp_gen::{generate, GenConfig};
use wp_sim::SweepRunner;
use wp_spec::NetlistSpec;

use crate::trace::Tracer;
use crate::{median, JobOutput, Layers};

/// The CI gate netlist's seed: the first of seed 0's pool.
const FIRST_SEED: u64 = 9;
/// Netlists per pool.
const POOL: u64 = 32;
const CAP: usize = 3;
const CLOCK: f64 = 1.0;
/// Spot-verification firing target (the `dse` binary's default).
const FIRINGS: u64 = 20_000;
/// Decoded assignments of the `dse.score_ns` probe, and its repeats.
const SCORE_SAMPLE: u128 = 4_096;
const SCORE_REPEATS: usize = 7;

struct Netlist {
    seed: u64,
    spec: NetlistSpec,
    space: SearchSpace,
    cfg: DseConfig,
    /// The first job's outcome, spot-verified once per run.
    outcome: Option<DseOutcome>,
}

pub struct DseSearch {
    pool: Vec<Netlist>,
    runner: SweepRunner,
}

impl DseSearch {
    pub fn setup(seed: u64, tracer: &Tracer) -> Self {
        let first = FIRST_SEED.wrapping_add(seed.wrapping_mul(POOL));
        let pool = (first..first + POOL)
            .map(|seed| {
                let spec = tracer.span("gen.generate", || {
                    generate(&GenConfig {
                        blocks: (5, 5),
                        chords: (5, 5),
                        ..GenConfig::with_seed(seed)
                    })
                });
                let cfg = DseConfig {
                    seed,
                    ..DseConfig::default()
                };
                let space = tracer.span("dse.setup", || {
                    let space = SearchSpace::from_spec(&spec, CAP, CLOCK);
                    std::hint::black_box((plan_units(&space, &cfg), Evaluator::new(&space)));
                    space
                });
                Netlist {
                    seed,
                    spec,
                    space,
                    cfg,
                    outcome: None,
                }
            })
            .collect();
        Self {
            pool,
            runner: SweepRunner::new(1),
        }
    }
}

impl crate::Workload for DseSearch {
    fn workers(&self) -> usize {
        self.runner.workers()
    }

    fn pass_len(&self) -> u64 {
        POOL
    }

    fn job(&mut self, index: u64, tracer: &Tracer) -> Result<JobOutput, String> {
        let netlist = &mut self.pool[(index % POOL) as usize];
        let (space, cfg) = (&netlist.space, &netlist.cfg);
        let units = plan_units(space, cfg);
        let outcomes = tracer.span("dse.search", || run_units(space, cfg, &units, 1));
        let exhaustive = matches!(units.first(), Some(WorkUnit::Range { .. }));
        let outcome = tracer.span("dse.merge", || merge_outcomes(outcomes, exhaustive));
        if !outcome.exhaustive {
            return Err("the 4^10 space must be enumerated exhaustively".into());
        }
        let title = format!("frontier of seed {} (cap {CAP})", netlist.seed);
        let mut text = format_frontier(&title, &outcome.frontier);
        text.push_str(&format!(
            "scored {}\nfrontier points {}\n",
            outcome.scored,
            outcome.frontier.len()
        ));
        let out = JobOutput {
            key: netlist.seed,
            text,
            configs: outcome.scored,
            model_cycles: 0,
            counters: vec![
                ("dse.scored", outcome.scored),
                ("dse.frontier_points", outcome.frontier.len() as u64),
            ],
            gauges: Vec::new(),
        };
        netlist.outcome.get_or_insert(outcome);
        Ok(out)
    }

    /// Spot-verifies by lane simulation, within 2%, the best assignment of
    /// every cost of each pool netlist — a superset of its frontier whose
    /// size (31 points) does not depend on the seed.  The traced run also
    /// reports the verification's median time per netlist and times
    /// `Evaluator::score` on a fixed sample of decoded assignments.
    fn per_run(&mut self, traced: bool, _tracer: &Tracer) -> Result<Layers, String> {
        let mut spot_ms = Vec::new();
        for netlist in &self.pool {
            let outcome = netlist.outcome.as_ref().ok_or("no outcome recorded")?;
            let points: Vec<_> = outcome.map.iter().cloned().collect();
            let start = Instant::now();
            spot_verify_frontier(
                &netlist.spec,
                CLOCK,
                &points,
                FIRINGS,
                &self.runner,
                LaneMode::Auto,
                OracleMode::Off,
            )
            .map_err(|e| format!("netlist {}: {e}", netlist.seed))?;
            spot_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
        if !traced {
            return Ok(Layers::new());
        }
        let space = &self.pool[0].space;
        let mut eval = Evaluator::new(space);
        let mut assignment = vec![0; space.channels()];
        let stride = space.size() / SCORE_SAMPLE;
        let mut ns = Vec::new();
        for _ in 0..SCORE_REPEATS {
            let start = Instant::now();
            for i in 0..SCORE_SAMPLE {
                space.decode(i * stride, &mut assignment);
                std::hint::black_box(eval.score(space, &assignment));
            }
            ns.push(start.elapsed().as_nanos() as f64 / SCORE_SAMPLE as f64);
        }
        Ok(vec![
            ("dse.score_ns", median(&ns)),
            ("bench.spot_verify_ms", median(&spot_ms)),
        ])
    }
}

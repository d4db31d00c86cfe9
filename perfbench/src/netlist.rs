//! `netlist_check`: one seeded `wp_gen` netlist per job, given as its
//! printed `.nl` text, through the `netlist_run` pipeline — parse, relay
//! insertion and lowering, streamed lid-vs-golden equivalence, the 8-lane
//! extrapolating steady-state run and an exact-MCR check per lane.
//!
//! Jobs cycle through a pool of [`POOL`] netlists (seeds `seed * POOL ..`).
//! The pool is a stratified sample of the default generator distribution:
//! netlist `i` takes the default settings with its block and chord counts
//! pinned to stratum `i` of the default ranges (3–8 blocks, 1–3 chords),
//! so every pool holds each shape equally often.  The median job time is
//! then a property of the distribution, not of the seed's draw of shapes,
//! while each job stays one netlist.

use wp_core::ShellConfig;
use wp_gen::{generate, GenConfig};
use wp_netlist::ThroughputModel;
use wp_sim::{LaneLidSimulator, LaneScenario, RunGoal, Scenario, SweepRunner};
use wp_spec::{lower, synthetic_registry, NetlistSpec};

use crate::trace::Tracer;
use crate::{JobOutput, Layers};

/// Netlists per pool: four of each of the 18 (blocks, chords) strata.
pub const POOL: u64 = 72;
/// Lanes of the throughput batch: lane `k` adds `k` relay stations to the
/// first channel.
const LANES: usize = 8;
/// Firing target of the streamed equivalence run.
const EQUIV_FIRINGS: u64 = 2_000;
/// Firing target of the lane run.
const FIRINGS: u64 = 20_000;
/// Clock period of the latency-to-relay insertion.
const CLOCK: f64 = 1.0;
/// Measured-vs-exact-MCR tolerance (relative).
const TOLERANCE: f64 = 0.02;

pub struct NetlistCheck {
    texts: Vec<(u64, String)>,
    runner: SweepRunner,
    /// Lane cycles simulated by the traced jobs, for `sim.lane_ns_per_cycle`.
    traced_lane_cycles: u64,
}

impl NetlistCheck {
    /// Generates and prints the seed's pool of netlists.
    pub fn setup(seed: u64, tracer: &Tracer) -> Self {
        let base = seed.wrapping_mul(POOL);
        let defaults = GenConfig::default();
        let blocks = defaults.blocks.1 - defaults.blocks.0 + 1;
        let texts = (0..POOL)
            .map(|i| {
                let stratum = i as usize;
                let b = defaults.blocks.0 + stratum % blocks;
                let c = defaults.chords.0
                    + (stratum / blocks) % (defaults.chords.1 - defaults.chords.0 + 1);
                let cfg = GenConfig {
                    seed: base + i,
                    blocks: (b, b),
                    chords: (c, c),
                    ..defaults
                };
                let spec = tracer.span("gen.generate", || generate(&cfg));
                (cfg.seed, spec.to_string())
            })
            .collect();
        Self {
            texts,
            runner: SweepRunner::new(1),
            traced_lane_cycles: 0,
        }
    }
}

fn check_netlist(
    seed: u64,
    text: &str,
    runner: &SweepRunner,
    tracer: &Tracer,
) -> Result<JobOutput, String> {
    let mut spec = tracer
        .span("spec.parse", || NetlistSpec::parse(text))
        .map_err(|e| e.to_string())?;
    let builder = tracer
        .span("spec.lower", || {
            spec.insert_relays(CLOCK);
            lower::<u64>(&spec, &synthetic_registry())
        })
        .map_err(|e| e.to_string())?;

    let factory = |spec: &NetlistSpec| {
        let spec = spec.clone();
        move || lower(&spec, &synthetic_registry()).expect("validated spec lowers")
    };
    let scenario = Scenario::<u64>::new(
        format!("netlist {seed}"),
        ShellConfig::strict(),
        RunGoal::UntilFirings {
            process: 0,
            target: EQUIV_FIRINGS,
            max_cycles: 1_000 * EQUIV_FIRINGS,
        },
        factory(&spec),
    )
    .with_equivalence_check(factory(&spec));
    let outcome = tracer
        .span("sim.equiv", || runner.run(vec![scenario]))
        .pop()
        .ok_or("no equivalence outcome")?
        .map_err(|e| format!("equivalence run failed: {e}"))?;
    let report = outcome.equivalence.ok_or("the gate was not installed")?;
    if !report.is_equivalent() || report.is_vacuous() {
        return Err(format!("not equivalent: {report}"));
    }
    let mut text = format!(
        "netlist {seed}: {} blocks, {} channels, {} RS\nequivalence: proven N {}, {} cycles\n",
        spec.blocks.len(),
        spec.channels.len(),
        spec.total_relay_stations(),
        report.proven_n(),
        outcome.cycles_to_goal
    );

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
    let runs = tracer
        .span("sim.lane_run", || {
            LaneLidSimulator::new(builder, &lanes, ShellConfig::strict())
                .map(|mut sim| sim.run_until_firings_extrapolated(0, FIRINGS, 100 * FIRINGS))
        })
        .map_err(|e| format!("lane batch failed to assemble: {e}"))?;
    let (mut model_cycles, mut simulated, mut extrapolated) = (outcome.cycles_to_goal, 0, 0);
    for (k, run) in runs.into_iter().enumerate() {
        let run = run.map_err(|e| format!("lane {k}: {e}"))?;
        let mut lane_spec = spec.clone();
        lane_spec.channels[0].relay_stations += k;
        let net = lane_spec.to_netlist();
        let predicted = tracer.span("netlist.predict", || ThroughputModel::Exact.predict(&net));
        let measured = FIRINGS as f64 / run.report.cycles as f64;
        let error = (measured - predicted).abs() / predicted;
        if error >= TOLERANCE {
            return Err(format!(
                "lane {k}: measured {measured} vs exact MCR {predicted} (error {error})"
            ));
        }
        text.push_str(&format!(
            "lane {k}: {} cycles, simulated {}, extrapolated {}, exact MCR {predicted:?}, \
                 error {error:?}\n",
            run.report.cycles, run.simulated_cycles, run.extrapolated
        ));
        model_cycles += run.report.cycles;
        simulated += run.simulated_cycles;
        extrapolated += u64::from(run.extrapolated);
    }
    Ok(JobOutput {
        key: seed,
        text,
        configs: LANES as u64,
        model_cycles,
        counters: vec![
            ("sim.equiv_cycles", outcome.cycles_to_goal),
            ("sim.lane_simulated_cycles", simulated),
            ("sim.lanes_extrapolated", extrapolated),
            ("sim.lanes_run", LANES as u64),
        ],
        gauges: Vec::new(),
    })
}

impl crate::Workload for NetlistCheck {
    fn workers(&self) -> usize {
        self.runner.workers()
    }

    fn pass_len(&self) -> u64 {
        POOL
    }

    fn job(&mut self, index: u64, tracer: &Tracer) -> Result<JobOutput, String> {
        let (seed, text) = &self.texts[(index % POOL) as usize];
        let out = check_netlist(*seed, text, &self.runner, tracer)
            .map_err(|e| format!("netlist {seed}: {e}"))?;
        if tracer.enabled() {
            self.traced_lane_cycles += out.counters[1].1;
        }
        Ok(out)
    }

    fn per_run(&mut self, traced: bool, tracer: &Tracer) -> Result<Layers, String> {
        if !traced {
            return Ok(Layers::new());
        }
        let lane_ms: f64 = tracer.per_job_ms("sim.lane_run").iter().sum();
        Ok(vec![(
            "sim.lane_ns_per_cycle",
            lane_ms * 1e6 / self.traced_lane_cycles.max(1) as f64,
        )])
    }
}

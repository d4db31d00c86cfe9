//! Property tests pinning the allocation-free kernel to the seed semantics.
//!
//! `LidSimulator` (persistent `WireArena`, borrowed-slice updates, monotonic
//! firing counter) and `NaiveSimulator` (the seed's per-cycle-allocating
//! step) must be *cycle-identical*: same per-cycle channel tokens, same
//! per-process firing counts, same discard statistics, same reports — for
//! both shell policies (WP1 strict, WP2 oracle), any relay-station
//! assignment and any netlist shape.

use proptest::prelude::*;

use wp_core::{PortSet, Process, ShellConfig};
use wp_sim::{LidSimulator, NaiveSimulator, SystemBuilder};

/// A ring stage: increments and forwards, with an optional periodic oracle
/// (the loop input is only required every `skip_period`-th firing).
#[derive(Debug, Clone)]
struct Stage {
    name: String,
    value: u64,
    fires: u64,
    skip_period: Option<u64>,
}

impl Stage {
    fn new(name: impl Into<String>, skip_period: Option<u64>) -> Self {
        Self {
            name: name.into(),
            value: 0,
            fires: 0,
            skip_period,
        }
    }

    fn input_needed(&self) -> bool {
        match self.skip_period {
            Some(p) => self.fires.is_multiple_of(p),
            None => true,
        }
    }
}

impl Process<u64> for Stage {
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

/// A two-loop hub: port 0 (the main ring) is always required, port 1 (the
/// chord loop) only every `chord_period`-th firing.  Exercises multi-port
/// shells, which rings of [`Stage`]s cannot.
#[derive(Debug, Clone)]
struct Hub {
    value: u64,
    held: u64,
    fires: u64,
    chord_period: u64,
}

impl Hub {
    fn new(chord_period: u64) -> Self {
        Self {
            value: 0,
            held: 0,
            fires: 0,
            chord_period: chord_period.max(1),
        }
    }

    fn chord_needed(&self) -> bool {
        self.fires.is_multiple_of(self.chord_period)
    }
}

impl Process<u64> for Hub {
    fn name(&self) -> &str {
        "hub"
    }
    fn num_inputs(&self) -> usize {
        2
    }
    fn num_outputs(&self) -> usize {
        2
    }
    fn output(&self, port: usize) -> u64 {
        if port == 0 {
            self.value
        } else {
            self.value ^ self.held
        }
    }
    fn required_inputs(&self) -> PortSet {
        if self.chord_needed() {
            PortSet::all(2)
        } else {
            PortSet::single(0)
        }
    }
    fn fire(&mut self, inputs: &[Option<u64>]) {
        if self.chord_needed() {
            if let Some(v) = inputs[1] {
                self.held = v;
            }
        }
        if let Some(v) = inputs[0] {
            self.value = v.wrapping_add(self.held).wrapping_add(1);
        }
        self.fires += 1;
    }
    fn reset(&mut self) {
        self.value = 0;
        self.held = 0;
        self.fires = 0;
    }
}

/// A ring of `stations.len()` stages with `stations[i]` relay stations on
/// edge `i`; stage 0 optionally carries the periodic oracle.
fn ring(stations: &[usize], skip_period: Option<u64>) -> SystemBuilder<u64> {
    let mut b = SystemBuilder::new();
    let n = stations.len();
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let skip = if i == 0 { skip_period } else { None };
            b.add_process(Box::new(Stage::new(format!("s{i}"), skip)))
        })
        .collect();
    for (i, &rs) in stations.iter().enumerate() {
        b.connect(format!("e{i}"), ids[i], 0, ids[(i + 1) % n], 0, rs);
    }
    b
}

/// Two loops sharing a multi-port hub: hub → tail → hub (the main ring) and
/// hub → chord → hub (the rarely needed loop).
fn two_loop(stations: &[usize; 4], chord_period: u64) -> SystemBuilder<u64> {
    let mut b = SystemBuilder::new();
    let hub = b.add_process(Box::new(Hub::new(chord_period)));
    let tail = b.add_process(Box::new(Stage::new("tail", None)));
    let chord = b.add_process(Box::new(Stage::new("chord", None)));
    b.connect("hub_tail", hub, 0, tail, 0, stations[0]);
    b.connect("tail_hub", tail, 0, hub, 0, stations[1]);
    b.connect("hub_chord", hub, 1, chord, 0, stations[2]);
    b.connect("chord_hub", chord, 0, hub, 1, stations[3]);
    b
}

/// Runs both simulators over the same system for `cycles` cycles and
/// asserts cycle-identical traces and identical reports, then drains both
/// and re-checks.
fn assert_cycle_identical(
    build: impl Fn() -> SystemBuilder<u64>,
    config: ShellConfig,
    cycles: u64,
) {
    let mut kernel = LidSimulator::new(build(), config).expect("kernel builds");
    let mut naive = NaiveSimulator::new(build(), config).expect("naive builds");
    kernel.run_for(cycles).expect("kernel runs");
    naive.run_for(cycles).expect("naive runs");
    assert_eq!(kernel.report(), naive.report(), "reports diverge");
    assert_eq!(kernel.traces(), naive.traces(), "per-cycle traces diverge");

    let extra_kernel = kernel.drain(4, 40).expect("kernel drains");
    let extra_naive = naive.drain(4, 40).expect("naive drains");
    assert_eq!(extra_kernel, extra_naive, "drain cycle counts diverge");
    assert_eq!(
        kernel.report(),
        naive.report(),
        "post-drain reports diverge"
    );
}

fn config_of(oracle: bool) -> ShellConfig {
    if oracle {
        ShellConfig::oracle()
    } else {
        ShellConfig::strict()
    }
}

proptest! {
    #[test]
    fn kernel_matches_naive_on_random_rings(
        stations in prop::collection::vec(0usize..4, 1..6),
        skip in prop::option::of(1u64..6),
        oracle in any::<bool>(),
        cycles in 1u64..150,
    ) {
        assert_cycle_identical(|| ring(&stations, skip), config_of(oracle), cycles);
    }

    #[test]
    fn kernel_matches_naive_on_multi_port_netlists(
        s0 in 0usize..4,
        s1 in 0usize..4,
        s2 in 0usize..4,
        s3 in 0usize..4,
        chord_period in 1u64..6,
        oracle in any::<bool>(),
        cycles in 1u64..150,
    ) {
        let stations = [s0, s1, s2, s3];
        assert_cycle_identical(
            || two_loop(&stations, chord_period),
            config_of(oracle),
            cycles,
        );
    }

    #[test]
    fn monotonic_counter_equals_shell_firing_sum(
        stations in prop::collection::vec(0usize..3, 1..5),
        cycles in 1u64..120,
    ) {
        let mut sim = LidSimulator::new(ring(&stations, None), ShellConfig::strict())
            .expect("ring builds");
        sim.run_for(cycles).expect("ring runs");
        let report = sim.report();
        prop_assert_eq!(report.total_firings, report.firings.iter().sum::<u64>());
        prop_assert_eq!(report.total_firings, sim.total_firings());
    }
}

//! Property tests pinning the arena-based golden step to the seed semantics.
//!
//! `GoldenSimulator` (persistent `PortArena` of delivered values) and
//! `NaiveGoldenSimulator` (the seed's per-cycle-allocating step) must be
//! *cycle-identical*: same per-cycle channel values, same cycle counts, same
//! halting behaviour and same observable process outputs — for any netlist
//! shape and any run length.

use proptest::prelude::*;

use wp_core::{PortSet, Process};
use wp_sim::{GoldenSimulator, NaiveGoldenSimulator, SystemBuilder};

/// A ring stage: accumulates what it receives and forwards a mix of its
/// state, so divergence in any delivered value propagates to every later
/// trace entry.
#[derive(Debug, Clone)]
struct Stage {
    name: String,
    value: u64,
    fires: u64,
}

impl Stage {
    fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            value: 0,
            fires: 0,
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
    fn fire(&mut self, inputs: &[Option<u64>]) {
        if let Some(v) = inputs[0] {
            self.value = self.value.wrapping_mul(31).wrapping_add(v).wrapping_add(1);
        }
        self.fires += 1;
    }
    fn reset(&mut self) {
        self.value = 0;
        self.fires = 0;
    }
}

/// A two-port hub combining both loops, exercising multi-port processes
/// (which rings of [`Stage`]s cannot) and the port-offset layout of the
/// arena.
#[derive(Debug, Clone)]
struct Hub {
    value: u64,
    held: u64,
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
        PortSet::all(2)
    }
    fn fire(&mut self, inputs: &[Option<u64>]) {
        if let Some(v) = inputs[1] {
            self.held = self.held.wrapping_add(v);
        }
        if let Some(v) = inputs[0] {
            self.value = v.wrapping_add(self.held).wrapping_add(1);
        }
    }
    fn reset(&mut self) {
        self.value = 0;
        self.held = 0;
    }
}

/// A source that halts after emitting `count` values (golden halting path).
#[derive(Debug, Clone)]
struct CountedSource {
    remaining: u64,
    value: u64,
}

impl Process<u64> for CountedSource {
    fn name(&self) -> &str {
        "src"
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
    fn fire(&mut self, inputs: &[Option<u64>]) {
        if self.remaining > 0 {
            self.remaining -= 1;
            self.value = self
                .value
                .wrapping_add(inputs[0].unwrap_or(0))
                .wrapping_add(1);
        }
    }
    fn is_halted(&self) -> bool {
        self.remaining == 0
    }
    fn reset(&mut self) {}
}

/// A ring of `n` stages (golden ignores relay stations, so none are set).
fn ring(n: usize) -> SystemBuilder<u64> {
    let mut b = SystemBuilder::new();
    let ids: Vec<_> = (0..n)
        .map(|i| b.add_process(Box::new(Stage::new(format!("s{i}")))))
        .collect();
    for i in 0..n {
        b.connect(format!("e{i}"), ids[i], 0, ids[(i + 1) % n], 0, 0);
    }
    b
}

/// Two loops sharing a multi-port hub: hub → tail → hub and hub → chord →
/// hub.
fn two_loop() -> SystemBuilder<u64> {
    let mut b = SystemBuilder::new();
    let hub = b.add_process(Box::new(Hub { value: 0, held: 0 }));
    let tail = b.add_process(Box::new(Stage::new("tail")));
    let chord = b.add_process(Box::new(Stage::new("chord")));
    b.connect("hub_tail", hub, 0, tail, 0, 0);
    b.connect("tail_hub", tail, 0, hub, 0, 0);
    b.connect("hub_chord", hub, 1, chord, 0, 0);
    b.connect("chord_hub", chord, 0, hub, 1, 0);
    b
}

/// A self-looped halting source (exercises `run_until_halt`).
fn halting_loop(count: u64) -> SystemBuilder<u64> {
    let mut b = SystemBuilder::new();
    let src = b.add_process(Box::new(CountedSource {
        remaining: count,
        value: 0,
    }));
    b.connect("self", src, 0, src, 0, 0);
    b
}

/// Runs both golden steps over the same system for `cycles` cycles and
/// asserts cycle-identical traces and identical observable process outputs.
fn assert_cycle_identical(build: impl Fn() -> SystemBuilder<u64>, cycles: u64) {
    let mut arena = GoldenSimulator::new(build()).expect("arena golden builds");
    let mut naive = NaiveGoldenSimulator::new(build()).expect("naive golden builds");
    arena.run_for(cycles);
    naive.run_for(cycles);
    assert_eq!(arena.cycles(), naive.cycles(), "cycle counts diverge");
    assert_eq!(arena.traces(), naive.traces(), "per-cycle traces diverge");
    let n_proc = build().process_count();
    for id in 0..n_proc {
        let (pa, pn) = (arena.process(id), naive.process(id));
        for port in 0..pa.num_outputs() {
            assert_eq!(
                pa.output(port),
                pn.output(port),
                "output {port} of process {id} diverges after {cycles} cycles"
            );
        }
        assert_eq!(pa.is_halted(), pn.is_halted(), "halt state diverges");
    }
}

proptest! {
    #[test]
    fn golden_arena_matches_seed_on_random_rings(
        stages in 1usize..7,
        cycles in 1u64..200,
    ) {
        assert_cycle_identical(|| ring(stages), cycles);
    }

    #[test]
    fn golden_arena_matches_seed_on_multi_port_netlists(
        cycles in 1u64..200,
    ) {
        assert_cycle_identical(two_loop, cycles);
    }

    #[test]
    fn golden_arena_matches_seed_on_halting_runs(
        count in 1u64..60,
    ) {
        let mut arena = GoldenSimulator::new(halting_loop(count)).expect("builds");
        let mut naive = NaiveGoldenSimulator::new(halting_loop(count)).expect("builds");
        let ca = arena.run_until_halt(0, 10_000).expect("arena halts");
        let cn = naive.run_until_halt(0, 10_000).expect("naive halts");
        prop_assert_eq!(ca, cn);
        prop_assert_eq!(arena.traces(), naive.traces());
    }

    #[test]
    fn golden_arena_matches_seed_with_traces_disabled(
        stages in 1usize..5,
        cycles in 1u64..120,
    ) {
        // The allocation-free path (no trace recording) must not change
        // behaviour: compare final outputs against a traced naive run.
        let mut arena = GoldenSimulator::new(ring(stages)).expect("builds");
        arena.set_trace_enabled(false);
        let mut naive = NaiveGoldenSimulator::new(ring(stages)).expect("builds");
        arena.run_for(cycles);
        naive.run_for(cycles);
        prop_assert_eq!(arena.traces().channel(0).len(), 0);
        for id in 0..stages {
            prop_assert_eq!(arena.process(id).output(0), naive.process(id).output(0));
        }
    }
}

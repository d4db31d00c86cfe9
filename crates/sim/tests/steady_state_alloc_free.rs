//! Proves the allocation-free steady-state claim of both kernels with a
//! counting global allocator: once constructed (and past the first cycle),
//! `GoldenSimulator::step` and `LidSimulator::step` must not touch the heap
//! at all — with traces disabled, *and* with traces enabled on the
//! arena-backed recorder (`wp_core::TraceArena`) once capacity for the
//! window has been reserved (`reserve_traces`).
//!
//! This binary runs without the libtest harness (`harness = false` in
//! `Cargo.toml`): the harness's own event-formatting thread allocates
//! concurrently with the test body, which would race the counting global
//! allocator.  With a plain `main` the process has exactly one thread and
//! every count below is deterministic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use wp_core::{Process, ShellConfig};
use wp_sim::{
    GoldenSimulator, LaneLidSimulator, LaneScenario, LidSimulator, StallSchedule, SystemBuilder,
    MAX_LANES,
};

/// Counts every allocation (and reallocation) made through the global
/// allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A minimal always-firing ring stage.
#[derive(Debug, Clone)]
struct Stage {
    value: u64,
}

impl Process<u64> for Stage {
    fn name(&self) -> &str {
        "stage"
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
            self.value = v.wrapping_add(1);
        }
    }
    fn reset(&mut self) {
        self.value = 0;
    }
}

/// A ring of `n` stages with `rs` relay stations on the first edge.
fn ring(n: usize, rs: usize) -> SystemBuilder<u64> {
    let mut b = SystemBuilder::new();
    let ids: Vec<_> = (0..n)
        .map(|_| b.add_process(Box::new(Stage { value: 0 })))
        .collect();
    for i in 0..n {
        let stations = if i == 0 { rs } else { 0 };
        b.connect(format!("e{i}"), ids[i], 0, ids[(i + 1) % n], 0, stations);
    }
    b
}

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn main() {
    // Golden: construction and the warm-up may allocate; the steady-state
    // window must not.
    let mut golden = GoldenSimulator::new(ring(4, 0)).expect("ring builds");
    golden.set_trace_enabled(false);
    golden.run_for(16);
    let before = allocations();
    golden.run_for(1_000);
    assert_eq!(
        allocations(),
        before,
        "GoldenSimulator::step allocated in steady state"
    );
    assert_eq!(golden.cycles(), 1_016);

    // Wire-pipelined kernel: same discipline, including relay stations.
    let mut lid = LidSimulator::new(ring(4, 2), ShellConfig::strict()).expect("ring builds");
    lid.set_trace_enabled(false);
    lid.run_for(16).expect("warm-up runs");
    let before = allocations();
    lid.run_for(1_000).expect("steady state runs");
    assert_eq!(
        allocations(),
        before,
        "LidSimulator::step allocated in steady state"
    );

    // Traced golden run on the arena-backed recorder: with capacity
    // reserved for the window, recording one valid token per channel per
    // cycle must not touch the heap either.
    let mut golden = GoldenSimulator::new(ring(4, 0)).expect("ring builds");
    golden.run_for(16);
    golden.reserve_traces(1_000);
    let before = allocations();
    golden.run_for(1_000);
    assert_eq!(
        allocations(),
        before,
        "traced GoldenSimulator::step allocated in steady state"
    );
    assert_eq!(golden.traces().total_valid(), 1_016 * 4);
    assert_eq!(golden.traces().channel(0).len(), 1_016);

    // Traced wire-pipelined run: tokens are accepted (and recorded) at the
    // consumer's pace, voids cost only a counter bump, and the reserved
    // capacity covers the worst case of one valid token per channel per
    // cycle.
    let mut lid = LidSimulator::new(ring(4, 2), ShellConfig::strict()).expect("ring builds");
    lid.run_for(16).expect("warm-up runs");
    lid.reserve_traces(1_000);
    let before = allocations();
    lid.run_for(1_000).expect("steady state runs");
    assert_eq!(
        allocations(),
        before,
        "traced LidSimulator::step allocated in steady state"
    );
    let arena = lid.traces();
    assert_eq!(arena.channel(0).len(), 1_016);
    assert!(
        arena.total_valid() > 0,
        "the traced window recorded no tokens at all"
    );

    // Lane-packed kernel: 64 control-plane lanes of the same ring with
    // mixed relay budgets and a stall schedule per lane.  Construction
    // reserves every plane and counter up front; a steady-state window
    // must then run entirely on bitwise plane updates (the embedded
    // golden twin runs traces-off and is covered by the window above).
    let lanes: Vec<LaneScenario> = (0..MAX_LANES)
        .map(|l| LaneScenario {
            relay_stations: (0..4).map(|c| (l + c) % 3).collect(),
            stall: Some(StallSchedule::new(7, 1, l as u32)),
        })
        .collect();
    let mut lane = LaneLidSimulator::new(ring(4, 0), &lanes, ShellConfig::strict())
        .expect("lane batch builds");
    lane.run_for(16);
    let before = allocations();
    lane.run_for(1_000);
    assert_eq!(
        allocations(),
        before,
        "LaneLidSimulator::step_cycle allocated in steady state"
    );
    assert_eq!(lane.cycles(), 1_016);

    println!("steady_state_alloc_free: ok (all steady-state windows allocation-free)");
}

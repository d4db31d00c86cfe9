//! The lane-packed bit-parallel simulation kernel.
//!
//! Every Table-1 / Figure-1 experiment evaluates the *same netlist* under
//! many independent perturbations (stall schedules, relay-station budgets).
//! The hot state of such a run is almost entirely single bits — channel
//! validity, stop/back-pressure wires, relay-station occupancy — so instead
//! of stepping one [`crate::LidSimulator`] per scenario, the
//! [`LaneLidSimulator`] packs up to 64 scenario instances ("lanes") into
//! `u64` control planes stored in [`crate::LanePlaneArena`]s and steps all
//! of them with each evaluation of the pure bitwise transfer functions of
//! [`wp_core::relay_station_control`] / [`wp_core::shell_fire_control`].
//!
//! # Why payloads can be ignored
//!
//! Throughput metrics (`golden_cycles`, `wpN_cycles`, `th_wp*`) depend only
//! on the control plane: *when* tokens move, never *what* they carry.  The
//! one data-dependent control input — [`wp_core::Process::is_halted`] — is
//! recovered from latency-insensitivity itself: a process's state after its
//! *k*-th firing is identical under **any** stall schedule, so "halted after
//! *k* firings" is a pure function of *k*.  The kernel therefore embeds one
//! live [`GoldenSimulator`] (which fires every process every cycle, so after
//! *c* golden cycles every process has fired exactly *c* times) as a shared
//! **halt script**: stepped just ahead of the lane clock, it reveals each
//! process's first-halt firing index `K_p`, and per-lane bitsliced
//! down-counters turn `fired ≥ K_p` into a halted plane.  Scenarios whose
//! payload values matter (traces, streaming `--verify` equivalence,
//! post-run state extraction) fall back to the scalar kernel — see the
//! eligibility rules in [`crate::SweepRunner`].
//!
//! # Packing heterogeneous relay-station counts
//!
//! Lanes of one batch may disagree on per-channel relay-station counts (the
//! Figure-1 sweep).  A channel allocates `max_rs` station slots and each
//! lane occupies the *suffix* `max_rs - n_lane ..` (chains aligned at the
//! consumer end), selected through constant per-slot lane masks: stations a
//! lane does not own receive a void input forever and stay identically
//! empty in that lane's bit position.
//!
//! # Equivalence contract
//!
//! Every lane is bit-identical — cycles, per-process firings, quiescence,
//! and error outcomes — to a scalar [`crate::LidSimulator`] run of the same
//! scenario (same builder, relay stations, [`StallSchedule`] lane, goal and
//! drain).  The property test `tests/lane_equivalence.rs` pins this for
//! random systems, schedules and lane counts, including ragged batches.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use wp_core::{
    relay_station_control, shell_fire_control, shell_release_control, ShellConfig, SyncPolicy,
};

use crate::arena::LanePlaneArena;
use crate::golden::GoldenSimulator;
use crate::lid::{LidReport, DEFAULT_DEADLOCK_WINDOW};
use crate::oracle::{
    goal_offset, max_cyclic_gap, split_remaining, OracleRun, ORACLE_DETECTION_WINDOW,
};
use crate::spec::{ChannelSpec, ProcessId, SimError, SystemBuilder};
use crate::sweep::RunGoal;

/// Maximum number of scenario instances one [`LaneLidSimulator`] steps
/// simultaneously (one per bit of a `u64` control plane).
pub const MAX_LANES: usize = 64;

/// A deterministic pseudo-random firing gate for one scenario instance.
///
/// The schedule decides, for every `(process, cycle)` pair, whether an
/// otherwise possible firing is withheld this cycle.  Gating is
/// protocol-safe — a gated shell looks exactly like a slower block to its
/// neighbours — which makes schedules the canonical way to generate many
/// *distinct* scenarios of one netlist for throughput sweeps and for the
/// lane-vs-scalar equivalence tests.
///
/// A schedule is identified by a *family* `(seed, level)` plus a *lane*
/// index 0–63: one 64-bit hash word per `(family, process, cycle)` carries
/// all 64 lanes' stall bits, so the lane kernel evaluates a whole batch
/// with a single hash while the scalar kernel reads just its own bit.  The
/// stall density is `2^-level` (level 0 never stalls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallSchedule {
    seed: u64,
    level: u32,
    lane: u32,
}

/// `splitmix64`-style finaliser used for the schedule hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl StallSchedule {
    /// Creates the schedule of family `(seed, level)` that reads lane
    /// `lane` of every hash word.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    pub fn new(seed: u64, level: u32, lane: u32) -> Self {
        assert!(lane < MAX_LANES as u32, "stall lane {lane} out of range");
        Self { seed, level, lane }
    }

    /// The `(seed, level)` family shared by all 64 lanes of one hash word.
    pub fn family(&self) -> (u64, u32) {
        (self.seed, self.level)
    }

    /// The lane (bit index) this schedule reads.
    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// The 64-lane stall word of a family for one `(process, cycle)` pair:
    /// bit *l* set means lane *l* withholds that process's firing in that
    /// cycle.  The density is `2^-level` per bit (the AND of `level`
    /// independent hash words); `level == 0` never stalls.
    pub fn family_mask(seed: u64, level: u32, process: usize, cycle: u64) -> u64 {
        if level == 0 {
            return 0;
        }
        let mut word = !0u64;
        for draw in 0..level {
            let key = mix(cycle ^ ((process as u64) << 40) ^ (u64::from(draw) << 56));
            word &= mix(seed ^ key);
        }
        word
    }

    /// Whether this schedule stalls `process` in `cycle`.
    pub fn stalled(&self, process: usize, cycle: u64) -> bool {
        (Self::family_mask(self.seed, self.level, process, cycle) >> self.lane) & 1 == 1
    }
}

/// Bitsliced per-lane counters: plane *j* holds bit *j* of all 64 lanes'
/// counter values, so increment/decrement by a lane mask is a carry/borrow
/// chain over the planes (almost always 1–2 words touched) and comparisons
/// against a constant are word-parallel across lanes.
#[derive(Debug, Clone)]
struct LaneCounters {
    planes: Vec<u64>,
}

/// Number of bits needed to store values up to and including `max`.
fn bits_for(max: u64) -> usize {
    (64 - max.leading_zeros() as usize).max(1)
}

impl LaneCounters {
    /// All-zero counters of the given bit width (at least 1).
    fn new(width: usize) -> Self {
        Self {
            planes: vec![0; width.max(1)],
        }
    }

    /// Counters initialised to `value` in every lane of `lane_mask` (other
    /// lanes zero).  The width is sized for `value`.
    fn with_value(value: u64, lane_mask: u64) -> Self {
        let mut c = Self::new(bits_for(value));
        for (j, plane) in c.planes.iter_mut().enumerate() {
            if (value >> j) & 1 == 1 {
                *plane = lane_mask;
            }
        }
        c
    }

    /// Overwrites one lane's value (used when down-counters are built from
    /// per-lane firing counts).
    fn set_lane(&mut self, lane: usize, value: u64) {
        debug_assert!(value < (1u128 << self.planes.len()) as u64 || self.planes.len() >= 64);
        let bit = 1u64 << lane;
        for (j, plane) in self.planes.iter_mut().enumerate() {
            if (value >> j) & 1 == 1 {
                *plane |= bit;
            } else {
                *plane &= !bit;
            }
        }
    }

    /// Adds 1 to every lane in `mask` (ripple carry, early exit).
    fn add_mask(&mut self, mask: u64) {
        let mut carry = mask;
        for plane in &mut self.planes {
            if carry == 0 {
                return;
            }
            let sum = *plane ^ carry;
            carry &= *plane;
            *plane = sum;
        }
        debug_assert_eq!(carry, 0, "lane counter overflowed its bit width");
    }

    /// Subtracts 1 from every lane in `mask` (ripple borrow, early exit).
    fn sub_mask(&mut self, mask: u64) {
        let mut borrow = mask;
        for plane in &mut self.planes {
            if borrow == 0 {
                return;
            }
            let diff = *plane ^ borrow;
            borrow &= !*plane;
            *plane = diff;
        }
        debug_assert_eq!(borrow, 0, "lane counter underflowed");
    }

    /// Zeroes the counters of every lane in `mask`.
    fn clear_lanes(&mut self, mask: u64) {
        for plane in &mut self.planes {
            *plane &= !mask;
        }
    }

    /// Lanes whose counter is non-zero.
    fn nonzero_mask(&self) -> u64 {
        self.planes.iter().fold(0, |acc, p| acc | p)
    }

    /// Lanes whose counter is at least `threshold`.
    fn ge_const(&self, threshold: u64) -> u64 {
        let width = self.planes.len();
        if width < 64 && threshold >= 1u64 << width {
            return 0;
        }
        // MSB-down comparator: `gt` collects lanes already proven greater,
        // `eq` tracks lanes still equal on the inspected prefix.
        let mut gt = 0u64;
        let mut eq = !0u64;
        for j in (0..width).rev() {
            let plane = self.planes[j];
            if (threshold >> j) & 1 == 1 {
                eq &= plane;
            } else {
                gt |= eq & plane;
            }
        }
        gt | eq
    }

    /// One lane's counter value.
    fn get(&self, lane: usize) -> u64 {
        self.planes
            .iter()
            .enumerate()
            .fold(0, |acc, (j, p)| acc | ((p >> lane) & 1) << j)
    }
}

/// Iterates the set bit positions of a lane mask.
fn iter_lanes(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(lane)
        }
    })
}

/// The per-lane inputs of a lane batch: everything a scenario may vary
/// *without* changing the control structure of the netlist.
#[derive(Debug, Clone, Default)]
pub struct LaneScenario {
    /// Relay stations per channel, in channel order (may differ per lane).
    pub relay_stations: Vec<usize>,
    /// Optional firing gate (all lanes of one batch must share the schedule
    /// family; each lane reads its own bit).
    pub stall: Option<StallSchedule>,
}

/// The per-lane result of a [`LaneLidSimulator::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct LaneOutcome {
    /// Cycles elapsed when the lane reached its run goal (drain cycles
    /// excluded here, included in `report.cycles`), exactly as the scalar
    /// kernel reports it.
    pub cycles_to_goal: u64,
    /// The lane's [`LidReport`], bit-identical to the scalar kernel's.
    pub report: LidReport,
}

/// Shared halt script of one process (see the module docs).
#[derive(Debug)]
enum HaltScript {
    /// The golden twin has not halted this process yet: no lane can be
    /// halted either (every lane's firing count trails the golden horizon).
    Unknown,
    /// First-halt firing index `K_p` is known; `rem` counts each lane down
    /// from `K_p - fired` and the halted plane latches on zero.
    Counting(LaneCounters),
    /// Every lane of the batch is halted: nothing left to track.
    Done,
}

/// Per-lane bookkeeping snapshotted when a lane finishes (goal + drain).
struct LaneFinal {
    cycles: u64,
    firings: Vec<u64>,
}

/// What the lane kernel's one-period re-simulation established.
enum LaneVerdict {
    /// The joint control state repeated exactly: `fire_masks[t * n + p]`
    /// holds the lanes that fired process `p` in in-period cycle `t`.
    Verified { fire_masks: Vec<u64> },
    /// The candidate was a hash collision (or a halt flipped inside the
    /// window) — or every lane was decided mid-verification; either way
    /// there is nothing to extrapolate from.
    NotPeriodic,
}

/// The bit-parallel latency-insensitive kernel: up to 64 instances of one
/// netlist, stepped together (see the module docs).
///
/// Construction fixes the netlist, the per-lane relay-station budgets and
/// stall schedules; [`LaneLidSimulator::run`] then executes one goal +
/// drain lifecycle and returns a per-lane [`LaneOutcome`] (or the lane's
/// [`SimError`]), bit-identical to scalar [`crate::LidSimulator`] runs.
pub struct LaneLidSimulator<V> {
    lanes: usize,
    lane_mask: u64,
    channels: Vec<ChannelSpec>,
    /// Per-process `(num_inputs, num_outputs)`.
    ports: Vec<(usize, usize)>,
    almost_full: u64,
    deadlock_window: u64,

    // Relay-chain planes, grouped by channel with `max_rs` planes each.
    rs_main: LanePlaneArena,
    rs_aux: LanePlaneArena,
    rs_stop: LanePlaneArena,
    /// Constant per-slot masks: lanes whose chain *starts* at this slot
    /// (the producer injects here) …
    rs_inject: LanePlaneArena,
    /// … and lanes whose chain already covers the slot above (the slot's
    /// input is the previous slot's main register).
    rs_above: LanePlaneArena,
    /// Per channel: lanes with zero relay stations (transparent wire).
    rs_zero: Vec<u64>,

    // Shell planes, grouped by process.
    out_valid: LanePlaneArena,
    stop_reg: LanePlaneArena,
    /// Per-cycle scratch: delivered-token validity per (process, input).
    delivered: LanePlaneArena,
    /// Per-cycle scratch: observed stop per (process, output).
    out_stop: LanePlaneArena,
    /// Input-queue occupancy per (process, input port).
    occ: Vec<Vec<LaneCounters>>,
    /// Firing counters per process (full 64-bit width, no flushing).
    fired: Vec<LaneCounters>,
    /// Halted plane per process (`fired ≥ K_p`).
    halted: Vec<u64>,
    scripts: Vec<HaltScript>,

    /// The live golden twin driving the shared halt script.
    golden: GoldenSimulator<V>,
    /// Stall-schedule family + per-lane bit assignment, if any.
    stall: Option<StallPlan>,
    /// Per-process fire mask of the current cycle (persistent scratch).
    fire_scratch: Vec<u64>,
    clock: u64,
}

/// The batch view of the lanes' stall schedules.
#[derive(Debug)]
struct StallPlan {
    seed: u64,
    level: u32,
    /// Kernel lane -> schedule lane (bit of the family word).
    assignment: Vec<u32>,
    /// Fast path: kernel lane *i* reads bit *i* for every lane.
    identity: bool,
}

impl StallPlan {
    /// The stall plane for `(process, cycle)` across all kernel lanes.
    fn mask(&self, process: usize, cycle: u64) -> u64 {
        let word = StallSchedule::family_mask(self.seed, self.level, process, cycle);
        if self.identity {
            word
        } else {
            self.assignment
                .iter()
                .enumerate()
                .fold(0, |acc, (i, &lane)| acc | ((word >> lane) & 1) << i)
        }
    }
}

impl<V> std::fmt::Debug for LaneLidSimulator<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneLidSimulator")
            .field("lanes", &self.lanes)
            .field("processes", &self.ports.len())
            .field("channels", &self.channels.len())
            .field("clock", &self.clock)
            .finish()
    }
}

impl<V: Clone + PartialEq> LaneLidSimulator<V> {
    /// Builds the lane kernel from one netlist description plus the
    /// per-lane variations.
    ///
    /// `builder` fixes the control structure (processes, channels) shared
    /// by every lane; its own relay-station counts are ignored in favour of
    /// each [`LaneScenario::relay_stations`].  The builder's processes also
    /// seed the embedded golden twin that drives the shared halt script.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidSystem`] when the description fails
    /// validation, the lane count is 0 or exceeds [`MAX_LANES`], the shell
    /// policy is not [`SyncPolicy::Strict`] (the oracle policy consults
    /// payload-dependent `required_inputs`, which the control plane cannot
    /// see), a lane's relay-station list does not match the channel count,
    /// or the lanes' stall schedules mix families.
    pub fn new(
        builder: SystemBuilder<V>,
        lanes: &[LaneScenario],
        config: ShellConfig,
    ) -> Result<Self, SimError> {
        if lanes.is_empty() || lanes.len() > MAX_LANES {
            return Err(SimError::InvalidSystem(format!(
                "lane batch must hold 1..={MAX_LANES} lanes, got {}",
                lanes.len()
            )));
        }
        if config.policy != SyncPolicy::Strict {
            return Err(SimError::InvalidSystem(
                "the lane kernel supports only strict (WP1) shells".into(),
            ));
        }
        if config.fifo_capacity < 2 {
            return Err(SimError::InvalidSystem(
                "shell queues need a capacity of at least 2".into(),
            ));
        }
        let ports: Vec<(usize, usize)> = builder
            .processes()
            .iter()
            .map(|p| (p.num_inputs(), p.num_outputs()))
            .collect();
        let channels = builder.channels().to_vec();
        // The golden twin takes the process boxes to drive the shared halt
        // script (relay stations are irrelevant to it); building it
        // validates the description.
        let mut golden = GoldenSimulator::new(builder)?;

        for (l, lane) in lanes.iter().enumerate() {
            if lane.relay_stations.len() != channels.len() {
                return Err(SimError::InvalidSystem(format!(
                    "lane {l} lists {} relay-station counts for {} channels",
                    lane.relay_stations.len(),
                    channels.len()
                )));
            }
        }
        let stall = build_stall_plan(lanes)?;
        golden.set_trace_enabled(false);

        let lane_count = lanes.len();
        let lane_mask = if lane_count == 64 {
            !0u64
        } else {
            (1u64 << lane_count) - 1
        };

        // Suffix-aligned relay slots: lane l of channel c occupies slots
        // `max_rs - n .. max_rs`.
        let max_rs: Vec<usize> = (0..channels.len())
            .map(|c| lanes.iter().map(|l| l.relay_stations[c]).max().unwrap_or(0))
            .collect();
        let mut rs_inject = LanePlaneArena::new(max_rs.iter().copied());
        let mut rs_above = LanePlaneArena::new(max_rs.iter().copied());
        let mut rs_zero = vec![0u64; channels.len()];
        for (c, &m) in max_rs.iter().enumerate() {
            for (l, lane) in lanes.iter().enumerate() {
                let n = lane.relay_stations[c];
                let bit = 1u64 << l;
                if n == 0 {
                    rs_zero[c] |= bit;
                    continue;
                }
                let start = m - n;
                let slots = rs_inject.of_mut(c);
                slots[start] |= bit;
                let slots = rs_above.of_mut(c);
                for slot in slots.iter_mut().skip(start + 1) {
                    *slot |= bit;
                }
            }
        }

        let occ_width = bits_for(config.fifo_capacity as u64);
        let occ = ports
            .iter()
            .map(|&(ins, _)| (0..ins).map(|_| LaneCounters::new(occ_width)).collect())
            .collect();
        let mut out_valid = LanePlaneArena::new(ports.iter().map(|&(_, outs)| outs));
        // Every shell presents its reset output as Valid on every port.
        for p in 0..ports.len() {
            for plane in out_valid.of_mut(p) {
                *plane = lane_mask;
            }
        }
        // A process halted at reset (`K_p = 0`) starts halted in every lane.
        let mut halted = vec![0u64; ports.len()];
        let mut scripts = Vec::with_capacity(ports.len());
        for (p, h) in halted.iter_mut().enumerate() {
            if golden.is_halted(p) {
                *h = lane_mask;
                scripts.push(HaltScript::Done);
            } else {
                scripts.push(HaltScript::Unknown);
            }
        }

        Ok(Self {
            lanes: lane_count,
            lane_mask,
            ports: ports.clone(),
            almost_full: config.fifo_capacity as u64 - 1,
            deadlock_window: DEFAULT_DEADLOCK_WINDOW,
            rs_main: LanePlaneArena::new(max_rs.iter().copied()),
            rs_aux: LanePlaneArena::new(max_rs.iter().copied()),
            rs_stop: LanePlaneArena::new(max_rs.iter().copied()),
            rs_inject,
            rs_above,
            rs_zero,
            out_valid,
            stop_reg: LanePlaneArena::new(ports.iter().map(|&(ins, _)| ins)),
            delivered: LanePlaneArena::new(ports.iter().map(|&(ins, _)| ins)),
            out_stop: LanePlaneArena::new(ports.iter().map(|&(_, outs)| outs)),
            occ,
            fired: (0..ports.len()).map(|_| LaneCounters::new(64)).collect(),
            halted,
            scripts,
            golden,
            stall,
            fire_scratch: vec![0; ports.len()],
            channels,
            clock: 0,
        })
    }

    /// Number of lanes in the batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Cycles simulated so far (all lanes advance in lockstep).
    pub fn cycles(&self) -> u64 {
        self.clock
    }

    /// Changes the deadlock-detection window (consecutive firing-free
    /// cycles per lane), as [`crate::LidSimulator::set_deadlock_window`].
    pub fn set_deadlock_window(&mut self, cycles: u64) {
        self.deadlock_window = cycles;
    }

    /// Steps every lane for exactly `cycles` cycles with no goal tracking —
    /// the lane counterpart of [`crate::LidSimulator::run_for`], used by
    /// the allocation-free steady-state proof and by benches.
    ///
    /// Performs no heap allocation in steady state: all planes and
    /// counters are preallocated, and the embedded golden twin (traces
    /// disabled) steps allocation-free as well.  The only allocating event
    /// is the one-time discovery of a process's first-halt index.
    pub fn run_for(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step_cycle(self.lane_mask);
        }
    }

    /// Runs the goal + drain lifecycle on a freshly constructed kernel and
    /// returns one result per lane, in lane order: the lane's
    /// [`LaneOutcome`] or the same [`SimError`] the scalar kernel would
    /// have produced (`MaxCyclesExceeded`, `Deadlock`).
    ///
    /// Lanes reach their goals at different cycles; finished lanes are
    /// frozen (their shells stop firing, which is protocol-safe) while the
    /// rest keep stepping in lockstep, and each lane's report is
    /// snapshotted the moment it finishes, so results never depend on how
    /// scenarios were packed into lanes.
    pub fn run(
        &mut self,
        goal: RunGoal,
        drain: Option<(u64, u64)>,
    ) -> Vec<Result<LaneOutcome, SimError>> {
        debug_assert_eq!(self.clock, 0, "run() expects a fresh kernel");
        let (max_cycles, mut goal_rem) = match goal {
            RunGoal::UntilHalt { max_cycles, .. } => (Some(max_cycles), None),
            RunGoal::UntilFirings {
                target, max_cycles, ..
            } => (
                Some(max_cycles),
                Some(LaneCounters::with_value(target, self.lane_mask)),
            ),
            RunGoal::ForCycles(_) => (None, None),
        };

        let mut running = self.lane_mask;
        let mut draining = 0u64;
        let mut idle = LaneCounters::new(bits_for(self.deadlock_window) + 1);
        let (drain_idle_w, drain_extra_w) = drain
            .map(|(i, e)| (bits_for(i) + 1, bits_for(e) + 1))
            .unwrap_or((1, 1));
        let mut drain_idle = LaneCounters::new(drain_idle_w);
        let mut drain_extra = LaneCounters::new(drain_extra_w);
        let mut cycles_to_goal = [0u64; MAX_LANES];
        let mut finals: Vec<Option<Result<LaneFinal, SimError>>> =
            (0..self.lanes).map(|_| None).collect();

        loop {
            // Boundary checks, in the scalar kernel's order: goal first,
            // then the cycle budget, then deadlock.
            let goal_now = running
                & match goal {
                    RunGoal::UntilHalt { process, .. } => self.halted[process],
                    RunGoal::UntilFirings { .. } => {
                        let rem = goal_rem.as_ref().expect("UntilFirings allocates a counter");
                        !rem.nonzero_mask()
                    }
                    RunGoal::ForCycles(cycles) => {
                        if self.clock >= cycles {
                            !0
                        } else {
                            0
                        }
                    }
                };
            for lane in iter_lanes(goal_now) {
                cycles_to_goal[lane] = self.clock;
            }
            running &= !goal_now;
            if drain.is_some() {
                draining |= goal_now;
                drain_idle.clear_lanes(goal_now);
                drain_extra.clear_lanes(goal_now);
            } else {
                for lane in iter_lanes(goal_now) {
                    finals[lane] = Some(Ok(self.snapshot(lane)));
                }
            }
            // Drain exit: the scalar loop `while idle < idle_cycles &&
            // extra < max_extra` checks before each extra step, so lanes
            // that just entered (idle = extra = 0) exit immediately when a
            // bound is zero.
            if let Some((idle_cycles, max_extra)) = drain {
                let exit =
                    draining & (drain_idle.ge_const(idle_cycles) | drain_extra.ge_const(max_extra));
                for lane in iter_lanes(exit) {
                    finals[lane] = Some(Ok(self.snapshot(lane)));
                }
                draining &= !exit;
            }
            if let Some(max_cycles) = max_cycles {
                if running != 0 && self.clock >= max_cycles {
                    for lane in iter_lanes(running) {
                        finals[lane] = Some(Err(SimError::MaxCyclesExceeded { max_cycles }));
                    }
                    running = 0;
                }
                let dead = running & idle.ge_const(self.deadlock_window);
                for lane in iter_lanes(dead) {
                    finals[lane] = Some(Err(SimError::Deadlock { cycle: self.clock }));
                }
                running &= !dead;
            }

            let active = running | draining;
            if active == 0 {
                break;
            }

            let fired_any = self.step_cycle(active);

            // Per-lane idle/extra accounting mirrors the scalar kernel:
            // `cycles_since_firing` resets on any firing in the lane, the
            // drain loop counts its own fresh idle window and extra cycles.
            idle.clear_lanes(fired_any);
            idle.add_mask(running & !fired_any);
            if drain.is_some() {
                drain_extra.add_mask(draining);
                drain_idle.clear_lanes(draining & fired_any);
                drain_idle.add_mask(draining & !fired_any);
            }
            if let (Some(rem), RunGoal::UntilFirings { process, .. }) = (&mut goal_rem, goal) {
                rem.sub_mask(self.fire_scratch[process] & running);
            }
        }

        finals
            .into_iter()
            .enumerate()
            .map(|(lane, f)| {
                f.expect("every lane finishes before the loop exits")
                    .map(|fin| LaneOutcome {
                        cycles_to_goal: cycles_to_goal[lane],
                        report: lane_report(fin),
                    })
            })
            .collect()
    }

    /// Snapshots one lane's final accounting (its report is materialised
    /// lazily when results are assembled).
    fn snapshot(&self, lane: usize) -> LaneFinal {
        LaneFinal {
            cycles: self.clock,
            firings: self.fired.iter().map(|f| f.get(lane)).collect(),
        }
    }

    /// The packed control state of the whole batch as one word sequence:
    /// every relay-station plane, output-validity and stop-register plane,
    /// queue-occupancy counter plane and halted plane.
    ///
    /// This is exactly the state the control plane evolves on.  Token
    /// payloads and the enclosed processes' internal state are excluded:
    /// under [`SyncPolicy::Strict`] a shell's firing decision reads only
    /// its queue occupancies, output validity and halted flag, and a relay
    /// station's next state reads only its main, auxiliary and stop
    /// registers plus the validity of its data input.  So — as long as no
    /// halted flag flips — the control plane evolves *autonomously* on
    /// this finite state, and observing the same state twice proves the
    /// run periodic.  (Under [`SyncPolicy::Oracle`] the firing decision
    /// also reads the data-dependent [`wp_core::Process::required_inputs`],
    /// so a repeated control state would prove nothing; the kernel rejects
    /// that policy at construction.)  Because lanes are bit-slices of these
    /// words and never interact, a repeat of the joint state proves *every*
    /// lane's control trajectory — and therefore its firing pattern —
    /// repeats with the joint period, provided no halted flag flips after
    /// extrapolation begins (a halt is driven by data, which the control
    /// plane cannot predict).  The monotonic `fired` counters and the
    /// halt-script down-counters are deliberately excluded: their effect on
    /// the control plane is fully captured by the halted planes.
    fn control_words(&self) -> impl Iterator<Item = u64> + '_ {
        self.rs_main
            .planes()
            .iter()
            .chain(self.rs_aux.planes())
            .chain(self.rs_stop.planes())
            .chain(self.out_valid.planes())
            .chain(self.stop_reg.planes())
            .chain(self.occ.iter().flatten().flat_map(|c| &c.planes))
            .chain(&self.halted)
            .copied()
    }

    /// Hashes the packed control state.  Every candidate period is
    /// verified on the complete state, so the hash only has to be fast:
    /// one multiply-rotate per word, each step a bijection of the running
    /// hash and of the word.
    fn control_hash(&self) -> u64 {
        self.control_words().fold(0, |hash, word| {
            (hash ^ word)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(27)
        })
    }

    /// The steady-state period oracle: runs every lane of a freshly
    /// constructed kernel until `node` has fired `target` times, like
    /// [`crate::LidSimulator::run_until_firings`], but detects the
    /// steady-state period of the *joint* control state and extrapolates
    /// each lane's goal cycle and firing counters in O(1) once the period
    /// is verified.  A single run that is not packed with others is a
    /// one-lane batch.
    ///
    /// Lanes are independent bit-slices of the control planes, so one joint
    /// period (the least common multiple of the per-lane periods, found by
    /// hashing all planes at once) proves every lane's pattern; lanes that
    /// reach their goal before a period is found are reported from plain
    /// simulation, bit-identical to [`LaneLidSimulator::run`] without a
    /// drain.  Batches with a stall schedule never extrapolate — the
    /// schedule hashes the absolute cycle, so the control plane alone does
    /// not determine the future — and simply simulate to their goals.
    ///
    /// Returns one [`OracleRun`] (or the lane's [`SimError`], exactly as
    /// plain simulation would have produced it) per lane, in lane order.
    /// The budget error is exact: an extrapolated goal cycle beyond
    /// `max_cycles` is reported as [`SimError::MaxCyclesExceeded`], and a
    /// steady state whose firing gaps reach the deadlock window is finished
    /// by plain simulation so the deadlock is reported at the right cycle.
    /// An extrapolated kernel's architectural state is frozen at the last
    /// simulated cycle — do not drain it.
    pub fn run_until_firings_extrapolated(
        &mut self,
        node: ProcessId,
        target: u64,
        max_cycles: u64,
    ) -> Vec<Result<OracleRun, SimError>> {
        debug_assert_eq!(self.clock, 0, "expects a fresh kernel");
        let mut results: Vec<Option<Result<OracleRun, SimError>>> =
            (0..self.lanes).map(|_| None).collect();
        let mut undecided = self.lane_mask;
        let mut goal_rem = LaneCounters::with_value(target, self.lane_mask);
        let mut idle = LaneCounters::new(bits_for(self.deadlock_window) + 1);
        let mut detect = self.stall.is_none();
        let mut seen: HashMap<u64, u64> = HashMap::new();

        loop {
            // Boundary checks in the plain kernel's order: goal first, then
            // the cycle budget, then deadlock.
            let goal_now = undecided & !goal_rem.nonzero_mask();
            for lane in iter_lanes(goal_now) {
                results[lane] = Some(Ok(self.plain_lane_outcome(lane)));
            }
            undecided &= !goal_now;
            if undecided != 0 && self.clock >= max_cycles {
                for lane in iter_lanes(undecided) {
                    results[lane] = Some(Err(SimError::MaxCyclesExceeded { max_cycles }));
                }
                undecided = 0;
            }
            let dead = undecided & idle.ge_const(self.deadlock_window);
            for lane in iter_lanes(dead) {
                results[lane] = Some(Err(SimError::Deadlock { cycle: self.clock }));
            }
            undecided &= !dead;
            if undecided == 0 {
                break;
            }

            if detect && self.clock <= ORACLE_DETECTION_WINDOW {
                let hash = self.control_hash();
                match seen.entry(hash) {
                    Entry::Occupied(entry) => {
                        let period = self.clock - *entry.get();
                        let verdict = self.verify_lane_period(
                            node,
                            max_cycles,
                            period,
                            &mut results,
                            &mut undecided,
                            &mut goal_rem,
                            &mut idle,
                        );
                        match verdict {
                            LaneVerdict::Verified { fire_masks } => {
                                self.extrapolate_lanes(
                                    node,
                                    target,
                                    max_cycles,
                                    period,
                                    &fire_masks,
                                    &mut results,
                                    &mut undecided,
                                );
                                // Lanes that cannot extrapolate (their goal
                                // process never fires again, or their
                                // steady-state gaps reach the deadlock
                                // window) finish by plain simulation; the
                                // verified period would only re-verify, so
                                // detection is done.
                                detect = false;
                            }
                            LaneVerdict::NotPeriodic => {}
                        }
                        seen.clear();
                        // Re-run the boundary checks before hashing or
                        // stepping again: verification advanced the clock.
                        continue;
                    }
                    Entry::Vacant(entry) => {
                        entry.insert(self.clock);
                    }
                }
            }

            let fired_any = self.step_cycle(self.lane_mask);
            idle.clear_lanes(fired_any);
            idle.add_mask(undecided & !fired_any);
            goal_rem.sub_mask(self.fire_scratch[node] & undecided);
        }

        results
            .into_iter()
            .map(|r| r.expect("every lane is decided before the loop exits"))
            .collect()
    }

    /// One lane's outcome when its goal was reached by plain simulation.
    fn plain_lane_outcome(&self, lane: usize) -> OracleRun {
        OracleRun {
            report: lane_report(self.snapshot(lane)),
            simulated_cycles: self.clock,
            extrapolated: false,
        }
    }

    /// Re-simulates exactly `period` cycles and compares the complete
    /// control vector against the snapshot taken at entry (defeating hash
    /// collisions), recording each cycle's per-process fire masks.  The
    /// per-cycle boundary bookkeeping of the main loop continues, so lanes
    /// may reach their goals — or run out of budget — mid-verification.
    #[allow(clippy::too_many_arguments)]
    fn verify_lane_period(
        &mut self,
        node: ProcessId,
        max_cycles: u64,
        period: u64,
        results: &mut [Option<Result<OracleRun, SimError>>],
        undecided: &mut u64,
        goal_rem: &mut LaneCounters,
        idle: &mut LaneCounters,
    ) -> LaneVerdict {
        let n = self.ports.len();
        let expect: Vec<u64> = self.control_words().collect();
        let mut fire_masks: Vec<u64> = Vec::with_capacity(period as usize * n);
        for _ in 0..period {
            let fired_any = self.step_cycle(self.lane_mask);
            fire_masks.extend_from_slice(&self.fire_scratch);
            idle.clear_lanes(fired_any);
            idle.add_mask(*undecided & !fired_any);
            goal_rem.sub_mask(self.fire_scratch[node] & *undecided);

            let goal_now = *undecided & !goal_rem.nonzero_mask();
            for lane in iter_lanes(goal_now) {
                results[lane] = Some(Ok(self.plain_lane_outcome(lane)));
            }
            *undecided &= !goal_now;
            if *undecided != 0 && self.clock >= max_cycles {
                for lane in iter_lanes(*undecided) {
                    results[lane] = Some(Err(SimError::MaxCyclesExceeded { max_cycles }));
                }
                *undecided = 0;
            }
            let dead = *undecided & idle.ge_const(self.deadlock_window);
            for lane in iter_lanes(dead) {
                results[lane] = Some(Err(SimError::Deadlock { cycle: self.clock }));
            }
            *undecided &= !dead;
            if *undecided == 0 {
                return LaneVerdict::NotPeriodic;
            }
        }
        if self.control_words().eq(expect) {
            LaneVerdict::Verified { fire_masks }
        } else {
            LaneVerdict::NotPeriodic
        }
    }

    /// Extrapolates every still-undecided lane from the verified per-cycle
    /// fire masks, with exact error parity against plain simulation: the
    /// goal cycle is
    /// `clock + k·period + t + 1`, the budget errs iff that exceeds
    /// `max_cycles`, and every firing counter is the simulated count plus
    /// `k` whole periods plus the partial period up to `t`.  Lanes whose
    /// goal process never fires in the period, or whose steady-state firing
    /// gaps reach the deadlock window, are left undecided — plain
    /// simulation then reproduces exactly the budget or deadlock error the
    /// un-extrapolated run would have hit.
    #[allow(clippy::too_many_arguments)]
    fn extrapolate_lanes(
        &self,
        node: ProcessId,
        target: u64,
        max_cycles: u64,
        period: u64,
        fire_masks: &[u64],
        results: &mut [Option<Result<OracleRun, SimError>>],
        undecided: &mut u64,
    ) {
        let n = self.ports.len();
        let cycles_per_period = period as usize;
        let mut cum_node: Vec<u64> = Vec::with_capacity(cycles_per_period);
        let mut fired_lane: Vec<bool> = Vec::with_capacity(cycles_per_period);
        for lane in iter_lanes(*undecided) {
            let bit = 1u64 << lane;
            cum_node.clear();
            fired_lane.clear();
            let mut cum = 0u64;
            for t in 0..cycles_per_period {
                let row = &fire_masks[t * n..(t + 1) * n];
                cum += u64::from(row[node] & bit != 0);
                cum_node.push(cum);
                fired_lane.push(row.iter().any(|&mask| mask & bit != 0));
            }
            let delta = cum;
            if delta == 0 || max_cyclic_gap(&fired_lane) >= self.deadlock_window {
                continue;
            }
            let rem = target - self.fired[node].get(lane);
            debug_assert!(rem >= 1, "an undecided lane has firings left to go");
            let (k, residue) = split_remaining(rem, delta);
            let t = goal_offset(&cum_node, residue);
            let goal_cycle = self.clock + k * period + t as u64 + 1;
            let outcome = if goal_cycle > max_cycles {
                Err(SimError::MaxCyclesExceeded { max_cycles })
            } else {
                let firings: Vec<u64> = (0..n)
                    .map(|p| {
                        let mut whole = 0u64;
                        let mut partial = 0u64;
                        for (step, row) in fire_masks.chunks_exact(n).enumerate() {
                            let fired_here = u64::from(row[p] & bit != 0);
                            whole += fired_here;
                            if step <= t {
                                partial += fired_here;
                            }
                        }
                        self.fired[p].get(lane) + k * whole + partial
                    })
                    .collect();
                Ok(OracleRun {
                    report: lane_report(LaneFinal {
                        cycles: goal_cycle,
                        firings,
                    }),
                    simulated_cycles: self.clock,
                    extrapolated: true,
                })
            };
            results[lane] = Some(outcome);
            *undecided &= !bit;
        }
    }

    /// Advances the embedded golden twin until it has simulated at least
    /// `needed` cycles, recording each process's first-halt firing index as
    /// it surfaces: after *c* golden cycles every process has fired *c*
    /// times, so a process first observed halted at golden cycle *c* has
    /// `K_p = c`.  At discovery no lane can have fired `K_p` times yet
    /// (every lane's count trails the previous horizon), so the down-
    /// counters are built before any lane needs them.
    fn extend_horizon(&mut self, needed: u64) {
        while self.golden.cycles() < needed {
            self.golden.step();
            for p in 0..self.ports.len() {
                if matches!(self.scripts[p], HaltScript::Unknown) && self.golden.is_halted(p) {
                    let k = self.golden.cycles();
                    let mut rem = LaneCounters::new(bits_for(k));
                    for lane in 0..self.lanes {
                        let fired = self.fired[p].get(lane);
                        debug_assert!(fired < k, "a lane overtook the halt horizon");
                        rem.set_lane(lane, k - fired);
                    }
                    self.scripts[p] = HaltScript::Counting(rem);
                }
            }
        }
    }

    /// One lockstep protocol cycle over every lane in `active`; returns the
    /// lanes in which at least one process fired.
    fn step_cycle(&mut self, active: u64) -> u64 {
        // The halted planes consulted below must cover firing counts up to
        // this cycle's clock.
        self.extend_horizon(self.clock + 1);

        let Self {
            lane_mask,
            channels,
            ports,
            almost_full,
            rs_main,
            rs_aux,
            rs_stop,
            rs_inject,
            rs_above,
            rs_zero,
            out_valid,
            stop_reg,
            delivered,
            out_stop,
            occ,
            fired,
            halted,
            scripts,
            stall,
            fire_scratch,
            clock,
            ..
        } = self;

        // Phase 1: per channel, derive the delivered-validity and observed-
        // stop planes from the registered shell/station planes, then step
        // the station slots consumer-to-producer exactly like the scalar
        // `RelayChain::update` (each slot sees its neighbours' pre-update
        // wires; the carried word is the one stop each slot drove upstream).
        for (c, ch) in channels.iter().enumerate() {
            let produced = out_valid.get(ch.src, ch.src_port);
            let consumer_stop = stop_reg.get(ch.dst, ch.dst_port);
            let m = rs_main.of(c).len();
            let zero = rs_zero[c];
            let (deliver, observed_stop) = if m == 0 {
                (produced, consumer_stop)
            } else {
                let deliver = (zero & produced) | (!zero & rs_main.get(c, m - 1));
                let mut observed = zero & consumer_stop;
                for j in 0..m {
                    observed |= rs_inject.get(c, j) & rs_stop.get(c, j);
                }
                let mut down = consumer_stop;
                for j in (0..m).rev() {
                    let pre_stop = rs_stop.get(c, j);
                    let upstream = (rs_inject.get(c, j) & produced)
                        | (rs_above.get(c, j) & if j > 0 { rs_main.get(c, j - 1) } else { 0 });
                    let ctrl = relay_station_control(
                        rs_main.get(c, j),
                        rs_aux.get(c, j),
                        pre_stop,
                        !pre_stop & upstream,
                        down,
                    );
                    rs_main.set(c, j, ctrl.main);
                    rs_aux.set(c, j, ctrl.aux);
                    rs_stop.set(c, j, ctrl.stop);
                    down = pre_stop;
                }
                (deliver, observed)
            };
            delivered.set(ch.dst, ch.dst_port, deliver);
            out_stop.set(ch.src, ch.src_port, observed_stop);
        }

        // Phase 2: shells, in the scalar `Shell::update` order — accept,
        // release, fire, stop refresh.
        let mut fired_any = 0u64;
        for (p, &(ins, outs)) in ports.iter().enumerate() {
            for (i, slot) in occ[p].iter_mut().enumerate().take(ins) {
                let accept = delivered.get(p, i) & !stop_reg.get(p, i);
                slot.add_mask(accept);
            }
            let mut outputs_clear = !0u64;
            for j in 0..outs {
                let held = shell_release_control(out_valid.get(p, j), out_stop.get(p, j));
                out_valid.set(p, j, held);
                outputs_clear &= !held;
            }
            let mut inputs_ready = !0u64;
            for slot in occ[p].iter().take(ins) {
                inputs_ready &= slot.nonzero_mask();
            }
            let gated = match stall {
                Some(plan) => plan.mask(p, *clock),
                None => 0,
            };
            let eligible = active & !halted[p] & !gated;
            let fire = shell_fire_control(eligible, outputs_clear, inputs_ready);
            if fire != 0 {
                for slot in occ[p].iter_mut().take(ins) {
                    slot.sub_mask(fire);
                }
                for j in 0..outs {
                    out_valid.set(p, j, out_valid.get(p, j) | fire);
                }
                fired[p].add_mask(fire);
                if let HaltScript::Counting(rem) = &mut scripts[p] {
                    rem.sub_mask(fire);
                    halted[p] |= !rem.nonzero_mask() & *lane_mask;
                    if halted[p] == *lane_mask {
                        scripts[p] = HaltScript::Done;
                    }
                }
            }
            fire_scratch[p] = fire;
            fired_any |= fire;
            for (i, slot) in occ[p].iter().enumerate().take(ins) {
                stop_reg.set(p, i, slot.ge_const(*almost_full));
            }
        }

        *clock += 1;
        fired_any & active
    }
}

/// Validates and summarises the lanes' stall schedules: either no lane has
/// one, or all lanes share one family (each reading its own bit).
fn build_stall_plan(lanes: &[LaneScenario]) -> Result<Option<StallPlan>, SimError> {
    let mut family: Option<(u64, u32)> = None;
    let mut assignment = Vec::with_capacity(lanes.len());
    let mut with_schedule = 0usize;
    for lane in lanes {
        match &lane.stall {
            Some(s) => {
                with_schedule += 1;
                match family {
                    None => family = Some(s.family()),
                    Some(f) if f != s.family() => {
                        return Err(SimError::InvalidSystem(
                            "lane batch mixes stall-schedule families".into(),
                        ))
                    }
                    Some(_) => {}
                }
                assignment.push(s.lane());
            }
            None => assignment.push(0),
        }
    }
    match family {
        None => Ok(None),
        Some((seed, level)) => {
            if with_schedule != lanes.len() {
                return Err(SimError::InvalidSystem(
                    "lane batch mixes scheduled and unscheduled lanes".into(),
                ));
            }
            let identity = assignment.iter().enumerate().all(|(i, &l)| l as usize == i);
            Ok(Some(StallPlan {
                seed,
                level,
                assignment,
                identity,
            }))
        }
    }
}

/// Materialises one lane's [`LidReport`] from its final accounting, field
/// by field as the scalar [`crate::LidSimulator::report`] computes it
/// (strict shells never discard, so that column is all zeros).
fn lane_report(fin: LaneFinal) -> LidReport {
    let total_firings = fin.firings.iter().sum();
    let throughput = fin
        .firings
        .iter()
        .map(|&f| {
            if fin.cycles == 0 {
                0.0
            } else {
                f as f64 / fin.cycles as f64
            }
        })
        .collect();
    let discarded = vec![0; fin.firings.len()];
    LidReport {
        cycles: fin.cycles,
        firings: fin.firings,
        total_firings,
        discarded,
        throughput,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lid::LidSimulator;
    use crate::testutil::RingStage;

    #[test]
    fn lane_counters_add_sub_and_compare() {
        let mut c = LaneCounters::new(4);
        c.add_mask(0b1011);
        c.add_mask(0b0011);
        c.add_mask(0b0001);
        assert_eq!(c.get(0), 3);
        assert_eq!(c.get(1), 2);
        assert_eq!(c.get(2), 0);
        assert_eq!(c.get(3), 1);
        assert_eq!(c.nonzero_mask(), 0b1011);
        assert_eq!(c.ge_const(2), 0b0011);
        assert_eq!(c.ge_const(1), 0b1011);
        assert_eq!(c.ge_const(0), !0);
        assert_eq!(c.ge_const(16), 0, "beyond the width nothing compares");
        c.sub_mask(0b0011);
        assert_eq!(c.get(0), 2);
        assert_eq!(c.get(1), 1);
        c.clear_lanes(0b0001);
        assert_eq!(c.get(0), 0);
        assert_eq!(c.get(3), 1);
    }

    #[test]
    fn lane_counters_initialisation_and_set_lane() {
        let mut c = LaneCounters::with_value(13, 0b0110);
        assert_eq!(c.get(0), 0);
        assert_eq!(c.get(1), 13);
        assert_eq!(c.get(2), 13);
        c.set_lane(2, 5);
        assert_eq!(c.get(2), 5);
        assert_eq!(c.get(1), 13, "other lanes are untouched");
        assert_eq!(c.ge_const(13), 0b0010);
    }

    #[test]
    fn stall_schedule_scalar_bit_matches_family_word() {
        let (seed, level) = (0xfeed_beef, 2);
        for process in 0..3 {
            for cycle in 0..200u64 {
                let word = StallSchedule::family_mask(seed, level, process, cycle);
                for lane in [0u32, 1, 17, 63] {
                    let s = StallSchedule::new(seed, level, lane);
                    assert_eq!(s.stalled(process, cycle), (word >> lane) & 1 == 1);
                }
            }
        }
    }

    #[test]
    fn stall_schedule_density_follows_the_level() {
        for level in [1u32, 2, 3] {
            let draws = 1_000u64;
            let mut stall_bits = 0u64;
            for cycle in 0..draws {
                stall_bits +=
                    u64::from(StallSchedule::family_mask(7, level, 0, cycle).count_ones());
            }
            let expected = (draws * 64) as f64 / f64::from(1u32 << level);
            let measured = stall_bits as f64;
            assert!(
                (measured - expected).abs() < expected * 0.2,
                "level {level}: {measured} stall bits vs ~{expected}"
            );
        }
        assert_eq!(
            StallSchedule::family_mask(7, 0, 0, 3),
            0,
            "level 0 never stalls"
        );
    }

    /// A ring of `stages` stages with `rs` relay stations on the first edge.
    fn ring(stages: usize, rs: usize) -> SystemBuilder<u64> {
        let mut b = SystemBuilder::new();
        let ids: Vec<_> = (0..stages)
            .map(|i| b.add_process(Box::new(RingStage::new(&format!("s{i}")))))
            .collect();
        for i in 0..stages {
            let n = if i == 0 { rs } else { 0 };
            b.connect(format!("e{i}"), ids[i], 0, ids[(i + 1) % stages], 0, n);
        }
        b
    }

    fn scalar_outcome(
        stages: usize,
        rs: usize,
        stall: Option<StallSchedule>,
        goal: RunGoal,
        drain: Option<(u64, u64)>,
    ) -> Result<(u64, LidReport), SimError> {
        let mut sim = LidSimulator::new(ring(stages, rs), ShellConfig::strict())?;
        sim.set_trace_enabled(false);
        sim.set_stall_schedule(stall);
        let cycles_to_goal = match goal {
            RunGoal::UntilHalt {
                process,
                max_cycles,
            } => sim.run_until_halt(process, max_cycles)?,
            RunGoal::UntilFirings {
                process,
                target,
                max_cycles,
            } => sim.run_until_firings(process, target, max_cycles)?,
            RunGoal::ForCycles(cycles) => {
                sim.run_for(cycles)?;
                sim.cycles()
            }
        };
        if let Some((idle, extra)) = drain {
            sim.drain(idle, extra)?;
        }
        Ok((cycles_to_goal, sim.report()))
    }

    #[test]
    fn packed_ring_lanes_match_scalar_runs() {
        // 7 lanes: mixed relay-station budgets and stall lanes of one
        // family, against per-lane scalar oracles.
        let goal = RunGoal::UntilFirings {
            process: 0,
            target: 120,
            max_cycles: 50_000,
        };
        let drain = Some((8, 1_000));
        let stages = 3;
        let rs_budgets = [0usize, 1, 2, 4, 1, 0, 3];
        let lanes: Vec<LaneScenario> = rs_budgets
            .iter()
            .enumerate()
            .map(|(l, &rs)| LaneScenario {
                relay_stations: vec![rs, 0, 0],
                stall: Some(StallSchedule::new(99, 2, l as u32)),
            })
            .collect();
        let mut kernel =
            LaneLidSimulator::new(ring(stages, 0), &lanes, ShellConfig::strict()).unwrap();
        let outcomes = kernel.run(goal, drain);
        assert_eq!(outcomes.len(), rs_budgets.len());
        for (l, (outcome, &rs)) in outcomes.iter().zip(&rs_budgets).enumerate() {
            let outcome = outcome.as_ref().expect("ring lanes complete");
            let (cycles_to_goal, report) = scalar_outcome(
                stages,
                rs,
                Some(StallSchedule::new(99, 2, l as u32)),
                goal,
                drain,
            )
            .expect("scalar ring completes");
            assert_eq!(outcome.cycles_to_goal, cycles_to_goal, "lane {l}");
            assert_eq!(&outcome.report, &report, "lane {l}");
        }
    }

    #[test]
    fn lane_errors_match_scalar_errors() {
        // Budget small enough that no lane reaches 1000 firings.
        let goal = RunGoal::UntilFirings {
            process: 0,
            target: 1_000,
            max_cycles: 40,
        };
        let lanes = vec![
            LaneScenario {
                relay_stations: vec![0, 0],
                stall: None,
            },
            LaneScenario {
                relay_stations: vec![3, 0],
                stall: None,
            },
        ];
        let mut kernel = LaneLidSimulator::new(ring(2, 0), &lanes, ShellConfig::strict()).unwrap();
        for (l, outcome) in kernel.run(goal, None).iter().enumerate() {
            let err = outcome.as_ref().expect_err("budget exceeded");
            assert!(
                matches!(err, SimError::MaxCyclesExceeded { max_cycles: 40 }),
                "lane {l}: {err}"
            );
        }
    }

    #[test]
    fn halting_pipelines_follow_the_shared_halt_script() {
        use crate::testutil::{Forward, Terminator};
        use wp_core::SequenceSource;
        let build = || {
            let mut b = SystemBuilder::new();
            let src = b.add_process(Box::new(SequenceSource::new(
                "src",
                (1..=9u64).collect(),
                0,
            )));
            let fwd = b.add_process(Box::new(Forward::new("fwd")));
            let term = b.add_process(Box::new(Terminator::new("term")));
            b.connect("src_fwd", src, 0, fwd, 0, 0);
            b.connect("fwd_term", fwd, 0, term, 0, 0);
            b
        };
        let goal = RunGoal::UntilHalt {
            process: 0,
            max_cycles: 10_000,
        };
        let drain = Some((4, 100));
        let lanes: Vec<LaneScenario> = [(0usize, 0usize), (2, 1), (5, 0), (0, 4)]
            .iter()
            .map(|&(a, b)| LaneScenario {
                relay_stations: vec![a, b],
                stall: None,
            })
            .collect();
        let mut kernel = LaneLidSimulator::new(build(), &lanes, ShellConfig::strict()).unwrap();
        let outcomes = kernel.run(goal, drain);
        for (l, outcome) in outcomes.iter().enumerate() {
            let outcome = outcome.as_ref().expect("pipeline lanes complete");
            let (a, b) = [(0usize, 0usize), (2, 1), (5, 0), (0, 4)][l];
            let mut builder = build();
            builder.set_relay_stations(0, a);
            builder.set_relay_stations(1, b);
            let mut sim = LidSimulator::new(builder, ShellConfig::strict()).unwrap();
            sim.set_trace_enabled(false);
            let cycles_to_goal = sim.run_until_halt(0, 10_000).unwrap();
            sim.drain(4, 100).unwrap();
            assert_eq!(outcome.cycles_to_goal, cycles_to_goal, "lane {l}");
            assert_eq!(outcome.report, sim.report(), "lane {l}");
        }
    }

    #[test]
    fn batch_construction_rejects_bad_inputs() {
        assert!(matches!(
            LaneLidSimulator::<u64>::new(ring(2, 0), &[], ShellConfig::strict()),
            Err(SimError::InvalidSystem(_))
        ));
        let lane = |stall| LaneScenario {
            relay_stations: vec![0, 0],
            stall,
        };
        assert!(matches!(
            LaneLidSimulator::new(ring(2, 0), &[lane(None)], ShellConfig::oracle()),
            Err(SimError::InvalidSystem(_))
        ));
        assert!(matches!(
            LaneLidSimulator::new(
                ring(2, 0),
                &[LaneScenario {
                    relay_stations: vec![0],
                    stall: None
                }],
                ShellConfig::strict()
            ),
            Err(SimError::InvalidSystem(_))
        ));
        // Mixed families and mixed scheduled/unscheduled lanes.
        assert!(matches!(
            LaneLidSimulator::new(
                ring(2, 0),
                &[
                    lane(Some(StallSchedule::new(1, 1, 0))),
                    lane(Some(StallSchedule::new(2, 1, 1)))
                ],
                ShellConfig::strict()
            ),
            Err(SimError::InvalidSystem(_))
        ));
        assert!(matches!(
            LaneLidSimulator::new(
                ring(2, 0),
                &[lane(Some(StallSchedule::new(1, 1, 0))), lane(None)],
                ShellConfig::strict()
            ),
            Err(SimError::InvalidSystem(_))
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stall_schedule_rejects_lane_64() {
        let _ = StallSchedule::new(0, 1, 64);
    }

    /// Every lane of an extrapolated batch must match its scalar plain run
    /// bit for bit, while simulating only a fraction of the reported
    /// cycles: an 8-lane batch with mixed budgets, and one-lane batches
    /// over rings of `m` stages with `n` relay stations.
    #[test]
    fn extrapolated_lanes_match_scalar_plain_runs_exactly() {
        let max_cycles = 1_000_000u64;
        let mut batches = vec![(3usize, vec![0usize, 1, 2, 4, 7, 0, 3, 5], 50_000u64)];
        batches.extend([(1, 0), (1, 4), (2, 1), (3, 2), (5, 3)].map(|(m, n)| (m, vec![n], 5_000)));
        for (stages, rs_budgets, target) in batches {
            let lanes: Vec<LaneScenario> = rs_budgets
                .iter()
                .map(|&rs| {
                    let mut relay_stations = vec![0; stages];
                    relay_stations[0] = rs;
                    LaneScenario {
                        relay_stations,
                        stall: None,
                    }
                })
                .collect();
            let mut kernel =
                LaneLidSimulator::new(ring(stages, 0), &lanes, ShellConfig::strict()).unwrap();
            let outcomes = kernel.run_until_firings_extrapolated(0, target, max_cycles);
            assert_eq!(outcomes.len(), rs_budgets.len());
            for (l, (outcome, &rs)) in outcomes.iter().zip(&rs_budgets).enumerate() {
                let at = format!("m={stages} n={rs} lane {l}");
                let run = outcome.as_ref().expect("ring lanes complete");
                let mut scalar =
                    LidSimulator::new(ring(stages, rs), ShellConfig::strict()).unwrap();
                scalar.set_trace_enabled(false);
                scalar.run_until_firings(0, target, max_cycles).unwrap();
                assert_eq!(run.report, scalar.report(), "{at}");
                assert!(run.extrapolated, "{at} should have extrapolated");
                assert!(
                    run.simulated_cycles * 10 <= run.report.cycles,
                    "{at}: simulated {} of {} cycles",
                    run.simulated_cycles,
                    run.report.cycles
                );
                assert_eq!(
                    run.extrapolated_cycles(),
                    run.report.cycles - run.simulated_cycles,
                    "{at}"
                );
            }
        }
    }

    /// A stalled batch cannot extrapolate (the schedule reads the absolute
    /// cycle), but the oracle entry point still reproduces the plain
    /// kernel's outcomes exactly.
    #[test]
    fn stalled_batches_fall_back_to_plain_lane_simulation() {
        let target = 300u64;
        let lanes: Vec<LaneScenario> = (0..4u32)
            .map(|l| LaneScenario {
                relay_stations: vec![l as usize, 0],
                stall: Some(StallSchedule::new(42, 2, l)),
            })
            .collect();
        let mut kernel = LaneLidSimulator::new(ring(2, 0), &lanes, ShellConfig::strict()).unwrap();
        let outcomes = kernel.run_until_firings_extrapolated(0, target, 100_000);
        for (l, outcome) in outcomes.iter().enumerate() {
            let run = outcome.as_ref().expect("stalled lanes complete");
            assert!(!run.extrapolated, "lane {l} must not extrapolate");
            assert_eq!(run.simulated_cycles, run.report.cycles, "lane {l}");
            let mut scalar = LidSimulator::new(ring(2, l), ShellConfig::strict()).unwrap();
            scalar.set_trace_enabled(false);
            scalar.set_stall_schedule(Some(StallSchedule::new(42, 2, l as u32)));
            scalar.run_until_firings(0, target, 100_000).unwrap();
            assert_eq!(run.report, scalar.report(), "lane {l}");
        }
    }

    /// The extrapolated cycle-budget error is exact per lane: a budget one
    /// cycle short errs, the exact goal cycle succeeds by extrapolation —
    /// for a single lane, and for lanes that share one clock and decide at
    /// different cycles.
    #[test]
    fn extrapolated_budget_errors_are_exact_per_lane() {
        let target = 2_000u64;
        for budgets in [&[0usize, 2][..], &[2]] {
            let goal_cycles: Vec<u64> = budgets
                .iter()
                .map(|&rs| {
                    let mut scalar = LidSimulator::new(ring(3, rs), ShellConfig::strict()).unwrap();
                    scalar.set_trace_enabled(false);
                    scalar.run_until_firings(0, target, 1_000_000).unwrap()
                })
                .collect();
            let lanes: Vec<LaneScenario> = budgets
                .iter()
                .map(|&rs| LaneScenario {
                    relay_stations: vec![rs, 0, 0],
                    stall: None,
                })
                .collect();
            // Budget exactly the slowest lane's goal cycle: the slow lane
            // succeeds on the nose, any faster one long before.
            let max = *goal_cycles.iter().max().unwrap();
            let mut kernel =
                LaneLidSimulator::new(ring(3, 0), &lanes, ShellConfig::strict()).unwrap();
            for (l, outcome) in kernel
                .run_until_firings_extrapolated(0, target, max)
                .iter()
                .enumerate()
            {
                let run = outcome.as_ref().expect("budget is sufficient");
                assert!(run.extrapolated, "{budgets:?} lane {l}");
                assert_eq!(run.report.cycles, goal_cycles[l], "{budgets:?} lane {l}");
            }
            // One cycle short: the slowest lane must err, any faster one
            // still pass.
            let mut kernel =
                LaneLidSimulator::new(ring(3, 0), &lanes, ShellConfig::strict()).unwrap();
            let outcomes = kernel.run_until_firings_extrapolated(0, target, max - 1);
            let slow = goal_cycles
                .iter()
                .position(|&g| g == max)
                .expect("one lane is slowest");
            for (l, outcome) in outcomes.iter().enumerate() {
                if l == slow {
                    let err = outcome.as_ref().expect_err("one cycle short");
                    assert!(
                        matches!(err, SimError::MaxCyclesExceeded { .. }),
                        "{budgets:?} lane {l}: {err}"
                    );
                } else {
                    assert_eq!(
                        outcome.as_ref().expect("fast lane fits").report.cycles,
                        goal_cycles[l],
                        "{budgets:?} lane {l}"
                    );
                }
            }
        }
    }
}

//! The lane-packed bit-parallel simulation kernel.
//!
//! Every Table-1 / Figure-1 experiment evaluates the *same netlist* under
//! many independent perturbations (stall schedules, relay-station budgets).
//! The hot state of such a run is almost entirely single bits — channel
//! validity, stop/back-pressure wires, relay-station occupancy — so instead
//! of stepping one [`crate::LidSimulator`] per scenario, the
//! [`LaneLidSimulator`] packs up to 64 scenario instances ("lanes") into
//! `u64` control planes, all stored in one [`crate::LanePlaneArena`] slab
//! and indexed through channel and port indices resolved at construction,
//! and steps all of them with each evaluation of the pure bitwise transfer
//! functions of
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
    goal_offset, lcm_saturating, max_cyclic_gap, split_remaining, OracleFallback, OracleRun,
    ORACLE_DETECTION_WINDOW,
};
use crate::spec::{check_shell_config, ProcessId, SimError, SystemBuilder};
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
/// against a constant are word-parallel across lanes.  The arithmetic is
/// the `planes_*` functions below, which the queue occupancies share in
/// place inside the control slab.
#[derive(Debug, Clone)]
struct LaneCounters {
    planes: Vec<u64>,
}

/// Number of bits needed to store values up to and including `max`.
fn bits_for(max: u64) -> usize {
    (64 - max.leading_zeros() as usize).max(1)
}

/// Adds 1 to every lane in `mask` (ripple carry, early exit).
#[inline]
fn planes_add(planes: &mut [u64], mask: u64) {
    let mut carry = mask;
    for plane in planes {
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
#[inline]
fn planes_sub(planes: &mut [u64], mask: u64) {
    let mut borrow = mask;
    for plane in planes {
        if borrow == 0 {
            return;
        }
        let diff = *plane ^ borrow;
        borrow &= !*plane;
        *plane = diff;
    }
    debug_assert_eq!(borrow, 0, "lane counter underflowed");
}

/// Lanes whose counter is non-zero.
#[inline]
fn planes_nonzero(planes: &[u64]) -> u64 {
    planes.iter().fold(0, |acc, p| acc | p)
}

/// Lanes whose counter is at least `threshold`.
#[inline]
fn planes_ge(planes: &[u64], threshold: u64) -> u64 {
    let width = planes.len();
    if width < 64 && threshold >= 1u64 << width {
        return 0;
    }
    // MSB-down comparator: `gt` collects lanes already proven greater,
    // `eq` tracks lanes still equal on the inspected prefix.
    let mut gt = 0u64;
    let mut eq = !0u64;
    for (j, &plane) in planes.iter().enumerate().rev() {
        if (threshold >> j) & 1 == 1 {
            eq &= plane;
        } else {
            gt |= eq & plane;
        }
    }
    gt | eq
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

    /// Adds 1 to every lane in `mask`.
    fn add_mask(&mut self, mask: u64) {
        planes_add(&mut self.planes, mask);
    }

    /// Subtracts 1 from every lane in `mask`.
    fn sub_mask(&mut self, mask: u64) {
        planes_sub(&mut self.planes, mask);
    }

    /// Zeroes the counters of every lane in `mask`.
    fn clear_lanes(&mut self, mask: u64) {
        for plane in &mut self.planes {
            *plane &= !mask;
        }
    }

    /// Lanes whose counter is non-zero.
    fn nonzero_mask(&self) -> u64 {
        planes_nonzero(&self.planes)
    }

    /// Lanes whose counter is at least `threshold`.
    fn ge_const(&self, threshold: u64) -> u64 {
        planes_ge(&self.planes, threshold)
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

/// One channel, resolved to flat plane indices at construction.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The producer's output port, as an index into the out-port planes.
    src_out: usize,
    /// The consumer's input port, as an index into the in-port planes.
    dst_in: usize,
    /// The channel's `max_rs` relay slots, as the relay-plane index range
    /// `rs_lo..rs_hi` (each lane owns a suffix).
    rs_lo: usize,
    rs_hi: usize,
    /// Lanes with zero relay stations (transparent wire).
    zero: u64,
}

/// One process's ports, resolved to ranges of the flat port planes.
#[derive(Debug, Clone, Copy)]
struct Shape {
    in_lo: usize,
    in_hi: usize,
    out_lo: usize,
    out_hi: usize,
}

/// Groups of the control slab, in [`LaneLidSimulator::control_words`]
/// order: relay-station main, auxiliary and stop registers (one plane per
/// relay slot), output validity (per out-port), stop registers (per
/// in-port), queue occupancies (`occ_width` counter planes per in-port)
/// and halted flags (per process).
const CONTROL_GROUPS: usize = 7;
/// The halted group of the control slab.
const HALTED: usize = 6;

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
    links: Vec<Link>,
    shapes: Vec<Shape>,
    almost_full: u64,
    /// Bit width of one queue-occupancy counter.
    occ_width: usize,
    deadlock_window: u64,

    /// Every control word of the batch, in the [`CONTROL_GROUPS`] layout.
    ctrl: LanePlaneArena,
    /// Constant per-relay-slot masks: lanes whose chain *starts* at this
    /// slot (the producer injects here) …
    rs_inject: Vec<u64>,
    /// … and lanes whose chain already covers the slot above (the slot's
    /// input is the previous slot's main register).
    rs_above: Vec<u64>,
    /// Per-cycle scratch: delivered-token validity per in-port.
    delivered: Vec<u64>,
    /// Per-cycle scratch: observed stop per out-port.
    out_stop: Vec<u64>,
    /// Firing counters per process (full 64-bit width, no flushing).
    fired: Vec<LaneCounters>,
    scripts: Vec<HaltScript>,
    /// Halted-plane changes so far; each one starts a new recurrence epoch
    /// of the period search.
    halt_flips: u64,

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
            .field("processes", &self.shapes.len())
            .field("channels", &self.links.len())
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
    /// see), the input queues have fewer than two slots, a lane's
    /// relay-station list does not match the channel count, or the lanes'
    /// stall schedules mix families.
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
        check_shell_config(&config)?;
        let mut shapes = Vec::with_capacity(builder.processes().len());
        let (mut ins, mut outs) = (0, 0);
        for p in builder.processes() {
            shapes.push(Shape {
                in_lo: ins,
                in_hi: ins + p.num_inputs(),
                out_lo: outs,
                out_hi: outs + p.num_outputs(),
            });
            ins += p.num_inputs();
            outs += p.num_outputs();
        }
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

        // Suffix-aligned relay slots: lane l of channel c occupies the last
        // `n` of the channel's `max_rs` slots.
        let mut links = Vec::with_capacity(channels.len());
        let (mut rs_inject, mut rs_above) = (Vec::new(), Vec::new());
        for (c, ch) in channels.iter().enumerate() {
            let m = lanes.iter().map(|l| l.relay_stations[c]).max().unwrap_or(0);
            let rs_lo = rs_inject.len();
            rs_inject.resize(rs_lo + m, 0);
            rs_above.resize(rs_lo + m, 0);
            let mut zero = 0u64;
            for (l, lane) in lanes.iter().enumerate() {
                let n = lane.relay_stations[c];
                let bit = 1u64 << l;
                if n == 0 {
                    zero |= bit;
                    continue;
                }
                let start = rs_lo + m - n;
                rs_inject[start] |= bit;
                for slot in &mut rs_above[start + 1..rs_lo + m] {
                    *slot |= bit;
                }
            }
            links.push(Link {
                src_out: shapes[ch.src].out_lo + ch.src_port,
                dst_in: shapes[ch.dst].in_lo + ch.dst_port,
                rs_lo,
                rs_hi: rs_lo + m,
                zero,
            });
        }

        let occ_width = bits_for(config.fifo_capacity as u64);
        let slots = rs_inject.len();
        let mut ctrl = LanePlaneArena::new([
            slots,
            slots,
            slots,
            outs,
            ins,
            ins * occ_width,
            shapes.len(),
        ]);
        let [_, _, _, valid, _, _, halted] = ctrl.groups_mut::<CONTROL_GROUPS>();
        // Every shell presents its reset output as Valid on every port.
        valid.fill(lane_mask);
        // A process halted at reset (`K_p = 0`) starts halted in every lane.
        let mut scripts = Vec::with_capacity(shapes.len());
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
            links,
            almost_full: config.fifo_capacity as u64 - 1,
            occ_width,
            deadlock_window: DEFAULT_DEADLOCK_WINDOW,
            ctrl,
            rs_inject,
            rs_above,
            delivered: vec![0; ins],
            out_stop: vec![0; outs],
            fired: (0..shapes.len()).map(|_| LaneCounters::new(64)).collect(),
            scripts,
            halt_flips: 0,
            golden,
            stall,
            fire_scratch: vec![0; shapes.len()],
            shapes,
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
            self.step_cycle();
        }
    }

    /// Runs the goal + drain lifecycle on a freshly constructed kernel and
    /// returns one result per lane, in lane order: the lane's
    /// [`LaneOutcome`] or the same [`SimError`] the scalar kernel would
    /// have produced (`MaxCyclesExceeded`, `Deadlock`).
    ///
    /// Lanes reach their goals at different cycles.  Every lane keeps
    /// stepping in lockstep (lanes never interact), and each lane's report
    /// is snapshotted the moment it finishes, so results never depend on
    /// how scenarios were packed into lanes.
    pub fn run(
        &mut self,
        goal: RunGoal,
        drain: Option<(u64, u64)>,
    ) -> Vec<Result<LaneOutcome, SimError>> {
        self.drive(goal, drain, false)
            .into_iter()
            .map(|end| {
                end.map(|end| LaneOutcome {
                    cycles_to_goal: end.cycles_to_goal,
                    report: end.report,
                })
            })
            .collect()
    }

    /// Snapshots one lane's report at the current cycle.
    fn snapshot(&self, lane: usize) -> LidReport {
        lane_report(self.clock, self.fired.iter().map(|f| f.get(lane)).collect())
    }

    /// The packed control state of the whole batch: one contiguous slab
    /// holding every relay-station plane, output-validity and
    /// stop-register plane, queue-occupancy counter plane and halted plane
    /// (see [`CONTROL_GROUPS`]), so hashing, comparing and snapshotting the
    /// state are single-slice loops.
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
    /// plane cannot predict).  The same holds per lane: a lane whose
    /// bit-slice repeats has recurred on its own.  The monotonic `fired`
    /// counters and the halt-script down-counters are deliberately
    /// excluded: their effect on the control plane is fully captured by
    /// the halted planes.
    fn control_words(&self) -> &[u64] {
        self.ctrl.planes()
    }

    /// The steady-state period oracle: runs every lane of a freshly
    /// constructed kernel until `node` has fired `target` times, like
    /// [`crate::LidSimulator::run_until_firings`], but detects the
    /// steady-state period of the *joint* control state and extrapolates
    /// each lane's goal cycle and firing counters in O(1) once the period
    /// is verified.  A single run that is not packed with others is a
    /// one-lane batch.
    ///
    /// This is the kernel's one drive loop (the one [`LaneLidSimulator::run`]
    /// uses) with the oracle's phases between its boundary checks and its
    /// step: *search* hashes the control state each cycle for a candidate
    /// period; *verify* re-simulates one candidate period while the checks
    /// go on, then compares the complete control state; a match
    /// *extrapolates* every undecided lane, a mismatch restarts the search.
    /// Lanes are independent bit-slices of the control planes, so one joint
    /// period (the least common multiple of the per-lane periods, found by
    /// hashing all planes at once) proves every lane's pattern.  Decided
    /// lanes keep stepping, because the joint state includes them.  Lanes
    /// that reach their goal before a period is verified are reported from
    /// plain simulation, bit-identical to [`LaneLidSimulator::run`] without
    /// a drain.  Batches with a stall schedule never extrapolate — the
    /// schedule hashes the absolute cycle, so the control plane alone does
    /// not determine the future — and simply simulate to their goals.
    ///
    /// Alongside the hash search, Brent's cycle detection runs on every
    /// lane at once and finds each lane's exact period `λ_l` (the proof is
    /// in the `oracle` module's docs).  A joint repeat needs a multiple of
    /// every `λ_l`, so once the epoch start plus the lcm of the periods
    /// found so far exceeds [`crate::ORACLE_DETECTION_WINDOW`], the hash
    /// search provably finds nothing and stops, and its table is dropped.
    /// An epoch ends where a halted plane changes (hashing resumes with an
    /// empty table if it had stopped) and where a candidate period fails
    /// verification.  The search stops only when it cannot succeed, so
    /// every batch detects its period at the same cycle as a search that
    /// never stops.
    ///
    /// Returns one [`OracleRun`] (or the lane's [`SimError`], exactly as
    /// plain simulation would have produced it) per lane, in lane order;
    /// a run that did not extrapolate names why in
    /// [`OracleRun::fallback`].  The budget error is exact: an extrapolated
    /// goal cycle beyond `max_cycles` is reported as
    /// [`SimError::MaxCyclesExceeded`], and a steady state whose firing
    /// gaps reach the deadlock window is finished by plain simulation so
    /// the deadlock is reported at the right cycle.  An extrapolated
    /// kernel's architectural state is frozen at the last simulated cycle
    /// — do not drain it.
    pub fn run_until_firings_extrapolated(
        &mut self,
        node: ProcessId,
        target: u64,
        max_cycles: u64,
    ) -> Vec<Result<OracleRun, SimError>> {
        let goal = RunGoal::UntilFirings {
            process: node,
            target,
            max_cycles,
        };
        self.drive(goal, None, true)
            .into_iter()
            .map(|end| {
                end.map(|end| OracleRun {
                    extrapolated: end.fallback.is_none(),
                    report: end.report,
                    simulated_cycles: end.simulated_cycles,
                    fallback: end.fallback,
                })
            })
            .collect()
    }

    /// The kernel's one drive loop: steps every lane of a fresh kernel in
    /// lockstep until each lane has ended, and returns how each ended, in
    /// lane order.
    ///
    /// Each cycle runs the boundary checks in the scalar kernel's order
    /// (goal and drain exit, then the cycle budget, then deadlock), gives
    /// the period oracle its turn, and steps once.  The oracle runs when
    /// `extrapolate` is set, the goal is a firing count and there is no
    /// drain (an extrapolated lane has no state left to drain).
    pub(crate) fn drive(
        &mut self,
        goal: RunGoal,
        drain: Option<(u64, u64)>,
        extrapolate: bool,
    ) -> Vec<Result<LaneEnd, SimError>> {
        debug_assert_eq!(self.clock, 0, "a drive expects a fresh kernel");
        let mut d = self.start_drive(goal, drain, extrapolate);
        loop {
            self.settle(&mut d);
            self.advance_oracle(&mut d);
            if d.running | d.draining() == 0 {
                break;
            }
            let fired_any = self.step_cycle();
            d.account(fired_any, &self.fire_scratch);
        }
        d.ends
            .into_iter()
            .map(|end| end.expect("every lane ends before the drive does"))
            .collect()
    }

    /// The state of a drive at cycle 0.
    fn start_drive(&self, goal: RunGoal, drain: Option<(u64, u64)>, extrapolate: bool) -> Drive {
        let (stop, budget) = match goal {
            RunGoal::UntilHalt {
                process,
                max_cycles,
            } => (Stop::Halt(process), Some(max_cycles)),
            RunGoal::UntilFirings {
                process,
                target,
                max_cycles,
            } => (
                Stop::Firings {
                    process,
                    rem: LaneCounters::with_value(target, self.lane_mask),
                },
                Some(max_cycles),
            ),
            RunGoal::ForCycles(cycles) => (Stop::Cycles(cycles), None),
        };
        let extrapolate = extrapolate && drain.is_none() && matches!(stop, Stop::Firings { .. });
        let oracle = extrapolate.then(|| {
            let detect = self.stall.is_none();
            Oracle {
                search: PeriodSearch::new(self.control_words(), self.halt_flips),
                verifying: None,
                detect,
                lane_fallback: [(!detect).then_some(OracleFallback::StallSchedule); MAX_LANES],
            }
        });
        Drive {
            stop,
            budget,
            running: self.lane_mask,
            idle: LaneCounters::new(bits_for(self.deadlock_window) + 1),
            cycles_to_goal: [0; MAX_LANES],
            drain: drain.map(Drain::new),
            oracle,
            ends: (0..self.lanes).map(|_| None).collect(),
        }
    }

    /// The boundary checks at the current cycle, in the scalar kernel's
    /// order: goal first (a lane with a drain then drains, and ends when
    /// its drain does), then the cycle budget, then deadlock.
    fn settle(&self, d: &mut Drive) {
        let reached = d.running
            & match &d.stop {
                Stop::Halt(process) => self.ctrl.get(HALTED, *process),
                Stop::Firings { rem, .. } => !rem.nonzero_mask(),
                Stop::Cycles(cycles) => {
                    if self.clock >= *cycles {
                        !0
                    } else {
                        0
                    }
                }
            };
        d.running &= !reached;
        for lane in iter_lanes(reached) {
            d.cycles_to_goal[lane] = self.clock;
        }
        let ended = match &mut d.drain {
            Some(drain) => drain.admit_and_exit(reached),
            None => reached,
        };
        for lane in iter_lanes(ended) {
            d.ends[lane] = Some(Ok(LaneEnd {
                cycles_to_goal: d.cycles_to_goal[lane],
                report: self.snapshot(lane),
                simulated_cycles: self.clock,
                fallback: d.oracle.as_ref().map(|o| o.fallback(lane, self.clock)),
            }));
        }
        if let Some(max_cycles) = d.budget {
            if d.running != 0 && self.clock >= max_cycles {
                for lane in iter_lanes(d.running) {
                    d.ends[lane] = Some(Err(SimError::MaxCyclesExceeded { max_cycles }));
                }
                d.running = 0;
            }
            let dead = d.running & d.idle.ge_const(self.deadlock_window);
            for lane in iter_lanes(dead) {
                d.ends[lane] = Some(Err(SimError::Deadlock { cycle: self.clock }));
            }
            d.running &= !dead;
        }
    }

    /// The period oracle's turn at the current cycle, after the boundary
    /// checks.  A verification that has re-simulated its whole candidate
    /// period ends: on an exact repeat of the control state every
    /// undecided lane is extrapolated and detection is done, otherwise the
    /// search restarts.  Then, while detecting inside the window, the
    /// search looks at this cycle's state and may start a verification.
    fn advance_oracle(&self, d: &mut Drive) {
        let Some(oracle) = &mut d.oracle else {
            return;
        };
        if let Some(verified) = oracle.verifying.take_if(|v| v.until == self.clock) {
            if self.control_words() == verified.expect {
                // Lanes that cannot extrapolate (their goal process never
                // fires again, or their steady-state gaps reach the
                // deadlock window) finish by plain simulation; the
                // verified period would only re-verify.
                oracle.detect = false;
                self.extrapolate_lanes(&verified, d);
                return;
            }
            oracle.search.restart_after_verification(
                self.control_words(),
                self.clock,
                self.halt_flips,
            );
        }
        if oracle.detect && oracle.verifying.is_none() && self.clock <= ORACLE_DETECTION_WINDOW {
            let candidate = oracle.search.observe(
                self.control_words(),
                self.clock,
                self.halt_flips,
                self.lane_mask,
            );
            if let Some(period) = candidate {
                oracle.verifying = Some(Verification {
                    period,
                    until: self.clock + period,
                    expect: self.control_words().to_vec(),
                    fire_masks: Vec::with_capacity(period as usize * self.shapes.len()),
                });
            }
        }
    }

    /// Extrapolates every still-running lane from a verified period's
    /// per-cycle fire masks, with exact error parity against plain
    /// simulation: the goal cycle is `clock + k·period + t + 1`, the budget
    /// errs iff that exceeds `max_cycles`, and every firing counter is the
    /// simulated count plus `k` whole periods plus the partial period up to
    /// `t`.  Lanes whose goal process never fires in the period, or whose
    /// steady-state firing gaps reach the deadlock window, keep running
    /// with that reason recorded — plain simulation then reproduces exactly
    /// the budget or deadlock error the un-extrapolated run would have hit.
    fn extrapolate_lanes(&self, verified: &Verification, d: &mut Drive) {
        let Drive {
            stop,
            budget,
            running,
            oracle,
            ends,
            ..
        } = d;
        let (Stop::Firings { process: node, rem }, Some(max_cycles), Some(oracle)) =
            (stop, *budget, oracle)
        else {
            return;
        };
        let node = *node;
        let n = self.shapes.len();
        let (period, fire_masks) = (verified.period, &verified.fire_masks);
        let cycles_per_period = period as usize;
        let mut cum_node: Vec<u64> = Vec::with_capacity(cycles_per_period);
        let mut fired_lane: Vec<bool> = Vec::with_capacity(cycles_per_period);
        for lane in iter_lanes(*running) {
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
            if delta == 0 {
                oracle.lane_fallback[lane] = Some(OracleFallback::GoalNeverFires);
                continue;
            }
            if max_cyclic_gap(&fired_lane) >= self.deadlock_window {
                oracle.lane_fallback[lane] = Some(OracleFallback::DeadlockGap);
                continue;
            }
            let (k, residue) = split_remaining(rem.get(lane), delta);
            let t = goal_offset(&cum_node, residue);
            let goal_cycle = self.clock + k * period + t as u64 + 1;
            let end = if goal_cycle > max_cycles {
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
                Ok(LaneEnd {
                    cycles_to_goal: goal_cycle,
                    report: lane_report(goal_cycle, firings),
                    simulated_cycles: self.clock,
                    fallback: None,
                })
            };
            ends[lane] = Some(end);
            *running &= !bit;
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
            for p in 0..self.shapes.len() {
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

    /// One lockstep protocol cycle over every lane; returns the lanes in
    /// which at least one process fired.
    fn step_cycle(&mut self) -> u64 {
        // The halted planes consulted below must cover firing counts up to
        // this cycle's clock.
        self.extend_horizon(self.clock + 1);

        let Self {
            lane_mask,
            links,
            shapes,
            almost_full,
            occ_width,
            ctrl,
            rs_inject,
            rs_above,
            delivered,
            out_stop,
            fired,
            scripts,
            halt_flips,
            stall,
            fire_scratch,
            clock,
            ..
        } = self;
        let [main, aux, stop, valid, stop_reg, occ, halted] = ctrl.groups_mut::<CONTROL_GROUPS>();
        let w = *occ_width;

        // Phase 1: per channel, derive the delivered-validity and observed-
        // stop planes from the registered shell/station planes, then step
        // the station slots consumer-to-producer exactly like the scalar
        // `RelayChain::update` (each slot sees its neighbours' pre-update
        // wires; the carried word is the one stop each slot drove upstream).
        for link in links.iter() {
            let produced = valid[link.src_out];
            let consumer_stop = stop_reg[link.dst_in];
            let (lo, hi, zero) = (link.rs_lo, link.rs_hi, link.zero);
            let (deliver, observed_stop) = if lo == hi {
                (produced, consumer_stop)
            } else {
                let deliver = (zero & produced) | (!zero & main[hi - 1]);
                let mut observed = zero & consumer_stop;
                for s in lo..hi {
                    observed |= rs_inject[s] & stop[s];
                }
                let mut down = consumer_stop;
                for s in (lo..hi).rev() {
                    let pre_stop = stop[s];
                    let above = if s > lo { rs_above[s] & main[s - 1] } else { 0 };
                    let upstream = (rs_inject[s] & produced) | above;
                    let next = relay_station_control(
                        main[s],
                        aux[s],
                        pre_stop,
                        !pre_stop & upstream,
                        down,
                    );
                    main[s] = next.main;
                    aux[s] = next.aux;
                    stop[s] = next.stop;
                    down = pre_stop;
                }
                (deliver, observed)
            };
            delivered[link.dst_in] = deliver;
            out_stop[link.src_out] = observed_stop;
        }

        // Phase 2: shells, in the scalar `Shell::update` order — accept,
        // release, fire, stop refresh.
        let mut fired_any = 0u64;
        for (p, shape) in shapes.iter().enumerate() {
            let ins = shape.in_lo..shape.in_hi;
            let outs = shape.out_lo..shape.out_hi;
            let occ = &mut occ[shape.in_lo * w..shape.in_hi * w];
            for (i, slot) in ins.clone().zip(occ.chunks_exact_mut(w)) {
                planes_add(slot, delivered[i] & !stop_reg[i]);
            }
            let mut outputs_clear = !0u64;
            for j in outs.clone() {
                let held = shell_release_control(valid[j], out_stop[j]);
                valid[j] = held;
                outputs_clear &= !held;
            }
            let inputs_ready = occ
                .chunks_exact(w)
                .fold(!0u64, |ready, slot| ready & planes_nonzero(slot));
            let gated = match stall {
                Some(plan) => plan.mask(p, *clock),
                None => 0,
            };
            let eligible = *lane_mask & !halted[p] & !gated;
            let fire = shell_fire_control(eligible, outputs_clear, inputs_ready);
            if fire != 0 {
                for slot in occ.chunks_exact_mut(w) {
                    planes_sub(slot, fire);
                }
                for plane in &mut valid[outs] {
                    *plane |= fire;
                }
                fired[p].add_mask(fire);
                if let HaltScript::Counting(rem) = &mut scripts[p] {
                    rem.sub_mask(fire);
                    let now = halted[p] | (!rem.nonzero_mask() & *lane_mask);
                    if now != halted[p] {
                        halted[p] = now;
                        *halt_flips += 1;
                    }
                    if now == *lane_mask {
                        scripts[p] = HaltScript::Done;
                    }
                }
            }
            fire_scratch[p] = fire;
            fired_any |= fire;
            for (i, slot) in ins.zip(occ.chunks_exact(w)) {
                stop_reg[i] = planes_ge(slot, *almost_full);
            }
        }

        *clock += 1;
        fired_any
    }
}

/// How one lane of a drive ended (see [`LaneLidSimulator::drive`]).
#[derive(Debug)]
pub(crate) struct LaneEnd {
    /// The cycle at which the lane met its goal, simulated or extrapolated
    /// (drain cycles excluded here, included in `report.cycles`).
    pub(crate) cycles_to_goal: u64,
    /// The lane's report at the end of its run and drain.
    pub(crate) report: LidReport,
    /// Cycles simulated when the lane ended.
    pub(crate) simulated_cycles: u64,
    /// Why an extrapolating drive simulated the lane to its goal: `None`
    /// for an extrapolated lane, and for every lane of a plain drive.
    pub(crate) fallback: Option<OracleFallback>,
}

/// The per-lane state of one drive.
struct Drive {
    stop: Stop,
    /// The cycle budget before [`SimError::MaxCyclesExceeded`]; a cycle
    /// goal has none, and no deadlock check either (as the scalar
    /// `run_for`).
    budget: Option<u64>,
    /// Lanes still heading for their goal.
    running: u64,
    /// Consecutive firing-free cycles per lane (read for running lanes).
    idle: LaneCounters,
    /// The cycle each lane met its goal.
    cycles_to_goal: [u64; MAX_LANES],
    drain: Option<Drain>,
    oracle: Option<Oracle>,
    /// How each lane ended, once it has.
    ends: Vec<Option<Result<LaneEnd, SimError>>>,
}

impl Drive {
    /// Lanes past their goal and still draining.
    fn draining(&self) -> u64 {
        self.drain.as_ref().map_or(0, |drain| drain.lanes)
    }

    /// The per-lane accounting of one stepped cycle, as the scalar kernel
    /// keeps it: `cycles_since_firing` resets on any firing in the lane,
    /// the drain counts its own idle window and extra cycles, and a firing
    /// goal counts down the goal process's firings.
    fn account(&mut self, fired_any: u64, fire: &[u64]) {
        self.idle.clear_lanes(fired_any);
        self.idle.add_mask(self.running & !fired_any);
        if let Some(drain) = &mut self.drain {
            drain.account(fired_any);
        }
        if let Stop::Firings { process, rem } = &mut self.stop {
            rem.sub_mask(fire[*process] & self.running);
        }
        if let Some(verifying) = self.oracle.as_mut().and_then(|o| o.verifying.as_mut()) {
            verifying.fire_masks.extend_from_slice(fire);
        }
    }
}

/// What ends a lane's run.
enum Stop {
    /// The process's halted plane.
    Halt(ProcessId),
    /// The process's firing count: `rem` counts each lane's firings still
    /// to go.
    Firings {
        process: ProcessId,
        rem: LaneCounters,
    },
    /// The clock.
    Cycles(u64),
}

/// The post-goal drain of a plain drive, as the scalar
/// [`crate::LidSimulator::drain`] runs it: a lane past its goal keeps
/// stepping until `idle_cycles` consecutive cycles pass without a firing,
/// or `max_extra` extra cycles have passed.
struct Drain {
    idle_cycles: u64,
    max_extra: u64,
    /// Lanes past their goal and still draining.
    lanes: u64,
    idle: LaneCounters,
    extra: LaneCounters,
}

impl Drain {
    fn new((idle_cycles, max_extra): (u64, u64)) -> Self {
        Self {
            idle_cycles,
            max_extra,
            lanes: 0,
            idle: LaneCounters::new(bits_for(idle_cycles) + 1),
            extra: LaneCounters::new(bits_for(max_extra) + 1),
        }
    }

    /// Starts draining the lanes in `reached` and returns the lanes whose
    /// drain ends now.  The scalar loop `while idle < idle_cycles && extra
    /// < max_extra` checks before each extra step, so lanes that just
    /// entered (idle = extra = 0) exit at once when a bound is zero.
    fn admit_and_exit(&mut self, reached: u64) -> u64 {
        self.lanes |= reached;
        self.idle.clear_lanes(reached);
        self.extra.clear_lanes(reached);
        let exit = self.lanes
            & (self.idle.ge_const(self.idle_cycles) | self.extra.ge_const(self.max_extra));
        self.lanes &= !exit;
        exit
    }

    fn account(&mut self, fired_any: u64) {
        self.extra.add_mask(self.lanes);
        self.idle.clear_lanes(self.lanes & fired_any);
        self.idle.add_mask(self.lanes & !fired_any);
    }
}

/// The steady-state period oracle of an extrapolating drive.
struct Oracle {
    search: PeriodSearch,
    /// The candidate period being re-simulated, if any.
    verifying: Option<Verification>,
    /// Whether the search still looks for candidates: not under a stall
    /// schedule, and not once a period was verified.
    detect: bool,
    /// A lane's own reason not to extrapolate, where the search state does
    /// not give it.
    lane_fallback: [Option<OracleFallback>; MAX_LANES],
}

impl Oracle {
    /// Why a lane whose goal is met at `clock` by simulation was not
    /// extrapolated.
    fn fallback(&self, lane: usize, clock: u64) -> OracleFallback {
        if self.verifying.is_some() {
            OracleFallback::GoalBeforePeriod
        } else {
            self.lane_fallback[lane].unwrap_or_else(|| self.search.fallback(clock))
        }
    }
}

/// A candidate joint period under verification: one full period is
/// re-simulated and the complete control state compared against the
/// snapshot taken at its start (defeating hash collisions).
struct Verification {
    period: u64,
    /// The cycle at which the whole period has been re-simulated.
    until: u64,
    /// The control state at the candidate's start.
    expect: Vec<u64>,
    /// `fire_masks[t * n + p]`: the lanes that fired process `p` in
    /// in-period cycle `t`.
    fire_masks: Vec<u64>,
}

/// The joint-period search of
/// [`LaneLidSimulator::run_until_firings_extrapolated`]: a table of control
/// hashes that finds the joint period, and Brent's cycle detection on every
/// lane at once, which proves when that table cannot succeed inside the
/// detection window.
struct PeriodSearch {
    /// Control hash → clock it was first seen at; `None` while the
    /// recurrences prove the search futile.
    seen: Option<HashMap<u64, u64>>,
    /// The cycle at which the search was last proven futile.
    proven_at: Option<u64>,
    /// First cycle of the current recurrence epoch.
    epoch: u64,
    /// The kernel's halt-flip count at the epoch start.
    flips: u64,
    /// Brent's fixed point: the control words at `snap_clock`, re-taken
    /// `1, 2, 4, …` cycles into the epoch.
    snap: Vec<u64>,
    snap_clock: u64,
    /// Cycles from `snap_clock` to the next snapshot.
    power: u64,
    /// Lanes whose exact period in this epoch is known …
    found: u64,
    /// … and the lcm of those periods, saturating.
    lcm: u64,
}

impl PeriodSearch {
    /// A search whose first epoch starts at cycle 0 in state `words`.
    fn new(words: &[u64], flips: u64) -> Self {
        Self {
            seen: Some(HashMap::new()),
            proven_at: None,
            epoch: 0,
            flips,
            snap: words.to_vec(),
            snap_clock: 0,
            power: 1,
            found: 0,
            lcm: 1,
        }
    }

    /// Starts a new recurrence epoch at `clock` in state `words`.
    fn restart(&mut self, words: &[u64], clock: u64, flips: u64) {
        self.epoch = clock;
        self.flips = flips;
        self.snap.copy_from_slice(words);
        self.snap_clock = clock;
        self.power = 1;
        self.found = 0;
        self.lcm = 1;
    }

    /// A candidate period failed verification: the hash table restarts
    /// empty, and so does the epoch, because verification stepped the
    /// clock without recurrence checks (a missed snapshot could report a
    /// multiple of a lane's period).
    fn restart_after_verification(&mut self, words: &[u64], clock: u64, flips: u64) {
        if let Some(seen) = &mut self.seen {
            seen.clear();
        }
        self.restart(words, clock, flips);
    }

    /// Examines the control state `words` at `clock`: returns the candidate
    /// joint period when the hash table has seen this state before.
    ///
    /// Halted planes only ever gain bits, so no state after a halt flip
    /// equals one before it: a flip starts a new epoch, and a search that
    /// was proven futile resumes with an empty table.  Within an epoch,
    /// lane `l`'s bit-slice evolves autonomously, and a lane whose slice
    /// equals the snapshot has recurred exactly with period
    /// `λ_l = clock − snap_clock`.  A joint repeat `(c′, c)` inside the
    /// epoch needs every lane's period to divide `c − c′`, so
    /// `c ≥ epoch + lcm(λ_l)`; the lcm of the periods found so far divides
    /// the full one, so once `epoch + lcm` exceeds the detection window the
    /// table can never hit again this epoch.
    fn observe(&mut self, words: &[u64], clock: u64, flips: u64, lane_mask: u64) -> Option<u64> {
        if flips != self.flips {
            self.restart(words, clock, flips);
            if self.seen.is_none() {
                self.seen = Some(HashMap::new());
                self.proven_at = None;
            }
        } else if self.seen.is_some() && self.found != lane_mask && clock > self.snap_clock {
            self.recur(words, clock, lane_mask);
        }
        let seen = self.seen.as_mut()?;
        match seen.entry(control_hash(words)) {
            Entry::Occupied(entry) => Some(clock - *entry.get()),
            Entry::Vacant(entry) => {
                entry.insert(clock);
                None
            }
        }
    }

    /// One step of Brent's cycle detection on every lane at once.
    fn recur(&mut self, words: &[u64], clock: u64, lane_mask: u64) {
        let diff = words
            .iter()
            .zip(&self.snap)
            .fold(0, |acc, (now, then)| acc | (now ^ then));
        let recurred = lane_mask & !diff & !self.found;
        if recurred != 0 {
            self.found |= recurred;
            self.lcm = lcm_saturating(self.lcm, clock - self.snap_clock);
            if self.epoch.saturating_add(self.lcm) > ORACLE_DETECTION_WINDOW {
                self.seen = None;
                self.proven_at = Some(clock);
                return;
            }
        }
        if clock - self.snap_clock == self.power {
            self.snap.copy_from_slice(words);
            self.snap_clock = clock;
            self.power *= 2;
        }
    }

    /// Why a lane whose goal is reached at `clock` was not extrapolated,
    /// as far as the search state tells.
    fn fallback(&self, clock: u64) -> OracleFallback {
        match self.proven_at {
            Some(proven_at) => OracleFallback::PeriodBeyondWindow { proven_at },
            None if clock > ORACLE_DETECTION_WINDOW => OracleFallback::WindowExhausted,
            None => OracleFallback::GoalBeforePeriod,
        }
    }
}

/// Hashes a packed control state.  Every candidate period is verified on
/// the complete state, so the hash only has to be fast: one
/// multiply-rotate per word, each step a bijection of the running hash and
/// of the word.
fn control_hash(words: &[u64]) -> u64 {
    words.iter().fold(0, |hash, &word| {
        (hash ^ word)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(27)
    })
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

/// Materialises one lane's [`LidReport`] from its cycles and per-process
/// firings, field by field as the scalar [`crate::LidSimulator::report`]
/// computes it (strict shells never discard, so that column is all zeros).
fn lane_report(cycles: u64, firings: Vec<u64>) -> LidReport {
    let total_firings = firings.iter().sum();
    let throughput = firings
        .iter()
        .map(|&f| {
            if cycles == 0 {
                0.0
            } else {
                f as f64 / cycles as f64
            }
        })
        .collect();
    let discarded = vec![0; firings.len()];
    LidReport {
        cycles,
        firings,
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
        let build = halting_pipeline;
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
        let mut batches = vec![(3usize, vec![0usize, 1, 2, 4, 7, 0, 3, 5], 50_000u64)];
        batches.extend([(1, 0), (1, 4), (2, 1), (3, 2), (5, 3)].map(|(m, n)| (m, vec![n], 5_000)));
        for (stages, rs_budgets, target) in batches {
            let budgets: Vec<Vec<usize>> = rs_budgets
                .iter()
                .map(|&rs| {
                    let mut relay_stations = vec![0; stages];
                    relay_stations[0] = rs;
                    relay_stations
                })
                .collect();
            let runs = oracle_batch_matching_plain(&|| ring(stages, 0), &budgets, 0, target);
            assert_eq!(runs.len(), rs_budgets.len());
            for (l, (run, &rs)) in runs.iter().zip(&rs_budgets).enumerate() {
                let at = format!("m={stages} n={rs} lane {l}");
                let run = run.as_ref().expect("ring lanes complete");
                assert!(run.extrapolated, "{at} should have extrapolated");
                assert_eq!(run.fallback, None, "{at}");
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
            assert_eq!(run.fallback, Some(OracleFallback::StallSchedule));
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

    /// Relay budgets for a two-stage ring whose lane periods `2 + n` are
    /// 5, 7, 8, 9, 11 and 13: their lcm, 360 360, is beyond the detection
    /// window, so no joint period exists inside it.
    const FUTILE_BUDGETS: [usize; 6] = [3, 5, 6, 7, 9, 11];

    /// Tokens of the source in [`two_rings`]: it halts at cycle 200, after
    /// the recurrences have proven the joint search futile.
    const SOURCE_TOKENS: u64 = 200;

    /// Two independent two-stage rings, `a` (processes 0, 1) and `b`
    /// (processes 2, 3; channel 2 carries the lanes' budgets), plus, with
    /// `halting`, a source of [`SOURCE_TOKENS`] tokens feeding a sink
    /// (processes 4, 5).  The source fires every cycle in every lane, so
    /// its halted plane flips in all lanes at once.
    fn two_rings(halting: bool) -> SystemBuilder<u64> {
        let mut b = SystemBuilder::new();
        let a0 = b.add_process(Box::new(RingStage::new("a0")));
        let a1 = b.add_process(Box::new(RingStage::new("a1")));
        let b0 = b.add_process(Box::new(RingStage::new("b0")));
        let b1 = b.add_process(Box::new(RingStage::new("b1")));
        b.connect("a01", a0, 0, a1, 0, 0);
        b.connect("a10", a1, 0, a0, 0, 0);
        b.connect("b01", b0, 0, b1, 0, 0);
        b.connect("b10", b1, 0, b0, 0, 0);
        if halting {
            let tokens = (1..=SOURCE_TOKENS).collect();
            let src = b.add_process(Box::new(wp_core::SequenceSource::new("src", tokens, 0)));
            let sink = b.add_process(Box::new(crate::testutil::Terminator::new("sink")));
            b.connect("src_sink", src, 0, sink, 0, 0);
        }
        b
    }

    /// Ring `a` keeps one relay station in every lane; ring `b` carries
    /// the futile budgets.
    fn two_ring_budgets(halting: bool) -> Vec<Vec<usize>> {
        FUTILE_BUDGETS
            .iter()
            .map(|&n| {
                let mut rs = vec![1, 0, n, 0];
                rs.extend(halting.then_some(0));
                rs
            })
            .collect()
    }

    /// A nine-token source feeding a forwarder and a sink.
    fn halting_pipeline() -> SystemBuilder<u64> {
        use crate::testutil::{Forward, Terminator};
        use wp_core::SequenceSource;
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
    }

    /// Runs `build()` as one oracle batch with the given per-lane relay
    /// budgets, and checks every lane against a plain scalar run of the
    /// same scenario: the same report, or the same error.
    fn oracle_batch_matching_plain(
        build: &dyn Fn() -> SystemBuilder<u64>,
        budgets: &[Vec<usize>],
        node: ProcessId,
        target: u64,
    ) -> Vec<Result<OracleRun, SimError>> {
        let max_cycles = 1_000_000;
        let lanes: Vec<LaneScenario> = budgets
            .iter()
            .map(|rs| LaneScenario {
                relay_stations: rs.clone(),
                stall: None,
            })
            .collect();
        let mut kernel = LaneLidSimulator::new(build(), &lanes, ShellConfig::strict()).unwrap();
        let runs = kernel.run_until_firings_extrapolated(node, target, max_cycles);
        for (l, (run, rs)) in runs.iter().zip(budgets).enumerate() {
            let mut builder = build();
            for (c, &n) in rs.iter().enumerate() {
                builder.set_relay_stations(c, n);
            }
            let mut scalar = LidSimulator::new(builder, ShellConfig::strict()).unwrap();
            scalar.set_trace_enabled(false);
            let plain = scalar
                .run_until_firings(node, target, max_cycles)
                .map(|_| scalar.report());
            match (run, plain) {
                (Ok(run), Ok(report)) => assert_eq!(run.report, report, "lane {l} of {rs:?}"),
                (Err(e), Err(p)) => assert_eq!(e.to_string(), p.to_string(), "lane {l}"),
                (run, plain) => panic!("lane {l}: oracle {run:?} vs plain {plain:?}"),
            }
        }
        runs
    }

    /// Per-lane routes of a fixed set of oracle batches (rings that
    /// extrapolate, rings whose joint period is beyond the window, lanes
    /// that meet their goal while a candidate period is verified, halting
    /// pipelines, and a ring that freezes after a halt): the goal cycle,
    /// simulated cycles, extrapolation and fallback reason of every lane.
    #[test]
    fn oracle_routes_match_the_recorded_routes() {
        /// Name, builder, per-lane relay budgets, goal process, target.
        type Batch = (
            String,
            Box<dyn Fn() -> SystemBuilder<u64>>,
            Vec<Vec<usize>>,
            ProcessId,
            u64,
        );
        let mut batches: Vec<Batch> = vec![
            (
                "ring3 mixed".into(),
                Box::new(|| ring(3, 0)),
                [0usize, 1, 2, 4, 7, 0, 3, 5]
                    .map(|n| vec![n, 0, 0])
                    .to_vec(),
                0,
                50_000,
            ),
            (
                "ring2 futile".into(),
                Box::new(|| ring(2, 0)),
                FUTILE_BUDGETS.map(|n| vec![n, 0]).to_vec(),
                0,
                2_000,
            ),
            (
                "two rings".into(),
                Box::new(|| two_rings(false)),
                two_ring_budgets(false),
                0,
                50_000,
            ),
            (
                "two rings and a halting source".into(),
                Box::new(|| two_rings(true)),
                two_ring_budgets(true),
                0,
                50_000,
            ),
        ];
        // Lanes 0 and 5 reach the goal before the joint candidate, lanes 1,
        // 2 and 6 while it is being verified, and the rest extrapolate.
        batches.push((
            "ring3 mixed to 800".into(),
            Box::new(|| ring(3, 0)),
            [0usize, 1, 2, 4, 7, 0, 3, 5]
                .map(|n| vec![n, 0, 0])
                .to_vec(),
            0,
            800,
        ));
        // Lane periods 5, 7, 9, 13 and 16: the joint period, 65 520, is a
        // candidate just inside the window, and the last lane meets its
        // goal while that candidate is verified beyond the window.
        batches.push((
            "ring2 lcm 65520".into(),
            Box::new(|| ring(2, 0)),
            [3usize, 5, 7, 11, 14].map(|n| vec![n, 0]).to_vec(),
            0,
            10_000,
        ));
        for (m, n) in [(1usize, 0usize), (1, 4), (2, 1), (3, 2), (5, 3)] {
            let mut rs = vec![0; m];
            rs[0] = n;
            batches.push((
                format!("ring{m} n={n}"),
                Box::new(move || ring(m, 0)),
                vec![rs],
                0,
                5_000,
            ));
        }
        // The goal is the source, which halts after its ninth firing (the
        // oracle's halt caveat: no other process halts).
        for target in [5, 9] {
            batches.push((
                format!("pipeline to {target}"),
                Box::new(halting_pipeline),
                vec![vec![0, 0], vec![2, 1], vec![5, 0], vec![0, 4]],
                0,
                target,
            ));
        }
        let mut routes = Vec::new();
        for (name, build, budgets, node, target) in &batches {
            let runs = oracle_batch_matching_plain(build, budgets, *node, *target);
            for (l, run) in runs.iter().enumerate() {
                routes.push(match run {
                    Ok(run) => format!(
                        "{name} lane {l}: {} cycles, simulated {}, extrapolated {}, fallback {:?}",
                        run.report.cycles, run.simulated_cycles, run.extrapolated, run.fallback
                    ),
                    Err(e) => format!("{name} lane {l}: {e}"),
                });
            }
        }
        assert_eq!(routes, RECORDED_ROUTES);
    }

    /// The routes of [`oracle_routes_match_the_recorded_routes`].  The
    /// cycles and extrapolation flags were first recorded with a search
    /// that hashed every cycle of the detection window; the fallback
    /// reasons and the two batches verified mid-goal were recorded with the
    /// separate search, verification and plain loops this kernel's one
    /// drive loop replaced.
    const RECORDED_ROUTES: [&str; 52] = [
        "ring3 mixed lane 0: 50000 cycles, simulated 1680, extrapolated true, fallback None",
        "ring3 mixed lane 1: 66666 cycles, simulated 1680, extrapolated true, fallback None",
        "ring3 mixed lane 2: 83332 cycles, simulated 1680, extrapolated true, fallback None",
        "ring3 mixed lane 3: 116664 cycles, simulated 1680, extrapolated true, fallback None",
        "ring3 mixed lane 4: 166662 cycles, simulated 1680, extrapolated true, fallback None",
        "ring3 mixed lane 5: 50000 cycles, simulated 1680, extrapolated true, fallback None",
        "ring3 mixed lane 6: 99998 cycles, simulated 1680, extrapolated true, fallback None",
        "ring3 mixed lane 7: 133330 cycles, simulated 1680, extrapolated true, fallback None",
        "ring2 futile lane 0: 5000 cycles, simulated 5000, extrapolated false, fallback Some(PeriodBeyondWindow { proven_at: 28 })",
        "ring2 futile lane 1: 7000 cycles, simulated 7000, extrapolated false, fallback Some(PeriodBeyondWindow { proven_at: 28 })",
        "ring2 futile lane 2: 8000 cycles, simulated 8000, extrapolated false, fallback Some(PeriodBeyondWindow { proven_at: 28 })",
        "ring2 futile lane 3: 9000 cycles, simulated 9000, extrapolated false, fallback Some(PeriodBeyondWindow { proven_at: 28 })",
        "ring2 futile lane 4: 11000 cycles, simulated 11000, extrapolated false, fallback Some(PeriodBeyondWindow { proven_at: 28 })",
        "ring2 futile lane 5: 13000 cycles, simulated 13000, extrapolated false, fallback Some(PeriodBeyondWindow { proven_at: 28 })",
        "two rings lane 0: 75000 cycles, simulated 75000, extrapolated false, fallback Some(PeriodBeyondWindow { proven_at: 102 })",
        "two rings lane 1: 75000 cycles, simulated 75000, extrapolated false, fallback Some(PeriodBeyondWindow { proven_at: 102 })",
        "two rings lane 2: 75000 cycles, simulated 75000, extrapolated false, fallback Some(PeriodBeyondWindow { proven_at: 102 })",
        "two rings lane 3: 75000 cycles, simulated 75000, extrapolated false, fallback Some(PeriodBeyondWindow { proven_at: 102 })",
        "two rings lane 4: 75000 cycles, simulated 75000, extrapolated false, fallback Some(PeriodBeyondWindow { proven_at: 102 })",
        "two rings lane 5: 75000 cycles, simulated 75000, extrapolated false, fallback Some(PeriodBeyondWindow { proven_at: 102 })",
        "two rings and a halting source lane 0: 75000 cycles, simulated 75000, extrapolated false, fallback Some(PeriodBeyondWindow { proven_at: 302 })",
        "two rings and a halting source lane 1: 75000 cycles, simulated 75000, extrapolated false, fallback Some(PeriodBeyondWindow { proven_at: 302 })",
        "two rings and a halting source lane 2: 75000 cycles, simulated 75000, extrapolated false, fallback Some(PeriodBeyondWindow { proven_at: 302 })",
        "two rings and a halting source lane 3: 75000 cycles, simulated 75000, extrapolated false, fallback Some(PeriodBeyondWindow { proven_at: 302 })",
        "two rings and a halting source lane 4: 75000 cycles, simulated 75000, extrapolated false, fallback Some(PeriodBeyondWindow { proven_at: 302 })",
        "two rings and a halting source lane 5: 75000 cycles, simulated 75000, extrapolated false, fallback Some(PeriodBeyondWindow { proven_at: 302 })",
        "ring3 mixed to 800 lane 0: 800 cycles, simulated 800, extrapolated false, fallback Some(GoalBeforePeriod)",
        "ring3 mixed to 800 lane 1: 1066 cycles, simulated 1066, extrapolated false, fallback Some(GoalBeforePeriod)",
        "ring3 mixed to 800 lane 2: 1332 cycles, simulated 1332, extrapolated false, fallback Some(GoalBeforePeriod)",
        "ring3 mixed to 800 lane 3: 1864 cycles, simulated 1680, extrapolated true, fallback None",
        "ring3 mixed to 800 lane 4: 2662 cycles, simulated 1680, extrapolated true, fallback None",
        "ring3 mixed to 800 lane 5: 800 cycles, simulated 800, extrapolated false, fallback Some(GoalBeforePeriod)",
        "ring3 mixed to 800 lane 6: 1598 cycles, simulated 1598, extrapolated false, fallback Some(GoalBeforePeriod)",
        "ring3 mixed to 800 lane 7: 2130 cycles, simulated 1680, extrapolated true, fallback None",
        "ring2 lcm 65520 lane 0: 25000 cycles, simulated 25000, extrapolated false, fallback Some(GoalBeforePeriod)",
        "ring2 lcm 65520 lane 1: 35000 cycles, simulated 35000, extrapolated false, fallback Some(GoalBeforePeriod)",
        "ring2 lcm 65520 lane 2: 45000 cycles, simulated 45000, extrapolated false, fallback Some(GoalBeforePeriod)",
        "ring2 lcm 65520 lane 3: 65000 cycles, simulated 65000, extrapolated false, fallback Some(GoalBeforePeriod)",
        "ring2 lcm 65520 lane 4: 80000 cycles, simulated 80000, extrapolated false, fallback Some(GoalBeforePeriod)",
        "ring1 n=0 lane 0: 5000 cycles, simulated 2, extrapolated true, fallback None",
        "ring1 n=4 lane 0: 25000 cycles, simulated 10, extrapolated true, fallback None",
        "ring2 n=1 lane 0: 7500 cycles, simulated 6, extrapolated true, fallback None",
        "ring3 n=2 lane 0: 8332 cycles, simulated 10, extrapolated true, fallback None",
        "ring5 n=3 lane 0: 8000 cycles, simulated 16, extrapolated true, fallback None",
        "pipeline to 5 lane 0: 5 cycles, simulated 5, extrapolated false, fallback Some(GoalBeforePeriod)",
        "pipeline to 5 lane 1: 5 cycles, simulated 5, extrapolated false, fallback Some(GoalBeforePeriod)",
        "pipeline to 5 lane 2: 5 cycles, simulated 5, extrapolated false, fallback Some(GoalBeforePeriod)",
        "pipeline to 5 lane 3: 5 cycles, simulated 5, extrapolated false, fallback Some(GoalBeforePeriod)",
        "pipeline to 9 lane 0: 9 cycles, simulated 8, extrapolated true, fallback None",
        "pipeline to 9 lane 1: 9 cycles, simulated 8, extrapolated true, fallback None",
        "pipeline to 9 lane 2: 9 cycles, simulated 8, extrapolated true, fallback None",
        "pipeline to 9 lane 3: 9 cycles, simulated 8, extrapolated true, fallback None",
    ];

    /// A cycle budget that runs out while a candidate period is being
    /// verified (cycles 840–1680 of `ring3 mixed to 800`) errs every lane
    /// still running, exactly as their plain runs do; the lanes that met
    /// their goal before keep their plain reports.
    #[test]
    fn a_budget_spent_mid_verification_errs_like_plain_runs() {
        let (target, max_cycles) = (800, 1_500);
        let rs_budgets = [0usize, 1, 2, 4, 7, 0, 3, 5];
        let lanes: Vec<LaneScenario> = rs_budgets
            .iter()
            .map(|&n| LaneScenario {
                relay_stations: vec![n, 0, 0],
                stall: None,
            })
            .collect();
        let mut kernel = LaneLidSimulator::new(ring(3, 0), &lanes, ShellConfig::strict()).unwrap();
        let runs = kernel.run_until_firings_extrapolated(0, target, max_cycles);
        let mut errs = 0;
        for (l, (run, &n)) in runs.iter().zip(&rs_budgets).enumerate() {
            let mut scalar = LidSimulator::new(ring(3, n), ShellConfig::strict()).unwrap();
            scalar.set_trace_enabled(false);
            match (run, scalar.run_until_firings(0, target, max_cycles)) {
                (Ok(run), Ok(_)) => {
                    assert_eq!(run.report, scalar.report(), "lane {l}");
                    assert_eq!(run.fallback, Some(OracleFallback::GoalBeforePeriod));
                }
                (Err(e), Err(p)) => {
                    assert_eq!(e.to_string(), p.to_string(), "lane {l}");
                    errs += 1;
                }
                (run, plain) => panic!("lane {l}: oracle {run:?} vs plain {plain:?}"),
            }
        }
        assert_eq!(errs, 4, "lanes 3, 4, 6 and 7 run out of budget");
    }

    /// A lane's exact period by brute force: the first repeat of its
    /// one-lane control state.
    fn brute_force_period(build: SystemBuilder<u64>, relay_stations: Vec<usize>) -> u64 {
        let lanes = [LaneScenario {
            relay_stations,
            stall: None,
        }];
        let mut kernel = LaneLidSimulator::new(build, &lanes, ShellConfig::strict()).unwrap();
        let mut seen = HashMap::new();
        loop {
            if let Some(first) = seen.insert(kernel.control_words().to_vec(), kernel.cycles()) {
                return kernel.cycles() - first;
            }
            kernel.run_for(1);
        }
    }

    /// A heterogeneous batch whose joint period — the lcm of its lane
    /// periods — is beyond the detection window: the per-lane recurrences
    /// prove the joint search futile within a few lane periods, and every
    /// lane still equals its plain run.
    #[test]
    fn futile_joint_search_is_proven_early_and_changes_no_result() {
        let budgets: Vec<Vec<usize>> = FUTILE_BUDGETS.iter().map(|&n| vec![n, 0]).collect();
        let periods: Vec<u64> = budgets
            .iter()
            .map(|rs| brute_force_period(ring(2, 0), rs.clone()))
            .collect();
        assert_eq!(periods, [5, 7, 8, 9, 11, 13]);
        let joint = periods.iter().fold(1, |l, &p| lcm_saturating(l, p));
        assert!(joint > ORACLE_DETECTION_WINDOW, "joint period {joint}");
        let bound = 4 * periods.iter().max().unwrap();
        let runs = oracle_batch_matching_plain(&|| ring(2, 0), &budgets, 0, 2_000);
        for (l, run) in runs.iter().enumerate() {
            let run = run.as_ref().expect("ring lanes complete");
            assert!(!run.extrapolated, "lane {l}");
            assert_eq!(run.simulated_cycles, run.report.cycles, "lane {l}");
            match run.fallback {
                Some(OracleFallback::PeriodBeyondWindow { proven_at }) => {
                    assert!(proven_at <= bound, "lane {l}: proven at {proven_at}")
                }
                other => panic!("lane {l}: {other:?}"),
            }
        }
    }

    /// A halted plane that flips after the futility proof starts a new
    /// epoch: the search resumes with an empty table and is proven futile
    /// again only after the flip, and every lane still equals its plain
    /// run.
    #[test]
    fn a_halt_after_the_futility_proof_resumes_the_search() {
        let proofs = |halting| -> Vec<u64> {
            let budgets = two_ring_budgets(halting);
            oracle_batch_matching_plain(&|| two_rings(halting), &budgets, 0, 50_000)
                .iter()
                .map(
                    |run| match run.as_ref().expect("ring lanes complete").fallback {
                        Some(OracleFallback::PeriodBeyondWindow { proven_at }) => proven_at,
                        other => panic!("{other:?}"),
                    },
                )
                .collect()
        };
        // The source fires every cycle, so its halted plane flips at cycle
        // SOURCE_TOKENS in every lane.
        let without_halt = proofs(false);
        assert!(
            without_halt.iter().all(|&at| at < SOURCE_TOKENS),
            "{without_halt:?}"
        );
        let with_halt = proofs(true);
        assert!(
            with_halt.iter().all(|&at| at > SOURCE_TOKENS),
            "{with_halt:?}"
        );
    }

    /// A goal met while the search still runs, or after it, names why.
    #[test]
    fn plain_routes_name_their_reason() {
        let budgets = [vec![0, 0], vec![2, 1]];
        for run in oracle_batch_matching_plain(&halting_pipeline, &budgets, 0, 5) {
            assert_eq!(
                run.unwrap().fallback,
                Some(OracleFallback::GoalBeforePeriod)
            );
        }
        let search = PeriodSearch::new(&[0], 0);
        assert_eq!(
            search.fallback(ORACLE_DETECTION_WINDOW),
            OracleFallback::GoalBeforePeriod
        );
        assert_eq!(
            search.fallback(ORACLE_DETECTION_WINDOW + 1),
            OracleFallback::WindowExhausted
        );
    }
}

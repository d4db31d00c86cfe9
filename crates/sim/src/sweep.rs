//! Multi-scenario sweeps over the wire-pipelined simulator.
//!
//! Every experiment of the paper is a *sweep*: the same system factory
//! evaluated under many `(ShellConfig × relay-station assignment ×
//! program)` combinations.  [`SweepRunner`] runs such scenarios across
//! `std::thread` workers — each scenario builds its own [`LidSimulator`]
//! inside a worker, so no simulator state is ever shared — and collects one
//! [`LidReport`] (plus an optional caller-defined post-run extraction) per
//! scenario.
//!
//! # The work-stealing, batching scheduler
//!
//! Scenario wall-clock costs are heavy-tailed (a full-SoC matmul run next
//! to a ten-cycle ring), so a static per-worker partition leaves workers
//! idle.  The runner instead gives every worker its own deque of scenario
//! indices, seeded with a contiguous span of the submission order:
//!
//! * a worker **leases** one index at a time from the *front* of its own
//!   deque (an uncontended lock, negligible next to even the cheapest
//!   simulation) — everything not currently executing therefore stays in a
//!   deque, visible to thieves, so a long-running scenario can never hide
//!   queued work behind it;
//! * a worker whose deque is empty **steals** a batch of up to
//!   [`SweepRunner::with_batch`] indices (at most half of the victim's
//!   remainder, rounded down — except that a lone remaining index may be
//!   stolen whole) from the *back* of a victim's deque into its own, scanning
//!   the other workers round-robin — transferring many small scenarios per
//!   steal amortises the only contended synchronisation in the scheduler;
//! * every index is leased for execution exactly once, and a worker only
//!   exits once its own deque is empty and there is nothing left to steal.
//!
//! The scheduler changes only *which worker* executes a scenario and *when*:
//! results are written to per-scenario slots, so their order always matches
//! the submission order and is independent of both the worker count and the
//! batch size; the `results_are_independent_of_worker_count_and_match_sequential`
//! and `results_are_independent_of_batch_size` tests pin this down, and
//! `tests/sweep_heavy_tail.rs` proves the occupancy win on a heavy-tailed
//! sweep.  [`SweepRunner::run_with_stats`] additionally reports the lease
//! and steal counters ([`SweepStats`]).
//!
//! # Lane batching
//!
//! Scenarios that declare a [`Scenario::with_lane_key`] are additionally
//! grouped into **lane batches** of up to [`MAX_LANES`] scenarios sharing
//! one netlist, and each batch is executed by the bit-parallel
//! [`LaneLidSimulator`] — one simulated instruction stream stepping all of
//! them at once — instead of one scalar [`LidSimulator`] per scenario.
//! Two scenarios land in the same batch only when they share the lane key,
//! the shell configuration, the run goal, the drain parameters and the
//! stall-schedule family; a batch additionally re-checks at execution time
//! that the *built* systems are structurally identical (process names and
//! port counts, channel endpoints — everything except per-channel
//! relay-station counts, which may vary per lane) and demotes the whole
//! batch to the scalar kernel if they are not.  Scenarios that need
//! payloads — traces, a golden equivalence twin, a post-extraction — or a
//! non-strict policy are never batched.  Because every lane is
//! bit-identical to its scalar run, outcomes stay submission-ordered and
//! independent of worker count, batch size **and lane packing**; the lane
//! counters in [`SweepStats`] report how much of a sweep ran bit-parallel.
//!
//! The lane kernel also holds the one steady-state period oracle, so an
//! extrapolating scenario ([`Scenario::with_oracle`]) that is not packed
//! with others runs as a lane batch of one.
//!
//! ```
//! use wp_core::{RecordingSink, ShellConfig};
//! use wp_sim::{RunGoal, Scenario, SweepRunner, SystemBuilder};
//!
//! // The same two-block ring, swept over both shell policies.
//! let scenario = |config: ShellConfig| {
//!     Scenario::<u64>::new(
//!         "ring",
//!         config,
//!         RunGoal::ForCycles(10),
//!         || {
//!             let mut b = SystemBuilder::new();
//!             let a = b.add_process(Box::new(RecordingSink::new("a", 0u64)));
//!             let c = b.add_process(Box::new(RecordingSink::new("b", 0u64)));
//!             b.connect("ac", a, 0, c, 0, 1);
//!             b.connect("ca", c, 0, a, 0, 0);
//!             b
//!         },
//!     )
//! };
//! let outcomes = SweepRunner::new(2).run(vec![
//!     scenario(ShellConfig::strict()),
//!     scenario(ShellConfig::oracle()),
//! ]);
//! assert_eq!(outcomes.len(), 2);
//! assert!(outcomes.iter().all(|o| o.is_ok()));
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use wp_core::{EquivalenceReport, ShellConfig, StreamingEquivalence, SyncPolicy, TraceArena};

use crate::golden::GoldenSimulator;
use crate::lane::{LaneLidSimulator, LaneScenario, StallSchedule, MAX_LANES};
use crate::lid::{LidReport, LidSimulator};
use crate::spec::{ProcessId, SimError, SystemBuilder};

/// When a sweep scenario stops simulating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunGoal {
    /// Run until the given process reports a halted state.
    UntilHalt {
        /// Process whose halt ends the run.
        process: ProcessId,
        /// Cycle budget before [`SimError::MaxCyclesExceeded`].
        max_cycles: u64,
    },
    /// Run until the given process has fired at least `target` times.
    UntilFirings {
        /// Observed process.
        process: ProcessId,
        /// Firing count ending the run.
        target: u64,
        /// Cycle budget before [`SimError::MaxCyclesExceeded`].
        max_cycles: u64,
    },
    /// Run for exactly this many cycles.
    ForCycles(u64),
}

/// A boxed system factory, callable from any worker thread.
type BuildFn<V> = Box<dyn Fn() -> SystemBuilder<V> + Send + Sync>;

/// A boxed post-run extraction, callable from any worker thread.
type PostFn<V, T> = Box<dyn Fn(&LidSimulator<V>) -> T + Send + Sync>;

/// One independent simulation of a sweep: a system factory plus the shell
/// configuration, run goal and optional post-processing applied to it.
///
/// The factory runs inside a worker thread, so it must be `Send + Sync`;
/// the processes it creates never cross a thread boundary.
pub struct Scenario<V, T = ()> {
    label: String,
    config: ShellConfig,
    goal: RunGoal,
    build: BuildFn<V>,
    drain: Option<(u64, u64)>,
    post: Option<PostFn<V, T>>,
    trace_enabled: bool,
    /// Golden-twin factory installed by [`Scenario::with_equivalence_check`].
    golden: Option<BuildFn<V>>,
    /// Deterministic firing gate installed by
    /// [`Scenario::with_stall_schedule`].
    stall: Option<StallSchedule>,
    /// Lane-batching opt-in installed by [`Scenario::with_lane_key`].
    lane_key: Option<String>,
    /// Period-oracle opt-in installed by [`Scenario::with_oracle`].
    oracle: bool,
}

impl<V, T> fmt::Debug for Scenario<V, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("label", &self.label)
            .field("config", &self.config)
            .field("goal", &self.goal)
            .field("drain", &self.drain)
            .field("trace_enabled", &self.trace_enabled)
            .field("equivalence_check", &self.golden.is_some())
            .field("stall", &self.stall)
            .field("lane_key", &self.lane_key)
            .field("oracle", &self.oracle)
            .finish()
    }
}

impl<V> Scenario<V> {
    /// Creates a scenario from its label, shell configuration, run goal and
    /// system factory.
    ///
    /// Channel traces are disabled by default (sweeps compare cycle counts
    /// and reports, not realisations); re-enable with
    /// [`Scenario::with_traces`].  The post-extraction type starts as `()`;
    /// [`Scenario::with_post`] changes it.
    pub fn new(
        label: impl Into<String>,
        config: ShellConfig,
        goal: RunGoal,
        build: impl Fn() -> SystemBuilder<V> + Send + Sync + 'static,
    ) -> Self {
        Self {
            label: label.into(),
            config,
            goal,
            build: Box::new(build),
            drain: None,
            post: None,
            trace_enabled: false,
            golden: None,
            stall: None,
            lane_key: None,
            oracle: false,
        }
    }

    /// Re-types a post-free scenario's result slot to `T` so it can be
    /// swept in the same batch as scenarios that extract a `T` with
    /// [`Scenario::with_post`]; the outcome's `post` stays `None`.  Used by
    /// the `--oracle` table sweeps, whose extrapolating rows carry no
    /// post-extraction (an extrapolated run's architectural state is frozen
    /// at the last simulated cycle) but share the sweep with rows that do.
    ///
    /// # Panics
    ///
    /// Panics if a post-extraction was installed — re-typing would silently
    /// drop it.
    #[must_use]
    pub fn into_result_type<T>(self) -> Scenario<V, T> {
        assert!(
            self.post.is_none(),
            "into_result_type would drop the installed post-extraction"
        );
        Scenario {
            label: self.label,
            config: self.config,
            goal: self.goal,
            build: self.build,
            drain: self.drain,
            post: None,
            trace_enabled: self.trace_enabled,
            golden: self.golden,
            stall: self.stall,
            lane_key: self.lane_key,
            oracle: self.oracle,
        }
    }
}

impl<V, T> Scenario<V, T> {
    /// The scenario label (used in outcomes and error reports).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// After the goal is reached, lets in-flight tokens drain with
    /// [`LidSimulator::drain`]`(idle_cycles, max_extra)` before the report
    /// and post-extraction are taken.
    #[must_use]
    pub fn with_drain(mut self, idle_cycles: u64, max_extra: u64) -> Self {
        self.drain = Some((idle_cycles, max_extra));
        self
    }

    /// Enables channel-trace recording for this scenario.
    #[must_use]
    pub fn with_traces(mut self) -> Self {
        self.trace_enabled = true;
        self
    }

    /// Verifies this scenario against its golden twin while it runs: the
    /// wire-pipelined simulator's recorded tokens are streamed into a
    /// [`StreamingEquivalence`] checker chunk by chunk, and a
    /// [`GoldenSimulator`] built from `golden` is stepped lazily — only far
    /// enough to match the candidate tokens already produced — so the
    /// comparison retains no realisation and its extra memory is bounded by
    /// the lag between the two systems, not by the run length.
    ///
    /// The per-scenario [`EquivalenceReport`] (including the proven `N`)
    /// lands in [`SweepOutcome::equivalence`].  A golden twin realising
    /// different channels makes the report non-equivalent
    /// ([`wp_core::ChannelVerdict::Unpaired`]).  Unless
    /// [`Scenario::with_traces`] was also requested, the scenario's trace
    /// arena is cleared after each chunk, so enabling the check does not
    /// change how much trace memory the sweep holds.
    #[must_use]
    pub fn with_equivalence_check(
        mut self,
        golden: impl Fn() -> SystemBuilder<V> + Send + Sync + 'static,
    ) -> Self {
        self.golden = Some(Box::new(golden));
        self
    }

    /// Installs a deterministic [`StallSchedule`]: a firing gate that
    /// withholds otherwise possible firings on scheduled (process, cycle)
    /// pairs, turning one netlist into many distinct throughput scenarios.
    /// Gating is protocol-safe (a gated shell is indistinguishable from a
    /// slower block), applies identically on the scalar and the
    /// lane-packed execution path, and is the canonical per-lane
    /// perturbation of a lane batch — all scenarios of one batch must
    /// share the schedule *family* (seed and level), each reading its own
    /// lane of the shared hash words.
    #[must_use]
    pub fn with_stall_schedule(mut self, schedule: StallSchedule) -> Self {
        self.stall = Some(schedule);
        self
    }

    /// Opts this scenario into **lane batching** under the given key (see
    /// the module docs): scenarios sharing a key promise to build
    /// structurally identical systems — same processes (names and port
    /// counts) and same channel endpoints, with only per-channel
    /// relay-station counts, stall-schedule lanes and similar control-only
    /// knobs varying — so up to [`MAX_LANES`] of them can be packed into
    /// one bit-parallel [`LaneLidSimulator`].  The promise is re-checked
    /// against the built descriptions before packing; a violation demotes
    /// the batch to the scalar kernel (counted in
    /// [`SweepStats::lane_fallbacks`]), never to a wrong result.
    #[must_use]
    pub fn with_lane_key(mut self, key: impl Into<String>) -> Self {
        self.lane_key = Some(key.into());
        self
    }

    /// Lets this scenario finish by **steady-state extrapolation**: once
    /// the control plane revisits a state, the goal cycle and every firing
    /// counter are computed in O(1) instead of simulating millions of
    /// steady-state cycles (see
    /// [`LaneLidSimulator::run_until_firings_extrapolated`], the one period
    /// oracle; a scenario that is not packed into a lane batch runs as a
    /// batch of one).  The outcome is bit-identical to plain simulation;
    /// the saving lands in the sweep's
    /// [`SweepStats::oracle_extrapolated_cycles`].
    ///
    /// Extrapolation applies only to [`RunGoal::UntilFirings`] scenarios
    /// that need nothing from the post-goal simulator state — no drain, no
    /// traces, no golden equivalence twin, no post-extraction; the opt-in
    /// is ignored for anything else.  Non-strict runs, and runs the lane
    /// kernel rejects, simulate plainly; stalled runs simulate to their
    /// goals on the lane kernel.  Both are counted in
    /// [`SweepStats::oracle_fallbacks`].
    #[must_use]
    pub fn with_oracle(mut self) -> Self {
        self.oracle = true;
        self
    }

    /// Whether this scenario may take the extrapolating oracle path: it
    /// opted in, stops on a firing count and needs nothing from the
    /// simulator after the goal (an extrapolated simulator's architectural
    /// state is frozen at the last simulated cycle).  The sweep routes
    /// non-strict runs to plain simulation and the lane kernel declines to
    /// extrapolate stalled ones — a fallback, never a wrong result.
    fn oracle_eligible(&self) -> bool {
        self.oracle
            && matches!(self.goal, RunGoal::UntilFirings { .. })
            && self.drain.is_none()
            && self.post.is_none()
            && self.golden.is_none()
            && !self.trace_enabled
    }

    /// Whether this scenario may be packed into a lane batch: it opted in,
    /// uses strict shells (the oracle policy consults payload-dependent
    /// firing profiles) and needs nothing payload-sensitive — no traces, no
    /// golden equivalence twin, no post-extraction.
    fn lane_eligible(&self) -> bool {
        self.lane_key.is_some()
            && self.config.policy == SyncPolicy::Strict
            && self.post.is_none()
            && self.golden.is_none()
            && !self.trace_enabled
    }

    /// Extracts a caller-defined value from the finished simulator (e.g.
    /// architectural state via process downcasts); it is returned in
    /// [`SweepOutcome::post`].
    #[must_use]
    pub fn with_post<U>(
        self,
        post: impl Fn(&LidSimulator<V>) -> U + Send + Sync + 'static,
    ) -> Scenario<V, U> {
        Scenario {
            label: self.label,
            config: self.config,
            goal: self.goal,
            build: self.build,
            drain: self.drain,
            post: Some(Box::new(post)),
            trace_enabled: self.trace_enabled,
            golden: self.golden,
            stall: self.stall,
            lane_key: self.lane_key,
            oracle: self.oracle,
        }
    }
}

/// The result of one completed sweep scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome<T = ()> {
    /// The scenario label.
    pub label: String,
    /// Cycles elapsed when the run goal was reached (drain cycles, if any,
    /// are excluded here but included in `report.cycles`).
    pub cycles_to_goal: u64,
    /// The per-scenario simulator report.
    pub report: LidReport,
    /// The value produced by [`Scenario::with_post`], if one was installed.
    pub post: Option<T>,
    /// The golden-vs-pipelined equivalence report (proven `N` included)
    /// produced by [`Scenario::with_equivalence_check`], if it was enabled.
    pub equivalence: Option<EquivalenceReport>,
}

/// A scenario that failed to build or simulate.
#[derive(Debug)]
pub struct SweepError {
    /// The label of the failing scenario.
    pub label: String,
    /// The underlying simulator error.
    pub error: SimError,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario '{}' failed: {}", self.label, self.error)
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Scheduler counters of one completed sweep (see
/// [`SweepRunner::run_with_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Worker threads actually spawned (bounded by the scenario count).
    pub workers: usize,
    /// Effective steal-transfer size (the configured batch, or the auto
    /// heuristic).
    pub batch: usize,
    /// Work-item executions leased from worker deques (a work item is one
    /// scalar scenario or one whole lane batch; on a completed sweep this
    /// equals the item count).
    pub leases: u64,
    /// Batch transfers from a victim's deque to an idle worker's deque.
    pub steals: u64,
    /// Lane batches executed by the bit-parallel [`LaneLidSimulator`]
    /// (an oracle-enabled scenario outside a packed batch counts as a
    /// batch of one).
    pub lane_batches: u64,
    /// Total lanes across those batches — scenarios that actually ran on
    /// the bit-parallel kernel.
    pub lanes_filled: u64,
    /// Scenarios that were grouped into a lane batch but demoted to the
    /// scalar kernel at execution time (the built systems were not
    /// structurally identical, or the lane kernel rejected the batch).
    pub lane_fallbacks: u64,
    /// Cycles actually simulated by oracle-enabled scenarios (see
    /// [`Scenario::with_oracle`]).
    pub oracle_simulated_cycles: u64,
    /// Cycles the period oracle extrapolated instead of simulating —
    /// reported cycles minus simulated cycles, summed over oracle-enabled
    /// scenarios.
    pub oracle_extrapolated_cycles: u64,
    /// Oracle-enabled scenarios whose steady-state tail was extrapolated.
    pub oracle_extrapolations: u64,
    /// Oracle-enabled scenarios that simulated to their goal plainly: no
    /// period found or a stall schedule installed (on the lane kernel), or
    /// a non-strict policy or a batch the lane kernel rejects (by the
    /// plain [`LidSimulator`], with every cycle counted as simulated).
    pub oracle_fallbacks: u64,
}

/// Shared atomic accumulators for the oracle columns of [`SweepStats`].
#[derive(Debug, Default)]
struct OracleTally {
    simulated: AtomicU64,
    extrapolated: AtomicU64,
    extrapolations: AtomicU64,
    fallbacks: AtomicU64,
}

impl OracleTally {
    /// Accounts one finished run of the lane kernel's oracle.
    fn record(&self, run: &crate::oracle::OracleRun) {
        self.simulated
            .fetch_add(run.simulated_cycles, Ordering::Relaxed);
        self.extrapolated
            .fetch_add(run.extrapolated_cycles(), Ordering::Relaxed);
        if run.extrapolated {
            self.extrapolations.fetch_add(1, Ordering::Relaxed);
        } else {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accounts one oracle-enabled run that simulated all `cycles` plainly
    /// because the lane kernel could not take it.
    fn record_plain(&self, cycles: u64) {
        self.simulated.fetch_add(cycles, Ordering::Relaxed);
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs independent scenarios across a pool of `std::thread` workers with a
/// work-stealing, batching scheduler (see the module docs).
#[derive(Debug, Clone)]
pub struct SweepRunner {
    workers: usize,
    batch: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new(0)
    }
}

impl SweepRunner {
    /// Creates a runner with the given worker count; `0` selects
    /// [`std::thread::available_parallelism`].  The steal batch size starts
    /// on the auto heuristic (see [`SweepRunner::with_batch`]).
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            workers
        };
        Self { workers, batch: 0 }
    }

    /// Sets how many scenarios an idle worker transfers per steal.  A steal
    /// never takes more than **half of the victim's remaining deque,
    /// rounded down**, with one exception: a lone remaining index may be
    /// stolen whole (otherwise a one-index deque could never be stolen
    /// from and its short scenario would be stuck behind the victim's
    /// long-running lease).
    ///
    /// Stolen indices land in the thief's own deque — still visible to
    /// other thieves — so a larger batch only amortises the contended
    /// victim-lock acquisitions of cheap-scenario sweeps; it cannot trap
    /// queued work behind a long-running scenario.  `0` (the default)
    /// selects the auto heuristic `max(1, scenarios / (4 × workers))`;
    /// pass `1` to move work one scenario at a time.
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// The number of worker threads this runner uses.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured steal batch size (`0` means the auto heuristic).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The steal-transfer size used for a sweep of `n` scenarios.
    fn effective_batch(&self, n: usize, workers: usize) -> usize {
        if self.batch > 0 {
            self.batch
        } else {
            (n / (4 * workers)).max(1)
        }
    }

    /// Runs every scenario and returns their outcomes in submission order
    /// (the order is independent of the worker count and the batch size).
    pub fn run<V, T>(
        &self,
        scenarios: Vec<Scenario<V, T>>,
    ) -> Vec<Result<SweepOutcome<T>, SweepError>>
    where
        V: Clone + PartialEq,
        T: Send,
    {
        self.run_with_stats(scenarios).0
    }

    /// Runs only the contiguous submission-order `range` of `scenarios`,
    /// returning that range's outcomes in submission order.
    ///
    /// This is the in-process half of *process-level sharding*
    /// (`wp_dist`): a worker process builds the full, deterministic
    /// scenario list exactly like a single-process run would, then
    /// executes only its assigned range.  Because sweep results are
    /// scheduling-independent, concatenating the `run_range` outcomes of
    /// ranges that partition `0..scenarios.len()` is identical to a single
    /// [`SweepRunner::run`] over the whole list (pinned by
    /// `tests/sweep_sharding.rs`).
    ///
    /// The range is clamped to the scenario count, so a plan computed for
    /// a larger sweep degrades to running nothing instead of panicking.
    pub fn run_range<V, T>(
        &self,
        mut scenarios: Vec<Scenario<V, T>>,
        range: std::ops::Range<usize>,
    ) -> Vec<Result<SweepOutcome<T>, SweepError>>
    where
        V: Clone + PartialEq,
        T: Send,
    {
        let end = range.end.min(scenarios.len());
        let start = range.start.min(end);
        scenarios.truncate(end);
        scenarios.drain(..start);
        self.run(scenarios)
    }

    /// [`SweepRunner::run`], additionally returning the scheduler counters
    /// of the sweep.
    pub fn run_with_stats<V, T>(
        &self,
        scenarios: Vec<Scenario<V, T>>,
    ) -> (Vec<Result<SweepOutcome<T>, SweepError>>, SweepStats)
    where
        V: Clone + PartialEq,
        T: Send,
    {
        type Slot<T> = Mutex<Option<Result<SweepOutcome<T>, SweepError>>>;
        let n = scenarios.len();
        if n == 0 {
            return (Vec::new(), SweepStats::default());
        }
        // Group lane-eligible scenarios into bit-parallel batches; everything
        // else becomes a single-scenario work item (see the module docs).
        let items = plan_work(&scenarios);
        let n_items = items.len();
        let workers = self.workers.min(n_items).max(1);
        let batch = self.effective_batch(n_items, workers);
        let slots: Vec<Slot<T>> = scenarios.iter().map(|_| Mutex::new(None)).collect();

        // One deque of work-item indices per worker, seeded with a
        // contiguous span of the item order.  Indices only ever leave the
        // deques, so "every deque is empty" means the sweep is fully leased.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w * n_items / workers..(w + 1) * n_items / workers).collect()))
            .collect();
        let leases = AtomicU64::new(0);
        let steals = AtomicU64::new(0);
        let lane_batches = AtomicU64::new(0);
        let lanes_filled = AtomicU64::new(0);
        let lane_fallbacks = AtomicU64::new(0);
        let oracle = OracleTally::default();

        {
            let (scenarios, slots, queues, items) = (&scenarios, &slots, &queues, &items);
            let (leases, steals, lane_fallbacks) = (&leases, &steals, &lane_fallbacks);
            let (lane_batches, lanes_filled, oracle) = (&lane_batches, &lanes_filled, &oracle);
            let store = move |i: usize, result| {
                *slots[i].lock().expect("sweep slot poisoned") = Some(result);
            };
            // Runs a lane batch on the bit-parallel kernel; `false` when the
            // batch must be demoted (see `execute_lane_batch`).
            let run_lanes =
                move |batch: &[usize]| match execute_lane_batch(scenarios, batch, oracle) {
                    Some(results) => {
                        lane_batches.fetch_add(1, Ordering::Relaxed);
                        lanes_filled.fetch_add(batch.len() as u64, Ordering::Relaxed);
                        for (&i, r) in batch.iter().zip(results) {
                            store(i, r);
                        }
                        true
                    }
                    None => false,
                };
            // One scenario outside a packed batch.  An extrapolating strict
            // run is a one-lane batch: the lane kernel holds the only
            // period oracle.  Oracle runs it cannot take (a non-strict
            // policy, a rejected batch) simulate plainly and are tallied
            // as oracle fallbacks.
            let run_single = move |i: usize| {
                let s = &scenarios[i];
                let oracle_run = s.oracle_eligible();
                if oracle_run && s.config.policy == SyncPolicy::Strict && run_lanes(&[i]) {
                    return;
                }
                let result = execute(s);
                if let (true, Ok(outcome)) = (oracle_run, &result) {
                    oracle.record_plain(outcome.report.cycles);
                }
                store(i, result);
            };
            std::thread::scope(|scope| {
                for me in 0..workers {
                    scope.spawn(move || {
                        let mut chunk: Vec<usize> = Vec::with_capacity(batch);
                        loop {
                            // Lease exactly one item from our own deque:
                            // everything not currently executing stays in a
                            // deque, visible to thieves, so a long-running
                            // item can never hide queued work.
                            let index =
                                queues[me].lock().expect("sweep queue poisoned").pop_front();
                            if let Some(index) = index {
                                leases.fetch_add(1, Ordering::Relaxed);
                                match &items[index] {
                                    WorkItem::Single(i) => run_single(*i),
                                    WorkItem::Batch(lanes) => {
                                        if !run_lanes(lanes) {
                                            // Structural defense tripped: run
                                            // each lane on its own.
                                            lane_fallbacks
                                                .fetch_add(lanes.len() as u64, Ordering::Relaxed);
                                            lanes.iter().for_each(|&i| run_single(i));
                                        }
                                    }
                                }
                                continue;
                            }
                            // Own deque empty: transfer up to half of a
                            // victim's remaining indices (capped at `batch`)
                            // from the back of its deque into our own.  The
                            // victim lock is released before our own is
                            // taken, so no worker ever holds two deque locks
                            // (no lock-order deadlock between mutual
                            // thieves).
                            let mut stole = false;
                            for offset in 1..workers {
                                let victim = (me + offset) % workers;
                                {
                                    let mut q =
                                        queues[victim].lock().expect("sweep queue poisoned");
                                    let take = steal_take(q.len(), batch);
                                    for _ in 0..take {
                                        let i = q.pop_back().expect("take is at most len");
                                        chunk.push(i);
                                    }
                                }
                                if !chunk.is_empty() {
                                    steals.fetch_add(1, Ordering::Relaxed);
                                    let mut q = queues[me].lock().expect("sweep queue poisoned");
                                    for &i in &chunk {
                                        q.push_front(i);
                                    }
                                    chunk.clear();
                                    stole = true;
                                    break;
                                }
                            }
                            if !stole {
                                // Nothing to steal anywhere and our own
                                // deque is empty (only its owner pushes to
                                // it): every index is leased or queued at a
                                // worker that will execute it before
                                // exiting.
                                break;
                            }
                        }
                    });
                }
            });
        }

        let outcomes = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("sweep slot poisoned")
                    .expect("every scenario index was leased by a worker")
            })
            .collect();
        let stats = SweepStats {
            workers,
            batch,
            leases: leases.into_inner(),
            steals: steals.into_inner(),
            lane_batches: lane_batches.into_inner(),
            lanes_filled: lanes_filled.into_inner(),
            lane_fallbacks: lane_fallbacks.into_inner(),
            oracle_simulated_cycles: oracle.simulated.into_inner(),
            oracle_extrapolated_cycles: oracle.extrapolated.into_inner(),
            oracle_extrapolations: oracle.extrapolations.into_inner(),
            oracle_fallbacks: oracle.fallbacks.into_inner(),
        };
        (outcomes, stats)
    }
}

/// One schedulable unit of a sweep: a scalar scenario, or a whole lane
/// batch executed bit-parallel.
#[derive(Debug)]
enum WorkItem {
    /// One scenario on its own: on the scalar kernel, or as a one-lane
    /// batch when it extrapolates.
    Single(usize),
    /// Up to [`MAX_LANES`] scenario indices packed into one
    /// [`LaneLidSimulator`], in submission order.
    Batch(Vec<usize>),
}

/// Whether two lane-eligible scenarios may share a lane batch: same lane
/// key, shell configuration, run goal, drain parameters and stall-schedule
/// family (each lane still reads its own schedule lane).
fn same_lane_group<V, T>(a: &Scenario<V, T>, b: &Scenario<V, T>) -> bool {
    a.lane_key == b.lane_key
        && a.config == b.config
        && a.goal == b.goal
        && a.drain == b.drain
        && a.oracle == b.oracle
        && a.stall.map(|s| s.family()) == b.stall.map(|s| s.family())
}

/// Groups the sweep into work items: lane-eligible scenarios accumulate
/// into per-group batches (closed at [`MAX_LANES`] lanes), everything else
/// becomes a single-scenario item.  Grouping only decides *how* scenarios
/// execute — results land in per-scenario slots either way, so the
/// submission order of the outcomes is unaffected.
fn plan_work<V, T>(scenarios: &[Scenario<V, T>]) -> Vec<WorkItem> {
    let mut items = Vec::new();
    let mut open: Vec<Vec<usize>> = Vec::new();
    for (i, s) in scenarios.iter().enumerate() {
        if !s.lane_eligible() {
            items.push(WorkItem::Single(i));
            continue;
        }
        match open
            .iter()
            .position(|b| same_lane_group(&scenarios[b[0]], s))
        {
            Some(pos) => {
                open[pos].push(i);
                if open[pos].len() == MAX_LANES {
                    items.push(WorkItem::Batch(open.swap_remove(pos)));
                }
            }
            None => open.push(vec![i]),
        }
    }
    items.extend(open.into_iter().map(WorkItem::Batch));
    items
}

/// The structural-defense check of a lane batch: the built descriptions
/// must agree on everything except per-channel relay-station counts.
fn same_structure<V>(a: &SystemBuilder<V>, b: &SystemBuilder<V>) -> bool {
    a.processes().len() == b.processes().len()
        && a.processes().iter().zip(b.processes()).all(|(p, q)| {
            p.name() == q.name()
                && p.num_inputs() == q.num_inputs()
                && p.num_outputs() == q.num_outputs()
        })
        && a.channels().len() == b.channels().len()
        && a.channels().iter().zip(b.channels()).all(|(c, d)| {
            c.name == d.name
                && c.src == d.src
                && c.src_port == d.src_port
                && c.dst == d.dst
                && c.dst_port == d.dst_port
        })
}

/// Executes one lane batch on the bit-parallel kernel and returns the
/// per-scenario results in batch order, or `None` when the batch must be
/// demoted (structurally diverging builds, or a batch the lane kernel
/// rejects) — the caller then re-runs each scenario on its own (an oracle
/// scenario as a batch of one, anything else through [`execute`]), so a
/// tripped defense costs time, never correctness.
fn execute_lane_batch<V, T>(
    scenarios: &[Scenario<V, T>],
    batch: &[usize],
    tally: &OracleTally,
) -> Option<Vec<Result<SweepOutcome<T>, SweepError>>>
where
    V: Clone + PartialEq,
{
    let mut builders: Vec<SystemBuilder<V>> =
        batch.iter().map(|&i| (scenarios[i].build)()).collect();
    if !builders[1..]
        .iter()
        .all(|b| same_structure(&builders[0], b))
    {
        return None;
    }
    let lanes: Vec<LaneScenario> = batch
        .iter()
        .zip(&builders)
        .map(|(&i, b)| LaneScenario {
            relay_stations: b.channels().iter().map(|c| c.relay_stations).collect(),
            stall: scenarios[i].stall,
        })
        .collect();
    let lead = &scenarios[batch[0]];
    let mut kernel = LaneLidSimulator::new(builders.swap_remove(0), &lanes, lead.config).ok()?;
    // An oracle batch finishes by per-lane steady-state extrapolation (the
    // grouping key includes the oracle flag, so the whole batch opted in);
    // everything else runs the plain goal + drain lifecycle.
    if let (
        true,
        RunGoal::UntilFirings {
            process,
            target,
            max_cycles,
        },
    ) = (lead.oracle_eligible(), lead.goal)
    {
        let outcomes = kernel.run_until_firings_extrapolated(process, target, max_cycles);
        return Some(
            batch
                .iter()
                .zip(outcomes)
                .map(|(&i, outcome)| match outcome {
                    Ok(run) => {
                        tally.record(&run);
                        Ok(SweepOutcome {
                            label: scenarios[i].label.clone(),
                            cycles_to_goal: run.report.cycles,
                            report: run.report,
                            post: None,
                            equivalence: None,
                        })
                    }
                    Err(error) => Err(SweepError {
                        label: scenarios[i].label.clone(),
                        error,
                    }),
                })
                .collect(),
        );
    }
    let outcomes = kernel.run(lead.goal, lead.drain);
    Some(
        batch
            .iter()
            .zip(outcomes)
            .map(|(&i, outcome)| match outcome {
                Ok(o) => Ok(SweepOutcome {
                    label: scenarios[i].label.clone(),
                    cycles_to_goal: o.cycles_to_goal,
                    report: o.report,
                    post: None,
                    equivalence: None,
                }),
                Err(error) => Err(SweepError {
                    label: scenarios[i].label.clone(),
                    error,
                }),
            })
            .collect(),
    )
}

/// How many indices a thief may transfer from a victim's deque holding
/// `len` remaining indices: at most **half of the victim's remainder,
/// rounded down** — except that a lone remaining index may be stolen whole
/// (`len == 1` yields 1, otherwise a one-index deque could never be stolen
/// from) — and never more than the configured `batch`.
fn steal_take(len: usize, batch: usize) -> usize {
    if len == 0 {
        0
    } else {
        (len / 2).max(1).min(batch)
    }
}

/// How many cycles the equivalence-checked path simulates between trace
/// drains.  Small enough to bound the retained trace memory, large enough
/// to amortise the per-chunk bookkeeping.
const EQUIVALENCE_CHUNK: u64 = 256;

/// Runs `sim` towards `goal` for at most `chunk` more cycles.  Returns
/// `Ok(true)` once the goal is reached; a [`SimError::MaxCyclesExceeded`]
/// produced by the *chunk boundary* (not the goal's own budget) is mapped
/// to `Ok(false)`, so deadlock detection and the real cycle budget behave
/// exactly as in the un-chunked path.
fn run_goal_chunk<V: Clone + PartialEq>(
    sim: &mut LidSimulator<V>,
    goal: RunGoal,
    chunk: u64,
) -> Result<bool, SimError> {
    let chunked =
        |max_cycles: u64, sim: &LidSimulator<V>| max_cycles.min(sim.cycles().saturating_add(chunk));
    match goal {
        RunGoal::UntilHalt {
            process,
            max_cycles,
        } => {
            let budget = chunked(max_cycles, sim);
            match sim.run_until_halt(process, budget) {
                Ok(_) => Ok(true),
                Err(SimError::MaxCyclesExceeded { .. }) if budget < max_cycles => Ok(false),
                Err(e) => Err(e),
            }
        }
        RunGoal::UntilFirings {
            process,
            target,
            max_cycles,
        } => {
            let budget = chunked(max_cycles, sim);
            match sim.run_until_firings(process, target, budget) {
                Ok(_) => Ok(true),
                Err(SimError::MaxCyclesExceeded { .. }) if budget < max_cycles => Ok(false),
                Err(e) => Err(e),
            }
        }
        RunGoal::ForCycles(cycles) => {
            let remaining = cycles.saturating_sub(sim.cycles());
            sim.run_for(remaining.min(chunk))?;
            Ok(sim.cycles() >= cycles)
        }
    }
}

/// Drives the streaming golden-vs-pipelined comparison of one scenario.
struct EquivalenceDriver<V> {
    golden: GoldenSimulator<V>,
    checker: StreamingEquivalence<V>,
    /// Per-channel count of candidate trace entries already streamed into
    /// the checker (reset whenever the candidate arena is cleared).
    consumed: Vec<usize>,
    /// Same cursor for the golden arena (always cleared after feeding).
    golden_consumed: Vec<usize>,
}

impl<V: Clone + PartialEq> EquivalenceDriver<V> {
    fn new(candidate: &LidSimulator<V>, golden: GoldenSimulator<V>) -> Self {
        let checker = StreamingEquivalence::pair(
            golden.trace_arena().channel_names(),
            candidate.trace_arena().channel_names(),
        );
        let consumed = vec![0; candidate.trace_arena().num_channels()];
        let golden_consumed = vec![0; golden.trace_arena().num_channels()];
        Self {
            golden,
            checker,
            consumed,
            golden_consumed,
        }
    }

    /// Streams the candidate tokens recorded since the last call into the
    /// checker, then steps the golden twin just far enough to catch up.
    /// When `clear_candidate` is set the candidate arena is emptied
    /// afterwards (bounded memory); otherwise a cursor remembers how far
    /// the stream was consumed.
    fn sync(&mut self, sim: &mut LidSimulator<V>, clear_candidate: bool) {
        feed_new_tokens(sim.trace_arena(), &mut self.consumed, |ch, v| {
            self.checker.push_candidate(ch, v);
        });
        if clear_candidate {
            sim.clear_traces();
            self.consumed.fill(0);
        }
        // The golden system records one valid token per channel per cycle,
        // so every step shrinks the maximum candidate lead by one: this
        // demand-driven loop terminates after exactly `candidate_lead`
        // steps and never runs the golden twin ahead of what the candidate
        // already produced.
        while self.checker.candidate_lead() > 0 {
            self.golden.step();
            feed_new_tokens(
                self.golden.trace_arena(),
                &mut self.golden_consumed,
                |ch, v| {
                    self.checker.push_reference(ch, v);
                },
            );
            self.golden.clear_traces();
            self.golden_consumed.fill(0);
        }
    }
}

/// Streams every valid token recorded after the per-channel `consumed`
/// cursors into `push`, advancing the cursors.  `values_from` positions in
/// O(1), so repeated syncs over a growing (uncleared) arena stay linear in
/// the trace length.
fn feed_new_tokens<V: Clone>(
    arena: &TraceArena<V>,
    consumed: &mut [usize],
    mut push: impl FnMut(usize, V),
) {
    for (ch, cursor) in consumed.iter_mut().enumerate() {
        let view = arena.channel(ch);
        for value in view.values_from(*cursor) {
            push(ch, value.clone());
        }
        *cursor = view.valid_count();
    }
}

/// Builds, runs and summarises one scenario (always inside a worker thread).
fn execute<V, T>(scenario: &Scenario<V, T>) -> Result<SweepOutcome<T>, SweepError>
where
    V: Clone + PartialEq,
{
    let fail = |error: SimError| SweepError {
        label: scenario.label.clone(),
        error,
    };
    let mut sim = LidSimulator::new((scenario.build)(), scenario.config).map_err(fail)?;
    sim.set_trace_enabled(scenario.trace_enabled);
    sim.set_stall_schedule(scenario.stall);

    let mut driver = match &scenario.golden {
        Some(golden_build) => {
            // The comparison needs the candidate realisations: force
            // recording on (the arena is drained chunk by chunk, so this
            // does not retain the full trace unless `with_traces` asked
            // for it) and reserve one chunk of capacity up front.
            sim.set_trace_enabled(true);
            sim.reserve_traces(EQUIVALENCE_CHUNK as usize);
            let golden = GoldenSimulator::new(golden_build()).map_err(fail)?;
            Some(EquivalenceDriver::new(&sim, golden))
        }
        None => None,
    };

    let cycles_to_goal = match &mut driver {
        None => match scenario.goal {
            RunGoal::UntilHalt {
                process,
                max_cycles,
            } => sim.run_until_halt(process, max_cycles).map_err(fail)?,
            RunGoal::UntilFirings {
                process,
                target,
                max_cycles,
            } => sim
                .run_until_firings(process, target, max_cycles)
                .map_err(fail)?,
            RunGoal::ForCycles(cycles) => {
                sim.run_for(cycles).map_err(fail)?;
                sim.cycles()
            }
        },
        Some(driver) => {
            loop {
                let done =
                    run_goal_chunk(&mut sim, scenario.goal, EQUIVALENCE_CHUNK).map_err(fail)?;
                driver.sync(&mut sim, !scenario.trace_enabled);
                if done {
                    break;
                }
            }
            sim.cycles()
        }
    };
    if let Some((idle_cycles, max_extra)) = scenario.drain {
        sim.drain(idle_cycles, max_extra).map_err(fail)?;
        if let Some(driver) = &mut driver {
            driver.sync(&mut sim, !scenario.trace_enabled);
        }
    }
    let post = scenario.post.as_ref().map(|f| f(&sim));
    Ok(SweepOutcome {
        label: scenario.label.clone(),
        cycles_to_goal,
        report: sim.report(),
        post,
        equivalence: driver.map(|d| d.checker.report()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::RingStage;

    /// A ring of `stages` stages with `relay_stations` on the first edge.
    fn ring(stages: usize, relay_stations: usize) -> SystemBuilder<u64> {
        let mut b = SystemBuilder::new();
        let ids: Vec<_> = (0..stages)
            .map(|i| b.add_process(Box::new(RingStage::new(&format!("s{i}")))))
            .collect();
        for i in 0..stages {
            let rs = if i == 0 { relay_stations } else { 0 };
            b.connect(format!("e{i}"), ids[i], 0, ids[(i + 1) % stages], 0, rs);
        }
        b
    }

    fn ring_scenarios() -> Vec<Scenario<u64>> {
        let mut scenarios = Vec::new();
        for stages in 2..=4usize {
            for rs in 0..=2usize {
                scenarios.push(Scenario::new(
                    format!("ring_m{stages}_n{rs}"),
                    ShellConfig::strict(),
                    RunGoal::UntilFirings {
                        process: 0,
                        target: 60,
                        max_cycles: 50_000,
                    },
                    move || ring(stages, rs),
                ));
            }
        }
        scenarios
    }

    /// Sequential reference: run every scenario directly, without the
    /// runner.
    fn sequential_outcomes() -> Vec<SweepOutcome> {
        ring_scenarios()
            .iter()
            .map(|s| execute(s).expect("ring scenario completes"))
            .collect()
    }

    #[test]
    fn results_are_independent_of_worker_count_and_match_sequential() {
        let reference = sequential_outcomes();
        for workers in [1, 2, 3, 8] {
            let outcomes = SweepRunner::new(workers).run(ring_scenarios());
            let outcomes: Vec<SweepOutcome> = outcomes
                .into_iter()
                .map(|o| o.expect("ring scenario completes"))
                .collect();
            assert_eq!(outcomes, reference, "workers = {workers}");
        }
    }

    #[test]
    fn results_are_independent_of_batch_size() {
        let reference = sequential_outcomes();
        for batch in [1, 2, 5, 100] {
            let outcomes = SweepRunner::new(3).with_batch(batch).run(ring_scenarios());
            let outcomes: Vec<SweepOutcome> = outcomes
                .into_iter()
                .map(|o| o.expect("ring scenario completes"))
                .collect();
            assert_eq!(outcomes, reference, "batch = {batch}");
        }
    }

    #[test]
    fn stats_report_the_effective_batch_and_cover_every_scenario() {
        let n = ring_scenarios().len() as u64;
        // Auto heuristic: 9 scenarios / (4 × 2 workers) -> batch 1.
        let (_, stats) = SweepRunner::new(2).run_with_stats(ring_scenarios());
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.batch, 1);
        assert_eq!(stats.leases, n, "every scenario is leased exactly once");

        let (_, stats) = SweepRunner::new(1)
            .with_batch(4)
            .run_with_stats(ring_scenarios());
        assert_eq!(stats.batch, 4);
        assert_eq!(stats.leases, n, "every scenario is leased exactly once");
        assert_eq!(stats.steals, 0, "a single worker has nobody to steal from");
    }

    #[test]
    fn run_range_matches_the_corresponding_slice_of_a_full_run() {
        let reference = sequential_outcomes();
        let n = reference.len();
        for (start, end) in [(0, n), (0, 3), (3, 7), (7, n), (4, 4)] {
            let outcomes = SweepRunner::new(2).run_range(ring_scenarios(), start..end);
            let outcomes: Vec<SweepOutcome> = outcomes
                .into_iter()
                .map(|o| o.expect("ring scenario completes"))
                .collect();
            assert_eq!(outcomes, reference[start..end], "range {start}..{end}");
        }
    }

    #[test]
    fn run_range_clamps_out_of_bounds_ranges() {
        let n = ring_scenarios().len();
        assert!(SweepRunner::new(2)
            .run_range(ring_scenarios(), n + 5..n + 9)
            .is_empty());
        let clamped = SweepRunner::new(2).run_range(ring_scenarios(), n - 1..n + 9);
        assert_eq!(clamped.len(), 1);
        assert!(clamped[0].is_ok());
    }

    #[test]
    fn empty_sweep_returns_no_outcomes() {
        let (outcomes, stats) = SweepRunner::new(4).run_with_stats(Vec::<Scenario<u64>>::new());
        assert!(outcomes.is_empty());
        assert_eq!(stats, SweepStats::default());
    }

    #[test]
    fn more_workers_than_scenarios_is_fine() {
        let outcomes = SweepRunner::new(64).with_batch(7).run(ring_scenarios());
        assert_eq!(outcomes.len(), ring_scenarios().len());
        assert!(outcomes.iter().all(Result::is_ok));
    }

    #[test]
    fn outcomes_preserve_submission_order() {
        let outcomes = SweepRunner::new(4).run(ring_scenarios());
        let labels: Vec<_> = outcomes
            .iter()
            .map(|o| o.as_ref().expect("completes").label.clone())
            .collect();
        let expected: Vec<_> = ring_scenarios()
            .iter()
            .map(|s| s.label().to_string())
            .collect();
        assert_eq!(labels, expected);
    }

    #[test]
    fn throughput_of_swept_rings_follows_the_loop_law() {
        for outcome in SweepRunner::new(2).run(ring_scenarios()) {
            let outcome = outcome.expect("ring scenario completes");
            // Label encodes m and n; Th = m / (m + n).
            let (m, n) = outcome
                .label
                .strip_prefix("ring_m")
                .and_then(|rest| rest.split_once("_n"))
                .map(|(m, n)| (m.parse::<f64>().unwrap(), n.parse::<f64>().unwrap()))
                .expect("label encodes the ring shape");
            let measured = outcome.report.throughput_of(0);
            let law = m / (m + n);
            assert!(
                (measured - law).abs() < 0.03,
                "{}: measured {measured:.3} vs law {law:.3}",
                outcome.label
            );
        }
    }

    #[test]
    fn failing_scenarios_report_their_label() {
        // A scenario that exceeds its cycle budget.
        let scenarios = vec![Scenario::<u64>::new(
            "too_short",
            ShellConfig::strict(),
            RunGoal::UntilFirings {
                process: 0,
                target: 1_000,
                max_cycles: 10,
            },
            || ring(2, 0),
        )];
        let outcome = &SweepRunner::new(2).run(scenarios)[0];
        let err = outcome.as_ref().expect_err("budget exceeded");
        assert_eq!(err.label, "too_short");
        assert!(matches!(err.error, SimError::MaxCyclesExceeded { .. }));
        assert!(err.to_string().contains("too_short"));
    }

    #[test]
    fn post_extraction_sees_the_finished_simulator() {
        let scenarios = vec![Scenario::<u64>::new(
            "with_post",
            ShellConfig::strict(),
            RunGoal::ForCycles(25),
            || ring(2, 1),
        )
        .with_post(|sim| sim.cycles())];
        let outcome = SweepRunner::new(1).run(scenarios).remove(0).expect("runs");
        assert_eq!(outcome.post, Some(25));
        assert_eq!(outcome.report.cycles, 25);
    }

    /// Lane-key'd ring scenarios with per-scenario relay budgets and stall
    /// lanes: the lane-batched sweep must produce exactly the outcomes of
    /// the same scenarios without the lane opt-in (all-scalar), and the
    /// stats must show the batch actually ran bit-parallel.
    #[test]
    fn lane_batched_sweep_matches_the_scalar_sweep() {
        let scenarios = |lane_key: bool| -> Vec<Scenario<u64>> {
            (0..10usize)
                .map(|k| {
                    let rs = k % 4;
                    let mut s = Scenario::new(
                        format!("ring_lane{k}"),
                        ShellConfig::strict(),
                        RunGoal::UntilFirings {
                            process: 0,
                            target: 80,
                            max_cycles: 50_000,
                        },
                        move || ring(3, rs),
                    )
                    .with_drain(4, 500)
                    .with_stall_schedule(StallSchedule::new(2005, 2, k as u32));
                    if lane_key {
                        s = s.with_lane_key("ring3");
                    }
                    s
                })
                .collect()
        };
        let reference: Vec<SweepOutcome> = scenarios(false)
            .iter()
            .map(|s| execute(s).expect("scalar ring completes"))
            .collect();
        let (outcomes, stats) = SweepRunner::new(2).run_with_stats(scenarios(true));
        let outcomes: Vec<SweepOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("lane ring completes"))
            .collect();
        assert_eq!(outcomes, reference);
        assert_eq!(stats.lane_batches, 1, "one shared netlist, one batch");
        assert_eq!(stats.lanes_filled, 10);
        assert_eq!(stats.lane_fallbacks, 0);
        assert_eq!(stats.leases, 1, "the whole sweep was one work item");
    }

    /// Scenarios that differ in goal or stall family must not share a
    /// batch, and ineligible scenarios (oracle policy, post-extraction)
    /// stay scalar — but everything still lands in submission order.
    #[test]
    fn lane_grouping_respects_goal_policy_and_family_boundaries() {
        let goal = |target| RunGoal::UntilFirings {
            process: 0,
            target,
            max_cycles: 50_000,
        };
        let base = |label: &str, g, lane: u32, seed: u64| {
            Scenario::<u64>::new(label, ShellConfig::strict(), g, || ring(2, 1))
                .with_lane_key("ring2")
                .with_stall_schedule(StallSchedule::new(seed, 1, lane))
        };
        let scenarios = vec![
            base("a", goal(50), 0, 7),
            base("b", goal(50), 1, 7),
            base("c", goal(90), 0, 7),  // different goal -> own batch
            base("d", goal(50), 2, 11), // different family -> own batch
            Scenario::<u64>::new("e", ShellConfig::oracle(), goal(50), || ring(2, 1))
                .with_lane_key("ring2"), // oracle -> scalar
        ];
        let (outcomes, stats) = SweepRunner::new(1).run_with_stats(scenarios);
        let labels: Vec<String> = outcomes
            .iter()
            .map(|o| o.as_ref().expect("completes").label.clone())
            .collect();
        assert_eq!(labels, ["a", "b", "c", "d", "e"]);
        assert_eq!(stats.lane_batches, 3, "{{a,b}}, {{c}}, {{d}}");
        assert_eq!(stats.lanes_filled, 4);
        assert_eq!(stats.lane_fallbacks, 0);
    }

    /// A lane key that lies — the built systems differ structurally — trips
    /// the execution-time defense: the batch is demoted to the scalar
    /// kernel and still produces the correct per-scenario outcomes.
    #[test]
    fn structural_mismatch_falls_back_to_the_scalar_kernel() {
        let scenarios: Vec<Scenario<u64>> = (2..4usize)
            .map(|stages| {
                Scenario::new(
                    format!("ring_m{stages}"),
                    ShellConfig::strict(),
                    RunGoal::UntilFirings {
                        process: 0,
                        target: 60,
                        max_cycles: 50_000,
                    },
                    move || ring(stages, 1),
                )
                .with_lane_key("lying_key")
            })
            .collect();
        let reference: Vec<SweepOutcome> = scenarios
            .iter()
            .map(|s| execute(s).expect("ring completes"))
            .collect();
        let (outcomes, stats) = SweepRunner::new(2).run_with_stats(scenarios);
        let outcomes: Vec<SweepOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("ring completes"))
            .collect();
        assert_eq!(outcomes, reference);
        assert_eq!(stats.lane_batches, 0);
        assert_eq!(stats.lanes_filled, 0);
        assert_eq!(stats.lane_fallbacks, 2);
    }

    /// Lane batches propagate per-lane errors with the scenario's label,
    /// exactly like the scalar path.
    #[test]
    fn lane_batch_errors_carry_the_scenario_label() {
        let scenarios: Vec<Scenario<u64>> = (0..3usize)
            .map(|k| {
                Scenario::new(
                    format!("short_{k}"),
                    ShellConfig::strict(),
                    RunGoal::UntilFirings {
                        process: 0,
                        target: 1_000,
                        max_cycles: 20,
                    },
                    move || ring(2, k),
                )
                .with_lane_key("ring2")
            })
            .collect();
        let (outcomes, stats) = SweepRunner::new(1).run_with_stats(scenarios);
        assert_eq!(stats.lane_batches, 1);
        for (k, outcome) in outcomes.iter().enumerate() {
            let err = outcome.as_ref().expect_err("budget exceeded");
            assert_eq!(err.label, format!("short_{k}"));
            assert!(matches!(err.error, SimError::MaxCyclesExceeded { .. }));
        }
    }

    /// Pins the steal-size contract: at most half of the victim's
    /// remainder, rounded down; a lone remaining index may be stolen whole;
    /// never more than the batch.
    #[test]
    fn steal_take_takes_at_most_half_but_can_take_a_lone_index() {
        assert_eq!(steal_take(0, 8), 0, "nothing to steal from an empty deque");
        assert_eq!(steal_take(1, 8), 1, "a lone index is stolen whole");
        assert_eq!(steal_take(2, 8), 1);
        assert_eq!(steal_take(3, 8), 1, "half of 3 rounds down");
        assert_eq!(steal_take(4, 8), 2);
        assert_eq!(steal_take(9, 8), 4);
        assert_eq!(steal_take(100, 8), 8, "the batch caps the transfer");
        assert_eq!(steal_take(1, 1), 1);
        for len in 2..50 {
            assert!(
                steal_take(len, usize::MAX) <= len / 2,
                "len {len}: stole more than half the remainder"
            );
        }
    }

    /// Ring scenarios verified against their golden twins: every scenario
    /// must come back equivalent with a positive proven N, and — exactly
    /// like the unverified sweep — the results must not depend on the
    /// worker count or the batch size.
    #[test]
    fn equivalence_check_reports_proven_n_independent_of_scheduling() {
        let verified_scenarios = || -> Vec<Scenario<u64>> {
            let mut scenarios = Vec::new();
            for stages in 2..=4usize {
                for rs in 0..=2usize {
                    scenarios.push(
                        Scenario::new(
                            format!("ring_m{stages}_n{rs}"),
                            ShellConfig::strict(),
                            RunGoal::UntilFirings {
                                process: 0,
                                target: 300, // > EQUIVALENCE_CHUNK cycles of work
                                max_cycles: 50_000,
                            },
                            move || ring(stages, rs),
                        )
                        .with_equivalence_check(move || ring(stages, rs)),
                    );
                }
            }
            scenarios
        };
        let reference: Vec<SweepOutcome> = verified_scenarios()
            .iter()
            .map(|s| execute(s).expect("ring scenario completes"))
            .collect();
        for outcome in &reference {
            let report = outcome
                .equivalence
                .as_ref()
                .expect("equivalence check was enabled");
            assert!(report.is_equivalent(), "{}: {report}", outcome.label);
            assert!(
                report.proven_n() >= 250,
                "{}: proven N {} too small for 300 firings",
                outcome.label,
                report.proven_n()
            );
        }
        for (workers, batch) in [(1, 0), (4, 1), (8, 3)] {
            let mut runner = SweepRunner::new(workers);
            if batch > 0 {
                runner = runner.with_batch(batch);
            }
            let outcomes: Vec<SweepOutcome> = runner
                .run(verified_scenarios())
                .into_iter()
                .map(|o| o.expect("ring scenario completes"))
                .collect();
            assert_eq!(outcomes, reference, "workers = {workers}, batch = {batch}");
        }
    }

    /// A golden twin computing different values must be flagged with a
    /// `Mismatch` at the first diverging position.
    #[test]
    fn equivalence_check_detects_a_diverging_golden_twin() {
        use crate::testutil::Terminator;
        use wp_core::{ChannelVerdict, SequenceSource};

        let pipeline = |vals: &'static [u64]| {
            move || {
                let mut b = SystemBuilder::new();
                let src = b.add_process(Box::new(SequenceSource::new("src", vals.to_vec(), 0u64)));
                let term = b.add_process(Box::new(Terminator::new("term")));
                b.connect("c", src, 0, term, 0, 0);
                b
            }
        };
        let scenarios = vec![Scenario::<u64>::new(
            "diverges",
            ShellConfig::strict(),
            RunGoal::ForCycles(12),
            pipeline(&[1, 2, 9, 4]),
        )
        // The twin's source emits 3 where the candidate's emits 9.
        .with_equivalence_check(pipeline(&[1, 2, 3, 4]))];
        let outcome = SweepRunner::new(2).run(scenarios).remove(0).expect("runs");
        let report = outcome.equivalence.expect("check enabled");
        assert!(!report.is_equivalent(), "{report}");
        assert_eq!(report.proven_n(), 0);
        match &report.entries()[0].1 {
            ChannelVerdict::Mismatch { position } => {
                assert!(*position >= 1, "a matching prefix precedes the divergence")
            }
            other => panic!("expected a value mismatch, got {other:?}"),
        }
    }

    /// A golden twin realising a different channel set cannot be compared:
    /// the extra channels are reported `Unpaired`, not silently dropped.
    #[test]
    fn equivalence_check_flags_channel_count_mismatch_as_unpaired() {
        use wp_core::ChannelVerdict;
        let scenarios = vec![Scenario::<u64>::new(
            "unpaired",
            ShellConfig::strict(),
            RunGoal::ForCycles(20),
            || ring(2, 0),
        )
        .with_equivalence_check(|| ring(3, 0))];
        let outcome = SweepRunner::new(1).run(scenarios).remove(0).expect("runs");
        let report = outcome.equivalence.expect("check enabled");
        assert!(!report.is_equivalent());
        assert!(
            report
                .entries()
                .iter()
                .any(|(_, v)| *v == ChannelVerdict::Unpaired),
            "{report}"
        );
    }

    /// Oracle-enabled ring scenarios without a lane key (each runs as a
    /// one-lane batch): outcomes must be bit-identical to the plain sweep,
    /// and the stats must show that the steady-state tails were
    /// extrapolated rather than simulated.
    #[test]
    fn oracle_sweep_matches_the_plain_sweep_and_reports_the_saving() {
        let scenarios = |oracle: bool| -> Vec<Scenario<u64>> {
            let mut out = Vec::new();
            for stages in 2..=4usize {
                for rs in 0..=2usize {
                    let mut s = Scenario::new(
                        format!("ring_m{stages}_n{rs}"),
                        ShellConfig::strict(),
                        RunGoal::UntilFirings {
                            process: 0,
                            target: 20_000,
                            max_cycles: 1_000_000,
                        },
                        move || ring(stages, rs),
                    );
                    if oracle {
                        s = s.with_oracle();
                    }
                    out.push(s);
                }
            }
            out
        };
        let n = scenarios(true).len() as u64;
        let (reference, plain_stats) = SweepRunner::new(2).run_with_stats(scenarios(false));
        assert_eq!(plain_stats.oracle_extrapolations, 0);
        assert_eq!(plain_stats.oracle_simulated_cycles, 0);
        let (outcomes, stats) = SweepRunner::new(2).run_with_stats(scenarios(true));
        for (o, r) in outcomes.iter().zip(&reference) {
            let (o, r) = (
                o.as_ref().expect("completes"),
                r.as_ref().expect("completes"),
            );
            assert_eq!(o, r, "{}", o.label);
        }
        assert_eq!(stats.oracle_extrapolations, n, "every ring extrapolates");
        assert_eq!(stats.oracle_fallbacks, 0);
        assert!(
            stats.oracle_simulated_cycles * 10 <= stats.oracle_extrapolated_cycles,
            "simulated {} vs extrapolated {}",
            stats.oracle_simulated_cycles,
            stats.oracle_extrapolated_cycles
        );
    }

    /// Oracle + lane batching compose: the batch runs bit-parallel AND
    /// extrapolates, still matching the all-scalar plain sweep exactly.
    #[test]
    fn oracle_lane_batches_match_the_scalar_sweep() {
        let scenarios = |oracle: bool, lane: bool| -> Vec<Scenario<u64>> {
            (0..6usize)
                .map(|k| {
                    let rs = k % 3;
                    let mut s = Scenario::new(
                        format!("ring_k{k}"),
                        ShellConfig::strict(),
                        RunGoal::UntilFirings {
                            process: 0,
                            target: 20_000,
                            max_cycles: 1_000_000,
                        },
                        move || ring(3, rs),
                    );
                    if oracle {
                        s = s.with_oracle();
                    }
                    if lane {
                        s = s.with_lane_key("ring3");
                    }
                    s
                })
                .collect()
        };
        let reference: Vec<SweepOutcome> = scenarios(false, false)
            .iter()
            .map(|s| execute(s).expect("scalar ring completes"))
            .collect();
        let (outcomes, stats) = SweepRunner::new(2).run_with_stats(scenarios(true, true));
        let outcomes: Vec<SweepOutcome> = outcomes
            .into_iter()
            .map(|o| o.expect("lane ring completes"))
            .collect();
        assert_eq!(outcomes, reference);
        assert_eq!(stats.lane_batches, 1, "one shared netlist, one batch");
        assert_eq!(stats.lanes_filled, 6);
        assert_eq!(stats.oracle_extrapolations, 6);
        assert!(stats.oracle_simulated_cycles * 10 <= stats.oracle_extrapolated_cycles);
    }

    /// Scenarios that need the post-goal simulator — a drain, a post
    /// extraction, recorded traces — never take the oracle path even when
    /// they opted in; their outcomes are untouched.
    #[test]
    fn oracle_opt_in_is_ignored_for_ineligible_scenarios() {
        let goal = RunGoal::UntilFirings {
            process: 0,
            target: 200,
            max_cycles: 100_000,
        };
        let scenarios = vec![
            Scenario::<u64>::new("drained", ShellConfig::strict(), goal, || ring(2, 1))
                .with_drain(4, 100)
                .with_oracle(),
            Scenario::<u64>::new("posted", ShellConfig::strict(), goal, || ring(2, 1))
                .with_oracle()
                .with_post(|_sim| ()),
            Scenario::<u64>::new("traced", ShellConfig::strict(), goal, || ring(2, 1))
                .with_traces()
                .with_oracle(),
        ];
        let (outcomes, stats) = SweepRunner::new(1).run_with_stats(scenarios);
        assert!(outcomes.iter().all(Result::is_ok));
        assert_eq!(stats.lane_batches, 0, "every run needed the scalar kernel");
        assert_eq!(stats.oracle_extrapolations, 0);
        assert_eq!(stats.oracle_fallbacks, 0);
        assert_eq!(stats.oracle_simulated_cycles, 0);
    }

    /// An oracle scenario under the non-strict policy never reaches the
    /// lane kernel: the sweep simulates it plainly, with the same outcome
    /// as without the opt-in, and counts it as a fallback whose every cycle
    /// was simulated.
    #[test]
    fn oracle_scenarios_under_wp2_fall_back_and_are_counted() {
        let goal = RunGoal::UntilFirings {
            process: 0,
            target: 200,
            max_cycles: 100_000,
        };
        let scenario = |oracle: bool| {
            let mut s = Scenario::<u64>::new("wp2", ShellConfig::oracle(), goal, || ring(2, 1));
            if oracle {
                s = s.with_oracle();
            }
            vec![s]
        };
        let reference = SweepRunner::new(1).run(scenario(false)).remove(0).unwrap();
        let (outcomes, stats) = SweepRunner::new(1).run_with_stats(scenario(true));
        assert_eq!(outcomes[0].as_ref().unwrap(), &reference);
        assert_eq!(stats.oracle_fallbacks, 1);
        assert_eq!(stats.oracle_extrapolations, 0);
        assert_eq!(stats.oracle_extrapolated_cycles, 0);
        assert_eq!(stats.oracle_simulated_cycles, reference.report.cycles);
        assert_eq!(stats.lane_batches, 0);
    }

    /// The oracle route outside a packed batch.  A strict oracle scenario
    /// with no lane key runs as a one-lane batch and extrapolates, equal to
    /// the plain sweep's outcome.  One the lane kernel rejects (queue
    /// capacity 1) goes to the plain kernel, which rejects it with the same
    /// error, and nothing is tallied.
    #[test]
    fn unpacked_oracle_scenarios_run_as_one_lane_batches() {
        let goal = RunGoal::UntilFirings {
            process: 0,
            target: 5_000,
            max_cycles: 1_000_000,
        };
        let run = |scenario: Scenario<u64>| {
            let reference = execute(&scenario).expect("plain run completes");
            let (mut outcomes, stats) =
                SweepRunner::new(1).run_with_stats(vec![scenario.with_oracle()]);
            assert_eq!(outcomes.remove(0).expect("oracle run completes"), reference);
            (reference, stats)
        };

        let (_, stats) = run(Scenario::new("ring", ShellConfig::strict(), goal, || {
            ring(3, 2)
        }));
        assert_eq!(
            stats.lane_batches, 1,
            "the unpacked scenario is a batch of one"
        );
        assert_eq!(stats.lanes_filled, 1);
        assert_eq!(stats.oracle_extrapolations, 1);
        assert_eq!(stats.oracle_fallbacks, 0);

        let one_slot = ShellConfig::strict().with_fifo_capacity(1);
        let scenario = || Scenario::new("one slot", one_slot, goal, || ring(3, 2));
        let plain = execute(&scenario()).expect_err("capacity 1 is rejected");
        let (mut outcomes, stats) =
            SweepRunner::new(1).run_with_stats(vec![scenario().with_oracle()]);
        let oracle = outcomes.remove(0).expect_err("capacity 1 is rejected");
        assert!(
            matches!(oracle.error, SimError::InvalidSystem(_)),
            "{}",
            oracle.error
        );
        assert_eq!(oracle.error.to_string(), plain.error.to_string());
        assert_eq!(stats.lane_batches, 0, "the lane kernel rejects capacity 1");
        assert_eq!(stats.oracle_fallbacks + stats.oracle_extrapolations, 0);
        assert_eq!(stats.oracle_simulated_cycles, 0);
    }

    /// `with_traces` + `with_equivalence_check`: the caller's traces must
    /// survive the streaming comparison (no chunk clearing).
    #[test]
    fn equivalence_check_preserves_requested_traces() {
        let cycles = 3 * EQUIVALENCE_CHUNK; // force several chunks
        let scenarios = vec![Scenario::<u64>::new(
            "traced",
            ShellConfig::strict(),
            RunGoal::ForCycles(cycles),
            || ring(2, 0),
        )
        .with_traces()
        .with_equivalence_check(|| ring(2, 0))
        .with_post(move |sim| {
            let traces = sim.traces();
            traces.len() == 2 && traces.iter().all(|t| t.len() == cycles as usize)
        })];
        let outcome = SweepRunner::new(1).run(scenarios).remove(0).expect("runs");
        assert_eq!(outcome.post, Some(true), "traces were clipped or cleared");
        let report = outcome.equivalence.expect("check enabled");
        assert!(report.is_equivalent(), "{report}");
    }
}

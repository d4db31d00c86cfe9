//! Sweep-scheduler and sharding flags shared by every experiment binary.
//!
//! All experiment binaries (and the `matmul_sweep` example) drive their
//! wire-pipelined runs through `wp_sim::SweepRunner`; this module gives them
//! one uniform way to control the scheduler from the command line:
//!
//! * `--workers N` — worker threads (`0`, the default, selects
//!   `std::thread::available_parallelism`);
//! * `--batch N` — scenario indices transferred per steal (`0`, the
//!   default, selects the auto heuristic; `1` moves work one scenario at a
//!   time).  Workers always lease one scenario per deque lock, so queued
//!   work stays stealable regardless of the batch size;
//! * `--lanes on|off|auto` — whether scenarios are tagged for the
//!   lane-packed bit-parallel kernel (`wp_sim::LaneLidSimulator`).  `auto`
//!   (the default) behaves as `on`: tagged scenarios that qualify
//!   (control-plane-only, see the README's *Lane-packed simulation* — in
//!   `table1`, the WP1 rows converted by `--oracle on`) are stepped
//!   64-per-instruction, and everything else falls back to the scalar
//!   kernel, so results are identical either way.  `off` never tags,
//!   pinning the scalar path;
//! * `--oracle on|off|auto` — whether eligible strict-policy (WP1) runs
//!   are re-expressed as firing goals and allowed to extrapolate their
//!   steady state with the analytical period oracle
//!   (`wp_sim::Scenario::with_oracle`, see the README's *Analytical
//!   oracle*).  `off` (the default) simulates everything plainly; `on`
//!   extrapolates (bit-identical cycle counts, orders of magnitude fewer
//!   simulated cycles); `auto` additionally re-runs one converted row by
//!   full simulation and fails on any mismatch.
//!
//! The sharding binaries (`table1`, `figure1`, `ablation_fifo`,
//! `ablation_oracle`, `dse`) additionally accept the process-sharding flags
//! ([`ShardArgs`], backed by `wp_dist`):
//!
//! * `--shards N` — the parent mode: fork up to `N` worker processes (one
//!   contiguous submission-order range each, at most one per row,
//!   re-invoking the current executable), retry a failed worker, merge
//!   their NDJSON results and print exactly what a single-process run
//!   prints;
//! * `--shard i/N` — the worker mode: run only shard `i`'s range and emit
//!   NDJSON records (implies `--emit-ndjson`);
//! * `--shard-range A..B` — an explicit submission-order range overriding
//!   the uniform `i/N` split; the dispatching parent appends it, so a
//!   worker runs exactly the rows the parent planned for it;
//! * `--emit-ndjson` — emit one machine-readable JSON record per result
//!   row on stdout instead of the human-readable report.
//!
//! None of the sharding binaries branches on these modes: each describes
//! its rows once (a row count, a closure computing the rows of a
//! submission-order range, the row's NDJSON encoder and decoder) and calls
//! the one row driver, [`ShardArgs::run_rows`], which runs the mode and
//! hands back the rows to publish — all of them in process and in the
//! parent, none in a worker.
//!
//! Both the `--flag value` and the `--flag=value` spellings are accepted.
//! Parsing returns [`ArgError`] instead of exiting, so it is unit-testable;
//! the binaries keep exiting with status 2 through [`ArgError::exit`], and
//! report runtime errors the same way with status 1 through
//! [`exit_on_error`].

use std::fmt;
use std::ops::Range;

use wp_dist::{run_dispatched, Json, ShardPlan, ShardSpec};
use wp_sim::{SweepRunner, SweepStats};

/// A malformed command line, as reported by [`flag_value`] and
/// [`SweepArgs::from_args`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A flag was present but no value followed it (either the command line
    /// ended, or the next token was another `--flag` — `--json --quick` is
    /// a forgotten value, not a report named `--quick`).
    MissingValue {
        /// The flag missing its value.
        flag: String,
    },
    /// A flag's value failed to parse.
    InvalidValue {
        /// The offending flag.
        flag: String,
        /// The raw value given.
        value: String,
        /// What the flag expects (e.g. "a non-negative integer").
        expected: &'static str,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue { flag } => write!(f, "{flag} expects a value"),
            ArgError::InvalidValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag} expects {expected}, got '{value}'"),
        }
    }
}

impl std::error::Error for ArgError {}

impl ArgError {
    /// Prints the error and exits with status 2, the argument-error exit
    /// code shared by all experiment binaries.  Only the binaries call
    /// this; library code propagates the error.
    pub fn exit(&self) -> ! {
        eprintln!("error: {self}");
        std::process::exit(2);
    }
}

/// Ends a binary whose fallible body failed: prints `error: ` and the
/// error's `Display` text on stderr, like [`ArgError::exit`], and exits
/// with status 1, the runtime-failure code (2 is reserved for argument
/// errors).  A binary's `main` is `exit_on_error(run())`.
pub fn exit_on_error<E: fmt::Display>(result: Result<(), E>) {
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Scans `args` for the flag `name` and returns its value, accepting both
/// the `--flag value` and the `--flag=value` spelling.
///
/// A separate value token must not itself be a `--`-prefixed flag; a
/// single-dash token like `-1` *is* taken as the value (and then rejected
/// by the caller's parse with a precise message, rather than a confusing
/// "expects a value" here).  Returns `Ok(None)` when the flag is absent.
///
/// # Errors
///
/// Returns [`ArgError::MissingValue`] when the flag is present without a
/// usable value (including the empty `--flag=`).
pub fn flag_value(args: &[String], name: &str) -> Result<Option<String>, ArgError> {
    for (i, arg) in args.iter().enumerate() {
        if arg == name {
            return match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(v) => Ok(Some(v.clone())),
                None => Err(ArgError::MissingValue {
                    flag: name.to_string(),
                }),
            };
        }
        if let Some(v) = arg
            .strip_prefix(name)
            .and_then(|rest| rest.strip_prefix('='))
        {
            return if v.is_empty() {
                Err(ArgError::MissingValue {
                    flag: name.to_string(),
                })
            } else {
                Ok(Some(v.to_string()))
            };
        }
    }
    Ok(None)
}

/// The `--lanes` modes: whether the experiment binaries tag their sweep
/// scenarios for the lane-packed bit-parallel kernel.
///
/// Tagging alone never changes results: the sweep scheduler only packs
/// scenarios that qualify for the control-plane kernel and demotes the
/// rest to the scalar kernel per scenario.  Plain `table1` rows read the
/// architectural state back and always demote; the WP1 rows that
/// `--oracle on` converts to firing goals qualify and run lane-packed.
/// Untagged, those rows still run on the lane kernel — its period oracle
/// is the only one — as one-lane batches, so the CI byte-for-byte diff of
/// `table1 --quick --oracle on --lanes on` vs `--lanes off` pins that
/// packing never changes a result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LaneMode {
    /// Tag every scenario; qualifying ones run lane-packed.
    On,
    /// Never tag; nothing is packed (extrapolating rows still run as
    /// one-lane batches, everything else on the scalar kernel).
    Off,
    /// The default; currently behaves exactly as [`LaneMode::On`] because
    /// qualification is decided per scenario anyway.
    #[default]
    Auto,
}

impl LaneMode {
    /// Whether scenarios should be tagged for lane packing.
    pub fn tags_lanes(self) -> bool {
        !matches!(self, LaneMode::Off)
    }

    /// The command-line spelling of this mode.
    pub fn label(self) -> &'static str {
        match self {
            LaneMode::On => "on",
            LaneMode::Off => "off",
            LaneMode::Auto => "auto",
        }
    }
}

/// The `--oracle` modes: whether the experiment binaries re-express their
/// eligible strict-policy (WP1) runs as firing goals and let the period
/// oracle extrapolate the steady state
/// (`wp_sim::LaneLidSimulator::run_until_firings_extrapolated`; a row that
/// is not packed into a lane batch runs as a batch of one, so `--lanes`
/// changes only the packing).
///
/// Extrapolation never changes a reported cycle or firing count — the
/// oracle verifies a full period before extrapolating and falls back to
/// plain simulation otherwise (the CI byte-for-byte diff of `table1
/// --quick --oracle on` vs `--oracle off` pins this).  The default is
/// `off`, unlike `--lanes`, because oracle rows skip the post-run memory
/// read-back (an extrapolated run's architectural state is frozen at the
/// last simulated cycle): the cycle columns are bit-identical, but one
/// cross-check fewer runs, so extrapolation stays an explicit opt-in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum OracleMode {
    /// Convert every eligible WP1 run to an extrapolating firing goal.
    On,
    /// The default: plain simulation everywhere.
    #[default]
    Off,
    /// As [`OracleMode::On`], plus an empirical spot-check: `table1`
    /// re-runs its first converted row by full simulation and fails on any
    /// cycle-count mismatch (the ring experiments treat `auto` as `on`;
    /// their extrapolation exactness is pinned by the `wp_sim` tests).
    Auto,
}

impl OracleMode {
    /// Whether eligible WP1 runs should be converted to extrapolating
    /// firing goals.
    pub fn converts_rows(self) -> bool {
        !matches!(self, OracleMode::Off)
    }

    /// Whether one converted row should additionally be re-run by full
    /// simulation and compared ([`OracleMode::Auto`]).
    pub fn spot_verifies(self) -> bool {
        matches!(self, OracleMode::Auto)
    }

    /// Reports the period-oracle saving of `sweeps` on stderr when this
    /// mode converts rows — never on stdout, which stays byte-identical
    /// across `--oracle` modes.  Each process reports the sweeps it ran, so
    /// a sharded run prints one line per worker.
    pub fn report_saving<'a>(self, sweeps: impl IntoIterator<Item = &'a SweepStats>) {
        if !self.converts_rows() {
            return;
        }
        let (mut simulated, mut total, mut extrapolations, mut fallbacks) = (0, 0, 0, 0);
        for stats in sweeps {
            simulated += stats.oracle_simulated_cycles;
            total += stats.oracle_simulated_cycles + stats.oracle_extrapolated_cycles;
            extrapolations += stats.oracle_extrapolations;
            fallbacks += stats.oracle_fallbacks;
        }
        eprintln!(
            "oracle: simulated {simulated} of {total} cycles ({}x saving), \
             {extrapolations} extrapolation(s), {fallbacks} fallback(s)",
            total.checked_div(simulated).unwrap_or(0),
        );
    }

    /// The command-line spelling of this mode.
    pub fn label(self) -> &'static str {
        match self {
            OracleMode::On => "on",
            OracleMode::Off => "off",
            OracleMode::Auto => "auto",
        }
    }
}

/// Parsed `--workers` / `--batch` / `--lanes` / `--oracle` scheduler flags.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepArgs {
    /// Worker thread count (`0` = available parallelism).
    pub workers: usize,
    /// Steal-transfer batch size (`0` = auto heuristic).
    pub batch: usize,
    /// Lane-packing mode (`--lanes on|off|auto`, default `auto`).
    pub lanes: LaneMode,
    /// Period-oracle mode (`--oracle on|off|auto`, default `off`).
    pub oracle: OracleMode,
}

impl SweepArgs {
    /// Parses the scheduler flags out of the process arguments, ignoring
    /// any flags it does not know.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on a malformed or missing value; binaries
    /// report it with [`ArgError::exit`] (status 2).
    pub fn from_env() -> Result<Self, ArgError> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_args(&args)
    }

    /// [`SweepArgs::from_env`] over an explicit argument list.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on a malformed or missing value.
    pub fn from_args(args: &[String]) -> Result<Self, ArgError> {
        let parse = |name: &'static str| -> Result<usize, ArgError> {
            match flag_value(args, name)? {
                None => Ok(0),
                Some(v) => v.parse().map_err(|_| ArgError::InvalidValue {
                    flag: name.to_string(),
                    value: v,
                    expected: "a non-negative integer",
                }),
            }
        };
        let lanes = match flag_value(args, "--lanes")? {
            None => LaneMode::Auto,
            Some(v) => match v.as_str() {
                "on" => LaneMode::On,
                "off" => LaneMode::Off,
                "auto" => LaneMode::Auto,
                _ => {
                    return Err(ArgError::InvalidValue {
                        flag: "--lanes".to_string(),
                        value: v,
                        expected: "one of on, off, auto",
                    })
                }
            },
        };
        let oracle = match flag_value(args, "--oracle")? {
            None => OracleMode::Off,
            Some(v) => match v.as_str() {
                "on" => OracleMode::On,
                "off" => OracleMode::Off,
                "auto" => OracleMode::Auto,
                _ => {
                    return Err(ArgError::InvalidValue {
                        flag: "--oracle".to_string(),
                        value: v,
                        expected: "one of on, off, auto",
                    })
                }
            },
        };
        Ok(Self {
            workers: parse("--workers")?,
            batch: parse("--batch")?,
            lanes,
            oracle,
        })
    }

    /// Builds the configured [`SweepRunner`].
    pub fn runner(&self) -> SweepRunner {
        SweepRunner::new(self.workers).with_batch(self.batch)
    }
}

/// Parsed `--shards` / `--shard` / `--shard-range` /
/// `--emit-ndjson` process-sharding flags (see the module docs for the
/// protocol).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardArgs {
    /// Worker-process count requested with `--shards N` (`0` and `1` both
    /// mean "run in this process").
    pub shards: usize,
    /// This process's worker identity, when `--shard i/N` was given.
    pub shard: Option<ShardSpec>,
    /// The explicit submission-order range from `--shard-range A..B`,
    /// overriding the uniform `i/N` split (appended by the dispatching
    /// parent).
    pub range: Option<Range<usize>>,
    /// Whether to emit NDJSON records instead of the human-readable report
    /// (`--emit-ndjson`, implied by `--shard`).
    emit_ndjson: bool,
}

impl ShardArgs {
    /// Parses the sharding flags out of the process arguments, ignoring
    /// any flags it does not know.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on a malformed value or when `--shards` and
    /// `--shard` are combined (the parent strips `--shards` from the argv
    /// it hands to workers, so seeing both means a mis-assembled command
    /// line).
    pub fn from_env() -> Result<Self, ArgError> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_args(&args)
    }

    /// [`ShardArgs::from_env`] over an explicit argument list.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on a malformed value or a conflicting
    /// combination (`--shards` and `--shard` are mutually exclusive, the
    /// parent mode rejects `--emit-ndjson`, and `--shard-range` is only
    /// meaningful next to `--shard`).
    pub fn from_args(args: &[String]) -> Result<Self, ArgError> {
        let shards = match flag_value(args, "--shards")? {
            None => 0,
            Some(v) => v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                ArgError::InvalidValue {
                    flag: "--shards".to_string(),
                    value: v,
                    expected: "a positive integer",
                }
            })?,
        };
        let shard = match flag_value(args, "--shard")? {
            None => None,
            Some(v) => Some(ShardSpec::parse(&v).map_err(|_| ArgError::InvalidValue {
                flag: "--shard".to_string(),
                value: v,
                expected: "i/N with i < N (e.g. 0/4)",
            })?),
        };
        let range = match flag_value(args, "--shard-range")? {
            None => None,
            Some(v) => Some(parse_range(&v).ok_or_else(|| ArgError::InvalidValue {
                flag: "--shard-range".to_string(),
                value: v,
                expected: "A..B with A <= B (e.g. 4..8)",
            })?),
        };
        let conflict = |flag: &str, value: String, expected: &'static str| {
            Err(ArgError::InvalidValue {
                flag: flag.to_string(),
                value,
                expected,
            })
        };
        if shards > 1 && shard.is_some() {
            return conflict(
                "--shards",
                shards.to_string(),
                "to not be combined with --shard (workers are spawned by the parent)",
            );
        }
        if range.is_some() && shard.is_none() {
            return conflict(
                "--shard-range",
                "".to_string(),
                "to be combined with --shard i/N (the dispatching parent appends both)",
            );
        }
        let emit_ndjson = args.iter().any(|a| a == "--emit-ndjson");
        if shards > 1 && emit_ndjson {
            // The parent merges and prints the human-readable report; a
            // forked NDJSON stream is not defined.  Rejecting here keeps
            // `run_rows`'s mode choice unambiguous: it checks for the parent
            // before the worker.
            return conflict(
                "--emit-ndjson",
                "".to_string(),
                "to not be combined with --shards (drop --shards for NDJSON output)",
            );
        }
        Ok(Self {
            shards,
            shard,
            range,
            emit_ndjson: emit_ndjson || shard.is_some(),
        })
    }

    /// The one row driver of every sharding binary: runs `n_rows`
    /// submission-order result rows in this invocation's mode.
    ///
    /// * In process — returns `compute(0..n_rows)`.
    /// * Worker (`--shard i/N` / `--emit-ndjson`) — computes only this
    ///   worker's range, prints `encode(index, row)` as one NDJSON record
    ///   per row and returns `None`: a worker has nothing to publish.
    /// * Parent (`--shards N`) — dispatches the rows to one worker process
    ///   per populated shard through [`wp_dist::run_dispatched`] (retries,
    ///   the machine's cores shared among the workers) and returns their
    ///   records decoded in index order.
    ///
    /// `compute` returns the rows of a range in order; `encode` writes one
    /// single-line record whose `"index"` member is the row's global
    /// index; `decode` reads a record back for the row its index names and,
    /// when the record carries an identity member (a label, a table
    /// number), must reject one that names another row, so a mismatched
    /// worker binary fails loudly instead of corrupting the merged output.  `noun` names a row in the
    /// dispatch log and in decode errors; `gate` reports the equivalence
    /// gate there (`None` for binaries without one).  Callers print the
    /// returned rows themselves, so one publishing path serves the
    /// in-process run and the parent alike.
    ///
    /// # Errors
    ///
    /// Propagates `compute`'s errors, dispatch failures and the first
    /// record `decode` rejects, naming its row.
    pub fn run_rows<R>(
        &self,
        n_rows: usize,
        noun: &str,
        gate: Option<bool>,
        compute: impl FnOnce(Range<usize>) -> Result<Vec<R>, Box<dyn std::error::Error>>,
        encode: impl Fn(usize, &R) -> String,
        mut decode: impl FnMut(usize, &Json) -> Result<R, String>,
    ) -> Result<Option<Vec<R>>, Box<dyn std::error::Error>> {
        if self.is_parent() {
            let records = self.run_sharded_rows(n_rows, noun, gate)?;
            let rows = records
                .iter()
                .enumerate()
                .map(|(index, record)| {
                    decode(index, record)
                        .map_err(|e| format!("worker record for {noun} {index}: {e}"))
                })
                .collect::<Result<_, _>>()?;
            return Ok(Some(rows));
        }
        let range = self.worker_range(n_rows);
        let rows = compute(range.clone())?;
        assert_eq!(rows.len(), range.len(), "one {noun} per index of {range:?}");
        if !self.emit_ndjson {
            return Ok(Some(rows));
        }
        for (index, row) in range.zip(&rows) {
            println!("{}", encode(index, row));
        }
        Ok(None)
    }

    /// Whether this invocation is the `--shards N` parent (it should spawn
    /// workers instead of sweeping itself).
    fn is_parent(&self) -> bool {
        self.shards > 1
    }

    /// The submission-order range this worker runs, out of `n_items` total:
    /// the explicit `--shard-range` when present (clamped to `n_items`),
    /// else the uniform split of `--shard i/N`, else everything.
    fn worker_range(&self, n_items: usize) -> Range<usize> {
        if let Some(range) = &self.range {
            return range.start.min(n_items)..range.end.min(n_items);
        }
        match self.shard {
            Some(spec) => spec.range(n_items),
            None => 0..n_items,
        }
    }

    /// The argv for worker `shard`: this process's own arguments with the
    /// parent-side flags (`--shards`, stale `--shard` / `--shard-range` /
    /// `--emit-ndjson`) removed and `--shard i/N --shard-range A..B
    /// --emit-ndjson` appended.  The explicit range makes the worker
    /// independent of how the parent planned the split, and stripping
    /// `--shards` guarantees a worker never re-dispatches.
    fn worker_args(args: &[String], shard: ShardSpec, range: &Range<usize>) -> Vec<String> {
        const PARENT_FLAGS: [&str; 3] = ["--shards", "--shard", "--shard-range"];
        let mut out = Vec::with_capacity(args.len() + 5);
        let mut skip_value = false;
        for arg in args {
            if skip_value {
                skip_value = false;
                continue;
            }
            if PARENT_FLAGS.contains(&arg.as_str()) {
                // The separate-value spelling: also drop the value token
                // (unless it is the next flag, which `flag_value` would
                // have rejected anyway).
                skip_value = true;
                continue;
            }
            if PARENT_FLAGS
                .iter()
                .any(|flag| arg.strip_prefix(flag).is_some_and(|r| r.starts_with('=')))
                || arg == "--emit-ndjson"
            {
                continue;
            }
            out.push(arg.clone());
        }
        out.push("--shard".to_string());
        out.push(shard.to_string());
        out.push("--shard-range".to_string());
        out.push(format!("{}..{}", range.start, range.end));
        out.push("--emit-ndjson".to_string());
        out
    }

    /// The parent side of [`ShardArgs::run_rows`]: plans `n_items` result
    /// rows over the `--shards N` worker processes (`local_plan`), logs
    /// the dispatch to stderr (`noun` names a row, e.g. "table row"; `gate`
    /// reports the equivalence gate, or `None` for binaries without one),
    /// spawns one worker per populated shard — a re-invocation of the
    /// current executable — through [`wp_dist::run_dispatched`] and
    /// returns the merged NDJSON records in submission order.
    ///
    /// When the command line did not pin `--workers`, every worker is
    /// handed an equal share of the machine's cores: at least one, and
    /// otherwise `available_parallelism` divided by the number of workers.
    /// A forked sweep therefore does not oversubscribe the CPU with
    /// `shards × cores` threads.  Results are unaffected either way —
    /// sweep outcomes are worker-count-independent.
    ///
    /// # Errors
    ///
    /// Propagates [`std::env::current_exe`] failures and any
    /// [`wp_dist::DistError`] from the worker protocol.
    fn run_sharded_rows(
        &self,
        n_items: usize,
        noun: &str,
        gate: Option<bool>,
    ) -> Result<Vec<Json>, Box<dyn std::error::Error>> {
        let gate_note = match gate {
            Some(true) => ", equivalence gate on",
            Some(false) => ", equivalence gate off",
            None => "",
        };
        let exe = std::env::current_exe()?;
        let args: Vec<String> = std::env::args().skip(1).collect();
        let plan = local_plan(self.shards, n_items);
        let workers = plan.populated_shards().count();
        eprintln!(
            "dispatching {n_items} {noun}(s) across {workers} worker process(es) from --shards {}{gate_note}",
            self.shards,
        );
        let program = exe
            .to_str()
            .ok_or("the current executable path is not UTF-8")?;
        let workers_share = if flag_value(&args, "--workers")?.is_none() && workers > 0 {
            let cores = std::thread::available_parallelism().map_or(1, usize::from);
            Some((cores / workers).max(1))
        } else {
            None
        };
        let records = run_dispatched(&plan, program, |shard| {
            let mut worker_args = Self::worker_args(
                &args,
                ShardSpec {
                    index: shard,
                    total: plan.shards(),
                },
                &plan.range(shard),
            );
            if let Some(share) = workers_share {
                worker_args.push(format!("--workers={share}"));
            }
            worker_args
        })?;
        Ok(records)
    }
}

/// The plan of a `--shards N` run over `n_items` rows: the uniform split
/// into `min(N, n_items).max(1)` shards.  With more shards than rows every
/// populated shard holds one row either way, so the clamp changes no
/// output — it only keeps a huge `N` from planning `N` empty shards.
fn local_plan(shards: usize, n_items: usize) -> ShardPlan {
    ShardPlan::split(n_items, shards.min(n_items).max(1))
}

/// Parses the `A..B` spelling of `--shard-range` (`A <= B`).
fn parse_range(value: &str) -> Option<Range<usize>> {
    let (start, end) = value.split_once("..")?;
    let start: usize = start.parse().ok()?;
    let end: usize = end.parse().ok()?;
    (start <= end).then_some(start..end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_to_auto_everything() {
        let args = SweepArgs::from_args(&strings(&["--quick"])).expect("parses");
        assert_eq!(args.workers, 0);
        assert_eq!(args.batch, 0);
        assert_eq!(args.lanes, LaneMode::Auto);
        assert!(args.lanes.tags_lanes(), "auto behaves as on");
        assert!(args.runner().workers() >= 1);
        assert_eq!(args.runner().batch(), 0);
    }

    #[test]
    fn lane_modes_parse_and_reject_garbage() {
        for (spelling, mode, tags) in [
            ("on", LaneMode::On, true),
            ("off", LaneMode::Off, false),
            ("auto", LaneMode::Auto, true),
        ] {
            let args =
                SweepArgs::from_args(&strings(&["--lanes", spelling, "--quick"])).expect("parses");
            assert_eq!(args.lanes, mode);
            assert_eq!(args.lanes.tags_lanes(), tags);
            assert_eq!(args.lanes.label(), spelling);
        }
        let err = SweepArgs::from_args(&strings(&["--lanes=maybe"])).unwrap_err();
        assert!(err.to_string().contains("on, off, auto"), "{err}");
        assert!(SweepArgs::from_args(&strings(&["--lanes"])).is_err());
    }

    #[test]
    fn oracle_modes_parse_default_off_and_reject_garbage() {
        let args = SweepArgs::from_args(&strings(&["--quick"])).expect("parses");
        assert_eq!(args.oracle, OracleMode::Off, "extrapolation is opt-in");
        for (spelling, mode, converts, spot) in [
            ("on", OracleMode::On, true, false),
            ("off", OracleMode::Off, false, false),
            ("auto", OracleMode::Auto, true, true),
        ] {
            let args =
                SweepArgs::from_args(&strings(&["--oracle", spelling, "--quick"])).expect("parses");
            assert_eq!(args.oracle, mode);
            assert_eq!(args.oracle.converts_rows(), converts);
            assert_eq!(args.oracle.spot_verifies(), spot);
            assert_eq!(args.oracle.label(), spelling);
        }
        let err = SweepArgs::from_args(&strings(&["--oracle=maybe"])).unwrap_err();
        assert!(err.to_string().contains("on, off, auto"), "{err}");
        assert!(SweepArgs::from_args(&strings(&["--oracle"])).is_err());
    }

    #[test]
    fn parses_both_flags_anywhere() {
        let args = SweepArgs::from_args(&strings(&[
            "--batch",
            "3",
            "--program",
            "sort",
            "--workers",
            "2",
        ]))
        .expect("parses");
        assert_eq!(args.workers, 2);
        assert_eq!(args.batch, 3);
        let runner = args.runner();
        assert_eq!(runner.workers(), 2);
        assert_eq!(runner.batch(), 3);
    }

    #[test]
    fn parses_the_equals_spelling() {
        let args = SweepArgs::from_args(&strings(&["--workers=2", "--batch=7"])).expect("parses");
        assert_eq!(args.workers, 2);
        assert_eq!(args.batch, 7);
        assert_eq!(
            flag_value(&strings(&["--json=out.json"]), "--json"),
            Ok(Some("out.json".to_string()))
        );
    }

    #[test]
    fn absent_flags_return_none() {
        assert_eq!(flag_value(&strings(&["--quick"]), "--json"), Ok(None));
        assert_eq!(
            flag_value(&strings(&["--json", "out.json"]), "--json"),
            Ok(Some("out.json".to_string()))
        );
    }

    #[test]
    fn missing_values_are_reported_not_exited() {
        let missing = |flag: &str| ArgError::MissingValue {
            flag: flag.to_string(),
        };
        assert_eq!(
            flag_value(&strings(&["--json"]), "--json"),
            Err(missing("--json"))
        );
        assert_eq!(
            flag_value(&strings(&["--json", "--quick"]), "--json"),
            Err(missing("--json"))
        );
        assert_eq!(
            flag_value(&strings(&["--json="]), "--json"),
            Err(missing("--json"))
        );
        assert_eq!(
            SweepArgs::from_args(&strings(&["--workers"])),
            Err(missing("--workers"))
        );
    }

    /// `-1` is a value (later rejected by the integer parse with a precise
    /// message), not a "missing value" case.
    #[test]
    fn single_dash_tokens_are_values() {
        assert_eq!(
            flag_value(&strings(&["--workers", "-1"]), "--workers"),
            Ok(Some("-1".to_string()))
        );
        let err = SweepArgs::from_args(&strings(&["--workers", "-1"])).unwrap_err();
        assert_eq!(
            err,
            ArgError::InvalidValue {
                flag: "--workers".to_string(),
                value: "-1".to_string(),
                expected: "a non-negative integer",
            }
        );
        assert!(err.to_string().contains("-1"));
        assert!(err.to_string().contains("non-negative integer"));
    }

    #[test]
    fn prefix_flags_are_not_confused() {
        // "--batch" must not match "--batch-size" style prefixes.
        assert_eq!(flag_value(&strings(&["--batches=9"]), "--batch"), Ok(None));
    }

    #[test]
    fn shard_args_default_to_in_process() {
        let args = ShardArgs::from_args(&strings(&["--quick"])).expect("parses");
        assert_eq!(args, ShardArgs::default());
        assert!(!args.is_parent());
        assert!(!args.emit_ndjson);
    }

    #[test]
    fn shard_args_parse_the_parent_and_worker_modes() {
        let parent = ShardArgs::from_args(&strings(&["--shards", "4", "--quick"])).expect("parses");
        assert_eq!(parent.shards, 4);
        assert!(parent.is_parent());
        assert!(!parent.emit_ndjson);

        let worker = ShardArgs::from_args(&strings(&["--shard=2/4", "--quick"])).expect("parses");
        let spec = worker.shard.expect("worker mode");
        assert_eq!((spec.index, spec.total), (2, 4));
        assert!(!worker.is_parent());
        assert!(worker.emit_ndjson, "--shard implies --emit-ndjson");

        let ndjson = ShardArgs::from_args(&strings(&["--emit-ndjson"])).expect("parses");
        assert!(ndjson.emit_ndjson);
        assert!(ndjson.shard.is_none());

        // One shard is the in-process path, not the parent path.
        assert!(!ShardArgs::from_args(&strings(&["--shards", "1"]))
            .expect("parses")
            .is_parent());
    }

    #[test]
    fn shard_args_reject_malformed_and_conflicting_flags() {
        for bad in [
            vec!["--shards", "0"],
            vec!["--shards", "x"],
            vec!["--shard", "4/4"],
            vec!["--shard", "2"],
            vec!["--shards", "2", "--shard", "0/2"],
            vec!["--shards", "2", "--emit-ndjson"],
            vec!["--shard-range", "0..4"],
            vec!["--shard", "0/2", "--shard-range", "4..0"],
            vec!["--shard", "0/2", "--shard-range", "wide"],
        ] {
            assert!(
                ShardArgs::from_args(&strings(&bad)).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn an_explicit_shard_range_overrides_the_uniform_split() {
        let args = ShardArgs::from_args(&strings(&["--shard", "1/3", "--shard-range", "4..9"]))
            .expect("parses");
        assert_eq!(args.range, Some(4..9));
        assert!(args.emit_ndjson);
        // The explicit range wins over 1/3's uniform slice and clamps to
        // the item count.
        assert_eq!(args.worker_range(12), 4..9);
        assert_eq!(args.worker_range(6), 4..6);

        let uniform = ShardArgs::from_args(&strings(&["--shard", "1/3"])).expect("parses");
        assert_eq!(uniform.worker_range(12), 4..8);
        let whole = ShardArgs::from_args(&strings(&["--emit-ndjson"])).expect("parses");
        assert_eq!(whole.worker_range(12), 0..12);
    }

    #[test]
    fn worker_args_strip_the_parent_flags_and_append_the_worker_triple() {
        let spec = wp_dist::ShardSpec::parse("1/3").unwrap();
        let argv = strings(&[
            "--quick",
            "--shards",
            "3",
            "--verify",
            "--workers=2",
            "--emit-ndjson",
        ]);
        assert_eq!(
            ShardArgs::worker_args(&argv, spec, &(4..8)),
            strings(&[
                "--quick",
                "--verify",
                "--workers=2",
                "--shard",
                "1/3",
                "--shard-range",
                "4..8",
                "--emit-ndjson"
            ])
        );
        // The equals spellings and stale worker flags are stripped too (a
        // worker must never re-dispatch).
        let argv = strings(&[
            "--shards=3",
            "--shard=0/9",
            "--quick",
            "--shard-range",
            "0..2",
        ]);
        assert_eq!(
            ShardArgs::worker_args(&argv, spec, &(4..8)),
            strings(&[
                "--quick",
                "--shard",
                "1/3",
                "--shard-range",
                "4..8",
                "--emit-ndjson"
            ])
        );
    }

    /// `--shards N` forks `min(N, n).max(1)` local workers, planned with
    /// the uniform split — however large `N` is.
    #[test]
    fn shards_n_is_a_fleet_of_local_hosts() {
        for (shards, n_items) in [
            (1, 0),
            (2, 0),
            (2, 26),
            (3, 7),
            (40, 12),
            (100_000_000_000, 12),
            (usize::MAX, 12),
        ] {
            let plan = local_plan(shards, n_items);
            let slots = shards.min(n_items).max(1);
            assert_eq!(plan.shards(), slots, "--shards {shards} over {n_items}");
            assert_eq!(plan, ShardPlan::split(n_items, slots));
            assert_eq!(plan.populated_shards().count(), shards.min(n_items));
        }
    }

    #[test]
    fn parse_range_accepts_only_well_formed_ascending_ranges() {
        assert_eq!(parse_range("4..8"), Some(4..8));
        assert_eq!(parse_range("0..0"), Some(0..0));
        for bad in ["", "4", "4..", "..8", "8..4", "a..b", "4..8..9"] {
            assert_eq!(parse_range(bad), None, "{bad}");
        }
    }
}

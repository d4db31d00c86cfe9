//! Sweep-scheduler flags shared by every experiment binary, and the
//! flag-declaration helpers every binary parses its command line with.
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
//! Every binary declares the flags it accepts ([`accept_flags`]); any
//! other `--flag` — a typo, or a flag that no longer exists — is an
//! [`ArgError::UnknownFlag`].  The binaries' own flags are parsed in
//! [`crate::cli`].
//!
//! Both the `--flag value` and the `--flag=value` spellings are accepted.
//! Parsing returns [`ArgError`] instead of exiting, so it is unit-testable;
//! the binaries keep exiting with status 2 through [`ArgError::exit`], and
//! report runtime errors the same way with status 1 through
//! [`exit_on_error`].

use std::fmt;

use wp_sim::{SweepRunner, SweepStats};

/// A malformed command line, as reported by [`accept_flags`],
/// [`flag_value`] and the parsers built on them.
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
    /// A `--flag` the binary does not declare: a typo, or a flag that no
    /// longer exists.
    UnknownFlag {
        /// The flag's name, without an `=value` part.
        flag: String,
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
            ArgError::UnknownFlag { flag } => write!(f, "unknown flag {flag}"),
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
/// usable value (including the empty `--flag=` and `--flag ""`).
pub fn flag_value(args: &[String], name: &str) -> Result<Option<String>, ArgError> {
    for (i, arg) in args.iter().enumerate() {
        if arg == name {
            return match args
                .get(i + 1)
                .filter(|v| !v.is_empty() && !v.starts_with("--"))
            {
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

/// Checks that every `--flag` token of `args` is one the binary declares.
///
/// `declared` lists the accepted flags in groups (say, [`SweepArgs::FLAGS`]
/// and the binary's own).  A flag spelled with a trailing `=`
/// (`"--json="`) takes a value, in either spelling; the token after its
/// bare spelling is its value unless it is itself a `--flag` (then
/// [`flag_value`] reports the value missing).  A flag without the `=`
/// (`"--quick"`) is a switch.  Tokens without the `--` prefix —
/// positional arguments, values such as `-1` — are left to the parser.
///
/// # Errors
///
/// Returns [`ArgError::UnknownFlag`] for the first undeclared flag, and
/// [`ArgError::InvalidValue`] for a switch given a value (`--quick=yes`).
pub fn accept_flags(args: &[String], declared: &[&[&str]]) -> Result<(), ArgError> {
    let takes_value = |name: &str| {
        declared
            .iter()
            .flat_map(|group| group.iter())
            .find_map(|flag| match flag.strip_suffix('=') {
                Some(valued) => (valued == name).then_some(true),
                None => (*flag == name).then_some(false),
            })
    };
    let mut tokens = args.iter().peekable();
    while let Some(token) = tokens.next() {
        if !token.starts_with("--") {
            continue;
        }
        let (name, value) = match token.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (token.as_str(), None),
        };
        match (takes_value(name), value) {
            (None, _) => {
                return Err(ArgError::UnknownFlag {
                    flag: name.to_string(),
                })
            }
            (Some(false), Some(value)) => {
                return Err(ArgError::InvalidValue {
                    flag: name.to_string(),
                    value: value.to_string(),
                    expected: "no value (it is a switch)",
                })
            }
            (Some(true), None) if tokens.peek().is_some_and(|next| !next.starts_with("--")) => {
                tokens.next();
            }
            _ => {}
        }
    }
    Ok(())
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
    /// across `--oracle` modes.
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
    /// The scheduler flags, declared for [`accept_flags`]: every binary
    /// that sweeps accepts them.
    pub const FLAGS: &'static [&'static str] = &["--workers=", "--batch=", "--lanes=", "--oracle="];

    /// Parses the command line of a binary whose only flags are the
    /// scheduler flags (`figure1`, `loop_law`, the `matmul_sweep`
    /// example).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on an undeclared flag or a malformed or missing
    /// value; binaries report it with [`ArgError::exit`] (status 2).
    pub fn from_env() -> Result<Self, ArgError> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::only(&args)
    }

    /// [`SweepArgs::from_env`] over an explicit argument list.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on an undeclared flag or a malformed or missing
    /// value.
    pub fn only(args: &[String]) -> Result<Self, ArgError> {
        accept_flags(args, &[Self::FLAGS])?;
        Self::from_args(args)
    }

    /// Parses the scheduler flags out of `args`, leaving every other flag
    /// to the caller, which declares them all with [`accept_flags`].
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
            flag_value(&strings(&["--json", ""]), "--json"),
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
    fn declared_flags_switches_and_positionals_are_accepted() {
        let declared: &[&[&str]] = &[SweepArgs::FLAGS, &["--json=", "--quick"]];
        for args in [
            &["--quick", "--workers", "2", "--json=out.json"][..],
            &["sort", "--lanes=off", "--json", "x.json", "--oracle", "on"],
            &["--workers", "-1"],
            &["--json", "--quick"],
            &[],
        ] {
            assert_eq!(accept_flags(&strings(args), declared), Ok(()), "{args:?}");
        }
    }

    #[test]
    fn undeclared_flags_are_named_without_their_value() {
        let declared: &[&[&str]] = &[SweepArgs::FLAGS, &["--quick"]];
        let unknown = |flag: &str| ArgError::UnknownFlag {
            flag: flag.to_string(),
        };
        for (args, flag) in [
            (&["--quick", "--shards", "2"][..], "--shards"),
            (&["--shards=2"], "--shards"),
            (&["--emit-ndjson"], "--emit-ndjson"),
            (&["--hosts", "x"], "--hosts"),
            (&["--quik"], "--quik"),
            (&["--"], "--"),
            // A value token is skipped, but only after a flag taking one.
            (&["--quick", "--workers", "2", "--shard", "0/2"], "--shard"),
        ] {
            assert_eq!(
                accept_flags(&strings(args), declared),
                Err(unknown(flag)),
                "{args:?}"
            );
        }
        assert_eq!(unknown("--shards").to_string(), "unknown flag --shards");
        let err = accept_flags(&strings(&["--quick=yes"]), declared).unwrap_err();
        assert!(err.to_string().contains("no value"), "{err}");
    }

    #[test]
    fn sweep_only_binaries_reject_every_other_flag() {
        assert_eq!(
            SweepArgs::only(&strings(&["--workers=3"])).map(|a| a.workers),
            Ok(3)
        );
        assert!(SweepArgs::only(&strings(&["--verify"])).is_err());
        // `from_args` leaves the other flags to the caller's declaration.
        assert!(SweepArgs::from_args(&strings(&["--verify"])).is_ok());
    }
}

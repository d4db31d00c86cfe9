//! The command line of each experiment binary: the flags it declares and
//! the options they parse into.
//!
//! Every parser first checks the argument list against the binary's
//! declaration ([`accept_flags`]), so a mistyped or retired flag is an
//! [`ArgError`] (exit status 2), never a run with silent defaults.  The
//! parsers are pure functions of the argument list: no I/O, no exit, so the
//! property tests can feed them arbitrary argument vectors.  `figure1` and
//! `loop_law` accept only the scheduler flags ([`SweepArgs::only`]).

use wp_dse::{SearchMode, DEFAULT_EXHAUSTIVE_LIMIT, DEFAULT_STEPS, DEFAULT_UNITS, DEFAULT_WALKS};
use wp_gen::GenConfig;
use wp_spec::MAX_RELAY_STATIONS;

use crate::args::{accept_flags, flag_value, split_flags, ArgError, SweepArgs};

/// Whether the switch `name` is present.
fn switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The value of the integer flag `name`, if present.
fn number(args: &[String], name: &str, expected: &'static str) -> Result<Option<u64>, ArgError> {
    match flag_value(args, name)? {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| ArgError::InvalidValue {
            flag: name.to_string(),
            value: v,
            expected,
        }),
    }
}

/// Parses `LO:HI` into an inclusive range pair.
fn range(flag: &'static str, value: &str) -> Result<(usize, usize), ArgError> {
    let invalid = || ArgError::InvalidValue {
        flag: flag.to_string(),
        value: value.to_string(),
        expected: "a range LO:HI of positive integers",
    };
    let (lo, hi) = value.split_once(':').ok_or_else(invalid)?;
    let lo: usize = lo.parse().map_err(|_| invalid())?;
    let hi: usize = hi.parse().map_err(|_| invalid())?;
    if lo == 0 || hi < lo {
        return Err(invalid());
    }
    Ok((lo, hi))
}

/// `table1 [--program sort|matmul|both | sort|matmul|both] [--quick]
/// [--verify] [--json PATH]` plus the scheduler flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Args {
    /// Which tables to run: `sort`, `matmul` or `both` (the default).
    pub program: String,
    /// The shrunken CI smoke workloads and sweep.
    pub quick: bool,
    /// The per-scenario equivalence gate.
    pub verify: bool,
    /// Where to write the JSON report (`--quick` defaults it to
    /// `BENCH_table1.json`).
    pub json: Option<String>,
    /// The scheduler flags.
    pub sweep: SweepArgs,
}

impl Table1Args {
    /// `table1`'s own flags.
    pub const FLAGS: &'static [&'static str] = &["--program=", "--json=", "--quick", "--verify"];

    /// Parses `table1`'s argument list.  The program may also be given as
    /// one positional argument, in any position, instead of `--program`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on an undeclared flag, a malformed or missing
    /// value, an unknown program, or a positional argument beyond the one
    /// program.
    pub fn from_args(args: &[String]) -> Result<Self, ArgError> {
        let mut positionals = split_flags(args, &[SweepArgs::FLAGS, Self::FLAGS])?.into_iter();
        let flag = flag_value(args, "--program")?;
        let positional = if flag.is_none() {
            positionals.next().cloned()
        } else {
            None
        };
        if let Some(arg) = positionals.next() {
            return Err(ArgError::UnexpectedArgument { arg: arg.clone() });
        }
        let quick = switch(args, "--quick");
        let program = flag.or(positional).unwrap_or_else(|| "both".to_string());
        if !matches!(program.as_str(), "sort" | "matmul" | "both") {
            return Err(ArgError::InvalidValue {
                flag: "--program".to_string(),
                value: program,
                expected: "one of sort, matmul, both",
            });
        }
        Ok(Self {
            program,
            quick,
            verify: switch(args, "--verify"),
            json: flag_value(args, "--json")?
                .or_else(|| quick.then(|| "BENCH_table1.json".to_string())),
            sweep: SweepArgs::from_args(args)?,
        })
    }
}

/// `ablation_fifo` and `ablation_oracle`: `[--verify]` plus the scheduler
/// flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AblationArgs {
    /// The per-scenario equivalence gate.
    pub verify: bool,
    /// The scheduler flags.
    pub sweep: SweepArgs,
}

impl AblationArgs {
    /// The ablations' own flag.
    pub const FLAGS: &'static [&'static str] = &["--verify"];

    /// Parses an ablation binary's argument list.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on an undeclared flag or a malformed or missing
    /// value.
    pub fn from_args(args: &[String]) -> Result<Self, ArgError> {
        accept_flags(args, &[SweepArgs::FLAGS, Self::FLAGS])?;
        Ok(Self {
            verify: switch(args, "--verify"),
            sweep: SweepArgs::from_args(args)?,
        })
    }
}

/// The netlist-generator flags `dse` and `netlist_run` share: `[--seed S]
/// [--blocks LO:HI] [--chords LO:HI] [--max-relay N] [--latency-percent
/// P] [--clock P] [--firings N]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratorArgs {
    /// The `wp_gen` configuration, seeded with `--seed` (default 0).
    pub gen: GenConfig,
    /// The clock period of latency→relay insertion (default 1).
    pub clock: f64,
    /// The steady-state firing target of a simulated run.
    pub firings: u64,
}

impl GeneratorArgs {
    /// The generator flags.
    pub const FLAGS: &'static [&'static str] = &[
        "--seed=",
        "--blocks=",
        "--chords=",
        "--max-relay=",
        "--latency-percent=",
        "--clock=",
        "--firings=",
    ];

    /// Parses the generator flags out of `args`, with `firings` as the
    /// default firing target.
    fn from_args(args: &[String], firings: u64) -> Result<Self, ArgError> {
        let mut gen = GenConfig {
            seed: number(args, "--seed", "a seed")?.unwrap_or(0),
            ..GenConfig::default()
        };
        if let Some(v) = flag_value(args, "--blocks")? {
            gen.blocks = range("--blocks", &v)?;
        }
        if let Some(v) = flag_value(args, "--chords")? {
            gen.chords = range("--chords", &v)?;
        }
        if let Some(v) = number(args, "--max-relay", "a non-negative integer")? {
            gen.max_relay = v as usize;
        }
        if let Some(v) = number(args, "--latency-percent", "a percentage 0-100")? {
            if v > 100 {
                return Err(ArgError::InvalidValue {
                    flag: "--latency-percent".to_string(),
                    value: v.to_string(),
                    expected: "a percentage 0-100",
                });
            }
            gen.latency_percent = v as u8;
        }
        let clock = match flag_value(args, "--clock")? {
            None => 1.0,
            Some(v) => match v.parse::<f64>() {
                Ok(c) if c > 0.0 && c.is_finite() => c,
                _ => {
                    return Err(ArgError::InvalidValue {
                        flag: "--clock".to_string(),
                        value: v,
                        expected: "a positive, finite clock period",
                    })
                }
            },
        };
        Ok(Self {
            gen,
            clock,
            firings: number(args, "--firings", "a positive firing target")?.unwrap_or(firings),
        })
    }
}

/// `dse [--spec FILE] [--cap N] [--mode auto|exhaustive|walk] [--walks N]
/// [--steps N] [--units N] [--limit N] [--quick] [--verify] [--dot]` plus
/// the generator and scheduler flags.
#[derive(Debug, Clone, PartialEq)]
pub struct DseArgs {
    /// The committed spec to explore; a generated netlist without it.
    pub spec: Option<String>,
    /// The generator flags (`--firings` defaults to 20 000, 2 000 under
    /// `--quick`).
    pub generator: GeneratorArgs,
    /// The per-channel relay-station cap (default 3, 2 under `--quick`).
    pub cap: usize,
    /// The search mode, with its walk shape and exhaustive limit.
    pub mode: SearchMode,
    /// Work units of an exhaustive search.
    pub units: usize,
    /// Spot-verify the frontier by lane simulation.
    pub verify: bool,
    /// Print the spec with the best frontier assignment as Graphviz.
    pub dot: bool,
    /// The scheduler flags.
    pub sweep: SweepArgs,
}

impl DseArgs {
    /// `dse`'s own flags.
    pub const FLAGS: &'static [&'static str] = &[
        "--spec=", "--cap=", "--mode=", "--walks=", "--steps=", "--units=", "--limit=", "--quick",
        "--verify", "--dot",
    ];

    /// Parses `dse`'s argument list.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on an undeclared flag, a malformed or missing
    /// value, or a `--cap` above `wp_spec::MAX_RELAY_STATIONS`.
    pub fn from_args(args: &[String]) -> Result<Self, ArgError> {
        accept_flags(args, &[SweepArgs::FLAGS, GeneratorArgs::FLAGS, Self::FLAGS])?;
        let quick = switch(args, "--quick");
        // --quick shrinks the space (cap 2) and the spot-verify target so
        // the smoke run takes seconds; explicit flags still win.  A cap
        // above MAX_RELAY_STATIONS would put channels past what a spec may
        // lower.
        const CAP_EXPECTED: &str = "a relay-station cap from 0 to 4096";
        const _: () = assert!(MAX_RELAY_STATIONS == 4096, "CAP_EXPECTED names the limit");
        let cap = match number(args, "--cap", CAP_EXPECTED)? {
            None if quick => 2,
            None => 3,
            Some(v) if v <= MAX_RELAY_STATIONS as u64 => v as usize,
            Some(v) => {
                return Err(ArgError::InvalidValue {
                    flag: "--cap".to_string(),
                    value: v.to_string(),
                    expected: CAP_EXPECTED,
                })
            }
        };
        let generator = GeneratorArgs::from_args(args, if quick { 2_000 } else { 20_000 })?;
        let walks = number(args, "--walks", "a positive walk count")?
            .map_or(DEFAULT_WALKS, |v| v as usize)
            .max(1);
        let steps = number(args, "--steps", "a positive step count")?
            .map_or(DEFAULT_STEPS, |v| v as usize)
            .max(1);
        let exhaustive_limit = number(args, "--limit", "a maximum exhaustive space size")?
            .map_or(DEFAULT_EXHAUSTIVE_LIMIT, u128::from);
        let auto = SearchMode::Auto {
            exhaustive_limit,
            walks,
            steps,
        };
        let mode = match flag_value(args, "--mode")?.as_deref() {
            None | Some("auto") => auto,
            Some("exhaustive") => SearchMode::Exhaustive,
            Some("walk") => SearchMode::Neighborhood { walks, steps },
            Some(v) => {
                return Err(ArgError::InvalidValue {
                    flag: "--mode".to_string(),
                    value: v.to_string(),
                    expected: "one of auto, exhaustive, walk",
                })
            }
        };
        Ok(Self {
            spec: flag_value(args, "--spec")?,
            generator,
            cap,
            mode,
            units: number(args, "--units", "a positive unit count")?
                .map_or(DEFAULT_UNITS, |v| v as usize)
                .max(1),
            verify: switch(args, "--verify"),
            dot: switch(args, "--dot"),
            sweep: SweepArgs::from_args(args)?,
        })
    }
}

/// `netlist_run [--spec FILE]... [--count N] [--verify] [--print] [--dot]`
/// plus the generator and scheduler flags.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistRunArgs {
    /// The committed spec files to check, in order (`--spec` repeats).
    pub specs: Vec<String>,
    /// How many generated netlists to check, seeds `seed..seed + count`
    /// (default 1 without `--spec`, 0 with it).
    pub count: usize,
    /// The generator flags (`--firings` defaults to 20 000).
    pub generator: GeneratorArgs,
    /// Exit 1 on any failure.
    pub verify: bool,
    /// Print each spec's canonical text.
    pub print: bool,
    /// Print each spec as annotated Graphviz.
    pub dot: bool,
    /// The scheduler flags.
    pub sweep: SweepArgs,
}

impl NetlistRunArgs {
    /// `netlist_run`'s own flags.
    pub const FLAGS: &'static [&'static str] =
        &["--spec=", "--count=", "--verify", "--print", "--dot"];

    /// Parses `netlist_run`'s argument list.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on an undeclared flag or a malformed or missing
    /// value.
    pub fn from_args(args: &[String]) -> Result<Self, ArgError> {
        accept_flags(args, &[SweepArgs::FLAGS, GeneratorArgs::FLAGS, Self::FLAGS])?;
        let mut specs = Vec::new();
        let mut tokens = args.iter();
        while let Some(arg) = tokens.next() {
            if let Some(v) = arg.strip_prefix("--spec=") {
                specs.push(v.to_string());
            } else if arg == "--spec" {
                match tokens
                    .as_slice()
                    .first()
                    .filter(|v| !v.is_empty() && !v.starts_with("--"))
                {
                    Some(v) => {
                        specs.push(v.clone());
                        tokens.next();
                    }
                    None => {
                        return Err(ArgError::MissingValue {
                            flag: "--spec".to_string(),
                        })
                    }
                }
            }
        }
        // Without --spec the runner checks one generated netlist by
        // default; with --spec, generation is opt-in via --count.
        let default_count = usize::from(specs.is_empty());
        Ok(Self {
            count: number(args, "--count", "a non-negative integer")?
                .map_or(default_count, |v| v as usize),
            generator: GeneratorArgs::from_args(args, 20_000)?,
            verify: switch(args, "--verify"),
            print: switch(args, "--print"),
            dot: switch(args, "--dot"),
            sweep: SweepArgs::from_args(args)?,
            specs,
        })
    }
}

/// `bench [--iters N] [--json PATH]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Timed runs per measurement; the fastest wins (default 3).
    pub iters: u32,
    /// Where to write the metric report (default `BENCH_fresh.json`).
    pub json: String,
}

impl BenchArgs {
    /// `bench`'s flags.
    pub const FLAGS: &'static [&'static str] = &["--iters=", "--json="];

    /// Parses `bench`'s argument list.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on an undeclared flag or a malformed or missing
    /// value.
    pub fn from_args(args: &[String]) -> Result<Self, ArgError> {
        accept_flags(args, &[Self::FLAGS])?;
        let iters = match flag_value(args, "--iters")? {
            None => 3,
            Some(v) => v
                .parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or(ArgError::InvalidValue {
                    flag: "--iters".to_string(),
                    value: v,
                    expected: "a positive integer",
                })?,
        };
        Ok(Self {
            iters,
            json: flag_value(args, "--json")?.unwrap_or_else(|| "BENCH_fresh.json".to_string()),
        })
    }
}

/// `bench_compare [--baseline PATH] [--fresh PATH]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchCompareArgs {
    /// The committed baseline report (default `BENCH_baseline.json`).
    pub baseline: String,
    /// The fresh report (default `BENCH_fresh.json`).
    pub fresh: String,
}

impl BenchCompareArgs {
    /// `bench_compare`'s flags.
    pub const FLAGS: &'static [&'static str] = &["--baseline=", "--fresh="];

    /// Parses `bench_compare`'s argument list.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on an undeclared flag or a missing value.
    pub fn from_args(args: &[String]) -> Result<Self, ArgError> {
        accept_flags(args, &[Self::FLAGS])?;
        Ok(Self {
            baseline: flag_value(args, "--baseline")?
                .unwrap_or_else(|| "BENCH_baseline.json".to_string()),
            fresh: flag_value(args, "--fresh")?.unwrap_or_else(|| "BENCH_fresh.json".to_string()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// An infinite clock period parses as an `f64` but frames no design:
    /// every period would be `inf` and every effective throughput 0.
    #[test]
    fn the_clock_period_must_be_positive_and_finite() {
        for bad in ["inf", "-inf", "NaN", "0", "-1"] {
            let err = DseArgs::from_args(&strings(&["--clock", bad])).unwrap_err();
            assert!(
                err.to_string().contains("finite clock period"),
                "{bad}: {err}"
            );
            assert!(NetlistRunArgs::from_args(&strings(&["--clock", bad])).is_err());
        }
        let args = DseArgs::from_args(&strings(&["--clock=2.5", "--quick"])).expect("parses");
        assert_eq!(args.generator.clock, 2.5);
        assert_eq!((args.cap, args.generator.firings), (2, 2_000));
    }
}

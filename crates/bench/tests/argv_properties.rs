//! No panic is reachable from the command line: arbitrary and mutated
//! argument vectors fed through `flag_value`, `SweepArgs` and every
//! binary's parser (`wp_bench::cli`) yield `Ok` or an `ArgError`, and a
//! parser whose argument list starts with an undeclared flag names that
//! flag.  A positional argument is read only by `table1`, once, as its
//! program; every other parser names a stray one.

use proptest::prelude::*;
use wp_bench::cli::{
    AblationArgs, BenchArgs, BenchCompareArgs, DseArgs, GeneratorArgs, NetlistRunArgs, Table1Args,
};
use wp_bench::{flag_value, ArgError, SweepArgs};

/// Every flag some binary declares, without the `=` that marks a flag
/// taking a value.
fn declared_flags() -> Vec<String> {
    [
        SweepArgs::FLAGS,
        Table1Args::FLAGS,
        AblationArgs::FLAGS,
        GeneratorArgs::FLAGS,
        DseArgs::FLAGS,
        NetlistRunArgs::FLAGS,
        BenchArgs::FLAGS,
        BenchCompareArgs::FLAGS,
    ]
    .iter()
    .flat_map(|group| group.iter())
    .map(|flag| flag.trim_end_matches('=').to_string())
    .collect()
}

/// Flags no binary declares: the retired process-sharding flags, a typo
/// and the bare separators.
const UNDECLARED: &[&str] = &[
    "--shards",
    "--shard",
    "--shard-range",
    "--emit-ndjson",
    "--hosts",
    "--quik",
    "--",
    "-",
];

/// Values at the edges of what the flags parse.
const VALUES: &[&str] = &[
    "0",
    "1",
    "2",
    "-1",
    "4096",
    "4097",
    "18446744073709551615",
    "18446744073709551616",
    "1e999",
    "-0.0",
    "nan",
    "inf",
    "on",
    "off",
    "auto",
    "sort",
    "matmul",
    "both",
    "walk",
    "exhaustive",
    "5:5",
    "0:3",
    "3:1",
    ":",
    "0/2",
    "4..8",
    "",
    "=",
    "x.json",
    "ü",
];

/// One command-line token: a declared or undeclared flag, a value, a
/// `--flag=value` pair, or arbitrary printable text.
fn token() -> impl Strategy<Value = String> {
    let flags = declared_flags();
    let n_flags = flags.len();
    let pair_flags = flags.clone();
    prop_oneof![
        (0..n_flags).prop_map(move |i| flags[i].clone()),
        (0..UNDECLARED.len()).prop_map(|i| UNDECLARED[i].to_string()),
        (0..VALUES.len()).prop_map(|i| VALUES[i].to_string()),
        (0..n_flags, 0..VALUES.len())
            .prop_map(move |(f, v)| format!("{}={}", pair_flags[f], VALUES[v])),
        "[ -~]{0,12}",
        "[-=:./0-9a-z]{0,10}",
    ]
}

/// Valid command lines, one per binary, that the mutations start from.
const VALID: &[&[&str]] = &[
    &["--quick", "--verify", "--workers", "2"],
    &[
        "sort",
        "--json=out.json",
        "--oracle",
        "on",
        "--lanes",
        "off",
    ],
    &["--verify", "--batch", "3"],
    &["--quick", "--spec", "x.nl", "--cap", "2", "--mode", "walk"],
    &[
        "--seed", "9", "--blocks", "5:5", "--chords", "5:5", "--cap", "3",
    ],
    &[
        "--spec",
        "a.nl",
        "--spec=b.nl",
        "--count",
        "25",
        "--latency-percent",
        "30",
    ],
    &["--iters", "3", "--json", "fresh.json"],
    &["--baseline", "a.json", "--fresh", "b.json"],
];

/// A valid command line with up to four edits: each deletes the token at
/// a position, inserts a token there, or replaces it.
fn mutated() -> impl Strategy<Value = Vec<String>> {
    (
        0..VALID.len(),
        prop::collection::vec((0u8..3, 0usize..16, token()), 0..5),
    )
        .prop_map(|(base, edits)| {
            let mut argv: Vec<String> = VALID[base].iter().map(|s| s.to_string()).collect();
            for (op, at, token) in edits {
                let at = at % (argv.len() + 1);
                match op {
                    0 if at < argv.len() => {
                        argv.remove(at);
                    }
                    1 if at < argv.len() => argv[at] = token,
                    _ => argv.insert(at, token),
                }
            }
            argv
        })
}

/// Runs every binary's parser on `argv` (each checks the flags against
/// its declaration first); none may panic.  Returns their errors.
fn parse_everything(argv: &[String]) -> Vec<ArgError> {
    [
        SweepArgs::only(argv).err(),
        Table1Args::from_args(argv).err(),
        AblationArgs::from_args(argv).err(),
        DseArgs::from_args(argv).err(),
        NetlistRunArgs::from_args(argv).err(),
        BenchArgs::from_args(argv).err(),
        BenchCompareArgs::from_args(argv).err(),
    ]
    .into_iter()
    .flatten()
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_argv_never_panics(argv in prop::collection::vec(token(), 0..10)) {
        let scheduler = SweepArgs::from_args(&argv).err();
        for error in parse_everything(&argv).into_iter().chain(scheduler) {
            prop_assert!(!error.to_string().is_empty());
        }
    }

    #[test]
    fn mutated_valid_argv_never_panics(argv in mutated()) {
        let scheduler = SweepArgs::from_args(&argv).err();
        for error in parse_everything(&argv).into_iter().chain(scheduler) {
            prop_assert!(!error.to_string().is_empty());
        }
    }

    #[test]
    fn flag_value_returns_a_value_or_an_error(
        argv in prop::collection::vec(token(), 0..10),
        name in token(),
    ) {
        if let Ok(Some(value)) = flag_value(&argv, &name) {
            prop_assert!(!value.is_empty(), "{name} in {argv:?}");
        }
    }

    // The declaration check runs first, so an undeclared flag leading the
    // argument list is the error, whatever follows it.
    #[test]
    fn a_leading_undeclared_flag_is_named_by_every_parser(
        flag in 0..6usize,
        rest in mutated(),
    ) {
        let mut argv = vec![UNDECLARED[flag].to_string()];
        argv.extend(rest);
        let errors = parse_everything(&argv);
        prop_assert_eq!(errors.len(), 7, "{argv:?}");
        for error in errors {
            prop_assert_eq!(
                error,
                ArgError::UnknownFlag {
                    flag: UNDECLARED[flag].to_string()
                }
            );
        }
    }

    // `table1` takes its program as one positional in any position; a
    // second positional is named as unexpected, whichever comes second.
    #[test]
    fn table1_reads_one_positional_program_anywhere(at in 0usize..5, again in 0usize..6) {
        let mut argv: Vec<String> = ["--quick", "--verify", "--workers=2", "--lanes=off"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        argv.insert(at, "sort".to_string());
        let args = Table1Args::from_args(&argv).expect("one positional program");
        prop_assert_eq!(args.program.as_str(), "sort");
        prop_assert!(args.quick && args.verify);
        argv.insert(again, "matmul".to_string());
        let stray = if again <= at { "sort" } else { "matmul" };
        prop_assert_eq!(
            Table1Args::from_args(&argv).unwrap_err(),
            ArgError::UnexpectedArgument { arg: stray.to_string() }
        );
    }

    // Every other parser names a positional token at either end of its
    // own valid command line.
    #[test]
    fn a_stray_positional_is_named_by_every_other_parser(
        stray in "[a-z0-9.:/]{1,8}",
        front in any::<bool>(),
    ) {
        let with_stray = |valid: &[&str]| {
            let mut argv: Vec<String> = valid.iter().map(|s| s.to_string()).collect();
            if front {
                argv.insert(0, stray.clone());
            } else {
                argv.push(stray.clone());
            }
            argv
        };
        let errors = [
            SweepArgs::only(&with_stray(&["--workers", "2"])).err(),
            AblationArgs::from_args(&with_stray(VALID[2])).err(),
            DseArgs::from_args(&with_stray(VALID[4])).err(),
            NetlistRunArgs::from_args(&with_stray(VALID[5])).err(),
            BenchArgs::from_args(&with_stray(VALID[6])).err(),
            BenchCompareArgs::from_args(&with_stray(VALID[7])).err(),
        ];
        for error in errors {
            prop_assert_eq!(error, Some(ArgError::UnexpectedArgument { arg: stray.clone() }));
        }
    }
}

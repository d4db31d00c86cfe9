//! The command line of every binary: a flag the binary does not declare —
//! a typo, or one of the retired process-sharding flags (`--shards`,
//! `--shard`, `--shard-range`, `--emit-ndjson`, `--hosts`) —, a positional
//! argument no binary reads and a mistyped `table1` program are argument
//! errors.  Each exits with status
//! 2, names the problem on stderr, prints nothing and writes nothing,
//! instead of running with silent defaults.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every binary of the package.
const BINARIES: &[(&str, &str)] = &[
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("figure1", env!("CARGO_BIN_EXE_figure1")),
    ("ablation_fifo", env!("CARGO_BIN_EXE_ablation_fifo")),
    ("ablation_oracle", env!("CARGO_BIN_EXE_ablation_oracle")),
    ("dse", env!("CARGO_BIN_EXE_dse")),
    ("netlist_run", env!("CARGO_BIN_EXE_netlist_run")),
    ("loop_law", env!("CARGO_BIN_EXE_loop_law")),
    ("bench", env!("CARGO_BIN_EXE_bench")),
    ("bench_compare", env!("CARGO_BIN_EXE_bench_compare")),
    ("area_overhead", env!("CARGO_BIN_EXE_area_overhead")),
    ("methodology", env!("CARGO_BIN_EXE_methodology")),
    ("multicycle", env!("CARGO_BIN_EXE_multicycle")),
];

/// A fresh, empty working directory, so a test can check that a rejected
/// run wrote nothing.
fn empty_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wp_bench_cli_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp cwd");
    dir
}

/// Runs `exe args` in `cwd` and asserts an argument error: exit status 2,
/// no stdout, and exactly `error: <message>` on stderr.
fn assert_argument_error(name: &str, exe: &str, args: &[&str], cwd: &Path, message: &str) {
    let output = Command::new(exe)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(
        output.stdout.is_empty(),
        "{name} {args:?} printed {:?}",
        String::from_utf8_lossy(&output.stdout)
    );
    assert_eq!(stderr, format!("error: {message}\n"), "{name} {args:?}");
}

#[test]
fn retired_and_mistyped_flags_exit_2_in_every_binary() {
    let cwd = empty_dir("flags");
    for &(name, exe) in BINARIES {
        for (args, flag) in [
            (&["--shards", "2"][..], "--shards"),
            (&["--shard", "0/2"], "--shard"),
            (&["--shard-range=0..4"], "--shard-range"),
            (&["--emit-ndjson"], "--emit-ndjson"),
            (&["--hosts", "x"], "--hosts"),
            (&["--quik"], "--quik"),
        ] {
            assert_argument_error(name, exe, args, &cwd, &format!("unknown flag {flag}"));
        }
    }
    // The report that `table1 --quick` writes by default, for one, must
    // not appear when the command line is rejected.
    let written: Vec<_> = std::fs::read_dir(&cwd).expect("temp cwd").collect();
    let _ = std::fs::remove_dir_all(&cwd);
    assert!(written.is_empty(), "a rejected run wrote {written:?}");
}

/// A retired flag among valid ones still fails the run:
/// `table1 --quick --shards 2 --hosts foo.conf` once exited 0 and printed
/// the normal table.
#[test]
fn a_retired_flag_next_to_valid_ones_is_still_rejected() {
    let cwd = empty_dir("mixed");
    let table1 = env!("CARGO_BIN_EXE_table1");
    let args = ["--quick", "--shards", "2", "--hosts", "foo.conf"];
    assert_argument_error("table1", table1, &args, &cwd, "unknown flag --shards");
    let written: Vec<_> = std::fs::read_dir(&cwd).expect("temp cwd").collect();
    let _ = std::fs::remove_dir_all(&cwd);
    assert!(written.is_empty(), "table1 wrote {written:?}");
}

/// A mistyped `--program` (flag or positional) is an argument error: exit
/// code 2, a typed message on stderr, and no report written — never an
/// empty table that exits 0.
#[test]
fn an_unknown_program_is_rejected_without_writing_a_report() {
    let cwd = empty_dir("program");
    let table1 = env!("CARGO_BIN_EXE_table1");
    for args in [
        &["--program", "sortt", "--quick"][..],
        &["sortt", "--quick"],
    ] {
        assert_argument_error(
            "table1",
            table1,
            args,
            &cwd,
            "--program expects one of sort, matmul, both, got 'sortt'",
        );
    }
    let written: Vec<_> = std::fs::read_dir(&cwd).expect("temp cwd").collect();
    let _ = std::fs::remove_dir_all(&cwd);
    assert!(written.is_empty(), "table1 wrote {written:?}");
}

/// A positional argument is an argument error in every binary but
/// `table1`, which reads one as its program.
#[test]
fn a_stray_positional_exits_2_in_every_other_binary() {
    let cwd = empty_dir("stray");
    for &(name, exe) in BINARIES.iter().filter(|(name, _)| *name != "table1") {
        assert_argument_error(name, exe, &["stray"], &cwd, "unexpected argument 'stray'");
    }
    let table1 = env!("CARGO_BIN_EXE_table1");
    let args = ["sort", "--quick", "matmul"];
    assert_argument_error(
        "table1",
        table1,
        &args,
        &cwd,
        "unexpected argument 'matmul'",
    );
    let written: Vec<_> = std::fs::read_dir(&cwd).expect("temp cwd").collect();
    let _ = std::fs::remove_dir_all(&cwd);
    assert!(written.is_empty(), "a rejected run wrote {written:?}");
}

/// `table1 --quick sort` runs only the sort table: the positional program
/// is read wherever it stands, not only as the first argument.
#[test]
fn a_trailing_positional_program_selects_the_table() {
    let cwd = empty_dir("sort");
    let output = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--quick", "sort"])
        .current_dir(&cwd)
        .output()
        .expect("the binary runs");
    let _ = std::fs::remove_dir_all(&cwd);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let captions: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("Table 1"))
        .collect();
    assert_eq!(captions.len(), 1, "{stdout}");
    assert!(captions[0].contains("Extraction Sort"), "{stdout}");
}

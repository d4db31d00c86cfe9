//! Shared by the end-to-end byte-identity pins (`sharded_table1.rs`):
//! every sharding binary with the arguments it is pinned under, and the
//! check of a run with extra flags (`--shards 2`, `--workers 1`) against
//! the reference run.

use std::path::PathBuf;
use std::process::Command;

/// The committed spec the `dse` pin searches (tests run in the package
/// directory, so the path is anchored at the manifest).
const SEED7_SPEC: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/generated_seed7.nl"
);

/// One pinned invocation of a sharding binary.
pub struct Case {
    /// The binary, for messages.
    pub name: &'static str,
    /// Path of the built binary.
    pub exe: &'static str,
    /// Arguments of the reference run (in process, default worker count).
    pub args: &'static [&'static str],
    /// Whether the binary writes a `--json` report, compared modulo its
    /// wall-time field.
    pub report: bool,
}

/// Every sharding binary, each with the arguments of its pin.
pub const SHARDING_CASES: &[Case] = &[
    Case {
        name: "table1",
        exe: env!("CARGO_BIN_EXE_table1"),
        args: &["--quick", "--verify"],
        report: true,
    },
    Case {
        name: "figure1",
        exe: env!("CARGO_BIN_EXE_figure1"),
        args: &[],
        report: false,
    },
    Case {
        name: "figure1",
        exe: env!("CARGO_BIN_EXE_figure1"),
        args: &["--oracle", "on"],
        report: false,
    },
    Case {
        name: "ablation_fifo",
        exe: env!("CARGO_BIN_EXE_ablation_fifo"),
        args: &["--verify"],
        report: false,
    },
    Case {
        name: "ablation_oracle",
        exe: env!("CARGO_BIN_EXE_ablation_oracle"),
        args: &["--verify"],
        report: false,
    },
    Case {
        name: "dse",
        exe: env!("CARGO_BIN_EXE_dse"),
        args: &["--quick", "--spec", SEED7_SPEC],
        report: false,
    },
];

/// The `table1` pin, which the table-specific tests extend.
pub const TABLE1: &Case = &SHARDING_CASES[0];

/// The stdout, stderr and (for a reporting binary) `--json` report of one
/// successful run.
pub struct Run {
    pub stdout: String,
    pub stderr: String,
    pub report: Option<String>,
}

impl Case {
    /// Runs the case with `extra` appended, asserting success; `tag` keeps
    /// the report's temp file apart from concurrently running tests.
    pub fn run(&self, extra: &[&str], tag: &str) -> Run {
        let json = temp_path(&format!("{}_{tag}", self.name), "json");
        let mut command = Command::new(self.exe);
        command.args(self.args).args(extra);
        if self.report {
            command.arg("--json").arg(&json);
        }
        let output = command.output().expect("the binary runs");
        assert!(
            output.status.success(),
            "{} {:?} {extra:?} failed: {}",
            self.name,
            self.args,
            String::from_utf8_lossy(&output.stderr)
        );
        let report = self.report.then(|| {
            let report = std::fs::read_to_string(&json).expect("report was written");
            let _ = std::fs::remove_file(&json);
            assert!(!report.is_empty(), "{} wrote an empty report", self.name);
            report
        });
        Run {
            stdout: String::from_utf8(output.stdout).expect("utf-8 stdout"),
            stderr: String::from_utf8(output.stderr).expect("utf-8 stderr"),
            report,
        }
    }
}

/// Runs every case as is and with `extra` appended, and asserts that both
/// printed the same non-empty stdout byte for byte and wrote reports that
/// are identical after `mask`.  Returns the (reference, extra) run pairs,
/// in case order.
pub fn assert_every_binary_reproduces(
    extra: &[&str],
    tag: &str,
    mask: fn(&str) -> String,
) -> Vec<(Run, Run)> {
    SHARDING_CASES
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let reference = case.run(&[], &format!("{tag}_ref{i}"));
            let variant = case.run(extra, &format!("{tag}_{i}"));
            assert!(
                !reference.stdout.is_empty(),
                "{} {:?} printed nothing",
                case.name,
                case.args
            );
            assert_eq!(
                reference.stdout, variant.stdout,
                "{} {:?} {extra:?}: stdout must be byte-identical to the reference run",
                case.name, case.args
            );
            assert_eq!(
                reference.report.as_deref().map(mask),
                variant.report.as_deref().map(mask),
                "{} {:?} {extra:?}: reports must be identical modulo the masked lines",
                case.name,
                case.args
            );
            (reference, variant)
        })
        .collect()
}

/// Runs every case in process and with `extra` (a distributed mode), and
/// asserts that the distributed run really dispatched, printed
/// byte-identical stdout and wrote a report identical modulo wall time.
/// Returns the in-process runs, in case order.
pub fn assert_every_binary_matches_in_process(extra: &[&str], tag: &str) -> Vec<Run> {
    assert_every_binary_reproduces(extra, tag, without_wall_time)
        .into_iter()
        .zip(SHARDING_CASES)
        .map(|((reference, distributed), case)| {
            assert!(
                distributed.stderr.contains("dispatching"),
                "{} {:?} {extra:?} ran in process:\n{}",
                case.name,
                case.args,
                distributed.stderr
            );
            reference
        })
        .collect()
}

/// Runs every case under the default worker count and under `--workers
/// 1`, and asserts that both printed the same stdout byte for byte and
/// wrote reports identical modulo the wall time and the worker count they
/// record.  Returns the default-worker-count runs, in case order.
pub fn assert_every_binary_is_worker_count_independent() -> Vec<Run> {
    assert_every_binary_reproduces(&["--workers", "1"], "w1", results_only)
        .into_iter()
        .map(|(reference, _)| reference)
        .collect()
}

/// The report with its wall-clock line dropped (the only field a
/// distributed run is allowed to differ in).
pub fn without_wall_time(report: &str) -> String {
    report
        .lines()
        .filter(|line| !line.contains("\"wall_seconds\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The report without the lines describing how the run went rather than
/// what it computed: the wall-clock time and the worker-thread count.
pub fn results_only(report: &str) -> String {
    report
        .lines()
        .filter(|line| !line.contains("\"wall_seconds\"") && !line.contains("\"workers\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A per-process temp path, so concurrently running test binaries never
/// share a file.
pub fn temp_path(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!("wp_bench_{tag}_{}.{ext}", std::process::id()))
}

//! Regression test of the DSE spot-verification contract: on seeded
//! generated netlists, every point of the analytic Pareto frontier must
//! reproduce its cycle throughput in lane simulation within the 2%
//! acceptance bar — the same check the `dse --verify` flag runs in CI.
//! Bad `dse` inputs are pinned to clean exits.

use wp_bench::{spot_verify_frontier, LaneMode, OracleMode, SPOT_TOLERANCE};
use wp_dse::{search, DseConfig, SearchMode, SearchSpace};
use wp_gen::{generate, GenConfig};
use wp_sim::SweepRunner;
use wp_spec::NetlistSpec;

fn small_spec(seed: u64) -> NetlistSpec {
    let mut cfg = GenConfig::with_seed(seed);
    cfg.blocks = (3, 5);
    cfg.chords = (1, 2);
    let mut spec = generate(&cfg);
    spec.insert_relays(1.0);
    spec
}

#[test]
fn exhaustive_frontiers_spot_verify_on_seeded_netlists() {
    let runner = SweepRunner::default();
    for seed in [1, 4, 9] {
        let spec = small_spec(seed);
        let space = SearchSpace::from_spec(&spec, 2, 1.0);
        let outcome = search(&space, &DseConfig::default(), 4);
        assert!(
            outcome.exhaustive,
            "seed {seed} should enumerate exhaustively"
        );
        assert!(
            !outcome.frontier.is_empty(),
            "seed {seed} has an empty frontier"
        );
        let measured = spot_verify_frontier(
            &spec,
            1.0,
            &outcome.frontier,
            2_000,
            &runner,
            LaneMode::Auto,
            OracleMode::On,
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // The bound the helper enforces, restated here so a loosened
        // helper cannot silently pass the regression.
        for (point, th) in outcome.frontier.iter().zip(&measured) {
            let error = (th - point.cycle_throughput).abs() / point.cycle_throughput;
            assert!(
                error < SPOT_TOLERANCE,
                "seed {seed} cost {}: measured {th:.6} vs analytic {:.6} ({:.2}% off)",
                point.cost,
                point.cycle_throughput,
                100.0 * error,
            );
        }
    }
}

#[test]
fn neighborhood_frontiers_spot_verify_too() {
    // A neighborhood search reports a *searched* frontier, not the true
    // one — but every reported point must still verify by simulation.
    let spec = small_spec(2);
    let space = SearchSpace::from_spec(&spec, 3, 1.0);
    let cfg = DseConfig {
        mode: SearchMode::Neighborhood {
            walks: 4,
            steps: 150,
        },
        seed: 5,
        ..DseConfig::default()
    };
    let outcome = search(&space, &cfg, 4);
    assert!(!outcome.exhaustive);
    assert!(!outcome.frontier.is_empty());
    spot_verify_frontier(
        &spec,
        1.0,
        &outcome.frontier,
        2_000,
        &SweepRunner::default(),
        LaneMode::Auto,
        OracleMode::On,
    )
    .expect("every searched frontier point verifies");
}

/// `dse --quick` is a smoke run: it prints the frontier and writes nothing
/// into its working directory (it once overwrote a committed baseline).
#[test]
fn a_quick_dse_run_writes_no_file() {
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/generated_seed7.nl"
    );
    let cwd = std::env::temp_dir().join(format!("wp_bench_dse_quick_{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("temp cwd");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_dse"))
        .args(["--quick", "--spec", spec])
        .current_dir(&cwd)
        .output()
        .expect("dse runs");
    let written: Vec<_> = std::fs::read_dir(&cwd).expect("temp cwd").collect();
    let _ = std::fs::remove_dir_all(&cwd);
    assert!(
        output.status.success(),
        "dse --quick failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(written.is_empty(), "dse --quick wrote {written:?}");
}

/// Bad `dse` inputs end with an exit code and a message, never a panic: a
/// cap past the per-channel relay-station limit is an argument error
/// (exit 2), and a spec with no channel frames no design space (exit 1,
/// reported as `error: ` and the message).
#[test]
fn bad_dse_inputs_exit_without_a_panic() {
    let spec = std::env::temp_dir().join(format!("wp_bench_dse_nochan_{}.nl", std::process::id()));
    std::fs::write(&spec, "block a kind=fan\n").expect("temp spec");
    let spec_path = spec.to_str().expect("utf-8 temp path");
    let cases: [(&[&str], i32); 3] = [
        (&["--seed", "9", "--cap", "100000", "--verify"], 2),
        (&["--cap", "18446744073709551615"], 2),
        (&["--spec", spec_path], 1),
    ];
    for (args, code) in cases {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_dse"))
            .args(args)
            .output()
            .expect("dse runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(code), "dse {args:?}: {stderr}");
        assert!(
            !stderr.contains("panicked"),
            "dse {args:?} panicked: {stderr}"
        );
        if code == 1 {
            // A runtime error reads like an argument error: its Display
            // text behind `error: `, not the Debug form `Error: "…"`.
            assert!(
                stderr.starts_with("error: ") && !stderr.contains("Error: \""),
                "dse {args:?}: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_file(&spec);
}

//! Shared plumbing of the `dse` binary: frontier spot-verification by lane
//! simulation and the Pareto report formatting.
//!
//! The design-space search itself (`wp_dse`) is purely analytic; this
//! module is where simulation re-enters, demoted to verification: every
//! reported Pareto-frontier point is re-run through the sweep scheduler
//! (lane-packed when eligible) and its measured steady-state throughput
//! must match the analytic score within [`SPOT_TOLERANCE`] — the binary
//! and the regression tests fail loudly on any divergence.

use std::fmt::Write as _;

use wp_core::ShellConfig;
use wp_dse::ParetoPoint;
use wp_sim::{RunGoal, Scenario, SweepRunner};
use wp_spec::{lower, synthetic_registry, NetlistSpec};

use crate::{LaneMode, OracleMode, ScenarioWiring};

/// Measured-vs-analytic steady-state tolerance (relative) of the frontier
/// spot-verification, matching the `netlist_run` acceptance bar.
pub const SPOT_TOLERANCE: f64 = 0.02;

/// Spot-verifies a Pareto frontier by simulation: each frontier point's
/// relay assignment is applied to the spec, run through the sweep
/// scheduler (lane-packed/extrapolated when the modes allow) until process
/// 0 reaches `firings` firings, and the measured cycle throughput
/// `firings / cycles` must match the point's analytic
/// [`ParetoPoint::cycle_throughput`] within [`SPOT_TOLERANCE`] relative.
/// The effective score is the cycle score divided by the deterministic
/// clock period, so verifying the cycle domain verifies the ranking.
///
/// Only synthetic (`fan`-kind) specs are simulable here — the exact-MCR
/// steady-state guarantee the 2% bar relies on is established for them by
/// the `netlist_run` pipeline.
///
/// Returns the measured throughput per frontier point (in frontier order).
///
/// # Errors
///
/// Returns a message naming the diverging point, the failed run, or the
/// point whose spec does not lower (with its `SpecError`, for example a
/// channel past `wp_spec::MAX_RELAY_STATIONS`).
pub fn spot_verify_frontier(
    spec: &NetlistSpec,
    reference_period: f64,
    frontier: &[ParetoPoint],
    firings: u64,
    runner: &SweepRunner,
    lanes: LaneMode,
    oracle: OracleMode,
) -> Result<Vec<f64>, String> {
    let wiring = ScenarioWiring::new()
        .lane_key(lanes, "dse/frontier")
        .oracle(oracle);
    let mut scenarios: Vec<Scenario<u64>> = Vec::with_capacity(frontier.len());
    for (i, point) in frontier.iter().enumerate() {
        let mut point_spec = spec.clone();
        // The assignment replaces every declared relay count (and any
        // latency-derived one), and is free to exceed the spec's declared
        // budget — the budget bounds the *seed* netlist, not the search.
        point_spec.insert_relays(reference_period);
        point_spec.apply_relay_assignment(&point.assignment);
        point_spec.budget = None;
        // Lower each point once here, so the factory's lowering cannot
        // fail.
        lower::<u64>(&point_spec, &synthetic_registry())
            .map_err(|e| format!("frontier[{i}] (cost {}): {e}", point.cost))?;
        let factory =
            move || lower(&point_spec, &synthetic_registry()).expect("validated spec lowers");
        scenarios.push(wiring.wire(Scenario::<u64>::new(
            format!("frontier[{i}] cost {}", point.cost),
            ShellConfig::strict(),
            RunGoal::UntilFirings {
                process: 0,
                target: firings,
                max_cycles: firings.saturating_mul(100).max(10_000),
            },
            factory,
        )));
    }
    let outcomes = runner.run(scenarios);
    let mut measured = Vec::with_capacity(frontier.len());
    for (i, (point, outcome)) in frontier.iter().zip(outcomes).enumerate() {
        let outcome = outcome.map_err(|e| format!("frontier[{i}]: run failed: {e}"))?;
        let th = firings as f64 / outcome.cycles_to_goal as f64;
        let error = (th - point.cycle_throughput).abs() / point.cycle_throughput;
        if error >= SPOT_TOLERANCE {
            return Err(format!(
                "frontier[{i}] (cost {}, assignment {:?}): lane-measured throughput {th:.6} \
                 diverges from the analytic score {:.6} by {:.2}% (tolerance {:.0}%)",
                point.cost,
                point.assignment,
                point.cycle_throughput,
                100.0 * error,
                100.0 * SPOT_TOLERANCE,
            ));
        }
        measured.push(th);
    }
    Ok(measured)
}

/// Formats a Pareto frontier as a fixed-width table: one row per point,
/// ascending cost.  Every column is deterministic (`{:.6}` floats over
/// bit-identical scores), so CI can diff the output across worker counts
/// and lane/oracle modes byte for byte.
pub fn format_frontier(title: &str, frontier: &[ParetoPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>10} {:>12}  assignment",
        "cost", "cycle Th", "period", "effective"
    );
    for point in frontier {
        let _ = writeln!(
            out,
            "{:>6} {:>12.6} {:>10.6} {:>12.6}  {:?}",
            point.cost, point.cycle_throughput, point.period, point.effective, point.assignment
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_dse::{DseConfig, SearchSpace};
    use wp_gen::{generate, GenConfig};

    fn small_space() -> (NetlistSpec, SearchSpace) {
        let mut cfg = GenConfig::with_seed(2);
        cfg.blocks = (3, 3);
        cfg.chords = (1, 1);
        let spec = generate(&cfg);
        let space = SearchSpace::from_spec(&spec, 2, 1.0);
        (spec, space)
    }

    #[test]
    fn frontier_points_spot_verify_within_tolerance() {
        let (spec, space) = small_space();
        let outcome = wp_dse::search(&space, &DseConfig::default(), 2);
        assert!(outcome.exhaustive, "tiny space enumerates exhaustively");
        assert!(!outcome.frontier.is_empty());
        let measured = spot_verify_frontier(
            &spec,
            1.0,
            &outcome.frontier,
            2_000,
            &SweepRunner::default(),
            LaneMode::Auto,
            OracleMode::On,
        )
        .expect("every frontier point verifies");
        assert_eq!(measured.len(), outcome.frontier.len());
    }

    #[test]
    fn a_wrong_analytic_score_fails_the_spot_verification() {
        let (spec, space) = small_space();
        let outcome = wp_dse::search(&space, &DseConfig::default(), 2);
        let mut frontier = outcome.frontier.clone();
        frontier[0].cycle_throughput *= 1.5;
        let err = spot_verify_frontier(
            &spec,
            1.0,
            &frontier,
            2_000,
            &SweepRunner::default(),
            LaneMode::Auto,
            OracleMode::On,
        )
        .unwrap_err();
        assert!(err.contains("diverges from the analytic score"), "{err}");
    }

    #[test]
    fn a_point_that_does_not_lower_is_an_error_not_a_panic() {
        let (spec, space) = small_space();
        let outcome = wp_dse::search(&space, &DseConfig::default(), 1);
        let mut frontier = outcome.frontier.clone();
        frontier[0].assignment[0] = wp_spec::MAX_RELAY_STATIONS + 1;
        let err = spot_verify_frontier(
            &spec,
            1.0,
            &frontier,
            2_000,
            &SweepRunner::default(),
            LaneMode::Auto,
            OracleMode::On,
        )
        .unwrap_err();
        assert!(err.starts_with("frontier[0]"), "{err}");
        assert!(err.contains("4096"), "{err}");
    }

    #[test]
    fn the_frontier_table_is_deterministic_text() {
        let (_, space) = small_space();
        let outcome = wp_dse::search(&space, &DseConfig::default(), 1);
        let a = format_frontier("Pareto frontier", &outcome.frontier);
        let again = wp_dse::search(&space, &DseConfig::default(), 4);
        let b = format_frontier("Pareto frontier", &again.frontier);
        assert_eq!(a, b);
        assert!(a.starts_with("Pareto frontier\n"));
        assert!(a.contains("effective"));
    }
}

//! Declarative sweep-feature wiring shared by the experiment binaries.
//!
//! Every experiment binary re-derived the same three conditionals from its
//! mode flags: tag the scenario for the bit-parallel lane kernel when
//! `--lanes` tags lanes, convert it to steady-state extrapolation when
//! `--oracle` converts rows, and install the streaming golden equivalence
//! gate when `--verify` is on.  [`ScenarioWiring`] states the decisions
//! once per binary and applies them uniformly to every scenario, so the
//! eligibility rules (`--verify` wins over the oracle, lane keys group
//! identically-shaped runs) live in one place.

use wp_sim::{Scenario, SystemBuilder};

use crate::args::{LaneMode, OracleMode};

/// The sweep features one binary's mode flags enable, applied to each of
/// its scenarios with [`ScenarioWiring::wire`] (or
/// [`ScenarioWiring::wire_verified`] when the binary has a golden twin to
/// check against).
#[derive(Debug, Default)]
pub struct ScenarioWiring {
    lane_key: Option<String>,
    oracle: bool,
    verify: bool,
}

impl ScenarioWiring {
    /// No features: scenarios pass through [`ScenarioWiring::wire`]
    /// unchanged.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tags wired scenarios with a lane-packing key when the mode tags
    /// lanes — identically-keyed scenarios may be packed into one
    /// bit-parallel kernel run by the sweep scheduler.
    #[must_use]
    pub fn lane_key(mut self, lanes: LaneMode, key: impl Into<String>) -> Self {
        if lanes.tags_lanes() {
            self.lane_key = Some(key.into());
        }
        self
    }

    /// Lets wired scenarios extrapolate their steady state with the period
    /// oracle when the mode converts rows.  Verification wins: a wiring
    /// that is both `oracle` and `verified` never sets the oracle flag,
    /// because the equivalence gate needs the full streamed run (and the
    /// oracle's own eligibility rules would exclude the gated scenario
    /// anyway).
    #[must_use]
    pub fn oracle(mut self, oracle: OracleMode) -> Self {
        self.oracle = oracle.converts_rows();
        self
    }

    /// Streams wired scenarios against their golden twin
    /// ([`ScenarioWiring::wire_verified`]) when `verify` is set.
    #[must_use]
    pub fn verified(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Applies the enabled features to one scenario.
    #[must_use]
    pub fn wire<V, T>(&self, mut scenario: Scenario<V, T>) -> Scenario<V, T> {
        if let Some(key) = &self.lane_key {
            scenario = scenario.with_lane_key(key.clone());
        }
        if self.oracle && !self.verify {
            scenario = scenario.with_oracle();
        }
        scenario
    }

    /// [`ScenarioWiring::wire`], additionally installing the golden
    /// equivalence gate (built by `golden`) when the wiring is verified.
    #[must_use]
    pub fn wire_verified<V, T>(
        &self,
        scenario: Scenario<V, T>,
        golden: impl Fn() -> SystemBuilder<V> + Send + Sync + 'static,
    ) -> Scenario<V, T> {
        let scenario = self.wire(scenario);
        if self.verify {
            scenario.with_equivalence_check(golden)
        } else {
            scenario
        }
    }
}

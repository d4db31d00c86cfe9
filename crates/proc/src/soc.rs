//! Assembly of the five blocks into the case-study SoC and run helpers.
//!
//! The netlist reproduces fig. 1 of the paper: five blocks (CU, IC, RF, ALU,
//! DC) and the channels listed in Table 1.  Relay stations are assigned per
//! *link*; the CU-IC link bundles both directions (fetch request and
//! instruction return travel on the same long wire run), which is why it is
//! the most expensive one to pipeline.

use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

use wp_core::{ShellConfig, SyncPolicy, TraceArena};
use wp_sim::{GoldenSimulator, LidSimulator, ProcessId, SimError, SystemBuilder};
use wp_spec::NetlistSpec;

use crate::blocks::{ControlUnit, DataMem, Organization};
use crate::msg::Msg;
use crate::programs::Workload;
use crate::spec::soc_registry;

/// Process identifier of the control unit in the assembled system.
pub const CU: ProcessId = 0;
/// Process identifier of the instruction memory.
pub const IC: ProcessId = 1;
/// Process identifier of the register file.
pub const RF: ProcessId = 2;
/// Process identifier of the ALU.
pub const ALU: ProcessId = 3;
/// Process identifier of the data memory.
pub const DC: ProcessId = 4;

/// The named block-to-block links of fig. 1, in the order of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Link {
    /// CU → RF (register commands).
    CuRf,
    /// CU → ALU (operation commands).
    CuAlu,
    /// CU → DC (memory commands).
    CuDc,
    /// CU ↔ IC (fetch requests and instruction return — both directions).
    CuIc,
    /// RF → ALU (operands).
    RfAlu,
    /// RF → DC (store data).
    RfDc,
    /// ALU → CU (flags).
    AluCu,
    /// ALU → RF (write-backs).
    AluRf,
    /// ALU → DC (effective addresses).
    AluDc,
    /// DC → RF (load data).
    DcRf,
}

impl Link {
    /// Every link, in the order used by Table 1 of the paper.
    pub const ALL: [Link; 10] = [
        Link::CuRf,
        Link::CuAlu,
        Link::CuDc,
        Link::CuIc,
        Link::RfAlu,
        Link::RfDc,
        Link::AluCu,
        Link::AluRf,
        Link::AluDc,
        Link::DcRf,
    ];

    /// The label used in the paper's table ("CU-RF", "RF-ALU", …).
    pub fn label(&self) -> &'static str {
        match self {
            Link::CuRf => "CU-RF",
            Link::CuAlu => "CU-AL",
            Link::CuDc => "CU-DC",
            Link::CuIc => "CU-IC",
            Link::RfAlu => "RF-ALU",
            Link::RfDc => "RF-DC",
            Link::AluCu => "ALU-CU",
            Link::AluRf => "ALU-RF",
            Link::AluDc => "ALU-DC",
            Link::DcRf => "DC-RF",
        }
    }

    /// The channel names belonging to this link.
    pub fn channel_names(&self) -> &'static [&'static str] {
        match self {
            Link::CuRf => &["cu_rf"],
            Link::CuAlu => &["cu_alu"],
            Link::CuDc => &["cu_dc"],
            Link::CuIc => &["cu_ic", "ic_cu"],
            Link::RfAlu => &["rf_alu"],
            Link::RfDc => &["rf_dc"],
            Link::AluCu => &["alu_cu"],
            Link::AluRf => &["alu_rf"],
            Link::AluDc => &["alu_dc"],
            Link::DcRf => &["dc_rf"],
        }
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A relay-station assignment expressed per link of fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RsConfig {
    counts: [usize; 10],
}

impl RsConfig {
    /// The ideal configuration: no relay station anywhere (row 1 of Table 1).
    pub fn ideal() -> Self {
        Self::default()
    }

    /// `n` relay stations on a single link, none elsewhere (rows 2–11).
    pub fn single(link: Link, n: usize) -> Self {
        let mut cfg = Self::default();
        cfg.set(link, n);
        cfg
    }

    /// `n` relay stations on every link except those in `exclude`
    /// (e.g. "All 1 (no CU-IC)").
    pub fn uniform(n: usize, exclude: &[Link]) -> Self {
        let mut cfg = Self::default();
        for link in Link::ALL {
            if !exclude.contains(&link) {
                cfg.set(link, n);
            }
        }
        cfg
    }

    /// Relay stations currently assigned to a link.
    pub fn get(&self, link: Link) -> usize {
        self.counts[Self::index(link)]
    }

    /// Sets the relay stations of a link.
    pub fn set(&mut self, link: Link, n: usize) -> &mut Self {
        self.counts[Self::index(link)] = n;
        self
    }

    /// Builder-style variant of [`RsConfig::set`].
    pub fn with(mut self, link: Link, n: usize) -> Self {
        self.set(link, n);
        self
    }

    /// Total relay stations over all links (counting the CU-IC bundle as two
    /// physical channels).
    pub fn total(&self) -> usize {
        Link::ALL
            .iter()
            .map(|&l| self.get(l) * l.channel_names().len())
            .sum()
    }

    /// A short description such as `"All 0 (ideal)"` or `"Only RF-DC"`.
    pub fn describe(&self) -> String {
        let nonzero: Vec<Link> = Link::ALL
            .iter()
            .copied()
            .filter(|&l| self.get(l) > 0)
            .collect();
        match nonzero.len() {
            0 => "All 0 (ideal)".to_string(),
            1 => format!("Only {} ({} RS)", nonzero[0], self.get(nonzero[0])),
            _ => {
                let min = nonzero.iter().map(|&l| self.get(l)).min().unwrap_or(0);
                let missing: Vec<&str> = Link::ALL
                    .iter()
                    .filter(|&&l| self.get(l) == 0)
                    .map(|l| l.label())
                    .collect();
                if missing.is_empty() {
                    format!("All {min}")
                } else {
                    format!("All {min} (no {})", missing.join(", "))
                }
            }
        }
    }

    fn index(link: Link) -> usize {
        Link::ALL
            .iter()
            .position(|&l| l == link)
            .expect("every link is in Link::ALL")
    }
}

/// Errors produced by the SoC run helpers.
#[derive(Debug)]
#[non_exhaustive]
pub enum SocError {
    /// The underlying simulator reported an error.
    Sim(SimError),
    /// The data memory block could not be found or downcast after the run.
    MemoryUnavailable,
    /// The final data memory did not match the workload's expected result.
    WrongResult,
    /// The wire-pipelined run's τ-filtered channel realisations diverged
    /// from (or could not be paired with) the golden run's — the
    /// per-scenario equivalence gate failed.  Carries the rendered
    /// [`wp_core::EquivalenceReport`].
    NotEquivalent(String),
}

impl fmt::Display for SocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocError::Sim(e) => write!(f, "simulation failed: {e}"),
            SocError::MemoryUnavailable => write!(f, "data memory contents unavailable"),
            SocError::WrongResult => write!(f, "final memory does not match the expected result"),
            SocError::NotEquivalent(report) => {
                write!(f, "equivalence gate failed: {report}")
            }
        }
    }
}

impl Error for SocError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SocError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for SocError {
    fn from(e: SimError) -> Self {
        SocError::Sim(e)
    }
}

/// The committed fig. 1 topology (`examples/soc.nl`), parsed once.
///
/// Block, port and channel declaration order in the spec pins the process
/// identifiers to [`CU`], [`IC`], [`RF`], [`ALU`], [`DC`] and the channel
/// identifiers to the order of the original hand-built assembly.
pub fn soc_spec() -> &'static NetlistSpec {
    static SPEC: OnceLock<NetlistSpec> = OnceLock::new();
    SPEC.get_or_init(|| {
        NetlistSpec::parse(include_str!("../../../examples/soc.nl"))
            .expect("the committed SoC spec parses")
    })
}

/// Builds the five-block SoC for a workload, organisation and relay-station
/// configuration, by lowering the committed [`soc_spec`] netlist through
/// [`crate::soc_registry`].
///
/// The returned builder can be handed to either [`GoldenSimulator`] or
/// [`LidSimulator`]; the process identifiers are the constants [`CU`], [`IC`],
/// [`RF`], [`ALU`] and [`DC`].
pub fn build_soc(
    workload: &Workload,
    organization: Organization,
    rs: &RsConfig,
) -> SystemBuilder<Msg> {
    let registry = soc_registry(workload, organization);
    let mut b = wp_spec::lower(soc_spec(), &registry).expect("the committed SoC spec lowers");
    debug_assert_eq!(
        ["cu", "ic", "rf", "alu", "dc"].map(|n| {
            soc_spec()
                .blocks
                .iter()
                .position(|b| b.name == n)
                .expect("spec declares the block")
        }),
        [CU, IC, RF, ALU, DC]
    );
    for link in Link::ALL {
        for name in link.channel_names() {
            let id = b
                .find_channel(name)
                .expect("spec declares every Table 1 channel");
            b.set_relay_stations(id, rs.get(link));
        }
    }
    b
}

/// Outcome of one SoC run (golden or wire-pipelined).
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Clock cycles until the control unit halted.
    pub cycles: u64,
    /// Final data-memory contents.
    pub memory: Vec<i64>,
    /// Instructions retired by the control unit.
    pub instructions: u64,
    /// Recorded channel realisations (for equivalence checking).
    pub traces: TraceArena<Msg>,
}

impl RunOutcome {
    /// Throughput relative to a golden run of `golden_cycles` cycles.
    pub fn throughput_vs(&self, golden_cycles: u64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            golden_cycles as f64 / self.cycles as f64
        }
    }
}

/// Reads the final data-memory contents out of the [`DC`] process of a
/// finished run (used by sweep post-extractions and the run helpers).
pub fn memory_from_process(process: &dyn wp_core::Process<Msg>) -> Option<Vec<i64>> {
    process
        .as_any()?
        .downcast_ref::<DataMem>()
        .map(|d| d.memory().to_vec())
}

/// Reads the retired-instruction count out of the [`CU`] process of a
/// finished run.
pub fn instructions_from_process(process: &dyn wp_core::Process<Msg>) -> u64 {
    process
        .as_any()
        .and_then(|a| a.downcast_ref::<ControlUnit>())
        .map_or(0, ControlUnit::instructions)
}

/// Architectural state extracted from a finished wire-pipelined SoC run:
/// final data memory and retired-instruction count.
///
/// Designed as a [`wp_sim::Scenario::with_post`] extraction, so relay-station
/// sweeps over the SoC can validate program results per scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocState {
    /// Final data-memory contents.
    pub memory: Vec<i64>,
    /// Instructions retired by the control unit.
    pub instructions: u64,
}

/// Extracts [`SocState`] from a finished simulator built by [`build_soc`].
///
/// Returns `None` when the data memory cannot be found or downcast (which
/// indicates the simulator was not built by [`build_soc`]).
pub fn soc_state(sim: &LidSimulator<Msg>) -> Option<SocState> {
    Some(SocState {
        memory: memory_from_process(sim.process(DC))?,
        instructions: instructions_from_process(sim.process(CU)),
    })
}

/// Runs the golden (un-pipelined) SoC until the control unit halts.
///
/// # Errors
///
/// Returns [`SocError`] when the simulation fails, exceeds `max_cycles`, or
/// when the final memory cannot be read back.
pub fn run_golden_soc(
    workload: &Workload,
    organization: Organization,
    max_cycles: u64,
) -> Result<RunOutcome, SocError> {
    let builder = build_soc(workload, organization, &RsConfig::ideal());
    let mut sim = GoldenSimulator::new(builder)?;
    let cycles = sim.run_until_halt(CU, max_cycles)?;
    let memory = memory_from_process(sim.process(DC)).ok_or(SocError::MemoryUnavailable)?;
    Ok(RunOutcome {
        cycles,
        memory,
        instructions: instructions_from_process(sim.process(CU)),
        traces: sim.traces().clone(),
    })
}

/// Runs the wire-pipelined SoC (WP1 strict or WP2 oracle shells) until the
/// control unit halts.
///
/// # Errors
///
/// Returns [`SocError`] when the simulation fails, deadlocks, exceeds
/// `max_cycles`, or when the final memory cannot be read back.
pub fn run_wp_soc(
    workload: &Workload,
    organization: Organization,
    rs: &RsConfig,
    policy: SyncPolicy,
    max_cycles: u64,
) -> Result<RunOutcome, SocError> {
    let builder = build_soc(workload, organization, rs);
    let config = ShellConfig::for_policy(policy);
    let mut sim = LidSimulator::new(builder, config)?;
    let cycles = sim.run_until_halt(CU, max_cycles)?;
    // The control unit halts as soon as it decodes `halt`, but stores and
    // write-backs of the previous instructions may still be in flight behind
    // relay stations: let the datapath drain before reading the memory back.
    // The reported cycle count remains the cycle at which the program
    // completed (the same event the golden run measures).
    sim.drain(32, 100_000)?;
    let memory = memory_from_process(sim.process(DC)).ok_or(SocError::MemoryUnavailable)?;
    Ok(RunOutcome {
        cycles,
        memory,
        instructions: instructions_from_process(sim.process(CU)),
        traces: sim.traces().clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::{extraction_sort, matrix_multiply};
    use wp_core::check_equivalence;

    const MAX: u64 = 2_000_000;

    #[test]
    fn rs_config_accessors() {
        let cfg = RsConfig::single(Link::RfDc, 2);
        assert_eq!(cfg.get(Link::RfDc), 2);
        assert_eq!(cfg.get(Link::CuIc), 0);
        assert_eq!(cfg.total(), 2);
        assert_eq!(cfg.describe(), "Only RF-DC (2 RS)");

        let all1 = RsConfig::uniform(1, &[Link::CuIc]);
        assert_eq!(all1.get(Link::CuIc), 0);
        assert_eq!(all1.get(Link::AluDc), 1);
        assert_eq!(all1.describe(), "All 1 (no CU-IC)");
        assert_eq!(RsConfig::ideal().describe(), "All 0 (ideal)");
        // CU-IC counts two physical channels.
        assert_eq!(RsConfig::single(Link::CuIc, 1).total(), 2);
    }

    #[test]
    fn golden_multicycle_sort_produces_sorted_memory() {
        let wl = extraction_sort(8, 11).unwrap();
        let outcome = run_golden_soc(&wl, Organization::Multicycle, MAX).unwrap();
        assert!(
            wl.check(&outcome.memory[..8]),
            "memory {:?}",
            &outcome.memory[..8]
        );
        assert!(outcome.cycles > 0);
        assert!(outcome.instructions > 0);
    }

    #[test]
    fn golden_pipelined_sort_produces_sorted_memory() {
        let wl = extraction_sort(8, 11).unwrap();
        let outcome = run_golden_soc(&wl, Organization::Pipelined, MAX).unwrap();
        assert!(wl.check(&outcome.memory[..8]));
        // The pipelined organisation must be faster than the multicycle one.
        let multi = run_golden_soc(&wl, Organization::Multicycle, MAX).unwrap();
        assert!(outcome.cycles < multi.cycles);
    }

    #[test]
    fn golden_matmul_matches_reference() {
        let wl = matrix_multiply(3, 5).unwrap();
        for org in [Organization::Multicycle, Organization::Pipelined] {
            let outcome = run_golden_soc(&wl, org, MAX).unwrap();
            assert!(wl.check(&outcome.memory), "{org:?}");
        }
    }

    #[test]
    fn ideal_wp_runs_match_golden_cycle_count() {
        let wl = extraction_sort(6, 3).unwrap();
        let golden = run_golden_soc(&wl, Organization::Pipelined, MAX).unwrap();
        for policy in [SyncPolicy::Strict, SyncPolicy::Oracle] {
            let wp = run_wp_soc(
                &wl,
                Organization::Pipelined,
                &RsConfig::ideal(),
                policy,
                MAX,
            )
            .unwrap();
            assert!(wl.check(&wp.memory[..6]), "{policy:?}");
            assert_eq!(wp.cycles, golden.cycles, "{policy:?}");
        }
    }

    #[test]
    fn wire_pipelined_runs_are_equivalent_and_correct() {
        let wl = extraction_sort(6, 9).unwrap();
        let golden = run_golden_soc(&wl, Organization::Pipelined, MAX).unwrap();
        let rs = RsConfig::uniform(1, &[Link::CuIc]);
        for policy in [SyncPolicy::Strict, SyncPolicy::Oracle] {
            let wp = run_wp_soc(&wl, Organization::Pipelined, &rs, policy, MAX).unwrap();
            assert!(wl.check(&wp.memory[..6]), "{policy:?}");
            assert!(wp.cycles >= golden.cycles);
            let report = check_equivalence(&golden.traces, &wp.traces);
            assert!(report.is_equivalent(), "{policy:?}: {report}");
        }
    }

    #[test]
    fn oracle_outperforms_strict_on_datapath_links() {
        let wl = extraction_sort(8, 2).unwrap();
        let golden = run_golden_soc(&wl, Organization::Pipelined, MAX).unwrap();
        let rs = RsConfig::single(Link::RfDc, 1);
        let wp1 = run_wp_soc(&wl, Organization::Pipelined, &rs, SyncPolicy::Strict, MAX).unwrap();
        let wp2 = run_wp_soc(&wl, Organization::Pipelined, &rs, SyncPolicy::Oracle, MAX).unwrap();
        assert!(
            wp2.cycles < wp1.cycles,
            "WP2 {} vs WP1 {}",
            wp2.cycles,
            wp1.cycles
        );
        assert!(wp2.throughput_vs(golden.cycles) > wp1.throughput_vs(golden.cycles));
    }

    #[test]
    fn multicycle_wp_runs_complete_with_relay_stations_everywhere() {
        let wl = matrix_multiply(2, 4).unwrap();
        let rs = RsConfig::uniform(1, &[]);
        for policy in [SyncPolicy::Strict, SyncPolicy::Oracle] {
            let wp = run_wp_soc(&wl, Organization::Multicycle, &rs, policy, MAX).unwrap();
            assert!(wl.check(&wp.memory), "{policy:?}");
        }
    }
}

//! End-to-end kernel equivalence on the real case-study SoC.
//!
//! The property tests in `wp_sim` compare the allocation-free kernel with
//! the seed step on synthetic netlists; this test does the same on the
//! five-block processor running a real program, under both shell policies —
//! multi-port shells, halting control flow, message payloads and drain
//! behaviour included.

use wp_core::{ShellConfig, SyncPolicy};
use wp_proc::{build_soc, extraction_sort, Link, Organization, RsConfig, CU};
use wp_sim::{LidSimulator, NaiveSimulator};

#[test]
fn kernel_and_naive_soc_runs_are_cycle_identical() {
    let workload = extraction_sort(6, 13).expect("workload assembles");
    let rs = RsConfig::uniform(1, &[Link::CuIc]).with(Link::RfDc, 2);
    for policy in [SyncPolicy::Strict, SyncPolicy::Oracle] {
        let config = ShellConfig::for_policy(policy);
        let build = || build_soc(&workload, Organization::Pipelined, &rs);

        let mut kernel = LidSimulator::new(build(), config).expect("kernel builds");
        let mut naive = NaiveSimulator::new(build(), config).expect("naive builds");
        let kernel_cycles = kernel.run_until_halt(CU, 2_000_000).expect("kernel halts");
        let naive_cycles = naive.run_until_halt(CU, 2_000_000).expect("naive halts");
        assert_eq!(kernel_cycles, naive_cycles, "{policy:?}: halt cycles");

        let kernel_extra = kernel.drain(32, 100_000).expect("kernel drains");
        let naive_extra = naive.drain(32, 100_000).expect("naive drains");
        assert_eq!(kernel_extra, naive_extra, "{policy:?}: drain cycles");

        assert_eq!(kernel.report(), naive.report(), "{policy:?}: reports");
        assert_eq!(
            kernel.traces(),
            naive.traces(),
            "{policy:?}: per-cycle traces"
        );
    }
}

//! Reproduces the area-overhead claim of Section 1: the wrapper logic costs
//! less than about one percent of a 100-kgate IP block in a 130 nm
//! technology.

use wp_area::{
    case_study_overhead_sweep, relay_station_gates, shell_gates, CellLibrary, ShellParams,
    Technology,
};

fn main() {
    // No flags: any `--flag` is an argument error, not silently ignored.
    let args: Vec<String> = std::env::args().skip(1).collect();
    wp_bench::accept_flags(&args, &[]).unwrap_or_else(|e| e.exit());
    let lib = CellLibrary::default();
    let tech = Technology::nm130();

    println!(
        "Wrapper area overhead against a 100-kgate IP ({} nm):\n",
        tech.node_nm
    );
    println!("{:<20} {:>12} {:>12}", "shell", "gates", "overhead %");
    for report in case_study_overhead_sweep(&lib) {
        println!(
            "{:<20} {:>12.0} {:>11.2}%",
            report.label, report.wrapper_gates, report.overhead_percent
        );
    }

    println!("\nRelay-station cost per payload width:");
    println!("{:>8} {:>10} {:>12}", "bits", "gates", "area (mm^2)");
    for width in [8usize, 16, 32, 64] {
        let g = relay_station_gates(&lib, width);
        println!(
            "{:>8} {:>10.0} {:>12.6}",
            width,
            g.gates,
            tech.area_mm2(g.gates)
        );
    }

    println!("\nShell cost vs. input-queue depth (3-input, 2-output shell):");
    println!("{:>8} {:>10} {:>12}", "depth", "gates", "overhead %");
    for depth in [2usize, 4, 8, 16] {
        let params = ShellParams {
            fifo_depth: depth,
            ..ShellParams::case_study(3, 2)
        };
        let g = shell_gates(&lib, &params);
        println!(
            "{:>8} {:>10.0} {:>11.2}%",
            depth,
            g.gates,
            100.0 * g.gates / 100_000.0
        );
    }
}

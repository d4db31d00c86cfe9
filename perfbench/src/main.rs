//! Benchmark of the wire-pipelined SoC methodology flow.
//!
//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 [--record]`
//!
//! One process runs one workload: it builds the workload's inputs from the
//! seed (repeatedly, reporting the median set-up time), runs one untimed
//! warm-up job, then runs jobs back to back for `S` seconds and on to the
//! end of the pass over the inputs, so that every input is timed equally
//! often.  Every job's output is checked — against the committed
//! expectation in `expected/` when one exists for the input, always against
//! the workload's internal oracles and against the first job on the same
//! input — and a job that errors or mismatches counts as failed.  The last stdout line is one JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`).  `--record` writes the expectations of the
//! seed's inputs instead of measuring.
//!
//! The end-to-end timings are host times.  A host probe sampled after
//! every job (see [`probe`]) is printed beside them as a diagnostic.
//!
//! The traced run alternates untraced and traced passes: spans around each
//! public call into a layer give the per-layer numbers, and the difference
//! of the two medians is the tracing overhead.

mod dse;
mod expect;
mod netlist;
mod probe;
mod table1;
mod trace;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use expect::Expected;
use probe::Probe;
use trace::Tracer;

/// The workloads: the three `BENCHMARK.json` lists, in its order, then
/// `table1_verify`, which is not benchmarked but records and checks the
/// golden-verified Table-1 rows that `table1_oracle` jobs must equal.
const WORKLOADS: [&str; 4] = [
    "table1_oracle",
    "netlist_check",
    "dse_search",
    "table1_verify",
];

/// Set-up repeats per run at least.  The set-up is repeated once after
/// every job, so its median samples the same stretch of host time as the
/// jobs: repeated back to back, its sub-millisecond samples all fell into
/// one phase of the host's load and the median moved 2× between runs.
const SETUP_MIN_REPEATS: usize = 11;

/// Named layer counters.
pub type Counters = Vec<(&'static str, u64)>;

/// What one job produced.
pub struct JobOutput {
    /// The input the job ran on (workload seed, or netlist seed).
    pub key: u64,
    /// Canonical text of every output and exact counter of the job; two
    /// jobs on the same input must produce the same text.
    pub text: String,
    /// Relay configurations evaluated.
    pub configs: u64,
    /// Modelled goal cycles resolved (simulated or extrapolated).
    pub model_cycles: u64,
    /// Exact layer counters of the job (also part of `text`).
    pub counters: Counters,
    /// Scheduling-dependent layer counters of the job.
    pub gauges: Counters,
}

/// Per-layer metrics `(name, value)` measured once per run, outside the
/// timed jobs.
pub type Layers = Vec<(&'static str, f64)>;

/// One benchmark workload over its prepared inputs.
pub trait Workload {
    /// Worker threads the job's calls use.
    fn workers(&self) -> usize;
    /// Jobs in one pass over the inputs; a run times whole passes only.
    fn pass_len(&self) -> u64 {
        1
    }
    /// Runs job `index` (0 is the warm-up), recording spans when the
    /// tracer is enabled.
    fn job(&mut self, index: u64, tracer: &Tracer) -> Result<JobOutput, String>;
    /// Cross-checks of a job's output beyond its committed expectation.
    fn check(&mut self, _out: &JobOutput) -> Result<(), String> {
        Ok(())
    }
    /// Checks and measurements made once per run, outside the jobs.
    fn per_run(&mut self, traced: bool, tracer: &Tracer) -> Result<Layers, String>;
}

fn setup(name: &str, seed: u64, tracer: &Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "table1_verify" => Box::new(table1::Table1::setup(false, seed, tracer)?),
        "table1_oracle" => Box::new(table1::Table1::setup(true, seed, tracer)?),
        "netlist_check" => Box::new(netlist::NetlistCheck::setup(seed, tracer)),
        "dse_search" => Box::new(dse::DseSearch::setup(seed, tracer)),
        _ => {
            return Err(format!(
                "unknown workload {name:?}; expected one of {WORKLOADS:?}"
            ))
        }
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a non-negative integer"))
    };
    let record = argv.iter().any(|a| a == "--record");
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds: if record {
            0.0
        } else {
            number("--seconds")? as f64
        },
        trace: !record
            && match number("--trace")? {
                0 => false,
                1 => true,
                _ => return Err("--trace needs 0 or 1".into()),
            },
        record,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest whole percentile (nearest rank) with at least ten samples
/// beyond it, and its value; `None` with fewer than 20 samples.
fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (50..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1]))
    })
}

/// Counts live heap bytes and their peak, for `peak_heap_mb`.  The peak
/// resident set (`VmHWM`) of a process this small is dominated by
/// allocator arenas and thread stacks and moved by a quarter between runs
/// of the same code; the peak of live heap bytes during a job repeats.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

impl CountingAlloc {
    fn grew(size: usize) {
        let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator with the caller's
// arguments unchanged, so the `GlobalAlloc` contract holds exactly as for
// `System`; the counters are statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            Self::grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

// glibc, which the standard library already links on Linux.  The masks
// are 1024-CPU `cpu_set_t`s, as glibc defines them.
#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: std::ffi::c_int, size: usize, mask: *mut u64) -> std::ffi::c_int;
    fn sched_setaffinity(pid: std::ffi::c_int, size: usize, mask: *const u64) -> std::ffi::c_int;
}

/// The CPUs the process may run on; empty where they cannot be read.
#[cfg(target_os = "linux")]
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live `cpu_set_t`-sized buffer for the whole call,
    // `size` is its length in bytes, and pid 0 names the calling thread.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if status != 0 {
        return Vec::new();
    }
    (0..64 * mask.len())
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Pins the calling thread, and every thread it spawns later, to `cpu`;
/// false where pinning failed.
#[cfg(target_os = "linux")]
fn pin_to_cpu(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: as in `allowed_cpus`; the mask is only read.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
fn pin_to_cpu(_cpu: usize) -> bool {
    false
}

/// Per-layer metrics read from spans: `(metric, span, unit, per_job)`.
/// `per_job` sums the span within each traced job before the median;
/// otherwise the median is over single calls.
const SPAN_METRICS: [(&str, &str, &str, bool); 12] = [
    ("gen.generate_us", "gen.generate", "us", false),
    ("spec.parse_us", "spec.parse", "us", false),
    ("spec.lower_us", "spec.lower", "us", false),
    ("proc.workload_ms", "proc.workload", "ms", false),
    ("proc.golden_ms", "proc.golden", "ms", true),
    ("netlist.predict_us", "netlist.predict", "us", false),
    ("sim.sweep_ms", "sim.sweep", "ms", true),
    ("sim.equiv_ms", "sim.equiv", "ms", true),
    ("sim.lane_run_ms", "sim.lane_run", "ms", true),
    ("dse.setup_us", "dse.setup", "us", false),
    ("dse.search_ms", "dse.search", "ms", true),
    ("dse.merge_ms", "dse.merge", "ms", true),
];

/// Layers whose self time the traced run reports.
const SELF_LAYERS: [&str; 6] = ["bench", "proc", "netlist", "sim", "spec", "dse"];

/// Every per-layer counter a job can report; the traced run prints each
/// (0 where the workload does not reach the layer).
const COUNTERS: [&str; 15] = [
    "sim.sweep_leases",
    "sim.sweep_steals",
    "sim.lane_batches",
    "sim.lanes_filled",
    "sim.lane_fallbacks",
    "sim.oracle_simulated_cycles",
    "sim.oracle_extrapolated_cycles",
    "sim.oracle_extrapolations",
    "sim.oracle_fallbacks",
    "sim.equiv_cycles",
    "sim.lane_simulated_cycles",
    "sim.lanes_extrapolated",
    "sim.lanes_run",
    "dse.scored",
    "dse.frontier_points",
];

/// Per-layer metrics a workload computes once per run ([`Layers`]):
/// probes outside the jobs, and ratios over the traced jobs.
const PROBES: [(&str, &str); 5] = [
    ("sim.scalar_ns_per_cycle", "ns"),
    ("core.equiv_overhead_ratio", "ratio"),
    ("sim.lane_ns_per_cycle", "ns"),
    ("dse.score_ns", "ns"),
    ("bench.spot_verify_ms", "ms"),
];

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

fn run(args: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let tracer = Tracer::new(args.trace);
    let mut expected = Expected::load(&args.workload)?;

    // The run's inputs; every repeat of the set-up builds the same ones.
    let mut setup_s = Vec::new();
    let repeat_setup = |setup_s: &mut Vec<f64>| -> Result<Box<dyn Workload>, String> {
        let start = Instant::now();
        let workload = setup(&args.workload, args.seed, &tracer)?;
        setup_s.push(start.elapsed().as_secs_f64());
        Ok(workload)
    };
    let mut workload = repeat_setup(&mut setup_s)?;
    if args.record {
        for index in 0..workload.pass_len() {
            let out = workload.job(index, &tracer)?;
            expected.insert(out.key, out.text);
        }
        expected.save(&args.workload)?;
        return Ok((true, 0, 0, Metrics(Vec::new())));
    }
    // A single-worker workload runs each pass pinned to one CPU (its sweep
    // thread then shares the CPU of the thread that spawned it), and the
    // CPU turns with every pass (every pair of passes in the traced run, so
    // that traced and untraced passes share it).  The speed of one vCPU of
    // a shared guest drifts in phases of seconds to minutes, only partly in
    // step with the other's, so a run pinned to one CPU throughout takes
    // that CPU's phase; turning, every run samples all of them, as the
    // two-worker Table-1 jobs do.
    let cpus = if workload.workers() == 1 {
        allowed_cpus()
    } else {
        Vec::new()
    };
    let passes_per_cpu = if args.trace { 2 } else { 1 };
    let pin_for_pass = |pass: u64| {
        let turn = (pass / passes_per_cpu) as usize;
        cpus.get(turn % cpus.len().max(1))
            .is_some_and(|&cpu| pin_to_cpu(cpu))
    };
    let pin = if pin_for_pass(0) {
        format!("each pass pinned to one of CPUs {cpus:?} in turn")
    } else {
        "not pinned to a CPU".to_string()
    };
    let mut probe = Probe::new();
    let pass_len = workload.pass_len();
    eprintln!(
        "{}: seed {}, {} worker(s), nproc {nproc}, {pin}",
        args.workload,
        args.seed,
        workload.workers()
    );

    // Untimed warm-up job, checked like every other.
    let mut failures: Vec<String> = Vec::new();
    // The first output per input, and its exact counters.
    let mut references: BTreeMap<u64, (String, Counters)> = BTreeMap::new();
    let mut committed = 0u64;
    let mut check = |workload: &mut Box<dyn Workload>, out: &JobOutput| -> Result<(), String> {
        committed += u64::from(expected.check(out.key, &out.text)?);
        workload.check(out)?;
        match references.get(&out.key) {
            Some((first, _)) if *first != out.text => Err(format!(
                "job output on input {} differs from the first job's",
                out.key
            )),
            Some(_) => Ok(()),
            None => {
                references.insert(out.key, (out.text.clone(), out.counters.clone()));
                Ok(())
            }
        }
    };
    tracer.set_enabled(false);
    let warm = workload
        .job(0, &tracer)
        .and_then(|out| check(&mut workload, &out));
    if let Err(e) = warm {
        failures.push(format!("warm-up job: {e}"));
    }
    probe.sample();

    // Checked operations: the warm-up, every timed job, the per-run check.
    let mut attempted = 1u64;
    let mut jobs = 0u64;
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut config_rates = Vec::new();
    let mut cycle_rates = Vec::new();
    let mut heap_mb = Vec::new();
    let mut gauges: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let budget = Duration::from_secs_f64(args.seconds);
    // The traced run traces every other pass, so that its traced and
    // untraced jobs cover the same inputs.
    let min_jobs = pass_len * if args.trace { 2 } else { 1 };
    let start = Instant::now();
    while jobs < min_jobs || start.elapsed() < budget || !jobs.is_multiple_of(pass_len) {
        if jobs.is_multiple_of(pass_len) {
            pin_for_pass(jobs / pass_len);
        }
        jobs += 1;
        attempted += 1;
        let traced = args.trace && ((jobs - 1) / pass_len) % 2 == 1;
        tracer.set_enabled(traced);
        tracer.set_job(jobs);
        // The job's own heap: its peak less what was live when it started.
        let live_at_start = LIVE_BYTES.load(Ordering::Relaxed);
        PEAK_BYTES.store(live_at_start, Ordering::Relaxed);
        let job_start = Instant::now();
        let result = tracer.span("bench.job", || workload.job(jobs, &tracer));
        let seconds = job_start.elapsed().as_secs_f64();
        let peak_bytes = PEAK_BYTES.load(Ordering::Relaxed) - live_at_start;
        let peak_mb = peak_bytes as f64 / (1024.0 * 1024.0);
        tracer.set_enabled(false);
        probe.sample();
        tracer.set_job(0);
        tracer.set_enabled(args.trace);
        repeat_setup(&mut setup_s)?;
        tracer.set_enabled(false);
        let out = match result.and_then(|out| check(&mut workload, &out).map(|()| out)) {
            Ok(out) => out,
            Err(e) => {
                failures.push(format!("job {jobs}: {e}"));
                continue;
            }
        };
        if traced {
            traced_ms.push(seconds * 1e3);
            for (name, value) in &out.gauges {
                gauges.entry(name).or_default().push(*value as f64);
            }
        } else {
            untraced_ms.push(seconds * 1e3);
            config_rates.push(out.configs as f64 / seconds);
            cycle_rates.push(out.model_cycles as f64 / seconds);
            heap_mb.push(peak_mb);
        }
    }
    tracer.set_job(0);
    tracer.set_enabled(args.trace);
    while setup_s.len() < SETUP_MIN_REPEATS {
        repeat_setup(&mut setup_s)?;
    }
    attempted += 1;
    let layers = workload.per_run(args.trace, &tracer).unwrap_or_else(|e| {
        failures.push(format!("per-run check: {e}"));
        Layers::new()
    });
    for failure in &failures {
        eprintln!("FAILED {failure}");
    }
    eprintln!(
        "{} checked operation(s), {} failed; {committed} job output(s) matched a committed \
         expectation, {} distinct input(s)",
        attempted,
        failures.len(),
        references.len()
    );

    let (p, tail_ms) = tail(&untraced_ms).unwrap_or((50, median(&untraced_ms)));
    println!(
        "{}: {} worker(s), nproc {nproc}, {pin}; {} untraced job(s) in passes of {pass_len}, \
         job_tail_ms is p{p}; {} set-up repeat(s); host probe {:.1} ns/load",
        args.workload,
        workload.workers(),
        untraced_ms.len(),
        setup_s.len(),
        probe.median_ns(),
    );
    let mut metrics = Metrics(Vec::new());
    if args.trace {
        for (metric, span, unit, per_job) in SPAN_METRICS {
            let samples = if per_job {
                tracer.per_job_ms(span)
            } else {
                tracer.durations_ms(span)
            };
            let scale = if unit == "us" { 1e3 } else { 1.0 };
            metrics.push(metric, median(&samples) * scale, unit);
        }
        let self_ms = tracer.self_ms_per_job();
        for layer in SELF_LAYERS {
            metrics.push(
                format!("self.{layer}_ms"),
                self_ms.get(layer).copied().unwrap_or(0.0),
                "ms",
            );
        }
        // Exact counters are summed over the run's distinct inputs (one
        // input except for netlist_check's pool); scheduling-dependent
        // ones are medians over the traced jobs.
        let mut exact: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (_, counters) in references.values() {
            for (name, value) in counters {
                *exact.entry(name).or_default() += value;
            }
        }
        for name in COUNTERS {
            let value = match exact.get(name) {
                Some(v) => *v as f64,
                None => gauges.get(name).map_or(0.0, |v| median(v)),
            };
            metrics.push(name, value, "count");
        }
        for (name, unit) in PROBES {
            let value = layers
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            metrics.push(name, value, unit);
        }
        metrics.push(
            "trace.overhead_ms",
            median(&traced_ms) - median(&untraced_ms),
            "ms",
        );
        metrics.push("sim.model_cycles_per_s", median(&cycle_rates), "1/s");
        metrics.push("host.probe_ns", probe.median_ns(), "ns");
        let path = std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/traces"))
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    } else {
        metrics.push("setup_s", median(&setup_s), "s");
        metrics.push("job_p50_ms", median(&untraced_ms), "ms");
        metrics.push("job_tail_ms", tail_ms, "ms");
        metrics.push("configs_per_s", median(&config_rates), "1/s");
        metrics.push("peak_heap_mb", median(&heap_mb), "MB");
    }
    Ok((
        failures.is_empty(),
        attempted,
        failures.len() as u64,
        metrics,
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--record]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(_) if args.record => eprintln!("recorded expectations for {}", args.workload),
        Ok((correct, attempted, failed, metrics)) => println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {}}}",
            metrics.json()
        ),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, one around each
//! public call into a layer of the flow; the program under test carries no
//! tracing.  A span's layer is the part of its name before the first `.`
//! (`sim.sweep` belongs to `sim`).  Everything stays in memory until the
//! run ends and [`Tracer::write`] dumps it.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job the span belongs to (0 = set-up and probes outside the jobs).
    pub job: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans on the calling thread when enabled; a disabled
/// tracer only runs the closures.
pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    job: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            job: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Turns recording on or off (the traced run alternates traced and
    /// untraced passes to measure the tracing overhead).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Tags the spans recorded from now on with `job`.
    pub fn set_job(&self, job: u64) {
        self.job.set(job);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                job: self.job.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let result = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        result
    }

    /// Durations in milliseconds of every span called `name`, in order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Per-job durations in milliseconds of the spans called `name`, summed
    /// within each job (jobs > 0 only).
    pub fn per_job_ms(&self, name: &str) -> Vec<f64> {
        let mut by_job: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.borrow().iter() {
            if s.name == name && s.job > 0 {
                *by_job.entry(s.job).or_default() += s.duration_ns() as f64 / 1e6;
            }
        }
        by_job.into_values().collect()
    }

    /// Self time (span minus the time its child spans cover) summed per
    /// layer over the spans of jobs > 0, in milliseconds per traced job.
    pub fn self_ms_per_job(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(parent) = s.parent {
                child_ns[parent] += s.duration_ns();
            }
        }
        let mut jobs: Vec<u64> = spans.iter().map(|s| s.job).filter(|&j| j > 0).collect();
        jobs.sort_unstable();
        jobs.dedup();
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, children) in spans.iter().zip(&child_ns) {
            if s.job > 0 {
                *layers.entry(s.layer()).or_default() +=
                    s.duration_ns().saturating_sub(*children) as f64 / 1e6;
            }
        }
        for value in layers.values_mut() {
            *value /= jobs.len().max(1) as f64;
        }
        layers
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"job\": {}}}",
                s.name, s.start_ns, s.end_ns, s.job
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

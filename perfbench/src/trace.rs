//! Span recording around the benchmark's calls into each layer.
//!
//! Every operation the benchmark times is an *op span* (no parent); every
//! call the benchmark makes into a layer's public functions while that op
//! runs is a *call span* whose parent is the op. Call spans do not nest
//! (the benchmark never calls a layer from inside another traced call), so
//! a call span's self time is its duration and an op span's self time is
//! its duration minus the time its calls cover — the benchmark's own glue.
//!
//! With tracing off, [`Tracer::call`] is a plain call: no clock reads and
//! nothing recorded. Spans stay in memory and are written once, when the
//! run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Name of the op span kind in reports.
pub const OP: &str = "op";

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    /// Id of the op the span belongs to (its own id for an op span).
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Spans recorded up to the end of the first measured round: the part
    /// written to the span file.
    keep: usize,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            keep: 0,
            op: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new op: every following call span belongs to it.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Run `f` as a call span named `name` under the current op.
    #[inline]
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            start_ns,
            end_ns,
        });
        r
    }

    /// Record the current op's own span from instants the caller took.
    pub fn op_span(&mut self, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: OP,
            op: self.op,
            start_ns,
            end_ns,
        });
    }

    /// Drop every span recorded so far (the warm-up round's).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.keep = 0;
    }

    /// Mark the spans recorded so far as the ones to write out.
    pub fn mark_written_prefix(&mut self) {
        if self.keep == 0 {
            self.keep = self.spans.len();
        }
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut total: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            let d = s.end_ns - s.start_ns;
            *total.entry(s.name).or_default() += d;
            if s.name != OP {
                *covered.entry(s.op).or_default() += d;
            }
        }
        // An op's own time is its duration minus what its calls cover.
        let covered_by_ops: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == OP)
            .map(|s| covered.get(&s.op).copied().unwrap_or(0))
            .sum();
        if let Some(t) = total.get_mut(OP) {
            *t = t.saturating_sub(covered_by_ops);
        }
        total
    }

    /// Write the first measured round's spans as tab-separated lines
    /// `name op start_ns end_ns` (times relative to the tracer's start).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "name\top\tstart_ns\tend_ns")?;
        let n = if self.keep == 0 {
            self.spans.len()
        } else {
            self.keep
        };
        for s in &self.spans[..n] {
            writeln!(w, "{}\t{}\t{}\t{}", s.name, s.op, s.start_ns, s.end_ns)?;
        }
        w.flush()
    }
}

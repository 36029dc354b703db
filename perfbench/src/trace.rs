//! In-memory spans for the traced run: name, start, end, parent and
//! request id, recorded around calls the benchmark makes into each
//! layer's public functions, and written out once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    /// The instant span times count from.
    pub fn clock(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span with explicit bounds.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span { name, start_ns, end_ns, parent, request });
        self.spans.len() - 1
    }

    /// Opens a span that children will attach to; finish it with `close`.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&mut self, span: usize) {
        let now = self.now_ns();
        self.spans[span].end_ns = now;
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now_ns();
        let out = std::hint::black_box(f());
        let end = self.now_ns();
        self.record(name, parent, request, start, end);
        out
    }

    pub fn duration_us(&self, span: usize) -> f64 {
        self.spans[span].duration_ns() as f64 / 1e3
    }

    /// Self time of every span, summed per `(request, name)`, then gathered
    /// per name into one value per request that has such spans, µs.
    ///
    /// Layer calls are replayed one after another rather than nested in
    /// one interval, so a span's self time is its duration minus the
    /// durations of the spans whose parent it is.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut per_request: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let own = span.duration_ns() as f64 - *children as f64;
            *per_request.entry((span.name, span.request)).or_default() += own / 1e3;
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), value) in per_request {
            out.entry(name).or_default().push(value);
        }
        out
    }

    /// Per request, the summed duration of the spans named `name` and the
    /// summed duration of their direct children, µs.
    pub fn split(&self, name: &str) -> BTreeMap<u64, (f64, f64)> {
        let mut out: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for span in &self.spans {
            let us = span.duration_ns() as f64 / 1e3;
            if span.name == name {
                out.entry(span.request).or_default().0 += us;
            }
            if span.parent.is_some_and(|p| self.spans[p].name == name) {
                out.entry(span.request).or_default().1 += us;
            }
        }
        out
    }

    /// Appends every span as one JSON object per line.
    pub fn write_jsonl(&self, phase: &str, out: &mut impl Write) -> std::io::Result<()> {
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"phase\":\"{phase}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        Ok(())
    }
}

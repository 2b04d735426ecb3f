//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out once at exit.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One timed call: `parent` is the index of the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. Spans nest through an explicit stack of open spans.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now();
    }

    /// Run `f` inside a span and return its result.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(layer, name);
        let out = f();
        self.end(id);
        out
    }

    /// Total duration of the spans named `name`, and how many there were.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(t, n), s| (t + s.ns(), n + 1))
    }

    /// Self time per layer: each span's duration less the part of it its
    /// child spans cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.layer).or_insert(0) += s.ns().saturating_sub(c);
        }
        out
    }
}

/// Write the spans of several tracers, one JSON object a line; ids and
/// parents are offset so they stay unique across tracers.
pub fn write_jsonl(tracers: &[&Tracer], path: &std::path::Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut base = 0;
    for t in tracers {
        for (i, s) in t.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or("null".to_owned(), |p| (base + p as usize).to_string());
            writeln!(
                w,
                r#"{{"id":{},"parent":{parent},"layer":"{}","name":"{}","start_ns":{},"end_ns":{}}}"#,
                base + i,
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        base += t.spans.len();
    }
    w.flush()
}

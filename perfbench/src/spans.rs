//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end and the span that was open when it
//! began. Spans are recorded from the benchmark's own code around calls
//! into the simulator's crates (nothing inside the program is traced), kept
//! in memory, and written out as JSON once the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::quote;

#[derive(Debug)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The recorder: a flat list of spans plus the stack of open ones.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` and returns its result with the
    /// span's duration in seconds. Spans opened inside `f` are its children.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Duration in seconds of the last finished span named `name`.
    pub fn last_secs(&self, name: &str) -> Option<f64> {
        let s = self.spans.iter().rev().find(|s| s.name == name)?;
        Some((s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    /// Writes every span as a JSON array of
    /// `{"id","name","start_us","end_us","parent"}` objects.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {parent}}}{}",
                quote(&s.name),
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                if i + 1 < self.spans.len() { "," } else { "" },
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

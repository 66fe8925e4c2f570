//! In-memory span recorder for the traced run: one span per call the
//! benchmark makes into the program (server start, each request from
//! its scheduled send to its last byte, each stats scrape, each layer
//! replay), written out as CSV when the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Span ids at or above this are the benchmark's own (phases, scrapes,
/// replays); request spans use the request's sequence number.
const OWN_IDS: u64 = 1 << 62;

pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

pub struct Spans {
    base: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            base: Instant::now(),
            next_id: OWN_IDS,
            spans: Vec::new(),
        }
    }

    /// A fresh id for a span the benchmark is about to open.
    pub fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<R>(&mut self, parent: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.id();
        let start = Instant::now();
        let r = f();
        self.record(id, parent, name, start, Instant::now());
        r
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes `id,parent,name,start_ns,end_ns` lines, times relative to
    /// the recorder's creation.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{}",
                s.id,
                s.parent,
                s.name,
                s.start.saturating_duration_since(self.base).as_nanos(),
                s.end.saturating_duration_since(self.base).as_nanos()
            )?;
        }
        out.flush()
    }
}

//! In-memory spans around each layer's public entry point.
//!
//! Nothing inside the library is instrumented yet, so an inner layer's
//! span is made by *replaying* its call on the same batch right after
//! the outer call and recording it as the outer span's child. A span's
//! self time is therefore its own duration minus its children's
//! durations, not an interval subtraction.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub batch: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One row of the stage table.
pub struct StageRow {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
}

impl Tracer {
    /// Room for `cap` spans, allocated up front so recording never
    /// grows the vector inside a measured region.
    pub fn new(cap: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(cap),
            cap,
        }
    }

    /// Whether another batch's worth of spans still fits.
    pub fn has_room(&self) -> bool {
        self.spans.len() + 64 <= self.cap
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a span whose interval was measured elsewhere (the
    /// library's own build-report timers).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        batch: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            batch,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        batch: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        (out, self.record(name, parent, batch, start, end))
    }

    /// Total duration of the spans that have no parent.
    pub fn top_level_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(Span::dur)
            .sum()
    }

    fn self_times(&self) -> Vec<u64> {
        let mut child_sum = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_sum[s.parent as usize] += s.dur();
            }
        }
        self.spans
            .iter()
            .zip(child_sum)
            .map(|(s, c)| s.dur().saturating_sub(c))
            .collect()
    }

    /// Per span name: count, total and self time, in first-seen order.
    pub fn table(&self) -> Vec<StageRow> {
        let mut rows: Vec<StageRow> = Vec::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let at = rows
                .iter()
                .position(|r| r.name == s.name)
                .unwrap_or_else(|| {
                    rows.push(StageRow {
                        name: s.name,
                        count: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    rows.len() - 1
                });
            rows[at].count += 1;
            rows[at].total_ns += s.dur();
            rows[at].self_ns += self_ns;
        }
        rows
    }

    /// Self time per layer; a span's layer is its name up to the first
    /// dot.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for row in self.table() {
            let layer = row.name.split('.').next().unwrap_or(row.name);
            *out.entry(layer).or_insert(0) += row.self_ns;
        }
        out
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"batch\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.batch, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

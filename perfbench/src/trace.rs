//! In-memory span recording around the benchmark's own calls into each crate.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer was created), the
//! index of the span that caused it and the run (one workload iteration) it belongs to.
//! Spans are kept in memory and written out once, when the benchmark ends. A span's
//! self time is its duration minus the part of its interval that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
    /// The pool worker that executed the span, for chunk spans.
    pub worker: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span, closed by [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    start_ns: u64,
    parent: Option<usize>,
    run: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent` in `run`.
    pub fn begin(&self, parent: Option<usize>, run: u64) -> Open {
        Open {
            start_ns: self.now_ns(),
            parent,
            run,
        }
    }

    /// Closes `open` as a span named `name`.
    pub fn end(&self, open: Open, name: &str) {
        self.end_on(open, name, None);
    }

    /// Closes `open`, recording the pool worker that ran it.
    pub fn end_on(&self, open: Open, name: &str, worker: Option<usize>) {
        let end_ns = self.now_ns();
        self.push(Span {
            name: name.to_string(),
            start_ns: open.start_ns,
            end_ns,
            parent: open.parent,
            run: open.run,
            worker,
        });
    }

    /// Records an already-measured interval; returns its index.
    fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Reserves a parent slot whose interval is filled in later by [`Tracer::close`]:
    /// children recorded in between can already name it.
    pub fn reserve(&self, name: &str, parent: Option<usize>, run: u64) -> usize {
        let start_ns = self.now_ns();
        self.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            run,
            worker: None,
        })
    }

    /// Sets the end of a reserved span to now.
    pub fn close(&self, index: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned")[index].end_ns = end_ns;
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// The part of span `index`'s interval that its children cover, in nanoseconds.
    pub fn covered_by_children(spans: &[Span], index: usize) -> u64 {
        covered_ns(
            &spans[index],
            spans
                .iter()
                .filter(|s| s.parent == Some(index))
                .map(|s| (s.start_ns, s.end_ns)),
        )
    }

    /// Self time per span name, in nanoseconds, summed over all spans of that name.
    pub fn self_times(&self) -> BTreeMap<String, (u64, usize)> {
        let spans = self.spans();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, span) in spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<String, (u64, usize)> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            let covered = covered_ns(
                span,
                children[i]
                    .iter()
                    .map(|&c| (spans[c].start_ns, spans[c].end_ns)),
            );
            let entry = out.entry(span.name.clone()).or_default();
            entry.0 += span.dur_ns().saturating_sub(covered);
            entry.1 += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let worker = s.worker.map_or("null".to_string(), |w| w.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{},\"worker\":{worker}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}

/// The length of the union of `intervals`, clipped to `span`.
fn covered_ns(span: &Span, intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .map(|(s, e)| (s.max(span.start_ns), e.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new();
        let root = t.push(Span {
            name: "root".into(),
            start_ns: 0,
            end_ns: 100,
            parent: None,
            run: 0,
            worker: None,
        });
        for (s, e) in [(10, 40), (30, 50), (90, 120)] {
            t.push(Span {
                name: "child".into(),
                start_ns: s,
                end_ns: e,
                parent: Some(root),
                run: 0,
                worker: None,
            });
        }
        let selfs = t.self_times();
        assert_eq!(selfs["root"], (100 - 40 - 10, 1));
        assert_eq!(selfs["child"], (30 + 20 + 30, 3));
    }
}

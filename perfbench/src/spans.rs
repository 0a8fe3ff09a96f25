//! Host-time spans recorded around the benchmark's own calls into each
//! layer (only under `--trace 1`).
//!
//! Spans are kept in memory and written once, at exit, as Chrome-trace
//! JSON (loads in <https://ui.perfetto.dev> like the repository's own
//! exports), plus a per-name table of count, total and self time. A span's
//! self time is its duration minus the part of its interval that its child
//! spans cover; children on other threads (serve clients) may overlap each
//! other, so coverage is the union of their intervals, clipped to the
//! parent.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span, in nanoseconds since the recorder's
/// origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub tid: u32,
}

/// A span recorder for one thread; disabled recorders cost one branch.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an entered span (`None` when recording is off).
pub type SpanId = Option<usize>;

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans::with_origin(enabled, Instant::now(), 0)
    }

    /// A recorder for another thread sharing `origin`'s clock, to be
    /// [`Spans::absorb`]ed back.
    pub fn with_origin(enabled: bool, origin: Instant, tid: u32) -> Spans {
        Spans {
            enabled,
            origin,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            tid: self.tid,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Closes `id` (and any span left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Moves another thread's spans in; its root spans become children of
    /// the innermost span open here.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        let adopt = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base).or(adopt);
            span
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome-trace JSON ("X" complete events, microsecond timestamps).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\": \"{}\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \
                 \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"id\": {id}, \"parent\": {parent}}}}}",
                span.name,
                span.tid,
                span.start_ns as f64 / 1e3,
                span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Per span name: `(count, total ns, self ns)`.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        let mut totals = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(&mut children) {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let covered = covered_ns(span.start_ns, span.end_ns, kids);
            let entry = totals.entry(span.name).or_insert((0, 0, 0));
            entry.0 += 1;
            entry.1 += duration;
            entry.2 += duration - covered;
        }
        totals
    }

    /// The per-name table, largest total first.
    pub fn format_table(&self) -> String {
        let mut rows: Vec<_> = self.totals().into_iter().collect();
        rows.sort_by(|a, b| b.1 .1.cmp(&a.1 .1).then(a.0.cmp(b.0)));
        let mut out = format!(
            "{:<24} {:>8} {:>12} {:>12}\n",
            "span", "count", "total ms", "self ms"
        );
        for (name, (count, total, own)) in rows {
            let _ = writeln!(
                out,
                "{name:<24} {count:>8} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        out
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(from, to) in intervals.iter() {
        let from = from.max(cursor);
        let to = to.min(end);
        if to > from {
            covered += to - from;
            cursor = to;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            tid: 0,
        }
    }

    fn recorder(spans: Vec<Span>) -> Spans {
        let mut recorder = Spans::new(true);
        recorder.spans = spans;
        recorder
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = recorder(vec![
            span("rep", 0, 100, None),
            span("build", 10, 30, Some(0)),
            span("run", 40, 90, Some(0)),
            span("probe", 50, 60, Some(2)),
        ]);
        let totals = spans.totals();
        assert_eq!(totals["rep"], (1, 100, 30));
        assert_eq!(totals["build"], (1, 20, 20));
        assert_eq!(totals["run"], (1, 50, 40));
        assert_eq!(totals["probe"], (1, 10, 10));
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped_to_the_parent() {
        let spans = recorder(vec![
            span("window", 100, 200, None),
            span("request", 90, 150, Some(0)),
            span("request", 120, 160, Some(0)),
            span("request", 180, 250, Some(0)),
        ]);
        let totals = spans.totals();
        // Covered: [100, 160) and [180, 200) = 80 of 100.
        assert_eq!(totals["window"], (1, 100, 20));
        assert_eq!(totals["request"], (3, 60 + 40 + 70, 60 + 40 + 70));
    }

    #[test]
    fn recorder_nests_closes_and_adopts_other_threads() {
        let mut spans = Spans::new(true);
        let outer = spans.enter("outer");
        let inner = spans.enter("inner");
        spans.exit(inner);
        let mut worker = Spans::with_origin(true, spans.origin(), 7);
        let request = worker.enter("request");
        worker.exit(request);
        spans.absorb(worker);
        spans.exit(outer);
        let recorded = spans.spans();
        assert_eq!(recorded.len(), 3);
        assert_eq!(recorded[1].parent, Some(0));
        assert_eq!(recorded[2].parent, Some(0));
        assert_eq!(recorded[2].tid, 7);
        assert!(recorded.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(recorded[0].end_ns >= recorded[1].end_ns);
        let json = spans.to_chrome_json();
        assert!(json.contains("\"name\": \"request\""), "{json}");
        assert!(spans.format_table().contains("outer"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut spans = Spans::new(false);
        let id = spans.enter("run");
        assert_eq!(id, None);
        spans.exit(id);
        assert!(spans.spans().is_empty());
    }
}

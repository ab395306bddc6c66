//! In-memory spans recorded by the benchmark around its calls into the
//! library's public functions (outside-in: nothing inside `crates/` is
//! instrumented). Spans are kept in a `Vec` and written once, after the
//! last timed operation.

use crate::stats::{json_number, json_string};
use std::collections::BTreeMap;
use std::time::Instant;

/// One span: a named interval, the span that caused it and the request
/// (launch or wire request) it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Totals of every span that shares a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part of each interval its child spans cover.
    pub self_ns: u64,
}

/// The span recorder. `origin` is process start, so span times line up
/// with `setup_s`.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer { origin, spans: Vec::new(), stack: Vec::new() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let start_ns = self.ns(Instant::now());
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) -> f64 {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.ns(Instant::now());
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span and returns its result and duration in
    /// seconds.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name, request);
        let r = f();
        (r, self.end(id))
    }

    /// Records an interval the caller timed itself (the timed loops take
    /// their own `Instant`s so the traced and untraced loops read the
    /// clock equally often).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start_ns, end_ns, parent, request });
    }

    /// Re-dates span `id` to begin at the tracer's origin, which it
    /// returns: the first set-up starts with the process, before the
    /// tracer exists.
    pub fn backdate_to_origin(&mut self, id: usize) -> Instant {
        self.spans[id].start_ns = 0;
        self.origin
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Per-name totals with self time: a span's duration minus the union
    /// of the parts of it that its direct children cover.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let (lo, hi) = (self.spans[p].start_ns, self.spans[p].end_ns);
                let clipped = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
                children[p].push(clipped);
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += total;
            e.self_ns += total - covered(kids);
        }
        out
    }

    /// The span file: every span, the per-name self times and the counts
    /// read at the same boundaries.
    pub fn to_json(&self, workload: &str, seed: u64, counts: &[(String, f64)]) -> String {
        let mut s = String::with_capacity(64 + 96 * self.spans.len());
        s.push_str(&format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"clock\": \"ns since process start\",\n",
            json_string(workload)
        ));
        s.push_str("\"self_time\": {");
        let totals: Vec<String> = self
            .totals()
            .iter()
            .map(|(name, t)| {
                format!(
                    "\n  {}: {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                    json_string(name),
                    t.count,
                    t.total_ns,
                    t.self_ns
                )
            })
            .collect();
        s.push_str(&totals.join(","));
        s.push_str("\n},\n\"counts\": {");
        let counts: Vec<String> = counts
            .iter()
            .map(|(k, v)| format!("\n  {}: {}", json_string(k), json_number(*v)))
            .collect();
        s.push_str(&counts.join(","));
        s.push_str("\n},\n\"spans\": [");
        for (id, sp) in self.spans.iter().enumerate() {
            if id > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            s.push_str(&format!(
                "\n  {{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}}}",
                json_string(sp.name),
                sp.start_ns,
                sp.end_ns,
                sp.request
            ));
        }
        s.push_str("\n]}\n");
        s
    }
}

/// Length of the union of `intervals` (sorted in place).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, 0u64);
    for &(lo, hi) in intervals.iter() {
        let lo = lo.max(reach);
        if hi > lo {
            total += hi - lo;
            reach = hi;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(covered(&mut []), 0);
        assert_eq!(covered(&mut [(0, 10), (20, 30)]), 20);
        assert_eq!(covered(&mut [(5, 15), (0, 10), (12, 14)]), 15);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(Instant::now());
        // parent 0..100, children 10..30 and 20..50 (overlapping), and a
        // grandchild that must not be subtracted from the parent twice.
        t.spans.push(Span { name: "p", start_ns: 0, end_ns: 100, parent: None, request: 1 });
        t.spans.push(Span { name: "c", start_ns: 10, end_ns: 30, parent: Some(0), request: 1 });
        t.spans.push(Span { name: "c", start_ns: 20, end_ns: 50, parent: Some(0), request: 1 });
        t.spans.push(Span { name: "g", start_ns: 12, end_ns: 18, parent: Some(1), request: 1 });
        let totals = t.totals();
        assert_eq!(totals["p"], NameTotals { count: 1, total_ns: 100, self_ns: 60 });
        assert_eq!(totals["c"], NameTotals { count: 2, total_ns: 50, self_ns: 44 });
        assert_eq!(totals["g"], NameTotals { count: 1, total_ns: 6, self_ns: 6 });
    }

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut t = Tracer::new(Instant::now());
        let outer = t.begin("outer", 7);
        let ((), _) = t.span("inner", 7, || ());
        let now = Instant::now();
        t.record("leaf", 8, now, now);
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(outer));
        assert_eq!(t.spans()[2].parent, Some(outer));
        assert_eq!(t.spans()[2].request, 8);
        assert_eq!(t.durations_s("inner").len(), 1);
        let json = t.to_json("w", 3, &[("k".to_string(), 2.0)]);
        assert!(json.contains("\"workload\": \"w\"") && json.contains("\"k\": 2"));
        assert!(json.contains("\"parent\": null") && json.contains("\"parent\": 0"));
    }
}

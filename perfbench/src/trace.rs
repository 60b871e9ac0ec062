//! Spans recorded by the benchmark around its calls into the library.
//!
//! A span has a name, a start and an end (seconds since the tracer was
//! made), the span that caused it, and a request id shared by every
//! span of one request. Spans stay in memory until the run ends.

use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// An in-memory span recorder, shareable across threads.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    recording: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Mutex::new(Vec::new()), recording: true }
    }
}

impl Tracer {
    /// A tracer that records nothing: the same code runs without spans.
    pub fn off() -> Self {
        Tracer { recording: false, ..Tracer::default() }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        if !self.recording {
            return SpanId::MAX;
        }
        let start = self.now();
        let mut spans = self.spans.lock().expect("tracer lock poisoned by a panicking span");
        spans.push(Span { name, start, end: f64::NAN, parent, request });
        spans.len() - 1
    }

    /// Close a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId) {
        if !self.recording {
            return;
        }
        let end = self.now();
        self.spans.lock().expect("tracer lock poisoned by a panicking span")[id].end = end;
    }

    /// Run `f` inside a span and return its result.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned by a panicking span").clone()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its direct children cover. Children that overlap (parallel
/// work) are counted once.
pub fn self_time(spans: &[Span], id: SpanId) -> f64 {
    let me = &spans[id];
    let children: Vec<(f64, f64)> =
        spans.iter().filter(|s| s.parent == Some(id)).map(|s| (s.start, s.end)).collect();
    me.duration() - covered(children, me.start, me.end)
}

/// Total duration of the spans called `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::duration).sum()
}

/// Share of the root spans' time that leaf spans cover: one minus the
/// self time of every span that has children, over the roots' total.
/// A leaf is a layer call the benchmark timed; self time of an inner
/// span is work between layer calls that no span names.
pub fn coverage(spans: &[Span]) -> f64 {
    let roots: f64 = spans.iter().filter(|s| s.parent.is_none()).map(Span::duration).sum();
    if roots <= 0.0 {
        return 0.0;
    }
    let mut has_children = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_children[p] = true;
        }
    }
    let unnamed: f64 =
        (0..spans.len()).filter(|&i| has_children[i]).map(|i| self_time(spans, i)).sum();
    1.0 - unnamed / roots
}

/// The spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"request\":{}}}\n",
            s.name, s.start, s.end, s.request
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span { name, start, end, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        // root [0,10] ⊃ a [1,4] ⊃ a1 [2,3]; b [3,6] overlaps a; c [9,12]
        // runs past the root's end and counts only up to it.
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("a1", 2.0, 3.0, Some(1)),
            span("b", 3.0, 6.0, Some(0)),
            span("c", 9.0, 12.0, Some(0)),
        ];
        // Children of root cover [1,6] ∪ [9,10] = 6.
        assert!((self_time(&spans, 0) - 4.0).abs() < 1e-12);
        // Grandchildren do not count against the root, only against a.
        assert!((self_time(&spans, 1) - 2.0).abs() < 1e-12);
        assert!((self_time(&spans, 2) - 1.0).abs() < 1e-12);
        // Leaves are all self time.
        assert!((self_time(&spans, 3) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_is_leaf_share_of_roots() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("a1", 2.0, 3.0, Some(1)),
            span("b", 3.0, 6.0, Some(0)),
        ];
        // Unnamed: root self 5 + a self 2 = 7 of 10.
        assert!((coverage(&spans) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn recorded_spans_nest_and_carry_requests() {
        let tracer = Tracer::default();
        let root = tracer.begin("root", None, 7);
        let x = tracer.time("leaf", Some(root), 7, || 41 + 1);
        tracer.end(root);
        assert_eq!(x, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert!(self_time(&spans, 0) <= spans[0].duration());
        assert!(to_jsonl(&spans).lines().count() == 2);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let tracer = Tracer::off();
        let root = tracer.begin("root", None, 1);
        assert_eq!(tracer.time("leaf", Some(root), 1, || 3), 3);
        tracer.end(root);
        assert!(tracer.spans().is_empty());
    }
}

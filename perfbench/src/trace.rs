//! In-memory spans recorded around calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it, and
//! the id of the request it belongs to. Spans stay in memory during the
//! run and are written out once it ends. A layer's self time is its
//! span's duration minus the part of that interval its child spans
//! cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval, in nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close a span and return its duration in milliseconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.duration_ns() as f64 / 1e6
    }

    /// Record `f` as one span and return its result and duration in ms.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, request, parent);
        let out = f();
        (out, self.end(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id` in milliseconds.
    pub fn self_ms(&self, id: SpanId) -> f64 {
        let span = &self.spans[id];
        let children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        self_time_ns((span.start_ns, span.end_ns), &children) as f64 / 1e6
    }

    /// All spans as JSON lines, one span per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Length of `span` not covered by the union of `children`, each
/// clipped to the span.
pub fn self_time_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // 0..100 with children 10..30 and 20..50 (overlapping) and
        // 90..120 (clipped at 100): covered = 40 + 10.
        assert_eq!(self_time_ns((0, 100), &[(10, 30), (20, 50), (90, 120)]), 50);
        assert_eq!(self_time_ns((0, 100), &[]), 100);
        assert_eq!(self_time_ns((0, 100), &[(0, 100), (40, 60)]), 0);
        assert_eq!(self_time_ns((50, 60), &[(0, 10)]), 10);
    }

    #[test]
    fn nested_spans_charge_only_their_own_time() {
        let mut t = Tracer::new();
        let root = t.begin("request", 7, None);
        let child = t.begin("execute", 7, Some(root));
        let grandchild = t.begin("scan", 7, Some(child));
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(grandchild);
        t.end(child);
        t.end(root);
        let ms = |id: SpanId| t.spans()[id].duration_ns() as f64 / 1e6;
        // A parent's self time excludes its direct children only; the
        // grandchild is already inside the child.
        assert!((t.self_ms(root) - (ms(root) - ms(child))).abs() < 1e-9);
        assert!((t.self_ms(child) - (ms(child) - ms(grandchild))).abs() < 1e-9);
        assert_eq!(t.self_ms(grandchild), ms(grandchild));
        let total = t.self_ms(root) + t.self_ms(child) + t.self_ms(grandchild);
        assert!((total - ms(root)).abs() < 1e-6);
        assert!(t
            .to_json_lines()
            .lines()
            .all(|l| l.contains("\"request\":7")));
    }
}

//! Spans recorded from outside the program: one stopwatch around each
//! call into a layer's public functions.
//!
//! Spans are kept in memory and written out when the run ends.  The
//! real call chain of a request is a `request` span with its `wire.*`
//! children; a *shadow span* is a root span carrying the same request
//! id that repeats one lower-layer call on the same input, because
//! nothing inside the program is instrumented yet and the lower layers
//! cannot be seen from outside any other way.

use rq_common::Json;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; `None` for roots.
    pub parent: Option<u32>,
    /// Spans of one request share this.
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// A repeat of a lower-layer call, not part of the request's own
    /// call chain.
    pub shadow: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Off: only `request` spans are kept, every other stopwatch is
    /// skipped — the replay that measures what the stopwatches cost.
    detail: bool,
}

/// An open span; `None` inside when the recorder skipped it.
#[must_use]
pub struct Open(Option<u32>);

impl Recorder {
    pub fn new(detail: bool) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            detail,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<u32>, request: u32, shadow: bool) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: 0,
            end_ns: 0,
            shadow,
        });
        // Read the clock last, so the push is outside the span.
        self.spans[id as usize].start_ns = self.now();
        id
    }

    /// Open the root span of one request's real call chain (`request`
    /// for reads, `ingest` for writes).
    pub fn root(&mut self, name: &'static str, request: u32) -> u32 {
        self.open(name, None, request, false)
    }

    /// Open a child of `parent` (a real step of the request's chain).
    pub fn child(&mut self, name: &'static str, parent: u32, request: u32) -> Open {
        Open(
            self.detail
                .then(|| self.open(name, Some(parent), request, false)),
        )
    }

    /// Run `f` under a shadow span called `name`.
    pub fn shadow_call<T>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> T) -> T {
        self.shadow_call_named(request, f, |_| name)
    }

    /// Run `f` under a shadow span named after what it returned (a
    /// cache hit and a miss are different calls to time).
    pub fn shadow_call_named<T>(
        &mut self,
        request: u32,
        f: impl FnOnce() -> T,
        name: impl FnOnce(&T) -> &'static str,
    ) -> T {
        let id = self.open("", None, request, true);
        let value = f();
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.name = name(&value);
        value
    }

    pub fn close(&mut self, open: Open) {
        let end = self.now();
        if let Some(id) = open.0 {
            self.spans[id as usize].end_ns = end;
        }
    }

    pub fn close_root(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Durations (ns) of every span called `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Durations (ns) of the `name` children of roots called `root`.
pub fn durations_under(spans: &[Span], root: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.parent.is_some_and(|p| spans[p as usize].name == root))
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// A span's self time: its duration minus the part of its interval its
/// child spans cover (children clipped to the parent, overlaps counted
/// once).  Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (start, end) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if start < end {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if start < end {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Array(
        spans
            .iter()
            .map(|s| {
                let mut pairs = vec![
                    ("id", Json::Int(i64::from(s.id))),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(i64::from(p))),
                    ),
                    ("request", Json::Int(i64::from(s.request))),
                    ("name", Json::Str(s.name.to_string())),
                    ("start_ns", Json::Int(s.start_ns as i64)),
                    ("end_ns", Json::Int(s.end_ns as i64)),
                ];
                if s.shadow {
                    pairs.push(("shadow", Json::Bool(true)));
                }
                Json::object(pairs)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "t",
            start_ns,
            end_ns,
            shadow: false,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = [
            span(0, None, 100, 200),
            span(1, Some(0), 110, 130), // 20 covered
            span(2, Some(0), 120, 150), // overlaps span 1: 20 more
            span(3, Some(0), 180, 260), // clipped to the parent: 20
            span(4, Some(2), 125, 135), // grandchild: counts against span 2 only
            span(5, None, 300, 300),    // empty root
            span(6, Some(0), 400, 500), // wholly outside its parent: ignored
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 20 - 20 - 20);
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 30 - 10);
        assert_eq!(own[3], 80);
        assert_eq!(own[5], 0);
    }

    #[test]
    fn recorder_nests_children_and_skips_detail_when_told_to() {
        let mut rec = Recorder::new(true);
        let root = rec.root("request", 7);
        let child = rec.child("wire.handle", root, 7);
        rec.close(child);
        rec.close_root(root);
        assert_eq!(rec.shadow_call("service.query", 7, || 5), 5);
        let hit = rec.shadow_call_named(7, || true, |&hit| if hit { "hit" } else { "miss" });
        assert!(hit);
        let write = rec.root("ingest", 8);
        let child = rec.child("wire.handle", write, 8);
        rec.close(child);
        rec.close_root(write);
        let spans = rec.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans[2].shadow && spans[2].parent.is_none() && spans[2].request == 7);
        assert_eq!(spans[3].name, "hit");
        assert_eq!(durations(spans, "request").len(), 1);
        assert_eq!(durations(spans, "wire.handle").len(), 2);
        assert_eq!(durations_under(spans, "request", "wire.handle").len(), 1);
        assert_eq!(durations_under(spans, "ingest", "wire.handle").len(), 1);
        let json = to_json(spans).encode();
        assert!(json.contains("\"shadow\":true") && json.contains("\"parent\":0"));

        let mut quiet = Recorder::new(false);
        let root = quiet.root("request", 1);
        let child = quiet.child("wire.handle", root, 1);
        quiet.close(child);
        quiet.close_root(root);
        assert_eq!(quiet.spans().len(), 1);
    }
}

//! The benchmark's own spans: recorded around every call into a layer,
//! held in memory, written as chrome-trace JSON when a traced run ends.
//! Spans inside the program are a later change; these sit in the
//! benchmark's files only.

use std::time::Instant;

use crate::json::{obj, Json};

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// One process's span tree, in opening order.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (child of the span currently
    /// open) and returns its result with the span's duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
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
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Total seconds spent in spans named `name` opened at or after span
    /// index `since` (see [`Spans::mark`]).
    pub fn total_s(&self, name: &str, since: usize) -> f64 {
        self.spans[since..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Index the next opened span will get.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// The chrome://tracing document: one complete (`"X"`) event per span,
    /// microsecond timestamps, the parent's index and name in `args`.
    pub fn chrome_trace(&self, process: &str) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = match s.parent {
                    Some(p) => obj([
                        ("id", Json::Num(p as f64)),
                        ("name", Json::Str(self.spans[p].name.clone())),
                    ]),
                    None => Json::Null,
                };
                obj([
                    ("name", Json::Str(s.name.clone())),
                    ("cat", Json::Str(process.into())),
                    ("ph", Json::Str("X".into())),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        obj([("id", Json::Num(id as f64)), ("parent", parent)]),
                    ),
                ])
            })
            .collect();
        obj([
            ("displayTimeUnit", Json::Str("ms".into())),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_name_their_parent() {
        let mut spans = Spans::new();
        let mark = spans.mark();
        let ((), outer_s) = spans.span("workload", |s| {
            s.span("build", |_| ());
            s.span("run", |s| {
                s.span("build", |_| ());
            });
        });
        assert!(outer_s >= spans.total_s("run", mark));
        assert_eq!(spans.mark(), 4);
        let doc = spans.chrome_trace("t");
        let events = doc.get("traceEvents").unwrap().items();
        let parent_name = |i: usize| {
            events[i]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.get("name"))
                .and_then(Json::as_str)
        };
        assert_eq!(parent_name(0), None);
        assert_eq!(parent_name(1), Some("workload"));
        assert_eq!(parent_name(3), Some("run"));
        assert_eq!(spans.total_s("build", spans.mark()), 0.0);
    }
}

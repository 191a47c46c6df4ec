//! Wall-clock spans recorded by the benchmark around its calls into the
//! program's layers. Spans are kept in memory and written out once, at
//! the end of a traced run; the program itself carries no tracing.

use std::time::Instant;

/// One closed span: seconds since the tracer's origin, plus the index
/// of the span that was open when this one started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, nested under the span open
    /// at the call. `f` must not unwind: callers catch panics inside.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        r
    }

    /// Duration of the most recent closed span named `name`, s.
    pub fn last(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name && s.end.is_finite())
            .map_or(0.0, Span::duration)
    }

    /// A position in the span list, for [`Self::total_since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration of the spans named `name` recorded since `mark`.
    pub fn total_since(&self, mark: usize, name: &str) -> f64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name && s.end.is_finite())
            .map(Span::duration)
            .sum()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// Self time of `spans[id]`: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once).
pub fn self_time(spans: &[Span], id: usize) -> f64 {
    let me = &spans[id];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(me.start), s.end.min(me.end)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = 0.0;
    let mut reach = me.start;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.duration() - covered
}

/// Spans as a JSON array: name, start, end, parent, self time.
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {}, \"self_s\": {}}}",
                s.name,
                s.start,
                s.end,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                self_time(spans, i)
            )
        })
        .collect();
    format!("[\n  {}\n]", rows.join(",\n  "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("a", 1.0, 3.0, Some(0)),
            span("b", 2.0, 5.0, Some(0)), // overlaps a: [1, 5) covered once
            span("c", 7.0, 8.0, Some(0)),
            span("grandchild", 7.0, 8.0, Some(3)), // not a direct child of root
        ];
        assert_eq!(self_time(&spans, 0), 10.0 - 4.0 - 1.0);
        assert_eq!(self_time(&spans, 1), 2.0);
        assert_eq!(self_time(&spans, 3), 0.0);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span("p", 2.0, 4.0, None), span("k", 1.0, 3.0, Some(0))];
        assert_eq!(self_time(&spans, 0), 1.0);
    }

    #[test]
    fn tracer_nests_and_closes_spans() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(0));
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent), ("inner", Some(0)));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert!(self_time(s, 0) <= s[0].duration());
        assert!(t.last("inner") >= 0.0);
        assert!(spans_json(s).contains("\"parent\": 0"));
    }
}

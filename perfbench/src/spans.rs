//! In-memory spans recorded around calls into the workspace's layers.
//!
//! A disabled [`Spans`] records nothing, so the untraced runs that give
//! the end-to-end metrics pay one branch per call.

use std::sync::Mutex;
use std::time::Instant;

/// One timed call: seconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `supervisor.cell`.
    pub name: &'static str,
    /// Identifier of the span that caused this one.
    pub parent: Option<usize>,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
}

/// A thread-safe span recorder.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder; `enabled == false` makes every call a pass-through.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span before `f` runs and returns its identifier (`None`
    /// when disabled), so `f` can parent its own spans on it.
    pub fn record<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let start = self.epoch.elapsed().as_secs_f64();
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned by a panic");
            spans.push(Span {
                name,
                parent,
                start,
                end: start,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans.lock().expect("span list poisoned by a panic")[id].end = end;
        out
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panic")
            .clone()
    }
}

/// Self time of span `id`: its duration minus the part of it that the
/// union of its children's intervals covers (children of a parallel
/// parent may overlap; the union counts each instant once).
pub fn self_time(spans: &[Span], id: usize) -> f64 {
    let parent = &spans[id];
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = parent.start;
    for (a, b) in children {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (parent.end - parent.start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("round", None, 0.0, 10.0),
            span("cell", Some(0), 1.0, 4.0),
            span("cell", Some(0), 3.0, 6.0), // overlaps the first
            span("cell", Some(0), 8.0, 9.0),
            span("inner", Some(1), 1.0, 2.0), // grandchild: not subtracted
        ];
        assert!((self_time(&spans, 0) - 4.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let off = Spans::new(false);
        assert_eq!(off.record("x", None, |id| id), None);
        assert!(off.snapshot().is_empty());
        let on = Spans::new(true);
        let outer = on.record("outer", None, |id| on.record("inner", id, |_| id));
        let spans = on.snapshot();
        assert_eq!(outer, Some(0));
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
    }
}

//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer. Kept in memory and written out when the run
//! ends; spans inside the program are a later change.

use std::time::Instant;

use crate::json::Value;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for the root).
    pub parent: Option<usize>,
}

/// Records a tree of spans for one workload. A disabled recorder costs
/// one branch per call, so untraced units can run through the same code.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    /// Identifier shared by every span of this run.
    workload_id: u32,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload_id: u32) -> Self {
        Recorder {
            origin: Instant::now(),
            workload_id,
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the span open at
    /// the time of the call.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
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
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self) -> Value {
        let self_ns = self_times(&self.spans);
        Value::Arr(
            self.spans
                .iter()
                .zip(self_ns)
                .map(|(s, own)| {
                    Value::obj([
                        ("name", Value::str(&*s.name)),
                        ("workload_id", Value::Num(f64::from(self.workload_id))),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        ("self_ns", Value::Num(own as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover. Children of one parent never overlap here (the
/// recorder is single-threaded and strictly nested), so the covered part
/// is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Total self time of the spans whose name starts with `prefix`.
pub fn self_time_of(spans: &[Span], prefix: &str) -> u64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name.starts_with(prefix))
        .map(|(_, own)| own)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("workload/x", 0, 100, None),
            span("unit/0", 10, 40, Some(0)),
            span("replay", 50, 90, Some(0)),
            span("layer/wire.encode", 55, 65, Some(2)),
            span("layer/wire.parse", 65, 85, Some(2)),
        ];
        // Root: 100 − (30 + 40); replay: 40 − (10 + 20); leaves: whole.
        assert_eq!(self_times(&spans), vec![30, 30, 10, 10, 20]);
        assert_eq!(self_time_of(&spans, "layer/wire."), 30);
        assert_eq!(self_time_of(&spans, "layer/"), 30);
        // Self times partition the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let mut r = Recorder::new(3);
        let v = r.span("root", |r| {
            r.span("child", |_| 7) + r.span("child", |r| r.span("leaf", |_| 1))
        });
        assert_eq!(v, 8);
        let names: Vec<_> = r.spans().iter().map(|s| (&*s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("root", None),
                ("child", Some(0)),
                ("child", Some(0)),
                ("leaf", Some(2))
            ]
        );
        assert!(r.spans().iter().all(|s| s.end_ns >= s.start_ns));
        r.set_enabled(false);
        assert_eq!(r.span("unseen", |_| 5), 5);
        assert_eq!(r.spans().len(), 4);
        assert_eq!(r.to_json().items().len(), 4);
    }
}

//! Spans recorded from the benchmark's own files, around the calls into the
//! program. Kept in memory, written out when the invocation ends.

use std::time::Duration;

use crate::json::Json;

/// Identifier of a span inside one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Debug)]
struct Span {
    parent: Option<SpanId>,
    name: String,
    start: Duration,
    end: Duration,
}

/// The spans of one traced invocation. Times are readings of the
/// benchmark's work clock (reference slices excluded).
#[derive(Debug)]
pub struct Trace {
    workload: &'static str,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace with room for `capacity` spans, so recording inside a
    /// measured window does not allocate.
    pub fn new(workload: &'static str, capacity: usize) -> Self {
        Self {
            workload,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Opens a span; close it with [`Trace::close`].
    pub fn open(
        &mut self,
        parent: Option<SpanId>,
        name: impl Into<String>,
        at: Duration,
    ) -> SpanId {
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(Span {
            parent,
            name: name.into(),
            start: at,
            end: at,
        });
        id
    }

    /// Closes a span.
    pub fn close(&mut self, id: SpanId, at: Duration) {
        self.spans[id.0 as usize].end = at;
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        parent: Option<SpanId>,
        name: impl Into<String>,
        start: Duration,
        end: Duration,
    ) -> SpanId {
        let id = self.open(parent, name, start);
        self.close(id, end);
        id
    }

    /// Every span's duration minus the part its children cover, by span id.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self
            .spans
            .iter()
            .map(|span| span.end - span.start)
            .collect();
        for span in &self.spans {
            if let Some(SpanId(parent)) = span.parent {
                let parent = &mut own[parent as usize];
                *parent = parent.saturating_sub(span.end - span.start);
            }
        }
        own
    }

    /// Per span name (the first word of it, so `tick 3` and `tick 4` fold
    /// into one row), in order of first appearance: how many spans, their
    /// total duration and their total self time.
    pub fn summary(&self) -> Vec<(String, usize, Duration, Duration)> {
        let mut rows: Vec<(String, usize, Duration, Duration)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let kind = span.name.split(' ').next().unwrap_or_default();
            let row = match rows.iter().position(|row| row.0 == kind) {
                Some(at) => &mut rows[at],
                None => {
                    rows.push((kind.to_string(), 0, Duration::ZERO, Duration::ZERO));
                    rows.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += span.end - span.start;
            row.3 += own;
        }
        rows
    }

    /// The trace as `[{id, parent, name, start_ns, end_ns, workload}, …]`.
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, span)| {
                    Json::object([
                        ("id", Json::from(id as u64)),
                        (
                            "parent",
                            span.parent
                                .map_or(Json::Null, |parent| Json::from(u64::from(parent.0))),
                        ),
                        ("name", Json::from(span.name.as_str())),
                        ("start_ns", Json::from(span.start.as_nanos() as u64)),
                        ("end_ns", Json::from(span.end.as_nanos() as u64)),
                        ("workload", Json::from(self.workload)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let ms = Duration::from_millis;
        let mut trace = Trace::new("w", 4);
        let root = trace.open(None, "measured", ms(0));
        trace.record(Some(root), "boot", ms(0), ms(3));
        let steady = trace.record(Some(root), "steady", ms(3), ms(8));
        trace.record(Some(steady), "tick 0", ms(3), ms(5));
        trace.close(root, ms(10));
        let own = trace.self_times();
        assert_eq!(own[root.0 as usize], ms(2));
        assert_eq!(own[steady.0 as usize], ms(3));
        let summary = trace.summary();
        let names: Vec<&str> = summary.iter().map(|row| row.0.as_str()).collect();
        assert_eq!(names, ["measured", "boot", "steady", "tick"]);
        assert_eq!(summary[3], ("tick".to_string(), 1, ms(2), ms(2)));
        let rendered = trace.to_json().render();
        assert!(rendered.contains("\"parent\":null"));
        assert!(rendered.contains("\"workload\":\"w\""));
    }
}

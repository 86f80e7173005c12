//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The recorder is a pre-sized in-memory buffer, written out once as
//! Chrome-trace JSON when the run ends. Two pieces of arithmetic turn
//! spans into a layer's *self* time: the part of a span its children do
//! not cover ([`Recorder::self_ns`]), and — for a layer that cannot be
//! wrapped from outside — its total minus the exactly counted calls into
//! the layer below times that layer's measured cost ([`minus_calls`]).

use std::fmt::Write as _;
use std::time::Instant;

/// Identifier of a recorded span: its index in the buffer.
pub type SpanId = u32;

/// One timed call (or group of calls) into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `fpga.exec/infer_batch_into`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Round of the workload the span belongs to.
    pub round: u32,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A bounded span buffer. Spans offered beyond the capacity are counted
/// and dropped, so recording never allocates after construction.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
}

impl Recorder {
    /// An empty recorder holding at most `capacity` spans.
    pub fn with_capacity(workload: &str, capacity: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a span over `[start_ns, end_ns)`. Returns its id, or
    /// `None` when the buffer is full.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        round: u32,
    ) -> Option<SpanId> {
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            round,
        })
    }

    /// Opens a span that starts now, so that spans recorded before
    /// [`Self::close`] can name it as their parent.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        round: u32,
    ) -> Option<SpanId> {
        let now = self.now_ns();
        self.record(name, now, now, parent, round)
    }

    /// Ends an [`Self::open`]ed span now.
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    fn push(&mut self, span: Span) -> Option<SpanId> {
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some((self.spans.len() - 1) as SpanId)
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans offered after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Self time of span `id`: its duration minus the part of its
    /// interval that its direct children cover. Overlapping children are
    /// counted once, and a child is clipped to its parent's interval.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let parent = &self.spans[id as usize];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(start, end)| start < end)
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut frontier = parent.start_ns;
        for (start, end) in children {
            let start = start.max(frontier);
            if end > start {
                covered += end - start;
                frontier = end;
            }
        }
        parent.duration_ns() - covered
    }

    /// The buffer as Chrome trace-event JSON (loadable in Perfetto or
    /// `chrome://tracing`): one complete event per span, one track per
    /// span name, with parent, round and workload in `args`.
    pub fn chrome_json(&self) -> String {
        let mut tracks: Vec<&'static str> = Vec::new();
        let mut out = String::with_capacity(64 + 160 * self.spans.len());
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let tid = match tracks.iter().position(|t| *t == s.name) {
                Some(tid) => tid,
                None => {
                    tracks.push(s.name);
                    tracks.len() - 1
                }
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\"round\":{},\"workload\":\"{}\"}}}},",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.round,
                self.workload
            )
            .expect("writing to a String cannot fail");
        }
        for (tid, name) in tracks.iter().enumerate() {
            writeln!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}},"
            )
            .expect("writing to a String cannot fail");
        }
        write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{} ({} spans dropped)\"}}}}\n]}}\n",
            self.workload, self.dropped
        )
        .expect("writing to a String cannot fail");
        out
    }
}

/// Self time of a layer measured as `total_ns` that made `calls` calls
/// into the layer below, each costing `per_call_ns` when measured alone.
/// May be negative when the layer below runs faster inside its caller
/// (warm caches) than alone; the caller reports that as is.
pub fn minus_calls(total_ns: f64, calls: u64, per_call_ns: f64) -> f64 {
    total_ns - calls as f64 * per_call_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(spans: &[(u64, u64, Option<SpanId>)]) -> Recorder {
        let mut r = Recorder::with_capacity("test", 16);
        for &(start_ns, end_ns, parent) in spans {
            r.record("s", start_ns, end_ns, parent, 0);
        }
        r
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        // Parent [0, 100); children [10, 30) and [50, 70): 40 covered.
        let r = recorder(&[(0, 100, None), (10, 30, Some(0)), (50, 70, Some(0))]);
        assert_eq!(r.self_ns(0), 60);
        assert_eq!(r.self_ns(1), 20);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        // [10, 40) and [30, 60) overlap: union [10, 60) = 50. [90, 130)
        // overhangs the parent's end: clipped to [90, 100) = 10.
        let r = recorder(&[
            (0, 100, None),
            (10, 40, Some(0)),
            (30, 60, Some(0)),
            (90, 130, Some(0)),
        ]);
        assert_eq!(r.self_ns(0), 40);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_grandparent() {
        let r = recorder(&[(0, 100, None), (10, 90, Some(0)), (20, 80, Some(1))]);
        assert_eq!(r.self_ns(0), 20);
        assert_eq!(r.self_ns(1), 20);
    }

    #[test]
    fn an_opened_span_encloses_what_is_recorded_before_it_closes() {
        let mut r = Recorder::with_capacity("test", 4);
        let group = r.open("group", None, 0);
        let start = r.now_ns();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let end = r.now_ns();
        r.record("leaf", start, end, group, 0);
        r.close(group);
        let g = &r.spans()[0];
        assert!(g.start_ns <= start && end <= g.end_ns);
        assert_eq!(r.self_ns(0), g.duration_ns() - (end - start));
    }

    #[test]
    fn call_count_subtraction() {
        assert_eq!(minus_calls(1000.0, 4, 200.0), 200.0);
        assert_eq!(minus_calls(1000.0, 0, 200.0), 1000.0);
        assert_eq!(minus_calls(1000.0, 6, 200.0), -200.0);
    }

    #[test]
    fn a_full_buffer_drops_and_counts() {
        let mut r = Recorder::with_capacity("test", 1);
        assert_eq!(r.record("a", 0, 5, None, 0), Some(0));
        assert_eq!(r.record("b", 5, 9, None, 0), None);
        assert_eq!((r.spans().len(), r.dropped()), (1, 1));
        // Closing a span that was never stored is a no-op.
        let lost = r.open("c", None, 0);
        r.close(lost);
        assert_eq!((lost, r.dropped()), (None, 2));
    }

    #[test]
    fn chrome_json_has_one_event_per_span_and_names_its_tracks() {
        let mut r = recorder(&[(0, 2_000, None), (500, 1_500, Some(0))]);
        r.record("t", 10, 20, None, 3);
        let json = r.chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert_eq!(json.matches("\"thread_name\"").count(), 2);
        assert!(
            json.contains("\"ts\":0.500,\"dur\":1.000,\"args\":{\"id\":1,\"parent\":0,\"round\":0")
        );
        assert!(json.trim_end().ends_with("]}"));
    }
}

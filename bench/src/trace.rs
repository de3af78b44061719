//! The harness-side span tree.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer; nothing inside the program is instrumented. They are
//! kept in memory and written out once, when the run ends. With
//! recording off every method is a no-op, so an untraced run pays only
//! for the timestamps it needs anyway.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. `index` is the epoch or round the span belongs
/// to, so all spans of one epoch share it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub index: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Set on epochs that also ran shadow kernels; excluded from the
    /// trace-overhead comparison.
    pub shadow: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created: the run's one clock.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    pub fn is_recording(&self) -> bool {
        self.recording
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Record a finished span; returns its id for use as a parent.
    pub fn span(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        index: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        if !self.recording {
            return None;
        }
        self.spans.push(Span {
            parent,
            name,
            index,
            start_ns,
            end_ns,
            shadow: false,
        });
        Some(self.spans.len() - 1)
    }

    /// Flag a span (and so its epoch) as having run shadow kernels.
    pub fn flag_shadow(&mut self, id: Option<usize>) {
        if let Some(span) = id.and_then(|id| self.spans.get_mut(id)) {
            span.shadow = true;
        }
    }

    /// Stretch a span's end, for parents recorded before their children.
    pub fn close(&mut self, id: Option<usize>, end_ns: u64) {
        if let Some(span) = id.and_then(|id| self.spans.get_mut(id)) {
            span.end_ns = end_ns;
        }
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its child spans cover (children are clipped to the parent
    /// and overlapping children are counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span
                .parent
                .and_then(|p| self.spans.get(p).map(|ps| (p, ps)))
            {
                let start = span.start_ns.max(parent.1.start_ns);
                let end = span.end_ns.min(parent.1.end_ns);
                if end > start {
                    children[parent.0].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for (start, end) in kids {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// The trace file: one JSON object, spans in recording order. A
    /// span's `id` is its position in the array.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let self_times = self.self_times_ns();
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"workload\": \"{workload}\",");
        let _ = writeln!(out, "  \"seed\": {seed},");
        let _ = writeln!(
            out,
            "  \"clock\": \"ns since run start, std::time::Instant\","
        );
        let _ = writeln!(out, "  \"spans\": [");
        for (id, (span, self_ns)) in self.spans.iter().zip(self_times).enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let comma = if id + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"index\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}, \"shadow\": {}}}{comma}",
                span.name, span.index, span.start_ns, span.end_ns, span.shadow
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recording() -> Tracer {
        let mut t = Tracer::new();
        t.set_recording(true);
        t
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let mut t = recording();
        let epoch = t.span(None, "epoch", 0, 100, 1_100);
        t.span(epoch, "work", 0, 100, 400);
        t.span(epoch, "pause", 0, 450, 950);
        let times = t.self_times_ns();
        // 1000 - (300 + 500): the gaps at 400..450 and 950..1100.
        assert_eq!(times, vec![200, 300, 500]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut t = recording();
        let parent = t.span(None, "round", 0, 1_000, 2_000);
        t.span(parent, "a", 0, 900, 1_500); // hangs over the start: clipped to 1000..1500
        t.span(parent, "b", 0, 1_400, 1_700); // overlaps a: adds only 1500..1700
        t.span(parent, "c", 0, 1_450, 1_480); // inside a: adds nothing
        t.span(parent, "d", 0, 2_500, 2_600); // outside the parent: adds nothing
        assert_eq!(t.self_times_ns()[0], 1_000 - 700);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let mut t = recording();
        let run = t.span(None, "run", 0, 0, 1_000);
        let epoch = t.span(run, "epoch", 0, 0, 600);
        t.span(epoch, "drain", 0, 100, 300);
        assert_eq!(t.self_times_ns(), vec![400, 400, 200]);
    }

    #[test]
    fn nothing_is_recorded_while_recording_is_off() {
        let mut t = Tracer::new();
        assert_eq!(t.span(None, "epoch", 0, 0, 10), None);
        t.set_recording(true);
        let id = t.span(None, "epoch", 1, 0, 10);
        t.close(id, 25);
        t.flag_shadow(id);
        t.set_recording(false);
        assert_eq!(t.span(id, "work", 1, 0, 5), None);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].duration_ns(), 25);
        assert!(t.spans()[0].shadow);
        assert!(t.to_json("w", 11).contains("\"self_ns\": 25"));
    }
}

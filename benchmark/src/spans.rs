//! In-memory spans and counts recorded by the benchmark's own files around
//! the calls into each layer.  Nothing here runs during an untraced `run`.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.  `parent == 0` marks a root; ids start at 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span and count recorder: spans nest by call structure (a stack), counts
/// are taken at the same boundaries so ratios are measured where the work
/// happens.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `body` as a span under the innermost open span.  `body` gets the
    /// tracer back so it can record children.
    pub fn span<R>(&mut self, name: &'static str, body: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let result = body(self);
        self.open.pop();
        self.spans[id as usize - 1].end_ns = self.now_ns();
        result
    }

    /// Records time accumulated over many short interleaved calls (the
    /// per-stimulus simulate/check laps of one sweep) as consecutive child
    /// spans laid end to end from the innermost open span's start.  One span
    /// per stimulus would be millions of spans a round.
    pub fn laps(&mut self, laps: &[(&'static str, u64)]) {
        let parent = self.open.last().copied().unwrap_or(0);
        let mut cursor = match parent {
            0 => self.now_ns(),
            id => self.spans[id as usize - 1].start_ns,
        };
        for &(name, nanos) in laps {
            let id = self.spans.len() as u32 + 1;
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns: cursor,
                end_ns: cursor + nanos,
            });
            cursor += nanos;
        }
    }

    pub fn count(&mut self, name: &'static str, by: u64) {
        *self.counts.entry(name).or_insert(0) += by;
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds spent in spans called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        total_ns(&self.spans, name) as f64 / 1e9
    }

    /// Number of spans called `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Seconds per call of `name` in `unit` (1e6 for µs, 1e3 for ms); 0 when never called.
    pub fn per_call(&self, name: &str, unit: f64) -> f64 {
        match self.calls(name) {
            0 => 0.0,
            calls => self.seconds(name) * unit / calls as f64,
        }
    }

    /// Seconds under the spans called `root` that their children account for.
    pub fn accounted(&self, root: &str) -> f64 {
        let own = self_ns_by_name(&self.spans).get(root).copied().unwrap_or(0);
        self.seconds(root) - own as f64 / 1e9
    }

    /// Renders every span as one JSON document (written at exit, never mid-run).
    pub fn render_json(&self, workload: &str) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[");
        for (idx, span) in self.spans.iter().enumerate() {
            if idx > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.id, span.parent, span.name, span.start_ns, span.end_ns
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// Self time of every span name: duration minus the part covered by direct
/// children, summed per name.
pub fn self_ns_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for span in spans {
        *child_ns.entry(span.parent).or_insert(0) += span.duration_ns();
    }
    let mut by_name = BTreeMap::new();
    for span in spans {
        let covered = child_ns.get(&span.id).copied().unwrap_or(0);
        *by_name.entry(span.name).or_insert(0) += span.duration_ns().saturating_sub(covered);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(1, 0, "root", 0, 100),
            span(2, 1, "mid", 10, 70),
            span(3, 2, "leaf", 20, 50),
            span(4, 1, "leaf", 70, 90),
        ];
        let own = self_ns_by_name(&spans);
        assert_eq!(own["root"], 100 - 60 - 20);
        assert_eq!(own["mid"], 60 - 30);
        assert_eq!(own["leaf"], 30 + 20);
        assert_eq!(own.values().sum::<u64>(), 100, "self times tile the root");
    }

    #[test]
    fn spans_nest_by_call_structure_and_laps_tile_from_parent_start() {
        let mut tracer = Tracer::new();
        tracer.span("outer", |t| {
            t.span("inner", |t| t.count("things", 3));
            t.laps(&[("a", 5), ("b", 7)]);
        });
        let spans = tracer.spans();
        assert_eq!(
            spans
                .iter()
                .map(|s| (s.id, s.parent, s.name))
                .collect::<Vec<_>>(),
            [(1, 0, "outer"), (2, 1, "inner"), (3, 1, "a"), (4, 1, "b")]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(spans[2].start_ns, spans[0].start_ns);
        assert_eq!(spans[3].start_ns, spans[2].end_ns);
        assert_eq!((spans[2].duration_ns(), spans[3].duration_ns()), (5, 7));
        assert_eq!(tracer.counted("things"), 3);
        assert_eq!(tracer.counted("nothing"), 0);
        assert_eq!(tracer.calls("inner"), 1);
        assert!(tracer.render_json("w").contains("\"name\":\"inner\""));
    }
}

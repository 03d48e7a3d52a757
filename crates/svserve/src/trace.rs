//! Deterministic tracing: one record per traced case, rendered as span trees
//! that are byte-identical at any driver count.
//!
//! A traced case ([`TracedCase`]) is what its case driver observed: its
//! journal record, the samples it requested and the wall clock of each of its
//! five stages.  The render turns each case into a five-span tree, a
//! `session` root over `submit` → `sample` → `verify` → `evaluate`, whose
//! every id is a pure function of the record's session and the handle's
//! salt, derived when the trace is rendered:
//!
//! * a **trace id** is `splitmix64(session ^ TRACE_SALT ^ salt)`, where the
//!   session is the fold of the case's request key — the salt lets two
//!   experiments over the same corpus keep disjoint id spaces.  The root
//!   span's id is its trace id;
//! * a **stage span id** is `splitmix64(trace_id ^ fnv64(label))`, the
//!   root its parent;
//! * a span's **start** is a logical tick of `(trace_id, stage seq)`,
//!   never a wall clock.
//!
//! Wall-clock durations ride along in each span's `wall_ns` as **volatile**
//! payload: they power `svobs trace --slowest` and `--flame`, but are excluded
//! from [`TraceForest::render_deterministic`], the byte-compared projection.

use crate::journal::JournalRecord;
use crate::persist::fnv64;
use crate::service::splitmix64;
use crate::sync::lock_recover;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Salt folded into every trace id, so trace identity is its own hash of the
/// request key rather than the bare fold.
const TRACE_SALT: u64 = 0x7CA5_E11A_D157_ACED;

/// The five stages of a traced case, in sequence order: the `session` root,
/// then the four laps that tile it — `submit` builds the request, `sample`
/// solves it, `verify` dedups the candidates into verdict jobs and
/// `evaluate` judges and tallies them.  A stage's index is its sequence
/// number, so logical start ticks, and with them the render order, are part
/// of the protocol.
const STAGES: [&str; 5] = ["session", "submit", "sample", "verify", "evaluate"];

/// Logical timestamp of stage `seq` in trace `trace`.
///
/// `seq * 16` keeps ticks strictly monotonic per trace; the low nibble is a
/// deterministic jitter bucketed out of the trace id, so two traces'
/// timelines differ without any wall clock involved.
pub(crate) fn logical_tick(trace: u64, seq: u32) -> u64 {
    let jitter = splitmix64(trace ^ (u64::from(seq) << 1 | 1)) & 0xF;
    u64::from(seq) * 16 + jitter
}

/// One traced case: what its case driver observed, with tracing on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedCase {
    /// The case's journal record: its session and its counts.
    pub record: JournalRecord,
    /// Samples the case requested (the `submit` span's units).
    pub requested: u64,
    /// Wall-clock nanoseconds of the session, submit, sample, verify and
    /// evaluate stages, in that order (volatile).
    pub walls: [u64; 5],
}

impl TracedCase {
    /// The wall-clock of the four stages, which tile the session's.
    fn attributed_ns(&self) -> u64 {
        let stages = self.walls[1..].iter();
        stages.fold(0u64, |acc, wall| acc.saturating_add(*wall))
    }
}

/// One span of a rendered trace tree: a line of `svobs trace --out`.
///
/// `trace`/`span`/`parent`/`name`/`start`/`units` are **deterministic** —
/// pure functions of request content and tree shape; `wall_ns` is the
/// **volatile** wall-clock payload and is excluded from the byte-compared
/// projection ([`TraceForest::render_deterministic`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct TraceSpan {
    /// Trace id.
    trace: u64,
    /// Span id.
    span: u64,
    /// Parent span id; `None` for the root.
    parent: Option<u64>,
    /// Stage name (`"session"`, `"submit"`, `"sample"`, …).
    name: String,
    /// Logical start tick of `(trace, stage seq)`: `seq * 16` plus a jitter
    /// nibble of the trace id.
    start: u64,
    /// Content-derived magnitude (samples drawn, candidates judged, …).
    units: u64,
    /// Wall-clock duration in nanoseconds (volatile diagnostic).
    wall_ns: u64,
}

impl TraceSpan {
    /// The deterministic projection of this span: every field except the
    /// wall clock, rendered byte-stably.
    fn deterministic_line(&self) -> String {
        let parent = match self.parent {
            Some(parent) => format!("{parent:016x}"),
            None => "-".to_string(),
        };
        format!(
            "trace={:016x} span={:016x} parent={parent} start={} units={} name={}",
            self.trace, self.span, self.start, self.units, self.name
        )
    }
}

struct TraceCore {
    salt: u64,
    cases: Mutex<Vec<TracedCase>>,
}

/// The tracing switch: `off()` by default, one branch per case.
///
/// The handle owns the registered salt (folded into every trace id) and the
/// traced cases an evaluation hands back; [`TraceHandle::drain`] takes them
/// in deterministic order.
#[derive(Clone, Default)]
pub struct TraceHandle(Option<Arc<TraceCore>>);

impl TraceHandle {
    /// The disabled handle: every hook short-circuits on one branch.
    pub fn off() -> Self {
        Self(None)
    }

    /// An enabled handle with `salt` folded into every trace id.
    pub fn new(salt: u64) -> Self {
        Self(Some(Arc::new(TraceCore {
            salt,
            cases: Mutex::new(Vec::new()),
        })))
    }

    /// Whether tracing is on: a case driver reads its stage clocks only then.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    /// Records a batch of traced cases (an evaluation's, say); dropped
    /// silently while tracing is off.
    pub fn extend(&self, cases: Vec<TracedCase>) {
        if let Some(core) = &self.0 {
            lock_recover(&core.cases).extend(cases);
        }
    }

    /// Takes the salt and every traced case, sorted and merged the way
    /// [`TraceForest::from_spans`] sorts them — collection order (a
    /// scheduling artifact) never leaks into the output.
    pub fn drain(&self) -> (u64, Vec<TracedCase>) {
        let Some(core) = &self.0 else {
            return (0, Vec::new());
        };
        let cases = std::mem::take(&mut *lock_recover(&core.cases));
        let sessions = merged(core.salt, cases).into_iter();
        (core.salt, sessions.map(|(_, case)| case).collect())
    }
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "TraceHandle(on)"
        } else {
            "TraceHandle(off)"
        })
    }
}

/// Per-session summary: the numbers `svobs trace --slowest` mines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSessionSummary {
    /// Trace id.
    pub trace: u64,
    /// The session's wall-clock duration.
    pub wall_ns: u64,
    /// Wall-clock attributed to its four stage spans.
    pub attributed_ns: u64,
    /// Samples the session drew.
    pub units: u64,
}

impl TraceSessionSummary {
    /// Fraction of the session's wall-clock attributed to its stage spans
    /// (1.0 for a zero-duration session — nothing is unaccounted for).
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            1.0
        } else {
            self.attributed_ns.min(self.wall_ns) as f64 / self.wall_ns as f64
        }
    }
}

/// Sorts traced cases by trace id under `salt` and merges exact duplicates:
/// twin cases (the same request content judged against different golden
/// fixes) share a session, and when their counts agree too they are one
/// session, kept with the **larger** wall per stage.
fn merged(salt: u64, cases: Vec<TracedCase>) -> Vec<(u64, TracedCase)> {
    let mut merged: BTreeMap<(u64, JournalRecord, u64), [u64; 5]> = BTreeMap::new();
    for case in cases {
        let trace = splitmix64(case.record.session ^ TRACE_SALT ^ salt);
        let walls = merged.entry((trace, case.record, case.requested));
        let walls = walls.or_default();
        for (wall, lap) in walls.iter_mut().zip(case.walls) {
            *wall = (*wall).max(lap);
        }
    }
    let session = |((trace, record, requested), walls)| {
        let case = TracedCase {
            record,
            requested,
            walls,
        };
        (trace, case)
    };
    merged.into_iter().map(session).collect()
}

/// The traced sessions of one or more evaluations, sorted by trace id with
/// exact duplicates merged, and their renders: each session is a five-span
/// tree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceForest {
    /// `(trace id, case)` per session, in trace-id order.
    sessions: Vec<(u64, TracedCase)>,
}

impl TraceForest {
    /// Builds a forest from what [`TraceHandle::drain`] took: the salt and
    /// the traced cases, sorted and merged.
    pub fn from_spans((salt, cases): (u64, Vec<TracedCase>)) -> Self {
        Self {
            sessions: merged(salt, cases),
        }
    }

    /// Number of spans: five per session.
    pub fn len(&self) -> usize {
        STAGES.len() * self.sessions.len()
    }

    /// Whether the forest holds no spans.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Every span in render order: per session, the root and then its four
    /// stages.
    fn spans(&self) -> impl Iterator<Item = TraceSpan> + '_ {
        self.sessions.iter().flat_map(|&(trace, ref case)| {
            let record = &case.record;
            let units = [
                record.samples,
                case.requested,
                record.samples,
                record.candidates,
                record.correct,
            ];
            (0..STAGES.len()).map(move |seq| {
                let label = STAGES[seq];
                let parent = (seq > 0).then_some(trace);
                TraceSpan {
                    trace,
                    span: parent.map_or(trace, |root| splitmix64(root ^ fnv64(label.as_bytes()))),
                    parent,
                    name: label.to_string(),
                    start: logical_tick(trace, seq as u32),
                    units: units[seq],
                    wall_ns: case.walls[seq],
                }
            })
        })
    }

    /// One line per span, stages indented under their session, with the
    /// wall clock unless `deterministic`.
    fn render_lines(&self, deterministic: bool) -> String {
        let mut out = String::new();
        for span in self.spans() {
            if span.parent.is_some() {
                out.push_str("  ");
            }
            out.push_str(&span.deterministic_line());
            if !deterministic {
                out.push_str(&format!(" wall_ns={}", span.wall_ns));
            }
            out.push('\n');
        }
        out
    }

    /// The byte-compared projection: every tree, stages indented under
    /// their session, deterministic fields only.  Identical for the same
    /// corpus at any driver count, warm or cold.
    pub fn render_deterministic(&self) -> String {
        self.render_lines(true)
    }

    /// The trees including per-span wall clocks (for humans, not for byte
    /// comparison).
    pub fn render(&self) -> String {
        self.render_lines(false)
    }

    /// Collapsed-stack projection of the wall clocks: one `session;<stage>
    /// wall_ns` frame per stage, summed over sessions (the format
    /// `flamegraph.pl` and `inferno` consume).  The `session` frame carries
    /// the sessions' *unattributed* residual, so the profile total equals
    /// the sum of session walls.
    pub fn collapsed(&self) -> CollapsedProfile {
        let mut profile = CollapsedProfile::default();
        for (_, case) in &self.sessions {
            for (label, wall) in STAGES.iter().zip(case.walls).skip(1) {
                profile.record(&format!("{};{label}", STAGES[0]), wall);
            }
            profile.record(
                STAGES[0],
                case.walls[0].saturating_sub(case.attributed_ns()),
            );
        }
        profile
    }

    /// One summary per session, in trace-id order.
    pub fn sessions(&self) -> Vec<TraceSessionSummary> {
        let summary = |&(trace, ref case): &(u64, TracedCase)| TraceSessionSummary {
            trace,
            wall_ns: case.walls[0],
            attributed_ns: case.attributed_ns(),
            units: case.record.samples,
        };
        self.sessions.iter().map(summary).collect()
    }

    /// The `n` slowest sessions by wall-clock (ties broken by trace id, so
    /// the listing is stable).
    pub fn slowest(&self, n: usize) -> Vec<TraceSessionSummary> {
        let mut sessions = self.sessions();
        sessions.sort_by(|a, b| b.wall_ns.cmp(&a.wall_ns).then(a.trace.cmp(&b.trace)));
        sessions.truncate(n);
        sessions
    }

    /// Serializes the forest as JSONL (one span per line, render order) —
    /// what `svobs trace --out` writes.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.spans() {
            out.push_str(&serde_json::to_string(&span).expect("trace spans serialize"));
            out.push('\n');
        }
        out
    }
}

/// A flamegraph-compatible collapsed-stack profile: `frame;frame value`
/// lines, one per stack, values in nanoseconds, sorted by stack for
/// byte-stable rendering.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CollapsedProfile {
    frames: BTreeMap<String, u64>,
}

impl CollapsedProfile {
    /// Adds `nanos` to the `stack` frame (frames merge by stack name).
    fn record(&mut self, stack: &str, nanos: u64) {
        let slot = self.frames.entry(stack.to_string()).or_insert(0);
        *slot = slot.saturating_add(nanos);
    }

    /// The frames in render order.
    pub fn frames(&self) -> impl Iterator<Item = (&str, u64)> {
        self.frames
            .iter()
            .map(|(stack, value)| (stack.as_str(), *value))
    }

    /// Sum of every frame value — the attributed portion of the profile.
    pub fn total(&self) -> u64 {
        self.frames
            .values()
            .fold(0u64, |acc, v| acc.saturating_add(*v))
    }

    /// Renders the collapsed-stack text (`stack value` per line; the format
    /// `flamegraph.pl` and `inferno` consume).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (stack, value) in &self.frames {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::case_key;
    use svmodel::CaseInput;

    fn session(tag: usize) -> u64 {
        let case = CaseInput {
            spec: format!("spec {tag}"),
            buggy_source: format!("module m{tag}(); endmodule"),
            logs: String::new(),
        };
        case_key(&case, 3, 0.2).fold64()
    }

    #[test]
    fn logical_ticks_are_monotonic_and_pure() {
        for trace in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let mut last = None;
            for seq in 0..64u32 {
                let tick = logical_tick(trace, seq);
                assert_eq!(tick, logical_tick(trace, seq), "pure in (trace, seq)");
                if let Some(last) = last {
                    assert!(tick > last, "ticks must be strictly monotonic per trace");
                }
                last = Some(tick);
            }
        }
    }

    /// A session of three samples, two distinct candidates and one correct,
    /// whose four stages take `wall` each and tile its `4 * wall`.
    fn traced(tag: usize, wall: u64) -> TracedCase {
        let record = JournalRecord {
            session: session(tag),
            samples: 3,
            candidates: 2,
            correct: 1,
        };
        TracedCase {
            record,
            requested: 3,
            walls: [wall * 4, wall, wall, wall, wall],
        }
    }

    fn forest(salt: u64, cases: Vec<TracedCase>) -> TraceForest {
        TraceForest::from_spans((salt, cases))
    }

    #[test]
    fn contexts_are_pure_functions_of_content_and_salt() {
        let spans = |tag, salt| {
            forest(salt, vec![traced(tag, 1)])
                .spans()
                .collect::<Vec<_>>()
        };
        let a = spans(1, 0);
        assert_eq!(a, spans(1, 0));
        assert_ne!(a[0].trace, spans(2, 0)[0].trace);
        assert_ne!(a[0].trace, spans(1, 7)[0].trace);
        let (root, stages) = (&a[0], &a[1..]);
        assert_eq!((root.span, root.parent), (root.trace, None));
        for stage in stages {
            assert_eq!((stage.trace, stage.parent), (root.trace, Some(root.span)));
            let label = fnv64(stage.name.as_bytes());
            assert_eq!(stage.span, splitmix64(root.span ^ label));
        }
        let ids: std::collections::BTreeSet<u64> = a.iter().map(|span| span.span).collect();
        assert_eq!(ids.len(), 5, "every stage label is its own span");
    }

    #[test]
    fn forest_merges_duplicates_by_max_wall() {
        // The same session recorded again (a twin case), slower.
        let forest = forest(0, vec![traced(1, 100), traced(1, 250)]);
        assert_eq!(forest.len(), 5, "duplicates merge");
        assert!(forest.spans().all(|s| s.wall_ns >= 250));
    }

    #[test]
    fn deterministic_render_excludes_wall_and_is_stable() {
        let fast = forest(0, vec![traced(3, 10)]);
        let slow = forest(0, vec![traced(3, 99_999)]);
        assert_eq!(fast.render_deterministic(), slow.render_deterministic());
        assert_ne!(fast.render(), slow.render());
        let text = fast.render_deterministic();
        assert!(text.contains("name=session"));
        // Stages indent under the root.
        assert!(text.contains("\n  trace="));
    }

    #[test]
    fn trees_reconstruct_roots_and_children() {
        let forest = forest(0, vec![traced(1, 10), traced(2, 20)]);
        let sessions = forest.sessions();
        assert_eq!(sessions.len(), 2);
        for session in &sessions {
            assert_eq!(session.wall_ns, session.attributed_ns);
            assert!((session.coverage() - 1.0).abs() < 1e-9);
        }
        let slowest = forest.slowest(1);
        assert_eq!(slowest.len(), 1);
        assert_eq!(slowest[0].wall_ns, 80);
    }

    #[test]
    fn collapsed_stacks_total_the_root_walls() {
        let profile = forest(0, vec![traced(1, 25)]).collapsed();
        assert_eq!(profile.total(), 100, "profile total equals the root wall");
        let frames: Vec<(&str, u64)> = profile.frames().collect();
        assert!(frames.iter().any(|(stack, _)| *stack == "session;sample"));
        // Fully-attributed session: the residual root frame is zero.
        assert!(frames
            .iter()
            .any(|(stack, v)| *stack == "session" && *v == 0));
    }

    #[test]
    fn collapsed_profile_renders_and_totals() {
        let mut profile = CollapsedProfile::default();
        profile.record("session;sample", 500);
        profile.record("session", 100);
        profile.record("session;sample", 250);
        assert_eq!(profile.render(), "session 100\nsession;sample 750\n");
        assert_eq!(profile.total(), 850);
    }

    #[test]
    fn jsonl_round_trips() {
        let forest = forest(9, vec![traced(5, 42)]);
        let jsonl = forest.render_jsonl();
        let spans = jsonl
            .lines()
            .map(|line| serde_json::from_str::<TraceSpan>(line).unwrap());
        assert!(spans.eq(forest.spans()));
        assert_eq!(jsonl.lines().count(), forest.len(), "one span per line");
    }

    #[test]
    fn handle_follows_the_tracer_recipe() {
        let off = TraceHandle::off();
        assert!(!off.is_on());
        off.extend(vec![traced(1, 1)]);
        assert!(off.drain().1.is_empty());
        assert_eq!(format!("{off:?}"), "TraceHandle(off)");

        let on = TraceHandle::new(3);
        assert!(on.is_on());
        assert_eq!(format!("{on:?}"), "TraceHandle(on)");
        on.extend(vec![traced(1, 5), traced(2, 5)]);
        let (salt, drained) = on.drain();
        assert_eq!((salt, drained.len()), (3, 2));
        assert!(on.drain().1.is_empty(), "drain takes");
    }

    /// One session of the pin: `(tag, requested, samples, candidates,
    /// correct)` and the session, submit, sample, verify and evaluate walls.
    fn pinned_session(counts: [u64; 5], walls: [u64; 5]) -> TracedCase {
        let [tag, requested, samples, candidates, correct] = counts;
        let record = JournalRecord {
            session: session(tag as usize),
            samples,
            candidates,
            correct,
        };
        TracedCase {
            record,
            requested,
            walls,
        }
    }

    /// The renders of a fixed forest, byte for byte: three sessions and an
    /// exact duplicate of the first (merged by the larger wall per stage,
    /// whose stage walls then exceed the session's), two sessions tied on
    /// their wall.
    #[test]
    fn renders_of_a_fixed_forest_are_pinned() {
        let forest = forest(
            5,
            vec![
                pinned_session([1, 3, 3, 2, 1], [100, 10, 40, 20, 25]),
                pinned_session([2, 4, 4, 4, 0], [70, 5, 30, 15, 15]),
                pinned_session([3, 2, 2, 1, 2], [70, 1, 60, 2, 3]),
                pinned_session([1, 3, 3, 2, 1], [90, 12, 35, 30, 25]),
            ],
        );
        let slowest: String = (forest.slowest(2).iter())
            .map(|s| {
                let (wall, attributed) = (s.wall_ns, s.attributed_ns);
                let coverage = 100.0 * s.coverage();
                format!(
                    "{:016x} {wall} {attributed} {coverage:.1} {}\n",
                    s.trace, s.units
                )
            })
            .collect();
        let rendered = [
            forest.render(),
            forest.collapsed().render(),
            forest.render_jsonl(),
            slowest,
        ];
        assert_eq!(rendered, PINNED_RENDERS);
    }

    const PINNED_RENDERS: [&str; 4] = [
        concat!(
            "trace=83b05d40ca857d7b span=83b05d40ca857d7b parent=- start=6 units=4 name=session wall_ns=70\n",
            "  trace=83b05d40ca857d7b span=b518370856d5bb60 parent=83b05d40ca857d7b start=18 units=4 name=submit wall_ns=5\n",
            "  trace=83b05d40ca857d7b span=2e866ba29037c24f parent=83b05d40ca857d7b start=32 units=4 name=sample wall_ns=30\n",
            "  trace=83b05d40ca857d7b span=39305c62eed6e1aa parent=83b05d40ca857d7b start=48 units=4 name=verify wall_ns=15\n",
            "  trace=83b05d40ca857d7b span=f301f23e73e07280 parent=83b05d40ca857d7b start=67 units=0 name=evaluate wall_ns=15\n",
            "trace=af96f8e4e02acad1 span=af96f8e4e02acad1 parent=- start=6 units=3 name=session wall_ns=100\n",
            "  trace=af96f8e4e02acad1 span=154c05ee1cf1f015 parent=af96f8e4e02acad1 start=31 units=3 name=submit wall_ns=12\n",
            "  trace=af96f8e4e02acad1 span=d22b49fbda317d08 parent=af96f8e4e02acad1 start=38 units=3 name=sample wall_ns=40\n",
            "  trace=af96f8e4e02acad1 span=5f9ab7c20630f56f parent=af96f8e4e02acad1 start=51 units=2 name=verify wall_ns=30\n",
            "  trace=af96f8e4e02acad1 span=80140bffdfcb0236 parent=af96f8e4e02acad1 start=78 units=1 name=evaluate wall_ns=25\n",
            "trace=f58e62d6395f2807 span=f58e62d6395f2807 parent=- start=1 units=2 name=session wall_ns=70\n",
            "  trace=f58e62d6395f2807 span=bbef767c37f7a7d1 parent=f58e62d6395f2807 start=22 units=2 name=submit wall_ns=1\n",
            "  trace=f58e62d6395f2807 span=9eb725331f6a9d51 parent=f58e62d6395f2807 start=45 units=2 name=sample wall_ns=60\n",
            "  trace=f58e62d6395f2807 span=b7bec14c6ad93c8c parent=f58e62d6395f2807 start=54 units=1 name=verify wall_ns=2\n",
            "  trace=f58e62d6395f2807 span=0d17e183aadaa269 parent=f58e62d6395f2807 start=75 units=2 name=evaluate wall_ns=3\n",
        ),
        concat!(
            "session 9\n",
            "session;evaluate 43\n",
            "session;sample 130\n",
            "session;submit 18\n",
            "session;verify 47\n",
        ),
        concat!(
            "{\"trace\":9489186947726671227,\"span\":9489186947726671227,\"parent\":null,\"name\":\"session\",\"start\":6,\"units\":4,\"wall_ns\":70}\n",
            "{\"trace\":9489186947726671227,\"span\":13049240429262125920,\"parent\":9489186947726671227,\"name\":\"submit\",\"start\":18,\"units\":4,\"wall_ns\":5}\n",
            "{\"trace\":9489186947726671227,\"span\":3352485318572360271,\"parent\":9489186947726671227,\"name\":\"sample\",\"start\":32,\"units\":4,\"wall_ns\":30}\n",
            "{\"trace\":9489186947726671227,\"span\":4120895239027614122,\"parent\":9489186947726671227,\"name\":\"verify\",\"start\":48,\"units\":4,\"wall_ns\":15}\n",
            "{\"trace\":9489186947726671227,\"span\":17510543176239182464,\"parent\":9489186947726671227,\"name\":\"evaluate\",\"start\":67,\"units\":0,\"wall_ns\":15}\n",
            "{\"trace\":12652573865041119953,\"span\":12652573865041119953,\"parent\":null,\"name\":\"session\",\"start\":6,\"units\":3,\"wall_ns\":100}\n",
            "{\"trace\":12652573865041119953,\"span\":1534608093272469525,\"parent\":12652573865041119953,\"name\":\"submit\",\"start\":31,\"units\":3,\"wall_ns\":12}\n",
            "{\"trace\":12652573865041119953,\"span\":15144279518009720072,\"parent\":12652573865041119953,\"name\":\"sample\",\"start\":38,\"units\":3,\"wall_ns\":40}\n",
            "{\"trace\":12652573865041119953,\"span\":6889020623972005231,\"parent\":12652573865041119953,\"name\":\"verify\",\"start\":51,\"units\":2,\"wall_ns\":30}\n",
            "{\"trace\":12652573865041119953,\"span\":9229014729988178486,\"parent\":12652573865041119953,\"name\":\"evaluate\",\"start\":78,\"units\":1,\"wall_ns\":25}\n",
            "{\"trace\":17694188658210318343,\"span\":17694188658210318343,\"parent\":null,\"name\":\"session\",\"start\":1,\"units\":2,\"wall_ns\":70}\n",
            "{\"trace\":17694188658210318343,\"span\":13542172880413370321,\"parent\":17694188658210318343,\"name\":\"submit\",\"start\":22,\"units\":2,\"wall_ns\":1}\n",
            "{\"trace\":17694188658210318343,\"span\":11436650680231304529,\"parent\":17694188658210318343,\"name\":\"sample\",\"start\":45,\"units\":2,\"wall_ns\":60}\n",
            "{\"trace\":17694188658210318343,\"span\":13240232488470133900,\"parent\":17694188658210318343,\"name\":\"verify\",\"start\":54,\"units\":1,\"wall_ns\":2}\n",
            "{\"trace\":17694188658210318343,\"span\":943470602580828777,\"parent\":17694188658210318343,\"name\":\"evaluate\",\"start\":75,\"units\":2,\"wall_ns\":3}\n",
        ),
        concat!(
            "af96f8e4e02acad1 100 107 100.0 3\n",
            "83b05d40ca857d7b 70 65 92.9 4\n",
        ),
    ];

    #[test]
    fn drain_order_is_independent_of_collection_order() {
        let run = |reverse: bool| {
            let handle = TraceHandle::new(0);
            let mut cases = vec![traced(1, 7), traced(2, 7), traced(1, 9)];
            if reverse {
                cases.reverse();
            }
            handle.extend(cases);
            handle.drain()
        };
        assert_eq!(run(false), run(true));
    }
}

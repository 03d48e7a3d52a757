//! Deterministic tracing: content-derived trace trees that are
//! byte-identical at any driver count.
//!
//! Conventional tracers mint span ids from wall clocks or randomness, which
//! makes two runs of the same workload incomparable.  Here every id is a pure
//! function of request content:
//!
//! * a **trace id** is `splitmix64(CaseKey.fold64() ^ TRACE_SALT ^ salt)` —
//!   the registered salt lets two experiments over the same corpus keep
//!   disjoint id spaces;
//! * a **span id** is `splitmix64(parent_span_id ^ fnv64(label))` — the tree
//!   *shape* is part of the contract, so the same request produces the same
//!   tree however the evaluation was scheduled;
//! * a span's **start** is a logical tick of `(trace_id, stage seq)`,
//!   never a wall clock.
//!
//! Wall-clock durations ride along in [`TraceSpan::wall_ns`] as **volatile**
//! payload: they power `svobs trace --slowest` and `--flame`, but are excluded
//! from [`TraceForest::render_deterministic`], the byte-compared projection.

use crate::cache::CaseKey;
use crate::persist::fnv64;
use crate::service::splitmix64;
use crate::sync::lock_recover;
use crate::telemetry::CollapsedProfile;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Salt folded into every trace id, so trace identity is its own hash of the
/// request key rather than the bare fold.
const TRACE_SALT: u64 = 0x7CA5_E11A_D157_ACED;

/// Logical timestamp of stage `seq` in trace `trace`.
///
/// `seq * 16` keeps ticks strictly monotonic per trace; the low nibble is a
/// deterministic jitter bucketed out of the trace id, so two traces'
/// timelines differ without any wall clock involved.
pub(crate) fn logical_tick(trace: u64, seq: u32) -> u64 {
    let jitter = splitmix64(trace ^ (u64::from(seq) << 1 | 1)) & 0xF;
    u64::from(seq) * 16 + jitter
}

/// Stage sequence numbers: fixed per span name so logical start ticks — and
/// therefore the deterministic render order — are part of the protocol, not
/// an accident of scheduling.
pub mod stage {
    /// The root session span.
    pub const SESSION: u32 = 0;
    /// The case's repair request built for the pool.
    pub const SUBMIT: u32 = 1;
    /// Model sampling, served in place.
    pub const SAMPLE: u32 = 2;
    /// Candidate dedup into verdict jobs.
    pub const VERIFY: u32 = 3;
    /// Verdicts judged and tallied.
    pub const EVALUATE: u32 = 4;
}

/// The identity of one span: enough to derive its children's ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace this span belongs to (one trace per repair session).
    pub(crate) trace_id: u64,
    /// This span's id.
    pub(crate) span_id: u64,
    /// The parent span's id; `None` for the root.
    pub(crate) parent_span_id: Option<u64>,
}

impl TraceContext {
    /// The root context for a request: ids derive from the content hash and
    /// the registered salt, never from wall clock or randomness.
    pub fn root(key: CaseKey, salt: u64) -> Self {
        let trace_id = splitmix64(key.fold64() ^ TRACE_SALT ^ salt);
        Self {
            trace_id,
            span_id: trace_id,
            parent_span_id: None,
        }
    }

    /// A child context under this span: the child id hashes the parent id
    /// with the stage label, so the same label under the same parent is the
    /// same span on every machine.
    pub fn child(&self, label: &str) -> Self {
        Self {
            trace_id: self.trace_id,
            span_id: splitmix64(self.span_id ^ fnv64(label.as_bytes())),
            parent_span_id: Some(self.span_id),
        }
    }
}

/// One completed span.
///
/// `trace`/`span`/`parent`/`name`/`start`/`units` are **deterministic** —
/// pure functions of request content and tree shape; `wall_ns` is the
/// **volatile** wall-clock payload and is excluded from the byte-compared
/// projection ([`TraceForest::render_deterministic`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// Trace id.
    pub trace: u64,
    /// Span id.
    pub span: u64,
    /// Parent span id; `None` for the root.
    pub parent: Option<u64>,
    /// Stage name (`"session"`, `"submit"`, `"sample"`, …).
    pub name: String,
    /// Logical start tick of `(trace, stage seq)`: `seq * 16` plus a jitter
    /// nibble of the trace id.
    pub start: u64,
    /// Content-derived magnitude (samples drawn, candidates judged, …).
    pub units: u64,
    /// Wall-clock duration in nanoseconds (volatile diagnostic).
    pub wall_ns: u64,
}

impl TraceSpan {
    /// Builds the span for `ctx` at stage `seq`.
    pub fn new(
        ctx: &TraceContext,
        name: impl Into<String>,
        seq: u32,
        units: u64,
        wall_ns: u64,
    ) -> Self {
        Self {
            trace: ctx.trace_id,
            span: ctx.span_id,
            parent: ctx.parent_span_id,
            name: name.into(),
            start: logical_tick(ctx.trace_id, seq),
            units,
            wall_ns,
        }
    }

    /// The deterministic projection of this span: every field except the
    /// wall clock, rendered byte-stably.
    pub(crate) fn deterministic_line(&self) -> String {
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
    spans: Mutex<Vec<TraceSpan>>,
}

/// The tracing switch: `off()` by default, one branch per hot-path hook.
///
/// The handle owns the registered salt (folded into every trace id) and the
/// spans an evaluation hands back; [`TraceHandle::drain`] takes them in
/// deterministic order.
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
            spans: Mutex::new(Vec::new()),
        })))
    }

    /// The root context for `key`, or `None` while tracing is off.
    pub fn root(&self, key: CaseKey) -> Option<TraceContext> {
        self.0
            .as_ref()
            .map(|core| TraceContext::root(key, core.salt))
    }

    /// Records a batch of completed spans (an evaluation's, say); dropped
    /// silently while tracing is off.
    pub fn extend(&self, spans: Vec<TraceSpan>) {
        if let Some(core) = &self.0 {
            lock_recover(&core.spans).extend(spans);
        }
    }

    /// Takes every collected span, sorted and deduplicated the same way
    /// [`TraceForest::from_spans`] sorts them — collection order (a scheduling
    /// artifact) never leaks into the output.
    pub fn drain(&self) -> Vec<TraceSpan> {
        let spans = match &self.0 {
            Some(core) => std::mem::take(&mut *lock_recover(&core.spans)),
            None => Vec::new(),
        };
        TraceForest::from_spans(spans).into_spans()
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

/// Per-root-span summary: the numbers `svobs trace --slowest` mines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSessionSummary {
    /// Trace id.
    pub trace: u64,
    /// Root span name.
    pub name: String,
    /// The root span's wall-clock duration.
    pub wall_ns: u64,
    /// Wall-clock attributed to named descendant spans.
    pub attributed_ns: u64,
    /// The root span's content-derived magnitude.
    pub units: u64,
}

impl TraceSessionSummary {
    /// Fraction of the session's wall-clock attributed to named child spans
    /// (1.0 for a zero-duration session — nothing is unaccounted for).
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            1.0
        } else {
            self.attributed_ns.min(self.wall_ns) as f64 / self.wall_ns as f64
        }
    }
}

/// A reconstructed set of trace trees: spans sorted deterministically, with
/// duplicates (the same span recorded twice) merged.
///
/// Duplicate deterministic keys arise in-process: twin cases (the same
/// request content judged against different golden fixes) share a
/// [`CaseKey`], so their sessions derive the same span ids.  Duplicates share
/// every deterministic field, so the merge keeps one span with the **max**
/// wall clock.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceForest {
    spans: Vec<TraceSpan>,
}

/// The deterministic identity of a span — every field except the volatile
/// wall clock.  Two recordings of the same logical span produce the same
/// key, which is what lets [`TraceForest::from_spans`] merge them.
type SpanKey = (u64, u64, u64, String, u64, Option<u64>);

impl TraceForest {
    /// Builds a forest: sorts by the deterministic key and merges duplicates.
    pub fn from_spans(spans: Vec<TraceSpan>) -> Self {
        let mut merged: BTreeMap<SpanKey, u64> = BTreeMap::new();
        for span in spans {
            let key = (
                span.trace,
                span.start,
                span.span,
                span.name,
                span.units,
                span.parent,
            );
            let wall = merged.entry(key).or_insert(0);
            *wall = (*wall).max(span.wall_ns);
        }
        let spans = merged
            .into_iter()
            .map(
                |((trace, start, span, name, units, parent), wall_ns)| TraceSpan {
                    trace,
                    span,
                    parent,
                    name,
                    start,
                    units,
                    wall_ns,
                },
            )
            .collect();
        Self { spans }
    }

    /// The spans in deterministic order.
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// Consumes the forest, returning the sorted spans.
    pub(crate) fn into_spans(self) -> Vec<TraceSpan> {
        self.spans
    }

    /// Number of spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the forest holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Root spans (no parent, or parent absent from the set), in order.
    fn roots(&self) -> Vec<&TraceSpan> {
        let ids: std::collections::BTreeSet<u64> = self.spans.iter().map(|s| s.span).collect();
        self.spans
            .iter()
            .filter(|s| match s.parent {
                None => true,
                Some(parent) => !ids.contains(&parent),
            })
            .collect()
    }

    fn children_of(&self, trace: u64, span: u64) -> Vec<&TraceSpan> {
        self.spans
            .iter()
            .filter(|s| s.trace == trace && s.parent == Some(span) && s.span != span)
            .collect()
    }

    fn render_node(&self, span: &TraceSpan, depth: usize, deterministic: bool, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&span.deterministic_line());
        if !deterministic {
            out.push_str(&format!(" wall_ns={}", span.wall_ns));
        }
        out.push('\n');
        for child in self.children_of(span.trace, span.span) {
            self.render_node(child, depth + 1, deterministic, out);
        }
    }

    /// The byte-compared projection: the full tree, indented, deterministic
    /// fields only.  Identical for the same corpus at any driver count, warm
    /// or cold.
    pub fn render_deterministic(&self) -> String {
        let mut out = String::new();
        for root in self.roots() {
            self.render_node(root, 0, true, &mut out);
        }
        out
    }

    /// The full tree including per-span wall clocks (for humans, not for
    /// byte comparison).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for root in self.roots() {
            self.render_node(root, 0, false, &mut out);
        }
        out
    }

    /// Collapsed-stack projection of the wall clocks: one
    /// `root;…;span wall_ns` frame per span path (the format `svobs prof`,
    /// `flamegraph.pl` and `inferno` consume).  The root frame carries the
    /// session's *unattributed* residual so the profile total equals the sum
    /// of root walls.
    pub fn collapsed(&self) -> CollapsedProfile {
        let mut profile = CollapsedProfile::new();
        for root in self.roots() {
            let attributed = self.collapse_children(root, &root.name.clone(), &mut profile);
            profile.record(&root.name, root.wall_ns.saturating_sub(attributed));
        }
        profile
    }

    fn collapse_children(
        &self,
        span: &TraceSpan,
        path: &str,
        profile: &mut CollapsedProfile,
    ) -> u64 {
        let mut attributed = 0u64;
        for child in self.children_of(span.trace, span.span) {
            let child_path = format!("{path};{}", child.name);
            let nested = self.collapse_children(child, &child_path, profile);
            profile.record(&child_path, child.wall_ns.saturating_sub(nested));
            attributed = attributed.saturating_add(child.wall_ns);
        }
        attributed
    }

    /// One summary per root span, in deterministic order.
    pub fn sessions(&self) -> Vec<TraceSessionSummary> {
        self.roots()
            .iter()
            .map(|root| TraceSessionSummary {
                trace: root.trace,
                name: root.name.clone(),
                wall_ns: root.wall_ns,
                attributed_ns: self.attributed_below(root),
                units: root.units,
            })
            .collect()
    }

    fn attributed_below(&self, root: &TraceSpan) -> u64 {
        self.children_of(root.trace, root.span)
            .iter()
            .fold(0u64, |acc, child| acc.saturating_add(child.wall_ns))
    }

    /// The `n` slowest sessions by root wall-clock (ties broken by trace id,
    /// so the listing is stable).
    pub fn slowest(&self, n: usize) -> Vec<TraceSessionSummary> {
        let mut sessions = self.sessions();
        sessions.sort_by(|a, b| b.wall_ns.cmp(&a.wall_ns).then(a.trace.cmp(&b.trace)));
        sessions.truncate(n);
        sessions
    }

    /// Serializes the forest as JSONL (one span per line, deterministic
    /// order) — what `svobs trace --out` writes.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            out.push_str(&serde_json::to_string(span).expect("trace spans serialize"));
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

    fn key(tag: usize) -> CaseKey {
        case_key(
            &CaseInput {
                spec: format!("spec {tag}"),
                buggy_source: format!("module m{tag}(); endmodule"),
                logs: String::new(),
            },
            3,
            0.2,
        )
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

    fn session_tree(tag: usize, salt: u64, wall: u64) -> Vec<TraceSpan> {
        let root = TraceContext::root(key(tag), salt);
        vec![
            TraceSpan::new(&root, "session", stage::SESSION, 3, wall * 4),
            TraceSpan::new(&root.child("submit"), "submit", stage::SUBMIT, 3, wall),
            TraceSpan::new(&root.child("sample"), "sample", stage::SAMPLE, 3, wall),
            TraceSpan::new(&root.child("verify"), "verify", stage::VERIFY, 2, wall),
            TraceSpan::new(
                &root.child("evaluate"),
                "evaluate",
                stage::EVALUATE,
                1,
                wall,
            ),
        ]
    }

    #[test]
    fn contexts_are_pure_functions_of_content_and_salt() {
        let a = TraceContext::root(key(1), 0);
        assert_eq!(a, TraceContext::root(key(1), 0));
        assert_ne!(a.trace_id, TraceContext::root(key(2), 0).trace_id);
        assert_ne!(a.trace_id, TraceContext::root(key(1), 7).trace_id);
        let child = a.child("sample");
        assert_eq!(child, a.child("sample"));
        assert_eq!(child.trace_id, a.trace_id);
        assert_eq!(child.parent_span_id, Some(a.span_id));
        assert_ne!(child.span_id, a.child("verify").span_id);
        // Grandchildren chain: same label under different parents differs.
        assert_ne!(child.child("x").span_id, a.child("x").span_id);
    }

    #[test]
    fn forest_merges_duplicates_by_max_wall() {
        let mut spans = session_tree(1, 0, 100);
        // The same deterministic spans recorded again (a twin case), slower.
        spans.extend(session_tree(1, 0, 250));
        let forest = TraceForest::from_spans(spans);
        assert_eq!(forest.len(), 5, "duplicates merge");
        assert!(forest.spans().iter().all(|s| s.wall_ns >= 250));
    }

    #[test]
    fn deterministic_render_excludes_wall_and_is_stable() {
        let fast = TraceForest::from_spans(session_tree(3, 0, 10));
        let slow = TraceForest::from_spans(session_tree(3, 0, 99_999));
        assert_eq!(fast.render_deterministic(), slow.render_deterministic());
        assert_ne!(fast.render(), slow.render());
        let text = fast.render_deterministic();
        assert!(text.contains("name=session"));
        // Children indent under the root.
        assert!(text.contains("\n  trace="));
    }

    #[test]
    fn trees_reconstruct_roots_and_children() {
        let mut spans = session_tree(1, 0, 10);
        spans.extend(session_tree(2, 0, 20));
        let forest = TraceForest::from_spans(spans);
        let sessions = forest.sessions();
        assert_eq!(sessions.len(), 2);
        for session in &sessions {
            assert_eq!(session.name, "session");
            assert_eq!(session.wall_ns, session.attributed_ns);
            assert!((session.coverage() - 1.0).abs() < 1e-9);
        }
        let slowest = forest.slowest(1);
        assert_eq!(slowest.len(), 1);
        assert_eq!(slowest[0].wall_ns, 80);
    }

    #[test]
    fn collapsed_stacks_total_the_root_walls() {
        let forest = TraceForest::from_spans(session_tree(1, 0, 25));
        let profile = forest.collapsed();
        assert_eq!(profile.total(), 100, "profile total equals the root wall");
        let frames: Vec<(&str, u64)> = profile.frames().collect();
        assert!(frames.iter().any(|(stack, _)| *stack == "session;sample"));
        // Fully-attributed session: the residual root frame is zero.
        assert!(frames
            .iter()
            .any(|(stack, v)| *stack == "session" && *v == 0));
    }

    #[test]
    fn jsonl_round_trips() {
        let forest = TraceForest::from_spans(session_tree(5, 9, 42));
        let jsonl = forest.render_jsonl();
        let spans = jsonl
            .lines()
            .map(|line| serde_json::from_str(line).unwrap());
        assert_eq!(TraceForest::from_spans(spans.collect()), forest);
        assert_eq!(jsonl.lines().count(), forest.len(), "one span per line");
    }

    #[test]
    fn handle_follows_the_tracer_recipe() {
        let off = TraceHandle::off();
        assert!(off.root(key(1)).is_none());
        off.extend(session_tree(1, 0, 1));
        assert!(off.drain().is_empty());
        assert_eq!(format!("{off:?}"), "TraceHandle(off)");

        let on = TraceHandle::new(0);
        assert_eq!(format!("{on:?}"), "TraceHandle(on)");
        let ctx = on.root(key(1)).expect("root context");
        assert_eq!(ctx, TraceContext::root(key(1), 0));
        on.extend(vec![
            TraceSpan::new(&ctx, "session", stage::SESSION, 1, 5),
            TraceSpan::new(&ctx.child("sample"), "sample", stage::SAMPLE, 1, 5),
        ]);
        let drained = on.drain();
        assert_eq!(drained.len(), 2);
        assert!(on.drain().is_empty(), "drain takes");
    }

    #[test]
    fn drain_order_is_independent_of_collection_order() {
        let run = |reverse: bool| {
            let handle = TraceHandle::new(0);
            let mut spans = session_tree(1, 0, 7);
            spans.extend(session_tree(2, 0, 7));
            if reverse {
                spans.reverse();
            }
            handle.extend(spans);
            handle.drain()
        };
        assert_eq!(run(false), run(true));
    }
}

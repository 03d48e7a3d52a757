//! # svserve — a concurrent, memoized repair service over any [`svmodel::RepairModel`]
//!
//! The paper evaluates AssertSolver one case at a time; this crate is the serving
//! harness that turns a repair model into a system that can absorb heavy traffic:
//!
//! * **Caches served in place** — every cache is a [`Memo`], one
//!   content-addressed map that runs its work on the thread that asks
//!   ([`serve_scoped`], [`RepairService`], `assertsolver::EvalVerifier`): no
//!   memo spawns a thread.  Concurrency comes from the callers — the
//!   evaluation's case drivers.
//! * **Content-addressed response cache** — answers are cached under a 128-bit hash
//!   of `(spec, buggy source, failure log, samples, temperature)` in a map
//!   that never evicts ([`cache`]).
//! * **Metrics** — [`ServiceMetrics`] and [`VerifyMetrics`] snapshot a memo's
//!   counters: hits and misses, warm hits, snapshot traffic and panics.
//! * **Determinism** — sampler seeds derive from the content hash plus the service
//!   seed, never from arrival order or the submitting thread, so the same
//!   workload yields byte-identical responses at any driver count.
//! * **One memo** — caching, panic absorption and snapshots live once, in
//!   [`Memo`] ([`pool`]); the repair service ([`service`]) is a model behind
//!   one, and the verdict cache ([`verify`]) is another, keyed by
//!   `hash(case, response, checker config)`, that `assertsolver::EvalVerifier`
//!   judges through on the thread that drives each case.
//! * **Cache persistence & warm start** — both caches can spill to versioned
//!   on-disk snapshots ([`persist`]) that are preloaded at pool start, so repeated
//!   runs replay responses and verdicts from disk instead of recomputing them;
//!   corrupt or mismatched snapshots degrade to a cold start, never an error.
//!   Snapshots carry a generation counter, and entries that go unused for
//!   [`PersistSpec::compact_after`] runs are compacted away at flush.
//! * **Tickets** — a ticket holds an outcome already served when `submit`
//!   returns; the one refusal is [`SubmitError::Closed`], after shutdown.
//! * **Session journal** — one record per judged case ([`journal`]): its
//!   samples drawn, distinct candidates and samples judged correct, which
//!   the case driver returns beside the case's result, rendered sorted as a
//!   checksummed JSONL artifact whose bytes are deterministic at any driver
//!   count — a replayable repro artifact, not just a log.  Memo events
//!   (cache lookups, panics) are counted once, in the memo metrics.
//! * **Stage profile** — a [`TelemetryHandle`] that is on has an evaluation
//!   time its setup, sessions and report stages as a [`CollapsedProfile`]
//!   ([`telemetry`]).
//! * **Frame protocol** — a checksummed, length-capped frame codec ([`wire`])
//!   with an in-process loopback transport and a [`ShardFleet`] client placing
//!   requests by content hash (per-shard caches stay disjoint; answers are
//!   byte-identical to direct submission at any shard count).  A peer's
//!   `Busy` and every wire failure degrade to counted outcomes, never a
//!   client panic.
//!
//! ## Quick example
//!
//! ```
//! use svserve::{serve_scoped, RepairRequest, ServiceConfig};
//! use svmodel::{AssertSolverModel, CaseInput};
//!
//! let model = AssertSolverModel::base(1);
//! let case = CaseInput {
//!     spec: "spec".into(),
//!     buggy_source: "module m(); endmodule".into(),
//!     logs: String::new(),
//! };
//! let outcomes = serve_scoped(&model, ServiceConfig::default(), |service| {
//!     service.solve_all(vec![RepairRequest::new(case, 3, 0.2)])
//! });
//! assert_eq!(outcomes[0].responses.len(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod env;
pub mod journal;
pub mod metrics;
pub mod persist;
pub mod pool;
pub mod service;
pub(crate) mod sync;
pub mod telemetry;
pub mod trace;
pub mod verify;
pub mod wire;

pub use cache::{verdict_case_state, verdict_key_of_fields, CaseKey, VerdictCaseState, VerdictKey};
pub use env::{
    env_cache_dir, env_drivers, env_journal_dir, CACHE_DIR_ENV, DRIVERS_ENV, JOURNAL_DIR_ENV,
    SCALE_ENV,
};
pub use journal::{
    parse_journal, render_journal, write_journal, JournalFooter, JournalHeader, JournalRecord,
    ParsedJournal, TracerHandle,
};
pub use metrics::{ServiceMetrics, VerifyMetrics};
pub use persist::{
    PersistSpec, SnapshotHeader, SnapshotLoad, DEFAULT_COMPACT_AFTER_RUNS, SNAPSHOT_FORMAT_VERSION,
};
pub use pool::{Memo, SubmitError};
pub use service::{
    serve_scoped, RepairOutcome, RepairRequest, RepairService, RepairTicket, ScopedService,
    ServiceConfig,
};
pub use telemetry::{CollapsedProfile, MetricsRegistry, TelemetryHandle};
pub use trace::{stage, TraceContext, TraceForest, TraceHandle, TraceSessionSummary, TraceSpan};
pub use verify::VerifyConfig;
pub use wire::{
    decode_frame, encode_frame, Frame, LoopbackTransport, ShardFleet, Transport, WireError,
    WireOutcome,
};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<super::ServiceConfig>();
        assert_send_sync::<super::ServiceMetrics>();
        assert_send_sync::<super::RepairRequest>();
        assert_send_sync::<super::RepairOutcome>();
        assert_send_sync::<super::RepairTicket>();
        assert_send_sync::<super::VerifyConfig>();
        assert_send_sync::<super::VerifyMetrics>();
        assert_send_sync::<super::Memo<super::persist::VerdictSnapshot>>();
        assert_send_sync::<super::Memo<super::persist::ResponseSnapshot>>();
        assert_send_sync::<super::pool::Served<bool>>();
        assert_send_sync::<super::TracerHandle>();
        assert_send_sync::<super::TelemetryHandle>();
        assert_send_sync::<super::MetricsRegistry>();
        assert_send_sync::<super::TraceHandle>();
        assert_send_sync::<super::TraceSpan>();
        assert_send_sync::<super::TraceForest>();
    }
}

//! Workspace-level façade for the AssertSolver reproduction.
//!
//! This crate exists so the repository can host runnable `examples/` and cross-crate
//! integration `tests/` at the workspace root; the actual functionality lives in the
//! member crates, re-exported here for convenience:
//!
//! * [`assertsolver`] — training, inference and pass@k evaluation (the paper's core);
//! * [`svparse`], [`svsim`], [`svverify`] — the EDA substrate (frontend, simulator,
//!   bounded checker);
//! * [`svmutate`], [`svgen`], [`svdata`] — bug injection, corpus synthesis and the
//!   three-stage data-augmentation pipeline;
//! * [`svmodel`] — the trainable surrogate model and the baseline surrogates;
//! * [`svserve`] — the serving layer: a concurrent, sharded repair service that wraps
//!   any [`svmodel::RepairModel`] behind a submit API that serves each request on
//!   the submitting thread, with admission control, content-addressed caches with persistent
//!   on-disk snapshots ([`svserve::persist`]) and [`svserve::ServiceMetrics`]
//!   snapshots.  Sampler seeds derive from case content, so results are
//!   byte-identical at any worker count and across cold/warm starts
//!   (`examples/repair_service.rs` and `examples/warm_start.rs` demonstrate the
//!   guarantees live).
//!
//! `assertsolver::evaluate_model` runs its pass@k sampling loop through `svserve`,
//! so every table and figure of the reproduction exercises the serving layer.

pub use assertsolver;
pub use svdata;
pub use svgen;
pub use svmodel;
pub use svmutate;
pub use svparse;
pub use svserve;
pub use svsim;
pub use svverify;

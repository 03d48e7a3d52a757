//! The reference interpreter: the oracle of the compiled engine.
//!
//! This is the simulator the crate shipped before designs were lowered to slots
//! ([`crate::Design::elaborate`]): signal values in a `BTreeMap<String, Value>`, the
//! AST walked directly, one whole-state clone per recorded cycle.  It is slow and it
//! is the definition of correct — every quirk the compiled engine reproduces
//! (`docs/ARCHITECTURE.md`, "pinned by the oracle") is whatever this code does.
//!
//! **Nothing on a production path may call into this module.**  Its callers are the
//! differential suites (`crates/svsim/tests/compiled_vs_reference.rs`,
//! `crates/svverify/tests/checker_vs_reference.rs`) and the `svfuzz` `sim-diff`
//! oracle, which run both engines on the same design and stimuli and compare traces
//! cycle for cycle.  Change behaviour here only together with the compiled engine,
//! and only when the change is meant to move verdicts.

pub mod eval;
pub mod simulator;
pub mod sva;

pub use eval::{eval_expr, eval_in_state, State};
pub use simulator::{Simulator, Trace};
pub use sva::{check_assertion, check_assertions};

use crate::elaborate::Design;
use crate::simulator::{InputVector, SimError};
use crate::sva::AssertionFailure;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// [`crate::log::render_log`] for a reference trace: the same bytes for the same failures.
pub(crate) fn render_log(design: &Design, trace: &Trace, failures: &[AssertionFailure]) -> String {
    crate::log::render(&design.module.name, trace.len(), failures)
}

/// Runs both engines over one stimulus and describes the first thing they disagree
/// on, if anything: the [`SimError`], the trace length, the value (bits *and* width)
/// of any name the design mentions at any cycle, the assertion failures, or the
/// rendered log.  Both engines panicking on the same input counts as agreement —
/// the arithmetic they share has a few documented panics (`Value::new` beyond 64
/// bits) and reaching one is not a difference between them.
pub fn first_divergence(design: &Design, stimulus: &[InputVector]) -> Option<String> {
    type Outcome<T> = Result<(T, Vec<AssertionFailure>, String), SimError>;
    let reference: std::thread::Result<Outcome<Trace>> = catch_unwind(AssertUnwindSafe(|| {
        let trace = Simulator::run(design, stimulus)?;
        let failures = check_assertions(design, &trace);
        let log = render_log(design, &trace, &failures);
        Ok((trace, failures, log))
    }));
    let compiled: std::thread::Result<Outcome<crate::Trace>> =
        catch_unwind(AssertUnwindSafe(|| {
            let trace = crate::Simulator::run(design, stimulus)?;
            let failures = crate::check_assertions(design, &trace);
            let log = crate::log::render_log(design, &trace, &failures);
            Ok((trace, failures, log))
        }));
    let (reference, compiled) = match (reference, compiled) {
        (Err(_), Err(_)) => return None,
        (Ok(_), Err(_)) => return Some("only the compiled engine panicked".into()),
        (Err(_), Ok(_)) => return Some("only the reference engine panicked".into()),
        (Ok(reference), Ok(compiled)) => (reference, compiled),
    };
    let ((ref_trace, ref_failures, ref_log), (trace, failures, log)) = match (reference, compiled) {
        (Err(a), Err(b)) if a == b => return None,
        (Ok(reference), Ok(compiled)) => (reference, compiled),
        (a, b) => {
            return Some(format!(
                "simulation outcome differs: reference {:?}, compiled {:?}",
                a.map(|_| "ran"),
                b.map(|_| "ran")
            ))
        }
    };
    if ref_trace.len() != trace.len() {
        return Some(format!(
            "trace length differs: reference {}, compiled {}",
            ref_trace.len(),
            trace.len()
        ));
    }
    let names = design.compiled.layout.names();
    for cycle in 0..trace.len() {
        for name in names.clone().chain(["never_mentioned_anywhere"]) {
            let (a, b) = (ref_trace.value(name, cycle), trace.value(name, cycle));
            if a != b {
                return Some(format!(
                    "`{name}` differs at cycle {cycle}: reference {a:?}, compiled {b:?}"
                ));
            }
        }
    }
    if ref_failures != failures {
        return Some(format!(
            "assertion failures differ: reference {ref_failures:?}, compiled {failures:?}"
        ));
    }
    (ref_log != log).then(|| "rendered logs differ".to_string())
}

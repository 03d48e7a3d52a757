//! The rendezvous behind a queued job's ticket.
//!
//! A ticket is one slot guarded by a mutex: the worker that serves a job
//! deposits its outcome with [`TicketState::fulfill`], and the submitter
//! blocks on a condvar ([`TicketState::wait`]).  The typed handles
//! ([`crate::RepairTicket`], [`crate::VerifyTicket`]) wrap it when a pool
//! runs worker threads; a job served in place needs no rendezvous.
//!
//! A fulfilled ticket whose waiter has been dropped is simply a slot nobody
//! takes.

use crate::sync::lock_recover;
use std::sync::{Arc, Condvar, Mutex};

/// One-shot rendezvous between a submitter and the worker that serves its job.
pub(crate) struct TicketState<T> {
    slot: Mutex<Option<T>>,
    ready: Condvar,
}

impl<T> TicketState<T> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    /// Deposits the outcome and wakes every blocking waiter.
    pub(crate) fn fulfill(&self, outcome: T) {
        *lock_recover(&self.slot) = Some(outcome);
        self.ready.notify_all();
    }

    /// Blocks until the outcome arrives.
    pub(crate) fn wait(&self) -> T {
        let mut slot = lock_recover(&self.slot);
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self
                .ready
                .wait(slot)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fulfill_then_wait_round_trips() {
        let state = TicketState::new();
        state.fulfill(41u32);
        assert_eq!(state.wait(), 41);
    }

    #[test]
    fn fulfilling_a_ticket_with_a_dropped_waiter_is_a_no_op() {
        let state = TicketState::new();
        // No waiter ever blocked; fulfilling must not panic, and the outcome
        // waits in the slot.
        state.fulfill(1u32);
        assert_eq!(state.wait(), 1);
    }

    #[test]
    fn a_poisoned_ticket_still_round_trips() {
        // Regression: a panic while the ticket mutex was held used to turn
        // every later fulfill/wait on the same ticket into a `PoisonError`
        // panic on an unrelated thread.
        let state: Arc<TicketState<u32>> = TicketState::new();
        let poisoner = Arc::clone(&state);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.slot.lock().unwrap();
            panic!("poison the ticket lock");
        })
        .join();
        assert!(state.slot.lock().is_err(), "the ticket lock is poisoned");
        state.fulfill(5u32);
        assert_eq!(state.wait(), 5);
    }
}

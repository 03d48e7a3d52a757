//! Bounded, sharded job queue with blocking backpressure.
//!
//! Each worker owns one shard.  Requests are routed to a shard by content hash, so
//! the mapping from case to worker is a pure function of the request — one of the two
//! ingredients (with hash-derived seeds) that make service output independent of
//! worker count and arrival order.  `Shard::push_blocking` parks the submitting
//! thread while the shard is at capacity, and `Shard::drain_batch` wakes it when
//! a batch frees space.

use crate::sync::{lock_recover, wait_timeout_recover};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// Error returned when submitting to a service that is shutting down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceClosed;

impl std::fmt::Display for ServiceClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "repair service is closed")
    }
}

impl std::error::Error for ServiceClosed {}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The pool is shutting down and accepts no new work.
    Closed,
    /// Admission control: the pool already holds its configured maximum of
    /// in-flight jobs (`max_in_flight`); the request was shed deterministically
    /// instead of queued.  See the `shed_busy` counter in the pool metrics.
    Busy,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Closed => write!(f, "{ServiceClosed}"),
            SubmitError::Busy => write!(f, "repair service is at its in-flight limit (busy)"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<ServiceClosed> for SubmitError {
    fn from(_: ServiceClosed) -> Self {
        SubmitError::Closed
    }
}

/// One worker's bounded queue.
pub(crate) struct Shard<T> {
    jobs: Mutex<VecDeque<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> Shard<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            jobs: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Current queue depth.
    pub(crate) fn len(&self) -> usize {
        lock_recover(&self.jobs).len()
    }

    /// Enqueues a job, blocking while the shard is full.  Returns the depth after
    /// the push, or [`ServiceClosed`] if the service shut down while waiting.
    pub(crate) fn push_blocking(
        &self,
        job: T,
        closed: &AtomicBool,
    ) -> Result<usize, ServiceClosed> {
        let mut jobs = lock_recover(&self.jobs);
        while jobs.len() >= self.capacity {
            if closed.load(Ordering::Acquire) {
                return Err(ServiceClosed);
            }
            let (guard, _timeout) =
                wait_timeout_recover(&self.not_full, jobs, std::time::Duration::from_millis(50));
            jobs = guard;
        }
        if closed.load(Ordering::Acquire) {
            return Err(ServiceClosed);
        }
        jobs.push_back(job);
        let depth = jobs.len();
        drop(jobs);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Dequeues up to `max_batch` jobs in one lock acquisition, blocking while the
    /// shard is empty.  Returns an empty vector once the service is closed and the
    /// shard has drained — the worker's signal to exit.
    pub(crate) fn drain_batch(&self, max_batch: usize, closed: &AtomicBool) -> Vec<T> {
        let mut jobs = lock_recover(&self.jobs);
        loop {
            if !jobs.is_empty() {
                let take = jobs.len().min(max_batch.max(1));
                let batch: Vec<T> = jobs.drain(..take).collect();
                drop(jobs);
                // Draining freed capacity: wake every blocked submitter.
                self.not_full.notify_all();
                return batch;
            }
            if closed.load(Ordering::Acquire) {
                return Vec::new();
            }
            let (guard, _timeout) =
                wait_timeout_recover(&self.not_empty, jobs, std::time::Duration::from_millis(50));
            jobs = guard;
        }
    }

    /// Wakes all waiters (used at shutdown).
    pub(crate) fn notify_all(&self) {
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn backpressure_blocks_until_drained() {
        let shard = Arc::new(Shard::new(2));
        let closed = Arc::new(AtomicBool::new(false));
        shard.push_blocking(1u32, &closed).unwrap();
        shard.push_blocking(2u32, &closed).unwrap();

        let pusher = {
            let shard = Arc::clone(&shard);
            let closed = Arc::clone(&closed);
            std::thread::spawn(move || shard.push_blocking(3u32, &closed))
        };
        // The third push cannot land until something drains.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(shard.len(), 2);
        let batch = shard.drain_batch(8, &closed);
        assert_eq!(batch, vec![1, 2]);
        pusher.join().unwrap().unwrap();
        assert_eq!(shard.len(), 1);
    }

    #[test]
    fn drain_returns_empty_after_close() {
        let shard: Shard<u32> = Shard::new(4);
        let closed = AtomicBool::new(true);
        assert!(shard.drain_batch(4, &closed).is_empty());
    }

    #[test]
    fn batch_size_is_capped() {
        let shard = Shard::new(16);
        let closed = AtomicBool::new(false);
        for i in 0..10u32 {
            shard.push_blocking(i, &closed).unwrap();
        }
        assert_eq!(shard.drain_batch(4, &closed).len(), 4);
        assert_eq!(shard.len(), 6);
    }

    #[test]
    fn submit_errors_display_and_convert() {
        assert_eq!(SubmitError::from(ServiceClosed), SubmitError::Closed);
        assert!(SubmitError::Closed.to_string().contains("closed"));
        assert!(SubmitError::Busy.to_string().contains("busy"));
    }
}

//! Poison-recovering lock helpers.
//!
//! Every pool in this crate already absorbs panics at the boundary where user
//! code runs (`catch_unwind` around model solves and judge verdicts), so a
//! panic that slips through while a `Mutex` is held — a panicking `Drop` in a
//! queued job — must not escalate into cascading `PoisonError` panics in
//! *unrelated* threads that merely touch the same lock later.  None of the
//! protected state carries cross-field invariants that a mid-update panic
//! could break (queues of owned jobs, one-shot ticket slots, append-only
//! journal buffers), so recovering the guard is strictly better than
//! poisoning the whole pool.
//!
//! All internal lock sites go through these helpers instead of
//! `.lock().expect(..)`.

use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
use std::time::Duration;

/// Locks `mutex`, recovering the guard if a previous holder panicked.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// [`Condvar::wait_timeout`] that recovers the guard on poison instead of
/// propagating the panic to the waiting thread.
pub(crate) fn wait_timeout_recover<'a, T>(
    condvar: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    condvar
        .wait_timeout(guard, timeout)
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    fn poison<T: Send + 'static>(mutex: &Arc<Mutex<T>>) {
        let clone = Arc::clone(mutex);
        let _ = std::thread::spawn(move || {
            let _guard = clone.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
    }

    #[test]
    fn lock_recover_survives_a_poisoned_mutex() {
        let mutex = Arc::new(Mutex::new(7u32));
        poison(&mutex);
        assert!(mutex.lock().is_err(), "the mutex really is poisoned");
        assert_eq!(*lock_recover(&mutex), 7);
        *lock_recover(&mutex) = 8;
        assert_eq!(*lock_recover(&mutex), 8);
    }

    #[test]
    fn wait_timeout_recover_survives_a_poisoned_mutex() {
        let mutex = Arc::new(Mutex::new(0u32));
        poison(&mutex);
        let condvar = Condvar::new();
        let guard = lock_recover(&mutex);
        let (guard, timeout) = wait_timeout_recover(&condvar, guard, Duration::from_millis(1));
        assert!(timeout.timed_out());
        assert_eq!(*guard, 0);
    }
}

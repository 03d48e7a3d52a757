//! The poison-recovering lock helper.
//!
//! Every pool in this crate already absorbs panics at the boundary where user
//! code runs (`catch_unwind` around model solves and judge verdicts), so a
//! panic that slips through while a `Mutex` is held must not escalate into
//! cascading `PoisonError` panics in *unrelated* threads that merely touch
//! the same lock later.  None of the protected state carries cross-field
//! invariants that a mid-update panic could break (memo maps, trace span
//! buffers, connection registries), so recovering the
//! guard is strictly better than poisoning the whole pool.
//!
//! All internal lock sites go through it instead of
//! `.lock().expect(..)`.

use std::sync::{Mutex, MutexGuard};

/// Locks `mutex`, recovering the guard if a previous holder panicked.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
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
}

//! The one background flusher (DESIGN.md §20): a named thread that
//! sleeps on a condition variable and runs its work closure once per
//! wake-up. [`MiniStore`](crate::MiniStore) and
//! [`ShardedStore`](crate::ShardedStore) differ only in the closure.
//!
//! Callers [`Flusher::wake`] *while holding the lock their closure
//! takes* (the durable lock, the sharded global lock). The flusher
//! blocks on that lock, so a wake-up cannot race a concurrent flush's
//! reset of the WAL-growth baseline; and since every flush runs under
//! that lock with the WAL covering the memstore, flush *timing* never
//! matters to crash safety.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

#[derive(Default)]
struct Signal {
    pending: bool,
    shutdown: bool,
}

/// std primitives (not `parking_lot`, whose vendored stand-in has no
/// `Condvar`): the wake-up needs a condition variable with its mutex.
type Shared = Arc<(Mutex<Signal>, Condvar)>;

/// Handle to the flusher thread; dropping it shuts the thread down and
/// joins it.
pub(crate) struct Flusher {
    shared: Shared,
    thread: Option<JoinHandle<()>>,
}

impl Flusher {
    /// Spawn the thread. `work` runs once per wake-up (wake-ups that
    /// arrive while it runs coalesce into one more run). Its failures
    /// are its own business: a flush that hits an injected crash point
    /// or real I/O trouble poisons the store for writers exactly as a
    /// foreground flush would, and a poisoned store never wakes again.
    pub(crate) fn spawn(name: &str, mut work: impl FnMut() + Send + 'static) -> Self {
        let shared = Shared::default();
        let theirs = shared.clone();
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                let (signal, cv) = &*theirs;
                loop {
                    {
                        let mut g = signal.lock().expect("flusher signal lock");
                        while !g.pending && !g.shutdown {
                            g = cv.wait(g).expect("flusher signal wait");
                        }
                        if g.shutdown {
                            return;
                        }
                        g.pending = false;
                    }
                    work();
                }
            })
            .expect("spawn background flusher");
        Flusher {
            shared,
            thread: Some(thread),
        }
    }

    /// Ask for one more run of the work closure.
    pub(crate) fn wake(&self) {
        let (signal, cv) = &*self.shared;
        signal.lock().expect("flusher signal lock").pending = true;
        cv.notify_one();
    }
}

impl Drop for Flusher {
    fn drop(&mut self) {
        let (signal, cv) = &*self.shared;
        if let Ok(mut g) = signal.lock() {
            g.shutdown = true;
        }
        cv.notify_one();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

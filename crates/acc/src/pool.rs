//! The persistent gang pool — the one fork/join primitive behind every
//! parallel entry point of [`crate::Context`].
//!
//! An OpenACC device keeps its gangs resident across kernel launches; the
//! pool is the host analogue. It owns parked helper threads (spawned
//! lazily, one per gang beyond the first) and the launching thread runs
//! gang 0 itself, so a fork/join costs a wake-up per helper instead of a
//! thread spawn. Gang → work mapping is the caller's fixed partition, so
//! *which* thread runs a gang never shows in the results.
//!
//! Only one fork runs on a pool at a time. A launch that finds the pool
//! busy — a launch nested inside a gang body, or one from a concurrent
//! clone of the context on another thread — runs its gangs inline, in gang
//! order, on the calling thread. Results are bitwise identical either way.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, TryLockError};
use std::thread::{self, JoinHandle, Thread};

/// A gang body: called once per gang index of a fork.
type GangBody<'a> = dyn Fn(usize) + Sync + 'a;

/// One helper's share of a fork.
struct Job {
    /// The forker's gang body, its borrow lifetime erased (see the SAFETY
    /// argument in [`GangPool::run`]).
    body: *const GangBody<'static>,
    /// The forking thread, unparked by the last helper to finish.
    forker: Thread,
}

// SAFETY: `body` points at a `Sync` closure, so calling it from the helper
// thread is sound, and `GangPool::run` keeps the pointee alive until the
// helper has reported completion. `forker` is `Send`.
unsafe impl Send for Job {}

/// State the forker shares with every helper.
struct Shared {
    /// Helpers still running a gang of the current fork.
    pending: AtomicUsize,
    /// The first panic a helper caught during the current fork.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// One helper's mailbox.
struct Slot {
    job: Mutex<Option<Job>>,
    /// Set (Release) after `job` is filled; cleared by the helper.
    posted: AtomicBool,
    shutdown: AtomicBool,
}

struct Helper {
    slot: Arc<Slot>,
    handle: JoinHandle<()>,
}

/// Parked helper threads plus the fork/join protocol.
pub(crate) struct GangPool {
    shared: Arc<Shared>,
    /// Spawned helpers, helper `h` running gang `h + 1`. Holding this lock
    /// is what makes a thread the pool's one forker.
    helpers: Mutex<Vec<Helper>>,
}

impl GangPool {
    /// An empty pool; helpers are spawned by the first fork that needs them.
    pub(crate) fn new() -> Self {
        GangPool {
            shared: Arc::new(Shared {
                pending: AtomicUsize::new(0),
                panic: Mutex::new(None),
            }),
            helpers: Mutex::new(Vec::new()),
        }
    }

    /// Run `body(g)` once for every gang `g` in `0..gangs` and return when
    /// all have finished: gang 0 on the calling thread, gang `g ≥ 1` on
    /// helper `g − 1`, or every gang inline in gang order when the pool is
    /// already forking. A panic in any gang is re-raised here, after every
    /// helper is done with `body`.
    pub(crate) fn run(&self, gangs: usize, body: &GangBody<'_>) {
        if gangs <= 1 {
            (0..gangs).for_each(body);
            return;
        }
        let mut helpers = match self.helpers.try_lock() {
            Ok(h) => h,
            // Only a failed helper spawn panics under the lock, and that
            // leaves the helper list valid.
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                (0..gangs).for_each(body);
                return;
            }
        };
        while helpers.len() < gangs - 1 {
            let gang = helpers.len() + 1;
            helpers.push(self.spawn_helper(gang));
        }

        // SAFETY: only the borrow lifetime is erased; the pointer is the
        // same fat pointer. Each helper calls it at most once, and only
        // between taking its posted job and decrementing `pending`. This
        // function returns (or unwinds) only after `pending` has reached
        // zero — gang 0 runs under `catch_unwind`, so even a panicking
        // body cannot skip the join below — so no helper uses the pointer
        // after `body`'s borrow ends.
        let erased: *const GangBody<'static> =
            unsafe { std::mem::transmute::<&GangBody<'_>, &'static GangBody<'static>>(body) };
        self.shared.pending.store(gangs - 1, Ordering::Relaxed);
        let forker = thread::current();
        for helper in &helpers[..gangs - 1] {
            *lock(&helper.slot.job) = Some(Job {
                body: erased,
                forker: forker.clone(),
            });
            // Release: publishes the job and the `pending` store above.
            helper.slot.posted.store(true, Ordering::Release);
            helper.handle.thread().unpark();
        }
        let mine = catch_unwind(AssertUnwindSafe(|| body(0)));
        // Acquire: pairs with each helper's AcqRel decrement, so their
        // writes (and any stored panic) are visible once this returns.
        wait_until(|| self.shared.pending.load(Ordering::Acquire) == 0);
        let theirs = lock(&self.shared.panic).take();
        drop(helpers);
        if let Err(p) = mine {
            resume_unwind(p);
        }
        if let Some(p) = theirs {
            resume_unwind(p);
        }
    }

    fn spawn_helper(&self, gang: usize) -> Helper {
        let slot = Arc::new(Slot {
            job: Mutex::new(None),
            posted: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let (s, shared) = (Arc::clone(&slot), Arc::clone(&self.shared));
        let handle = thread::Builder::new()
            .name(format!("mfc-gang-{gang}"))
            .spawn(move || helper_loop(gang, &s, &shared))
            .expect("spawning a gang helper thread");
        Helper { slot, handle }
    }
}

impl Drop for GangPool {
    /// Joins every helper: runs when the last clone of the owning context
    /// drops, which cannot happen during a fork (the forker borrows it).
    fn drop(&mut self) {
        let helpers = std::mem::take(
            self.helpers
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for h in &helpers {
            h.slot.shutdown.store(true, Ordering::Release);
            h.handle.thread().unpark();
        }
        for h in helpers {
            // A helper catches every gang panic, so join cannot fail; and
            // `Drop` must not panic regardless.
            let _ = h.handle.join();
        }
    }
}

/// The life of the helper that runs gang `gang` of every fork.
fn helper_loop(gang: usize, slot: &Slot, shared: &Shared) {
    loop {
        wait_until(|| slot.posted.load(Ordering::Acquire) || slot.shutdown.load(Ordering::Acquire));
        if !slot.posted.swap(false, Ordering::Acquire) {
            return; // shutdown with no job pending
        }
        let job = lock(&slot.job).take().expect("a posted slot holds a job");
        // SAFETY: the forker is blocked in `GangPool::run` until this
        // helper decrements `pending` below, so `*job.body` is still
        // borrowed there and alive.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.body)(gang) }));
        if let Err(p) = result {
            lock(&shared.panic).get_or_insert(p);
        }
        // The body must not be touched past this point.
        if shared.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            job.forker.unpark();
        }
    }
}

/// Park until `ready` holds. Callers unpark the waiter after making
/// `ready` true, and park tokens persist, so no wake-up is lost; spurious
/// wake-ups just re-check.
fn wait_until(ready: impl Fn() -> bool) {
    while !ready() {
        thread::park();
    }
}

/// Lock a mutex whose data stays valid even if a holder panicked (every
/// critical section here is a single store or take).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

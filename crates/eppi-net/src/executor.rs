//! The party executor: scoped jobs on process-wide parked threads.
//!
//! A wall-clock protocol run needs one thread per party. Starting and
//! joining an OS thread costs tens of microseconds — more than a narrow
//! run's gates — so construction code never starts threads itself: it
//! hands jobs to [`scope`], whose threads park between jobs and are
//! shared by every run in the process.
//!
//! * [`Scope::spawn`] gives the job to an idle thread, or starts a new
//!   one when none is idle. So every job has a thread of its own for as
//!   long as it runs, and a party that blocks on its peers can never
//!   starve them. The pool grows to the peak number of jobs that ran at
//!   once (64 for a 64-provider SecSumShare) and has no size setting.
//! * [`reserve`] starts the threads a run will need at once ahead of
//!   its spawns (`run_parties` reserves one per party), so the first
//!   run of a shape starts them in one go and a warm run starts none.
//! * Threads never exit; [`threads_started`] counts every thread the
//!   pool has started, so a warm run that starts none is checkable.
//! * As with `std::thread::scope`, a job may borrow the caller's stack:
//!   [`scope`] returns only after every job it spawned has finished,
//!   also when its closure unwinds.
//! * A job runs under `catch_unwind`: its panic reaches
//!   [`Handle::join`] as `Err(payload)` and its thread survives. A
//!   panicked job nobody joined makes [`scope`] panic once every job
//!   has finished.
//!
//! The call shape is crossbeam's: `scope(|s| …)`, `s.spawn(|s| …)`
//! (the job receives the scope, so it can spawn siblings) and
//! `handle.join()`.

use std::fmt;
use std::io;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// A job as a pooled thread runs it: the spawned closure, its result
/// stored and everything it borrowed dropped by the time it returns the
/// scope to notify.
type Job = Box<dyn FnOnce() -> Arc<ScopeState> + Send + 'static>;

/// Parked threads waiting for a job, most recently parked last (so the
/// warmest thread is reused first).
static IDLE: Mutex<Vec<Arc<Worker>>> = Mutex::new(Vec::new());
static STARTED: AtomicU64 = AtomicU64::new(0);

/// The number of threads the pool has started in this process. Threads
/// never exit, so this is also the pool's size.
pub fn threads_started() -> u64 {
    STARTED.load(Ordering::Relaxed)
}

/// Nothing panics while holding the pool's locks, but a poisoned lock
/// must not take the pool down with it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One pooled thread's mailbox.
struct Worker {
    job: Mutex<Option<Job>>,
    ready: Condvar,
}

/// Starts a pooled thread whose mailbox holds `job` (`None`: the
/// caller parks it on [`IDLE`]).
fn start(job: Option<Job>) -> io::Result<Arc<Worker>> {
    let worker = Arc::new(Worker {
        job: Mutex::new(job),
        ready: Condvar::new(),
    });
    let mine = Arc::clone(&worker);
    thread::Builder::new()
        .name("eppi-party".into())
        .spawn(move || serve(mine))?;
    STARTED.fetch_add(1, Ordering::Relaxed);
    Ok(worker)
}

/// Runs `job` on an idle thread, or on a new one when none is idle.
fn submit(job: Job) -> io::Result<()> {
    let idle = lock(&IDLE).pop();
    match idle {
        Some(worker) => {
            *lock(&worker.job) = Some(job);
            worker.ready.notify_one();
        }
        None => {
            start(Some(job))?;
        }
    }
    Ok(())
}

/// Starts threads until at least `jobs` are parked, so that the next
/// `jobs` spawns find a thread waiting. A run whose parties may all
/// block before any returns needs that many threads at once; reserving
/// them up front makes the first run start them in one go and every
/// later run start none (unless other runs hold them at the time).
///
/// # Panics
///
/// Panics if the OS refuses to start a thread.
pub fn reserve(jobs: usize) {
    let mut idle = lock(&IDLE);
    while idle.len() < jobs {
        let worker = start(None).unwrap_or_else(|err| panic!("cannot start a party thread: {err}"));
        idle.push(worker);
    }
}

/// A pooled thread's life: wait for a job, run it, park, repeat.
fn serve(worker: Arc<Worker>) {
    loop {
        let job = {
            let mut slot = lock(&worker.job);
            loop {
                if let Some(job) = slot.take() {
                    break job;
                }
                slot = worker
                    .ready
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let scope = job();
        // Parked before the scope hears that the job finished, so a run
        // that starts after `scope` returned finds this thread idle.
        lock(&IDLE).push(Arc::clone(&worker));
        scope.finish_one();
    }
}

/// What a scope's jobs share with it.
#[derive(Default)]
struct ScopeState {
    /// Jobs spawned and not yet finished.
    running: Mutex<usize>,
    all_done: Condvar,
    /// A job panicked (or its unjoined result panicked on drop) and no
    /// one joined it.
    unjoined_panic: AtomicBool,
}

impl ScopeState {
    fn finish_one(&self) {
        let mut running = lock(&self.running);
        *running -= 1;
        if *running == 0 {
            self.all_done.notify_all();
        }
    }

    fn wait_all(&self) {
        let mut running = lock(&self.running);
        while *running > 0 {
            running = self
                .all_done
                .wait(running)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Waits for every job of a scope when dropped — on return and on
/// unwind alike.
struct WaitAll<'a>(&'a ScopeState);

impl Drop for WaitAll<'_> {
    fn drop(&mut self) {
        self.0.wait_all();
    }
}

/// A handle for spawning jobs tied to the enclosing [`scope`] call.
pub struct Scope<'scope, 'env: 'scope> {
    state: Arc<ScopeState>,
    // Invariant in both lifetimes, as `std::thread::Scope` is.
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

impl fmt::Debug for Scope<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scope")
            .field("running", &*lock(&self.state.running))
            .finish()
    }
}

/// A job's result slot, shared by the job and its [`Handle`].
struct Packet<T> {
    result: Mutex<Option<thread::Result<T>>>,
    done: Condvar,
    scope: Arc<ScopeState>,
}

impl<T> Drop for Packet<T> {
    fn drop(&mut self) {
        // A result still here was never joined. Dropping it may run
        // user code, so it happens under `catch_unwind` too.
        let unjoined = self
            .result
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let panicked = matches!(unjoined, Some(Err(_)));
        if catch_unwind(AssertUnwindSafe(|| drop(unjoined))).is_err() || panicked {
            self.scope.unjoined_panic.store(true, Ordering::SeqCst);
        }
    }
}

/// Owned handle to a job spawned in a [`scope`].
pub struct Handle<'scope, T> {
    packet: Arc<Packet<T>>,
    scope: PhantomData<&'scope ()>,
}

impl<T> fmt::Debug for Handle<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Handle")
            .field("finished", &lock(&self.packet.result).is_some())
            .finish()
    }
}

impl<T> Handle<'_, T> {
    /// Waits for the job and returns its result, or its panic payload
    /// if it panicked.
    ///
    /// # Errors
    ///
    /// The payload of the job's panic.
    pub fn join(self) -> thread::Result<T> {
        let mut result = lock(&self.packet.result);
        loop {
            if let Some(result) = result.take() {
                return result;
            }
            result = self
                .packet
                .done
                .wait(result)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Runs `f` on a pooled thread; `f` receives this scope, so it can
    /// spawn siblings.
    ///
    /// # Panics
    ///
    /// Panics if no thread is idle and the OS refuses to start one.
    pub fn spawn<F, T>(&'scope self, f: F) -> Handle<'scope, T>
    where
        F: FnOnce(&'scope Scope<'scope, 'env>) -> T + Send + 'scope,
        T: Send + 'scope,
    {
        let packet = Arc::new(Packet {
            result: Mutex::new(None),
            done: Condvar::new(),
            scope: Arc::clone(&self.state),
        });
        let job = {
            let packet = Arc::clone(&packet);
            let state = Arc::clone(&self.state);
            move || {
                let result = catch_unwind(AssertUnwindSafe(|| f(self)));
                *lock(&packet.result) = Some(result);
                packet.done.notify_all();
                // The job's last borrow of 'scope data: if the handle is
                // gone, this drops the unjoined result here.
                drop(packet);
                state
            }
        };
        let job: Box<dyn FnOnce() -> Arc<ScopeState> + Send + 'scope> = Box::new(job);
        // SAFETY: only the lifetime bound changes ('scope → 'static);
        // the layout of a boxed trait object does not depend on it. The
        // job may reference 'scope data, which stays valid for as long
        // as the job can touch it, because:
        // * `scope` does not return before `running` is back to zero,
        //   and its `WaitAll` guard waits on unwind too;
        // * `running` counts this job from here until `serve` calls
        //   `finish_one`, which it does only after the job returned,
        //   i.e. after `f` was consumed, its result stored and the job's
        //   `Packet` reference dropped (the returned `ScopeState` holds
        //   no borrow);
        // * the job never unwinds out of `serve`: `f` runs under
        //   `catch_unwind`, and `Packet::drop` catches a panicking drop
        //   of an unjoined result;
        // * if no thread can take the job, it is dropped unrun inside
        //   `submit`, and `running` is decremented before `spawn` panics.
        let job: Job = unsafe { std::mem::transmute(job) };
        *lock(&self.state.running) += 1;
        if let Err(err) = submit(job) {
            self.state.finish_one();
            panic!("cannot start a party thread: {err}");
        }
        Handle {
            packet,
            scope: PhantomData,
        }
    }
}

/// Runs `f` with a scope for spawning jobs on the pool, and returns its
/// result once every spawned job has finished.
///
/// # Panics
///
/// Re-raises a panic of `f` (after every job finished), and panics if
/// a job panicked and was never joined.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
{
    let scope = Scope {
        state: Arc::new(ScopeState::default()),
        scope: PhantomData,
        env: PhantomData,
    };
    let result = {
        let _wait = WaitAll(&scope.state);
        f(&scope)
    };
    assert!(
        !scope.state.unjoined_panic.load(Ordering::SeqCst),
        "a scoped job panicked and was never joined"
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::time::Duration;

    fn panic_message(payload: &(dyn Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload")
    }

    #[test]
    fn spawn_and_join_results_in_order() {
        let out = scope(|s| {
            let joins: Vec<_> = (0..4u64).map(|i| s.spawn(move |_| i * i)).collect();
            joins
                .into_iter()
                .map(|j| j.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert_eq!(out, vec![0, 1, 4, 9]);
    }

    #[test]
    fn children_can_spawn_siblings() {
        let counter = AtomicU64::new(0);
        scope(|s| {
            s.spawn(|s2| {
                counter.fetch_add(1, Ordering::Relaxed);
                s2.spawn(|_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                })
                .join()
                .unwrap();
            })
            .join()
            .unwrap();
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn jobs_borrow_and_mutate_stack_data() {
        let words = [1u64, 2, 3, 4];
        let mut sums = [0u64; 2];
        scope(|s| {
            for (half, sum) in words.chunks(2).zip(sums.iter_mut()) {
                s.spawn(move |_| *sum = half.iter().sum());
            }
        });
        assert_eq!(sums, [3, 7]);
    }

    #[test]
    fn a_panic_surfaces_at_join_and_the_pool_keeps_working() {
        let payload = scope(|s| {
            s.spawn(|_| -> u64 { panic!("job panic") })
                .join()
                .expect_err("the job panicked")
        });
        assert_eq!(panic_message(&*payload), "job panic");
        // The panicked job's thread parked again; more jobs run fine.
        let out = scope(|s| {
            let joins: Vec<_> = (0..3u64).map(|i| s.spawn(move |_| i + 1)).collect();
            joins.into_iter().map(|j| j.join().unwrap()).sum::<u64>()
        });
        assert_eq!(out, 6);
    }

    #[test]
    fn an_unjoined_panic_fails_the_scope_after_every_job_finished() {
        let finished = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|_| panic!("nobody joins me"));
                s.spawn(|_| {
                    std::thread::sleep(Duration::from_millis(20));
                    finished.fetch_add(1, Ordering::Relaxed);
                });
            })
        }));
        let payload = outcome.expect_err("the scope re-raises the unjoined panic");
        assert_eq!(
            panic_message(&*payload),
            "a scoped job panicked and was never joined"
        );
        assert_eq!(finished.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn scope_waits_for_unjoined_jobs_also_when_its_closure_panics() {
        let finished = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|_| {
                    std::thread::sleep(Duration::from_millis(50));
                    finished.fetch_add(1, Ordering::Relaxed);
                });
                panic!("scope body panic");
            })
        }));
        assert!(outcome.is_err());
        // The job finished before the unwinding left `scope`.
        assert_eq!(finished.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn scope_does_not_return_while_a_job_runs() {
        let finished = AtomicUsize::new(0);
        scope(|s| {
            s.spawn(|_| {
                std::thread::sleep(Duration::from_millis(50));
                finished.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(finished.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn blocked_jobs_never_starve_each_other() {
        // Every job waits for all the others: this completes only if
        // each one got a thread of its own.
        let barrier = Barrier::new(8);
        let leaders = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    if barrier.wait().is_leader() {
                        leaders.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), 1);
    }
}

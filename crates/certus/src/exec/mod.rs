//! Process-wide work-stealing worker pool for certus.
//!
//! The engine's exchanges used to spawn one `std::thread::scope` thread per
//! partition per exchange, throttled by a racy in-flight counter. This module
//! replaces that with a fixed set of worker threads and a shared
//! work-stealing deque structure:
//!
//! * a global **injector** queue (`Mutex<VecDeque>` + `Condvar`) that any
//!   thread — engine code, tests, a future server — submits tasks to;
//! * one **local deque** per worker; a worker pushes tasks it spawns onto
//!   its own deque and pops them LIFO (cache-warm morsels first), while
//!   other workers steal FIFO from the opposite end.
//!
//! Tasks are grouped into [`Scope`]s so borrowed data works like
//! `std::thread::scope`: [`Pool::scope`] does not return until every task
//! spawned in it has finished. Crucially the waiting thread **helps**: while
//! its scope is unfinished it executes queued tasks itself (its own deque
//! first, then the injector, then steals). Helping makes nested scopes —
//! an exchange inside a union arm inside a concurrent query — deadlock-free
//! on a bounded pool, and lets any number of concurrent queries share one
//! pool without oversubscribing the machine.
//!
//! The pool never executes more than [`Pool::width`] tasks on its own
//! worker threads at once; there is no spawn-per-partition thread churn and
//! no in-flight accounting to race on.
//!
//! `global` returns the lazily-created process pool sized from
//! `CERTUS_THREADS` (falling back to the machine's available parallelism).
//! Private pools via [`Pool::new`] are for tests and embedders that want an
//! isolated width.

pub mod cancel {
    pub use crate::cancel::*;
}

pub use cancel::CancelToken;

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::obs::metrics::registry;
use crate::obs::names;
use crate::obs::Counter;

/// A type-erased unit of work. Lifetimes are erased by [`Scope::spawn`];
/// the scope's completion barrier is what makes that sound.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Injector state guarded by the pool's main mutex.
struct Injector {
    queue: VecDeque<Job>,
    shutdown: bool,
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    injector: Mutex<Injector>,
    /// Signalled when work lands in the injector or a local deque, and on
    /// shutdown.
    signal: Condvar,
    /// One deque per worker; owners push/pop the back, thieves pop the front.
    locals: Vec<Mutex<VecDeque<Job>>>,
    /// Identifies this pool in the thread-local worker registration.
    pool_id: usize,
    /// Worker threads currently executing a task (excludes helping callers).
    busy: AtomicUsize,
    /// High-water mark of `busy`; lets tests assert the width bound is real.
    peak_busy: AtomicUsize,
    /// Tasks executed, by workers and helpers alike.
    executed: AtomicU64,
    /// Tasks taken from another worker's deque.
    stolen: AtomicU64,
}

/// A bounded work-stealing worker pool. See the module docs for the design.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("width", &self.width()).finish_non_exhaustive()
    }
}

thread_local! {
    /// `(pool_id, worker_index)` when the current thread is a pool worker.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Monotonic pool ids so worker registration never crosses pools.
static POOL_IDS: AtomicUsize = AtomicUsize::new(1);

fn obs_counter(cell: &'static OnceLock<Arc<Counter>>, name: &'static str) -> &'static Counter {
    cell.get_or_init(|| registry().counter(name))
}

impl Pool {
    /// Create a private pool with exactly `width` worker threads.
    ///
    /// Most callers want `global`; private pools exist for tests that
    /// need an isolated width and embedders that partition the machine.
    pub fn new(width: usize) -> Self {
        let width = width.max(1);
        let shared = Arc::new(Shared {
            injector: Mutex::new(Injector { queue: VecDeque::new(), shutdown: false }),
            signal: Condvar::new(),
            locals: (0..width).map(|_| Mutex::new(VecDeque::new())).collect(),
            pool_id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            busy: AtomicUsize::new(0),
            peak_busy: AtomicUsize::new(0),
            executed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
        });
        let workers = (0..width)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("certus-exec-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("spawn certus-exec worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// Number of worker threads — the hard bound on pool-executed
    /// concurrency.
    pub fn width(&self) -> usize {
        self.shared.locals.len()
    }

    /// High-water mark of worker threads simultaneously executing a task.
    /// Never exceeds [`Pool::width`]; tests assert exactly that.
    pub fn peak_busy_workers(&self) -> usize {
        self.shared.peak_busy.load(Ordering::Relaxed)
    }

    /// Total tasks executed (by workers and helping callers).
    pub fn tasks_executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Tasks stolen from another worker's deque.
    pub fn tasks_stolen(&self) -> u64 {
        self.shared.stolen.load(Ordering::Relaxed)
    }

    /// Run `f` with a [`Scope`] that can spawn tasks borrowing from the
    /// caller's environment. Returns once `f` and every spawned task have
    /// finished; while waiting, the calling thread executes queued tasks
    /// (its own, other scopes', other queries') instead of blocking idle.
    ///
    /// Panics from `f` or any spawned task are captured and resumed here
    /// after all tasks have drained, mirroring `std::thread::scope`.
    pub fn scope<'env, F, R>(&'env self, f: F) -> R
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        let state = Arc::new(ScopeState {
            pending: AtomicUsize::new(0),
            lock: Mutex::new(()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });
        let scope = Scope { pool: self, state: &state, scope: PhantomData, env: PhantomData };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // The barrier below is what makes the lifetime erasure in `spawn`
        // sound: no task outlives this call, so borrows of `'env` data are
        // live for as long as any task can run.
        self.help_while_waiting(&state);
        if let Some(payload) = state.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Push a type-erased job onto this pool's queues: the current worker's
    /// own deque when called from a worker thread, the injector otherwise.
    fn push(&self, job: Job) {
        let me = WORKER.with(|w| w.get());
        if let Some((pool_id, idx)) = me {
            if pool_id == self.shared.pool_id {
                self.shared.locals[idx].lock().unwrap().push_back(job);
                // Wake a sleeper to come steal. A racing sleeper that misses
                // this notification is benign: the owning worker drains its
                // own deque before it ever sleeps.
                self.shared.signal.notify_one();
                return;
            }
        }
        let mut inj = self.shared.injector.lock().unwrap();
        inj.queue.push_back(job);
        drop(inj);
        self.shared.signal.notify_one();
    }

    /// Find a runnable job: own deque (LIFO) when on a worker thread, then
    /// the injector, then steal (FIFO) from the other workers.
    fn find_job(&self) -> Option<Job> {
        let own = match WORKER.with(|w| w.get()) {
            Some((pool_id, idx)) if pool_id == self.shared.pool_id => Some(idx),
            _ => None,
        };
        scan(&self.shared, own)
    }

    /// Execute queued tasks until `state.pending` drops to zero.
    fn help_while_waiting(&self, state: &ScopeState) {
        while state.pending.load(Ordering::Acquire) != 0 {
            if let Some(job) = self.find_job() {
                run_job(&self.shared, job);
                continue;
            }
            let guard = state.lock.lock().unwrap();
            if state.pending.load(Ordering::Acquire) == 0 {
                break;
            }
            // Re-scan the queues periodically: a task of ours may be spawned
            // by a sibling after the scan above came up empty.
            let _ = state.done.wait_timeout(guard, Duration::from_micros(200)).unwrap();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.injector.lock().unwrap().shutdown = true;
        self.shared.signal.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Completion barrier shared between a [`Scope`] and its spawned jobs.
struct ScopeState {
    pending: AtomicUsize,
    lock: Mutex<()>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send + 'static>>>,
}

/// Spawns tasks tied to one [`Pool::scope`] call; mirrors
/// `std::thread::Scope`.
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope Pool,
    state: &'scope Arc<ScopeState>,
    scope: PhantomData<&'scope mut &'scope ()>,
    env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Submit `f` to the pool. It may run on any worker thread or on a
    /// thread helping while it waits; it is guaranteed to have finished by
    /// the time the enclosing [`Pool::scope`] returns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(self.state);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                let mut slot = state.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            if state.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last task out signals the scope owner. Taking the lock
                // orders this notify after the owner's pending re-check, so
                // the owner cannot sleep through it.
                let _guard = state.lock.lock().unwrap();
                state.done.notify_all();
            }
        });
        // SAFETY: `Pool::scope` blocks until `pending` reaches zero, so the
        // job — and everything it borrows for `'scope`/`'env` — is dropped
        // before those lifetimes end. This is the same erasure
        // `std::thread::scope` performs internally.
        let job: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
        self.pool.push(job);
    }
}

/// Execute one job, maintaining the executed counters.
fn run_job(shared: &Shared, job: Job) {
    shared.executed.fetch_add(1, Ordering::Relaxed);
    static EXECUTED: OnceLock<Arc<Counter>> = OnceLock::new();
    obs_counter(&EXECUTED, names::EXEC_TASKS_EXECUTED).incr();
    job();
}

/// One scan over the pool's queues: `own` deque back (LIFO), injector
/// front, then every other deque's front (steal, FIFO). Exactly one lock is
/// held at a time — never two deques at once — so scanning workers cannot
/// deadlock against each other.
fn scan(shared: &Shared, own: Option<usize>) -> Option<Job> {
    if let Some(idx) = own {
        let job = shared.locals[idx].lock().unwrap().pop_back();
        if job.is_some() {
            return job;
        }
    }
    let job = shared.injector.lock().unwrap().queue.pop_front();
    if job.is_some() {
        return job;
    }
    for (idx, local) in shared.locals.iter().enumerate() {
        if own == Some(idx) {
            continue;
        }
        let job = local.lock().unwrap().pop_front();
        if job.is_some() {
            shared.stolen.fetch_add(1, Ordering::Relaxed);
            static STEALS: OnceLock<Arc<Counter>> = OnceLock::new();
            obs_counter(&STEALS, names::EXEC_TASKS_STOLEN).incr();
            return job;
        }
    }
    None
}

fn worker_loop(shared: &Shared, idx: usize) {
    WORKER.with(|w| w.set(Some((shared.pool_id, idx))));
    loop {
        if let Some(job) = scan(shared, Some(idx)) {
            let busy = shared.busy.fetch_add(1, Ordering::Relaxed) + 1;
            shared.peak_busy.fetch_max(busy, Ordering::Relaxed);
            run_job(shared, job);
            shared.busy.fetch_sub(1, Ordering::Relaxed);
            continue;
        }
        let mut inj = shared.injector.lock().unwrap();
        // The scan above saw every queue empty; shutdown can only be set
        // under this lock, so checking it here cannot miss a late task.
        if inj.shutdown {
            return;
        }
        if inj.queue.is_empty() {
            inj = shared.signal.wait(inj).unwrap();
        }
        // Wake-ups for local-deque pushes leave the injector empty on
        // purpose: drop the lock and rescan everything, stealing included.
        drop(inj);
    }
}

/// The configured thread count: `CERTUS_THREADS` when set to a positive
/// integer, otherwise the machine's available parallelism, otherwise 1. It
/// sizes the process-wide pool and [`EngineConfig::from_env`], so the two
/// always agree.
///
/// [`EngineConfig::from_env`]: crate::engine::EngineConfig::from_env
pub fn threads_from_env() -> usize {
    std::env::var("CERTUS_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// The process-wide pool every query shares. Created on first use and
/// sized once from `CERTUS_THREADS` / available parallelism; the width is
/// fixed for the life of the process.
pub(crate) fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::new(threads_from_env()))
}

//! A process-wide helping work pool for deterministic fan-out.
//!
//! Several layers want to fan independent units of work across cores —
//! sharded request synthesis in `gm-workload`, per-site phase execution in
//! `gm-core`, whole simulation runs in `gm-bench` — and they nest: a sweep
//! running on a pool worker spawns per-slot shard batches of its own.
//! [`WorkPool`] serves all of them with one set of long-lived threads and
//! one rule that makes nesting safe at **any** width (including 1): the
//! submitter of a batch *helps*.
//!
//! A batch goes in with [`WorkPool::submit`], which queues its tasks for
//! the workers and returns at once with a [`Pending`] handle; the
//! submitter is free to do other work while workers drain the queue.
//! [`Pending::join`] runs whatever is still queued on the joining thread,
//! then blocks for the tasks other threads have started, so a batch always
//! completes even if every worker is busy (or there are no workers to
//! spare at all). [`WorkPool::scatter`] is `submit(..).join()`; on a
//! single-core machine it degenerates into exact in-order inline
//! execution. A handle dropped without `join` discards the tasks no thread
//! has started and waits for the ones that have, so no task outlives its
//! handle.
//!
//! Determinism is the caller's contract, not the pool's: tasks must write
//! disjoint result slots and the caller must combine them by index, never
//! by completion order. Everything built on this pool (shard-invariant
//! synthesis, per-site phase fan-out) is byte-identical at any width for
//! that reason.
//!
//! A task panic is caught on whichever thread ran it, carried into the
//! batch, and re-raised by `join` after the whole batch has drained —
//! sibling tasks still complete and the pool survives. A dropped handle
//! discards the panic.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, OnceLock, PoisonError};

/// A unit of pool work.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// Upper bound on pool width requested via [`set_max_workers`] (0 = no
/// cap). Read once, when the global pool first starts.
static MAX_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Cap the global pool at `n` workers (`--jobs N`). Takes effect only if
/// called before anything starts the pool; later calls are ignored.
pub fn set_max_workers(n: usize) {
    MAX_WORKERS.store(n, Ordering::Relaxed);
}

struct BatchInner {
    /// Tasks not yet picked up. Workers and the helping submitter both
    /// pop the front, so queue order is start order (not completion order).
    tasks: VecDeque<Task>,
    /// Tasks not yet *finished* (queued + running).
    pending: usize,
    /// First panic payload from this batch's tasks, if any.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Batch {
    inner: Mutex<BatchInner>,
    done_cv: Condvar,
}

struct Registry {
    /// Open batches in submission order; removed by their submitter once
    /// drained. Workers scan oldest-first.
    batches: Vec<Arc<Batch>>,
}

/// The shared pool. Obtain it with [`WorkPool::global`]; dedicated pools
/// ([`WorkPool::start`]) exist for tests that need a specific width.
pub struct WorkPool {
    registry: Mutex<Registry>,
    work_cv: Condvar,
    workers: usize,
}

impl WorkPool {
    /// Start a dedicated pool with `workers` threads (tests; everything
    /// else goes through [`WorkPool::global`]).
    pub fn start(workers: usize) -> Arc<WorkPool> {
        let workers = workers.max(1);
        let pool = Arc::new(WorkPool {
            registry: Mutex::new(Registry { batches: Vec::new() }),
            work_cv: Condvar::new(),
            workers,
        });
        for me in 0..workers {
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name(format!("gm-pool-{me}"))
                .spawn(move || worker_loop(&pool))
                .expect("spawn pool worker");
        }
        pool
    }

    /// The process-wide pool, started on first use with one worker per
    /// available core, capped by [`set_max_workers`]. Workers live (parked
    /// when idle) for the rest of the process.
    pub fn global() -> &'static Arc<WorkPool> {
        static POOL: OnceLock<Arc<WorkPool>> = OnceLock::new();
        POOL.get_or_init(|| {
            let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
            let cap = MAX_WORKERS.load(Ordering::Relaxed);
            let width = if cap == 0 { cores } else { cores.min(cap) };
            WorkPool::start(width)
        })
    }

    /// Number of worker threads.
    pub fn width(&self) -> usize {
        self.workers
    }

    /// Queue `tasks` for the workers and return without running any of
    /// them. The returned handle must be joined (or dropped) to complete
    /// the batch; see [`Pending::join`].
    pub fn submit(&self, tasks: Vec<Task>) -> Pending<'_> {
        if tasks.is_empty() {
            return Pending { pool: self, batch: None };
        }
        let pending = tasks.len();
        let batch = Arc::new(Batch {
            inner: Mutex::new(BatchInner { tasks: VecDeque::from(tasks), pending, panic: None }),
            done_cv: Condvar::new(),
        });
        let mut reg = self.registry.lock().expect("pool registry");
        reg.batches.push(Arc::clone(&batch));
        self.work_cv.notify_all();
        Pending { pool: self, batch: Some(batch) }
    }

    /// Run `tasks` and block until every one has finished:
    /// `submit(tasks).join()`.
    pub fn scatter(&self, tasks: Vec<Task>) {
        self.submit(tasks).join();
    }

    /// Wait until `batch` has no task queued or running, take its panic
    /// payload and remove it from the registry. `Drop` calls this too, so
    /// it locks through poisoning ([`relock`]).
    fn retire(&self, batch: &Arc<Batch>) -> Option<Box<dyn std::any::Any + Send>> {
        let mut inner = relock(batch.inner.lock());
        while inner.pending > 0 {
            inner = relock(batch.done_cv.wait(inner));
        }
        let payload = inner.panic.take();
        drop(inner);
        relock(self.registry.lock()).batches.retain(|b| !Arc::ptr_eq(b, batch));
        payload
    }
}

/// A submitted batch still in flight ([`WorkPool::submit`]).
#[must_use = "dropping a Pending discards its unstarted tasks"]
pub struct Pending<'p> {
    pool: &'p WorkPool,
    /// `None` for an empty batch, and once joined.
    batch: Option<Arc<Batch>>,
}

impl Pending<'_> {
    /// Complete the batch: run its still-queued tasks on this thread, then
    /// wait for the ones other threads have started. Helping is what keeps
    /// nested batches from deadlocking and lets a width-1 pool whose
    /// worker is busy still finish. If any task panicked, the first panic
    /// is re-raised here after the batch has drained.
    pub fn join(mut self) {
        let Some(batch) = self.batch.take() else { return };
        loop {
            let task = batch.inner.lock().expect("batch state").tasks.pop_front();
            match task {
                Some(task) => run_task(task, &batch),
                None => break,
            }
        }
        if let Some(payload) = self.pool.retire(&batch) {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for Pending<'_> {
    /// Discard the tasks no thread has started, then wait for the running
    /// ones; a panic among them is dropped with the handle.
    fn drop(&mut self) {
        if let Some(batch) = self.batch.take() {
            let unstarted = {
                let mut inner = relock(batch.inner.lock());
                let unstarted = std::mem::take(&mut inner.tasks);
                inner.pending -= unstarted.len();
                unstarted
            };
            drop(unstarted);
            drop(self.pool.retire(&batch));
        }
    }
}

/// A guard whether or not the lock is poisoned. Tasks run outside every
/// pool lock and no critical section can panic part-way, so the state is
/// whole either way; this keeps `Drop for Pending` from panicking.
fn relock<G>(locked: LockResult<G>) -> G {
    locked.unwrap_or_else(PoisonError::into_inner)
}

fn run_task(task: Task, batch: &Batch) {
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(task));
    let mut inner = batch.inner.lock().expect("batch state");
    inner.pending -= 1;
    if let Err(payload) = outcome {
        inner.panic.get_or_insert(payload);
    }
    if inner.pending == 0 {
        batch.done_cv.notify_all();
    }
}

fn worker_loop(pool: &WorkPool) {
    loop {
        let (task, batch) = {
            let mut reg = pool.registry.lock().expect("pool registry");
            'found: loop {
                for batch in &reg.batches {
                    let mut inner = batch.inner.lock().expect("batch state");
                    if let Some(task) = inner.tasks.pop_front() {
                        let batch = Arc::clone(batch);
                        break 'found (task, batch);
                    }
                }
                reg = pool.work_cv.wait(reg).expect("pool wait");
            }
        };
        run_task(task, &batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn counting_tasks(counter: &Arc<AtomicU64>, n: u64) -> Vec<Task> {
        (0..n)
            .map(|i| {
                let c = Arc::clone(counter);
                Box::new(move || {
                    c.fetch_add(i + 1, Ordering::Relaxed);
                }) as Task
            })
            .collect()
    }

    #[test]
    fn scatter_runs_every_task_and_waits() {
        for width in [1, 2, 4] {
            let pool = WorkPool::start(width);
            let counter = Arc::new(AtomicU64::new(0));
            pool.scatter(counting_tasks(&counter, 25));
            assert_eq!(counter.load(Ordering::Relaxed), 25 * 26 / 2, "width {width}");
        }
    }

    #[test]
    fn empty_scatter_returns_immediately() {
        WorkPool::start(1).scatter(Vec::new());
    }

    #[test]
    fn nested_scatter_does_not_deadlock() {
        // Every outer task scatters an inner batch of its own; at width 1
        // only the helping-submitter rule lets this terminate.
        for width in [1, 3] {
            let pool = WorkPool::start(width);
            let counter = Arc::new(AtomicU64::new(0));
            let outer: Vec<Task> = (0..4)
                .map(|_| {
                    let pool = Arc::clone(&pool);
                    let counter = Arc::clone(&counter);
                    Box::new(move || {
                        pool.scatter(counting_tasks(&counter, 5));
                    }) as Task
                })
                .collect();
            pool.scatter(outer);
            assert_eq!(counter.load(Ordering::Relaxed), 4 * 15, "width {width}");
        }
    }

    #[test]
    fn results_combine_by_index_not_completion_order() {
        let pool = WorkPool::start(4);
        let slots: Arc<Vec<Mutex<Option<u64>>>> =
            Arc::new((0..32).map(|_| Mutex::new(None)).collect());
        let tasks: Vec<Task> = (0..32u64)
            .map(|i| {
                let slots = Arc::clone(&slots);
                Box::new(move || {
                    *slots[i as usize].lock().unwrap() = Some(i * i);
                }) as Task
            })
            .collect();
        pool.scatter(tasks);
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(slot.lock().unwrap().unwrap(), (i * i) as u64);
        }
    }

    #[test]
    fn task_panic_surfaces_on_submitter_after_batch_drains() {
        let pool = WorkPool::start(2);
        let survivors = Arc::new(AtomicU64::new(0));
        let mut tasks: Vec<Task> = vec![Box::new(|| panic!("boom in task"))];
        for _ in 0..4 {
            let s = Arc::clone(&survivors);
            tasks.push(Box::new(move || {
                s.fetch_add(1, Ordering::Relaxed);
            }));
        }
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| pool.scatter(tasks)))
            .expect_err("panic must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom in task");
        assert_eq!(survivors.load(Ordering::Relaxed), 4, "siblings still ran");
        // The pool survives the panic and accepts new work.
        let after = Arc::new(AtomicU64::new(0));
        pool.scatter(counting_tasks(&after, 1));
        assert_eq!(after.load(Ordering::Relaxed), 1);
    }

    /// Occupy the only worker of a width-1 pool: returns the blocking
    /// batch's handle and the sender that releases it, once the worker has
    /// started the blocking task.
    fn block_the_worker(pool: &WorkPool) -> (Pending<'_>, std::sync::mpsc::Sender<()>) {
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let blocker = pool.submit(vec![Box::new(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })]);
        started_rx.recv().unwrap();
        (blocker, release_tx)
    }

    fn open_batches(pool: &WorkPool) -> usize {
        pool.registry.lock().unwrap().batches.len()
    }

    #[test]
    fn join_runs_queued_tasks_on_the_joining_thread_when_the_worker_is_busy() {
        let pool = WorkPool::start(1);
        let (blocker, release) = block_the_worker(&pool);
        let me = std::thread::current().id();
        let ran_on: Arc<Mutex<Vec<std::thread::ThreadId>>> = Arc::default();
        let tasks: Vec<Task> = (0..6)
            .map(|_| {
                let ran_on = Arc::clone(&ran_on);
                Box::new(move || ran_on.lock().unwrap().push(std::thread::current().id())) as Task
            })
            .collect();
        let pending = pool.submit(tasks);
        assert!(ran_on.lock().unwrap().is_empty(), "submit runs nothing");
        pending.join();
        assert_eq!(*ran_on.lock().unwrap(), vec![me; 6], "the joiner ran every task");
        release.send(()).unwrap();
        blocker.join();
        assert_eq!(open_batches(&pool), 0);
    }

    #[test]
    fn dropping_a_pending_waits_for_its_running_tasks_and_unregisters() {
        let pool = WorkPool::start(1);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let finished = Arc::new(AtomicU64::new(0));
        let mut tasks: Vec<Task> = Vec::new();
        {
            let finished = Arc::clone(&finished);
            tasks.push(Box::new(move || {
                started_tx.send(()).unwrap();
                // Still running when the handle is dropped, unless the
                // drop waits for it.
                std::thread::sleep(std::time::Duration::from_millis(50));
                finished.fetch_add(1, Ordering::SeqCst);
            }));
        }
        tasks.extend(counting_tasks(&Arc::new(AtomicU64::new(0)), 3));
        let pending = pool.submit(tasks);
        started_rx.recv().unwrap();
        drop(pending);
        assert_eq!(finished.load(Ordering::SeqCst), 1, "the running task finished first");
        assert_eq!(open_batches(&pool), 0, "the registry is empty");
        let after = Arc::new(AtomicU64::new(0));
        pool.scatter(counting_tasks(&after, 4));
        assert_eq!(after.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn submitted_panic_surfaces_at_join_not_at_submit() {
        let pool = WorkPool::start(1);
        let (blocker, release) = block_the_worker(&pool);
        let survivors = Arc::new(AtomicU64::new(0));
        let mut tasks = counting_tasks(&survivors, 2);
        tasks.insert(1, Box::new(|| panic!("boom in submitted task")));
        let pending = pool.submit(tasks);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| pending.join()))
            .expect_err("panic must surface at join");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom in submitted task");
        assert_eq!(survivors.load(Ordering::Relaxed), 3, "siblings still ran");
        release.send(()).unwrap();
        blocker.join();
        let after = Arc::new(AtomicU64::new(0));
        pool.scatter(counting_tasks(&after, 2));
        assert_eq!(after.load(Ordering::Relaxed), 3, "the pool accepts new work");
        assert_eq!(open_batches(&pool), 0);
    }
}

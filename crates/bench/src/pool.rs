//! Sweep-level job submission over the shared [`gm_sim::WorkPool`].
//!
//! Historically each sweep spun up its own `std::thread::scope`, ran to a
//! barrier and tore the threads down again; a first-generation `JobPool`
//! replaced that with dedicated sweep workers. Now that the simulation
//! kernel itself fans work out (sharded request synthesis), sweeps and
//! kernel shards must share **one** set of threads
//! — otherwise a machine-wide sweep and the shards it spawns would
//! oversubscribe every core. [`JobPool`] is therefore a thin facade over
//! the process-wide [`gm_sim::WorkPool`]: it contributes the one thing the
//! generic pool does not know about — a long-lived per-thread
//! [`SlotScratch`] — and delegates scheduling, batch completion and panic
//! propagation.
//!
//! Nesting is safe by the helping-submitter rule of the underlying pool: a
//! sweep job that synthesises a slot submits an inner batch of shard tasks
//! (one slot early, see `Workload::begin_slot_batch`) and helps drain it
//! when it joins. The inner shard tasks never touch the
//! thread-local scratch (it is borrowed only for the duration of each
//! outer job's closure body — by the time a nested batch is submitted the
//! job owns its simulation's scratch through other means), so the
//! `RefCell` borrow is never re-entered.

use greenmatch::SlotScratch;
use std::cell::RefCell;
use std::panic::AssertUnwindSafe;

pub use gm_sim::pool::set_max_workers;

/// A unit of sweep work: runs with the worker's long-lived scratch.
pub type Job = Box<dyn FnOnce(&mut SlotScratch) + Send + 'static>;

thread_local! {
    /// One simulation scratch per pool thread (and per submitting thread —
    /// the helping submitter runs jobs inline too), allocated on first use
    /// and reused for the life of the thread.
    static SCRATCH: RefCell<SlotScratch> = RefCell::new(SlotScratch::new());
}

/// Facade over the global [`gm_sim::WorkPool`] that supplies each job a
/// long-lived per-thread [`SlotScratch`]. Obtain it with
/// [`JobPool::global`].
pub struct JobPool(());

static GLOBAL: JobPool = JobPool(());

impl JobPool {
    /// The process-wide pool (see [`gm_sim::WorkPool::global`]; cap the
    /// width with [`set_max_workers`] before first use).
    pub fn global() -> &'static JobPool {
        &GLOBAL
    }

    /// Number of worker threads.
    pub fn width(&self) -> usize {
        gm_sim::WorkPool::global().width()
    }

    /// Submit `jobs` and block until every one has finished. The
    /// submitting thread helps drain the batch; if any job panicked, the
    /// first panic is re-raised here after the whole batch has drained (so
    /// sibling runs still complete and the pool survives).
    pub fn run_batch(&self, jobs: Vec<Job>) {
        let tasks: Vec<gm_sim::pool::Task> = jobs
            .into_iter()
            .map(|job| {
                Box::new(move || {
                    SCRATCH.with(|scratch| {
                        let mut scratch = scratch.borrow_mut();
                        // catch_unwind inside the borrow so a panicking job
                        // cannot poison the thread-local for its successors
                        // on this worker; the pool re-raises it batch-wide.
                        if let Err(payload) =
                            std::panic::catch_unwind(AssertUnwindSafe(|| job(&mut scratch)))
                        {
                            drop(scratch);
                            std::panic::resume_unwind(payload);
                        }
                    });
                }) as gm_sim::pool::Task
            })
            .collect();
        gm_sim::WorkPool::global().scatter(tasks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn batch_runs_every_job_and_waits() {
        let counter = Arc::new(AtomicU64::new(0));
        let jobs: Vec<Job> = (0..25)
            .map(|i| {
                let c = Arc::clone(&counter);
                Box::new(move |_: &mut SlotScratch| {
                    c.fetch_add(i + 1, Ordering::Relaxed);
                }) as Job
            })
            .collect();
        JobPool::global().run_batch(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 25 * 26 / 2);
    }

    #[test]
    fn sequential_batches_share_workers() {
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..3 {
            let c = Arc::clone(&counter);
            JobPool::global().run_batch(vec![Box::new(move |_: &mut SlotScratch| {
                c.fetch_add(1, Ordering::Relaxed);
            }) as Job]);
        }
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn empty_batch_returns_immediately() {
        JobPool::global().run_batch(Vec::new());
    }

    #[test]
    fn width_is_positive() {
        assert!(JobPool::global().width() >= 1);
    }

    #[test]
    fn job_panic_surfaces_on_submitter_after_batch_drains() {
        let survivors = Arc::new(AtomicU64::new(0));
        let mut jobs: Vec<Job> = vec![Box::new(|_: &mut SlotScratch| panic!("boom in job"))];
        for _ in 0..4 {
            let s = Arc::clone(&survivors);
            jobs.push(Box::new(move |_: &mut SlotScratch| {
                s.fetch_add(1, Ordering::Relaxed);
            }));
        }
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| JobPool::global().run_batch(jobs)))
            .expect_err("panic must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom in job");
        assert_eq!(survivors.load(Ordering::Relaxed), 4, "siblings still ran");
        // The pool survives the panic and accepts new work.
        let after = Arc::new(AtomicU64::new(0));
        let a = Arc::clone(&after);
        JobPool::global().run_batch(vec![Box::new(move |_: &mut SlotScratch| {
            a.fetch_add(1, Ordering::Relaxed);
        }) as Job]);
        assert_eq!(after.load(Ordering::Relaxed), 1);
    }
}

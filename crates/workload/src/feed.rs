//! Incremental arrival delivery: the one way batch jobs enter a run.
//!
//! Arrivals materialise over time, pushed by a driver. [`EventFeed`] is an
//! in-process channel of slot-stamped arrival batches that the
//! simulation's classify phase drains. A run without an external driver
//! uses [`EventFeed::replay`], a closed feed pre-loaded with the
//! submission-ordered population from the run's start; an external driver
//! (gm-serve, the benchmark's producer thread) that sends each slot's
//! `batch_arrivals_in_slot` delivers the same jobs in the same order, so
//! its run is byte-identical to the replay (the `admission` integration
//! tests pin this end to end). Slot batches are complete-or-absent — the
//! sender stamps each batch with its slot, and
//! [`EventFeed::take_arrivals_before`] blocks until the requested slot has
//! been delivered (or the sender hung up), so a slow driver delays the
//! clock instead of dropping work.

use crate::job::BatchJob;
use crate::trace::Workload;
use gm_sim::time::SimTime;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};

/// All batch arrivals of one slot, in submission (population) order.
#[derive(Debug, Clone)]
pub struct FeedBatch {
    /// Slot the jobs arrived in.
    pub slot: usize,
    /// The arrivals; may be empty (an empty slot still advances the feed).
    pub jobs: Vec<BatchJob>,
}

/// The producer half of an [`EventFeed`]: a driver pushes one
/// [`FeedBatch`] per slot, in slot order, then drops the sender to signal
/// end-of-stream.
pub struct FeedSender {
    tx: Sender<FeedBatch>,
    next_slot: usize,
}

impl FeedSender {
    /// Deliver slot `slot`'s arrivals. Slots must be sent contiguously
    /// from 0 — an empty slot still needs its (empty) batch, so the
    /// consumer can distinguish "no arrivals" from "not delivered yet".
    ///
    /// Returns `false` if the consumer is gone (the simulation was
    /// dropped); the driver should stop producing.
    pub fn send_slot(&mut self, slot: usize, jobs: Vec<BatchJob>) -> bool {
        assert_eq!(slot, self.next_slot, "feed slots must be contiguous from 0");
        self.next_slot += 1;
        self.tx.send(FeedBatch { slot, jobs }).is_ok()
    }
}

/// The consumer half: buffers delivered batches and hands the classify
/// phase exactly the jobs submitted before each slot boundary.
pub struct EventFeed {
    rx: Receiver<FeedBatch>,
    /// Jobs delivered but not yet consumed, in submission order.
    buffer: VecDeque<BatchJob>,
    /// Highest slot fully delivered (`None` before the first batch).
    delivered_through: Option<usize>,
    /// The sender hung up: whatever is buffered is all there will be.
    closed: bool,
}

impl EventFeed {
    /// A fresh feed plus its producer half.
    pub fn new() -> (FeedSender, EventFeed) {
        let (tx, rx) = channel();
        (
            FeedSender { tx, next_slot: 0 },
            EventFeed { rx, buffer: VecDeque::new(), delivered_through: None, closed: false },
        )
    }

    /// A closed feed pre-loaded with every population job submitted at or
    /// after `from`, in submission order — the feed of a run without an
    /// external driver. A run resumed at slot `k` replays from
    /// `clock.slot_start(k)`, so it never sees its prefix's jobs again.
    pub fn replay(workload: &Workload, from: SimTime) -> EventFeed {
        let jobs = workload.batch_jobs();
        let start = jobs.partition_point(|j| j.submit < from);
        EventFeed {
            rx: channel().1,
            buffer: jobs[start..].iter().cloned().collect(),
            delivered_through: None,
            closed: true,
        }
    }

    /// Drain every buffered job submitted strictly before `slot_end` into
    /// `out` (cleared first), blocking until slot `slot` has been fully
    /// delivered or the sender hung up. Jobs are appended in delivery
    /// (submission) order.
    pub fn take_arrivals_before(
        &mut self,
        slot: usize,
        slot_end: SimTime,
        out: &mut Vec<BatchJob>,
    ) {
        out.clear();
        while !self.closed && self.delivered_through.is_none_or(|d| d < slot) {
            match self.rx.recv() {
                Ok(batch) => {
                    self.delivered_through = Some(batch.slot);
                    self.buffer.extend(batch.jobs);
                }
                Err(_) => self.closed = true,
            }
        }
        // Opportunistically absorb batches already queued (a fast driver
        // may run ahead); never blocks.
        while let Ok(batch) = self.rx.try_recv() {
            self.delivered_through = Some(batch.slot);
            self.buffer.extend(batch.jobs);
        }
        while let Some(job) = self.buffer.front() {
            if job.submit >= slot_end {
                break;
            }
            out.push(self.buffer.pop_front().expect("front exists"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::WorkloadSpec;
    use gm_sim::SlotClock;

    fn small_workload() -> (Workload, SlotClock, usize) {
        let clock = SlotClock::hourly();
        let w = Workload::generate(WorkloadSpec::small_week(600), 7);
        (w, clock, 7 * 24)
    }

    #[test]
    fn replay_feed_delivers_exactly_the_cursor_walk() {
        let (w, clock, slots) = small_workload();
        // From the run's start, and from a mid-horizon resume slot: the
        // feed yields exactly the population suffix from that slot on.
        for from_slot in [0, 57] {
            let mut feed = EventFeed::replay(&w, clock.slot_start(from_slot));
            let mut out = Vec::new();
            let mut via_feed = Vec::new();
            for s in from_slot..slots {
                feed.take_arrivals_before(s, clock.slot_end(s), &mut out);
                via_feed.append(&mut out);
            }
            let start = w.batch_jobs().partition_point(|j| j.submit < clock.slot_start(from_slot));
            assert!(from_slot == 0 || start > 0, "slot {from_slot} resumes past some jobs");
            assert_eq!(via_feed, &w.batch_jobs()[start..], "replay from slot {from_slot}");
        }
    }

    #[test]
    fn take_respects_the_slot_boundary() {
        let (mut tx, mut feed) = EventFeed::new();
        let mk = |id: u64, submit_s: u64| {
            BatchJob::new(
                crate::job::JobId(id),
                crate::job::BatchKind::Scrub,
                SimTime::from_secs(submit_s),
                SimTime::from_secs(submit_s + 7200),
                1024,
            )
        };
        // Slot 0 delivers one job; slot 1's job is already queued too.
        tx.send_slot(0, vec![mk(1, 10)]);
        tx.send_slot(1, vec![mk(2, 3700)]);
        let clock = SlotClock::hourly();
        let mut out = Vec::new();
        feed.take_arrivals_before(0, clock.slot_end(0), &mut out);
        assert_eq!(out.iter().map(|j| j.id.0).collect::<Vec<_>>(), vec![1]);
        feed.take_arrivals_before(1, clock.slot_end(1), &mut out);
        assert_eq!(out.iter().map(|j| j.id.0).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn closed_feed_stops_blocking_and_drains_the_rest() {
        let (mut tx, mut feed) = EventFeed::new();
        let job = BatchJob::new(
            crate::job::JobId(9),
            crate::job::BatchKind::Backup,
            SimTime::from_secs(5),
            SimTime::from_secs(7200),
            2048,
        );
        tx.send_slot(0, vec![job]);
        drop(tx);
        let clock = SlotClock::hourly();
        let mut out = Vec::new();
        // Asking for a slot far beyond what was delivered must not hang.
        feed.take_arrivals_before(5, clock.slot_end(5), &mut out);
        assert_eq!(out.len(), 1);
        feed.take_arrivals_before(6, clock.slot_end(6), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn out_of_order_send_panics() {
        let (mut tx, _feed) = EventFeed::new();
        tx.send_slot(1, Vec::new());
    }
}

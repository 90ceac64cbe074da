//! Phase 2 — Classify: who failed, who arrived, what is pending.
//!
//! Draws the slot's disk-failure dice (spawning repair jobs for lost
//! redundancy), admits the batch jobs submitted during the slot (drained
//! from the simulation's event feed), and assembles the policy-visible
//! [`crate::policy::JobView`]s for every pending job into the scratch.

use super::{SlotContext, SlotScratch};
use crate::policy::{JobView, TOTAL_RHO};
use crate::simulation::{deadline_slot_for, Simulation, SiteState};
use gm_workload::{BatchJob, JobId};

/// What the classify phase observed, for the slot outcome.
pub(crate) struct Classified {
    pub jobs_submitted: usize,
    pub disk_failures: u64,
    pub tier_hot: u64,
    pub tier_warm: u64,
    pub tier_cold: u64,
    pub migrations_spawned: usize,
}

pub(crate) fn run(
    sim: &mut Simulation,
    ctx: &SlotContext,
    scratch: &mut SlotScratch,
) -> Classified {
    let s = ctx.slot;
    let now = ctx.now;

    // Failure injection: draw per disk, spawn repair jobs. Failures are a
    // home-site concern: the failure dice, repair-job table and rebuild
    // routing all live there (remote clusters hold no primary data).
    let SiteState { cluster, prev_spinups, .. } = &mut sim.sites[0];
    let failures_before = cluster.total_failures();
    if let Some(fail_spec) = sim.cfg.failures {
        for (d, prev) in prev_spinups.iter_mut().enumerate() {
            let spinups = cluster.disk_spinups(d);
            let cycles = spinups - *prev;
            *prev = spinups;
            let p = fail_spec.failure_probability(ctx.hours, cluster.disk_in_standby(d), cycles);
            if sim.failure_dice.draw(d, s) < p {
                let report = cluster.fail_disk(d, now);
                if report.rebuild_bytes > 0 {
                    let id = JobId(sim.next_repair_id);
                    sim.next_repair_id += 1;
                    sim.repair_jobs.insert(id, d);
                    sim.job_index.insert(id, sim.jobs.len());
                    sim.active_jobs.push(sim.jobs.len());
                    sim.jobs.push(BatchJob::new(
                        id,
                        gm_workload::BatchKind::Repair,
                        now,
                        now + gm_sim::SimDuration::from_hours(24),
                        report.rebuild_bytes,
                    ));
                }
            }
        }
    }
    let disk_failures = cluster.total_failures() - failures_before;

    // Batch arrivals land in the scratch staging buffer first, drained
    // from the event feed — the run's only arrival source.
    let mut jobs_submitted = 0usize;
    sim.feed.take_arrivals_before(s, ctx.slot_end, &mut scratch.feed_jobs);
    let gated = sim.cfg.admission.is_some();
    for job in scratch.feed_jobs.drain(..) {
        if job.submit < ctx.now {
            // Parity with the historic in-slot filter (`submit >= start`):
            // drops a late external delivery; never taken for the replay
            // feed, which starts at the run's first slot.
            continue;
        }
        if gated {
            // Deferrable external work faces the admission gate first; it
            // only enters the pool (and the submission counters) if the
            // admission phase accepts it.
            sim.admission_queue.push(job);
            continue;
        }
        sim.batch_report.jobs_submitted += 1;
        sim.batch_report.bytes_submitted += job.total_bytes;
        sim.job_index.insert(job.id, sim.jobs.len());
        sim.active_jobs.push(sim.jobs.len());
        sim.jobs.push(job);
        jobs_submitted += 1;
    }

    // Temperature step: fold the slot's access hits into the classifier
    // and turn its demote/promote picks into deferrable migration jobs —
    // their bytes enter the same pool the matcher prices, so migration
    // I/O competes for green slots like repair and batch work. A no-op
    // (all zeros, no jobs) when tiering is off.
    let mut tier = gm_storage::cluster::TierStep::default();
    let mut migrations_spawned = 0usize;
    if let Some(tcfg) = sim.cfg.tiering {
        tier = sim.sites[0].cluster.tier_step(ctx.hours, tcfg.max_migrations_per_slot);
        let deadline = now + gm_sim::SimDuration::from_hours(tcfg.migration_deadline_hours);
        for (objs, bytes, demote) in [
            (std::mem::take(&mut tier.demote), tier.demote_bytes, true),
            (std::mem::take(&mut tier.promote), tier.promote_bytes, false),
        ] {
            if objs.is_empty() || bytes == 0 {
                continue;
            }
            let id = JobId(sim.next_migration_id);
            sim.next_migration_id += 1;
            sim.migration_jobs.insert(id, crate::simulation::MigrationInfo { objs, demote });
            sim.job_index.insert(id, sim.jobs.len());
            sim.active_jobs.push(sim.jobs.len());
            sim.jobs.push(BatchJob::new(
                id,
                gm_workload::BatchKind::Migration,
                now,
                deadline,
                bytes,
            ));
            migrations_spawned += 1;
        }
    }

    // With admission off the pending set is final — build the policy's
    // columnar view now. With admission on the gate may still accept jobs
    // into the pool, so the admission phase builds it instead.
    if !gated {
        fill_job_columns(sim, ctx, scratch);
    }

    Classified {
        jobs_submitted,
        disk_failures,
        tier_hot: tier.hot,
        tier_warm: tier.warm,
        tier_cold: tier.cold,
        migrations_spawned,
    }
}

/// Columnar job table over the active (pending) jobs, in submission order
/// — one row pushed per job, landing in five parallel columns. Called by
/// classify when admission is off, and by the admission phase (after the
/// gate has settled the pending set) when it is on.
pub(crate) fn fill_job_columns(sim: &mut Simulation, ctx: &SlotContext, scratch: &mut SlotScratch) {
    let now = ctx.now;
    let pending_count = sim.active_jobs.len();
    let share_bps = sim.total_batch_bw * TOTAL_RHO / pending_count.max(1) as f64;
    scratch.jobs.clear();
    for &idx in &sim.active_jobs {
        let j = &sim.jobs[idx];
        debug_assert!(j.is_pending(), "active list holds only pending jobs");
        scratch.jobs.push(JobView {
            id: j.id,
            remaining_bytes: j.remaining_bytes,
            deadline_slot: deadline_slot_for(ctx.clock, j.deadline),
            critical: j.is_critical(now, share_bps),
            home_only: sim.repair_jobs.contains_key(&j.id),
        });
    }
}

//! Phase 5 — Execute: serve the slot's work.
//!
//! Serves the interactive requests on the home site in one
//! `Cluster::serve_batch` pass (recording latency into the scratch's
//! per-slot histogram, then bucket-merging it into the global one), then
//! walks the sites in one inline loop, home first, and runs each site's
//! entries of the decision's placement list in list order. Each entry is
//! capped by the job's remaining bytes at that point (so a job placed at
//! several sites runs at most what it has left), spread across the site's
//! active disks (repair jobs write onto their replacement disk) and
//! settled on the job at once. The home site's write-log reclaim budget
//! runs after the home entries. Returns the batch bytes executed (all
//! sites).
//!
//! Sites share nothing, so each cluster sees the same operation sequence
//! whatever order the sites run in; the placement list groups entries by
//! site, home first, so job settlement follows list order.

use super::{SlotContext, SlotScratch};
use crate::policy::Decision;
use crate::simulation::Simulation;
use gm_sim::time::SimTime;
use gm_workload::{JobId, RequestBatch};
use std::sync::Arc;

pub(crate) fn run(
    sim: &mut Simulation,
    ctx: &SlotContext,
    scratch: &mut SlotScratch,
    decision: &Decision,
) -> u64 {
    let now = ctx.now;
    let batch = slot_batch(sim, ctx);
    scratch.slot_hist.clear();
    sim.sites[0].cluster.serve_batch(&batch, &mut scratch.slot_hist);
    // The global histogram is bucket-merged from the slot histogram rather
    // than recorded per request: identical bucket counts and max (so the
    // trace and report quantiles are unchanged), one record per request
    // instead of two. Only the report's mean can drift in its last ulps
    // (per-slot partial sums reassociate the float addition).
    sim.hist.merge(&scratch.slot_hist);

    scratch.site_executed_bytes.clear();
    for site_idx in 0..sim.sites.len() {
        let site = &sim.sites[site_idx];
        let gears = *site.gears_series.last().expect("geared this slot");
        scratch.active_disks.clear();
        for g in 0..gears {
            scratch.active_disks.extend(site.cluster.topology().disks_in_gear_range(g));
        }
        let active = &scratch.active_disks;
        let mut executed = 0u64;
        for (_, job_id, bytes) in decision.placements.iter().filter(|(s, _, _)| *s == site_idx) {
            executed += perform_entry(sim, active, site_idx, job_id, *bytes, now);
        }
        if site_idx == 0 && decision.reclaim_budget_bytes > 0 {
            sim.sites[0].cluster.reclaim(decision.reclaim_budget_bytes, now);
        }
        sim.sites[site_idx].executed_batch_bytes += executed;
        scratch.site_executed_bytes.push(executed);
    }
    scratch.site_executed_bytes.iter().sum()
}

/// Execute one decision entry at `site_idx` and settle it on its job:
/// cap the requested bytes by the job's remaining bytes, then write a
/// repair onto its replacement disk, or spread other jobs over up to 32
/// of the site's `active` disks from its round-robin cursor (keeps chunks
/// sequential and large). The per-disk floor division can leave the
/// spread short of the cap; only the bytes actually assigned are
/// returned and settled.
fn perform_entry(
    sim: &mut Simulation,
    active: &[usize],
    site_idx: usize,
    job_id: &JobId,
    requested: u64,
    now: SimTime,
) -> u64 {
    let Some(&idx) = sim.job_index.get(job_id) else { return 0 };
    let bytes = requested.min(sim.jobs[idx].remaining_bytes);
    if bytes == 0 {
        return 0;
    }
    let site = &mut sim.sites[site_idx];
    let (assigned, completion) = if let Some(&disk) = sim.repair_jobs.get(job_id) {
        (bytes, site.cluster.rebuild_step(disk, bytes, now).completion)
    } else {
        let spread = active.len().clamp(1, 32);
        let per = (bytes / spread as u64).max(1);
        let mut assigned = 0u64;
        let mut last_completion = now;
        for k in 0..spread {
            if assigned >= bytes {
                break;
            }
            let chunk = per.min(bytes - assigned);
            let disk = active[(site.rr_cursor + k) % active.len()];
            let served = site.cluster.add_sequential_work(disk, chunk, now);
            last_completion = last_completion.max(served.completion);
            assigned += chunk;
        }
        site.rr_cursor = (site.rr_cursor + spread) % active.len().max(1);
        (assigned, last_completion)
    };
    sim.jobs[idx].perform(assigned, completion);
    assigned
}

/// The slot's interactive requests as a memoised columnar batch, with the
/// next slot's synthesis begun on the pool before this one is gathered.
///
/// Slot t's batch was begun by slot t − 1's Execute (on a cold start it
/// is begun here). Slot t + 1's is begun before slot t's is finished, so
/// pool workers move straight from t's shards to t + 1's while this
/// thread orders and gathers t's rows and then serves them. Live sets
/// come from the advancing cursor (O(live + newly started), independent
/// of the stream population size). A batch depends only on the world, the
/// slot width, the slot and its live set, so this is byte-identical to
/// the stateless `slot_batch` path.
fn slot_batch(sim: &mut Simulation, ctx: &SlotContext) -> Arc<RequestBatch> {
    let (clock, slot) = (ctx.clock, ctx.slot);
    let current = match sim.next_batch.take() {
        Some((begun, pending)) if begun == slot => Some(pending),
        _ => {
            let live = sim.live_cursor.advance_to(sim.workload.interactive(), clock, slot);
            sim.workload.begin_slot_batch(clock, slot, live)
        }
    };
    let next = slot + 1;
    if next < sim.slots {
        let live = sim.live_cursor.advance_to(sim.workload.interactive(), clock, next);
        sim.next_batch = sim.workload.begin_slot_batch(clock, next, live).map(|p| (next, p));
    }
    match current {
        Some(pending) => pending.finish(),
        None => sim.workload.slot_batch(clock, slot),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use gm_workload::{BatchJob, BatchKind};

    /// A two-site slot whose decision asks for more of one job than it
    /// has left: home runs its share in full, the remote site only the
    /// leftover, and the job completes. A home repair entry rebuilds its
    /// own disk and moves no round-robin cursor.
    #[test]
    fn cross_site_entries_chain_the_job_cap() {
        let base = ExperimentConfig::small_demo(3).with_slots(2);
        let mut sites = base.site_configs();
        let mut east = sites[0].clone();
        east.name = "east".into();
        east.utc_offset_hours = 8;
        sites.push(east);
        let cfg = base.with_sites(sites);
        let mut sim = Simulation::builder(&cfg).build().expect("config materialises");
        let mut scratch = SlotScratch::new();
        let clock = cfg.clock;
        let ctx = SlotContext {
            slot: 0,
            now: clock.slot_start(0),
            slot_end: clock.slot_end(0),
            width: clock.width(),
            hours: clock.width().as_secs_f64() / 3600.0,
            clock,
        };
        let now = ctx.now;
        for site in &mut sim.sites {
            site.cluster.set_active_gears(1, now);
            site.gears_series.push(1);
        }
        let topo = *sim.sites[0].cluster.topology();
        let active = topo.disks_in_gear_range(0).len();
        let spread = active.clamp(1, 32);
        // A disk of the parked top gear fails at home; its rebuild must
        // land on that disk alone.
        let failed = topo.disks_in_gear_range(topo.gears - 1).start;
        assert!(sim.sites[0].cluster.disk_in_standby(failed), "top gear is parked");
        let rebuild = sim.sites[0].cluster.fail_disk(failed, now).rebuild_bytes;
        assert!(rebuild > 0, "the failed disk held replicas");

        let deadline = now + gm_sim::SimDuration::from_hours(24);
        let (job, repair) = (JobId(1), JobId(2));
        let home_bytes = spread as u64 * 1_000_000;
        let leftover = spread as u64 * 1_000;
        for (id, kind, bytes) in
            [(job, BatchKind::Backup, home_bytes + leftover), (repair, BatchKind::Repair, rebuild)]
        {
            sim.job_index.insert(id, sim.jobs.len());
            sim.active_jobs.push(sim.jobs.len());
            sim.jobs.push(BatchJob::new(id, kind, now, deadline, bytes));
        }
        sim.repair_jobs.insert(repair, failed);
        let repair_part = rebuild / 2;
        let decision = Decision {
            gears: 1,
            placements: vec![
                (0, job, home_bytes),
                (0, repair, repair_part),
                (1, job, 10 * home_bytes),
            ],
            reclaim_budget_bytes: 0,
            infeasible_bytes: 0,
        };
        let cursors: Vec<usize> = sim.sites.iter().map(|s| s.rr_cursor).collect();
        let spinups = sim.sites[0].cluster.disk_spinups(failed);

        let executed = run(&mut sim, &ctx, &mut scratch, &decision);

        assert_eq!(scratch.site_executed_bytes, vec![home_bytes + repair_part, leftover]);
        assert_eq!(executed, home_bytes + repair_part + leftover);
        assert_eq!(sim.jobs[0].remaining_bytes, 0);
        assert!(!sim.jobs[0].is_pending(), "home share plus leftover completes the job");
        assert_eq!(sim.jobs[1].remaining_bytes, rebuild - repair_part);
        for (site, before) in sim.sites.iter().zip(cursors) {
            assert_eq!(site.rr_cursor, (before + spread) % active, "{}", site.name);
        }
        assert_eq!(sim.sites[0].cluster.disk_spinups(failed), spinups + 1, "rebuild woke its disk");
        assert!(sim.sites[1].cluster.disk_in_standby(failed), "the remote twin stays parked");
    }
}

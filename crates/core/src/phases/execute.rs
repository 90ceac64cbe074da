//! Phase 5 — Execute: serve the slot's work.
//!
//! Serves the interactive requests in one `Cluster::serve_batch` pass
//! (recording latency globally and into the scratch's per-slot
//! histogram), spreads each decided batch job's bytes across the active
//! disks (repair jobs write onto their specific replacement disk), and
//! runs the write-log reclaim budget. For
//! multi-site runs the decision's remote placements are then executed on
//! their sites' clusters with the same spreading rule. Returns the batch
//! bytes actually executed (all sites).
//!
//! ## Per-site parallelism
//!
//! With `cfg.site_parallel` (the default), a multi-site slot fans the
//! per-site disk mechanics across the worker pool in three passes:
//!
//! 1. **Shadow assignment (sequential)** — replays the byte arithmetic of
//!    the sequential path (remaining-bytes caps chained across sites in
//!    decision order, the round-robin cursor evolution, the floor-division
//!    spread shortfall) without touching any cluster, producing per-site
//!    work lists. All cross-site data dependencies live here.
//! 2. **Site service (parallel)** — one pool task per site owns its
//!    [`SiteState`] and replays its work list against its own cluster in
//!    the exact sequential-path order (home also serves the interactive
//!    batch first and reclaims last). Sites share nothing, so any
//!    interleaving of tasks yields the same per-site op sequences.
//! 3. **Job settlement (sequential)** — `job.perform` runs in original
//!    decision order with the completions the tasks reported.
//!
//! The sequential path is kept (`site_parallel = false`) as the reference
//! for A/B byte-identity tests; both produce identical traces at any
//! thread count.

use super::{SlotContext, SlotScratch};
use crate::policy::Decision;
use crate::simulation::{Simulation, SiteState};
use gm_sim::pool::Task;
use gm_sim::time::SimTime;
use gm_sim::{LogHistogram, WorkPool};
use gm_workload::{JobId, RequestBatch};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

pub(crate) fn run(
    sim: &mut Simulation,
    ctx: &SlotContext,
    scratch: &mut SlotScratch,
    decision: &Decision,
    gears: usize,
) -> u64 {
    let now = ctx.now;
    let multi_site = sim.sites.len() > 1;
    scratch.site_executed_bytes.clear();

    // The slot's interactive requests, enumerated through the advancing
    // live-set cursor (O(live + newly started), independent of the stream
    // population size) and memoised as a columnar batch. Byte-identical to
    // the stateless `slot_batch` path.
    let batch = {
        let live = sim.live_cursor.advance_to(sim.workload.interactive(), ctx.clock, ctx.slot);
        sim.workload.slot_batch_with_live(ctx.clock, ctx.slot, live)
    };

    if multi_site && sim.cfg.site_parallel {
        return run_multi_site_parallel(sim, ctx, scratch, decision, gears, batch);
    }

    // Interactive service: record globally (for the final report) and per
    // slot (for the outcome), in the same order as always. Interactive
    // traffic exists only at the home site.
    let SiteState { cluster, rr_cursor, .. } = &mut sim.sites[0];
    scratch.slot_hist.clear();
    cluster.serve_batch(&batch, &mut scratch.slot_hist);
    // The global histogram is bucket-merged from the slot histogram rather
    // than recorded per request: identical bucket counts and max (so the
    // trace and report quantiles are unchanged), one record per request
    // instead of two. Only the report's mean can drift in its last ulps
    // (per-slot partial sums reassociate the float addition).
    sim.hist.merge(&scratch.slot_hist);

    // Batch execution: spread each job's bytes across the active disks.
    let mut executed_batch_bytes = 0u64;
    scratch.active_disks.clear();
    for g in 0..gears {
        scratch.active_disks.extend(cluster.topology().disks_in_gear_range(g));
    }
    let active_disks = &scratch.active_disks;
    for (job_id, bytes) in &decision.batch_bytes {
        let Some(&idx) = sim.job_index.get(job_id) else { continue };
        let job = &mut sim.jobs[idx];
        let bytes = (*bytes).min(job.remaining_bytes);
        if bytes == 0 {
            continue;
        }
        // Repair jobs write onto their specific replacement disk.
        if let Some(&disk) = sim.repair_jobs.get(job_id) {
            let served = cluster.rebuild_step(disk, bytes, now);
            job.perform(bytes, served.completion);
            executed_batch_bytes += bytes;
            continue;
        }
        // Spread over up to 32 disks per job per slot (keeps chunks
        // sequential and large).
        let spread = active_disks.len().clamp(1, 32);
        let per = (bytes / spread as u64).max(1);
        let mut assigned = 0u64;
        let mut last_completion = now;
        for k in 0..spread {
            if assigned >= bytes {
                break;
            }
            let chunk = per.min(bytes - assigned);
            let disk = active_disks[(*rr_cursor + k) % active_disks.len()];
            let served = cluster.add_sequential_work(disk, chunk, now);
            last_completion = last_completion.max(served.completion);
            assigned += chunk;
        }
        *rr_cursor = (*rr_cursor + spread) % active_disks.len().max(1);
        job.perform(assigned, last_completion);
        executed_batch_bytes += assigned;
    }

    // Write-log reclaim.
    if decision.reclaim_budget_bytes > 0 {
        cluster.reclaim(decision.reclaim_budget_bytes, now);
    }

    sim.sites[0].executed_batch_bytes += executed_batch_bytes;
    if multi_site {
        scratch.site_executed_bytes.resize(sim.sites.len(), 0);
        scratch.site_executed_bytes[0] = executed_batch_bytes;

        // Remote placements: same spreading rule on the remote cluster.
        // Jobs are shared state, so bytes already run at home this slot
        // reduce what a remote placement can still execute (the cap by
        // `remaining_bytes` makes double assignment harmless).
        for site_idx in 1..sim.sites.len() {
            let site_gears = *sim.sites[site_idx].gears_series.last().expect("geared this slot");
            scratch.active_disks.clear();
            let SiteState { cluster, rr_cursor, .. } = &mut sim.sites[site_idx];
            for g in 0..site_gears {
                scratch.active_disks.extend(cluster.topology().disks_in_gear_range(g));
            }
            let active_disks = &scratch.active_disks;
            let mut site_executed = 0u64;
            for (s, job_id, bytes) in &decision.remote_batch_bytes {
                if *s != site_idx {
                    continue;
                }
                let Some(&idx) = sim.job_index.get(job_id) else { continue };
                let job = &mut sim.jobs[idx];
                let bytes = (*bytes).min(job.remaining_bytes);
                if bytes == 0 {
                    continue;
                }
                let spread = active_disks.len().clamp(1, 32);
                let per = (bytes / spread as u64).max(1);
                let mut assigned = 0u64;
                let mut last_completion = now;
                for k in 0..spread {
                    if assigned >= bytes {
                        break;
                    }
                    let chunk = per.min(bytes - assigned);
                    let disk = active_disks[(*rr_cursor + k) % active_disks.len()];
                    let served = cluster.add_sequential_work(disk, chunk, now);
                    last_completion = last_completion.max(served.completion);
                    assigned += chunk;
                }
                *rr_cursor = (*rr_cursor + spread) % active_disks.len().max(1);
                job.perform(assigned, last_completion);
                site_executed += assigned;
            }
            sim.sites[site_idx].executed_batch_bytes += site_executed;
            scratch.site_executed_bytes[site_idx] = site_executed;
            executed_batch_bytes += site_executed;
        }
    }

    executed_batch_bytes
}

/// One unit of batch work a site's task replays: the capped byte request
/// of a decision entry, plus where the site's round-robin cursor stood
/// when the sequential path would have placed it.
struct WorkEntry {
    job_idx: usize,
    bytes: u64,
    rr_start: usize,
    repair_disk: Option<usize>,
}

/// Pass A helper: replicate one decision entry's byte arithmetic (caps by
/// shadow remaining bytes, floor-division spread shortfall, round-robin
/// cursor advance) without touching any cluster.
#[allow(clippy::too_many_arguments)]
fn shadow_assign(
    sim: &Simulation,
    consumed: &mut HashMap<usize, u64>,
    entries: &mut Vec<WorkEntry>,
    rr_cursor: &mut usize,
    active_len: usize,
    job_id: &JobId,
    requested: u64,
) {
    let Some(&idx) = sim.job_index.get(job_id) else { return };
    let remaining =
        sim.jobs[idx].remaining_bytes.saturating_sub(consumed.get(&idx).copied().unwrap_or(0));
    let bytes = requested.min(remaining);
    if bytes == 0 {
        return;
    }
    if let Some(&disk) = sim.repair_jobs.get(job_id) {
        *consumed.entry(idx).or_insert(0) += bytes;
        entries.push(WorkEntry { job_idx: idx, bytes, rr_start: 0, repair_disk: Some(disk) });
        return;
    }
    let spread = active_len.clamp(1, 32);
    let per = (bytes / spread as u64).max(1);
    // What the spread loop will actually assign (it can fall short of
    // `bytes` when the per-disk floor division leaves a remainder).
    let assigned = bytes.min(spread as u64 * per);
    *consumed.entry(idx).or_insert(0) += assigned;
    entries.push(WorkEntry { job_idx: idx, bytes, rr_start: *rr_cursor, repair_disk: None });
    *rr_cursor = (*rr_cursor + spread) % active_len.max(1);
}

/// The three-pass parallel multi-site execute (see the module docs).
fn run_multi_site_parallel(
    sim: &mut Simulation,
    ctx: &SlotContext,
    scratch: &mut SlotScratch,
    decision: &Decision,
    gears: usize,
    batch: Arc<RequestBatch>,
) -> u64 {
    let now = ctx.now;
    let n_sites = sim.sites.len();

    // Pass A — sequential shadow assignment in decision order: home
    // placements, then each remote site's. This is where bytes interact
    // across sites (shared job remaining-bytes), so it stays sequential.
    let mut site_active: Vec<Vec<usize>> = Vec::with_capacity(n_sites);
    for (i, site) in sim.sites.iter().enumerate() {
        let site_gears =
            if i == 0 { gears } else { *site.gears_series.last().expect("geared this slot") };
        let mut active = Vec::new();
        for g in 0..site_gears {
            active.extend(site.cluster.topology().disks_in_gear_range(g));
        }
        site_active.push(active);
    }
    let mut rr_shadow: Vec<usize> = sim.sites.iter().map(|s| s.rr_cursor).collect();
    let mut consumed: HashMap<usize, u64> = HashMap::new();
    let mut site_entries: Vec<Vec<WorkEntry>> = (0..n_sites).map(|_| Vec::new()).collect();
    for (job_id, bytes) in &decision.batch_bytes {
        shadow_assign(
            sim,
            &mut consumed,
            &mut site_entries[0],
            &mut rr_shadow[0],
            site_active[0].len(),
            job_id,
            *bytes,
        );
    }
    for site_idx in 1..n_sites {
        for (s, job_id, bytes) in &decision.remote_batch_bytes {
            if *s != site_idx {
                continue;
            }
            shadow_assign(
                sim,
                &mut consumed,
                &mut site_entries[site_idx],
                &mut rr_shadow[site_idx],
                site_active[site_idx].len(),
                job_id,
                *bytes,
            );
        }
    }

    // Pass B — per-site disk service on the pool. Each task owns its
    // SiteState; results come back by site index.
    for (site, rr) in sim.sites.iter_mut().zip(&rr_shadow) {
        site.rr_cursor = *rr;
    }
    let sites = std::mem::take(&mut sim.sites);
    // The home task records request latencies into the scratch's slot
    // histogram, moved into the task and back out with its results.
    let mut home_hist = {
        let mut h = std::mem::replace(&mut scratch.slot_hist, LogHistogram::for_latency_secs());
        h.clear();
        Some(h)
    };
    let reclaim = decision.reclaim_budget_bytes;
    type SiteResult = (SiteState, Vec<(usize, u64, SimTime)>, Option<LogHistogram>);
    let cells: Arc<Vec<Mutex<Option<SiteResult>>>> =
        Arc::new((0..n_sites).map(|_| Mutex::new(None)).collect());
    let tasks: Vec<Task> = sites
        .into_iter()
        .enumerate()
        .map(|(i, mut site)| {
            let entries = std::mem::take(&mut site_entries[i]);
            let active = std::mem::take(&mut site_active[i]);
            let batch = (i == 0).then(|| Arc::clone(&batch));
            let mut hist = if i == 0 { home_hist.take() } else { None };
            let cells = Arc::clone(&cells);
            Box::new(move || {
                // Home first serves the slot's interactive requests — the
                // same cluster-op order as the sequential path.
                if let (Some(batch), Some(h)) = (&batch, hist.as_mut()) {
                    site.cluster.serve_batch(batch, h);
                }
                let mut results = Vec::with_capacity(entries.len());
                let mut executed = 0u64;
                for e in &entries {
                    if let Some(disk) = e.repair_disk {
                        let served = site.cluster.rebuild_step(disk, e.bytes, now);
                        results.push((e.job_idx, e.bytes, served.completion));
                        executed += e.bytes;
                    } else {
                        let spread = active.len().clamp(1, 32);
                        let per = (e.bytes / spread as u64).max(1);
                        let mut assigned = 0u64;
                        let mut last_completion = now;
                        for k in 0..spread {
                            if assigned >= e.bytes {
                                break;
                            }
                            let chunk = per.min(e.bytes - assigned);
                            let disk = active[(e.rr_start + k) % active.len()];
                            let served = site.cluster.add_sequential_work(disk, chunk, now);
                            last_completion = last_completion.max(served.completion);
                            assigned += chunk;
                        }
                        results.push((e.job_idx, assigned, last_completion));
                        executed += assigned;
                    }
                }
                if i == 0 && reclaim > 0 {
                    site.cluster.reclaim(reclaim, now);
                }
                site.executed_batch_bytes += executed;
                *cells[i].lock().expect("site cell") = Some((site, results, hist));
            }) as Task
        })
        .collect();
    WorkPool::global().scatter(tasks);

    // Pass C — reassemble by site index and settle jobs in the original
    // decision order with the completions the tasks reported.
    let mut per_site_results = Vec::with_capacity(n_sites);
    for cell in cells.iter() {
        let (site, results, hist) =
            cell.lock().expect("site cell").take().expect("site task result");
        sim.sites.push(site);
        if let Some(h) = hist {
            scratch.slot_hist = h;
        }
        per_site_results.push(results);
    }
    sim.hist.merge(&scratch.slot_hist);
    scratch.site_executed_bytes.resize(n_sites, 0);
    let mut total = 0u64;
    for (i, results) in per_site_results.iter().enumerate() {
        let mut site_executed = 0u64;
        for &(job_idx, assigned, last_completion) in results {
            sim.jobs[job_idx].perform(assigned, last_completion);
            site_executed += assigned;
        }
        scratch.site_executed_bytes[i] = site_executed;
        total += site_executed;
    }
    total
}

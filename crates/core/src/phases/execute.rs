//! Phase 5 — Execute: serve the slot's work.
//!
//! Serves the interactive requests in one `Cluster::serve_batch` pass
//! (recording latency globally and into the scratch's per-slot
//! histogram), spreads each decided batch job's bytes across the active
//! disks (repair jobs write onto their specific replacement disk), and
//! runs the write-log reclaim budget. For multi-site runs the decision's
//! remote placements are executed on their sites' clusters with the same
//! spreading rule. Returns the batch bytes actually executed (all sites).
//!
//! Every run, single-site included, goes through three passes:
//!
//! 1. **Shadow assignment (sequential)** — caps each decision entry by the
//!    job's remaining bytes (chained across sites in decision order: home
//!    placements, then each remote site's), advances each site's
//!    round-robin cursor and accounts for the floor-division spread
//!    shortfall, producing per-site work lists without touching any
//!    cluster. All cross-site data dependencies live here.
//! 2. **Site service** — [`serve_site`] replays one site's work list
//!    against its own cluster (home also serves the interactive batch
//!    first and reclaims last). A single site is served inline; several
//!    sites run as [`WorkPool`] tasks. Sites share nothing, so any
//!    interleaving of tasks yields the same per-site op sequences, and
//!    the trace is identical at any thread count.
//! 3. **Job settlement (sequential)** — `job.perform` runs in decision
//!    order with the completions the sites reported.

use super::{SlotContext, SlotScratch};
use crate::policy::Decision;
use crate::simulation::{Simulation, SiteState};
use gm_sim::pool::Task;
use gm_sim::time::SimTime;
use gm_sim::{LogHistogram, WorkPool};
use gm_workload::{JobId, RequestBatch};
use std::sync::{Arc, Mutex};

/// One unit of batch work a site replays: the capped byte request of a
/// decision entry, plus where the site's round-robin cursor stood when it
/// was placed.
#[derive(Debug, Clone)]
struct WorkEntry {
    job_idx: usize,
    bytes: u64,
    rr_start: usize,
    repair_disk: Option<usize>,
}

/// One site's share of a slot, reused across slots through
/// [`SlotScratch`].
#[derive(Debug, Clone, Default)]
pub(crate) struct SiteWork {
    /// Disk indices of the gears powered this slot.
    active: Vec<usize>,
    /// Work list in decision order (pass 1).
    entries: Vec<WorkEntry>,
    /// `(job index, bytes assigned, last completion)` per entry (pass 2).
    results: Vec<(usize, u64, SimTime)>,
}

pub(crate) fn run(
    sim: &mut Simulation,
    ctx: &SlotContext,
    scratch: &mut SlotScratch,
    decision: &Decision,
    gears: usize,
) -> u64 {
    let now = ctx.now;
    let n_sites = sim.sites.len();

    let batch = slot_batch(sim, ctx);

    // Pass 1 — sequential shadow assignment in decision order.
    scratch.site_work.resize_with(n_sites, SiteWork::default);
    scratch.consumed.clear();
    for (i, (site, work)) in sim.sites.iter().zip(&mut scratch.site_work).enumerate() {
        let site_gears =
            if i == 0 { gears } else { *site.gears_series.last().expect("geared this slot") };
        work.active.clear();
        for g in 0..site_gears {
            work.active.extend(site.cluster.topology().disks_in_gear_range(g));
        }
        work.entries.clear();
    }
    for (job_id, bytes) in &decision.batch_bytes {
        shadow_assign(sim, scratch, 0, job_id, *bytes);
    }
    for site_idx in 1..n_sites {
        for (s, job_id, bytes) in &decision.remote_batch_bytes {
            if *s == site_idx {
                shadow_assign(sim, scratch, site_idx, job_id, *bytes);
            }
        }
    }

    // Pass 2 — per-site disk service. The home site records request
    // latencies into the scratch's slot histogram.
    let reclaim = decision.reclaim_budget_bytes;
    scratch.slot_hist.clear();
    if n_sites == 1 {
        serve_site(
            &mut sim.sites[0],
            &mut scratch.site_work[0],
            Some((&batch, &mut scratch.slot_hist)),
            reclaim,
            now,
        );
    } else {
        serve_sites_on_pool(sim, scratch, batch, reclaim, now);
    }
    // The global histogram is bucket-merged from the slot histogram rather
    // than recorded per request: identical bucket counts and max (so the
    // trace and report quantiles are unchanged), one record per request
    // instead of two. Only the report's mean can drift in its last ulps
    // (per-slot partial sums reassociate the float addition).
    sim.hist.merge(&scratch.slot_hist);

    // Pass 3 — settle jobs in decision order with the reported completions.
    scratch.site_executed_bytes.clear();
    for work in &scratch.site_work {
        let mut site_executed = 0u64;
        for &(job_idx, assigned, last_completion) in &work.results {
            sim.jobs[job_idx].perform(assigned, last_completion);
            site_executed += assigned;
        }
        scratch.site_executed_bytes.push(site_executed);
    }
    scratch.site_executed_bytes.iter().sum()
}

/// Pass 1 step: cap one decision entry by the job's remaining bytes (net
/// of what earlier entries this slot consumed), account for the spread's
/// floor-division shortfall and advance the site's round-robin cursor,
/// without touching any cluster.
fn shadow_assign(
    sim: &mut Simulation,
    scratch: &mut SlotScratch,
    site_idx: usize,
    job_id: &JobId,
    requested: u64,
) {
    let Some(&idx) = sim.job_index.get(job_id) else { return };
    let consumed = scratch.consumed.entry(idx).or_insert(0);
    let bytes = requested.min(sim.jobs[idx].remaining_bytes.saturating_sub(*consumed));
    if bytes == 0 {
        return;
    }
    let work = &mut scratch.site_work[site_idx];
    if let Some(&disk) = sim.repair_jobs.get(job_id) {
        *consumed += bytes;
        work.entries.push(WorkEntry { job_idx: idx, bytes, rr_start: 0, repair_disk: Some(disk) });
        return;
    }
    let active_len = work.active.len();
    let spread = active_len.clamp(1, 32);
    let per = (bytes / spread as u64).max(1);
    // What the spread loop will actually assign (it can fall short of
    // `bytes` when the per-disk floor division leaves a remainder).
    *consumed += bytes.min(spread as u64 * per);
    let rr_cursor = &mut sim.sites[site_idx].rr_cursor;
    work.entries.push(WorkEntry { job_idx: idx, bytes, rr_start: *rr_cursor, repair_disk: None });
    *rr_cursor = (*rr_cursor + spread) % active_len.max(1);
}

/// Pass 2 for one site: serve the interactive batch (home only), replay
/// the work list in order — repairs onto their replacement disk, other
/// jobs spread over up to 32 active disks per job per slot (keeps chunks
/// sequential and large) — then run the write-log reclaim (home only, a
/// zero budget elsewhere). Touches only `site` and `work`.
fn serve_site(
    site: &mut SiteState,
    work: &mut SiteWork,
    interactive: Option<(&RequestBatch, &mut LogHistogram)>,
    reclaim: u64,
    now: SimTime,
) {
    if let Some((batch, hist)) = interactive {
        site.cluster.serve_batch(batch, hist);
    }
    let SiteWork { active, entries, results } = work;
    results.clear();
    let mut executed = 0u64;
    for e in entries.iter() {
        if let Some(disk) = e.repair_disk {
            let served = site.cluster.rebuild_step(disk, e.bytes, now);
            results.push((e.job_idx, e.bytes, served.completion));
            executed += e.bytes;
            continue;
        }
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
    if reclaim > 0 {
        site.cluster.reclaim(reclaim, now);
    }
    site.executed_batch_bytes += executed;
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

/// Pass 2 for several sites: one [`WorkPool`] task per site owns its
/// [`SiteState`] and [`SiteWork`] (home also the slot histogram), and both
/// come back by site index.
fn serve_sites_on_pool(
    sim: &mut Simulation,
    scratch: &mut SlotScratch,
    batch: Arc<RequestBatch>,
    reclaim: u64,
    now: SimTime,
) {
    type SiteResult = (SiteState, SiteWork, Option<LogHistogram>);
    let n_sites = sim.sites.len();
    let mut home_hist =
        Some(std::mem::replace(&mut scratch.slot_hist, LogHistogram::for_latency_secs()));
    let cells: Arc<Vec<Mutex<Option<SiteResult>>>> =
        Arc::new((0..n_sites).map(|_| Mutex::new(None)).collect());
    let tasks: Vec<Task> = std::mem::take(&mut sim.sites)
        .into_iter()
        .zip(&mut scratch.site_work)
        .enumerate()
        .map(|(i, (mut site, work))| {
            let mut work = std::mem::take(work);
            let mut hist = if i == 0 { home_hist.take() } else { None };
            let batch = Arc::clone(&batch);
            let cells = Arc::clone(&cells);
            Box::new(move || {
                let interactive = hist.as_mut().map(|h| (&*batch, h));
                let reclaim = if i == 0 { reclaim } else { 0 };
                serve_site(&mut site, &mut work, interactive, reclaim, now);
                *cells[i].lock().expect("site cell") = Some((site, work, hist));
            }) as Task
        })
        .collect();
    WorkPool::global().scatter(tasks);
    for (cell, slot_work) in cells.iter().zip(&mut scratch.site_work) {
        let (site, work, hist) = cell.lock().expect("site cell").take().expect("site task result");
        sim.sites.push(site);
        *slot_work = work;
        if let Some(h) = hist {
            scratch.slot_hist = h;
        }
    }
}

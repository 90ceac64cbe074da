//! Phase 6 — Settle: energy accounting and job retirement.
//!
//! For each site: integrates the cluster's energy over the slot, settles
//! it against the true green production (green direct → battery → grid,
//! with the configured discharge strategy), records the ledger slot, and
//! feeds the forecaster the actual. Then retires completed jobs globally
//! (repair completions restore redundancy at the home site instead of
//! entering the batch statistics).

use super::SlotContext;
use crate::config::DischargeStrategy;
use crate::simulation::{EnergyFlows, Simulation, SiteState};
use gm_energy::ledger::SlotFlows;

/// What settlement produced, for the slot outcome.
pub(crate) struct Settled {
    /// Aggregate flows across sites (for one site: that site's, exactly).
    pub energy: EnergyFlows,
    /// Per-site flows, index = site.
    pub site_energy: Vec<EnergyFlows>,
    pub jobs_completed: usize,
    pub deadline_misses: usize,
    pub repairs_completed: u64,
    pub migrations_completed: u64,
    /// Replica bytes released by migrations completing this slot.
    pub tier_bytes_released: u64,
    /// Bytes newly written by migrations completing this slot.
    pub tier_bytes_written: u64,
}

/// Settle one site's energy for the slot and record its ledger.
fn settle_site(
    site: &mut SiteState,
    ctx: &SlotContext,
    discharge: DischargeStrategy,
) -> EnergyFlows {
    let s = ctx.slot;
    let slot_energy = site.cluster.end_slot(ctx.slot_end, ctx.width);
    let load_wh = slot_energy.total_wh();
    let green_wh = site.green_trace.get(s) * ctx.hours;
    let green_direct = green_wh.min(load_wh);
    let surplus = green_wh - green_direct;
    let charge = site.battery.charge(surplus, ctx.width);
    let curtailed = surplus - charge.drawn_wh;
    let deficit = load_wh - green_direct;
    // Discharge timing per the configured strategy, evaluated in the
    // *site-local* hour: a site's green trace is rotated by its UTC offset,
    // so its peak/reserve windows must rotate with it (offset 0 — and thus
    // every single-site run — is unchanged).
    let mid = ctx.now + ctx.width / 2;
    let hour = (mid.hour_of_day() - site.utc_offset_hours as f64).rem_euclid(24.0);
    let allowed = match discharge {
        DischargeStrategy::Eager => deficit,
        DischargeStrategy::PeakOnly => {
            if (7.0..23.0).contains(&hour) {
                deficit
            } else {
                0.0
            }
        }
        DischargeStrategy::Reserve(frac) => {
            if (17.0..23.0).contains(&hour) {
                deficit // the peak may spend the reserve
            } else {
                let reserve = site.battery.spec().usable_wh() * frac;
                deficit.min((site.battery.stored_wh() - reserve).max(0.0))
            }
        }
    };
    let battery_out = site.battery.discharge(allowed, ctx.width);
    let brown = deficit - battery_out;

    site.ledger.record_slot(
        s,
        SlotFlows {
            green_produced_wh: green_wh,
            green_direct_wh: green_direct,
            battery_drawn_wh: charge.drawn_wh,
            battery_out_wh: battery_out,
            brown_wh: brown,
            curtailed_wh: curtailed,
            load_wh,
        },
    );
    site.ledger.add_spinup_overhead(slot_energy.spinup_overhead_wh);
    site.ledger.add_reclaim_overhead(slot_energy.reclaim_overhead_wh);

    site.forecaster.observe_actual(s, site.green_trace.get(s));

    EnergyFlows {
        green_produced_wh: green_wh,
        green_direct_wh: green_direct,
        battery_in_wh: charge.drawn_wh,
        battery_out_wh: battery_out,
        grid_wh: brown,
        curtailed_wh: curtailed,
        load_wh,
    }
}

pub(crate) fn run(sim: &mut Simulation, ctx: &SlotContext) -> Settled {
    let discharge = sim.cfg.energy.discharge;

    // Settle every site; aggregate flows sum exactly to the home site's
    // for single-site runs (each sum starts at zero and adds one term).
    let mut energy = EnergyFlows {
        green_produced_wh: 0.0,
        green_direct_wh: 0.0,
        battery_in_wh: 0.0,
        battery_out_wh: 0.0,
        grid_wh: 0.0,
        curtailed_wh: 0.0,
        load_wh: 0.0,
    };
    let mut site_energy = Vec::with_capacity(sim.sites.len());
    for site in &mut sim.sites {
        let flows = settle_site(site, ctx, discharge);
        energy.green_produced_wh += flows.green_produced_wh;
        energy.green_direct_wh += flows.green_direct_wh;
        energy.battery_in_wh += flows.battery_in_wh;
        energy.battery_out_wh += flows.battery_out_wh;
        energy.grid_wh += flows.grid_wh;
        energy.curtailed_wh += flows.curtailed_wh;
        energy.load_wh += flows.load_wh;
        site_energy.push(flows);
    }

    // Retire completed jobs (each counted exactly once: completed jobs
    // leave the active list and the index below). Repair completions
    // restore redundancy instead of entering the batch statistics.
    let mut jobs_completed = 0usize;
    let mut deadline_misses = 0usize;
    let mut slot_repairs = 0u64;
    let mut slot_migrations = 0u64;
    let mut tier_bytes_released = 0u64;
    let mut tier_bytes_written = 0u64;
    for &idx in &sim.active_jobs {
        let j = &sim.jobs[idx];
        if let Some(met) = j.met_deadline() {
            // `remove` (not `get`): a completed repair must leave the map,
            // or it grows unboundedly and every retired id is consulted on
            // each execute-phase lookup forever.
            if let Some(info) = sim.migration_jobs.remove(&j.id) {
                // The migration's I/O is done: flip the placement of every
                // carried object and settle the capacity delta.
                let (released, written) =
                    sim.sites[0].cluster.complete_migration(&info.objs, info.demote);
                tier_bytes_released += released;
                tier_bytes_written += written;
                sim.migrations_completed += 1;
                slot_migrations += 1;
            } else if let Some(disk) = sim.repair_jobs.remove(&j.id) {
                sim.sites[0].cluster.mark_rebuilt(disk);
                sim.repairs_completed += 1;
                slot_repairs += 1;
            } else {
                sim.batch_report.jobs_completed += 1;
                sim.batch_report.bytes_completed += j.total_bytes;
                jobs_completed += 1;
                if !met {
                    sim.batch_report.deadline_misses += 1;
                    deadline_misses += 1;
                }
            }
        }
    }
    let jobs = &sim.jobs;
    sim.job_index.retain(|_, &mut idx| jobs[idx].is_pending());
    sim.active_jobs.retain(|&idx| jobs[idx].is_pending());

    Settled {
        energy,
        site_energy,
        jobs_completed,
        deadline_misses,
        repairs_completed: slot_repairs,
        migrations_completed: slot_migrations,
        tier_bytes_released,
        tier_bytes_written,
    }
}

//! Phase 3 — Plan: the policy decision.
//!
//! Assembles the [`SchedContext`] as borrowed views over the scratch
//! buffers the earlier phases filled (no copies, no allocation) and asks
//! the policy to decide the slot.

use super::{SlotContext, SlotScratch};
use crate::policy::{BatteryView, Decision, SchedContext, SiteView};
use crate::simulation::{Simulation, SiteState};

fn battery_view(site: &SiteState, ctx: &SlotContext) -> BatteryView {
    BatteryView {
        stored_wh: site.battery.stored_wh(),
        headroom_wh: site.battery.headroom_wh(),
        efficiency: site.battery.spec().efficiency,
        charge_capacity_wh: site.battery.charge_capacity_wh(ctx.width),
        discharge_capacity_wh: site.battery.discharge_capacity_wh(ctx.width),
    }
}

pub(crate) fn run(sim: &mut Simulation, ctx: &SlotContext, scratch: &SlotScratch) -> Decision {
    let home = &sim.sites[0];
    let battery = battery_view(home, ctx);

    // Per-site views, home first, only when there is more than one site
    // (`Vec::new()` does not allocate, so the single-site plan path stays
    // allocation-free).
    let site_views: Vec<SiteView<'_>> = if sim.sites.len() > 1 {
        sim.sites
            .iter()
            .enumerate()
            .map(|(i, site)| SiteView {
                site: i,
                green_forecast_wh: &scratch.green_forecast_wh[i],
                model: site.model,
                wan_cost_per_unit: if i == 0 { 0 } else { sim.cfg.wan_cost_per_unit },
                battery: battery_view(site, ctx),
            })
            .collect()
    } else {
        Vec::new()
    };

    let sched = SchedContext {
        slot: ctx.slot,
        now: ctx.now,
        clock: ctx.clock,
        green_forecast_wh: &scratch.green_forecast_wh[0],
        interactive_busy_secs: &scratch.interactive_busy_secs,
        jobs: &scratch.jobs,
        battery,
        model: home.model,
        writelog_pending_bytes: home.cluster.write_log().pending_total(),
        grid: sim.cfg.energy.grid,
        sites: &site_views,
    };
    sim.policy.decide(&sched)
}

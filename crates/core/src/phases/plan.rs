//! Phase 3 — Plan: the policy decision.
//!
//! Assembles the [`SchedContext`] as borrowed views over the scratch
//! buffers the earlier phases filled: one [`SiteView`] per site, home
//! first (each site's green forecast and planning model, and the WAN cost
//! of placing work there), the home site's expected interactive load, the
//! pending jobs and the write-log backlog. Then asks the policy to decide
//! the slot.

use super::{SlotContext, SlotScratch};
use crate::policy::{Decision, SchedContext, SiteView};
use crate::simulation::Simulation;

pub(crate) fn run(sim: &mut Simulation, ctx: &SlotContext, scratch: &SlotScratch) -> Decision {
    let sites: Vec<SiteView<'_>> = sim
        .sites
        .iter()
        .zip(&scratch.green_forecast_wh)
        .enumerate()
        .map(|(i, (site, forecast))| SiteView {
            green_forecast_wh: forecast,
            model: site.model,
            wan_cost_per_unit: if i == 0 { 0 } else { sim.cfg.wan_cost_per_unit },
        })
        .collect();

    let sched = SchedContext {
        slot: ctx.slot,
        now: ctx.now,
        clock: ctx.clock,
        sites: &sites,
        interactive_busy_secs: &scratch.interactive_busy_secs,
        jobs: &scratch.jobs,
        writelog_pending_bytes: sim.sites[0].cluster.write_log().pending_total(),
        grid: sim.cfg.energy.grid,
    };
    sim.policy.decide(&sched)
}

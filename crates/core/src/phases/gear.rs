//! Phase 4 — Gear: apply the gear decision.
//!
//! Clamps the requested gear count to the physical range, shifts the home
//! cluster (spinning disks up or down), and records the gear series.
//! Remote sites gear to the smallest level whose batch capacity fits the
//! bytes the decision's placement list puts there (they serve no
//! interactive load, so there is nothing else to keep disks spinning
//! for). Returns the home gear level actually powered.

use super::SlotContext;
use crate::policy::Decision;
use crate::simulation::Simulation;

pub(crate) fn run(sim: &mut Simulation, ctx: &SlotContext, decision: &Decision) -> usize {
    let home = &mut sim.sites[0];
    let gears = decision.gears.clamp(1, home.model.gears);
    home.cluster.set_active_gears(gears, ctx.now);
    home.gears_series.push(gears);

    let slot_secs = ctx.width.as_secs_f64();
    for (i, site) in sim.sites.iter_mut().enumerate().skip(1) {
        let placed = decision.site_bytes(i);
        let mut g = 1;
        while g < site.model.gears && site.model.batch_capacity_bytes(g, 0.0, slot_secs) < placed {
            g += 1;
        }
        site.cluster.set_active_gears(g, ctx.now);
        site.gears_series.push(g);
    }
    gears
}

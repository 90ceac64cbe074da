//! Baseline scheduling policies.
//!
//! Each baseline isolates one ingredient of the design space:
//!
//! * [`AllOn`] — no power management, no deferral: the energy-oblivious
//!   reference. With a battery configured, this *is* the "ESD-only"
//!   policy: all renewable matching is left to the storage device.
//! * [`PowerProportional`] — spatial matching only, driven purely by load
//!   (gears follow interactive demand + pending batch), renewable-blind.
//! * [`EdfPolicy`] — PowerProportional with strict earliest-deadline-first
//!   batch ordering; isolates the effect of ordering.
//! * [`GreedyGreen`] — temporal matching with a one-slot horizon: run
//!   deferrable work only when the *current* slot shows green surplus
//!   (plus deadline-forced work), the classic opportunistic policy.

use crate::policy::{edf_fill, Decision, SchedContext, Scheduler};

/// Everything on, all work ASAP.
pub struct AllOn;

impl Scheduler for AllOn {
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Decision {
        let model = ctx.home().model;
        let capacity = model.batch_capacity_bytes(
            model.gears,
            ctx.interactive_busy_secs.first().copied().unwrap_or(0.0),
            ctx.slot_secs(),
        );
        Decision {
            gears: model.gears,
            placements: edf_fill(ctx.jobs, capacity),
            reclaim_budget_bytes: u64::MAX,
            infeasible_bytes: 0,
        }
    }

    fn label(&self) -> String {
        "all-on".into()
    }
}

/// Gears sized to the work, batch ASAP, renewable-blind.
pub struct PowerProportional;

impl PowerProportional {
    fn decide_inner(ctx: &SchedContext<'_>) -> Decision {
        let model = ctx.home().model;
        let busy = ctx.interactive_busy_secs.first().copied().unwrap_or(0.0);
        let min_g = ctx.min_gears_now();
        // Raise gears until pending batch fits in this slot, or max out.
        let pending = ctx.pending_batch_bytes() + ctx.writelog_pending_bytes;
        let mut gears = min_g;
        while gears < model.gears
            && model.batch_capacity_bytes(gears, busy, ctx.slot_secs()) < pending
        {
            gears += 1;
        }
        let capacity = model.batch_capacity_bytes(gears, busy, ctx.slot_secs());
        Decision {
            gears,
            placements: edf_fill(ctx.jobs, capacity),
            reclaim_budget_bytes: u64::MAX,
            infeasible_bytes: 0,
        }
    }
}

impl Scheduler for PowerProportional {
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Decision {
        Self::decide_inner(ctx)
    }

    fn label(&self) -> String {
        "power-prop".into()
    }
}

/// PowerProportional with explicit EDF ordering (identical gear logic; the
/// separation exists so ordering effects can be measured in isolation —
/// `edf_fill` already orders by deadline, so this is the *reference*
/// ordering implementation baselines are compared against).
pub struct EdfPolicy;

impl Scheduler for EdfPolicy {
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Decision {
        PowerProportional::decide_inner(ctx)
    }

    fn label(&self) -> String {
        "edf".into()
    }
}

/// One-slot-horizon opportunistic policy.
///
/// Green surplus this slot (beyond the minimum-gear idle floor and the
/// interactive marginal) funds batch work; deadline-critical jobs run
/// regardless. Gears rise only as far as the surplus pays for.
pub struct GreedyGreen;

impl Scheduler for GreedyGreen {
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Decision {
        let busy = ctx.interactive_busy_secs.first().copied().unwrap_or(0.0);
        let slot_secs = ctx.slot_secs();
        let hours = ctx.slot_hours();
        let model = ctx.home().model;
        let green_wh = ctx.home().green_forecast_wh.first().copied().unwrap_or(0.0);
        let min_g = ctx.min_gears_now();

        // Deadline-forced work always runs (a contiguous column scan).
        let critical_bytes: u64 = ctx.jobs.critical_bytes();

        // Surplus after the mandatory floor.
        let floor_wh = model.idle_w(min_g) * hours + model.batch_energy_wh(critical_bytes);
        let mut surplus_wh = (green_wh - floor_wh).max(0.0);

        // Raise gears while the surplus pays the extra idle energy and
        // there is work to run.
        let pending = ctx.pending_batch_bytes();
        let mut gears = min_g;
        while gears < model.gears {
            let gear_cost = model.gear_idle_wh_per_hour * hours;
            let would_have = model.batch_capacity_bytes(gears, busy, slot_secs);
            if surplus_wh > gear_cost && pending > would_have {
                surplus_wh -= gear_cost;
                gears += 1;
            } else {
                break;
            }
        }

        // Green-funded bytes at the chosen gear level, plus critical work.
        let fundable = model.bytes_fundable_by(surplus_wh);
        let capacity = model.batch_capacity_bytes(gears, busy, slot_secs);
        let budget = fundable.saturating_add(critical_bytes).min(capacity);
        // Reclaim only piggybacks on green slots (it is deferrable too).
        let reclaim = if surplus_wh > 0.0 { u64::MAX } else { 0 };
        Decision {
            gears,
            placements: edf_fill(ctx.jobs, budget),
            reclaim_budget_bytes: reclaim,
            infeasible_bytes: 0,
        }
    }

    fn label(&self) -> String {
        "greedy-green".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{JobColumns, JobView, PlanningModel, SiteView};
    use gm_sim::time::SimTime;
    use gm_sim::SlotClock;
    use gm_storage::ClusterSpec;
    use gm_workload::JobId;

    /// Owned backing store for a borrowed [`SchedContext`].
    struct OwnedCtx {
        green: Vec<f64>,
        busy: Vec<f64>,
        jobs: JobColumns,
    }

    impl OwnedCtx {
        /// Ask `policy` to decide this one-site context.
        fn decide(&self, policy: &mut impl Scheduler) -> Decision {
            let home = [SiteView {
                green_forecast_wh: &self.green,
                model: PlanningModel::from_spec(&ClusterSpec::small()),
                wan_cost_per_unit: 0,
            }];
            policy.decide(&SchedContext {
                slot: 12,
                now: SimTime::from_hours(12),
                clock: SlotClock::hourly(),
                sites: &home,
                interactive_busy_secs: &self.busy,
                jobs: &self.jobs,
                writelog_pending_bytes: 0,
                grid: gm_energy::grid::Grid::typical_eu(),
            })
        }
    }

    fn ctx(green_wh: f64, jobs: Vec<JobView>) -> OwnedCtx {
        OwnedCtx { green: vec![green_wh; 24], busy: vec![1_000.0; 24], jobs: jobs.into() }
    }

    fn job(id: u64, gib: u64, deadline: usize, critical: bool) -> JobView {
        JobView {
            id: JobId(id),
            remaining_bytes: gib << 30,
            deadline_slot: deadline,
            critical,
            home_only: false,
        }
    }

    #[test]
    fn all_on_runs_everything_at_max_gears() {
        let c = ctx(0.0, vec![job(1, 10, 20, false), job(2, 5, 15, false)]);
        let d = c.decide(&mut AllOn);
        assert_eq!(d.gears, 3);
        assert_eq!(d.total_batch_bytes(), 15 << 30, "all pending fits easily");
        // EDF order: job 2 (deadline 15) first.
        assert_eq!(d.placements[0], (0, JobId(2), 5 << 30));
    }

    #[test]
    fn power_prop_uses_min_gears_when_light() {
        let c = ctx(0.0, vec![job(1, 1, 20, false)]);
        let d = c.decide(&mut PowerProportional);
        assert_eq!(d.gears, 1, "light load fits one gear");
        assert_eq!(d.total_batch_bytes(), 1 << 30);
    }

    #[test]
    fn power_prop_raises_gears_for_heavy_backlog() {
        // One gear slot capacity ≈ 1.6 TB; ask for 5 TB.
        let c = ctx(0.0, vec![job(1, 5 * 1024, 20, false)]);
        let d = c.decide(&mut PowerProportional);
        assert!(d.gears >= 2, "backlog forces gear-up, got {}", d.gears);
    }

    #[test]
    fn greedy_green_defers_without_surplus() {
        let c = ctx(0.0, vec![job(1, 10, 20, false)]);
        let d = c.decide(&mut GreedyGreen);
        assert_eq!(d.gears, 1);
        assert_eq!(d.total_batch_bytes(), 0, "no green, no deadline pressure ⇒ defer");
        assert_eq!(d.reclaim_budget_bytes, 0);
    }

    #[test]
    fn greedy_green_runs_critical_even_brown() {
        let c = ctx(0.0, vec![job(1, 2, 12, true)]);
        let d = c.decide(&mut GreedyGreen);
        assert_eq!(d.total_batch_bytes(), 2 << 30, "deadline overrides greenness");
    }

    #[test]
    fn greedy_green_spends_surplus() {
        // Plenty of green: idle floor at 1 gear ≈ 284 Wh; give 3 kWh, and
        // more pending work (4 TiB) than one gear's slot capacity.
        let c = ctx(3_000.0, vec![job(1, 4 * 1024, 20, false)]);
        let d = c.decide(&mut GreedyGreen);
        assert!(d.total_batch_bytes() > 0, "surplus funds deferred work");
        assert!(d.gears >= 2, "surplus also pays for gear-up, got {}", d.gears);
        assert_eq!(d.reclaim_budget_bytes, u64::MAX);
    }

    #[test]
    fn edf_matches_power_prop_gears() {
        let c = ctx(0.0, vec![job(1, 3, 20, false), job(2, 3, 5, false)]);
        let a = c.decide(&mut PowerProportional);
        let b = c.decide(&mut EdfPolicy);
        assert_eq!(a.gears, b.gears);
        assert_eq!(a.placements, b.placements);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(AllOn.label(), "all-on");
        assert_eq!(PowerProportional.label(), "power-prop");
        assert_eq!(EdfPolicy.label(), "edf");
        assert_eq!(GreedyGreen.label(), "greedy-green");
    }
}

//! Shared configuration builders for the evaluation suite.

use crate::runner::ExpContext;
use gm_energy::battery::BatterySpec;
use gm_energy::grid::Grid;
use gm_energy::solar::SolarProfile;
use gm_sim::SlotClock;
use gm_storage::ClusterSpec;
use gm_workload::trace::WorkloadSpec;
use greenmatch::config::{EnergyConfig, ExperimentConfig, ForecastKind, SourceKind};
use greenmatch::policy::PolicyKind;

/// Default PV area (m²) for the "solar is not sufficient" experiments
/// (Fig 4–8, tables): sized at roughly the all-on weekly load.
pub const DEFAULT_AREA_M2: f64 = 120.0;
/// Default LI battery (Wh) where one is configured.
pub const DEFAULT_BATTERY_WH: f64 = 40_000.0;

/// The medium data center baseline configuration, scaled by `ctx.scale`.
pub fn medium_cfg(ctx: &ExpContext, policy: PolicyKind) -> ExperimentConfig {
    let cluster = ClusterSpec::medium_dc();
    let workload = WorkloadSpec::medium_week(cluster.objects).scaled(ctx.scale);
    ExperimentConfig {
        cluster,
        workload,
        energy: EnergyConfig {
            source: SourceKind::Solar {
                area_m2: DEFAULT_AREA_M2,
                profile: SolarProfile::SunnySummer,
            },
            battery: Some(BatterySpec::lithium_ion(DEFAULT_BATTERY_WH)),
            grid: Grid::typical_eu(),
            forecast: ForecastKind::Oracle,
            discharge: Default::default(),
        },
        policy,
        failures: None,
        seed: ctx.seed,
        slots: 7 * 24,
        clock: SlotClock::hourly(),
        sites: Vec::new(),
        wan_cost_per_unit: 0,
        tiering: None,
        admission: None,
        feed_arrivals: false,
    }
}

/// Same configuration without a battery.
pub fn medium_cfg_no_battery(ctx: &ExpContext, policy: PolicyKind) -> ExperimentConfig {
    let mut cfg = medium_cfg(ctx, policy);
    cfg.energy.battery = None;
    cfg
}

/// Thin a sweep when running quick: keep every other point plus endpoints.
pub fn thin<T: Clone>(points: &[T], quick: bool) -> Vec<T> {
    if !quick || points.len() <= 3 {
        return points.to_vec();
    }
    let last = points.len() - 1;
    points
        .iter()
        .enumerate()
        .filter(|(i, _)| *i == 0 || *i == last || i % 2 == 0)
        .map(|(_, p)| p.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ExpContext {
        ExpContext::new(std::env::temp_dir().join("gm-base-test"), 1, 1.0)
    }

    #[test]
    fn medium_cfg_is_consistent() {
        let cfg = medium_cfg(&ctx(), PolicyKind::AllOn);
        assert_eq!(cfg.slots, 168);
        assert_eq!(cfg.workload.interactive.objects, cfg.cluster.objects);
        assert!(cfg.energy.battery.is_some());
        assert!(medium_cfg_no_battery(&ctx(), PolicyKind::AllOn).energy.battery.is_none());
    }

    #[test]
    fn scale_shrinks_workload() {
        let full = medium_cfg(&ctx(), PolicyKind::AllOn);
        let quarter_ctx = ExpContext::new(std::env::temp_dir().join("gm-base-test"), 1, 0.25);
        let quarter = medium_cfg(&quarter_ctx, PolicyKind::AllOn);
        assert!(quarter.workload.interactive.streams < full.workload.interactive.streams);
        assert!(quarter.workload.batch.jobs < full.workload.batch.jobs);
    }

    #[test]
    fn thinning_keeps_endpoints() {
        let pts: Vec<i32> = (0..9).collect();
        let t = thin(&pts, true);
        assert_eq!(*t.first().unwrap(), 0);
        assert_eq!(*t.last().unwrap(), 8);
        assert!(t.len() < pts.len());
        assert_eq!(thin(&pts, false), pts);
        assert_eq!(thin(&pts[..2], true).len(), 2);
    }
}

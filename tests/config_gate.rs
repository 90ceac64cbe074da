//! The one config gate: [`ExperimentConfig::validate`] turns every value
//! that would panic a build, or turn a run's accounting into NaN, into a
//! typed [`ConfigError`], and both build paths (materialising a world,
//! and stepping over a supplied one) run it.
//!
//! The `config_gate_rejects_*` tests cover values that panicked inside a
//! build or a run before the gate checked them. Run them by name with
//! `cargo test -q --test config_gate`.

use gm_energy::battery::BatterySpec;
use gm_energy::grid::Grid;
use greenmatch::config::{ConfigError, DischargeStrategy, ExperimentConfig, ForecastKind};
use greenmatch::policy::PolicyKind;
use greenmatch::simulation::Simulation;
use greenmatch::World;
use proptest::prelude::*;

fn base() -> ExperimentConfig {
    ExperimentConfig::small_demo(42).with_slots(8)
}

/// `base()` with a second site eight hours east, carrying `edit`.
fn with_remote(edit: impl Fn(&mut greenmatch::config::SiteConfig)) -> ExperimentConfig {
    let cfg = base();
    let mut sites = cfg.site_configs();
    let mut east = sites[0].clone();
    east.name = "east".into();
    east.utc_offset_hours = 8;
    edit(&mut east);
    sites.push(east);
    cfg.with_sites(sites)
}

/// Expect `cfg` to be refused with a message naming `field`. A build that
/// is accepted runs to the end before the test fails, so a value that
/// panics only once the run steps still panics here.
fn assert_rejected(cfg: &ExperimentConfig, field: &str) {
    match Simulation::builder(cfg).build() {
        Err(ConfigError::Invalid { message }) => {
            assert!(message.contains(field), "{field}: {message}")
        }
        Err(other) => panic!("{field}: expected ConfigError::Invalid, got {other}"),
        Ok(sim) => {
            let r = sim.run_to_end();
            panic!(
                "{field}: accepted; the run reported {} kg CO2, ${}",
                r.carbon_kg, r.cost_dollars
            )
        }
    }
    let message = cfg.validate().expect_err("validate agrees with build").to_string();
    assert!(message.contains(field), "{field}: {message}");
}

#[test]
fn config_gate_rejects_delay_fractions_outside_0_1() {
    for f in [1.5, -0.1, f64::NAN, f64::INFINITY] {
        for policy in [
            PolicyKind::GreenMatch { delay_fraction: f },
            PolicyKind::GreenMatchCarbon { delay_fraction: f },
            PolicyKind::GreenMatchWindow { delay_fraction: f, horizon: 4 },
        ] {
            assert_rejected(&base().with_policy(policy), "policy: delay_fraction");
        }
    }
}

#[test]
fn config_gate_rejects_a_zero_window_horizon() {
    let window = PolicyKind::GreenMatchWindow { delay_fraction: 1.0, horizon: 0 };
    assert_rejected(&base().with_policy(window), "policy: horizon");
}

#[test]
fn config_gate_rejects_ewma_alphas_outside_0_1() {
    for alpha in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
        assert_rejected(&base().with_forecast(ForecastKind::Ewma { alpha }), "forecast alpha");
    }
    let remote = with_remote(|s| s.forecast = ForecastKind::Ewma { alpha: 0.0 });
    assert_rejected(&remote, "site east: forecast alpha");
}

#[test]
fn config_gate_rejects_negative_and_nan_noise() {
    for cv in [-0.1, f64::NAN] {
        assert_rejected(&base().with_forecast(ForecastKind::Noisy { cv }), "forecast cv");
    }
}

#[test]
fn config_gate_rejects_broken_batteries_at_any_site() {
    type Edit = fn(&mut BatterySpec);
    let cases: [(&str, Edit); 8] = [
        ("battery.capacity_wh", |b| b.capacity_wh = -1.0),
        ("battery.capacity_wh", |b| b.capacity_wh = f64::NAN),
        ("battery.dod", |b| b.dod = 1.5),
        ("battery.dod", |b| b.dod = -0.1),
        ("battery.dod", |b| b.dod = f64::NAN),
        ("battery.efficiency", |b| b.efficiency = 0.0),
        ("battery.efficiency", |b| b.efficiency = 1.5),
        ("battery.efficiency", |b| b.efficiency = f64::NAN),
    ];
    for (field, edit) in cases {
        let mut spec = BatterySpec::lithium_ion(10_000.0);
        edit(&mut spec);
        assert_rejected(&base().with_battery(spec), &format!("site site0: {field}"));
        let remote = with_remote(|s| s.battery = Some(spec));
        assert_rejected(&remote, &format!("site east: {field}"));
    }
}

#[test]
fn config_gate_rejects_grids_that_break_carbon_pricing() {
    let carbon = base().with_policy(PolicyKind::GreenMatchCarbon { delay_fraction: 1.0 });
    let mut zero_base = carbon.clone();
    zero_base.energy.grid.base_carbon_g_per_kwh = 0.0;
    assert_rejected(&zero_base, "grid.base_carbon_g_per_kwh");
    let mut infinite_peak = carbon;
    infinite_peak.energy.grid.peak_carbon_g_per_kwh = f64::INFINITY;
    assert_rejected(&infinite_peak, "grid.peak_carbon_g_per_kwh");
}

/// Values that ran to the end before the gate checked them, reporting
/// NaN, infinite or negative carbon, cost, battery output or wear, or
/// silently clamping.
#[test]
fn config_gate_also_rejects_values_that_ran_to_nonsense() {
    assert_rejected(
        &base().with_forecast(ForecastKind::Noisy { cv: f64::INFINITY }),
        "forecast cv",
    );
    type BatteryEdit = fn(&mut BatterySpec);
    let batteries: [(&str, BatteryEdit); 5] = [
        ("battery.capacity_wh", |b| b.capacity_wh = f64::INFINITY),
        ("battery.charge_rate_per_hour", |b| b.charge_rate_per_hour = -1.0),
        ("battery.discharge_to_charge_ratio", |b| b.discharge_to_charge_ratio = f64::NAN),
        ("battery.self_discharge_per_day", |b| b.self_discharge_per_day = 2.0),
        ("battery.cycle_life", |b| b.cycle_life = 0.0),
    ];
    for (field, edit) in batteries {
        let mut spec = BatterySpec::lithium_ion(10_000.0);
        edit(&mut spec);
        assert_rejected(&base().with_battery(spec), field);
    }
    type Edit = fn(&mut Grid);
    let grids: [(&str, Edit); 8] = [
        ("grid.base_carbon_g_per_kwh", |g| g.base_carbon_g_per_kwh = f64::NAN),
        ("grid.base_carbon_g_per_kwh", |g| g.base_carbon_g_per_kwh = -300.0),
        ("grid.base_carbon_g_per_kwh", |g| g.base_carbon_g_per_kwh = f64::INFINITY),
        ("grid.peak_carbon_g_per_kwh", |g| g.peak_carbon_g_per_kwh = -150.0),
        ("grid.peak_carbon_g_per_kwh", |g| g.peak_carbon_g_per_kwh = f64::NAN),
        ("grid.offpeak_price_per_kwh", |g| g.offpeak_price_per_kwh = -1.0),
        ("grid.offpeak_price_per_kwh", |g| g.offpeak_price_per_kwh = f64::NAN),
        ("grid.peak_price_per_kwh", |g| g.peak_price_per_kwh = f64::INFINITY),
    ];
    for (field, edit) in grids {
        let mut cfg = base();
        edit(&mut cfg.energy.grid);
        assert_rejected(&cfg, field);
    }
    for frac in [1.5, -0.1, f64::NAN, f64::INFINITY] {
        let mut cfg = base();
        cfg.energy.discharge = DischargeStrategy::Reserve(frac);
        assert_rejected(&cfg, "discharge: Reserve fraction");
    }
}

/// The slot count and the workload spec are checked in `validate`, so a
/// caller-supplied world does not skip them.
#[test]
fn config_gate_checks_slots_and_the_workload_over_a_supplied_world() {
    type Edit = fn(&mut ExperimentConfig);
    let cases: [(&str, Edit); 3] = [
        ("at least one slot", |c| c.slots = 0),
        ("interactive.zipf_s", |c| c.workload.interactive.zipf_s = f64::NAN),
        ("exceeds the home cluster", |c| c.workload.interactive.objects = c.cluster.objects + 1),
    ];
    for (expected, edit) in cases {
        let world = World::try_materialize(&base()).expect("sound config");
        let mut cfg = base();
        edit(&mut cfg);
        match Simulation::builder(&cfg).world(world).build() {
            Err(ConfigError::Invalid { message }) => {
                assert!(message.contains(expected), "{expected}: {message}")
            }
            Err(other) => panic!("{expected}: expected ConfigError::Invalid, got {other}"),
            Ok(_) => panic!("{expected}: accepted over a supplied world"),
        }
        assert_rejected(&cfg, expected);
    }
}

#[test]
fn config_gate_accepts_the_boundary_values() {
    let mut cfgs = vec![
        base().with_policy(PolicyKind::GreenMatch { delay_fraction: 0.0 }),
        base().with_policy(PolicyKind::GreenMatchCarbon { delay_fraction: 1.0 }),
        base().with_policy(PolicyKind::GreenMatchWindow { delay_fraction: 1.0, horizon: 1 }),
        base().with_forecast(ForecastKind::Ewma { alpha: 1.0 }),
        base().with_forecast(ForecastKind::Noisy { cv: 0.0 }),
        base().with_battery(BatterySpec::lithium_ion(0.0)),
        base().with_battery(BatterySpec::ideal(1.0e9)),
    ];
    for (dod, efficiency) in [(0.0, 1.0), (1.0, 0.01)] {
        let mut spec = BatterySpec::lithium_ion(10_000.0);
        (spec.dod, spec.efficiency) = (dod, efficiency);
        cfgs.push(base().with_battery(spec));
    }
    let mut free_grid = base();
    let g = &mut free_grid.energy.grid;
    (g.peak_carbon_g_per_kwh, g.offpeak_price_per_kwh, g.peak_price_per_kwh) = (0.0, 0.0, 0.0);
    cfgs.push(free_grid);
    for frac in [0.0, 1.0] {
        let mut cfg = base();
        cfg.energy.discharge = DischargeStrategy::Reserve(frac);
        cfgs.push(cfg);
    }
    for cfg in cfgs {
        let report =
            Simulation::builder(&cfg).build().expect("boundary value accepted").run_to_end();
        assert!(report.carbon_kg.is_finite() && report.cost_dollars.is_finite());
    }
}

/// Value kinds a gated field is drawn from (0 = the preset's valid value).
fn value(kind: usize, valid: f64, out_of_range: f64) -> f64 {
    match kind {
        0 => valid,
        1 => 0.0,
        2 => -valid,
        3 => f64::NAN,
        4 => f64::INFINITY,
        _ => out_of_range,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// `small_demo` over at most 24 slots with up to two gated fields
    /// drawn from {valid, 0, negative, NaN, ∞, out of range}: the build
    /// returns a typed error that `validate` agrees with, or runs to the
    /// end with finite carbon and cost, and never panics.
    #[test]
    fn config_gate_never_panics(
        slots in 0usize..25,
        policy in 0usize..4,
        forecast in 0usize..3,
        reserve in 0usize..2,
        bad in collection::vec((0usize..11, 1usize..6), 0..3),
    ) {
        let kind = |field: usize| bad.iter().rev().find(|(f, _)| *f == field).map_or(0, |b| b.1);
        let delay_fraction = value(kind(0), 0.7, 1.5);
        // A window length has only a zero form among the bad kinds.
        let horizon = if kind(1) == 1 { 0 } else { 6 };
        let mut cfg = ExperimentConfig::small_demo(7).with_slots(slots).with_policy(match policy {
            0 => PolicyKind::GreenMatch { delay_fraction },
            1 => PolicyKind::GreenMatchCarbon { delay_fraction },
            2 => PolicyKind::GreenMatchWindow { delay_fraction, horizon },
            _ => PolicyKind::GreedyGreen,
        });
        cfg.energy.forecast = match forecast {
            0 => ForecastKind::Oracle,
            1 => ForecastKind::Ewma { alpha: value(kind(2), 0.3, 1.5) },
            _ => ForecastKind::Noisy { cv: value(kind(2), 0.2, f64::NEG_INFINITY) },
        };
        let b = cfg.energy.battery.as_mut().expect("small_demo has a battery");
        b.capacity_wh = value(kind(3), b.capacity_wh, f64::NEG_INFINITY);
        b.dod = value(kind(4), b.dod, 1.5);
        b.efficiency = value(kind(5), b.efficiency, 1.5);
        let g = &mut cfg.energy.grid;
        g.base_carbon_g_per_kwh = value(kind(6), g.base_carbon_g_per_kwh, f64::NEG_INFINITY);
        g.peak_carbon_g_per_kwh = value(kind(7), g.peak_carbon_g_per_kwh, f64::NEG_INFINITY);
        g.offpeak_price_per_kwh = value(kind(8), g.offpeak_price_per_kwh, f64::NEG_INFINITY);
        g.peak_price_per_kwh = value(kind(9), g.peak_price_per_kwh, f64::NEG_INFINITY);
        if reserve == 1 {
            cfg.energy.discharge = DischargeStrategy::Reserve(value(kind(10), 0.25, 1.5));
        }

        let valid = cfg.validate();
        match Simulation::builder(&cfg).build() {
            Err(e) => {
                prop_assert_eq!(valid.err().map(|v| v.to_string()), Some(e.to_string()));
            }
            Ok(sim) => {
                prop_assert!(valid.is_ok());
                let r = sim.run_to_end();
                prop_assert!(
                    r.brown_kwh.is_finite() && r.carbon_kg.is_finite() && r.cost_dollars.is_finite(),
                    "accepted {bad:?} ran to non-finite accounting"
                );
            }
        }
    }
}

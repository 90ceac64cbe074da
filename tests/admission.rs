//! Admission control and service-mode (event feed) end-to-end pins.
//!
//! Three contracts live here:
//! * external feed == replay — a run driven by an external feed that sends
//!   each slot's arrivals is byte-identical to the self-driving replay of
//!   the same scenario, whole-report JSON compared;
//! * α-monotonicity — tightening the gate's confidence level never turns
//!   away less work (the lower band shrinks pointwise in α);
//! * snapshot/resume — a gated run checkpointed mid-week resumes
//!   byte-identically, held jobs and gate counters included.

use greenmatch::config::{AdmissionConfig, ExperimentConfig, ForecastKind};
use greenmatch::harness::run_experiment;
use greenmatch::policy::PolicyKind;
use greenmatch::simulation::Simulation;

fn base_cfg(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small_demo(seed);
    cfg.policy = PolicyKind::GreenMatch { delay_fraction: 0.5 };
    cfg
}

fn gated_cfg(seed: u64, alpha: f64) -> ExperimentConfig {
    base_cfg(seed)
        .with_forecast(ForecastKind::Noisy { cv: 0.3 })
        .with_admission(AdmissionConfig { alpha, defer_slots: 4 })
}

#[test]
fn external_feed_drives_the_run_identically() {
    // Hand-drive a feed from the workload instead of using the built-in
    // replay: the builder path external drivers (gm-serve) use.
    let cfg = base_cfg(11);
    let replay = run_experiment(&cfg);

    let (mut tx, feed) = gm_workload::EventFeed::new();
    let sim = Simulation::builder(&cfg).feed(feed).build().expect("config materialises");
    // Pre-load every slot; contiguity is asserted by the sender.
    let workload = greenmatch::world::World::try_materialize(&cfg).expect("world").workload;
    for slot in 0..cfg.slots {
        tx.send_slot(slot, workload.batch_arrivals_in_slot(cfg.clock, slot));
    }
    drop(tx);
    let fed = sim.run_to_end();
    assert_eq!(serde_json::to_string(&replay).unwrap(), serde_json::to_string(&fed).unwrap(),);
}

#[test]
fn admission_defaults_off_and_reports_nothing() {
    let report = run_experiment(&base_cfg(3));
    assert!(report.admission.is_none(), "no gate, no admission section");
}

#[test]
fn gate_accounts_for_every_arrival() {
    let cfg = gated_cfg(5, 0.9);
    let ungated = run_experiment(&base_cfg(5).with_forecast(ForecastKind::Noisy { cv: 0.3 }));
    let report = run_experiment(&cfg);
    let adm = report.admission.expect("gate ran");
    // Conservation: every job the ungated run submitted was either
    // accepted, rejected, or still held when the horizon ended.
    assert_eq!(
        adm.accepted + adm.rejected + adm.pending_at_end as u64,
        ungated.batch.jobs_submitted as u64,
        "gate decisions must partition the arrival population"
    );
    assert_eq!(report.batch.jobs_submitted as u64, adm.accepted);
}

#[test]
fn tightening_alpha_rejects_monotonically_more() {
    let mut prev_turned_away = 0u64;
    let mut prev_accepted = u64::MAX;
    for alpha in [0.5, 0.8, 0.9, 0.99] {
        let report = run_experiment(&gated_cfg(21, alpha));
        let adm = report.admission.expect("gate ran");
        let turned_away = adm.rejected + adm.pending_at_end as u64;
        assert!(
            turned_away >= prev_turned_away,
            "α={alpha}: gate loosened ({turned_away} < {prev_turned_away})"
        );
        assert!(
            adm.accepted <= prev_accepted,
            "α={alpha}: acceptance grew ({} > {prev_accepted})",
            adm.accepted
        );
        prev_turned_away = turned_away;
        prev_accepted = adm.accepted;
    }
}

#[test]
fn gated_snapshot_resumes_byte_identically() {
    let cfg = gated_cfg(13, 0.9);
    let mut sim = Simulation::builder(&cfg).build().expect("config materialises");
    for _ in 0..60 {
        sim.step().expect("prefix shorter than the run");
    }
    let snap = sim.snapshot();
    // The snapshot must survive its own JSON round trip (v3 fields
    // included) and restore into an identical continuation.
    let snap = greenmatch::Snapshot::from_json(&snap.to_json()).expect("round trip");
    drop(sim);
    let resumed = Simulation::builder(&cfg)
        .resume_from(&snap)
        .build()
        .expect("snapshot restores")
        .run_to_end();
    let cold = run_experiment(&cfg);
    assert_eq!(
        serde_json::to_string(&resumed).unwrap(),
        serde_json::to_string(&cold).unwrap(),
        "gated resume must equal the uninterrupted run"
    );
}

#[test]
fn oracle_forecast_gate_is_open_under_ample_supply() {
    // Degenerate bands (oracle) make the gate a pure capacity check; with
    // the small demo's PV sized near the load, most work passes.
    let report =
        run_experiment(&base_cfg(9).with_admission(AdmissionConfig { alpha: 0.9, defer_slots: 4 }));
    let adm = report.admission.expect("gate ran");
    assert!(adm.accepted > 0, "an oracle-banded gate must accept work");
}

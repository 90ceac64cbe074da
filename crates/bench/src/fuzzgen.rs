//! Random experiment configurations for the conservation-auditor fuzz
//! harness.
//!
//! One generator, three consumers: the `fuzz` binary (large fixed-seed
//! sweeps, CI smoke), the `audit_fuzz` integration test, and the `validate`
//! shape checks. Each case is a short simulation (24–48 hourly slots) over
//! an independently sampled point of the configuration space — site count
//! and UTC offsets, battery chemistry and size, discharge strategy,
//! forecaster, scheduling policy, renewable source, WAN pricing, and
//! failure injection — run under the [`greenmatch::audit`] layer.
//!
//! Sampling uses the `proptest` shim's [`TestRng`] imperatively, so a case
//! is reproducible from its `(seed, case)` pair alone: re-running
//! `fuzz --seed S` replays the identical configuration sequence.

use greenmatch::audit::AuditReport;
use greenmatch::config::{
    AdmissionConfig, DischargeStrategy, ExperimentConfig, ForecastKind, SourceKind, TieringConfig,
};
use greenmatch::policy::PolicyKind;
use greenmatch::report::RunReport;
use greenmatch::simulation::Simulation;
use proptest::test_runner::TestRng;

use gm_energy::battery::BatterySpec;
use gm_energy::solar::SolarProfile;
use gm_energy::wind::WindProfile;

fn pick<T: Copy>(rng: &mut TestRng, options: &[T]) -> T {
    options[(rng.next_u64() % options.len() as u64) as usize]
}

fn range_u64(rng: &mut TestRng, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo + 1)
}

fn source(rng: &mut TestRng) -> SourceKind {
    let solar_profile =
        pick(rng, &[SolarProfile::SunnySummer, SolarProfile::CloudySummer, SolarProfile::Winter]);
    let wind_profile = pick(
        rng,
        &[WindProfile::SteadyCoastal, WindProfile::GustyContinental, WindProfile::CalmWeek],
    );
    let area_m2 = 5.0 + rng.unit_f64() * 35.0;
    let rated_w = 2_000.0 + rng.unit_f64() * 18_000.0;
    match rng.next_u64() % 5 {
        0 => SourceKind::None,
        1 | 2 => SourceKind::Solar { area_m2, profile: solar_profile },
        3 => SourceKind::Wind { rated_w, profile: wind_profile },
        _ => SourceKind::Mixed { area_m2, solar_profile, rated_w, wind_profile },
    }
}

fn battery(rng: &mut TestRng) -> Option<BatterySpec> {
    let capacity_wh = 5_000.0 + rng.unit_f64() * 35_000.0;
    match rng.next_u64() % 3 {
        0 => None,
        1 => Some(BatterySpec::lead_acid(capacity_wh)),
        _ => Some(BatterySpec::lithium_ion(capacity_wh)),
    }
}

/// Sample one experiment configuration.
pub fn fuzz_config(rng: &mut TestRng) -> ExperimentConfig {
    let seed = rng.next_u64();
    let slots = range_u64(rng, 24, 48) as usize;
    let mut cfg = ExperimentConfig::small_demo(seed)
        .with_slots(slots)
        .with_source(source(rng))
        .with_battery(battery(rng))
        .with_forecast(pick(
            rng,
            &[
                ForecastKind::Oracle,
                ForecastKind::Persistence,
                ForecastKind::Ewma { alpha: 0.3 },
                ForecastKind::Noisy { cv: 0.3 },
            ],
        ))
        .with_policy(pick(
            rng,
            &[
                PolicyKind::AllOn,
                PolicyKind::PowerProportional,
                PolicyKind::Edf,
                PolicyKind::GreedyGreen,
                PolicyKind::GreenMatch { delay_fraction: 1.0 },
                PolicyKind::GreenMatch { delay_fraction: 0.3 },
                PolicyKind::GreenMatchWindow { delay_fraction: 1.0, horizon: 6 },
                PolicyKind::GreenMatchCarbon { delay_fraction: 1.0 },
            ],
        ));
    cfg.energy.discharge = pick(
        rng,
        &[
            DischargeStrategy::Eager,
            DischargeStrategy::PeakOnly,
            DischargeStrategy::Reserve(0.25),
            DischargeStrategy::Reserve(0.75),
        ],
    );
    // Stream-count dimension: occasionally re-spread the interactive half
    // over up to 10⁴ sessions (aggregate volume unchanged), exercising the
    // activation index and shard-parallel synthesis at off-preset sizes.
    if rng.next_u64().is_multiple_of(3) {
        let streams = range_u64(rng, 10, 10_000) as usize;
        cfg.workload = cfg.workload.with_interactive_streams(streams);
    }
    if rng.next_u64().is_multiple_of(4) {
        cfg = cfg.with_failures(gm_storage::FailureSpec {
            afr: 5.0 + rng.unit_f64() * 25.0,
            standby_factor: 0.5,
            spinup_wear_hours: 10.0,
        });
    }

    // Geo-federation: 1–3 sites with independent supplies, batteries, and
    // longitudes; WAN pricing from free to prohibitive.
    let n_sites = 1 + (rng.next_u64() % 3) as usize;
    if n_sites > 1 {
        let mut sites = cfg.site_configs();
        let home = sites[0].clone();
        for i in 1..n_sites {
            let mut s = home.clone();
            s.name = format!("site{i}");
            s.source = source(rng);
            s.battery = battery(rng);
            s.forecast = cfg.energy.forecast;
            s.utc_offset_hours = pick(rng, &[-8, -5, 5, 8]);
            sites.push(s);
        }
        cfg = cfg.with_sites(sites).with_wan_cost(pick(rng, &[0, 200, 2_000, 100_000]));
    }

    // Temperature tiering: roughly one case in three turns the classifier
    // on, sampling the cold-fraction ceiling and the EC geometry. New
    // dimensions draw *after* every pre-existing one, so a given
    // (seed, case) still replays the same base configuration.
    if rng.next_u64().is_multiple_of(3) {
        let cold_fraction_target = pick(rng, &[0.3, 0.5, 0.8]);
        let (ec_k, ec_m) = pick(rng, &[(4usize, 2usize), (6, 3)]);
        cfg = cfg.with_tiering(TieringConfig {
            cold_fraction_target,
            ec_k,
            ec_m,
            ..TieringConfig::default()
        });
    }

    // Admission gate: roughly one case in three submits every deferrable
    // job to the α-confidence gate first, sampling the confidence level
    // and the defer budget. Drawn after the tiering dimension so a given
    // (seed, case) still replays the same base configuration.
    if rng.next_u64().is_multiple_of(3) {
        let alpha = pick(rng, &[0.5, 0.8, 0.9, 0.99]);
        let defer_slots = range_u64(rng, 0, 6) as usize;
        cfg = cfg.with_admission(AdmissionConfig { alpha, defer_slots });
    }
    cfg
}

/// Compact label of the sampled dimensions, for failure diagnostics.
pub fn describe(cfg: &ExperimentConfig) -> String {
    let chem = match &cfg.energy.battery {
        None => "none".to_string(),
        Some(b) => format!("{:.0}kWh", b.capacity_wh / 1000.0),
    };
    let tiering = match &cfg.tiering {
        None => "off".to_string(),
        Some(t) => format!("{:.1}/{}+{}", t.cold_fraction_target, t.ec_k, t.ec_m),
    };
    let admission = match &cfg.admission {
        None => "off".to_string(),
        Some(a) => format!("α{}/d{}", a.alpha, a.defer_slots),
    };
    format!(
        "seed={} slots={} sites={} policy={} battery={} discharge={:?} forecast={:?} wan={} failures={} streams={} tiering={} admission={}",
        cfg.seed,
        cfg.slots,
        cfg.n_sites(),
        cfg.policy.label(),
        chem,
        cfg.energy.discharge,
        cfg.energy.forecast,
        cfg.wan_cost_per_unit,
        cfg.failures.is_some(),
        cfg.workload.interactive.streams,
        tiering,
        admission,
    )
}

/// Run one configuration under the conservation auditor: per-slot
/// observer checks plus the post-run deep audit, then the normal report.
pub fn run_audited(cfg: &ExperimentConfig) -> (RunReport, AuditReport) {
    let sim = Simulation::builder(cfg).build().unwrap_or_else(|e| panic!("{e}"));
    let (sim, audit) = sim.run_audited();
    (sim.into_report(), audit)
}

/// In-memory `io::Write` sink that outlives the observer holding it.
#[derive(Clone, Default)]
struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> Vec<u8> {
        self.0.lock().expect("buffer lock").clone()
    }
}

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Outcome of a split replay of one configuration: run it cold, then run
/// it again interrupted at `fork_slot` (snapshot → JSON round-trip →
/// restore) with the tail under the conservation auditor.
pub struct SplitRun {
    /// Full JSONL trace of the uninterrupted run.
    pub cold_trace: Vec<u8>,
    /// Prefix trace + resumed trace, stitched at the fork.
    pub stitched_trace: Vec<u8>,
    /// Report of the uninterrupted run.
    pub cold_report: RunReport,
    /// Report of the checkpoint/restore run.
    pub resumed_report: RunReport,
    /// Audit of the resumed half (per-slot + post-run deep audit).
    pub resumed_audit: AuditReport,
}

/// Replay `cfg` split at `fork_slot`: simulate a prefix, checkpoint it
/// through the serialized form, restore, and finish under the auditor.
/// The snapshot contract says the interruption must be invisible —
/// `stitched_trace == cold_trace` byte for byte and the reports equal —
/// which the fuzz harness asserts across the whole configuration space.
pub fn run_split(cfg: &ExperimentConfig, fork_slot: usize) -> SplitRun {
    use greenmatch::observe::JsonlTraceObserver;
    use greenmatch::Snapshot;

    assert!(fork_slot <= cfg.slots, "fork slot beyond the horizon");

    let cold_buf = SharedBuf::default();
    let cold_report = Simulation::builder(cfg)
        .observer(Box::new(JsonlTraceObserver::new(cold_buf.clone())))
        .build()
        .unwrap_or_else(|e| panic!("{e}"))
        .run_to_end();

    let prefix_buf = SharedBuf::default();
    let mut sim = Simulation::builder(cfg)
        .observer(Box::new(JsonlTraceObserver::new(prefix_buf.clone())))
        .build()
        .unwrap_or_else(|e| panic!("{e}"));
    for _ in 0..fork_slot {
        sim.step().expect("fork slot within the horizon");
    }
    let snap = Snapshot::from_json(&sim.snapshot().to_json())
        .unwrap_or_else(|e| panic!("snapshot round-trip: {e}"));
    drop(sim);

    let tail_buf = SharedBuf::default();
    let sim = Simulation::builder(cfg)
        .resume_from(&snap)
        .observer(Box::new(JsonlTraceObserver::new(tail_buf.clone())))
        .build()
        .unwrap_or_else(|e| panic!("{e}"));
    let (sim, resumed_audit) = sim.run_audited();
    let resumed_report = sim.into_report();

    let mut stitched = prefix_buf.contents();
    stitched.extend_from_slice(&tail_buf.contents());
    SplitRun {
        cold_trace: cold_buf.contents(),
        stitched_trace: stitched,
        cold_report,
        resumed_report,
        resumed_audit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_case() {
        let mut a = TestRng::for_case("fuzzgen", 7);
        let mut b = TestRng::for_case("fuzzgen", 7);
        let ca = fuzz_config(&mut a);
        let cb = fuzz_config(&mut b);
        assert_eq!(describe(&ca), describe(&cb));
        assert_eq!(ca.seed, cb.seed);
    }

    #[test]
    fn generator_covers_the_multi_site_space() {
        let mut multi = 0;
        let mut with_battery = 0;
        let mut with_failures = 0;
        let mut respread = 0;
        let mut tiered = 0;
        let mut big_stripe = 0;
        let mut gated = 0;
        for case in 0..64 {
            let mut rng = TestRng::for_case("fuzzgen-cover", case);
            let cfg = fuzz_config(&mut rng);
            cfg.validate_sites().expect("generated configs are coherent");
            multi += (cfg.n_sites() > 1) as u32;
            with_battery += cfg.energy.battery.is_some() as u32;
            with_failures += cfg.failures.is_some() as u32;
            respread += (cfg.workload.interactive.streams != 100) as u32;
            tiered += cfg.tiering.is_some() as u32;
            big_stripe += cfg.tiering.is_some_and(|t| t.ec_k == 6) as u32;
            gated += cfg.admission.is_some() as u32;
        }
        assert!(multi > 10, "multi-site configs must be common ({multi}/64)");
        assert!(with_battery > 20, "battery configs must be common ({with_battery}/64)");
        assert!(with_failures > 5, "failure configs must appear ({with_failures}/64)");
        assert!(respread > 5, "off-preset stream counts must appear ({respread}/64)");
        assert!(tiered > 5, "tiered configs must appear ({tiered}/64)");
        assert!(big_stripe > 0, "both EC geometries must appear ({big_stripe}/64)");
        assert!(gated > 5, "admission-gated configs must appear ({gated}/64)");
    }

    #[test]
    fn split_replay_is_invisible_on_a_sampled_case() {
        let mut rng = TestRng::for_case("fuzzgen-split", 1);
        let cfg = fuzz_config(&mut rng);
        let fork = cfg.slots / 2;
        let split = run_split(&cfg, fork);
        assert!(split.resumed_audit.is_clean(), "[{}]: {:?}", describe(&cfg), split.resumed_audit);
        assert_eq!(split.stitched_trace, split.cold_trace, "[{}]", describe(&cfg));
    }

    #[test]
    fn sampled_cases_run_clean_under_the_auditor() {
        for case in 0..6 {
            let mut rng = TestRng::for_case("fuzzgen-smoke", case);
            let cfg = fuzz_config(&mut rng);
            let (_, audit) = run_audited(&cfg);
            assert!(audit.is_clean(), "case {case} [{}]: {:?}", describe(&cfg), audit.violations);
        }
    }
}

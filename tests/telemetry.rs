//! Telemetry contract tests for the step-wise simulation core.
//!
//! The JSONL trace is part of the repo's observable surface: downstream
//! tooling diffs trace files across commits, so the format must stay
//! byte-stable for a fixed seed. These tests pin that contract:
//!
//! * committed golden files (`tests/golden/*.jsonl`) for the `small_demo`
//!   preset under GreenMatch, its carbon-aware and windowed variants, a
//!   two-site WAN-priced GreenMatch run, a three-site run with failures
//!   and admission, a tiered run with failures, and a 4 h-slot
//!   `small_demo` week — regenerate with
//!   `GM_UPDATE_GOLDEN=1 cargo test --test telemetry golden`;
//! * per-site goldens for the two- and three-site runs: each slot's
//!   per-site energy and its batch placements as `[site, job, bytes]`, in
//!   execution order (the JSONL trace is aggregate-only);
//! * same-seed runs must produce byte-identical traces;
//! * every record must conserve energy on both sides of the meter;
//! * attaching a `NullObserver` must not change the final report.

use std::io::Write;
use std::sync::{Arc, Mutex};

use greenmatch::config::ExperimentConfig;
use greenmatch::harness::run_experiment;
use greenmatch::observe::{CsvSeriesObserver, JsonlTraceObserver, NullObserver};
use greenmatch::simulation::Simulation;

/// `io::Write` sink whose bytes remain reachable after the observer (and
/// the simulation that owns it) is dropped.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Run `cfg` to completion with a JSONL trace observer attached and
/// return the raw trace bytes.
fn trace_bytes(cfg: &ExperimentConfig) -> Vec<u8> {
    let buf = SharedBuf::default();
    Simulation::builder(cfg)
        .observer(Box::new(JsonlTraceObserver::new(buf.clone())))
        .build()
        .expect("config materialises")
        .run_to_end();
    buf.contents()
}

/// Two sites seven hours apart, joined by a WAN priced at 200 per unit.
fn two_site_cfg() -> ExperimentConfig {
    use greenmatch::policy::PolicyKind;

    let base = ExperimentConfig::small_demo(7)
        .with_slots(48)
        .with_policy(PolicyKind::GreenMatch { delay_fraction: 1.0 });
    let mut sites = base.site_configs();
    let mut east = sites[0].clone();
    east.name = "east".into();
    east.utc_offset_hours = 8;
    sites.push(east);
    base.with_sites(sites).with_wan_cost(200)
}

/// Three sites eight hours apart under a 200-per-unit WAN, with failure
/// injection (repair jobs) and the admission gate on: pins the bytes of
/// cross-site placement, remote gearing and remote execution together.
fn three_site_cfg() -> ExperimentConfig {
    use greenmatch::config::AdmissionConfig;
    use greenmatch::policy::PolicyKind;

    let base = ExperimentConfig::small_demo(42)
        .with_slots(72)
        .with_policy(PolicyKind::GreenMatch { delay_fraction: 1.0 })
        .with_failures(gm_storage::FailureSpec {
            afr: 20.0,
            standby_factor: 0.5,
            spinup_wear_hours: 10.0,
        })
        .with_admission(AdmissionConfig { alpha: 0.8, defer_slots: 3 });
    let mut sites = base.site_configs();
    for (name, offset) in [("mid", 8), ("far", 16)] {
        let mut site = sites[0].clone();
        site.name = name.into();
        site.utc_offset_hours = offset;
        sites.push(site);
    }
    base.with_sites(sites).with_wan_cost(200)
}

/// `small_demo` with the temperature layer on and failures hitting EC
/// shards. The 15 % cold ceiling (150 of the 1 000 objects) holds back
/// cold candidates from slot ~20 of 72 on, the 32-object migration budget
/// binds in the first cold nights, objects cycle back through promotion,
/// and the reads of EC objects fan in over shards. Pins the tier
/// classifier's picks, EC placement and migration completion together.
fn tiering_cfg() -> ExperimentConfig {
    use greenmatch::config::TieringConfig;
    use greenmatch::policy::PolicyKind;

    ExperimentConfig::small_demo(42)
        .with_slots(72)
        .with_policy(PolicyKind::GreenMatch { delay_fraction: 1.0 })
        .with_failures(gm_storage::FailureSpec {
            afr: 60.0,
            standby_factor: 0.5,
            spinup_wear_hours: 10.0,
        })
        .with_tiering(TieringConfig {
            cold_fraction_target: 0.15,
            max_migrations_per_slot: 32,
            ..TieringConfig::default()
        })
}

/// The behaviour contract: each config's trace, pinned to committed bytes.
///
/// The carbon-aware and windowed variants run a winter week, where scarce
/// green makes carbon-weighted brown pricing move work. The 12-slot window
/// plans the same slot-0 work as the default 24-slot one there (green now
/// is always cheapest and brown work waits for its deadline), so its
/// golden pins the shorter network's bytes rather than a different plan.
/// The 4 h-slot week (the widest width of the slot-length ablation) is the
/// one whose slots span more than 2³² µs, so its batches cross the
/// request rows' arrival high-word boundary inside a slot.
fn golden_cases() -> Vec<(&'static str, ExperimentConfig)> {
    use gm_energy::SolarProfile;
    use gm_sim::time::{SimDuration, SlotClock};
    use greenmatch::policy::PolicyKind;

    let winter = ExperimentConfig::small_demo(42).with_solar(15.0, SolarProfile::Winter);
    let mut four_hour = ExperimentConfig::small_demo(42).with_slots(7 * 6);
    four_hour.clock = SlotClock::new(SimDuration::from_hours(4));
    vec![
        ("tests/golden/small_demo_trace.jsonl", ExperimentConfig::small_demo(42)),
        ("tests/golden/two_site_wan200_trace.jsonl", two_site_cfg()),
        ("tests/golden/three_site_failures_admission_trace.jsonl", three_site_cfg()),
        (
            "tests/golden/winter_carbon_trace.jsonl",
            winter.clone().with_policy(PolicyKind::GreenMatchCarbon { delay_fraction: 1.0 }),
        ),
        (
            "tests/golden/winter_window12_trace.jsonl",
            winter.with_policy(PolicyKind::GreenMatchWindow { delay_fraction: 1.0, horizon: 12 }),
        ),
        ("tests/golden/small_demo_4h_trace.jsonl", four_hour),
        ("tests/golden/tiering_failures_trace.jsonl", tiering_cfg()),
    ]
}

/// The tiering golden exercises what it is there to pin: at least one
/// completed promotion, at least one read served from EC shards, a cold
/// ceiling that holds back a waiting cold candidate, and a disk failure
/// that lands on an EC shard. Placements are read from a snapshot after
/// every slot; a slot's reads see the placements the previous slot left
/// (the classifier only marks picks, and placements flip in Settle).
#[test]
fn tiering_golden_promotes_reads_ec_and_reaches_the_ceiling() {
    use gm_storage::{IoKind, Temperature};
    use greenmatch::World;

    let cfg = tiering_cfg();
    let tiering = cfg.tiering.expect("tiering on");
    let ceiling = (tiering.cold_fraction_target * cfg.cluster.objects as f64).floor() as usize;
    let world = World::try_materialize(&cfg).expect("config materialises");
    let workload = world.workload.clone();
    let mut sim = Simulation::builder(&cfg).world(world).build().expect("config materialises");
    let (mut promotions, mut ec_reads, mut ceiling_held, mut failed_shards) = (0, 0, 0, 0);
    let mut prev_ec: Vec<(u32, Vec<usize>)> = Vec::new();
    let mut prev_pending = vec![false; cfg.cluster.topology.n_disks()];
    while let Some(o) = sim.step() {
        let snap = sim.snapshot();
        let cluster = &snap.sites[0].cluster;
        let tier = cluster.tiering.as_ref().expect("tiering snapshot");
        let on_ec = |set: &[(u32, Vec<usize>)], obj: u32| {
            set.binary_search_by_key(&obj, |(o, _)| *o).is_ok()
        };
        let batch = workload.slot_batch(cfg.clock, o.slot);
        ec_reads += (0..batch.len())
            .map(|i| batch.request(i))
            .filter(|r| r.kind == IoKind::Read && on_ec(&prev_ec, r.object.0 as u32))
            .count();
        promotions += prev_ec.iter().filter(|(obj, _)| !on_ec(&tier.ec, *obj)).count();
        let waiting = (0..tier.temp.len() as u32).any(|obj| {
            tier.temp[obj as usize] == Temperature::Cold
                && !on_ec(&tier.ec, obj)
                && tier.migrating.binary_search(&obj).is_err()
        });
        if waiting && tier.ec.len() + tier.migrating.len() >= ceiling {
            ceiling_held += 1;
        }
        let newly_failed = |d: usize| cluster.pending_rebuild[d] && !prev_pending[d];
        if prev_ec.iter().any(|(_, shards)| shards.iter().any(|&d| newly_failed(d))) {
            failed_shards += 1;
        }
        prev_ec = tier.ec.clone();
        prev_pending = cluster.pending_rebuild.clone();
    }
    assert!(promotions > 0, "no EC object was promoted back to replication");
    assert!(ec_reads > 0, "no read was served from EC shards");
    assert!(ceiling_held > 0, "the cold ceiling ({ceiling} objects) never held a candidate back");
    assert!(failed_shards > 0, "no disk failure hit an EC shard");
}

#[test]
fn trace_matches_committed_golden() {
    for (path, cfg) in golden_cases() {
        assert_matches_golden(path, &trace_bytes(&cfg));
    }
}

/// Compare `actual` with the committed golden at `path` byte for byte, or
/// rewrite the golden when `GM_UPDATE_GOLDEN` is set.
fn assert_matches_golden(path: &str, actual: &[u8]) {
    if std::env::var_os("GM_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").expect("create golden dir");
        std::fs::write(path, actual).expect("write golden trace");
        return;
    }
    let golden = std::fs::read(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (regenerate with GM_UPDATE_GOLDEN=1)"));
    if actual != golden {
        // Find the first differing line for a readable failure message.
        let actual_s = String::from_utf8_lossy(actual);
        let golden_s = String::from_utf8_lossy(&golden);
        for (i, (a, g)) in actual_s.lines().zip(golden_s.lines()).enumerate() {
            assert_eq!(a, g, "{path}: trace diverges from golden at line {}", i + 1);
        }
        panic!(
            "{path}: trace length changed: {} lines vs golden {} (regenerate with GM_UPDATE_GOLDEN=1 if intended)",
            actual_s.lines().count(),
            golden_s.lines().count()
        );
    }
}

/// One JSONL line per slot: the slot's per-site energy and the decision's
/// batch placements as `[site, job, bytes]` triples in the order Execute
/// runs them (home first, then each remote site's, grouped by site).
fn site_lines(cfg: &ExperimentConfig) -> Vec<u8> {
    let mut sim = Simulation::builder(cfg).build().expect("config materialises");
    let mut out = Vec::new();
    while let Some(o) = sim.step() {
        let placements: Vec<String> = o
            .decision
            .placements
            .iter()
            .map(|(s, job, bytes)| format!("[{s},{},{bytes}]", job.0))
            .collect();
        let site_energy = serde_json::to_string(&o.site_energy).expect("serialises");
        writeln!(
            out,
            r#"{{"slot":{},"site_energy":{site_energy},"placements":[{}]}}"#,
            o.slot,
            placements.join(",")
        )
        .expect("write to a Vec");
    }
    out
}

/// Which site ran which bytes, pinned per slot for the multi-site goldens.
#[test]
fn per_site_placements_match_committed_golden() {
    for (path, cfg) in [
        ("tests/golden/two_site_wan200_sites.jsonl", two_site_cfg()),
        ("tests/golden/three_site_failures_admission_sites.jsonl", three_site_cfg()),
    ] {
        let actual = site_lines(&cfg);
        assert_eq!(actual.iter().filter(|&&b| b == b'\n').count(), cfg.slots, "{path}");
        assert_matches_golden(path, &actual);
    }
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let cfg = ExperimentConfig::small_demo(7).with_slots(48);
    let first = trace_bytes(&cfg);
    let second = trace_bytes(&cfg);
    assert!(!first.is_empty(), "trace should contain records");
    assert_eq!(first, second, "same seed must reproduce the trace byte for byte");
}

#[test]
fn same_seed_traces_are_byte_identical_for_every_policy() {
    use greenmatch::policy::PolicyKind;

    let policies = [
        PolicyKind::AllOn,
        PolicyKind::PowerProportional,
        PolicyKind::Edf,
        PolicyKind::GreedyGreen,
        PolicyKind::GreenMatch { delay_fraction: 1.0 },
        PolicyKind::GreenMatch { delay_fraction: 0.3 },
        PolicyKind::GreenMatchWindow { delay_fraction: 1.0, horizon: 12 },
        PolicyKind::GreenMatchCarbon { delay_fraction: 1.0 },
    ];
    for policy in policies {
        let cfg = ExperimentConfig::small_demo(7).with_slots(48).with_policy(policy);
        let first = trace_bytes(&cfg);
        let second = trace_bytes(&cfg);
        assert!(!first.is_empty(), "{policy:?}: trace should contain records");
        assert_eq!(first, second, "{policy:?}: same seed must reproduce the trace byte for byte");
    }
}

#[test]
fn one_site_config_traces_match_flat_config_for_every_policy() {
    use greenmatch::policy::PolicyKind;

    // Spelling the single site out explicitly via `sites` must be pure
    // sugar over the flat fields: the degenerate one-site path produces a
    // byte-identical trace, for every policy.
    let policies = [
        PolicyKind::AllOn,
        PolicyKind::PowerProportional,
        PolicyKind::Edf,
        PolicyKind::GreedyGreen,
        PolicyKind::GreenMatch { delay_fraction: 1.0 },
        PolicyKind::GreenMatch { delay_fraction: 0.3 },
        PolicyKind::GreenMatchWindow { delay_fraction: 1.0, horizon: 12 },
        PolicyKind::GreenMatchCarbon { delay_fraction: 1.0 },
    ];
    for policy in policies {
        let flat = ExperimentConfig::small_demo(7).with_slots(48).with_policy(policy);
        let sited = flat.clone().with_sites(flat.site_configs());
        let a = trace_bytes(&flat);
        let b = trace_bytes(&sited);
        assert!(!a.is_empty(), "{policy:?}: trace should contain records");
        assert_eq!(a, b, "{policy:?}: explicit one-site config diverged from flat config");
    }
}

#[test]
fn multi_site_traces_are_deterministic() {
    use greenmatch::policy::PolicyKind;

    let base = ExperimentConfig::small_demo(7)
        .with_slots(48)
        .with_policy(PolicyKind::GreenMatch { delay_fraction: 1.0 });
    let mut sites = base.site_configs();
    let mut east = sites[0].clone();
    east.name = "east".into();
    east.utc_offset_hours = 8;
    sites.push(east);
    let cfg = base.with_sites(sites).with_wan_cost(200);

    let first = trace_bytes(&cfg);
    let second = trace_bytes(&cfg);
    assert!(!first.is_empty(), "trace should contain records");
    assert_eq!(first, second, "multi-site runs must be deterministic byte for byte");
}

/// Like [`trace_bytes`], but materialising the world through `cache`.
fn trace_bytes_cached(cfg: &ExperimentConfig, cache: &greenmatch::WorldCache) -> Vec<u8> {
    let buf = SharedBuf::default();
    Simulation::builder(cfg)
        .cache(cache)
        .observer(Box::new(JsonlTraceObserver::new(buf.clone())))
        .build()
        .expect("config materialises")
        .run_to_end();
    buf.contents()
}

#[test]
fn warm_world_traces_match_cold_for_every_policy() {
    use greenmatch::policy::PolicyKind;
    use greenmatch::WorldCache;

    // A cache-hit (warm `Arc<World>`) run must emit a JSONL trace
    // byte-identical to a cold-materialized run, for every policy: world
    // sharing may not perturb RNG draw order or any per-run state.
    let policies = [
        PolicyKind::AllOn,
        PolicyKind::PowerProportional,
        PolicyKind::Edf,
        PolicyKind::GreedyGreen,
        PolicyKind::GreenMatch { delay_fraction: 1.0 },
        PolicyKind::GreenMatch { delay_fraction: 0.3 },
        PolicyKind::GreenMatchWindow { delay_fraction: 1.0, horizon: 12 },
        PolicyKind::GreenMatchCarbon { delay_fraction: 1.0 },
    ];
    let cache = WorldCache::new();
    for policy in policies {
        let cfg = ExperimentConfig::small_demo(7).with_slots(48).with_policy(policy);
        let cold = trace_bytes(&cfg);
        let first = trace_bytes_cached(&cfg, &cache);
        let warm = trace_bytes_cached(&cfg, &cache);
        assert!(!cold.is_empty(), "{policy:?}: trace should contain records");
        assert_eq!(first, cold, "{policy:?}: cache-miss run diverged from cold");
        assert_eq!(warm, cold, "{policy:?}: cache-hit run diverged from cold");
    }
    assert!(cache.hits() > 0, "second runs must have hit the cache");
}

#[test]
fn policy_variants_share_one_cached_world() {
    use greenmatch::policy::PolicyKind;
    use greenmatch::WorldCache;

    let cache = WorldCache::new();
    let a = ExperimentConfig::small_demo(7).with_slots(24);
    let b = a.clone().with_policy(PolicyKind::AllOn);
    let _ = Simulation::builder(&a).cache(&cache).build().expect("a materialises");
    assert_eq!(cache.misses(), 3, "first config builds workload, trace and layout");
    assert_eq!(cache.hits(), 0);
    let _ = Simulation::builder(&b).cache(&cache).build().expect("b materialises");
    assert_eq!(cache.misses(), 3, "policy change must rebuild nothing");
    assert_eq!(cache.hits(), 3, "all three components served from the cache");
}

#[test]
fn shared_scratch_across_runs_does_not_leak_state() {
    use greenmatch::SlotScratch;

    // Two back-to-back runs through ONE scratch must produce the same
    // trace as two fresh runs: the phase pipeline must fully re-clear its
    // buffers, never read stale contents.
    let cfg_a = ExperimentConfig::small_demo(7).with_slots(48);
    let cfg_b = ExperimentConfig::small_demo(11).with_slots(48);
    let fresh_a = trace_bytes(&cfg_a);
    let fresh_b = trace_bytes(&cfg_b);

    let mut scratch = SlotScratch::new();
    let mut shared = Vec::new();
    for cfg in [&cfg_a, &cfg_b] {
        let buf = SharedBuf::default();
        let mut sim = Simulation::builder(cfg)
            .scratch(&mut scratch)
            .observer(Box::new(JsonlTraceObserver::new(buf.clone())))
            .build()
            .expect("config materialises");
        while sim.step().is_some() {}
        let _ = sim.into_report();
        shared.push(buf.contents());
    }
    assert_eq!(shared[0], fresh_a, "shared scratch changed run A");
    assert_eq!(shared[1], fresh_b, "shared scratch changed run B");
}

#[test]
fn every_record_conserves_energy() {
    let cfg = ExperimentConfig::small_demo(99);
    let bytes = trace_bytes(&cfg);
    let text = String::from_utf8(bytes).expect("trace is UTF-8");

    let mut slots_seen = 0usize;
    for (i, line) in text.lines().enumerate() {
        let rec: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("line {} is not JSON: {e}", i + 1));
        let f = |key: &str| -> f64 {
            rec.get(key)
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| panic!("line {} missing numeric field {key:?}", i + 1))
        };

        assert_eq!(
            rec.get("slot").and_then(|v| v.as_u64()),
            Some(i as u64),
            "slots must be contiguous from 0"
        );

        // Consumption side: everything the cluster drew came from somewhere.
        let supplied = f("green_direct_wh") + f("battery_out_wh") + f("grid_wh");
        let load = f("load_wh");
        assert!(
            (supplied - load).abs() <= 1e-6 * load.max(1.0),
            "slot {i}: green_direct + battery_out + grid = {supplied} but load = {load}"
        );

        // Production side: every green Wh was used, stored, or curtailed.
        let produced = f("green_produced_wh");
        let disposed = f("green_direct_wh") + f("battery_in_wh") + f("curtailed_wh");
        assert!(
            (produced - disposed).abs() <= 1e-6 * produced.max(1.0),
            "slot {i}: produced {produced} Wh but accounted for {disposed} Wh"
        );

        // Battery state stays inside its physical envelope.
        let soc = f("battery_soc_frac");
        assert!((0.0..=1.0 + 1e-9).contains(&soc), "slot {i}: SoC fraction {soc} out of range");

        slots_seen += 1;
    }
    assert_eq!(slots_seen, cfg.slots, "one record per slot");
}

#[test]
fn null_observer_does_not_change_the_report() {
    let cfg = ExperimentConfig::small_demo(3).with_slots(72);
    let plain = run_experiment(&cfg);

    let observed = Simulation::builder(&cfg)
        .observer(Box::new(NullObserver))
        .build()
        .expect("config materialises")
        .run_to_end();

    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&observed).unwrap(),
        "NullObserver must be invisible to the report"
    );
}

/// A writer that accepts `budget` bytes, then fails every write and flush.
struct FailingWriter {
    budget: usize,
}

impl Write for FailingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.budget == 0 {
            return Err(std::io::Error::other("disk full"));
        }
        let n = buf.len().min(self.budget);
        self.budget -= n;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.budget == 0 {
            Err(std::io::Error::other("disk full"))
        } else {
            Ok(())
        }
    }
}

#[test]
fn observer_write_errors_are_kept_and_the_run_completes() {
    // The trace writer fails mid-run (on a buffer spill), the CSV writer
    // only at the final flush; neither may abort the run or change it.
    let cfg = ExperimentConfig::small_demo(3).with_slots(72);
    let plain = run_experiment(&cfg);
    let trace = JsonlTraceObserver::new(FailingWriter { budget: 1_000 });
    let csv = CsvSeriesObserver::new(FailingWriter { budget: 100 });
    assert!(trace.error().is_none() && csv.error().is_none());
    let (trace_error, csv_error) = (trace.error_cell(), csv.error_cell());
    let observed = Simulation::builder(&cfg)
        .observer(Box::new(trace))
        .observer(Box::new(csv))
        .build()
        .expect("config materialises")
        .run_to_end();
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&observed).unwrap(),
        "a failing observer must not change the report"
    );
    for (name, cell) in [("trace", trace_error), ("csv", csv_error)] {
        let error = cell.get().unwrap_or_else(|| panic!("{name} observer kept no error"));
        assert_eq!(error.to_string(), "disk full", "{name}");
    }
}

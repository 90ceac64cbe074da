//! The million-stream workload kernel's whole-pipeline contracts.
//!
//! The interval-indexed, shard-parallel generator is a pure performance
//! rebuild: every observable byte must be independent of shard count,
//! thread count and snapshot/resume boundaries.
//! These tests pin each of those equivalences end-to-end, on randomized
//! specs where the property is cheap and on a gated 10⁵-stream population
//! (`--ignored`, run in release by CI) where it is not.

use std::io::Write;
use std::sync::{Arc, Mutex};

use gm_sim::{RngFactory, SlotClock};
use gm_workload::interactive::{InteractiveGenerator, InteractiveSpec};
use gm_workload::trace::{Workload, WorkloadSpec};
use gm_workload::LiveCursor;
use greenmatch::config::ExperimentConfig;
use greenmatch::observe::JsonlTraceObserver;
use greenmatch::policy::PolicyKind;
use greenmatch::simulation::Simulation;
use proptest::test_runner::TestRng;

/// `io::Write` sink whose bytes remain reachable after the simulation
/// that owns the observer is dropped.
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

fn trace_bytes(cfg: &ExperimentConfig) -> Vec<u8> {
    let buf = SharedBuf::default();
    Simulation::builder(cfg)
        .observer(Box::new(JsonlTraceObserver::new(buf.clone())))
        .build()
        .expect("config materialises")
        .run_to_end();
    buf.contents()
}

/// A random but well-formed interactive spec: stream counts spanning the
/// sharding threshold, lifetimes from minutes to days, horizons from one
/// day to a week.
fn random_spec(rng: &mut TestRng) -> InteractiveSpec {
    use gm_sim::time::SimDuration;
    let mut spec = InteractiveSpec::medium_week(1_000 + (rng.next_u64() % 9_000) as usize);
    spec.streams = 1 + (rng.next_u64() % 12_000) as usize;
    spec.mean_lifetime = SimDuration::from_secs(600 + rng.next_u64() % (3 * 86_400));
    // Aggregate ≈ 5–50 req/s regardless of population size, mirroring the
    // constant-volume re-spread contract — keeps synthesis volume sane.
    spec.rate_rps = (5.0 + 45.0 * rng.unit_f64()) / spec.streams as f64;
    spec.diurnal_amplitude = 0.95 * rng.unit_f64();
    spec.horizon = SimDuration::from_days(1 + rng.next_u64() % 7);
    spec
}

#[test]
fn live_cursor_matches_naive_full_scan_on_random_specs() {
    for case in 0..8u32 {
        let mut rng = TestRng::for_case("kernel-cursor-vs-scan", case);
        let spec = random_spec(&mut rng);
        let slots = (spec.horizon.as_hours_f64() as usize + 4).min(176);
        let gen = InteractiveGenerator::new(spec, &RngFactory::new(7 + case as u64));
        let clock = SlotClock::hourly();
        let mut cursor = LiveCursor::new();
        for slot in 0..slots {
            let a = clock.slot_start(slot);
            let b = clock.slot_end(slot);
            // The naive definition the index must reproduce: every stream
            // whose [start, end) intersects [slot start, slot end).
            let naive: Vec<u32> = (0..gen.stream_count() as u32)
                .filter(|&i| {
                    let s = gen.stream(i as usize);
                    s.start < b && s.end > a
                })
                .collect();
            let walked = cursor.advance_to(&gen, clock, slot).to_vec();
            assert_eq!(walked, naive, "case {case}, slot {slot}: cursor diverged");
            let mut stateless = Vec::new();
            gen.live_streams_in_slot(clock, slot, &mut stateless);
            assert_eq!(stateless, naive, "case {case}, slot {slot}: stateless query diverged");
        }
    }
}

#[test]
fn live_cursor_survives_random_seeks() {
    // Resume-by-seek: a cursor advanced along an arbitrary (even
    // backward) slot sequence must equal a fresh walk at every stop.
    for case in 0..4u32 {
        let mut rng = TestRng::for_case("kernel-cursor-seek", case);
        let spec = random_spec(&mut rng);
        let gen = InteractiveGenerator::new(spec, &RngFactory::new(100 + case as u64));
        let clock = SlotClock::hourly();
        let mut cursor = LiveCursor::new();
        for _ in 0..40 {
            let slot = (rng.next_u64() % 180) as usize;
            let jumped = cursor.advance_to(&gen, clock, slot).to_vec();
            let mut stateless = Vec::new();
            gen.live_streams_in_slot(clock, slot, &mut stateless);
            assert_eq!(jumped, stateless, "case {case}: seek to slot {slot} diverged");
        }
    }
}

#[test]
fn synthesis_is_shard_invariant_on_random_specs() {
    for case in 0..4u32 {
        let mut rng = TestRng::for_case("kernel-shard-invariance", case);
        let mut spec = WorkloadSpec::medium_week(5_000);
        spec.interactive = random_spec(&mut rng);
        let workload = Workload::generate(spec, 40 + case as u64);
        let clock = SlotClock::hourly();
        for slot in [0usize, 9, 25, 80] {
            let one = workload.synthesize_slot_requests(clock, slot, 1);
            for shards in [2usize, 3, 5, 16] {
                let many = workload.synthesize_slot_requests(clock, slot, shards);
                assert_eq!(one, many, "case {case}, slot {slot}: {shards} shards diverged");
            }
        }
    }
}

#[test]
fn snapshot_resume_is_byte_identical_with_respread_streams() {
    // The live cursor is derived state: a snapshot carries no stream
    // cursor at all, and the resumed run must re-seek and emit exactly
    // the bytes of the uninterrupted run — here with the population
    // re-spread over 8× the default stream count so the resume point
    // lands mid-lifetime for thousands of sessions.
    let mut cfg = ExperimentConfig::small_demo(21)
        .with_slots(48)
        .with_policy(PolicyKind::GreenMatch { delay_fraction: 1.0 });
    cfg.workload = cfg.workload.with_interactive_streams(1_600);

    let cold = trace_bytes(&cfg);
    assert!(!cold.is_empty());

    let mut sim = Simulation::builder(&cfg).build().expect("config materialises");
    for _ in 0..20 {
        sim.step().expect("prefix shorter than the run");
    }
    let snap = greenmatch::Snapshot::from_json(&sim.snapshot().to_json())
        .expect("snapshot survives JSON round-trip");

    let buf = SharedBuf::default();
    Simulation::builder(&cfg)
        .resume_from(&snap)
        .observer(Box::new(JsonlTraceObserver::new(buf.clone())))
        .build()
        .expect("snapshot restores")
        .run_to_end();
    let resumed = buf.contents();

    let cold_tail: Vec<u8> = {
        // Trace lines are 1:1 with slots; keep the last 28 lines (slots
        // 20..48) of the cold trace.
        let text = String::from_utf8(cold).expect("trace is utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 48, "one record per slot");
        lines[20..].join("\n").into_bytes()
    };
    let resumed_text = String::from_utf8(resumed).expect("trace is utf-8");
    assert_eq!(resumed_text.trim_end().as_bytes(), &cold_tail[..], "resumed tail diverged");
}

/// Gated scale proof (CI runs `--ignored` in release): a 10⁵-stream
/// population stays shard-invariant and the cursor walk stays exact.
#[test]
#[ignore = "10^5-stream scale check; run with --ignored in release"]
fn hundred_thousand_stream_population_is_shard_invariant() {
    let cfg = ExperimentConfig::medium(42);
    let spec = cfg.workload.with_interactive_streams(100_000);
    let workload = Workload::generate(spec, cfg.seed);
    let clock = cfg.clock;
    let gen = workload.interactive();

    let mut cursor = LiveCursor::new();
    for slot in [0usize, 1, 2, 47, 48, 100, 167] {
        let walked = cursor.advance_to(gen, clock, slot).to_vec();
        let mut stateless = Vec::new();
        gen.live_streams_in_slot(clock, slot, &mut stateless);
        assert_eq!(walked, stateless, "slot {slot}: cursor diverged at 10^5 streams");

        let one = workload.synthesize_slot_requests(clock, slot, 1);
        for shards in [4usize, 32] {
            let many = workload.synthesize_slot_requests(clock, slot, shards);
            assert_eq!(one, many, "slot {slot}: {shards} shards diverged at 10^5 streams");
        }
    }
}

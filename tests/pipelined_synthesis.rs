//! Pipelined slot synthesis: Execute begins slot t+1's request batch on
//! the work pool before it finishes slot t's, so the next slot is
//! synthesised while this one is served. These tests pin that the overlap
//! is invisible: a cold world stepped pipelined, a pre-warmed world and
//! two simulations racing over one shared cold world all emit the same
//! trace bytes, and a simulation dropped with a batch in flight neither
//! hangs nor memoises a half-built batch.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gm_sim::SimDuration;
use greenmatch::config::ExperimentConfig;
use greenmatch::observe::JsonlTraceObserver;
use greenmatch::simulation::Simulation;
use greenmatch::World;

/// `io::Write` sink whose bytes remain reachable after the simulation
/// that owns the observer is dropped.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Live streams from which a slot's synthesis is split into shards.
const SHARDED_LIVE: usize = 8_192;

/// The small demo over 20 000 two-week sessions that all start within the
/// first two days: a few hundred live streams in slot 0, well over
/// [`SHARDED_LIVE`] by the end, so both one-shard and many-shard slots are
/// pipelined. The rate is cut tenfold to keep the debug-build run short.
fn cfg() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::small_demo(21).with_slots(48);
    cfg.workload = cfg.workload.with_interactive_streams(20_000);
    let spec = &mut cfg.workload.interactive;
    spec.mean_lifetime = SimDuration::from_days(14);
    spec.horizon = SimDuration::from_days(2);
    spec.rate_rps /= 10.0;
    cfg
}

fn cold_world(cfg: &ExperimentConfig) -> World {
    World::try_materialize(cfg).expect("config materialises")
}

fn trace_over(cfg: &ExperimentConfig, world: World) -> Vec<u8> {
    let buf = SharedBuf::default();
    Simulation::builder(cfg)
        .world(world)
        .observer(Box::new(JsonlTraceObserver::new(buf.clone())))
        .build()
        .expect("world matches config")
        .run_to_end();
    let bytes = buf.0.lock().unwrap().clone();
    assert_eq!(bytes.iter().filter(|&&b| b == b'\n').count(), cfg.slots, "one line per slot");
    bytes
}

fn live_in(world: &World, cfg: &ExperimentConfig, slot: usize) -> Vec<u32> {
    let mut live = Vec::new();
    world.workload.interactive().live_streams_in_slot(cfg.clock, slot, &mut live);
    live
}

#[test]
fn cold_pipelined_run_matches_a_prewarmed_world() {
    let cfg = cfg();
    let cold = cold_world(&cfg);
    assert!(live_in(&cold, &cfg, 0).len() < SHARDED_LIVE);
    assert!(live_in(&cold, &cfg, cfg.slots - 1).len() > SHARDED_LIVE);
    let pipelined = trace_over(&cfg, cold);

    let warm = cold_world(&cfg);
    for slot in 0..cfg.slots {
        warm.workload.slot_batch(cfg.clock, slot);
    }
    assert_eq!(pipelined, trace_over(&cfg, warm), "pipelined trace diverged");
}

#[test]
fn two_runs_racing_over_one_cold_world_match_a_lone_run() {
    let cfg = cfg();
    let lone = trace_over(&cfg, cold_world(&cfg));
    let shared = cold_world(&cfg);
    let raced: Vec<Vec<u8>> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let (cfg, world) = (&cfg, shared.clone());
                s.spawn(move || trace_over(cfg, world))
            })
            .collect();
        runs.into_iter().map(|run| run.join().expect("run completes")).collect()
    });
    for (i, trace) in raced.iter().enumerate() {
        assert_eq!(trace, &lone, "racing run {i} diverged");
    }
}

#[test]
fn dropping_a_run_with_a_batch_in_flight_returns_promptly() {
    let cfg = cfg();
    let world = cold_world(&cfg);
    let mut sim = Simulation::builder(&cfg).world(world.clone()).build().expect("builds");
    let stop = cfg.slots - 8;
    for _ in 0..stop {
        sim.step().expect("inside the horizon");
    }
    // The last step served slot `stop - 1`; its Execute began slot
    // `stop`'s batch, which is still in flight.
    let started = Instant::now();
    drop(sim);
    assert!(started.elapsed() < Duration::from_secs(10), "drop took {:?}", started.elapsed());
    let live = live_in(&world, &cfg, stop);
    assert!(live.len() > SHARDED_LIVE);
    let pending = world.workload.begin_slot_batch(cfg.clock, stop, &live);
    assert!(pending.is_some(), "the dropped run memoised no batch for slot {stop}");
}

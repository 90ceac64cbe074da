//! Million-stream scaling proof for the interval-indexed workload kernel.
//!
//! Every group sweeps the interactive population over {1k, 10k, 100k, 1M}
//! sessions via [`WorkloadSpec::with_interactive_streams`], which re-spreads
//! the *same* aggregate request volume (the medium week's ≈ 7.1 M requests)
//! over more, proportionally quieter streams. That isolates exactly the
//! claim under test: per-slot cost must track the **live** stream set and
//! the request count, not the total population — so the curves should stay
//! near-flat (sub-linear in total streams) while a naive full-scan
//! generator would grow ×1000 from the first point to the last.
//!
//! - `mega_cursor_walk`: live-set maintenance alone — a [`LiveCursor`]
//!   advanced across the whole week, no synthesis. This is the pure
//!   activation-index cost (amortised O(total) for the week, O(live churn)
//!   per slot).
//! - `mega_slot_synthesis`: the simulation hot path — cursor advance plus
//!   per-stream keyed synthesis into a buffer cleared and reused every
//!   slot, across one week.
//! - `mega_generate`: cold population build (oversample + thin + sort +
//!   block index), the one genuinely O(total) step, paid once per world.
//! - `mega_week_e2e`: the headline number — a full week-long
//!   single-policy run at 10⁶ streams, cold world each iteration (the
//!   acceptance bound is ≤ 60 s; see `BENCH_sweep.json`).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gm_workload::trace::Workload;
use gm_workload::LiveCursor;
use greenmatch::config::ExperimentConfig;
use greenmatch::simulation::Simulation;

const STREAM_COUNTS: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];

/// The medium week re-spread over `streams` sessions (constant volume).
fn workload_at(streams: usize) -> (Workload, gm_sim::SlotClock, usize) {
    let cfg = ExperimentConfig::medium(42);
    let spec = cfg.workload.with_interactive_streams(streams);
    (Workload::generate(spec, cfg.seed), cfg.clock, cfg.slots)
}

fn bench_cursor_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("mega_cursor_walk");
    for streams in STREAM_COUNTS {
        let (workload, clock, slots) = workload_at(streams);
        let gen = workload.interactive();
        group.bench_with_input(BenchmarkId::new("streams", streams), &streams, |b, _| {
            b.iter(|| {
                let mut cursor = LiveCursor::new();
                let mut live_total = 0usize;
                for slot in 0..slots {
                    live_total += cursor.advance_to(gen, clock, slot).len();
                }
                black_box(live_total)
            })
        });
    }
    group.finish();
}

fn bench_slot_synthesis(c: &mut Criterion) {
    let mut group = c.benchmark_group("mega_slot_synthesis");
    group.sample_size(10);
    for streams in STREAM_COUNTS {
        let (workload, clock, slots) = workload_at(streams);
        let gen = workload.interactive();
        group.bench_with_input(BenchmarkId::new("streams", streams), &streams, |b, _| {
            let mut out = Vec::new();
            b.iter(|| {
                let mut cursor = LiveCursor::new();
                let mut requests = 0usize;
                for slot in 0..slots {
                    let live: Vec<u32> = cursor.advance_to(gen, clock, slot).to_vec();
                    out.clear();
                    gen.synthesize_streams_into(clock, slot, &live, &mut out);
                    requests += out.len();
                }
                black_box(requests)
            })
        });
    }
    group.finish();
}

fn bench_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("mega_generate");
    group.sample_size(10);
    for streams in STREAM_COUNTS {
        group.bench_with_input(BenchmarkId::new("streams", streams), &streams, |b, &n| {
            b.iter(|| black_box(workload_at(n).0.summary().streams))
        });
    }
    group.finish();
}

fn bench_week_e2e(c: &mut Criterion) {
    let mut group = c.benchmark_group("mega_week_e2e");
    group.sample_size(10);
    group.bench_function("greenmatch_1m_cold", |b| {
        b.iter(|| {
            // Cold world every iteration: generation + synthesis + the
            // whole slot loop are all inside the measurement, matching
            // what `run_once --preset mega` pays.
            let cfg = ExperimentConfig::mega(42);
            let sim = Simulation::builder(&cfg).build().expect("mega config materialises");
            black_box(sim.run_to_end().brown_kwh)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cursor_walk, bench_slot_synthesis, bench_generate, bench_week_e2e);
criterion_main!(benches);

//! Scaling of the min-cost-flow matcher with job count and horizon — the
//! per-slot planning cost a deployment would pay. Every solve rebuilds
//! its network, so the numbers are those of a from-scratch solve.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gm_storage::ClusterSpec;
use gm_workload::JobId;
use greenmatch::matcher::{MatchInput, Matcher};
use greenmatch::policy::{JobView, PlanningModel, SiteView};

fn jobs(n: usize) -> Vec<JobView> {
    (0..n)
        .map(|i| JobView {
            id: JobId(i as u64),
            remaining_bytes: ((i % 37 + 1) as u64) << 32, // 4–148 GiB
            deadline_slot: i % 30,
            critical: false,
            home_only: false,
        })
        .collect()
}

fn green(h: usize) -> Vec<f64> {
    (0..h).map(|t| if (8..18).contains(&(t % 24)) { 3_000.0 } else { 0.0 }).collect()
}

fn bench_matcher(c: &mut Criterion) {
    let model = PlanningModel::from_spec(&ClusterSpec::medium_dc());
    let mut group = c.benchmark_group("matcher_solve");
    for n_jobs in [10usize, 100, 1_000] {
        for horizon in [6usize, 24, 48] {
            let js = jobs(n_jobs);
            let g = green(horizon);
            let busy = vec![500.0; horizon];
            let mut matcher = Matcher::new();
            group.bench_with_input(
                BenchmarkId::new(format!("jobs{n_jobs}"), horizon),
                &horizon,
                |b, _| {
                    b.iter(|| {
                        let home =
                            [SiteView { green_forecast_wh: &g, model, wan_cost_per_unit: 0 }];
                        let input = MatchInput {
                            jobs: &js,
                            current_slot: 0,
                            horizon,
                            sites: &home,
                            interactive_busy_secs: &busy,
                            slot_secs: 3600.0,
                            brown_cost_per_slot: None,
                        };
                        black_box(matcher.solve(&input).bytes_now)
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_matcher);
criterion_main!(benches);

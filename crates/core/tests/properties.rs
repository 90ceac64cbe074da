//! Property tests for the core algorithms: min-cost-flow optimality
//! against brute force, matcher plan validity, and EDF-fill invariants.

use gm_storage::ClusterSpec;
use gm_workload::JobId;
use greenmatch::matcher::{MatchInput, Matcher, UNIT_BYTES};
use greenmatch::mincostflow::MinCostFlow;
use greenmatch::policy::{edf_fill, JobView, PlanningModel, SiteView};
use proptest::prelude::*;

/// Brute-force minimum cost for a 2-supplier × 2-consumer transportation
/// instance with unit-granular flow.
fn brute_force_2x2(supply: [i64; 2], demand: [i64; 2], cost: [[i64; 2]; 2]) -> Option<i64> {
    let mut best: Option<i64> = None;
    for a00 in 0..=supply[0].min(demand[0]) {
        for a01 in 0..=(supply[0] - a00).min(demand[1]) {
            let need0 = demand[0] - a00;
            let need1 = demand[1] - a01;
            if need0 > supply[1] || need1 > supply[1] - need0.max(0) {
                continue;
            }
            if need0 < 0 || need1 < 0 {
                continue;
            }
            let c = a00 * cost[0][0] + a01 * cost[0][1] + need0 * cost[1][0] + need1 * cost[1][1];
            best = Some(best.map_or(c, |b: i64| b.min(c)));
        }
    }
    best
}

proptest! {
    #[test]
    fn mcmf_matches_brute_force_on_2x2(
        s0 in 1i64..8, s1 in 1i64..8,
        d0 in 1i64..8, d1 in 1i64..8,
        c00 in 0i64..20, c01 in 0i64..20, c10 in 0i64..20, c11 in 0i64..20,
    ) {
        prop_assume!(s0 + s1 >= d0 + d1); // fully satisfiable instances only
        let supply = [s0, s1];
        let demand = [d0, d1];
        let cost = [[c00, c01], [c10, c11]];
        let Some(expect) = brute_force_2x2(supply, demand, cost) else {
            return Ok(());
        };

        let mut g = MinCostFlow::new(6);
        for (i, &s) in supply.iter().enumerate() {
            g.add_edge(0, 1 + i, s, 0);
        }
        #[allow(clippy::needless_range_loop)] // index pairs mirror the math
        for i in 0..2 {
            for j in 0..2 {
                g.add_edge(1 + i, 3 + j, 100, cost[i][j]);
            }
        }
        for (j, &d) in demand.iter().enumerate() {
            g.add_edge(3 + j, 5, d, 0);
        }
        let r = g.solve(0, 5, d0 + d1);
        prop_assert_eq!(r.flow, d0 + d1);
        prop_assert_eq!(r.cost, expect, "SSP must be optimal");
    }

    #[test]
    fn mcmf_flow_never_exceeds_cut(
        caps in proptest::collection::vec(0i64..50, 1..8)
    ) {
        // Chain graph: flow limited by the minimum capacity.
        let n = caps.len() + 1;
        let mut g = MinCostFlow::new(n);
        for (i, &c) in caps.iter().enumerate() {
            g.add_edge(i, i + 1, c, 1);
        }
        let r = g.solve(0, n - 1, i64::MAX / 4);
        let min_cap = *caps.iter().min().expect("non-empty");
        prop_assert_eq!(r.flow, min_cap);
        prop_assert_eq!(r.cost, min_cap * caps.len() as i64);
    }

    #[test]
    fn matcher_plan_accounts_for_all_work(
        jobs in proptest::collection::vec((1u64..64, 0usize..40), 1..20),
        green_slots in proptest::collection::vec(0.0f64..4_000.0, 1..16),
        busy in 0.0f64..8_000.0,
    ) {
        let model = PlanningModel::from_spec(&ClusterSpec::small());
        let views: Vec<JobView> = jobs
            .iter()
            .enumerate()
            .map(|(i, (gib, dl))| JobView {
                id: JobId(i as u64),
                remaining_bytes: gib << 30,
                deadline_slot: *dl,
                critical: false,
                home_only: false,
            })
            .collect();
        let h = green_slots.len();
        let busy_vec = vec![busy; h];
        let home = [SiteView { green_forecast_wh: &green_slots, model, wan_cost_per_unit: 0 }];
        let input = MatchInput {
            jobs: &views,
            current_slot: 0,
            horizon: h,
            sites: &home,
            interactive_busy_secs: &busy_vec,
            slot_secs: 3600.0,
            brown_cost_per_slot: None,
        };
        let mut matcher = Matcher::new();
        let stats = matcher.solve(&input);

        // Unit-rounded totals must balance exactly.
        let requested_units: u64 =
            views.iter().map(|j| j.remaining_bytes.div_ceil(UNIT_BYTES)).sum();
        let placed: u64 = matcher.per_slot_bytes().iter().sum::<u64>()
            + stats.deferred_bytes
            + stats.infeasible_bytes;
        prop_assert_eq!(placed, requested_units * UNIT_BYTES, "all work accounted");
        prop_assert_eq!(
            stats.green_bytes + stats.brown_bytes,
            matcher.per_slot_bytes().iter().sum::<u64>(),
            "in-window split is exact"
        );

        // Per-slot capacity respected.
        for (t, &bytes) in matcher.per_slot_bytes().iter().enumerate() {
            let cap = model.batch_capacity_bytes(model.gears, busy, 3600.0);
            prop_assert!(bytes <= cap + UNIT_BYTES, "slot {t}: {bytes} > cap {cap}");
        }
        prop_assert!(stats.cost >= 0);
    }

    #[test]
    fn matcher_green_monotone_in_forecast(
        jobs_gib in 1u64..256,
        wh in 0.0f64..3_000.0,
    ) {
        let model = PlanningModel::from_spec(&ClusterSpec::small());
        let views = vec![JobView {
            id: JobId(0),
            remaining_bytes: jobs_gib << 30,
            deadline_slot: 100,
            critical: false,
            home_only: false,
        }];
        let busy = vec![0.0; 6];
        let run = |green: f64| {
            let g = vec![green; 6];
            let home = [SiteView { green_forecast_wh: &g, model, wan_cost_per_unit: 0 }];
            let input = MatchInput {
                jobs: &views,
                current_slot: 0,
                horizon: 6,
                sites: &home,
                interactive_busy_secs: &busy,
                slot_secs: 3600.0,
                brown_cost_per_slot: None,
            };
            Matcher::new().solve(&input).green_bytes
        };
        prop_assert!(run(wh + 500.0) >= run(wh), "more green never reduces green placement");
    }

    #[test]
    fn edf_fill_never_exceeds_capacity_or_remaining(
        jobs in proptest::collection::vec((0u64..1_000_000, 0usize..50), 0..30),
        capacity in 0u64..10_000_000,
    ) {
        let views: Vec<JobView> = jobs
            .iter()
            .enumerate()
            .map(|(i, (bytes, dl))| JobView {
                id: JobId(i as u64),
                remaining_bytes: *bytes,
                deadline_slot: *dl,
                critical: false,
                home_only: false,
            })
            .collect();
        let fill = edf_fill(&views.clone().into(), capacity);
        let total: u64 = fill.iter().map(|(_, _, b)| b).sum();
        prop_assert!(total <= capacity);
        for (site, id, bytes) in &fill {
            prop_assert_eq!(*site, 0, "EDF fills the home site");
            let j = views.iter().find(|j| j.id == *id).expect("filled job exists");
            prop_assert!(*bytes <= j.remaining_bytes);
            prop_assert!(*bytes > 0, "no empty assignments");
        }
        // EDF order: deadlines non-decreasing along the fill.
        let deadlines: Vec<usize> = fill
            .iter()
            .map(|(_, id, _)| views.iter().find(|j| j.id == *id).expect("exists").deadline_slot)
            .collect();
        prop_assert!(deadlines.windows(2).all(|w| w[0] <= w[1]));
    }
}

//! Property tests for the simulation kernel's core data structures.

use gm_sim::dist::Zipf;
use gm_sim::time::SimDuration;
use gm_sim::{LogHistogram, SlotClock, StreamingStats, TimeSeries};
use proptest::prelude::*;

proptest! {
    #[test]
    fn histogram_quantiles_are_monotone_and_bounded(
        values in proptest::collection::vec(1e-6f64..1e3, 1..500)
    ) {
        let mut h = LogHistogram::for_latency_secs();
        for &v in &values {
            h.record(v);
        }
        let max = values.iter().copied().fold(0.0, f64::max);
        let mut prev = 0.0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let x = h.quantile(q);
            prop_assert!(x >= prev - 1e-12, "quantiles monotone in q");
            prop_assert!(x <= max + 1e-12, "quantile never exceeds max");
            prev = x;
        }
        prop_assert_eq!(h.quantile(1.0), max);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((h.mean() - mean).abs() < 1e-9 * values.len() as f64);
    }

    #[test]
    fn histogram_quantile_never_under_estimates(
        values in proptest::collection::vec(1e-7f64..1e4, 1..400),
        bpd in 1u32..30,
    ) {
        // The documented contract: a quantile estimate is the upper bound
        // of the bucket holding the target observation, so it may never be
        // below the exact order statistic and may exceed it by at most one
        // bucket width (one geometric factor), or sit in the floor bucket.
        let factor = 10f64.powf(1.0 / bpd as f64);
        let mut values = values;
        // Salt the sample with values exactly on bucket edges — the
        // historical failure mode of the split ln/powi bucket mapping.
        for k in [1i32, 2, 7, 40, 100] {
            values.push(1e-6 * factor.powi(k));
        }
        let mut h = LogHistogram::new(1e-6, bpd);
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.01, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let target = ((q * sorted.len() as f64).ceil() as usize).max(1);
            let exact = sorted[target - 1];
            let est = h.quantile(q);
            prop_assert!(est >= exact, "q={}: est {} under-estimates exact {}", q, est, exact);
            let bound = (exact * factor).max(1e-6) * (1.0 + 1e-12);
            prop_assert!(est <= bound, "q={}: est {} > one bucket over exact {}", q, est, exact);
        }
    }

    #[test]
    fn histogram_merge_matches_sequential(
        a in proptest::collection::vec(1e-6f64..1e2, 0..200),
        b in proptest::collection::vec(1e-6f64..1e2, 0..200),
    ) {
        let mut ha = LogHistogram::for_latency_secs();
        let mut hb = LogHistogram::for_latency_secs();
        let mut hall = LogHistogram::for_latency_secs();
        for &v in &a { ha.record(v); hall.record(v); }
        for &v in &b { hb.record(v); hall.record(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hall.count());
        for q in [0.1, 0.5, 0.9] {
            prop_assert_eq!(ha.quantile(q).to_bits(), hall.quantile(q).to_bits());
        }
    }

    #[test]
    fn streaming_stats_merge_matches_sequential(
        a in proptest::collection::vec(-1e3f64..1e3, 0..200),
        b in proptest::collection::vec(-1e3f64..1e3, 0..200),
    ) {
        let mut sa = StreamingStats::new();
        let mut sb = StreamingStats::new();
        let mut sall = StreamingStats::new();
        for &v in &a { sa.record(v); sall.record(v); }
        for &v in &b { sb.record(v); sall.record(v); }
        sa.merge(&sb);
        prop_assert_eq!(sa.count(), sall.count());
        prop_assert!((sa.mean() - sall.mean()).abs() < 1e-6);
        prop_assert!((sa.variance() - sall.variance()).abs() < 1e-3);
    }

    #[test]
    fn timeseries_surplus_deficit_decompose(
        g in proptest::collection::vec(0.0f64..1e4, 1..100),
        w in proptest::collection::vec(0.0f64..1e4, 1..100),
    ) {
        let clock = SlotClock::hourly();
        let n = g.len().max(w.len());
        let gs = TimeSeries::from_values(clock, g);
        let ws = TimeSeries::from_values(clock, w);
        let surplus = gs.surplus_over(&ws);
        let deficit = ws.surplus_over(&gs);
        for s in 0..n {
            // g - w == surplus - deficit, and at most one side is nonzero.
            let diff = gs.get(s) - ws.get(s);
            prop_assert!((surplus.get(s) - deficit.get(s) - diff).abs() < 1e-9);
            prop_assert!(surplus.get(s) == 0.0 || deficit.get(s) == 0.0);
            prop_assert!(surplus.get(s) >= 0.0 && deficit.get(s) >= 0.0);
        }
    }

    #[test]
    fn timeseries_energy_is_linear(
        v in proptest::collection::vec(0.0f64..1e4, 1..100),
        k in 0.0f64..10.0,
    ) {
        let clock = SlotClock::hourly();
        let ts = TimeSeries::from_values(clock, v);
        prop_assert!((ts.scaled(k).energy_wh() - ts.energy_wh() * k).abs() < 1e-6);
        prop_assert!((ts.plus(&ts).energy_wh() - 2.0 * ts.energy_wh()).abs() < 1e-6);
    }

    #[test]
    fn downsample_preserves_energy_for_exact_multiples(
        v in proptest::collection::vec(0.0f64..1e4, 1..25),
    ) {
        // 4 fine slots per coarse slot, padded to an exact multiple.
        let mut v = v;
        while v.len() % 4 != 0 {
            v.push(0.0);
        }
        let fine = SlotClock::new(SimDuration::from_mins(15));
        let ts = TimeSeries::from_values(fine, v);
        let coarse = ts.downsample_to(SlotClock::hourly());
        prop_assert!((coarse.energy_wh() - ts.energy_wh()).abs() < 1e-6);
    }

    #[test]
    fn zipf_pmf_is_normalised_and_monotone(n in 1usize..300, s in 0.0f64..2.0) {
        let z = Zipf::new(n, s);
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for k in 1..n {
            prop_assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12, "pmf monotone non-increasing");
        }
    }
}

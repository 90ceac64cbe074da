//! The one-pass tier classifier against its three-pass oracle.
//!
//! The oracle is the classifier the fused pass replaced: an observe and
//! classify pass over every object, then a demotion scan and a promotion
//! scan, with the in-flight count taken over the migration flags. Two
//! clusters driven through the same slots — random per-object hits,
//! budgets of 0, 1, a few and more than the object count, cold targets in
//! (0, 1], random migration completions and the odd snapshot resume —
//! must return equal `TierStep`s and hold bit-equal rates, equal
//! temperatures, equal in-flight counts and equal snapshots after every
//! slot.

use super::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

impl Cluster {
    /// The three-pass classifier, reading the same tier state.
    fn oracle_tier_step(&mut self, hours: f64, max_migrations: usize) -> TierStep {
        let Some(t) = &mut self.tiering else {
            return TierStep::default();
        };
        let mut out = TierStep::default();
        for obj in 0..t.hits.len() {
            t.estimator.observe(obj, t.hits[obj], hours);
            t.hits[obj] = 0;
            t.temp[obj] = t.estimator.classify(obj, t.temp[obj]);
            match t.temp[obj] {
                Temperature::Hot => out.hot += 1,
                Temperature::Warm => out.warm += 1,
                Temperature::Cold => out.cold += 1,
            }
        }
        let spec = &self.layout.spec;
        let size = spec.object_size_bytes;
        let shard_bytes = size.div_ceil(t.k as u64);
        let ec_stored = (t.k + t.m) as u64 * shard_bytes;
        let ceiling = (t.cold_fraction_target * spec.objects as f64).floor() as usize;
        let mut cold_footprint = t.ec.len() + t.migrating.iter().filter(|&&f| f).count();
        for obj in 0..t.temp.len() {
            if out.demote.len() >= max_migrations || cold_footprint >= ceiling {
                break;
            }
            if t.temp[obj] == Temperature::Cold && !t.migrating[obj] && !t.ec.contains(obj) {
                t.migrating[obj] = true;
                cold_footprint += 1;
                out.demote.push(obj as u32);
                out.demote_bytes += size + ec_stored;
            }
        }
        for obj in 0..t.temp.len() {
            if out.promote.len() >= max_migrations {
                break;
            }
            if t.temp[obj] == Temperature::Hot && !t.migrating[obj] && t.ec.contains(obj) {
                t.migrating[obj] = true;
                out.promote.push(obj as u32);
                out.promote_bytes += t.k as u64 * shard_bytes + spec.replication as u64 * size;
            }
        }
        // The oracle keeps no counter of its own; `complete_migration`
        // decrements the shared one, so derive it from the flags.
        t.in_flight = t.migrating.iter().filter(|&&f| f).count();
        out
    }

    fn tier_state(&self) -> (Vec<u64>, Vec<Temperature>, usize) {
        let t = self.tiering.as_ref().expect("tiering on");
        let rates = t.estimator.rate.iter().map(|r| r.to_bits()).collect();
        (rates, t.temp.clone(), self.migrations_in_flight())
    }
}

fn snapshot_json(c: &Cluster) -> String {
    serde_json::to_string(&c.snapshot()).expect("snapshot serialises")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn one_pass_matches_the_three_pass_oracle(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut spec = ClusterSpec::small();
        spec.objects = rng.gen_range(1..400usize);
        let objects = spec.objects;
        let layout = Arc::new(ClusterLayout::new(spec));
        let cold_target = 1.0 - rng.gen_range(0.0..1.0f64);
        let (k, m) = if rng.gen_bool(0.5) { (4, 2) } else { (2, 1) };
        let alpha = [0.1, 0.3, 0.7, 1.0][rng.gen_range(0..4usize)];
        let params = EwmaParams { alpha, ..EwmaParams::default() };
        let hours = [1.0, 0.25, 4.0][rng.gen_range(0..3usize)];
        const ORACLE: usize = 1;
        let mut clusters: Vec<Cluster> = (0..2)
            .map(|_| {
                let mut c = Cluster::from_layout(Arc::clone(&layout));
                c.enable_tiering(params, cold_target, k, m);
                c
            })
            .collect();
        // Each object's typical hits per hour; a per-slot factor swings the
        // whole fleet between idle nights and busy days.
        let weight: Vec<f64> =
            (0..objects).map(|_| [0.0, 0.5, 3.0, 12.0][rng.gen_range(0..4usize)]).collect();
        let mut pending: Vec<(Vec<u32>, bool)> = Vec::new();
        for slot in 0..rng.gen_range(6..40usize) {
            let factor = [0.0, 0.0, 0.5, 1.0, 2.0][rng.gen_range(0..5usize)];
            let hits: Vec<u32> = weight
                .iter()
                .map(|&w| {
                    let mean = w * factor * hours;
                    if mean > 0.0 { rng.gen_range(0..(2.0 * mean) as u32 + 1) } else { 0 }
                })
                .collect();
            let budget = match rng.gen_range(0..4u32) {
                0 => 0,
                1 => 1,
                2 => rng.gen_range(2..8usize),
                _ => objects + rng.gen_range(1..10usize),
            };
            let mut steps = Vec::new();
            for (i, c) in clusters.iter_mut().enumerate() {
                c.tiering.as_mut().expect("tiering on").hits.copy_from_slice(&hits);
                steps.push(if i == ORACLE {
                    c.oracle_tier_step(hours, budget)
                } else {
                    c.tier_step(hours, budget)
                });
            }
            prop_assert_eq!(&steps[0], &steps[ORACLE], "tier step of slot {}", slot);
            let step = steps.swap_remove(0);
            for (objs, demote) in [(step.demote, true), (step.promote, false)] {
                if !objs.is_empty() {
                    pending.push((objs, demote));
                }
            }
            // Complete some in-flight migrations, whole or in part.
            let mut i = 0;
            while i < pending.len() {
                if rng.gen_bool(0.4) {
                    let (objs, demote) = &mut pending[i];
                    let cut = if rng.gen_bool(0.7) { objs.len() } else { rng.gen_range(0..objs.len()) };
                    let done: Vec<u32> = objs.drain(..cut).collect();
                    let demote = *demote;
                    let moved: Vec<(u64, u64)> =
                        clusters.iter_mut().map(|c| c.complete_migration(&done, demote)).collect();
                    prop_assert_eq!(moved[0], moved[ORACLE], "bytes moved in slot {}", slot);
                    if pending[i].0.is_empty() {
                        pending.swap_remove(i);
                        continue;
                    }
                }
                i += 1;
            }
            if rng.gen_bool(0.2) {
                let mut resumed = Cluster::from_layout(Arc::clone(&layout));
                resumed.enable_tiering(params, cold_target, k, m);
                resumed.restore_state(&clusters[0].snapshot()).map_err(|e| e.to_string())?;
                clusters[0] = resumed;
            }
            let (rates, temps, in_flight) = clusters[0].tier_state();
            let (oracle_rates, oracle_temps, oracle_in_flight) = clusters[ORACLE].tier_state();
            prop_assert!(rates == oracle_rates, "rates diverged at slot {}", slot);
            prop_assert_eq!(temps, oracle_temps, "temperatures at slot {}", slot);
            prop_assert_eq!(in_flight, oracle_in_flight, "in-flight count at slot {}", slot);
            prop_assert!(
                snapshot_json(&clusters[0]) == snapshot_json(&clusters[ORACLE]),
                "snapshots diverged at slot {}", slot
            );
        }
    }
}

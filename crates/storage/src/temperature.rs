//! Temperature classification for tiered storage.
//!
//! Production blobstores track per-extent access temperature and keep hot
//! data on replication while migrating cold data to erasure coding. This
//! module supplies the classifier half: per-object access-rate estimation
//! (EWMA over serve hits, folded once per slot) and a hot/warm/cold
//! classification with hysteresis so objects do not flap across the
//! migration boundary.
//!
//! The estimator is behind a small trait shaped like a hidden-state filter
//! (`observe` new evidence, then `classify` the latent temperature), so a
//! genuine HMM posterior can replace the EWMA without touching callers.

use serde::{Deserialize, Serialize};

/// Latent access temperature of an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Temperature {
    /// Recently and frequently read: keep on replication.
    Hot,
    /// In the hysteresis band: stay wherever it is.
    Warm,
    /// Access rate below the cold threshold: eligible for erasure coding.
    Cold,
}

/// Parameters of the EWMA classifier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EwmaParams {
    /// Per-slot smoothing factor in (0, 1]; higher reacts faster.
    pub alpha: f64,
    /// Rate (hits/hour) at or above which an object turns hot.
    pub hot_rate: f64,
    /// Rate (hits/hour) at or below which an object turns cold.
    pub cold_rate: f64,
}

impl EwmaParams {
    /// Check the classifier: `alpha ∈ (0, 1]` and finite thresholds with
    /// `0 ≤ cold_rate < hot_rate` (the hysteresis band, whose geometric
    /// mean seeds every object's rate).
    pub fn validate(&self) -> Result<(), String> {
        let EwmaParams { alpha, hot_rate, cold_rate } = *self;
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(format!("ewma.alpha = {alpha}, expected a value in (0, 1]"));
        }
        if !(hot_rate.is_finite()
            && cold_rate.is_finite()
            && 0.0 <= cold_rate
            && cold_rate < hot_rate)
        {
            return Err(format!(
                "ewma: hysteresis needs finite 0 <= cold_rate ({cold_rate}) < hot_rate ({hot_rate})"
            ));
        }
        Ok(())
    }
}

impl Default for EwmaParams {
    fn default() -> Self {
        EwmaParams { alpha: 0.3, hot_rate: 2.0, cold_rate: 0.2 }
    }
}

/// A swappable temperature estimator: feed per-slot hit counts, read back a
/// classification. Implementations must be deterministic in the observation
/// sequence.
pub trait TemperatureEstimator {
    /// Fold `hits` observed over `hours` into object `obj`'s state.
    fn observe(&mut self, obj: usize, hits: u32, hours: f64);
    /// Classify `obj` given its previous temperature (for hysteresis).
    fn classify(&self, obj: usize, prev: Temperature) -> Temperature;
}

/// EWMA-threshold estimator with a sticky warm band.
///
/// The smoothed rate `r` moves toward the slot's observed hits/hour by
/// factor `alpha`. Transitions:
///
/// * from Hot: drop to Warm only when `r <= cold_rate` (a hot object must
///   fall all the way through the band before it can start cooling);
/// * from Warm: up to Hot at `r >= hot_rate`, down to Cold at
///   `r <= cold_rate`;
/// * from Cold: back to Hot only at `r >= hot_rate` (promotion is a full
///   re-replication, so it demands clear evidence).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EwmaEstimator {
    /// Thresholds and smoothing.
    pub params: EwmaParams,
    /// Smoothed per-object access rate, hits/hour.
    pub rate: Vec<f64>,
}

impl EwmaEstimator {
    /// Estimator over `objects` objects, all starting mid-band (geometric
    /// mean of the thresholds) so slot 1 does not demote the whole fleet.
    ///
    /// # Panics
    /// If [`EwmaParams::validate`] rejects `params`.
    pub fn new(params: EwmaParams, objects: usize) -> Self {
        if let Err(e) = params.validate() {
            panic!("{e}");
        }
        let mid = (params.hot_rate * params.cold_rate).sqrt();
        EwmaEstimator { params, rate: vec![mid; objects] }
    }
}

impl TemperatureEstimator for EwmaEstimator {
    fn observe(&mut self, obj: usize, hits: u32, hours: f64) {
        debug_assert!(hours > 0.0);
        let observed = f64::from(hits) / hours;
        let r = &mut self.rate[obj];
        *r += self.params.alpha * (observed - *r);
    }

    fn classify(&self, obj: usize, prev: Temperature) -> Temperature {
        let r = self.rate[obj];
        let p = &self.params;
        match prev {
            Temperature::Hot => {
                if r <= p.cold_rate {
                    Temperature::Warm
                } else {
                    Temperature::Hot
                }
            }
            Temperature::Warm => {
                if r >= p.hot_rate {
                    Temperature::Hot
                } else if r <= p.cold_rate {
                    Temperature::Cold
                } else {
                    Temperature::Warm
                }
            }
            Temperature::Cold => {
                if r >= p.hot_rate {
                    Temperature::Hot
                } else {
                    Temperature::Cold
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(objects: usize) -> EwmaEstimator {
        EwmaEstimator::new(EwmaParams::default(), objects)
    }

    #[test]
    fn idle_object_cools_through_the_band() {
        let mut e = est(1);
        let mut t = Temperature::Warm;
        let mut path = vec![];
        for _ in 0..40 {
            e.observe(0, 0, 1.0);
            t = e.classify(0, t);
            path.push(t);
        }
        assert_eq!(*path.last().unwrap(), Temperature::Cold);
        // Monotone: once cold it stays cold with zero traffic.
        let first_cold = path.iter().position(|&x| x == Temperature::Cold).unwrap();
        assert!(path[first_cold..].iter().all(|&x| x == Temperature::Cold));
    }

    #[test]
    fn busy_object_heats_and_hysteresis_holds_it() {
        let mut e = est(1);
        let mut t = Temperature::Warm;
        for _ in 0..10 {
            e.observe(0, 10, 1.0);
            t = e.classify(0, t);
        }
        assert_eq!(t, Temperature::Hot);
        // A few quiet slots: rate decays but stays above cold_rate → still Hot.
        e.observe(0, 0, 1.0);
        t = e.classify(0, t);
        assert_eq!(t, Temperature::Hot, "one quiet slot must not demote a hot object");
    }

    #[test]
    fn cold_object_needs_full_hot_evidence_to_promote() {
        let mut e = est(1);
        let mut t = Temperature::Cold;
        e.rate[0] = 0.0;
        // Mild traffic between the thresholds never promotes.
        for _ in 0..50 {
            e.observe(0, 1, 1.0);
            t = e.classify(0, t);
        }
        assert_eq!(t, Temperature::Cold);
        // Heavy traffic does.
        for _ in 0..10 {
            e.observe(0, 20, 1.0);
            t = e.classify(0, t);
        }
        assert_eq!(t, Temperature::Hot);
    }

    #[test]
    fn estimator_is_deterministic_and_serializable() {
        let mut a = est(4);
        let mut b = est(4);
        for slot in 0..8u32 {
            for o in 0..4 {
                a.observe(o, slot % 3, 1.0);
                b.observe(o, slot % 3, 1.0);
            }
        }
        assert_eq!(a, b);
        let json = serde_json::to_string(&a).unwrap();
        let back: EwmaEstimator = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }

    #[test]
    #[should_panic(expected = "cold_rate")]
    fn inverted_thresholds_panic() {
        let _ = EwmaEstimator::new(EwmaParams { alpha: 0.5, hot_rate: 0.1, cold_rate: 1.0 }, 1);
    }
}

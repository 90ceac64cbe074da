//! The simulated results of one episode: the deterministic half of the
//! benchmark's metrics, which doubles as its output check.

use crate::workloads::Kind;
use greenmatch::report::RunReport;
use greenmatch::snapshot::Snapshot;
use serde::{Serialize, Value};

/// Workload seed whose simulated results are pinned in `pins.rs`.
pub const DEFAULT_SEED: u64 = 42;

/// What one episode computed. Every field is a pure function of the
/// workload and its seed, so two episodes of one run must agree exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Grid (brown) energy drawn over the episode (kWh).
    pub brown_kwh: f64,
    /// Batch jobs done by their deadline ÷ jobs offered (rejected, late
    /// and unfinished jobs count against it).
    pub deadline_met_ratio: f64,
    /// p99 of the simulated interactive request latency (ms).
    pub interactive_p99_ms: f64,
    /// Batch bytes executed over the episode (sum of the slot outcomes).
    pub executed_batch_bytes: u64,
    /// Interactive requests served over the episode.
    pub requests_served: u64,
    /// Batch jobs offered to the scheduler.
    pub jobs_offered: u64,
}

impl SimResult {
    /// Assemble from the episode's final state: `snapshot` taken after the
    /// last step (it carries the run's latency histogram), `report` from
    /// `into_report`, plus the byte and request totals of its outcomes.
    pub fn new(
        snapshot: &Snapshot,
        report: &RunReport,
        executed_batch_bytes: u64,
        requests_served: u64,
    ) -> SimResult {
        let batch = &report.batch;
        let (rejected, held) =
            report.admission.as_ref().map_or((0, 0), |a| (a.rejected, a.pending_at_end as u64));
        let jobs_offered = batch.jobs_submitted as u64 + rejected + held;
        let met = batch.jobs_completed.saturating_sub(batch.deadline_misses) as u64;
        SimResult {
            brown_kwh: report.brown_kwh,
            deadline_met_ratio: if jobs_offered == 0 {
                1.0
            } else {
                met as f64 / jobs_offered as f64
            },
            interactive_p99_ms: hist_quantile(&snapshot.hist.to_value(), 0.99) * 1e3,
            executed_batch_bytes,
            requests_served,
            jobs_offered,
        }
    }
}

/// Output checks: every episode of a run must compute the same simulated
/// result, and at the default seed that result must equal the pinned one.
pub struct Checker {
    kind: Kind,
    seed: u64,
    reference: Option<SimResult>,
    pub failures: Vec<String>,
}

impl Checker {
    pub fn new(kind: Kind, seed: u64) -> Checker {
        Checker { kind, seed, reference: None, failures: Vec::new() }
    }

    /// Check one episode's result; returns whether it passed.
    pub fn check(&mut self, what: &str, result: &SimResult) -> bool {
        let before = self.failures.len();
        match &self.reference {
            None => {
                if result.requests_served == 0 || result.jobs_offered == 0 {
                    self.failures.push(format!("{what}: no work simulated: {result:?}"));
                }
                if self.seed == DEFAULT_SEED {
                    let pinned = crate::pins::pinned(self.kind);
                    if *result != pinned {
                        self.failures.push(format!(
                            "{what}: simulated result differs from the pinned one\n  \
                             got    {result:?}\n  pinned {pinned:?}"
                        ));
                    }
                }
                self.reference = Some(result.clone());
            }
            Some(first) if first != result => self.failures.push(format!(
                "{what}: episode differs from the first one\n  got   {result:?}\n  first {first:?}"
            )),
            Some(_) => {}
        }
        self.failures.len() == before
    }

    /// The first result checked.
    pub fn reference(&self) -> Option<&SimResult> {
        self.reference.as_ref()
    }
}

/// The `q`-quantile of a serialised `gm_sim::LogHistogram`, interpolated
/// log-linearly inside the bucket that holds it.
///
/// The histogram's own `quantile` returns the bucket's upper edge, which
/// moves in 12 % steps (20 buckets per decade): two different workloads
/// or seeds then easily read the same value. The bucket counts pin the
/// quantile's rank inside its bucket, and the interpolation turns that
/// into a value that follows the simulated latencies. Returns seconds.
pub fn hist_quantile(hist: &Value, q: f64) -> f64 {
    let num = |k: &str| hist.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let (floor, factor, max_seen) = (num("floor"), num("factor"), num("max_seen"));
    let counts: Vec<u64> = match hist.get("counts") {
        Some(Value::Arr(items)) => items.iter().map(|v| v.as_u64().unwrap_or(0)).collect(),
        _ => Vec::new(),
    };
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    // Rank of the quantile among `total` samples, as a real number.
    let rank = q * total as f64;
    let mut below = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 && (below + c) as f64 >= rank {
            let upper = floor * factor.powi(i as i32);
            if i == 0 {
                return upper.min(max_seen);
            }
            let lower = upper / factor;
            let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
            return (lower * factor.powf(frac)).min(max_seen);
        }
        below += c;
    }
    max_seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_sim::LogHistogram;

    #[test]
    fn interpolated_quantile_stays_inside_the_bucket() {
        let mut h = LogHistogram::for_latency_secs();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-4);
        }
        let v = h.to_value();
        let p99 = hist_quantile(&v, 0.99);
        let edge = h.quantile(0.99);
        assert!(p99 <= edge && p99 > edge / 10f64.powf(0.05), "{p99} vs bucket edge {edge}");
        assert!((p99 - 0.099).abs() / 0.099 < 0.03, "{p99}");
        assert_eq!(hist_quantile(&v, 1.0), h.max());
    }
}

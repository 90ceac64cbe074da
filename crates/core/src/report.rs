//! Run reports.
//!
//! A [`RunReport`] is the full outcome of one experiment run: energy
//! totals and per-slot series, interactive latency distribution, batch
//! completion/deadline statistics and mechanism counters. It is
//! serde-serialisable so the bench harness can archive results, and it
//! renders itself as aligned text for humans.

use gm_sim::LogHistogram;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Interactive-latency summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LatencyReport {
    /// Requests served.
    pub count: u64,
    /// Mean latency (s).
    pub mean_s: f64,
    /// Median (s).
    pub p50_s: f64,
    /// 99th percentile (s).
    pub p99_s: f64,
    /// Maximum (s).
    pub max_s: f64,
}

impl LatencyReport {
    /// Summarise a histogram.
    pub fn from_histogram(h: &LogHistogram) -> Self {
        LatencyReport {
            count: h.count(),
            mean_s: h.mean(),
            p50_s: h.quantile(0.5),
            p99_s: h.quantile(0.99),
            max_s: h.max(),
        }
    }
}

/// Batch completion summary.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    /// Jobs submitted within the horizon.
    pub jobs_submitted: usize,
    /// Jobs fully completed.
    pub jobs_completed: usize,
    /// Completed jobs that missed their deadline.
    pub deadline_misses: usize,
    /// Jobs unfinished at the end of the horizon whose deadline had passed.
    pub unfinished_late: usize,
    /// Total bytes of batch work submitted.
    pub bytes_submitted: u64,
    /// Bytes completed.
    pub bytes_completed: u64,
}

impl BatchReport {
    /// Deadline-miss rate over jobs whose deadline fell inside the horizon:
    /// completed-late plus unfinished-late, over submitted.
    pub fn miss_rate(&self) -> f64 {
        if self.jobs_submitted == 0 {
            0.0
        } else {
            (self.deadline_misses + self.unfinished_late) as f64 / self.jobs_submitted as f64
        }
    }
}

/// Admission-gate summary; present on a [`RunReport`] only when admission
/// control ran (see [`crate::config::AdmissionConfig`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AdmissionReport {
    /// Deferrable jobs the gate accepted into the pool.
    pub accepted: u64,
    /// Defer decisions (a job held across two slots counts twice).
    pub deferred: u64,
    /// Jobs turned away.
    pub rejected: u64,
    /// Bytes of work turned away.
    pub rejected_bytes: u64,
    /// Jobs still held by the gate when the horizon ended.
    pub pending_at_end: usize,
}

/// Per-site energy breakdown of a multi-site run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteReport {
    /// Site index (0 = home).
    pub site: usize,
    /// Site name from the config.
    pub name: String,
    /// Renewable-source label.
    pub source: String,
    /// Battery label (chemistry + kWh), or "none".
    pub battery: String,
    /// Energy consumed by this site's cluster (kWh).
    pub load_kwh: f64,
    /// Grid energy consumed at this site (kWh).
    pub brown_kwh: f64,
    /// Renewable energy produced at this site (kWh).
    pub green_produced_kwh: f64,
    /// Renewable energy consumed directly at this site (kWh).
    pub green_direct_kwh: f64,
    /// Energy delivered by this site's battery (kWh).
    pub battery_out_kwh: f64,
    /// Renewable energy curtailed at this site (kWh).
    pub curtailed_kwh: f64,
    /// Fraction of this site's produced renewables that served its load.
    pub green_utilization: f64,
    /// Fraction of this site's load served by renewables.
    pub green_coverage: f64,
    /// Batch bytes executed on this site's cluster.
    pub executed_batch_bytes: u64,
    /// Disk spin-ups at this site.
    pub spinups: u64,
}

/// The full outcome of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Policy label.
    pub policy: String,
    /// Source label.
    pub source: String,
    /// Battery label (chemistry + kWh), or "none".
    pub battery: String,
    /// Master seed.
    pub seed: u64,
    /// Slots simulated.
    pub slots: usize,

    /// Total energy consumed by the cluster (kWh).
    pub load_kwh: f64,
    /// Grid energy consumed (kWh) — the headline metric.
    pub brown_kwh: f64,
    /// Renewable energy produced (kWh).
    pub green_produced_kwh: f64,
    /// Renewable energy consumed directly (kWh).
    pub green_direct_kwh: f64,
    /// Energy delivered by the battery (kWh).
    pub battery_out_kwh: f64,
    /// Renewable energy curtailed (kWh).
    pub curtailed_kwh: f64,
    /// Battery conversion loss (kWh).
    pub battery_eff_loss_kwh: f64,
    /// Battery self-discharge loss (kWh).
    pub battery_selfdisch_kwh: f64,
    /// Spin-up/boot surcharge energy (kWh).
    pub spinup_overhead_kwh: f64,
    /// Write-log reclaim overhead energy (kWh).
    pub reclaim_overhead_kwh: f64,
    /// Fraction of produced renewables that served the load.
    pub green_utilization: f64,
    /// Fraction of the load served by renewables.
    pub green_coverage: f64,
    /// Carbon emitted by the brown draw (kg CO₂).
    pub carbon_kg: f64,
    /// Cost of the brown draw ($).
    pub cost_dollars: f64,
    /// Equivalent full cycles put on the battery.
    pub battery_cycles: f64,
    /// Dollars of battery life consumed (capex × life fraction).
    pub battery_wear_dollars: f64,

    /// Interactive latency.
    pub latency: LatencyReport,
    /// Batch completion.
    pub batch: BatchReport,
    /// Admission-gate counters; `None` when admission control is off.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub admission: Option<AdmissionReport>,

    /// Disk spin-ups (policy + forced).
    pub spinups: u64,
    /// Availability-forced spin-ups.
    pub forced_spinups: u64,
    /// Peak write-log occupancy (bytes).
    pub writelog_peak_bytes: u64,

    /// Disk failures injected (0 when failure injection is off).
    pub failures: u64,
    /// Objects exposed with no intact replica (data-loss events).
    pub lost_objects: u64,
    /// Reads served while every replica awaited rebuild.
    pub degraded_reads: u64,
    /// Rebuild work generated by failures (bytes).
    pub rebuild_bytes: u64,
    /// Repair jobs fully completed within the horizon.
    pub repairs_completed: u64,
    /// Tier-migration jobs fully completed within the horizon (0 with
    /// tiering off).
    #[serde(default)]
    pub migrations_completed: u64,
    /// Migration I/O executed (bytes).
    #[serde(default)]
    pub migrated_bytes: u64,
    /// Share of migration bytes executed under green energy: each slot's
    /// migration bytes weighted by that slot's green fraction of load.
    #[serde(default)]
    pub migration_green_share: f64,
    /// Raw storage capacity in use at the end of the run (replica bytes
    /// plus EC shard bytes).
    #[serde(default)]
    pub capacity_in_use_bytes: u64,
    /// Objects resident on erasure coding at the end of the run.
    #[serde(default)]
    pub ec_objects: u64,
    /// Read-cache hit ratio (0 when the cache is disabled).
    pub cache_hit_ratio: f64,

    /// Per-slot gear level.
    pub gears_series: Vec<usize>,
    /// Per-slot load (Wh).
    pub load_series_wh: Vec<f64>,
    /// Per-slot green production (Wh).
    pub green_series_wh: Vec<f64>,
    /// Per-slot brown draw (Wh).
    pub brown_series_wh: Vec<f64>,
    /// Per-slot battery discharge (Wh).
    pub battery_out_series_wh: Vec<f64>,
    /// Per-slot curtailment (Wh).
    pub curtailed_series_wh: Vec<f64>,

    /// Per-site breakdown; empty for single-site runs (where the totals
    /// above *are* the one site's numbers).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub sites: Vec<SiteReport>,
}

impl RunReport {
    /// Weekly operating cost ($): grid energy plus battery wear — the TCO
    /// figure R-Table5 compares (PV capex is identical across policies at
    /// fixed area, so it cancels out of the comparison).
    pub fn opex_dollars(&self) -> f64 {
        self.cost_dollars + self.battery_wear_dollars
    }

    /// Sum of all loss categories (kWh): curtailment + battery losses +
    /// spin-up and reclaim overheads.
    pub fn total_losses_kwh(&self) -> f64 {
        self.curtailed_kwh
            + self.battery_eff_loss_kwh
            + self.battery_selfdisch_kwh
            + self.spinup_overhead_kwh
            + self.reclaim_overhead_kwh
    }

    /// One-line CSV header matching [`RunReport::csv_row`].
    pub fn csv_header() -> &'static str {
        "policy,source,battery,seed,brown_kwh,load_kwh,green_produced_kwh,green_utilization,\
         green_coverage,curtailed_kwh,battery_eff_loss_kwh,battery_selfdisch_kwh,\
         spinup_overhead_kwh,reclaim_overhead_kwh,total_losses_kwh,carbon_kg,cost_dollars,\
         latency_p50_s,latency_p99_s,latency_count,miss_rate,spinups,forced_spinups"
    }

    /// Render as a CSV row (matches [`RunReport::csv_header`]).
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{:.3},{:.3},{:.3},{:.4},{:.4},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.4},{:.6},{:.6},{},{:.4},{},{}",
            self.policy,
            self.source,
            self.battery,
            self.seed,
            self.brown_kwh,
            self.load_kwh,
            self.green_produced_kwh,
            self.green_utilization,
            self.green_coverage,
            self.curtailed_kwh,
            self.battery_eff_loss_kwh,
            self.battery_selfdisch_kwh,
            self.spinup_overhead_kwh,
            self.reclaim_overhead_kwh,
            self.total_losses_kwh(),
            self.carbon_kg,
            self.cost_dollars,
            self.latency.p50_s,
            self.latency.p99_s,
            self.latency.count,
            self.batch.miss_rate(),
            self.spinups,
            self.forced_spinups,
        )
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "policy          : {}", self.policy)?;
        writeln!(f, "source / battery: {} / {}", self.source, self.battery)?;
        writeln!(f, "load            : {:>10.1} kWh", self.load_kwh)?;
        writeln!(f, "brown energy    : {:>10.1} kWh", self.brown_kwh)?;
        writeln!(
            f,
            "green           : {:>10.1} kWh produced, {:.1}% utilised, {:.1}% coverage",
            self.green_produced_kwh,
            self.green_utilization * 100.0,
            self.green_coverage * 100.0
        )?;
        writeln!(
            f,
            "losses          : {:>10.1} kWh (curtail {:.1}, batt-eff {:.1}, self-d {:.1}, spin {:.2}, reclaim {:.2})",
            self.total_losses_kwh(),
            self.curtailed_kwh,
            self.battery_eff_loss_kwh,
            self.battery_selfdisch_kwh,
            self.spinup_overhead_kwh,
            self.reclaim_overhead_kwh
        )?;
        writeln!(
            f,
            "latency         : p50 {:.1} ms, p99 {:.1} ms over {} requests",
            self.latency.p50_s * 1e3,
            self.latency.p99_s * 1e3,
            self.latency.count
        )?;
        writeln!(
            f,
            "batch           : {}/{} jobs done, miss rate {:.2}%",
            self.batch.jobs_completed,
            self.batch.jobs_submitted,
            self.batch.miss_rate() * 100.0
        )?;
        if let Some(a) = &self.admission {
            writeln!(
                f,
                "admission       : {} accepted, {} deferrals, {} rejected ({:.1} GiB turned away, {} still held)",
                a.accepted,
                a.deferred,
                a.rejected,
                a.rejected_bytes as f64 / (1u64 << 30) as f64,
                a.pending_at_end
            )?;
        }
        writeln!(
            f,
            "mechanics       : {} spin-ups ({} forced), carbon {:.1} kg, grid cost ${:.2}",
            self.spinups, self.forced_spinups, self.carbon_kg, self.cost_dollars
        )?;
        for s in &self.sites {
            writeln!(
                f,
                "site {} {:<9}: load {:>8.1} kWh, brown {:>8.1} kWh, green {:>8.1} kWh produced, coverage {:.1}%",
                s.site,
                s.name,
                s.load_kwh,
                s.brown_kwh,
                s.green_produced_kwh,
                s.green_coverage * 100.0
            )?;
        }
        if self.failures > 0 {
            writeln!(
                f,
                "reliability     : {} failures, {} repairs done, {} lost objects, {} degraded reads",
                self.failures, self.repairs_completed, self.lost_objects, self.degraded_reads
            )?;
        }
        if self.migrations_completed > 0 || self.ec_objects > 0 {
            writeln!(
                f,
                "tiering         : {} migrations done, {:.1} GiB moved ({:.1}% in green slots), {} EC objects, {:.2} TiB raw in use",
                self.migrations_completed,
                self.migrated_bytes as f64 / (1u64 << 30) as f64,
                self.migration_green_share * 100.0,
                self.ec_objects,
                self.capacity_in_use_bytes as f64 / (1u64 << 40) as f64
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> RunReport {
        RunReport {
            policy: "test".into(),
            source: "solar".into(),
            battery: "LI:10kWh".into(),
            seed: 1,
            slots: 24,
            load_kwh: 100.0,
            brown_kwh: 40.0,
            green_produced_kwh: 80.0,
            green_direct_kwh: 50.0,
            battery_out_kwh: 10.0,
            curtailed_kwh: 5.0,
            battery_eff_loss_kwh: 2.0,
            battery_selfdisch_kwh: 0.5,
            spinup_overhead_kwh: 0.3,
            reclaim_overhead_kwh: 0.2,
            green_utilization: 0.75,
            green_coverage: 0.6,
            carbon_kg: 12.0,
            cost_dollars: 6.4,
            battery_cycles: 3.5,
            battery_wear_dollars: 4.6,
            latency: LatencyReport {
                count: 1000,
                mean_s: 0.02,
                p50_s: 0.015,
                p99_s: 0.3,
                max_s: 11.0,
            },
            batch: BatchReport {
                jobs_submitted: 100,
                jobs_completed: 98,
                deadline_misses: 3,
                unfinished_late: 1,
                bytes_submitted: 1 << 40,
                bytes_completed: 1 << 39,
            },
            admission: None,
            spinups: 42,
            forced_spinups: 2,
            writelog_peak_bytes: 1 << 30,
            failures: 0,
            lost_objects: 0,
            degraded_reads: 0,
            rebuild_bytes: 0,
            repairs_completed: 0,
            migrations_completed: 0,
            migrated_bytes: 0,
            migration_green_share: 0.0,
            capacity_in_use_bytes: 0,
            ec_objects: 0,
            cache_hit_ratio: 0.0,
            gears_series: vec![1; 24],
            load_series_wh: vec![0.0; 24],
            green_series_wh: vec![0.0; 24],
            brown_series_wh: vec![0.0; 24],
            battery_out_series_wh: vec![0.0; 24],
            curtailed_series_wh: vec![0.0; 24],
            sites: Vec::new(),
        }
    }

    #[test]
    fn loss_total_sums_categories() {
        let r = dummy();
        assert!((r.total_losses_kwh() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn miss_rate_counts_late_and_unfinished() {
        let r = dummy();
        assert!((r.batch.miss_rate() - 0.04).abs() < 1e-12);
        let empty = BatchReport::default();
        assert_eq!(empty.miss_rate(), 0.0);
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let r = dummy();
        let header_cols = RunReport::csv_header().split(',').count();
        let row_cols = r.csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = format!("{}", dummy());
        assert!(s.contains("brown energy"));
        assert!(s.contains("40.0 kWh"));
        assert!(s.contains("98/100 jobs"));
    }

    #[test]
    fn latency_report_from_histogram() {
        let mut h = LogHistogram::for_latency_secs();
        for i in 1..=100 {
            h.record(i as f64 * 1e-3);
        }
        let lr = LatencyReport::from_histogram(&h);
        assert_eq!(lr.count, 100);
        assert!((lr.mean_s - 0.0505).abs() < 1e-9);
        assert!(lr.p50_s >= 0.050 && lr.p50_s <= 0.057);
        assert_eq!(lr.max_s, 0.1);
    }
}

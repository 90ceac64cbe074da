//! The conservation auditor: run-time invariant checking for every layer.
//!
//! GreenMatch's headline numbers are bookkeeping identities (brown kWh,
//! green utilization, battery losses), and most of the historic checks were
//! `debug_assert`s that vanish in release builds — exactly the builds the
//! experiment suite runs. This module provides an always-compiled,
//! opt-in-at-runtime correctness layer in two parts:
//!
//! * [`ConservationAuditor`] — a [`SlotObserver`] that re-checks every
//!   [`SlotOutcome`] as the simulation produces it: the two energy
//!   identities (aggregate and per site), sign and range constraints
//!   (battery SoC, fractions), executed-vs-requested bounds, matcher unit
//!   accounting, remote-placement shape, and step-to-step pending-job
//!   bounds. Attach it with [`crate::Simulation::add_observer`]; results
//!   come back through the shared [`AuditReport`] handle (the
//!   [`PhaseTimer`](crate::PhaseTimer) pattern).
//! * [`Simulation::post_run_audit`] — a deep end-of-run audit over state
//!   the per-slot outcomes cannot see: battery conservation residuals,
//!   ledger series identities per site and slot, exact job-byte
//!   conservation, arrival/completion/pending accounting, feed accounting
//!   against the workload population, repair-table hygiene, and
//!   gear-series shape. Call it **before**
//!   [`Simulation::into_report`] (which consumes the simulation).
//!
//! Auditing is off by default — a simulation without the observer and
//! without the post-run call pays nothing. Violations are reported as
//! structured [`AuditViolation`]s rather than panics, so a fuzz harness can
//! collect every broken invariant of a run in one pass.
//!
//! # Tolerances
//!
//! Energy flows are `f64` sums over thousands of slots, so identity checks
//! use an absolute-plus-relative tolerance: `|residual| ≤ 1e-6 + 1e-9·scale`
//! where `scale` is the magnitude of the quantities involved (Wh). Byte and
//! unit counts are integers and are checked exactly.
//!
//! # Adding an invariant
//!
//! Add a check to [`ConservationAuditor::on_slot`] (if it is visible in a
//! [`SlotOutcome`]) or to [`Simulation::post_run_audit`] (if it needs
//! internal state), pick a stable `invariant` name, and extend the catalog
//! in `DESIGN.md` §1.4. Keep checks pure: the auditor must never influence
//! the run.

use crate::observe::SlotObserver;
use crate::simulation::{Simulation, SlotOutcome};
use serde::Serialize;
use std::sync::{Arc, Mutex};

/// Absolute tolerance (Wh) for energy-identity residuals.
pub const ABS_TOL_WH: f64 = 1e-6;
/// Relative tolerance factor applied to the magnitude of the checked flows.
pub const REL_TOL: f64 = 1e-9;
/// Violations kept per report; beyond this only the count grows.
const MAX_VIOLATIONS: usize = 1_000;

/// Batch job ids at or above this value are repair jobs (see
/// `Simulation::next_repair_id`).
const REPAIR_ID_BASE: u64 = 1 << 40;
/// Batch job ids at or above this value are tier-migration jobs (see
/// `Simulation::next_migration_id`); check before [`REPAIR_ID_BASE`].
const MIGRATION_ID_BASE: u64 = 1 << 41;

fn within(residual: f64, scale: f64) -> bool {
    residual.abs() <= ABS_TOL_WH + REL_TOL * scale.abs()
}

/// One broken invariant, with enough structure for tooling to group and
/// rank: where it happened, which identity broke, and by how much.
#[derive(Debug, Clone, Serialize)]
pub struct AuditViolation {
    /// Slot the violation was observed in (`None` for whole-run checks).
    pub slot: Option<usize>,
    /// Site index (`None` for aggregate or site-less checks).
    pub site: Option<usize>,
    /// Stable name of the invariant, e.g. `"supply_identity"`.
    pub invariant: &'static str,
    /// Numeric residual of the identity (0.0 for shape/ordering checks).
    pub residual: f64,
    /// Human-readable description with the offending values.
    pub detail: String,
}

impl AuditViolation {
    /// One-line rendering for logs: `slot 12 site 1: supply_identity ...`.
    pub fn render(&self) -> String {
        let mut s = String::new();
        match self.slot {
            Some(slot) => s.push_str(&format!("slot {slot}")),
            None => s.push_str("run"),
        }
        if let Some(site) = self.site {
            s.push_str(&format!(" site {site}"));
        }
        s.push_str(&format!(
            ": {} (residual {:.3e}) — {}",
            self.invariant, self.residual, self.detail
        ));
        s
    }
}

/// Accumulated audit results for one run.
#[derive(Debug, Default, Serialize)]
pub struct AuditReport {
    /// Slots the per-slot auditor saw (0 for a pure post-run audit).
    pub slots_audited: usize,
    /// The recorded violations, at most `MAX_VIOLATIONS`.
    pub violations: Vec<AuditViolation>,
    /// Violations beyond the cap (recorded only as a count).
    pub suppressed: usize,
}

impl AuditReport {
    /// Whether the audit found nothing wrong.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.suppressed == 0
    }

    /// Total violations including suppressed ones.
    pub fn total_violations(&self) -> usize {
        self.violations.len() + self.suppressed
    }

    /// Record a violation, capping the stored list.
    pub fn push(&mut self, v: AuditViolation) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v);
        } else {
            self.suppressed += 1;
        }
    }

    /// Fold another report into this one (e.g. per-slot + post-run).
    pub fn merge(&mut self, other: AuditReport) {
        self.slots_audited += other.slots_audited;
        self.suppressed += other.suppressed;
        for v in other.violations {
            self.push(v);
        }
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!("audit clean ({} slots)", self.slots_audited)
        } else {
            format!(
                "audit FAILED: {} violation(s) over {} slots",
                self.total_violations(),
                self.slots_audited
            )
        }
    }
}

/// Per-slot invariant checker; see the module docs for the catalog.
///
/// Construct with [`ConservationAuditor::new`], attach the auditor to a
/// simulation, and read the shared report handle after the run.
pub struct ConservationAuditor {
    report: Arc<Mutex<AuditReport>>,
    /// Slot index expected next (monotone stepping).
    next_slot: Option<usize>,
    /// `pending_jobs` of the previous outcome.
    prev_pending: Option<usize>,
    /// `capacity_in_use_bytes` of the previous outcome.
    prev_capacity: Option<u64>,
}

impl ConservationAuditor {
    /// A new auditor plus the handle its report is read through after the
    /// simulation has consumed the observer.
    pub fn new() -> (ConservationAuditor, Arc<Mutex<AuditReport>>) {
        let report = Arc::new(Mutex::new(AuditReport::default()));
        (
            ConservationAuditor {
                report: report.clone(),
                next_slot: None,
                prev_pending: None,
                prev_capacity: None,
            },
            report,
        )
    }

    fn check_energy(
        report: &mut AuditReport,
        slot: usize,
        site: Option<usize>,
        e: &crate::simulation::EnergyFlows,
    ) {
        let supply = e.load_wh - (e.green_direct_wh + e.battery_out_wh + e.grid_wh);
        if !within(supply, e.load_wh) {
            report.push(AuditViolation {
                slot: Some(slot),
                site,
                invariant: "supply_identity",
                residual: supply,
                detail: format!(
                    "load {} != green_direct {} + battery_out {} + grid {}",
                    e.load_wh, e.green_direct_wh, e.battery_out_wh, e.grid_wh
                ),
            });
        }
        let production =
            e.green_produced_wh - (e.green_direct_wh + e.battery_in_wh + e.curtailed_wh);
        if !within(production, e.green_produced_wh) {
            report.push(AuditViolation {
                slot: Some(slot),
                site,
                invariant: "production_identity",
                residual: production,
                detail: format!(
                    "green {} != direct {} + battery_in {} + curtailed {}",
                    e.green_produced_wh, e.green_direct_wh, e.battery_in_wh, e.curtailed_wh
                ),
            });
        }
        for (name, v) in [
            ("green_produced_wh", e.green_produced_wh),
            ("green_direct_wh", e.green_direct_wh),
            ("battery_in_wh", e.battery_in_wh),
            ("battery_out_wh", e.battery_out_wh),
            ("grid_wh", e.grid_wh),
            ("curtailed_wh", e.curtailed_wh),
            ("load_wh", e.load_wh),
        ] {
            if v.is_nan() || v < -ABS_TOL_WH {
                report.push(AuditViolation {
                    slot: Some(slot),
                    site,
                    invariant: "nonnegative_flow",
                    residual: v,
                    detail: format!("{name} = {v}"),
                });
            }
        }
    }
}

impl SlotObserver for ConservationAuditor {
    fn on_slot(&mut self, o: &SlotOutcome) {
        let mut report = self.report.lock().unwrap();
        report.slots_audited += 1;

        // Slot ordering: outcomes arrive once each, in order.
        if let Some(expected) = self.next_slot {
            if o.slot != expected {
                report.push(AuditViolation {
                    slot: Some(o.slot),
                    site: None,
                    invariant: "slot_monotonicity",
                    residual: (o.slot as f64) - (expected as f64),
                    detail: format!("expected slot {expected}, observed {}", o.slot),
                });
            }
        }
        self.next_slot = Some(o.slot + 1);

        // (a) Ledger identities, aggregate and per site.
        Self::check_energy(&mut report, o.slot, None, &o.energy);
        for se in &o.site_energy {
            Self::check_energy(&mut report, o.slot, Some(se.site), &se.energy);
        }

        // Per-site fields must sum to the aggregates (multi-site only).
        if !o.site_energy.is_empty() {
            let load: f64 = o.site_energy.iter().map(|s| s.energy.load_wh).sum();
            if !within(load - o.energy.load_wh, o.energy.load_wh) {
                report.push(AuditViolation {
                    slot: Some(o.slot),
                    site: None,
                    invariant: "site_load_sum",
                    residual: load - o.energy.load_wh,
                    detail: format!("site loads sum {} vs aggregate {}", load, o.energy.load_wh),
                });
            }
            let executed: u64 = o.site_energy.iter().map(|s| s.executed_batch_bytes).sum();
            if executed != o.executed_batch_bytes {
                report.push(AuditViolation {
                    slot: Some(o.slot),
                    site: None,
                    invariant: "site_executed_sum",
                    residual: executed as f64 - o.executed_batch_bytes as f64,
                    detail: format!(
                        "site executed bytes sum {} vs aggregate {}",
                        executed, o.executed_batch_bytes
                    ),
                });
            }
            let soc: f64 = o.site_energy.iter().map(|s| s.battery_soc_wh).sum();
            if !within(soc - o.battery_soc_wh, o.battery_soc_wh) {
                report.push(AuditViolation {
                    slot: Some(o.slot),
                    site: None,
                    invariant: "site_soc_sum",
                    residual: soc - o.battery_soc_wh,
                    detail: format!("site SoCs sum {} vs aggregate {}", soc, o.battery_soc_wh),
                });
            }
        }

        // (d) Battery SoC within the usable window.
        if o.battery_soc_wh.is_nan() || o.battery_soc_wh < -ABS_TOL_WH {
            report.push(AuditViolation {
                slot: Some(o.slot),
                site: None,
                invariant: "soc_nonnegative",
                residual: o.battery_soc_wh,
                detail: format!("battery_soc_wh = {}", o.battery_soc_wh),
            });
        }
        if !(-1e-9..=1.0 + 1e-9).contains(&o.battery_soc_frac) {
            report.push(AuditViolation {
                slot: Some(o.slot),
                site: None,
                invariant: "soc_fraction_range",
                residual: o.battery_soc_frac,
                detail: format!("battery_soc_frac = {} outside [0, 1]", o.battery_soc_frac),
            });
        }

        // (b) Byte bounds: never execute more than was requested.
        if o.executed_batch_bytes > o.requested_batch_bytes {
            report.push(AuditViolation {
                slot: Some(o.slot),
                site: None,
                invariant: "executed_le_requested",
                residual: o.executed_batch_bytes as f64 - o.requested_batch_bytes as f64,
                detail: format!(
                    "executed {} > requested {}",
                    o.executed_batch_bytes, o.requested_batch_bytes
                ),
            });
        }

        // (c) Matcher unit accounting: the min-cost-flow network must have
        // conserved flow (green + brown + deferred + infeasible = total).
        if o.matcher_residual_units != 0 {
            report.push(AuditViolation {
                slot: Some(o.slot),
                site: None,
                invariant: "matcher_unit_accounting",
                residual: o.matcher_residual_units as f64,
                detail: format!("matcher left {} unit(s) unaccounted", o.matcher_residual_units),
            });
        }
        if o.deadline_infeasible_bytes != o.decision.infeasible_bytes {
            report.push(AuditViolation {
                slot: Some(o.slot),
                site: None,
                invariant: "infeasible_bytes_mirror",
                residual: o.deadline_infeasible_bytes as f64 - o.decision.infeasible_bytes as f64,
                detail: format!(
                    "outcome {} vs decision {}",
                    o.deadline_infeasible_bytes, o.decision.infeasible_bytes
                ),
            });
        }

        // Remote placements: shape only here (byte-exactness is post-run).
        // Single-site runs must not place remote work; multi-site site
        // indices must name existing non-home sites.
        let n_sites = if o.site_energy.is_empty() { 1 } else { o.site_energy.len() };
        for &(site, job, bytes) in &o.decision.remote_batch_bytes {
            if site == 0 || site >= n_sites {
                report.push(AuditViolation {
                    slot: Some(o.slot),
                    site: Some(site),
                    invariant: "remote_site_index",
                    residual: site as f64,
                    detail: format!(
                        "remote placement of {bytes} bytes for job {} names site {site} of {n_sites}",
                        job.0
                    ),
                });
            }
        }

        // Pending-jobs step bounds. Repairs spawn at most `disk_failures`
        // jobs this slot (a failed disk with nothing to rebuild spawns
        // none), so pending may move within a window.
        if let Some(prev) = self.prev_pending {
            let ev = &o.events;
            let low = prev as i64 + ev.jobs_submitted as i64 + ev.migrations_spawned as i64
                - ev.jobs_completed as i64
                - ev.repairs_completed as i64
                - ev.migrations_completed as i64;
            let high = low + ev.disk_failures as i64;
            let now = o.pending_jobs as i64;
            if now < low || now > high {
                report.push(AuditViolation {
                    slot: Some(o.slot),
                    site: None,
                    invariant: "pending_jobs_step",
                    residual: (now - low) as f64,
                    detail: format!(
                        "pending {now} outside [{low}, {high}] \
                         (prev {prev}, +{} submitted, +{} migrations, -{} completed, \
                         -{} repairs, -{} migrations done, ≤{} failures)",
                        ev.jobs_submitted,
                        ev.migrations_spawned,
                        ev.jobs_completed,
                        ev.repairs_completed,
                        ev.migrations_completed,
                        ev.disk_failures
                    ),
                });
            }
        }
        self.prev_pending = Some(o.pending_jobs);

        // Migration byte conservation, exact: placement flips are the only
        // thing that moves raw capacity, and each flip moves it by exactly
        // written − released bytes.
        if let Some(prev) = self.prev_capacity {
            let expected =
                prev as i128 - o.tier_bytes_released as i128 + o.tier_bytes_written as i128;
            if o.capacity_in_use_bytes as i128 != expected {
                report.push(AuditViolation {
                    slot: Some(o.slot),
                    site: None,
                    invariant: "migration_byte_conservation",
                    residual: o.capacity_in_use_bytes as f64 - expected as f64,
                    detail: format!(
                        "capacity {} != prev {} - released {} + written {}",
                        o.capacity_in_use_bytes, prev, o.tier_bytes_released, o.tier_bytes_written
                    ),
                });
            }
        }
        self.prev_capacity = Some(o.capacity_in_use_bytes);
    }
}

impl Simulation<'_> {
    /// Deep end-of-run audit over internal state; see the module docs.
    ///
    /// Takes `&self`, so call it after the last [`Simulation::step`] and
    /// before [`Simulation::into_report`] (which consumes the simulation
    /// and folds unfinished-job bytes into the batch report, shifting the
    /// quantities audited here).
    pub fn post_run_audit(&self) -> AuditReport {
        let mut report = AuditReport::default();
        let simulated = self.current_slot();

        for (i, site) in self.sites.iter().enumerate() {
            // (a) Battery conservation: drawn = stored + delivered + losses.
            let battery = &site.battery;
            let residual = battery.conservation_residual_wh();
            if !within(residual, battery.total_drawn_wh()) {
                report.push(AuditViolation {
                    slot: None,
                    site: Some(i),
                    invariant: "battery_conservation",
                    residual,
                    detail: format!(
                        "drawn {} != stored {} + out {} + eff loss {} + self-discharge {}",
                        battery.total_drawn_wh(),
                        battery.stored_wh(),
                        battery.total_discharged_wh(),
                        battery.efficiency_loss_wh(),
                        battery.self_discharge_loss_wh()
                    ),
                });
            }
            // (d) SoC within the usable window.
            let usable = site.battery_spec.usable_wh();
            if !(-ABS_TOL_WH..=usable + ABS_TOL_WH + REL_TOL * usable)
                .contains(&battery.stored_wh())
            {
                report.push(AuditViolation {
                    slot: None,
                    site: Some(i),
                    invariant: "soc_window",
                    residual: battery.stored_wh(),
                    detail: format!("stored {} Wh outside [0, {usable}]", battery.stored_wh()),
                });
            }

            // (a) Ledger identities per recorded slot, release-safe.
            for s in 0..site.ledger.len() {
                let flows = site.ledger.slot_flows(s);
                let supply = flows.supply_residual();
                if !within(supply, flows.load_wh) {
                    report.push(AuditViolation {
                        slot: Some(s),
                        site: Some(i),
                        invariant: "ledger_supply_identity",
                        residual: supply,
                        detail: format!("{flows:?}"),
                    });
                }
                let production = flows.production_residual();
                if !within(production, flows.green_produced_wh) {
                    report.push(AuditViolation {
                        slot: Some(s),
                        site: Some(i),
                        invariant: "ledger_production_identity",
                        residual: production,
                        detail: format!("{flows:?}"),
                    });
                }
            }
            // Ledger totals must equal their series sums.
            let totals = site.ledger.totals();
            for (name, total, series_sum) in [
                ("load_wh", totals.load_wh, site.ledger.load_series().values().iter().sum::<f64>()),
                ("brown_wh", totals.brown_wh, site.ledger.brown_series().values().iter().sum()),
                (
                    "green_produced_wh",
                    totals.green_produced_wh,
                    site.ledger.green_series().values().iter().sum(),
                ),
                (
                    "battery_out_wh",
                    totals.battery_out_wh,
                    site.ledger.battery_out_series().values().iter().sum(),
                ),
                (
                    "curtailed_wh",
                    totals.curtailed_wh,
                    site.ledger.curtailed_series().values().iter().sum(),
                ),
            ] {
                if !within(total - series_sum, total) {
                    report.push(AuditViolation {
                        slot: None,
                        site: Some(i),
                        invariant: "ledger_total_vs_series",
                        residual: total - series_sum,
                        detail: format!("{name}: total {total} vs series sum {series_sum}"),
                    });
                }
            }

            // Gear series shape: one entry per simulated slot, in range.
            if site.gears_series.len() != simulated {
                report.push(AuditViolation {
                    slot: None,
                    site: Some(i),
                    invariant: "gears_series_len",
                    residual: site.gears_series.len() as f64 - simulated as f64,
                    detail: format!(
                        "{} gear entries for {simulated} simulated slots",
                        site.gears_series.len()
                    ),
                });
            }
            if let Some((s, &g)) =
                site.gears_series.iter().enumerate().find(|(_, &g)| g < 1 || g > site.model.gears)
            {
                report.push(AuditViolation {
                    slot: Some(s),
                    site: Some(i),
                    invariant: "gears_range",
                    residual: g as f64,
                    detail: format!("gear level {g} outside [1, {}]", site.model.gears),
                });
            }
        }

        // (b) Job-byte conservation, exact in u64: every byte of progress on
        // every job (batch and repair) was executed at some site, and vice
        // versa — remote placements beyond a job's un-taken bytes would
        // break this equality.
        let progressed: u64 = self.jobs.iter().map(|j| j.total_bytes - j.remaining_bytes).sum();
        let executed: u64 = self.sites.iter().map(|site| site.executed_batch_bytes).sum();
        if progressed != executed {
            report.push(AuditViolation {
                slot: None,
                site: None,
                invariant: "job_byte_conservation",
                residual: progressed as f64 - executed as f64,
                detail: format!("job progress {progressed} bytes vs executed {executed} bytes"),
            });
        }

        // (b) Arrival accounting: every tracked job is a submitted batch
        // job, a spawned repair, or a spawned migration.
        let repairs_spawned = (self.next_repair_id - REPAIR_ID_BASE) as usize;
        let migrations_spawned = (self.next_migration_id - MIGRATION_ID_BASE) as usize;
        if self.jobs.len()
            != self.batch_report.jobs_submitted + repairs_spawned + migrations_spawned
        {
            report.push(AuditViolation {
                slot: None,
                site: None,
                invariant: "arrival_accounting",
                residual: self.jobs.len() as f64
                    - (self.batch_report.jobs_submitted + repairs_spawned + migrations_spawned)
                        as f64,
                detail: format!(
                    "{} tracked jobs vs {} submitted + {} repairs + {} migrations spawned",
                    self.jobs.len(),
                    self.batch_report.jobs_submitted,
                    repairs_spawned,
                    migrations_spawned
                ),
            });
        }

        // Feed accounting: every population job submitted before the end of
        // the last simulated slot arrived exactly once — it entered the
        // pool, the gate rejected it, or the gate still holds it. A dropped
        // or repeated delivery breaks the count, and so does a resumed run
        // that re-delivers (or skips) its prefix's jobs.
        if simulated > 0 {
            let until = self.clock.slot_end(simulated - 1);
            let offered = self.workload.batch_jobs().partition_point(|j| j.submit < until);
            let arrived = self.batch_report.jobs_submitted
                + self.admission_rejected as usize
                + self.admission_held.len();
            if offered != arrived {
                report.push(AuditViolation {
                    slot: None,
                    site: None,
                    invariant: "feed_accounting",
                    residual: arrived as f64 - offered as f64,
                    detail: format!(
                        "{offered} population jobs submitted before slot {simulated} vs {} \
                         submitted + {} rejected + {} held",
                        self.batch_report.jobs_submitted,
                        self.admission_rejected,
                        self.admission_held.len()
                    ),
                });
            }
        }

        // Index hygiene: the active list and the id index cover exactly the
        // pending jobs.
        let pending = self.active_jobs.len();
        if self.job_index.len() != pending {
            report.push(AuditViolation {
                slot: None,
                site: None,
                invariant: "index_active_agree",
                residual: self.job_index.len() as f64 - pending as f64,
                detail: format!(
                    "job_index has {} entries, active list {}",
                    self.job_index.len(),
                    pending
                ),
            });
        }
        let mut pending_batch = 0usize;
        let mut pending_repairs = 0usize;
        let mut pending_migrations = 0usize;
        for &idx in &self.active_jobs {
            let j = &self.jobs[idx];
            if !j.is_pending() {
                report.push(AuditViolation {
                    slot: None,
                    site: None,
                    invariant: "active_job_pending",
                    residual: 0.0,
                    detail: format!("job {} on the active list is not pending", j.id.0),
                });
            }
            if self.job_index.get(&j.id) != Some(&idx) {
                report.push(AuditViolation {
                    slot: None,
                    site: None,
                    invariant: "index_maps_active",
                    residual: 0.0,
                    detail: format!("job {} missing from (or stale in) job_index", j.id.0),
                });
            }
            if j.id.0 >= MIGRATION_ID_BASE {
                pending_migrations += 1;
            } else if j.id.0 >= REPAIR_ID_BASE {
                pending_repairs += 1;
            } else {
                pending_batch += 1;
            }
        }

        // (b)/(d) Completion accounting: submitted = completed + pending,
        // for batch and repair populations separately.
        if self.batch_report.jobs_submitted != self.batch_report.jobs_completed + pending_batch {
            report.push(AuditViolation {
                slot: None,
                site: None,
                invariant: "batch_job_accounting",
                residual: self.batch_report.jobs_submitted as f64
                    - (self.batch_report.jobs_completed + pending_batch) as f64,
                detail: format!(
                    "{} submitted != {} completed + {} pending",
                    self.batch_report.jobs_submitted,
                    self.batch_report.jobs_completed,
                    pending_batch
                ),
            });
        }
        if repairs_spawned as u64 != self.repairs_completed + pending_repairs as u64 {
            report.push(AuditViolation {
                slot: None,
                site: None,
                invariant: "repair_job_accounting",
                residual: repairs_spawned as f64
                    - (self.repairs_completed + pending_repairs as u64) as f64,
                detail: format!(
                    "{repairs_spawned} repairs spawned != {} completed + {pending_repairs} pending",
                    self.repairs_completed
                ),
            });
        }
        if migrations_spawned as u64 != self.migrations_completed + pending_migrations as u64 {
            report.push(AuditViolation {
                slot: None,
                site: None,
                invariant: "migration_job_accounting",
                residual: migrations_spawned as f64
                    - (self.migrations_completed + pending_migrations as u64) as f64,
                detail: format!(
                    "{migrations_spawned} migrations spawned != {} completed + \
                     {pending_migrations} pending",
                    self.migrations_completed
                ),
            });
        }

        // Repair-table hygiene: exactly the pending repairs remain mapped
        // to replacement disks. A completed repair left in the table (the
        // historic leak) shows up as both a length mismatch and a stale
        // entry missing from the live index.
        if self.repair_jobs.len() != pending_repairs {
            report.push(AuditViolation {
                slot: None,
                site: None,
                invariant: "repair_table_size",
                residual: self.repair_jobs.len() as f64 - pending_repairs as f64,
                detail: format!(
                    "repair_jobs holds {} entries for {pending_repairs} pending repairs",
                    self.repair_jobs.len()
                ),
            });
        }
        for id in self.repair_jobs.keys() {
            if !self.job_index.contains_key(id) {
                report.push(AuditViolation {
                    slot: None,
                    site: None,
                    invariant: "repair_table_stale_entry",
                    residual: 0.0,
                    detail: format!("repair_jobs entry {} is not a pending job", id.0),
                });
            }
        }

        // Migration-table hygiene, mirroring the repair table: exactly the
        // pending migrations remain mapped to their object payloads.
        if self.migration_jobs.len() != pending_migrations {
            report.push(AuditViolation {
                slot: None,
                site: None,
                invariant: "migration_table_size",
                residual: self.migration_jobs.len() as f64 - pending_migrations as f64,
                detail: format!(
                    "migration_jobs holds {} entries for {pending_migrations} pending migrations",
                    self.migration_jobs.len()
                ),
            });
        }
        for id in self.migration_jobs.keys() {
            if !self.job_index.contains_key(id) {
                report.push(AuditViolation {
                    slot: None,
                    site: None,
                    invariant: "migration_table_stale_entry",
                    residual: 0.0,
                    detail: format!("migration_jobs entry {} is not a pending job", id.0),
                });
            }
        }

        // (d) Batch-report orderings (monotone counters).
        let b = &self.batch_report;
        if b.jobs_completed > b.jobs_submitted
            || b.deadline_misses > b.jobs_completed
            || b.bytes_completed > b.bytes_submitted
        {
            report.push(AuditViolation {
                slot: None,
                site: None,
                invariant: "batch_report_order",
                residual: 0.0,
                detail: format!("{b:?}"),
            });
        }

        report
    }

    /// Drive the remaining slots under a fresh [`ConservationAuditor`],
    /// fold in the post-run audit, and return the combined report alongside
    /// the simulation (still un-consumed, ready for
    /// [`Simulation::into_report`]). The convenience entry point behind
    /// `run_once --audit` and the fuzz harness.
    pub fn run_audited(mut self) -> (Self, AuditReport) {
        let (auditor, handle) = ConservationAuditor::new();
        self.add_observer(Box::new(auditor));
        while self.step().is_some() {}
        let mut report =
            std::mem::take(&mut *handle.lock().expect("auditor handle is never poisoned"));
        report.merge(self.post_run_audit());
        (self, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::policy::PolicyKind;
    use gm_workload::{BatchJob, EventFeed};

    fn audit(cfg: &ExperimentConfig) -> AuditReport {
        let (_, report) =
            Simulation::builder(cfg).build().expect("config materialises").run_audited();
        report
    }

    #[test]
    fn small_demo_is_clean_under_every_policy() {
        for policy in [
            PolicyKind::AllOn,
            PolicyKind::PowerProportional,
            PolicyKind::Edf,
            PolicyKind::GreedyGreen,
            PolicyKind::GreenMatch { delay_fraction: 1.0 },
            PolicyKind::GreenMatchWindow { delay_fraction: 1.0, horizon: 6 },
            PolicyKind::GreenMatchCarbon { delay_fraction: 1.0 },
        ] {
            let cfg = ExperimentConfig::small_demo(11).with_slots(48).with_policy(policy);
            let report = audit(&cfg);
            assert!(report.is_clean(), "{policy:?}: {}", render_all(&report));
            assert_eq!(report.slots_audited, 48);
        }
    }

    #[test]
    fn multi_site_run_is_clean() {
        let base = ExperimentConfig::small_demo(11)
            .with_policy(PolicyKind::GreenMatch { delay_fraction: 1.0 })
            .with_slots(48);
        let mut sites = base.site_configs();
        let mut east = sites[0].clone();
        east.name = "east".into();
        east.utc_offset_hours = 8;
        sites.push(east);
        let cfg = base.with_sites(sites).with_wan_cost(200);
        let report = audit(&cfg);
        assert!(report.is_clean(), "{}", render_all(&report));
    }

    #[test]
    fn repair_storm_run_is_clean() {
        let mut cfg = ExperimentConfig::small_demo(7).with_policy(PolicyKind::PowerProportional);
        cfg.slots = 7 * 24;
        cfg.failures = Some(gm_storage::FailureSpec {
            afr: 20.0,
            standby_factor: 0.5,
            spinup_wear_hours: 10.0,
        });
        let (sim, report) =
            Simulation::builder(&cfg).build().expect("config materialises").run_audited();
        assert!(report.is_clean(), "{}", render_all(&report));
        let r = sim.into_report();
        assert!(r.repairs_completed > 0, "storm must complete repairs");
    }

    #[test]
    fn doctored_outcome_is_flagged() {
        // Feed the auditor one good outcome and one with broken energy
        // accounting; only the doctored slot may produce violations.
        let mut sim = Simulation::builder(&ExperimentConfig::small_demo(11).with_slots(2))
            .build()
            .expect("config materialises");
        let good = sim.step().expect("slot 0");
        let (mut auditor, handle) = ConservationAuditor::new();
        auditor.on_slot(&good);
        assert!(handle.lock().unwrap().is_clean(), "real outcome is clean");

        let mut bad = sim.step().expect("slot 1");
        bad.energy.grid_wh += 5.0; // break the supply identity
        bad.battery_soc_frac = 1.5; // and the SoC range
        bad.matcher_residual_units = 3; // and unit accounting
        auditor.on_slot(&bad);
        let report = handle.lock().unwrap();
        let names: Vec<&str> = report.violations.iter().map(|v| v.invariant).collect();
        assert!(names.contains(&"supply_identity"), "{names:?}");
        assert!(names.contains(&"soc_fraction_range"), "{names:?}");
        assert!(names.contains(&"matcher_unit_accounting"), "{names:?}");
        assert!(report.violations.iter().all(|v| v.slot == Some(1)));
    }

    #[test]
    fn out_of_order_slots_are_flagged() {
        let mut sim = Simulation::builder(&ExperimentConfig::small_demo(11).with_slots(2))
            .build()
            .expect("config materialises");
        let first = sim.step().expect("slot 0");
        let (mut auditor, handle) = ConservationAuditor::new();
        auditor.on_slot(&first);
        auditor.on_slot(&first); // replayed slot => ordering violation
        let report = handle.lock().unwrap();
        assert!(report.violations.iter().any(|v| v.invariant == "slot_monotonicity"));
    }

    #[test]
    fn report_caps_stored_violations() {
        let mut report = AuditReport::default();
        for s in 0..1_500 {
            report.push(AuditViolation {
                slot: Some(s),
                site: None,
                invariant: "supply_identity",
                residual: 1.0,
                detail: String::new(),
            });
        }
        assert_eq!(report.violations.len(), 1_000);
        assert_eq!(report.suppressed, 500);
        assert_eq!(report.total_violations(), 1_500);
        assert!(!report.is_clean());
    }

    /// Audit `cfg` driven by an external feed that sends each slot's
    /// population arrivals after `doctor` has edited them.
    fn audit_fed(
        cfg: &ExperimentConfig,
        doctor: impl Fn(usize, &mut Vec<BatchJob>),
    ) -> AuditReport {
        let workload = crate::world::World::try_materialize(cfg).expect("world").workload;
        let (mut tx, feed) = EventFeed::new();
        for slot in 0..cfg.slots {
            let mut jobs = workload.batch_arrivals_in_slot(cfg.clock, slot);
            doctor(slot, &mut jobs);
            tx.send_slot(slot, jobs);
        }
        drop(tx);
        let sim = Simulation::builder(cfg).feed(feed).build().expect("config materialises");
        sim.run_audited().1
    }

    #[test]
    fn feed_accounting_flags_dropped_and_repeated_arrivals() {
        let cfg = ExperimentConfig::small_demo(11).with_slots(48);
        assert!(audit(&cfg).is_clean(), "replay feed");
        assert!(audit_fed(&cfg, |_, _| {}).is_clean(), "faithful external feed");

        let names = |report: &AuditReport| -> Vec<&'static str> {
            report.violations.iter().map(|v| v.invariant).collect()
        };
        let dropped = audit_fed(&cfg, |slot, jobs| {
            if slot == 10 {
                jobs.remove(0);
            }
        });
        assert_eq!(names(&dropped), ["feed_accounting"], "{}", render_all(&dropped));
        assert_eq!(dropped.violations[0].residual, -1.0);

        let repeated = audit_fed(&cfg, |slot, jobs| {
            if slot == 10 {
                jobs.push(jobs[0].clone());
            }
        });
        assert!(names(&repeated).contains(&"feed_accounting"), "{}", render_all(&repeated));
    }

    fn render_all(report: &AuditReport) -> String {
        report.violations.iter().map(|v| v.render()).collect::<Vec<_>>().join("\n")
    }
}

//! Scheduler interface and the shared planning model.
//!
//! Every policy sees the same [`SchedContext`] at each slot boundary —
//! the site list (each site's green forecast and planning model, home
//! first), pending batch work and expected interactive load — and returns
//! a [`Decision`]: how many gears to power at home, which batch bytes to
//! run at which site, and how much write-log reclaim to allow. The harness
//! executes the decision; policies never touch the cluster directly, which
//! keeps them comparable and testable in isolation.
//!
//! [`PlanningModel`] holds the closed-form capacity/energy arithmetic every
//! policy shares (min gears for a load level, batch bandwidth at a gear
//! level, marginal energy per batch byte, idle energy per gear). It is
//! derived once from the cluster spec.

use gm_energy::grid::Grid;
use gm_sim::time::{SimTime, SlotIdx};
use gm_sim::SlotClock;
use gm_storage::ClusterSpec;
use gm_workload::JobId;
use serde::{Deserialize, Serialize};

/// Utilisation cap per disk for interactive service (headroom for bursts).
pub const INTERACTIVE_RHO: f64 = 0.5;
/// Total utilisation cap per disk (interactive + batch).
pub const TOTAL_RHO: f64 = 0.8;

/// Closed-form capacity/energy arithmetic derived from the cluster spec.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanningModel {
    /// Gear count.
    pub gears: usize,
    /// Disks per gear.
    pub disks_per_gear: usize,
    /// Servers per gear.
    pub servers_per_gear: usize,
    /// Sequential bandwidth per disk (bytes/s).
    pub disk_bw_bps: f64,
    /// Marginal energy of one byte of batch work (Wh/byte): disk
    /// active-idle delta plus the server dynamic share.
    pub batch_wh_per_byte: f64,
    /// Extra idle energy of powering one more gear for one hour (Wh).
    pub gear_idle_wh_per_hour: f64,
    /// Idle power (W) at each gear level `1..=gears` (index 0 = 1 gear).
    pub idle_w_at: [f64; 8],
}

impl PlanningModel {
    /// Derive from a cluster spec (supports up to 8 gears).
    pub fn from_spec(spec: &ClusterSpec) -> Self {
        let topo = spec.topology;
        assert!(topo.gears <= 8, "planning model supports up to 8 gears");
        let disks_per_gear = topo.servers_per_gear() * topo.bays;
        let disk_marginal = (spec.disk.active_w - spec.disk.idle_w) / spec.disk.transfer_bps;
        // Server dynamic power amortised over its disks' combined bandwidth.
        let server_marginal =
            (spec.server.peak_w - spec.server.idle_w) / (topo.bays as f64 * spec.disk.transfer_bps);
        let batch_wh_per_byte = (disk_marginal + server_marginal) / 3600.0;
        let on_w = spec.server.idle_w + topo.bays as f64 * spec.disk.idle_w;
        let off_w = spec.server.off_w + topo.bays as f64 * spec.disk.standby_w;
        let gear_idle_wh_per_hour = topo.servers_per_gear() as f64 * (on_w - off_w);
        let mut idle_w_at = [0.0; 8];
        for (g, slot) in idle_w_at.iter_mut().enumerate() {
            let active = (g + 1).min(topo.gears);
            let on = active * topo.servers_per_gear();
            let off = topo.servers - on;
            *slot = on as f64 * on_w + off as f64 * off_w;
        }
        PlanningModel {
            gears: topo.gears,
            disks_per_gear,
            servers_per_gear: topo.servers_per_gear(),
            disk_bw_bps: spec.disk.transfer_bps,
            batch_wh_per_byte,
            gear_idle_wh_per_hour,
            idle_w_at,
        }
    }

    /// Idle power (W) with `g` gears active.
    pub fn idle_w(&self, g: usize) -> f64 {
        self.idle_w_at[g.clamp(1, self.gears) - 1]
    }

    /// Smallest gear level whose disks can absorb `busy_secs` of
    /// interactive service within a slot of `slot_secs` at the interactive
    /// utilisation cap.
    pub fn min_gears_for_interactive(&self, busy_secs: f64, slot_secs: f64) -> usize {
        for g in 1..=self.gears {
            let capacity = (g * self.disks_per_gear) as f64 * slot_secs * INTERACTIVE_RHO;
            if busy_secs <= capacity {
                return g;
            }
        }
        self.gears
    }

    /// Batch bytes runnable in one slot at gear level `g`, after reserving
    /// `interactive_busy_secs` of disk time for interactive service.
    pub fn batch_capacity_bytes(
        &self,
        g: usize,
        interactive_busy_secs: f64,
        slot_secs: f64,
    ) -> u64 {
        let g = g.clamp(1, self.gears);
        let disk_secs = (g * self.disks_per_gear) as f64 * slot_secs * TOTAL_RHO;
        let free_secs = (disk_secs - interactive_busy_secs).max(0.0);
        (free_secs * self.disk_bw_bps) as u64
    }

    /// Marginal energy (Wh) of running `bytes` of batch work.
    pub fn batch_energy_wh(&self, bytes: u64) -> f64 {
        bytes as f64 * self.batch_wh_per_byte
    }

    /// Bytes of batch work fundable by `wh` of (surplus) energy.
    pub fn bytes_fundable_by(&self, wh: f64) -> u64 {
        if wh <= 0.0 {
            0
        } else {
            (wh / self.batch_wh_per_byte) as u64
        }
    }
}

/// Scheduler-visible view of one pending batch job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobView {
    /// Job id.
    pub id: JobId,
    /// Bytes still to run.
    pub remaining_bytes: u64,
    /// Deadline slot (the job must finish in or before this slot).
    pub deadline_slot: SlotIdx,
    /// Whether the job must run now to meet its deadline.
    pub critical: bool,
    /// Whether the job's bytes must run at the home site: a repair
    /// rebuilds a home disk, so no remote site can take its work.
    #[serde(default)]
    pub home_only: bool,
}

/// Columnar (struct-of-arrays) table of the pending batch jobs.
///
/// The classify phase historically assembled a `Vec<JobView>` per slot;
/// the policy layer now works over parallel columns instead, so bulk
/// scans — total pending bytes, critical bytes, deadline keys for EDF
/// ordering — run over contiguous memory. Index `i` across all columns is
/// the `i`-th pending job in submission order, exactly the order the
/// historic view vector used. [`JobColumns::view`] materialises a single
/// [`JobView`] for code that wants the row form.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobColumns {
    ids: Vec<JobId>,
    remaining_bytes: Vec<u64>,
    deadline_slots: Vec<SlotIdx>,
    critical: Vec<bool>,
    home_only: Vec<bool>,
}

impl JobColumns {
    /// An empty table.
    pub fn new() -> Self {
        JobColumns::default()
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the table holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Clear all columns (capacity retained).
    pub fn clear(&mut self) {
        self.ids.clear();
        self.remaining_bytes.clear();
        self.deadline_slots.clear();
        self.critical.clear();
        self.home_only.clear();
    }

    /// Append one job to the columns.
    pub fn push(&mut self, view: JobView) {
        self.ids.push(view.id);
        self.remaining_bytes.push(view.remaining_bytes);
        self.deadline_slots.push(view.deadline_slot);
        self.critical.push(view.critical);
        self.home_only.push(view.home_only);
    }

    /// Materialise job `i` as a row.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn view(&self, i: usize) -> JobView {
        JobView {
            id: self.ids[i],
            remaining_bytes: self.remaining_bytes[i],
            deadline_slot: self.deadline_slots[i],
            critical: self.critical[i],
            home_only: self.home_only[i],
        }
    }

    /// Iterate the table as materialised [`JobView`] rows.
    pub fn iter(&self) -> impl Iterator<Item = JobView> + '_ {
        (0..self.len()).map(|i| self.view(i))
    }

    /// Job-id column.
    pub fn ids(&self) -> &[JobId] {
        &self.ids
    }

    /// Remaining-bytes column.
    pub fn remaining_bytes(&self) -> &[u64] {
        &self.remaining_bytes
    }

    /// Deadline-slot column.
    pub fn deadline_slots(&self) -> &[SlotIdx] {
        &self.deadline_slots
    }

    /// Criticality column.
    pub fn critical(&self) -> &[bool] {
        &self.critical
    }

    /// Total pending bytes — one contiguous column scan.
    pub fn total_remaining_bytes(&self) -> u64 {
        self.remaining_bytes.iter().sum()
    }

    /// Total bytes of deadline-critical jobs — a two-column scan.
    pub fn critical_bytes(&self) -> u64 {
        self.remaining_bytes.iter().zip(&self.critical).filter(|(_, c)| **c).map(|(b, _)| b).sum()
    }
}

impl FromIterator<JobView> for JobColumns {
    fn from_iter<I: IntoIterator<Item = JobView>>(iter: I) -> Self {
        let mut cols = JobColumns::new();
        for v in iter {
            cols.push(v);
        }
        cols
    }
}

impl From<Vec<JobView>> for JobColumns {
    fn from(views: Vec<JobView>) -> Self {
        views.into_iter().collect()
    }
}

/// One site as a policy sees it. Its index in [`SchedContext::sites`]
/// is its site index; index 0 is the home site. Interactive load exists
/// only at the home site, so remote sites plan batch work against their
/// full capacity.
#[derive(Debug, Clone, Copy)]
pub struct SiteView<'a> {
    /// Forecast green energy per slot at this site (Wh), index 0 = the
    /// slot being decided. The current slot's entry follows the era
    /// convention of accurate next-slot prediction.
    pub green_forecast_wh: &'a [f64],
    /// The site's planning arithmetic.
    pub model: PlanningModel,
    /// Per-unit WAN cost of placing work here (0 for the home site), on
    /// the [`crate::matcher::BROWN_COST`] scale.
    pub wan_cost_per_unit: i64,
}

/// Everything a policy may consult when deciding a slot.
///
/// The bulk fields are borrowed slices: the simulation owns the backing
/// buffers (in its `SlotScratch`) and rebuilds a fresh context view each
/// slot without copying them; only the site list, one small view per
/// site, is allocated per slot.
#[derive(Debug, Clone)]
pub struct SchedContext<'a> {
    /// Slot being decided.
    pub slot: SlotIdx,
    /// Slot start instant.
    pub now: SimTime,
    /// Slot clock.
    pub clock: SlotClock,
    /// Every site, home first: one element for a single-site experiment.
    /// Policies that read only [`Self::home`] never place work remotely.
    pub sites: &'a [SiteView<'a>],
    /// Expected interactive disk busy-seconds per slot at the home site,
    /// index 0 = this slot.
    pub interactive_busy_secs: &'a [f64],
    /// Pending batch jobs, in submission order, as a columnar table.
    pub jobs: &'a JobColumns,
    /// Pending write-log bytes awaiting reclaim.
    pub writelog_pending_bytes: u64,
    /// Grid profile (carbon intensity / price), for carbon-aware policies.
    pub grid: Grid,
}

impl<'a> SchedContext<'a> {
    /// The home site, `sites[0]` (the list is never empty).
    pub fn home(&self) -> &SiteView<'a> {
        &self.sites[0]
    }

    /// Slot width in seconds.
    pub fn slot_secs(&self) -> f64 {
        self.clock.width().as_secs_f64()
    }

    /// Slot width in hours.
    pub fn slot_hours(&self) -> f64 {
        self.clock.width().as_hours_f64()
    }

    /// Total pending batch bytes (a contiguous column scan).
    pub fn pending_batch_bytes(&self) -> u64 {
        self.jobs.total_remaining_bytes()
    }

    /// Minimum gears needed for this slot's interactive load.
    pub fn min_gears_now(&self) -> usize {
        self.home().model.min_gears_for_interactive(
            self.interactive_busy_secs.first().copied().unwrap_or(0.0),
            self.slot_secs(),
        )
    }
}

/// What a policy wants done this slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Decision {
    /// Gears to power at the home site for the slot (clamped to
    /// `[1, gears]` by the harness; remote sites gear to their placements).
    pub gears: usize,
    /// Batch work to perform: `(site, job, bytes)` triples, the home
    /// site's entries first, then each remote site's, grouped by site
    /// index — the order the harness executes them in. The harness
    /// truncates each entry to the job's remaining bytes.
    pub placements: Vec<(usize, JobId, u64)>,
    /// Write-log reclaim budget for the slot (bytes per gear).
    pub reclaim_budget_bytes: u64,
    /// Planner diagnostic: bytes whose deadline pressure exceeded the
    /// planning window's capacity this slot. Always 0 for policies without
    /// a feasibility-checking planner.
    pub infeasible_bytes: u64,
}

impl Decision {
    /// A do-nothing decision at the given gear level.
    pub fn idle(gears: usize) -> Self {
        Decision { gears, placements: Vec::new(), reclaim_budget_bytes: 0, infeasible_bytes: 0 }
    }

    /// Total batch bytes requested, all sites.
    pub fn total_batch_bytes(&self) -> u64 {
        self.placements.iter().map(|(_, _, b)| b).sum()
    }

    /// Batch bytes requested at `site`.
    pub fn site_bytes(&self, site: usize) -> u64 {
        self.placements.iter().filter(|(s, _, _)| *s == site).map(|(_, _, b)| b).sum()
    }
}

/// A scheduling policy.
pub trait Scheduler {
    /// Decide one slot.
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Decision;

    /// Label for reports.
    fn label(&self) -> String;

    /// Unit-accounting residual of the most recent matcher solve (total
    /// units minus placed + deferred + infeasible). Policies without a
    /// matcher report 0; the conservation auditor asserts it stays 0.
    fn matcher_residual_units(&self) -> i64 {
        0
    }
}

/// Config-friendly identifier for the built-in policies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Everything on, batch ASAP (with a battery: the "ESD-only" reference).
    AllOn,
    /// Gears follow load; batch ASAP. Renewable-oblivious.
    PowerProportional,
    /// PowerProportional with strict EDF batch ordering.
    Edf,
    /// Greedy opportunistic: defer batch until green surplus (or deadline).
    GreedyGreen,
    /// The GreenMatch planner; `delay_fraction` of batch work is deferrable
    /// (1.0 = pure GreenMatch, 0.0 ≈ PowerProportional).
    GreenMatch {
        /// Fraction of each job's work that participates in matching.
        delay_fraction: f64,
    },
    /// GreenMatch with an explicit planning window (for the horizon
    /// ablation; `horizon = 1` degenerates to greedy one-slot matching).
    GreenMatchWindow {
        /// Fraction of each job's work that participates in matching.
        delay_fraction: f64,
        /// Planning window in slots.
        horizon: usize,
    },
    /// GreenMatch with carbon-intensity-weighted brown pricing: unavoidable
    /// grid draw is steered into the grid's cleanest hours.
    GreenMatchCarbon {
        /// Fraction of each job's work that participates in matching.
        delay_fraction: f64,
    },
}

impl PolicyKind {
    /// Instantiate the policy.
    pub fn build(self) -> Box<dyn Scheduler + Send> {
        match self {
            PolicyKind::AllOn => Box::new(crate::baselines::AllOn),
            PolicyKind::PowerProportional => Box::new(crate::baselines::PowerProportional),
            PolicyKind::Edf => Box::new(crate::baselines::EdfPolicy),
            PolicyKind::GreedyGreen => Box::new(crate::baselines::GreedyGreen),
            PolicyKind::GreenMatch { delay_fraction } => {
                Box::new(crate::scheduler::GreenMatchPolicy::new(delay_fraction))
            }
            PolicyKind::GreenMatchWindow { delay_fraction, horizon } => Box::new(
                crate::scheduler::GreenMatchPolicy::new(delay_fraction).with_horizon(horizon),
            ),
            PolicyKind::GreenMatchCarbon { delay_fraction } => Box::new(
                crate::scheduler::GreenMatchPolicy::new(delay_fraction).with_carbon_awareness(),
            ),
        }
    }

    /// Label for reports.
    pub fn label(self) -> String {
        match self {
            PolicyKind::AllOn => "all-on".into(),
            PolicyKind::PowerProportional => "power-prop".into(),
            PolicyKind::Edf => "edf".into(),
            PolicyKind::GreedyGreen => "greedy-green".into(),
            PolicyKind::GreenMatch { delay_fraction } => {
                format!("greenmatch({:.0}%)", delay_fraction * 100.0)
            }
            PolicyKind::GreenMatchWindow { delay_fraction, horizon } => {
                format!("greenmatch({:.0}%,H={horizon})", delay_fraction * 100.0)
            }
            PolicyKind::GreenMatchCarbon { delay_fraction } => {
                format!("greenmatch-carbon({:.0}%)", delay_fraction * 100.0)
            }
        }
    }
}

/// Fill `capacity_bytes` at the home site with jobs in EDF order, as
/// site-0 placements; shared by several policies.
///
/// Sorts an index over the deadline/id columns (the job rows themselves
/// never move), then drains remaining-bytes in that order.
pub fn edf_fill(jobs: &JobColumns, capacity_bytes: u64) -> Vec<(usize, JobId, u64)> {
    let (ids, bytes, deadlines) = (jobs.ids(), jobs.remaining_bytes(), jobs.deadline_slots());
    let mut sorted: Vec<usize> = (0..jobs.len()).filter(|&i| bytes[i] > 0).collect();
    // Unstable sort is fine: (deadline, id) keys are unique per job.
    sorted.sort_unstable_by_key(|&i| (deadlines[i], ids[i]));
    let mut remaining = capacity_bytes;
    let mut out = Vec::new();
    for i in sorted {
        if remaining == 0 {
            break;
        }
        let take = bytes[i].min(remaining);
        out.push((0, ids[i], take));
        remaining -= take;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_storage::ClusterSpec;

    fn model() -> PlanningModel {
        PlanningModel::from_spec(&ClusterSpec::small())
    }

    #[test]
    fn planning_model_derivation() {
        let m = model();
        assert_eq!(m.gears, 3);
        assert_eq!(m.disks_per_gear, 4);
        assert_eq!(m.servers_per_gear, 2);
        // idle at 3 gears: 6 servers × (110 + 2×8) = 756 W.
        assert!((m.idle_w(3) - 756.0).abs() < 1e-9);
        // idle at 1 gear: 2×126 + 4×8 = 284 W.
        assert!((m.idle_w(1) - 284.0).abs() < 1e-9);
        // Each extra gear: 2 × (126 − 8) = 236 Wh/h.
        assert!((m.gear_idle_wh_per_hour - 236.0).abs() < 1e-9);
        // Out-of-range gear levels clamp.
        assert_eq!(m.idle_w(0), m.idle_w(1));
        assert_eq!(m.idle_w(7), m.idle_w(3));
    }

    #[test]
    fn min_gears_scales_with_load() {
        let m = model();
        let slot = 3600.0;
        assert_eq!(m.min_gears_for_interactive(0.0, slot), 1);
        // 1 gear capacity = 4 disks × 3600 × 0.5 = 7200 busy-secs.
        assert_eq!(m.min_gears_for_interactive(7_000.0, slot), 1);
        assert_eq!(m.min_gears_for_interactive(7_300.0, slot), 2);
        assert_eq!(m.min_gears_for_interactive(1e9, slot), 3, "saturates at max");
    }

    #[test]
    fn batch_capacity_net_of_interactive() {
        let m = model();
        let slot = 3600.0;
        let full = m.batch_capacity_bytes(1, 0.0, slot);
        // 4 disks × 3600 s × 0.8 × 140 MB/s.
        assert_eq!(full, (4.0 * 3600.0 * 0.8 * 140.0e6) as u64);
        let loaded = m.batch_capacity_bytes(1, 10_000.0, slot);
        assert!(loaded < full);
        assert_eq!(m.batch_capacity_bytes(1, 1e12, slot), 0);
        assert!(m.batch_capacity_bytes(3, 0.0, slot) == 3 * full);
    }

    #[test]
    fn batch_energy_roundtrip() {
        let m = model();
        let bytes = 100 << 30;
        let wh = m.batch_energy_wh(bytes);
        assert!(wh > 0.0);
        let back = m.bytes_fundable_by(wh);
        assert!((back as i64 - bytes as i64).unsigned_abs() < 1024, "{back} vs {bytes}");
        assert_eq!(m.bytes_fundable_by(-1.0), 0);
        assert_eq!(m.bytes_fundable_by(0.0), 0);
    }

    #[test]
    fn edf_fill_orders_and_caps() {
        let jobs: JobColumns = vec![
            JobView {
                id: JobId(1),
                remaining_bytes: 100,
                deadline_slot: 9,
                critical: false,
                home_only: false,
            },
            JobView {
                id: JobId(2),
                remaining_bytes: 100,
                deadline_slot: 3,
                critical: false,
                home_only: false,
            },
            JobView {
                id: JobId(3),
                remaining_bytes: 100,
                deadline_slot: 6,
                critical: false,
                home_only: false,
            },
        ]
        .into();
        let fill = edf_fill(&jobs, 150);
        assert_eq!(fill, vec![(0, JobId(2), 100), (0, JobId(3), 50)]);
        let all = edf_fill(&jobs, 10_000);
        assert_eq!(all.len(), 3);
        assert_eq!(edf_fill(&jobs, 0), vec![]);
    }

    #[test]
    fn job_columns_roundtrip_and_scans() {
        let views = vec![
            JobView {
                id: JobId(4),
                remaining_bytes: 10,
                deadline_slot: 2,
                critical: true,
                home_only: false,
            },
            JobView {
                id: JobId(5),
                remaining_bytes: 0,
                deadline_slot: 7,
                critical: false,
                home_only: true,
            },
            JobView {
                id: JobId(6),
                remaining_bytes: 30,
                deadline_slot: 1,
                critical: true,
                home_only: false,
            },
        ];
        let mut cols: JobColumns = views.clone().into();
        assert_eq!(cols.len(), 3);
        assert!(!cols.is_empty());
        assert_eq!(cols.iter().collect::<Vec<_>>(), views, "columns mirror the rows in order");
        assert_eq!(cols.view(1), views[1]);
        assert_eq!(cols.total_remaining_bytes(), 40);
        assert_eq!(cols.critical_bytes(), 40, "job 5 is non-critical and empty");
        assert_eq!(cols.ids(), &[JobId(4), JobId(5), JobId(6)]);
        assert_eq!(cols.deadline_slots(), &[2, 7, 1]);
        assert_eq!(cols.critical(), &[true, false, true]);
        cols.clear();
        assert!(cols.is_empty());
        assert_eq!(JobColumns::new().total_remaining_bytes(), 0);
    }

    #[test]
    fn decision_helpers() {
        let d = Decision::idle(2);
        assert_eq!(d.total_batch_bytes(), 0);
        let d2 = Decision {
            gears: 3,
            placements: vec![(0, JobId(1), 10), (0, JobId(2), 20), (1, JobId(3), 40)],
            reclaim_budget_bytes: 0,
            infeasible_bytes: 0,
        };
        assert_eq!(d2.total_batch_bytes(), 70);
        assert_eq!(d2.site_bytes(0), 30);
        assert_eq!(d2.site_bytes(1), 40);
        assert_eq!(d2.site_bytes(2), 0);
    }

    #[test]
    fn policy_labels() {
        assert_eq!(PolicyKind::AllOn.label(), "all-on");
        assert_eq!(PolicyKind::GreenMatch { delay_fraction: 0.3 }.label(), "greenmatch(30%)");
    }
}

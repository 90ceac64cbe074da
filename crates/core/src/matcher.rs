//! The GreenMatch matcher: assign deferrable batch bytes to forecast slots.
//!
//! Each slot, pending deferrable work is matched against the next `H` slots
//! by solving a small transportation problem with [`crate::mincostflow`]:
//!
//! ```text
//!  source ──(group bytes)──► deadline-group d ──► site×slot (s,t) ──► sink
//!                                   │                  green arc: cap = surplus-funded units, cost = t
//!                                   │                  brown arc: cap = rest of capacity,     cost = BROWN + t
//!                                   └──(far deadlines)──► beyond ──► sink   (cost = DEFER)
//! ```
//!
//! * Jobs are aggregated into **deadline groups** (work is divisible and
//!   jobs within a group are interchangeable), keeping the graph at
//!   ~`2H` nodes per site regardless of job count.
//! * Work is quantised into [`UNIT_BYTES`] units.
//! * A slot's **green capacity** is the work fundable by its predicted
//!   green surplus (forecast minus the non-batch floor: minimum-gear idle
//!   power plus the interactive marginal); the remainder of its physical
//!   capacity is **brown** and costs [`BROWN_COST`] per unit. The linear
//!   time-preference term breaks ties toward earlier slots so plans do not
//!   thrash between equal-cost schedules.
//! * Groups whose deadline is inside the window may overflow to `beyond`
//!   only at [`INFEASIBLE_COST`], so the solver stays feasible under
//!   overload and the overflow is a congestion signal.
//! * Single-site matching is the one-site case of the same network —
//!   there is exactly one solver code path to audit.
//!
//! # The `Matcher` handle
//!
//! [`Matcher`] is the sole entry point. It owns the flow network and every
//! work vector, and each round rebuilds the dense network into them:
//! [`MinCostFlow::reset`] keeps every adjacency allocation, so one handle
//! held across slots performs no steady-state allocation. There is no
//! incremental re-pricing path: the window slides every slot, so every
//! round's bins differ from the last and a re-priced solve costs what a
//! rebuild does (DESIGN §1.5).
//!
//! Gear-up fixed costs are deliberately *not* in the flow network (they are
//! concave); the executing policy re-checks gear economics when it turns
//! the slot-0 plan into a [`crate::policy::Decision`].

use crate::mincostflow::{EdgeId, MinCostFlow};
use crate::policy::{JobView, PlanningModel, SiteView};
use gm_sim::time::SlotIdx;

/// Quantum of batch work in the flow network (8 GiB).
pub const UNIT_BYTES: u64 = 8 << 30;
/// Per-unit cost of brown-funded capacity (green costs only its slot offset).
pub const BROWN_COST: i64 = 1_000;
/// Per-unit cost of deferring past-window work (far deadlines only).
pub const DEFER_COST: i64 = 100;
/// Per-unit cost of the overload escape for in-window deadlines.
pub const INFEASIBLE_COST: i64 = 100_000;

/// Input to one matching round.
///
/// `sites[0]` is the home site (zero WAN cost by construction); a
/// single-site round passes a one-element slice. Remote sites serve no
/// interactive traffic, so `interactive_busy_secs` applies to the home
/// site only.
#[derive(Debug, Clone)]
pub struct MatchInput<'a> {
    /// Pending deferrable jobs.
    pub jobs: &'a [JobView],
    /// Slot being decided (offset 0 of the window).
    pub current_slot: SlotIdx,
    /// Window length in slots.
    pub horizon: usize,
    /// Per-site capacity views, home first (index 0). The home view's WAN
    /// cost is zero by construction.
    pub sites: &'a [SiteView<'a>],
    /// Home-site expected interactive busy-seconds per slot, index 0 = the
    /// slot being decided.
    pub interactive_busy_secs: &'a [f64],
    /// Slot width in seconds.
    pub slot_secs: f64,
    /// Per-offset brown cost override (e.g. scaled by the grid's forecast
    /// carbon intensity for carbon-aware scheduling). `None` ⇒ uniform
    /// [`BROWN_COST`]. Values should be on the same scale as `BROWN_COST`;
    /// the override applies to every site's brown arcs.
    pub brown_cost_per_slot: Option<&'a [i64]>,
}

/// Copy-out summary of one matching round; the per-site schedule stays in
/// the [`Matcher`] (see [`Matcher::per_site_slot_bytes`]).
///
/// For single-site rounds the remote fields are zero and `bytes_now` is
/// the whole slot-0 plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchStats {
    /// Bytes the plan wants executed in the current slot at the home site.
    pub bytes_now: u64,
    /// Bytes the plan wants executed in the current slot on non-home sites.
    pub remote_bytes_now: u64,
    /// Bytes the whole plan places on non-home sites (any offset); each
    /// paid its site's WAN cost.
    pub wan_bytes: u64,
    /// Bytes pushed to the `beyond` node (deferred past the window).
    pub deferred_bytes: u64,
    /// Bytes that could only be placed via the overload escape (deadline
    /// pressure exceeds window capacity).
    pub infeasible_bytes: u64,
    /// Bytes of the plan sitting on green-funded arcs (all sites).
    pub green_bytes: u64,
    /// Bytes of the plan sitting on brown-funded arcs (all sites).
    pub brown_bytes: u64,
    /// Total solver cost (diagnostic).
    pub cost: i64,
    /// Unit-accounting residual: total units minus (placed + deferred +
    /// infeasible). Zero whenever the network conserved flow; the
    /// conservation auditor asserts it stays zero in release builds, where
    /// the solver's `debug_assert` is compiled out.
    pub unaccounted_units: i64,
}

/// Estimated non-batch energy floor (Wh) of one slot: idle power at the
/// interactive minimum gear level plus the interactive marginal.
#[must_use]
pub fn non_batch_floor_wh(model: &PlanningModel, busy_secs: f64, slot_secs: f64) -> f64 {
    let min_g = model.min_gears_for_interactive(busy_secs, slot_secs);
    let hours = slot_secs / 3600.0;
    let interactive_marginal_wh =
        busy_secs / 3600.0 * (model.batch_wh_per_byte * model.disk_bw_bps * 3600.0);
    model.idle_w(min_g) * hours + interactive_marginal_wh
}

/// Eligible window of deadline group `gi` (inclusive last slot offset).
fn last_slot(gi: usize, h: usize) -> usize {
    if gi == h {
        h - 1
    } else {
        gi.min(h - 1)
    }
}

/// Escape-arc cost of deadline group `gi`: far groups defer benignly,
/// in-window groups escape only as an overload signal.
fn escape_cost(gi: usize, h: usize) -> i64 {
    if gi == h {
        DEFER_COST
    } else {
        INFEASIBLE_COST
    }
}

/// The stateful matcher: flow network and work vectors reused across
/// matching rounds.
///
/// One handle is held across slots (by [`crate::scheduler::GreenMatchPolicy`],
/// and transitively by every simulation and `JobPool` worker).
/// [`Matcher::solve`] is the only solve entry point.
#[derive(Debug, Clone, Default)]
pub struct Matcher {
    flow: MinCostFlow,
    /// Shape of the most recent round's network.
    horizon: usize,
    n_sites: usize,
    // Per-round work vectors (bins), reused across rounds.
    group_units: Vec<i64>,
    green_caps: Vec<i64>,
    brown_caps: Vec<i64>,
    brown_arc_costs: Vec<i64>,
    wan: Vec<i64>,
    // Handles of the arcs the schedule is read back from.
    green_arcs: Vec<EdgeId>,
    brown_arcs: Vec<EdgeId>,
    beyond_arc: Option<EdgeId>,
    // Most recent schedule.
    per_site_slot_bytes: Vec<u64>,
}

impl Matcher {
    /// A fresh matcher.
    #[must_use]
    pub fn new() -> Self {
        Matcher::default()
    }

    /// Bytes planned per `site × slot` (row-major: `site * horizon + slot`)
    /// from the most recent [`Matcher::solve`] call.
    #[must_use]
    pub fn per_site_slot_bytes(&self) -> &[u64] {
        &self.per_site_slot_bytes
    }

    /// The home site's planned bytes per window offset (0 = run now) from
    /// the most recent round — the whole schedule of a single-site round.
    #[must_use]
    pub fn per_slot_bytes(&self) -> &[u64] {
        &self.per_site_slot_bytes[..self.horizon.min(self.per_site_slot_bytes.len())]
    }

    /// Bytes planned at window offset `t` on `site` in the most recent
    /// round (0 for out-of-range indices).
    #[must_use]
    pub fn site_slot_bytes(&self, site: usize, t: usize) -> u64 {
        if site >= self.n_sites || t >= self.horizon {
            return 0;
        }
        self.per_site_slot_bytes[site * self.horizon + t]
    }

    /// Bytes the plan wants executed in the current slot on `site`.
    #[must_use]
    pub fn bytes_now(&self, site: usize) -> u64 {
        self.site_slot_bytes(site, 0)
    }

    /// Solve one matching round.
    ///
    /// The per-site schedule is retained on the handle (see
    /// [`Matcher::per_site_slot_bytes`]); the returned [`MatchStats`] is
    /// the copy-out summary.
    ///
    /// # Panics
    ///
    /// If `input.sites` is empty (the home site is mandatory).
    pub fn solve(&mut self, input: &MatchInput<'_>) -> MatchStats {
        assert!(!input.sites.is_empty(), "MatchInput requires at least the home site");
        let h = input.horizon.max(1);
        let n_sites = input.sites.len();

        // Deadline groups, clamped into the window; group h collects the
        // far deadlines.
        let group_units = &mut self.group_units;
        group_units.clear();
        group_units.resize(h + 1, 0);
        for j in input.jobs {
            if j.remaining_bytes == 0 {
                continue;
            }
            let units = (j.remaining_bytes.div_ceil(UNIT_BYTES)) as i64;
            let off = j.deadline_slot.saturating_sub(input.current_slot);
            let g = off.min(h); // ≥ h ⇒ far
            group_units[g] += units;
        }
        let total_units: i64 = group_units.iter().sum();

        // Per-site×slot bins: green capacity funded by forecast surplus,
        // brown capacity as the physical remainder, brown price per offset.
        self.green_caps.clear();
        self.brown_caps.clear();
        self.wan.clear();
        for (si, site) in input.sites.iter().enumerate() {
            self.wan.push(if si == 0 { 0 } else { site.wan_cost_per_unit });
            for t in 0..h {
                let busy = if si == 0 {
                    input.interactive_busy_secs.get(t).copied().unwrap_or(0.0)
                } else {
                    0.0
                };
                let capacity_units =
                    (site.model.batch_capacity_bytes(site.model.gears, busy, input.slot_secs)
                        / UNIT_BYTES) as i64;
                let surplus_wh = (site.green_forecast_wh.get(t).copied().unwrap_or(0.0)
                    - non_batch_floor_wh(&site.model, busy, input.slot_secs))
                .max(0.0);
                let green_units = ((site.model.bytes_fundable_by(surplus_wh) / UNIT_BYTES) as i64)
                    .min(capacity_units);
                self.green_caps.push(green_units);
                self.brown_caps.push(capacity_units - green_units);
            }
        }
        self.brown_arc_costs.clear();
        for t in 0..h {
            let base =
                input.brown_cost_per_slot.and_then(|c| c.get(t).copied()).unwrap_or(BROWN_COST);
            self.brown_arc_costs.push(base + (h - t) as i64);
        }

        self.horizon = h;
        self.n_sites = n_sites;
        self.rebuild(total_units);
        self.run_solve(total_units)
    }

    /// Build the dense network for the current shape and bins into the
    /// retained flow instance.
    fn rebuild(&mut self, total_units: i64) {
        let (h, n_sites) = (self.horizon, self.n_sites);
        // Node numbering: slot node (s, t) = slot_base + s*h + t.
        let source = 0usize;
        let group_base = 1usize;
        let slot_base = group_base + h + 1;
        let beyond = slot_base + n_sites * h;
        let sink = beyond + 1;
        let g = &mut self.flow;
        g.reset(sink + 1);

        // Source → groups.
        for (gi, &units) in self.group_units.iter().enumerate() {
            g.add_edge(source, group_base + gi, units, 0);
        }

        // Groups → eligible slots on every site (+ escapes). Non-home
        // sites charge their WAN transfer cost per unit on the way in.
        for (gi, &units) in self.group_units.iter().enumerate() {
            let last = last_slot(gi, h);
            for si in 0..n_sites {
                for t in 0..=last {
                    g.add_edge(group_base + gi, slot_base + si * h + t, units, self.wan[si]);
                }
            }
            g.add_edge(group_base + gi, beyond, units, escape_cost(gi, h));
        }

        // Site-slots → sink (green + brown arcs per site).
        self.green_arcs.clear();
        self.brown_arcs.clear();
        for si in 0..n_sites {
            for t in 0..h {
                let node = slot_base + si * h + t;
                self.green_arcs.push(g.add_edge(node, sink, self.green_caps[si * h + t], t as i64));
                self.brown_arcs.push(g.add_edge(
                    node,
                    sink,
                    self.brown_caps[si * h + t],
                    self.brown_arc_costs[t],
                ));
            }
        }
        self.beyond_arc = Some(g.add_edge(beyond, sink, total_units.max(1), 0));
    }

    /// Run the deterministic solver on the prepared network and extract the
    /// schedule and stats.
    fn run_solve(&mut self, total_units: i64) -> MatchStats {
        let (h, n_sites) = (self.horizon, self.n_sites);
        let source = 0usize;
        let slot_base = 1 + h + 1;
        let sink = slot_base + n_sites * h + 1;
        let result = self.flow.solve(source, sink, total_units);
        debug_assert_eq!(result.flow, total_units, "network must absorb all work");

        let per_site_slot_bytes = &mut self.per_site_slot_bytes;
        per_site_slot_bytes.clear();
        per_site_slot_bytes.resize(n_sites * h, 0);
        let mut green_bytes = 0u64;
        let mut brown_bytes = 0u64;
        let mut wan_bytes = 0u64;
        let mut remote_bytes_now = 0u64;
        let mut placed_units = 0i64;
        for si in 0..n_sites {
            for t in 0..h {
                let b = si * h + t;
                let fg = self.flow.flow_on(self.green_arcs[b]);
                let fb = self.flow.flow_on(self.brown_arcs[b]);
                green_bytes += fg as u64 * UNIT_BYTES;
                brown_bytes += fb as u64 * UNIT_BYTES;
                let units = fg + fb;
                placed_units += units;
                let bytes = units as u64 * UNIT_BYTES;
                per_site_slot_bytes[b] = bytes;
                if si > 0 {
                    wan_bytes += bytes;
                    if t == 0 {
                        remote_bytes_now += bytes;
                    }
                }
            }
        }
        let beyond = self.beyond_arc.expect("solved topology has a beyond arc");
        let beyond_units = self.flow.flow_on(beyond);
        // Split the escape flow into benign deferral vs deadline overflow
        // by re-deriving how much far-group work there was.
        let far_units = self.group_units[h];
        let deferred_units = beyond_units.min(far_units);
        let infeasible_units = beyond_units - deferred_units;

        MatchStats {
            bytes_now: per_site_slot_bytes.first().copied().unwrap_or(0),
            remote_bytes_now,
            wan_bytes,
            deferred_bytes: deferred_units as u64 * UNIT_BYTES,
            infeasible_bytes: infeasible_units as u64 * UNIT_BYTES,
            green_bytes,
            brown_bytes,
            cost: result.cost,
            unaccounted_units: total_units - placed_units - beyond_units,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SiteView;
    use gm_storage::ClusterSpec;
    use gm_workload::JobId;

    fn model() -> PlanningModel {
        PlanningModel::from_spec(&ClusterSpec::small())
    }

    fn job(id: u64, gib: u64, deadline_slot: usize) -> JobView {
        JobView {
            id: JobId(id),
            remaining_bytes: gib << 30,
            deadline_slot,
            critical: false,
            home_only: false,
        }
    }

    /// Green forecast with surplus only in the given offsets.
    fn forecast(h: usize, green_offsets: &[usize], wh: f64) -> Vec<f64> {
        let mut v = vec![0.0; h];
        for &o in green_offsets {
            v[o] = wh;
        }
        v
    }

    fn site_views<'a>(forecasts: &'a [Vec<f64>], wan_cost_per_unit: i64) -> Vec<SiteView<'a>> {
        forecasts
            .iter()
            .enumerate()
            .map(|(i, f)| SiteView {
                green_forecast_wh: f,
                model: model(),
                wan_cost_per_unit: if i == 0 { 0 } else { wan_cost_per_unit },
            })
            .collect()
    }

    fn input<'a>(
        jobs: &'a [JobView],
        sites: &'a [SiteView<'a>],
        busy: &'a [f64],
    ) -> MatchInput<'a> {
        MatchInput {
            jobs,
            current_slot: 0,
            horizon: busy.len(),
            sites,
            interactive_busy_secs: busy,
            slot_secs: 3600.0,
            brown_cost_per_slot: None,
        }
    }

    /// One-shot single-site solve on a fresh handle; returns the stats and
    /// the home schedule.
    fn solve_single(jobs: &[JobView], green: &[f64], busy: &[f64]) -> (MatchStats, Vec<u64>) {
        let forecasts = vec![green.to_vec()];
        let sites = site_views(&forecasts, 0);
        let mut m = Matcher::new();
        let stats = m.solve(&input(jobs, &sites, busy));
        (stats, m.per_slot_bytes().to_vec())
    }

    #[test]
    fn work_flows_to_green_slots() {
        // Surplus at offset 3 only; job deadline at offset 6.
        let jobs = vec![job(1, 64, 6)];
        let green = forecast(8, &[3], 5_000.0);
        let busy = vec![0.0; 8];
        let (stats, plan) = solve_single(&jobs, &green, &busy);
        assert_eq!(stats.bytes_now, 0, "nothing runs in the brown present");
        assert!(plan[3] >= 64 << 30, "work lands in the green slot");
        assert_eq!(stats.brown_bytes, 0);
        assert!(stats.green_bytes >= 64 << 30);
        assert_eq!(stats.infeasible_bytes, 0);
    }

    #[test]
    fn deadline_forces_brown_when_no_green_in_window() {
        let jobs = vec![job(1, 64, 2)];
        let green = forecast(8, &[], 0.0);
        let busy = vec![0.0; 8];
        let (stats, plan) = solve_single(&jobs, &green, &busy);
        let placed: u64 = plan[..3].iter().sum();
        assert!(placed >= 64 << 30, "deadline work placed despite brown cost");
        assert!(stats.brown_bytes >= 64 << 30);
        assert_eq!(stats.deferred_bytes, 0);
    }

    #[test]
    fn far_deadlines_defer_past_window() {
        let jobs = vec![job(1, 64, 1_000)];
        let green = forecast(8, &[], 0.0);
        let busy = vec![0.0; 8];
        let (stats, _) = solve_single(&jobs, &green, &busy);
        assert_eq!(stats.bytes_now, 0);
        assert!(stats.deferred_bytes >= 64 << 30, "no green, far deadline ⇒ wait");
        assert_eq!(stats.infeasible_bytes, 0);
    }

    #[test]
    fn far_work_still_takes_free_green() {
        let jobs = vec![job(1, 64, 1_000)];
        let green = forecast(8, &[2], 5_000.0);
        let busy = vec![0.0; 8];
        let (_, plan) = solve_single(&jobs, &green, &busy);
        assert!(plan[2] > 0, "green capacity is cheaper than deferring");
    }

    #[test]
    fn earlier_green_preferred_on_ties() {
        let jobs = vec![job(1, 16, 1_000)];
        let green = forecast(8, &[2, 5], 5_000.0);
        let busy = vec![0.0; 8];
        let (_, plan) = solve_single(&jobs, &green, &busy);
        assert!(plan[2] >= plan[5]);
        assert!(plan[2] >= 16 << 30);
    }

    #[test]
    fn overload_reports_infeasible_bytes() {
        // One-slot window; more deadline work than one slot's capacity.
        let capacity = model().batch_capacity_bytes(3, 0.0, 3600.0);
        let too_much_gib = (capacity / (1 << 30)) * 3;
        let jobs = vec![job(1, too_much_gib, 0)];
        let green = forecast(1, &[], 0.0);
        let busy = vec![0.0; 1];
        let (stats, plan) = solve_single(&jobs, &green, &busy);
        assert!(stats.infeasible_bytes > 0, "overflow must be flagged");
        assert!(plan[0] > 0, "window still packed full");
    }

    #[test]
    fn no_jobs_is_an_empty_plan() {
        let green = forecast(4, &[1], 1_000.0);
        let busy = vec![0.0; 4];
        let (stats, _) = solve_single(&[], &green, &busy);
        assert_eq!(stats.bytes_now, 0);
        assert_eq!(stats.green_bytes + stats.brown_bytes + stats.deferred_bytes, 0);
        assert_eq!(stats.cost, 0);
    }

    #[test]
    fn interactive_load_shrinks_green_capacity() {
        let jobs = vec![job(1, 512, 1_000)];
        // 400 Wh: barely above the 1-gear idle floor when idle, below the
        // 2-gear floor once interactive load forces a second gear.
        let green = forecast(4, &[1], 400.0);
        let idle_busy = vec![0.0; 4];
        let (_, plan_idle) = solve_single(&jobs, &green, &idle_busy);
        // Same green, but heavy interactive load in slot 1.
        let loaded_busy = vec![0.0, 12_000.0, 0.0, 0.0];
        let (_, plan_loaded) = solve_single(&jobs, &green, &loaded_busy);
        assert!(
            plan_loaded[1] < plan_idle[1],
            "interactive floor eats green surplus: {} vs {}",
            plan_loaded[1],
            plan_idle[1]
        );
    }

    #[test]
    fn brown_cost_override_steers_forced_work() {
        // No green; deadline at offset 2, so the work must land in offsets
        // 0..=2 on brown power. Uniform pricing procrastinates to offset 2;
        // an override making offset 0 far cheaper pulls it forward.
        let jobs = vec![job(1, 16, 2)];
        let green = forecast(4, &[], 0.0);
        let busy = vec![0.0; 4];
        let (uniform, plan) = solve_single(&jobs, &green, &busy);
        assert_eq!(uniform.bytes_now, 0, "uniform pricing procrastinates");
        assert!(plan[2] >= 16 << 30);

        let costs = vec![100i64, 5_000, 5_000, 5_000];
        let forecasts = vec![green.clone()];
        let sites = site_views(&forecasts, 0);
        let mut inp = input(&jobs, &sites, &busy);
        inp.brown_cost_per_slot = Some(&costs);
        let mut m = Matcher::new();
        let steered = m.solve(&inp);
        assert!(steered.bytes_now >= 16 << 30, "cheap-now pricing runs now");
    }

    #[test]
    fn handle_reuse_matches_fresh_solve() {
        // One handle across rounds of different shape and horizon must
        // reproduce exactly what a fresh handle produces: no state of an
        // earlier round leaks into a later one.
        let mut reused = Matcher::new();
        let rounds: Vec<(Vec<JobView>, Vec<f64>)> = vec![
            (vec![job(1, 64, 6)], forecast(8, &[3], 5_000.0)),
            (vec![job(2, 64, 2), job(3, 16, 1_000)], forecast(4, &[], 0.0)),
            (vec![], forecast(6, &[1], 1_000.0)),
            (vec![job(4, 512, 1_000)], forecast(8, &[2, 5], 5_000.0)),
            (vec![job(4, 512, 1_000)], forecast(8, &[2, 5], 5_000.0)),
            (vec![job(4, 256, 900)], forecast(8, &[2], 5_000.0)),
        ];
        for (jobs, green) in &rounds {
            let busy = vec![0.0; green.len()];
            let forecasts = vec![green.clone()];
            let sites = site_views(&forecasts, 0);
            let inp = input(jobs, &sites, &busy);
            let mut fresh = Matcher::new();
            let want = fresh.solve(&inp);
            let got = reused.solve(&inp);
            assert_eq!(got, want);
            assert_eq!(reused.per_slot_bytes(), fresh.per_slot_bytes());
        }
    }

    #[test]
    fn cheap_wan_ships_deadline_work_to_remote_green() {
        // No green at home, surplus on the remote site, deadline inside the
        // window: brown at home costs BROWN_COST per unit, remote green
        // costs the WAN fee. Cheap WAN ⇒ ship; ruinous WAN ⇒ stay home.
        let jobs = vec![job(1, 64, 2)];
        let busy = vec![0.0; 8];
        let forecasts = vec![forecast(8, &[], 0.0), forecast(8, &[1], 5_000.0)];

        let cheap = site_views(&forecasts, 200);
        let mut m = Matcher::new();
        let shipped = m.solve(&input(&jobs, &cheap, &busy));
        assert!(shipped.wan_bytes >= 64 << 30, "cheap WAN ships to remote green");
        assert_eq!(shipped.brown_bytes, 0);
        assert!(m.site_slot_bytes(1, 1) >= 64 << 30);

        let ruinous = site_views(&forecasts, 1_000_000);
        let stayed = m.solve(&input(&jobs, &ruinous, &busy));
        assert_eq!(stayed.wan_bytes, 0, "ruinous WAN keeps work on home brown");
        assert!(stayed.brown_bytes >= 64 << 30);
    }

    #[test]
    fn multi_site_plans_conserve_bytes_and_respect_capacity() {
        // Property test over pseudo-random rounds: every unit of work is
        // accounted for (placed, deferred, or flagged infeasible), no
        // site-slot exceeds its physical capacity, and the reused handle
        // agrees with a fresh one on every round.
        let mut seed = 0x00C0_FFEE_u64;
        let mut rng = move || gm_sim::rng::splitmix64(&mut seed);
        let mut m = Matcher::new();
        for round in 0..40 {
            let h = 2 + (rng() % 10) as usize;
            let n_sites = 1 + (rng() % 3) as usize;
            let wan = [0, 200, 2_000, 500_000][(rng() % 4) as usize];
            let n_jobs = (rng() % 12) as usize;
            let jobs: Vec<JobView> = (0..n_jobs)
                .map(|i| {
                    let gib = rng() % 1_500;
                    let deadline = (rng() % (3 * h as u64)) as usize;
                    job(i as u64, gib, deadline)
                })
                .collect();
            let forecasts: Vec<Vec<f64>> =
                (0..n_sites).map(|_| (0..h).map(|_| (rng() % 8_000) as f64).collect()).collect();
            let busy: Vec<f64> = (0..h).map(|_| (rng() % 4_000) as f64).collect();
            let sites = site_views(&forecasts, wan);
            let inp = input(&jobs, &sites, &busy);
            let stats = m.solve(&inp);
            let mut fresh = Matcher::new();
            assert_eq!(fresh.solve(&inp), stats, "round {round}: reused == fresh");
            assert_eq!(fresh.per_site_slot_bytes(), m.per_site_slot_bytes(), "round {round}");

            let total: u64 =
                jobs.iter().map(|j| j.remaining_bytes.div_ceil(UNIT_BYTES) * UNIT_BYTES).sum();
            let placed: u64 = m.per_site_slot_bytes().iter().sum();
            assert_eq!(
                placed + stats.deferred_bytes + stats.infeasible_bytes,
                total,
                "round {round}: every unit placed, deferred, or infeasible"
            );
            assert_eq!(stats.green_bytes + stats.brown_bytes, placed, "round {round}");
            assert_eq!(stats.unaccounted_units, 0, "round {round}: flow conserved");
            for (si, site) in sites.iter().enumerate() {
                for (t, &slot_busy) in busy.iter().enumerate().take(h) {
                    let b = if si == 0 { slot_busy } else { 0.0 };
                    let cap = site.model.batch_capacity_bytes(site.model.gears, b, 3600.0);
                    assert!(
                        m.site_slot_bytes(si, t) <= cap,
                        "round {round}: site {si} slot {t} over capacity"
                    );
                }
            }
        }
    }

    #[test]
    fn non_batch_floor_includes_idle_and_marginal() {
        let m = model();
        let floor0 = non_batch_floor_wh(&m, 0.0, 3600.0);
        let floor1 = non_batch_floor_wh(&m, 7_200.0, 3600.0);
        // Idle slot: one idle gear = 284 Wh.
        assert!((floor0 - 284.0).abs() < 1e-6, "{floor0}");
        assert!(floor1 > floor0, "busy slot has a higher floor");
    }
}

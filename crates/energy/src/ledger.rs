//! Per-slot energy bookkeeping.
//!
//! Every policy run produces, for each slot, a [`SlotFlows`] record; the
//! [`EnergyLedger`] accumulates them, keeps the per-slot series for plots,
//! and enforces the two conservation identities:
//!
//! ```text
//! load          = green_direct + battery_out + brown          (supply side)
//! green_produced = green_direct + battery_drawn + curtailed   (production side)
//! ```
//!
//! All quantities are **energy per slot in Wh**, already integrated by the
//! caller. Battery-internal losses (efficiency, self-discharge) live in the
//! battery and are copied into the ledger totals at the end of a run.

use crate::grid::Grid;
use gm_sim::time::SlotIdx;
use gm_sim::{SlotClock, TimeSeries};
use serde::{Deserialize, Serialize};

/// Energy flows of a single slot (Wh).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SlotFlows {
    /// Total renewable energy produced this slot.
    pub green_produced_wh: f64,
    /// Renewable energy consumed directly by the load.
    pub green_direct_wh: f64,
    /// Renewable energy drawn into the battery (source side, pre-efficiency).
    pub battery_drawn_wh: f64,
    /// Energy delivered from the battery to the load.
    pub battery_out_wh: f64,
    /// Grid (brown) energy consumed by the load.
    pub brown_wh: f64,
    /// Renewable energy neither consumed nor stored (lost/curtailed).
    pub curtailed_wh: f64,
    /// Total energy consumed by the load (= IT + overheads) this slot.
    pub load_wh: f64,
}

impl SlotFlows {
    /// Residual of the supply-side identity (should be ~0).
    pub fn supply_residual(&self) -> f64 {
        self.load_wh - (self.green_direct_wh + self.battery_out_wh + self.brown_wh)
    }

    /// Residual of the production-side identity (should be ~0).
    pub fn production_residual(&self) -> f64 {
        self.green_produced_wh - (self.green_direct_wh + self.battery_drawn_wh + self.curtailed_wh)
    }
}

/// Accumulated energy accounting for one policy run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnergyLedger {
    clock: SlotClock,
    grid: Grid,
    /// Per-slot series (Wh per slot) for plotting.
    green_produced: TimeSeries,
    green_direct: TimeSeries,
    battery_drawn: TimeSeries,
    battery_out: TimeSeries,
    brown: TimeSeries,
    curtailed: TimeSeries,
    load: TimeSeries,
    /// Totals (Wh).
    total: SlotFlows,
    /// Carbon (g) and cost ($) of the brown draw, integrated with the grid
    /// profiles at slot midpoints.
    carbon_g: f64,
    cost_dollars: f64,
    /// Battery-internal losses copied in by `set_battery_losses`.
    battery_efficiency_loss_wh: f64,
    battery_self_discharge_wh: f64,
    /// Scheduling overhead energy (spin-ups, migrations/reclaims), recorded
    /// separately for the loss-breakdown figure. Already included in `load`.
    spinup_overhead_wh: f64,
    reclaim_overhead_wh: f64,
}

impl EnergyLedger {
    /// An empty ledger for the given slot clock and grid.
    pub fn new(clock: SlotClock, grid: Grid) -> Self {
        EnergyLedger {
            clock,
            grid,
            green_produced: TimeSeries::zeros(clock, 0),
            green_direct: TimeSeries::zeros(clock, 0),
            battery_drawn: TimeSeries::zeros(clock, 0),
            battery_out: TimeSeries::zeros(clock, 0),
            brown: TimeSeries::zeros(clock, 0),
            curtailed: TimeSeries::zeros(clock, 0),
            load: TimeSeries::zeros(clock, 0),
            total: SlotFlows::default(),
            carbon_g: 0.0,
            cost_dollars: 0.0,
            battery_efficiency_loss_wh: 0.0,
            battery_self_discharge_wh: 0.0,
            spinup_overhead_wh: 0.0,
            reclaim_overhead_wh: 0.0,
        }
    }

    /// Record slot `s`. Panics (debug) if either conservation identity is
    /// violated beyond float tolerance.
    pub fn record_slot(&mut self, s: SlotIdx, flows: SlotFlows) {
        debug_assert!(
            flows.supply_residual().abs() < 1e-6,
            "slot {s}: supply identity violated by {} Wh ({flows:?})",
            flows.supply_residual()
        );
        debug_assert!(
            flows.production_residual().abs() < 1e-6,
            "slot {s}: production identity violated by {} Wh ({flows:?})",
            flows.production_residual()
        );
        self.green_produced.add(s, flows.green_produced_wh);
        self.green_direct.add(s, flows.green_direct_wh);
        self.battery_drawn.add(s, flows.battery_drawn_wh);
        self.battery_out.add(s, flows.battery_out_wh);
        self.brown.add(s, flows.brown_wh);
        self.curtailed.add(s, flows.curtailed_wh);
        self.load.add(s, flows.load_wh);

        self.total.green_produced_wh += flows.green_produced_wh;
        self.total.green_direct_wh += flows.green_direct_wh;
        self.total.battery_drawn_wh += flows.battery_drawn_wh;
        self.total.battery_out_wh += flows.battery_out_wh;
        self.total.brown_wh += flows.brown_wh;
        self.total.curtailed_wh += flows.curtailed_wh;
        self.total.load_wh += flows.load_wh;

        let mid = self.clock.slot_start(s) + self.clock.width() / 2;
        self.carbon_g += self.grid.carbon_for(flows.brown_wh, mid);
        self.cost_dollars += self.grid.cost_for(flows.brown_wh, mid);
    }

    /// Copy the battery's internal loss counters in at end of run.
    pub fn set_battery_losses(&mut self, efficiency_loss_wh: f64, self_discharge_wh: f64) {
        self.battery_efficiency_loss_wh = efficiency_loss_wh;
        self.battery_self_discharge_wh = self_discharge_wh;
    }

    /// Add scheduling overhead energy (already part of the load) for the
    /// loss-breakdown figure.
    pub fn add_spinup_overhead(&mut self, wh: f64) {
        self.spinup_overhead_wh += wh;
    }

    /// Add consolidation/reclaim overhead energy (already part of the load).
    pub fn add_reclaim_overhead(&mut self, wh: f64) {
        self.reclaim_overhead_wh += wh;
    }

    /// Totals over the whole run (Wh).
    pub fn totals(&self) -> &SlotFlows {
        &self.total
    }

    /// Total brown energy in kWh — the headline metric.
    pub fn brown_kwh(&self) -> f64 {
        self.total.brown_wh / 1000.0
    }

    /// Fraction of produced renewable energy that served the load, directly
    /// or through the battery: `(direct + battery_out) / produced`.
    /// (Battery losses make this differ from `1 - curtailed/produced`.)
    pub fn green_utilization(&self) -> f64 {
        if self.total.green_produced_wh == 0.0 {
            0.0
        } else {
            (self.total.green_direct_wh + self.total.battery_out_wh) / self.total.green_produced_wh
        }
    }

    /// Fraction of the load served by renewables (directly or via battery).
    pub fn green_coverage(&self) -> f64 {
        if self.total.load_wh == 0.0 {
            0.0
        } else {
            (self.total.green_direct_wh + self.total.battery_out_wh) / self.total.load_wh
        }
    }

    /// Renewable energy lost to curtailment (Wh).
    pub fn curtailed_wh(&self) -> f64 {
        self.total.curtailed_wh
    }

    /// Battery conversion loss (Wh).
    pub fn battery_efficiency_loss_wh(&self) -> f64 {
        self.battery_efficiency_loss_wh
    }

    /// Battery self-discharge loss (Wh).
    pub fn battery_self_discharge_wh(&self) -> f64 {
        self.battery_self_discharge_wh
    }

    /// Spin-up overhead energy (Wh).
    pub fn spinup_overhead_wh(&self) -> f64 {
        self.spinup_overhead_wh
    }

    /// Consolidation/reclaim overhead energy (Wh).
    pub fn reclaim_overhead_wh(&self) -> f64 {
        self.reclaim_overhead_wh
    }

    /// All losses attributable to the energy system and scheduling overheads
    /// (Wh): battery efficiency + self-discharge + curtailment + spin-up +
    /// reclaim.
    pub fn total_losses_wh(&self) -> f64 {
        self.battery_efficiency_loss_wh
            + self.battery_self_discharge_wh
            + self.total.curtailed_wh
            + self.spinup_overhead_wh
            + self.reclaim_overhead_wh
    }

    /// Carbon emitted by the brown draw (grams CO₂).
    pub fn carbon_g(&self) -> f64 {
        self.carbon_g
    }

    /// Cost of the brown draw (dollars).
    pub fn cost_dollars(&self) -> f64 {
        self.cost_dollars
    }

    /// Per-slot brown series (Wh/slot).
    pub fn brown_series(&self) -> &TimeSeries {
        &self.brown
    }

    /// Per-slot load series (Wh/slot).
    pub fn load_series(&self) -> &TimeSeries {
        &self.load
    }

    /// Per-slot green-production series (Wh/slot).
    pub fn green_series(&self) -> &TimeSeries {
        &self.green_produced
    }

    /// Per-slot curtailment series (Wh/slot).
    pub fn curtailed_series(&self) -> &TimeSeries {
        &self.curtailed
    }

    /// Per-slot battery-out series (Wh/slot).
    pub fn battery_out_series(&self) -> &TimeSeries {
        &self.battery_out
    }

    /// The recorded flows of slot `s`, reassembled from the per-slot
    /// series (zeros for a slot that was never recorded). Lets an external
    /// audit re-check the conservation identities per slot after the run,
    /// including in release builds where `record_slot`'s `debug_assert`s
    /// are compiled out.
    pub fn slot_flows(&self, s: SlotIdx) -> SlotFlows {
        SlotFlows {
            green_produced_wh: self.green_produced.get(s),
            green_direct_wh: self.green_direct.get(s),
            battery_drawn_wh: self.battery_drawn.get(s),
            battery_out_wh: self.battery_out.get(s),
            brown_wh: self.brown.get(s),
            curtailed_wh: self.curtailed.get(s),
            load_wh: self.load.get(s),
        }
    }

    /// Number of recorded slots.
    pub fn len(&self) -> usize {
        self.load.len()
    }

    /// Whether no slots have been recorded.
    pub fn is_empty(&self) -> bool {
        self.load.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_sim::SlotClock;

    fn ledger() -> EnergyLedger {
        EnergyLedger::new(SlotClock::hourly(), Grid::typical_eu())
    }

    fn balanced(green: f64, load: f64, batt_in: f64, batt_out: f64) -> SlotFlows {
        let direct = green.min(load);
        let brown = (load - direct - batt_out).max(0.0);
        let curtailed = green - direct - batt_in;
        SlotFlows {
            green_produced_wh: green,
            green_direct_wh: direct,
            battery_drawn_wh: batt_in,
            battery_out_wh: batt_out,
            brown_wh: brown,
            curtailed_wh: curtailed,
            load_wh: load,
        }
    }

    #[test]
    fn accumulates_totals_and_series() {
        let mut l = ledger();
        l.record_slot(0, balanced(0.0, 100.0, 0.0, 0.0)); // all brown
        l.record_slot(1, balanced(500.0, 100.0, 200.0, 0.0)); // surplus, some stored
        assert_eq!(l.len(), 2);
        assert_eq!(l.totals().brown_wh, 100.0);
        assert_eq!(l.totals().green_direct_wh, 100.0);
        assert_eq!(l.totals().curtailed_wh, 200.0);
        assert_eq!(l.brown_series().get(0), 100.0);
        assert_eq!(l.brown_series().get(1), 0.0);
        assert!((l.brown_kwh() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn utilization_and_coverage() {
        let mut l = ledger();
        // 1000 Wh green; load 600; store 300; curtail 100; later battery
        // serves 200 of a 200 load at night.
        l.record_slot(0, balanced(1000.0, 600.0, 300.0, 0.0));
        l.record_slot(1, balanced(0.0, 200.0, 0.0, 200.0));
        // utilization = (600 + 200) / 1000 = 0.8
        assert!((l.green_utilization() - 0.8).abs() < 1e-12);
        // coverage = (600+200)/800 = 1.0
        assert!((l.green_coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ledger_ratios_are_zero() {
        let l = ledger();
        assert_eq!(l.green_utilization(), 0.0);
        assert_eq!(l.green_coverage(), 0.0);
        assert!(l.is_empty());
    }

    #[test]
    fn carbon_and_cost_follow_grid_profile() {
        let mut l = ledger();
        // slot 3 (03:30 midpoint): off-peak, base carbon.
        l.record_slot(3, balanced(0.0, 1000.0, 0.0, 0.0));
        assert!((l.carbon_g() - 300.0).abs() < 1e-9);
        assert!((l.cost_dollars() - 0.10).abs() < 1e-12);
        // slot 12: peak price.
        let mut l2 = ledger();
        l2.record_slot(12, balanced(0.0, 1000.0, 0.0, 0.0));
        assert!((l2.cost_dollars() - 0.16).abs() < 1e-12);
    }

    #[test]
    fn losses_aggregate() {
        let mut l = ledger();
        l.record_slot(0, balanced(100.0, 0.0, 0.0, 0.0)); // curtail 100
        l.set_battery_losses(30.0, 5.0);
        l.add_spinup_overhead(12.0);
        l.add_reclaim_overhead(8.0);
        assert_eq!(l.total_losses_wh(), 100.0 + 30.0 + 5.0 + 12.0 + 8.0);
    }

    #[test]
    #[should_panic(expected = "supply identity")]
    fn bad_supply_identity_panics_in_debug() {
        let mut l = ledger();
        let flows = SlotFlows { load_wh: 10.0, ..Default::default() };
        l.record_slot(0, flows);
    }

    #[test]
    #[should_panic(expected = "production identity")]
    fn bad_production_identity_panics_in_debug() {
        let mut l = ledger();
        let flows = SlotFlows { green_produced_wh: 10.0, ..Default::default() };
        l.record_slot(0, flows);
    }
}

//! Phase 1 — Forecast: battery relaxation and the policy's forward view.
//!
//! For each site in one inline loop: applies one slot of battery
//! self-discharge, asks the forecaster for the green-energy outlook over
//! the planning horizon, and (with admission on) adds its α-confidence
//! lower band to the fleet-wide admission supply. Then fills in the
//! expected interactive busy-seconds per horizon slot (memoised on the
//! simulation — the expectation is a pure function of the absolute slot,
//! so each slot is computed once per run instead of once per horizon
//! overlap).

use super::{SlotContext, SlotScratch};
use crate::scheduler::DEFAULT_HORIZON;
use crate::simulation::Simulation;

pub(crate) fn run(sim: &mut Simulation, ctx: &SlotContext, scratch: &mut SlotScratch) {
    // The policy sees the forecaster's view of the whole window,
    // *including* the current slot. With the Oracle forecaster this
    // reproduces the era's accurate-next-slot-prediction convention
    // exactly; with imperfect forecasters the policy may misjudge even the
    // present — which is what forecast-sensitivity experiments measure.
    // Energy settlement always uses the truth.
    //
    // The admission gate's supply view is the α-confidence *lower* band
    // per horizon slot, summed across sites (accepted work may be placed
    // at any site, so the gate sees the fleet-wide conservative supply).
    // Every forecaster's bands are a pure function of its state and the
    // slot (the noisy oracle draws counter-based noise), so asking for
    // them perturbs nothing the point forecast computes.
    let gate = sim.cfg.admission;
    if gate.is_some() {
        scratch.admission_lower_wh.clear();
        scratch.admission_lower_wh.resize(DEFAULT_HORIZON, 0.0);
    }
    scratch.green_forecast_wh.resize_with(sim.sites.len(), Vec::new);
    for (site, forecast) in sim.sites.iter_mut().zip(&mut scratch.green_forecast_wh) {
        site.battery.apply_self_discharge(ctx.width);
        site.forecaster.predict_into(ctx.slot, DEFAULT_HORIZON, forecast);
        for w in forecast.iter_mut() {
            *w *= ctx.hours;
        }
        if let Some(gate) = gate {
            site.forecaster.predict_bands_into(
                ctx.slot,
                DEFAULT_HORIZON,
                gate.alpha,
                &mut scratch.band_point,
                &mut scratch.band_lower,
                &mut scratch.band_upper,
            );
            for (acc, lo) in scratch.admission_lower_wh.iter_mut().zip(&scratch.band_lower) {
                *acc += lo * ctx.hours;
            }
        }
    }

    scratch.interactive_busy_secs.clear();
    for k in 0..DEFAULT_HORIZON {
        let busy = sim.expected_busy_secs(ctx.slot + k);
        scratch.interactive_busy_secs.push(busy);
    }
}

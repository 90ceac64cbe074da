//! Phase 1 — Forecast: battery relaxation and the policy's forward view.
//!
//! Applies one slot of battery self-discharge, asks the forecaster for the
//! green-energy outlook over the planning horizon, and fills in the
//! expected interactive busy-seconds per horizon slot (memoised on the
//! simulation — the expectation is a pure function of the absolute slot,
//! so each slot is computed once per run instead of once per horizon
//! overlap).
//!
//! A single site predicts inline; a multi-site slot runs the per-site
//! predictions as pool tasks. Each prediction touches only its own
//! forecaster and target buffer, and results are reassembled by site
//! index, so the trace is identical at any thread count.

use super::{SlotContext, SlotScratch};
use crate::scheduler::DEFAULT_HORIZON;
use crate::simulation::{Simulation, SiteState};
use gm_sim::pool::Task;
use gm_sim::WorkPool;
use std::sync::{Arc, Mutex};

pub(crate) fn run(sim: &mut Simulation, ctx: &SlotContext, scratch: &mut SlotScratch) {
    for site in &mut sim.sites {
        site.battery.apply_self_discharge(ctx.width);
    }

    // The policy sees the forecaster's view of the whole window,
    // *including* the current slot. With the Oracle forecaster this
    // reproduces the era's accurate-next-slot-prediction convention
    // exactly; with imperfect forecasters the policy may misjudge even the
    // present — which is what forecast-sensitivity experiments measure.
    // Energy settlement always uses the truth.
    let n_remote = sim.sites.len() - 1;
    scratch.remote_green_forecast_wh.truncate(n_remote);
    while scratch.remote_green_forecast_wh.len() < n_remote {
        scratch.remote_green_forecast_wh.push(Vec::new());
    }

    if n_remote == 0 {
        predict_site(&mut sim.sites[0], ctx, &mut scratch.green_forecast_wh);
    } else {
        predict_parallel(sim, ctx, scratch);
    }

    // Admission gate's supply view: the α-confidence *lower* band per
    // horizon slot, summed across sites (accepted work may be placed at
    // any site, so the gate sees the fleet-wide conservative supply).
    // Runs as an extra sequential pass after the point forecasts — every
    // forecaster's bands are a pure function of its state and the slot
    // (the noisy oracle draws counter-based noise), so this pass perturbs
    // nothing the band-oblivious paths computed.
    if let Some(gate) = sim.cfg.admission {
        scratch.admission_lower_wh.clear();
        scratch.admission_lower_wh.resize(DEFAULT_HORIZON, 0.0);
        for site in &mut sim.sites {
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

/// One site's green forecast over the planning window, in Wh per slot.
fn predict_site(site: &mut SiteState, ctx: &SlotContext, buf: &mut Vec<f64>) {
    site.forecaster.predict_into(ctx.slot, DEFAULT_HORIZON, buf);
    for w in buf.iter_mut() {
        *w *= ctx.hours;
    }
}

/// One site's prediction task result: the site handed back with its
/// filled forecast buffer.
type PredictResult = (SiteState, Vec<f64>);

/// Fan the per-site predictions across the pool: each task owns its
/// [`SiteState`] and target buffer (home's is `green_forecast_wh`, site
/// `i + 1`'s is `remote_green_forecast_wh[i]`), reassembled by index.
fn predict_parallel(sim: &mut Simulation, ctx: &SlotContext, scratch: &mut SlotScratch) {
    let ctx = *ctx;
    let sites = std::mem::take(&mut sim.sites);
    let n = sites.len();
    let cells: Arc<Vec<Mutex<Option<PredictResult>>>> =
        Arc::new((0..n).map(|_| Mutex::new(None)).collect());
    let tasks: Vec<Task> = sites
        .into_iter()
        .enumerate()
        .map(|(i, mut site)| {
            let mut buf = if i == 0 {
                std::mem::take(&mut scratch.green_forecast_wh)
            } else {
                std::mem::take(&mut scratch.remote_green_forecast_wh[i - 1])
            };
            let cells = Arc::clone(&cells);
            Box::new(move || {
                predict_site(&mut site, &ctx, &mut buf);
                *cells[i].lock().expect("forecast cell") = Some((site, buf));
            }) as Task
        })
        .collect();
    WorkPool::global().scatter(tasks);
    for (i, cell) in cells.iter().enumerate() {
        let (site, buf) = cell.lock().expect("forecast cell").take().expect("forecast task result");
        sim.sites.push(site);
        if i == 0 {
            scratch.green_forecast_wh = buf;
        } else {
            scratch.remote_green_forecast_wh[i - 1] = buf;
        }
    }
}

//! The per-slot phase pipeline.
//!
//! [`crate::simulation::Simulation::step`] is not a monolith: each slot
//! runs seven typed phases in a fixed order, every phase a small module
//! in this directory:
//!
//! ```text
//! Forecast → Classify → Admission → Plan → Gear → Execute → Settle
//! ```
//!
//! * [`forecast`] — battery relaxation and green-energy forecast per
//!   site, the admission gate's lower band, expected interactive
//!   busy-time over the planning horizon.
//! * [`classify`] — failure injection (spawning repair jobs), batch
//!   arrivals, and assembly of the policy-visible [`crate::policy::JobView`]s.
//! * [`admission`] — the energy-aware gate over newly arrived deferrable
//!   jobs (accept / defer / reject against the green lower band); an
//!   instant no-op when admission control is off.
//! * [`plan`] — build the [`crate::policy::SchedContext`] over the scratch
//!   buffers and ask the policy for its [`crate::policy::Decision`].
//! * [`gear`] — clamp and apply the gear decision to the home cluster,
//!   gear each remote site to the bytes placed there.
//! * [`execute`] — serve the slot's interactive requests, then run each
//!   decided batch entry over its site's active disks and settle it on
//!   its job at once; run write-log reclaim.
//! * [`settle`] — integrate energy, settle green → battery → grid, record
//!   the ledger slot, update the forecaster, retire finished jobs.
//!
//! Phases communicate through two structs with strict ownership rules:
//!
//! * [`SlotContext`] — immutable per-slot facts (slot index, clock
//!   instants). Built once by the step driver; phases only read it.
//! * [`SlotScratch`] — reusable buffers written by earlier phases and read
//!   by later ones. The caller owns it and passes the same instance to
//!   every step, so the steady-state loop allocates no bulk buffers: each
//!   buffer is `clear()`ed (capacity retained) and refilled, and grows
//!   only during the first few slots, to its high-water mark. What a slot
//!   still allocates is small: the decision's placement list, Plan's site
//!   list and Settle's per-site flows.
//!
//! Each phase also mutates its slice of the [`crate::simulation::Simulation`]
//! state (cluster, battery, ledger, job table); the phase boundaries are
//! exactly the boundaries reported to [`crate::observe::SlotObserver`]s
//! via [`crate::observe::Phase`] timing callbacks.
//!
//! A phase that concerns every site walks `sim.sites` in one inline loop,
//! home first, and no phase hands sites to the work pool: at the one to
//! three sites the presets use, a pool task per site cost more than the
//! site's own work (DESIGN.md §1.7).

pub(crate) mod admission;
pub(crate) mod classify;
pub(crate) mod execute;
pub(crate) mod forecast;
pub(crate) mod gear;
pub(crate) mod plan;
pub(crate) mod settle;

use gm_sim::time::SimTime;
use gm_sim::{LogHistogram, SimDuration, SlotClock};

use crate::policy::JobColumns;

/// Immutable facts about the slot being simulated, shared by every phase.
#[derive(Debug, Clone, Copy)]
pub struct SlotContext {
    /// Slot index.
    pub slot: usize,
    /// Slot start instant.
    pub now: SimTime,
    /// Slot end instant.
    pub slot_end: SimTime,
    /// Slot width.
    pub width: SimDuration,
    /// Slot width in hours.
    pub hours: f64,
    /// The slot clock.
    pub clock: SlotClock,
}

/// Reusable per-slot buffers threaded through the phase pipeline.
///
/// One instance serves arbitrarily many slots — and arbitrarily many
/// simulations run back to back (see
/// [`crate::simulation::SimulationBuilder::scratch`]): every phase clears
/// the buffers it fills before refilling them, so capacity is retained and
/// the steady-state slot loop allocates none of them. Contents are only
/// meaningful between the phase that writes a buffer and the end of the
/// slot; callers should treat a scratch as opaque state between steps.
#[derive(Debug, Clone)]
pub struct SlotScratch {
    /// Forecast green energy per horizon slot (Wh), one buffer per site
    /// (index = site, home first). Written by [`forecast`], read by
    /// [`plan`].
    pub green_forecast_wh: Vec<Vec<f64>>,
    /// Expected interactive disk busy-seconds per horizon slot. Written by
    /// [`forecast`], read by [`plan`].
    pub interactive_busy_secs: Vec<f64>,
    /// Columnar table of the pending jobs as policies see them. Written by
    /// [`classify`], read by [`plan`].
    pub jobs: JobColumns,
    /// Disk indices of the gears a site powers this slot, refilled per
    /// site. Written and read by [`execute`].
    pub(crate) active_disks: Vec<usize>,
    /// Latency histogram of this slot alone (the global histogram lives on
    /// the simulation). Cleared and refilled by [`execute`], read when the
    /// [`crate::simulation::SlotOutcome`] is assembled.
    pub slot_hist: LogHistogram,
    /// Batch bytes executed per site this slot (index = site). Written by
    /// [`execute`].
    pub site_executed_bytes: Vec<u64>,
    /// α-confidence **lower** band of green energy per horizon slot (Wh),
    /// summed across sites. Written by [`forecast`] and read by
    /// [`admission`] only when admission control is configured; empty
    /// otherwise.
    pub admission_lower_wh: Vec<f64>,
    /// Reusable buffers for the probabilistic forecast calls (point /
    /// lower / upper bands per site). Only touched with admission on.
    pub band_point: Vec<f64>,
    /// See [`SlotScratch::band_point`].
    pub band_lower: Vec<f64>,
    /// See [`SlotScratch::band_point`].
    pub band_upper: Vec<f64>,
    /// This slot's batch arrivals, drained from the event feed. Written
    /// by [`classify`]; drained into the admission queue or the job pool.
    pub feed_jobs: Vec<gm_workload::BatchJob>,
}

impl Default for SlotScratch {
    fn default() -> Self {
        SlotScratch {
            green_forecast_wh: Vec::new(),
            interactive_busy_secs: Vec::new(),
            jobs: JobColumns::new(),
            active_disks: Vec::new(),
            slot_hist: LogHistogram::for_latency_secs(),
            site_executed_bytes: Vec::new(),
            admission_lower_wh: Vec::new(),
            band_point: Vec::new(),
            band_lower: Vec::new(),
            band_upper: Vec::new(),
            feed_jobs: Vec::new(),
        }
    }
}

impl SlotScratch {
    /// A fresh scratch with empty buffers.
    pub fn new() -> Self {
        SlotScratch::default()
    }
}

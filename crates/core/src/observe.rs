//! Slot-level telemetry: the [`SlotObserver`] trait and the provided
//! observers.
//!
//! A [`crate::simulation::Simulation`] drives any number of observers;
//! after every slot each observer receives the finished
//! [`SlotOutcome`]. Observers are pure consumers — they cannot influence
//! the run, so a simulation produces an identical [`crate::RunReport`]
//! with or without them.
//!
//! Provided observers:
//!
//! * [`NullObserver`] — does nothing (the implicit default).
//! * [`JsonlTraceObserver`] — one compact JSON record per slot; output is
//!   byte-identical across same-seed runs.
//! * [`CsvSeriesObserver`] — the key per-slot series as CSV.
//!
//!   Both writing observers keep the first I/O error they hit in an
//!   [`IoErrorCell`] (and write nothing after it) instead of aborting the
//!   run; whoever attached them reads the cell once the run is done.
//! * [`PhaseTimer`] — wall-clock per simulation phase
//!   (forecast / classify / plan / gear / execute / settle), read out
//!   through a shared handle.

use crate::simulation::SlotOutcome;
use serde::Serialize;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

/// The first I/O error a writing observer hit, shared with the code that
/// attached it (observers are boxed into the simulation). Empty while
/// every write has succeeded.
pub type IoErrorCell = Arc<OnceLock<io::Error>>;

/// Run `write` unless `cell` already holds an error; keep its error if it
/// fails. After the first failure the output is truncated, so nothing more
/// is written to it.
fn write_or_keep(cell: &IoErrorCell, write: impl FnOnce() -> io::Result<()>) {
    if cell.get().is_none() {
        if let Err(e) = write() {
            let _ = cell.set(e);
        }
    }
}

/// One phase of a simulation step, for profiling observers. The variants
/// mirror the per-slot pipeline in [`crate::phases`] in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Battery relaxation and green-energy / interactive-load forecasting.
    Forecast,
    /// Failure injection, batch arrivals and job-view assembly.
    Classify,
    /// The admission gate over newly arrived deferrable jobs (a no-op
    /// instant when admission control is off).
    Admission,
    /// Context assembly and the policy decision (matching).
    Plan,
    /// Gear shifting.
    Gear,
    /// Interactive service, batch execution, reclaim.
    Execute,
    /// Energy integration, battery/grid settlement, ledger and job
    /// retirement.
    Settle,
}

/// Receives per-slot telemetry from a running simulation.
///
/// All methods have no-op defaults, so an observer implements only what it
/// needs. Observers must not assume they are the only one attached.
pub trait SlotObserver {
    /// Called once per completed slot with the full outcome.
    fn on_slot(&mut self, outcome: &SlotOutcome) {
        let _ = outcome;
    }

    /// Whether this observer wants [`SlotObserver::on_phase`] callbacks.
    /// Phase timing costs two clock reads per phase, so the simulation
    /// only measures when some attached observer asks for it.
    fn wants_phases(&self) -> bool {
        false
    }

    /// Called after each phase of a slot with its wall-clock duration.
    fn on_phase(&mut self, slot: usize, phase: Phase, nanos: u64) {
        let _ = (slot, phase, nanos);
    }

    /// Called once when the simulation finishes (or is dropped into a
    /// report); flush buffers here.
    fn on_finish(&mut self) {}

    /// Called once, before any [`SlotObserver::on_slot`], when the
    /// simulation resumes from a snapshot: `slot` is the first slot this
    /// run will simulate (always > 0). Never called for slot-0 starts.
    ///
    /// Observers that emit a per-run preamble (e.g. a CSV header) should
    /// suppress it here — the run that wrote slots `0..slot` already
    /// emitted one, so a resumed run's output appends cleanly onto the
    /// original file.
    fn on_resume(&mut self, slot: usize) {
        let _ = slot;
    }
}

/// The do-nothing observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl SlotObserver for NullObserver {}

/// Flat, stable-order record the JSONL observer emits — one line per slot.
///
/// Field order is the serialisation order; do not reorder without
/// regenerating golden trace files. Wall-clock phase timings are
/// deliberately excluded so traces stay byte-identical across runs.
#[derive(Debug, Clone, Serialize)]
struct TraceRecord {
    slot: usize,
    gears: usize,
    requested_batch_bytes: u64,
    executed_batch_bytes: u64,
    reclaim_budget_bytes: u64,
    green_produced_wh: f64,
    green_direct_wh: f64,
    battery_in_wh: f64,
    battery_out_wh: f64,
    grid_wh: f64,
    curtailed_wh: f64,
    load_wh: f64,
    battery_soc_wh: f64,
    battery_soc_frac: f64,
    jobs_submitted: usize,
    jobs_completed: usize,
    deadline_misses: usize,
    repairs_completed: u64,
    disk_failures: u64,
    pending_jobs: usize,
    writelog_pending_bytes: u64,
    latency_count: u64,
    latency_mean_s: f64,
    latency_p50_s: f64,
    latency_p99_s: f64,
    latency_max_s: f64,
}

impl TraceRecord {
    fn from_outcome(o: &SlotOutcome) -> TraceRecord {
        TraceRecord {
            slot: o.slot,
            gears: o.gears,
            requested_batch_bytes: o.requested_batch_bytes,
            executed_batch_bytes: o.executed_batch_bytes,
            reclaim_budget_bytes: o.decision.reclaim_budget_bytes,
            green_produced_wh: o.energy.green_produced_wh,
            green_direct_wh: o.energy.green_direct_wh,
            battery_in_wh: o.energy.battery_in_wh,
            battery_out_wh: o.energy.battery_out_wh,
            grid_wh: o.energy.grid_wh,
            curtailed_wh: o.energy.curtailed_wh,
            load_wh: o.energy.load_wh,
            battery_soc_wh: o.battery_soc_wh,
            battery_soc_frac: o.battery_soc_frac,
            jobs_submitted: o.events.jobs_submitted,
            jobs_completed: o.events.jobs_completed,
            deadline_misses: o.events.deadline_misses,
            repairs_completed: o.events.repairs_completed,
            disk_failures: o.events.disk_failures,
            pending_jobs: o.pending_jobs,
            writelog_pending_bytes: o.writelog_pending_bytes,
            latency_count: o.latency.count,
            latency_mean_s: o.latency.mean_s,
            latency_p50_s: o.latency.p50_s,
            latency_p99_s: o.latency.p99_s,
            latency_max_s: o.latency.max_s,
        }
    }
}

/// Writes one JSON record per slot to any writer (one line each).
///
/// Records contain only deterministic simulation state, so two same-seed
/// runs produce byte-identical files.
pub struct JsonlTraceObserver<W: Write> {
    out: BufWriter<W>,
    error: IoErrorCell,
}

impl JsonlTraceObserver<File> {
    /// Trace into a freshly created (truncated) file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlTraceObserver::new(File::create(path)?))
    }

    /// Trace onto the end of an existing file (created if absent) — the
    /// resume path: records from a resumed run continue the original
    /// file's line sequence. JSONL has no preamble, so appending is
    /// trivially well-formed.
    pub fn append(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlTraceObserver::new(
            std::fs::OpenOptions::new().create(true).append(true).open(path)?,
        ))
    }
}

impl<W: Write> JsonlTraceObserver<W> {
    /// Trace into the given writer.
    pub fn new(writer: W) -> Self {
        JsonlTraceObserver { out: BufWriter::new(writer), error: IoErrorCell::default() }
    }

    /// The first I/O error of this observer, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.get()
    }

    /// A handle on the first-error cell, readable after the observer has
    /// been boxed into a simulation.
    pub fn error_cell(&self) -> IoErrorCell {
        Arc::clone(&self.error)
    }
}

impl<W: Write> SlotObserver for JsonlTraceObserver<W> {
    fn on_slot(&mut self, outcome: &SlotOutcome) {
        let json = serde_json::to_string(&TraceRecord::from_outcome(outcome))
            .expect("trace record serialises");
        write_or_keep(&self.error, || writeln!(self.out, "{json}"));
    }

    fn on_finish(&mut self) {
        write_or_keep(&self.error, || self.out.flush());
    }
}

/// Writes the key per-slot series as CSV (header + one row per slot).
///
/// The header is written lazily, just before the first row — not in the
/// constructor — so a resumed run (which receives
/// [`SlotObserver::on_resume`] first) can suppress it and append its rows
/// onto the file the original run started.
pub struct CsvSeriesObserver<W: Write> {
    out: BufWriter<W>,
    wrote_header: bool,
    error: IoErrorCell,
}

impl CsvSeriesObserver<File> {
    /// Write CSV into a freshly created (truncated) file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(CsvSeriesObserver::new(File::create(path)?))
    }

    /// Write CSV onto the end of an existing file (created if absent) —
    /// the resume path; pairs with the header suppression in
    /// [`SlotObserver::on_resume`].
    pub fn append(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(CsvSeriesObserver::new(
            std::fs::OpenOptions::new().create(true).append(true).open(path)?,
        ))
    }
}

impl<W: Write> CsvSeriesObserver<W> {
    /// Write CSV into the given writer.
    pub fn new(writer: W) -> Self {
        CsvSeriesObserver {
            out: BufWriter::new(writer),
            wrote_header: false,
            error: IoErrorCell::default(),
        }
    }

    /// The first I/O error of this observer, if any.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.get()
    }

    /// A handle on the first-error cell, readable after the observer has
    /// been boxed into a simulation.
    pub fn error_cell(&self) -> IoErrorCell {
        Arc::clone(&self.error)
    }
}

impl<W: Write> SlotObserver for CsvSeriesObserver<W> {
    fn on_resume(&mut self, _slot: usize) {
        // The run that simulated slots 0.. already wrote the header.
        self.wrote_header = true;
    }

    fn on_slot(&mut self, o: &SlotOutcome) {
        if !self.wrote_header {
            write_or_keep(&self.error, || {
                writeln!(
                    self.out,
                    "slot,gears,executed_batch_bytes,green_produced_wh,green_direct_wh,\
                     battery_in_wh,battery_out_wh,grid_wh,curtailed_wh,load_wh,\
                     battery_soc_wh,latency_p99_s"
                )
            });
            self.wrote_header = true;
        }
        write_or_keep(&self.error, || {
            writeln!(
                self.out,
                "{},{},{},{},{},{},{},{},{},{},{},{}",
                o.slot,
                o.gears,
                o.executed_batch_bytes,
                o.energy.green_produced_wh,
                o.energy.green_direct_wh,
                o.energy.battery_in_wh,
                o.energy.battery_out_wh,
                o.energy.grid_wh,
                o.energy.curtailed_wh,
                o.energy.load_wh,
                o.battery_soc_wh,
                o.latency.p99_s,
            )
        });
    }

    fn on_finish(&mut self) {
        write_or_keep(&self.error, || self.out.flush());
    }
}

/// Accumulated wall-clock per simulation phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseProfile {
    /// Slots timed.
    pub slots: u64,
    /// Total nanoseconds in the forecast phase.
    pub forecast_ns: u64,
    /// Total nanoseconds in the classify phase.
    pub classify_ns: u64,
    /// Total nanoseconds in the admission phase.
    pub admission_ns: u64,
    /// Total nanoseconds in the plan phase.
    pub plan_ns: u64,
    /// Total nanoseconds in the gear phase.
    pub gear_ns: u64,
    /// Total nanoseconds in the execute phase.
    pub execute_ns: u64,
    /// Total nanoseconds in the settle phase.
    pub settle_ns: u64,
}

impl PhaseProfile {
    /// Total measured time across phases (ns).
    pub fn total_ns(&self) -> u64 {
        self.forecast_ns
            + self.classify_ns
            + self.admission_ns
            + self.plan_ns
            + self.gear_ns
            + self.execute_ns
            + self.settle_ns
    }

    /// Human-readable one-line summary (mean per slot and share per phase).
    pub fn summary(&self) -> String {
        if self.slots == 0 {
            return "no slots timed".to_string();
        }
        let total = self.total_ns().max(1) as f64;
        let pct = |ns: u64| ns as f64 / total * 100.0;
        format!(
            "{} slots, {:.2} ms/slot (forecast {:.0}%, classify {:.0}%, admission {:.0}%, \
             plan {:.0}%, gear {:.0}%, execute {:.0}%, settle {:.0}%)",
            self.slots,
            total / self.slots as f64 / 1e6,
            pct(self.forecast_ns),
            pct(self.classify_ns),
            pct(self.admission_ns),
            pct(self.plan_ns),
            pct(self.gear_ns),
            pct(self.execute_ns),
            pct(self.settle_ns),
        )
    }
}

/// Profiling observer: accumulates per-phase wall-clock into a shared
/// [`PhaseProfile`] that stays readable after the simulation consumed the
/// observer.
pub struct PhaseTimer {
    profile: Arc<Mutex<PhaseProfile>>,
}

impl PhaseTimer {
    /// A new timer plus the handle its results are read through.
    pub fn new() -> (PhaseTimer, Arc<Mutex<PhaseProfile>>) {
        let profile = Arc::new(Mutex::new(PhaseProfile::default()));
        (PhaseTimer { profile: profile.clone() }, profile)
    }
}

impl SlotObserver for PhaseTimer {
    fn wants_phases(&self) -> bool {
        true
    }

    fn on_phase(&mut self, _slot: usize, phase: Phase, nanos: u64) {
        let mut p = self.profile.lock().unwrap();
        match phase {
            Phase::Forecast => {
                // One Forecast callback per slot leads the phase sequence.
                p.slots += 1;
                p.forecast_ns += nanos;
            }
            Phase::Classify => p.classify_ns += nanos,
            Phase::Admission => p.admission_ns += nanos,
            Phase::Plan => p.plan_ns += nanos,
            Phase::Gear => p.gear_ns += nanos,
            Phase::Execute => p.execute_ns += nanos,
            Phase::Settle => p.settle_ns += nanos,
        }
    }
}

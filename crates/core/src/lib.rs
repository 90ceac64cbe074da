//! # greenmatch — renewable-aware workload scheduling for massive storage
//!
//! The core library of the GreenMatch reproduction. It composes the
//! substrates (`gm-sim`, `gm-energy`, `gm-storage`, `gm-workload`) into an
//! end-to-end slot simulator and implements the scheduling policies under
//! study:
//!
//! * [`scheduler::GreenMatchPolicy`] — **the contribution**: each slot it
//!   (1) computes the minimum gear level that keeps interactive latency in
//!   budget, (2) solves a min-cost assignment (successive-shortest-path
//!   min-cost max-flow, [`mincostflow`]) of pending deferrable batch bytes
//!   to the slots of the forecast horizon, where green-funded capacity is
//!   free and brown-funded capacity costs, and (3) raises gears into green
//!   surplus windows to execute the matched work, falling back to EDF for
//!   deadline-critical jobs. A `delay_fraction` knob blends it toward
//!   run-ASAP, giving the hybrid family.
//! * [`baselines`] — energy-oblivious All-On, load-only PowerProportional,
//!   greedy opportunistic GreedyGreen, and EDF ordering; with a battery in
//!   the config, All-On is exactly the "ESD-only" reference policy.
//! * [`simulation`] — the slot loop as a resumable state machine:
//!   [`simulation::Simulation`] steps one slot at a time, each step
//!   yielding a [`simulation::SlotOutcome`] (decision, executed bytes,
//!   energy flows, battery state, job events, latency); [`observe`]
//!   provides the [`observe::SlotObserver`] hook plus ready-made JSONL /
//!   CSV trace writers and a per-phase profiler.
//! * [`harness`] — [`harness::run_experiment`], the one-shot wrapper that
//!   runs a simulation to the end and returns a [`report::RunReport`].
//! * [`audit`] — the conservation auditor: an always-compiled, opt-in
//!   invariant checker ([`audit::ConservationAuditor`] per slot, plus the
//!   deep [`simulation::Simulation::post_run_audit`]) that re-verifies the
//!   energy, byte, and job accounting identities at run time and reports
//!   breaks as structured [`audit::AuditViolation`]s.
//!
//! ```no_run
//! use greenmatch::config::ExperimentConfig;
//! use greenmatch::harness::run_experiment;
//! use greenmatch::policy::PolicyKind;
//!
//! let cfg = ExperimentConfig::small_demo(42)
//!     .with_policy(PolicyKind::GreenMatch { delay_fraction: 1.0 });
//! let report = run_experiment(&cfg);
//! println!("brown energy: {:.1} kWh", report.brown_kwh);
//! ```
//!
//! For per-slot visibility, drive the simulation yourself:
//!
//! ```no_run
//! use greenmatch::config::ExperimentConfig;
//! use greenmatch::simulation::Simulation;
//!
//! let cfg = ExperimentConfig::small_demo(42);
//! let mut sim = Simulation::builder(&cfg).build().expect("config materialises");
//! while let Some(slot) = sim.step() {
//!     println!("slot {}: {} gears, {:.1} Wh grid", slot.slot, slot.gears, slot.energy.grid_wh);
//! }
//! let report = sim.into_report();
//! # let _ = report;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod baselines;
pub mod config;
pub mod harness;
pub mod matcher;
pub mod mincostflow;
pub mod observe;
pub mod phases;
pub mod policy;
pub mod report;
pub mod scheduler;
pub mod simulation;
pub mod snapshot;
pub mod world;

pub use audit::{AuditReport, AuditViolation, ConservationAuditor};
pub use config::{ConfigError, EnergyConfig, ExperimentConfig, SiteConfig, SourceKind};
pub use harness::run_experiment;
pub use observe::{
    CsvSeriesObserver, IoErrorCell, JsonlTraceObserver, NullObserver, Phase, PhaseProfile,
    PhaseTimer, SlotObserver,
};
pub use phases::{SlotContext, SlotScratch};
pub use policy::{Decision, PolicyKind, SchedContext, Scheduler, SiteView};
pub use report::{RunReport, SiteReport};
pub use simulation::{EnergyFlows, Simulation, SiteSlotEnergy, SlotEvents, SlotOutcome};
pub use snapshot::{SiteSnapshot, Snapshot, SNAPSHOT_VERSION};
pub use world::{SiteWorld, World, WorldCache};

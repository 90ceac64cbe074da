//! The step-wise simulation core.
//!
//! [`Simulation`] is the resumable state machine behind
//! [`crate::harness::run_experiment`]: construct it from an
//! [`ExperimentConfig`], drive it one slot at a time with
//! [`Simulation::step`] (each step returns a [`SlotOutcome`] describing
//! everything that happened in that slot), or let
//! [`Simulation::run_to_end`] finish the horizon and produce the final
//! [`RunReport`].
//!
//! ```text
//! each step (one slot), the phase pipeline (see crate::phases):
//!   Forecast — battery self-discharge, green forecast, expected
//!              interactive busy time
//!   Classify — failure injection, batch arrivals, job views
//!   Admission— accept/defer/reject deferrable arrivals against the
//!              α-confidence green lower band (no-op when off)
//!   Plan     — SchedContext assembly over the scratch, policy.decide()
//!   Gear     — clamp and apply the gear decision
//!   Execute  — serve interactive requests, spread batch bytes over
//!              active disks, write-log reclaim
//!   Settle   — integrate energy, settle green → battery → grid, record
//!              the ledger slot, update forecasters, retire finished jobs
//! ```
//!
//! Each phase reads the immutable [`SlotContext`] and exchanges bulk data
//! through a caller-owned [`SlotScratch`] of reusable buffers, so the
//! steady-state slot loop allocates no bulk buffers (only the decision's
//! placement list and the short per-site lists). Attached [`SlotObserver`]s
//! receive each outcome (and optionally per-phase wall-clock); they cannot
//! influence the run, so reports are identical with or without observers.

use crate::config::{ConfigError, ExperimentConfig};
use crate::observe::{Phase, SlotObserver};
use crate::phases::{self, SlotContext, SlotScratch};
use crate::policy::{Decision, PlanningModel};
use crate::report::{AdmissionReport, BatchReport, LatencyReport, RunReport, SiteReport};
use crate::scheduler::DEFAULT_HORIZON;
use crate::snapshot::{SiteSnapshot, Snapshot, SNAPSHOT_VERSION};
use crate::world::{self, World, WorldCache};
use gm_energy::battery::{Battery, BatterySpec};
use gm_energy::forecast::Forecaster;
use gm_energy::ledger::EnergyLedger;
use gm_sim::time::{SimTime, SlotIdx};
use gm_sim::{LogHistogram, SlotClock, TimeSeries};
use gm_storage::{Cluster, FailureDice};
use gm_workload::trace::Workload;
use gm_workload::{BatchJob, EventFeed, JobId, LiveCursor, PendingSlotBatch};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Last slot whose *end* is at or before `deadline` — the latest slot in
/// which deadline work can safely be scheduled.
pub(crate) fn deadline_slot_for(clock: SlotClock, deadline: SimTime) -> SlotIdx {
    if deadline.0 < clock.width().0 {
        return 0;
    }
    let k = clock.slot_of(SimTime(deadline.0 - 1));
    if clock.slot_end(k) <= deadline {
        k
    } else {
        k.saturating_sub(1)
    }
}

/// Energy flows of one slot (Wh). The settlement identities hold exactly:
/// `load = green_direct + battery_out + grid` and
/// `green_produced = green_direct + battery_in + curtailed`.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct EnergyFlows {
    /// Renewable energy produced.
    pub green_produced_wh: f64,
    /// Renewable energy consumed directly by the load.
    pub green_direct_wh: f64,
    /// Surplus renewable energy accepted by the battery.
    pub battery_in_wh: f64,
    /// Deficit energy delivered by the battery.
    pub battery_out_wh: f64,
    /// Deficit energy drawn from the grid (brown).
    pub grid_wh: f64,
    /// Surplus renewable energy thrown away.
    pub curtailed_wh: f64,
    /// Total cluster consumption.
    pub load_wh: f64,
}

/// One site's share of a slot, reported alongside the aggregate
/// [`SlotOutcome`] fields for multi-site runs.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SiteSlotEnergy {
    /// Site index (0 = home).
    pub site: usize,
    /// Gears powered at this site.
    pub gears: usize,
    /// Batch bytes executed at this site this slot.
    pub executed_batch_bytes: u64,
    /// The site's energy flows.
    pub energy: EnergyFlows,
    /// The site's battery state of charge after settlement (Wh).
    pub battery_soc_wh: f64,
}

/// Job lifecycle events observed in one slot.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct SlotEvents {
    /// Batch jobs that arrived this slot.
    pub jobs_submitted: usize,
    /// Batch jobs that completed this slot.
    pub jobs_completed: usize,
    /// Completions this slot that had already missed their deadline.
    pub deadline_misses: usize,
    /// Disk repairs that finished this slot.
    pub repairs_completed: u64,
    /// Disks that failed this slot (failure injection).
    pub disk_failures: u64,
    /// Tier-migration jobs spawned by the classifier this slot.
    pub migrations_spawned: usize,
    /// Tier-migration jobs that completed (flipped placement) this slot.
    pub migrations_completed: u64,
    /// Deferrable jobs the admission gate held back this slot (always 0
    /// with admission control off).
    pub jobs_deferred: usize,
    /// Deferrable jobs the admission gate turned away this slot.
    pub jobs_rejected: usize,
    /// Bytes of batch work turned away this slot.
    pub rejected_bytes: u64,
}

/// One tier-migration job's payload: the objects whose placement flips
/// when the job's I/O completes, and the direction of the flip.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationInfo {
    /// Object indices being moved (the home cluster's dense index space).
    pub objs: Vec<u32>,
    /// `true` for replicated→erasure demotion, `false` for promotion.
    pub demote: bool,
}

/// Everything that happened in one simulated slot.
#[derive(Debug, Clone, Serialize)]
pub struct SlotOutcome {
    /// Slot index.
    pub slot: usize,
    /// Gears actually powered (the decision clamped to the physical range).
    pub gears: usize,
    /// The policy's full decision (gear request, per-job batch bytes,
    /// reclaim budget).
    pub decision: Decision,
    /// Batch bytes the policy asked to run.
    pub requested_batch_bytes: u64,
    /// Batch bytes actually executed (capped by remaining work).
    pub executed_batch_bytes: u64,
    /// Planner diagnostic: bytes whose deadline pressure exceeded the
    /// planning window's capacity this slot (0 for policies without a
    /// feasibility-checking planner). Mirrors
    /// [`Decision::infeasible_bytes`].
    pub deadline_infeasible_bytes: u64,
    /// Energy flows of the slot.
    pub energy: EnergyFlows,
    /// Battery state of charge after settlement (Wh).
    pub battery_soc_wh: f64,
    /// State of charge as a fraction of the usable window (0 when no
    /// battery is configured).
    pub battery_soc_frac: f64,
    /// Job lifecycle events.
    pub events: SlotEvents,
    /// Interactive latency distribution of this slot alone.
    pub latency: LatencyReport,
    /// Batch jobs still pending after the slot.
    pub pending_jobs: usize,
    /// Write-log backlog after the slot (bytes).
    pub writelog_pending_bytes: u64,
    /// Matcher unit-accounting residual for the slot: total units minus
    /// (placed + deferred + infeasible) in the last min-cost-flow solve.
    /// Always 0 when flow conservation holds (and for policies without a
    /// matcher); the conservation auditor asserts it.
    pub matcher_residual_units: i64,
    /// Objects classified hot after this slot (0 with tiering off).
    pub tier_hot: u64,
    /// Objects classified warm after this slot (0 with tiering off).
    pub tier_warm: u64,
    /// Objects classified cold after this slot (0 with tiering off).
    pub tier_cold: u64,
    /// Objects the tier classifier tracks: the home cluster's object count
    /// with tiering on, 0 with it off. The census must sum to it.
    pub tier_objects: u64,
    /// Migration-job bytes executed this slot.
    pub migrated_bytes: u64,
    /// Replica bytes released by migrations completing this slot.
    pub tier_bytes_released: u64,
    /// Bytes newly written by migrations completing this slot.
    pub tier_bytes_written: u64,
    /// Raw storage capacity in use after the slot (replicas + EC shards).
    pub capacity_in_use_bytes: u64,
    /// Per-site breakdown of the aggregate fields above. Empty for
    /// single-site runs (the aggregates *are* the one site).
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub site_energy: Vec<SiteSlotEnergy>,
}

/// The per-run mutable state of one site: its cluster, energy system and
/// the bookkeeping that was per-run state back when there was exactly one
/// site. `sites[0]` is the home site — it additionally hosts the
/// interactive workload, the write log, failure injection and repair jobs,
/// which stay on the [`Simulation`] itself.
pub(crate) struct SiteState {
    /// Site label for reports.
    pub(crate) name: String,
    /// The site's renewable-source label for reports.
    pub(crate) source_label: String,
    pub(crate) cluster: Cluster,
    pub(crate) model: PlanningModel,
    pub(crate) green_trace: Arc<TimeSeries>,
    pub(crate) forecaster: Box<dyn Forecaster + Send>,
    pub(crate) battery_spec: BatterySpec,
    pub(crate) battery: Battery,
    /// UTC offset (hours) of the site; its green trace is rotated by this,
    /// so time-of-day logic (discharge windows) must use the site-local
    /// hour `(sim_hour - offset).rem_euclid(24)`.
    pub(crate) utc_offset_hours: i64,
    pub(crate) ledger: EnergyLedger,
    pub(crate) gears_series: Vec<usize>,
    pub(crate) rr_cursor: usize,
    pub(crate) prev_spinups: Vec<u64>,
    /// Total batch bytes executed at this site over the run.
    pub(crate) executed_batch_bytes: u64,
}

/// The scratch a simulation steps through: its own, or one borrowed from
/// the caller (a sweep worker reusing buffers across back-to-back runs).
enum Scratch<'s> {
    Owned(Box<SlotScratch>),
    Borrowed(&'s mut SlotScratch),
}

impl Scratch<'_> {
    fn get(&mut self) -> &mut SlotScratch {
        match self {
            Scratch::Owned(s) => s,
            Scratch::Borrowed(s) => s,
        }
    }
}

/// Builder for a [`Simulation`] — the one construction path.
///
/// ```no_run
/// use greenmatch::config::ExperimentConfig;
/// use greenmatch::phases::SlotScratch;
/// use greenmatch::simulation::Simulation;
/// use greenmatch::world::WorldCache;
///
/// let cfg = ExperimentConfig::small_demo(42);
///
/// // Cold one-off run:
/// let report = Simulation::builder(&cfg).build()?.run_to_end();
///
/// // Sweep worker: share immutable inputs and reuse slot buffers.
/// let cache = WorldCache::new();
/// let mut scratch = SlotScratch::new();
/// let report = Simulation::builder(&cfg)
///     .cache(&cache)
///     .scratch(&mut scratch)
///     .build()?
///     .run_to_end();
/// # Ok::<(), greenmatch::config::ConfigError>(())
/// ```
#[must_use = "call .build() to construct the simulation"]
pub struct SimulationBuilder<'c, 's> {
    cfg: &'c ExperimentConfig,
    world: Option<World>,
    cache: Option<&'c WorldCache>,
    scratch: Option<&'s mut SlotScratch>,
    observers: Vec<Box<dyn SlotObserver + Send>>,
    resume: Option<&'c Snapshot>,
    feed: Option<EventFeed>,
}

impl<'c, 's> SimulationBuilder<'c, 's> {
    /// Run over an already-materialised [`World`] instead of materialising
    /// one at build time. The world must have been materialised for the
    /// builder's config (same seed, workload, energy and cluster sections).
    pub fn world(mut self, world: World) -> Self {
        self.world = Some(world);
        self
    }

    /// Materialise the world through `cache`, so runs over the same
    /// scenario share their immutable inputs. Ignored when an explicit
    /// [`Self::world`] is supplied.
    pub fn cache(mut self, cache: &'c WorldCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Step through a caller-owned scratch instead of an internal one.
    /// Reusing one scratch across many simulations (e.g. a benchmark
    /// worker running trials back to back) avoids re-growing the per-slot
    /// buffers on every run.
    pub fn scratch<'n>(self, scratch: &'n mut SlotScratch) -> SimulationBuilder<'c, 'n> {
        SimulationBuilder {
            cfg: self.cfg,
            world: self.world,
            cache: self.cache,
            scratch: Some(scratch),
            observers: self.observers,
            resume: self.resume,
            feed: self.feed,
        }
    }

    /// Drive batch arrivals from an external [`EventFeed`] instead of the
    /// self-driving replay of the config's own workload. The feed's
    /// driver owns the pace: classify blocks until each slot's batch has
    /// been delivered, so a slow producer delays the simulated clock
    /// rather than dropping work. A driver that sends each slot's
    /// [`gm_workload::Workload::batch_arrivals_in_slot`] produces a run
    /// byte-identical to the replay. Resuming across an external feed is
    /// the driver's contract: it must not re-send the prefix's jobs.
    pub fn feed(mut self, feed: EventFeed) -> Self {
        self.feed = Some(feed);
        self
    }

    /// Attach an observer (repeatable).
    pub fn observer(mut self, observer: Box<dyn SlotObserver + Send>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Resume from a mid-run [`Snapshot`] instead of starting at slot 0.
    ///
    /// The builder's config governs the new run: passing the snapshot's
    /// own config resumes it exactly (byte-identical to never having
    /// stopped); passing a variant (different policy, battery, discharge
    /// strategy, WAN price…) *branches* the checkpoint into a what-if
    /// continuation. Either way the config must produce the same world as
    /// the checkpointed run — same seed, workload, clock, slots, sources
    /// and cluster shape — which `build` validates via the snapshot's
    /// world keys. The world is re-materialised (or cache-hit) from the
    /// config; snapshots never embed it.
    pub fn resume_from(mut self, snapshot: &'c Snapshot) -> Self {
        self.resume = Some(snapshot);
        self
    }

    /// Build the simulation, reporting configuration problems (missing
    /// trace files, anything [`ExperimentConfig::validate`] rejects,
    /// incompatible snapshots) as errors. A caller-supplied world is
    /// checked against the same [`ExperimentConfig::validate`].
    pub fn build(self) -> Result<Simulation<'s>, ConfigError> {
        let world = match self.world {
            Some(world) => {
                self.cfg.validate()?;
                world
            }
            None => match self.cache {
                Some(cache) => World::try_materialize_in(self.cfg, cache)?,
                None => World::try_materialize(self.cfg)?,
            },
        };
        let scratch = match self.scratch {
            Some(s) => Scratch::Borrowed(s),
            None => Scratch::Owned(Box::new(SlotScratch::new())),
        };
        let mut sim = Simulation::assemble(self.cfg, world, scratch);
        if let Some(snap) = self.resume {
            sim.restore_overlay(snap)?;
        }
        // Without an external driver the run replays its own workload from
        // the (possibly resumed) cursor, so a resumed run never sees its
        // prefix's jobs again.
        sim.feed = match self.feed {
            Some(feed) => feed,
            None => EventFeed::replay(&sim.workload, sim.clock.slot_start(sim.cursor)),
        };
        let resumed_at = sim.cursor;
        for obs in self.observers {
            sim.add_observer(obs);
        }
        if resumed_at > 0 {
            for obs in &mut sim.observers {
                obs.on_resume(resumed_at);
            }
        }
        Ok(sim)
    }
}

/// A resumable slot-by-slot simulation of one experiment.
///
/// Constructed exclusively through [`Simulation::builder`]. The lifetime
/// parameter is that of a caller-owned scratch installed via
/// [`SimulationBuilder::scratch`]; a simulation stepping through its own
/// scratch is `Simulation<'static>`.
///
/// Fields are `pub(crate)` so the phase modules in [`crate::phases`] can
/// operate on their slice of the state; outside the crate the simulation
/// is driven exclusively through its public methods.
pub struct Simulation<'s> {
    pub(crate) cfg: ExperimentConfig,
    pub(crate) clock: SlotClock,
    pub(crate) slots: usize,
    pub(crate) hours: f64,

    /// Per-site mutable state; index 0 is the home site. Phases that only
    /// concern the home site split the borrow with `&mut sim.sites[0]`.
    pub(crate) sites: Vec<SiteState>,
    pub(crate) workload: Arc<Workload>,
    pub(crate) policy: Box<dyn crate::policy::Scheduler + Send>,

    pub(crate) hist: LogHistogram,
    pub(crate) jobs: Vec<BatchJob>,
    pub(crate) job_index: HashMap<JobId, usize>,
    /// Indices into `jobs` of the still-pending jobs, in submission order
    /// (indices only ever grow, and settle's retain preserves order), so
    /// scanning it is equivalent to filtering `jobs` by pending state.
    pub(crate) active_jobs: Vec<usize>,
    /// Advancing live-set cursor over the interactive stream population —
    /// the O(live + newly started) source of each slot's stream set.
    /// Derived state, never snapshotted: [`LiveCursor::advance_to`] is
    /// exact for any forward move, so a fresh cursor seeks to the resume
    /// slot by itself.
    pub(crate) live_cursor: LiveCursor,
    /// The next slot's interactive batch, begun on the pool by this slot's
    /// Execute and finished by the next one's. Derived state like the
    /// cursor, never snapshotted: `restore_overlay` clears it, and a cold
    /// Execute begins its own slot's batch.
    pub(crate) next_batch: Option<(usize, PendingSlotBatch)>,
    pub(crate) batch_report: BatchReport,

    pub(crate) positioning_s: f64,
    pub(crate) secs_per_byte: f64,
    pub(crate) total_batch_bw: f64,
    /// Memoised expected interactive busy-seconds per absolute slot (NaN =
    /// not yet computed). The expectation is pure per slot, and horizons
    /// overlap by `DEFAULT_HORIZON - 1` slots, so memoisation turns an
    /// O(horizon) recomputation per slot into O(1) amortised.
    pub(crate) busy_memo: Vec<f64>,

    pub(crate) failure_dice: FailureDice,
    pub(crate) repair_jobs: HashMap<JobId, usize>,
    pub(crate) next_repair_id: u64,
    pub(crate) repairs_completed: u64,

    /// Pending tier-migration jobs by id (home site only, like repairs).
    pub(crate) migration_jobs: HashMap<JobId, MigrationInfo>,
    pub(crate) next_migration_id: u64,
    pub(crate) migrations_completed: u64,
    /// Total migration-job bytes executed so far.
    pub(crate) migrated_bytes: u64,
    /// Of those, bytes executed in slots weighted by the slot's green
    /// fraction of load — `migrated_green_bytes / migrated_bytes` is the
    /// green-slot share of migration I/O.
    pub(crate) migrated_green_bytes: f64,

    /// Deferrable arrivals awaiting this slot's admission decision —
    /// filled by classify, drained by the admission phase within the same
    /// slot, so it is always empty at slot boundaries (and hence never
    /// snapshotted). Unused (empty) with admission control off.
    pub(crate) admission_queue: Vec<BatchJob>,
    /// Jobs the admission gate deferred, with the number of slots each has
    /// been held; retried FIFO every slot.
    pub(crate) admission_held: Vec<(BatchJob, usize)>,
    /// Run totals of the admission gate's decisions.
    pub(crate) admission_accepted: u64,
    pub(crate) admission_deferred: u64,
    pub(crate) admission_rejected: u64,
    pub(crate) admission_rejected_bytes: u64,
    /// The run's only arrival source: an external driver's feed, or the
    /// replay of the workload from the start (or resume) slot.
    pub(crate) feed: EventFeed,

    pub(crate) cursor: usize,
    pub(crate) observers: Vec<Box<dyn SlotObserver + Send>>,
    pub(crate) time_phases: bool,
    /// The scratch [`Self::step`] exchanges bulk data through — the
    /// simulation's own, or one borrowed from the caller at build time;
    /// taken and restored around each step to split the borrow.
    scratch: Scratch<'s>,
}

impl<'s> Simulation<'s> {
    /// Start building a simulation over the given configuration. See
    /// [`SimulationBuilder`] for the knobs (shared world cache,
    /// caller-owned scratch, observers).
    pub fn builder(cfg: &ExperimentConfig) -> SimulationBuilder<'_, 's> {
        SimulationBuilder {
            cfg,
            world: None,
            cache: None,
            scratch: None,
            observers: Vec::new(),
            resume: None,
            feed: None,
        }
    }

    /// Build the per-run mutable state over an already-materialised world.
    ///
    /// `world` must have been materialised for `cfg` (same seed, workload,
    /// energy and cluster sections) — the cache key derivation in
    /// [`crate::world`] guarantees this on the cached path.
    fn assemble(cfg: &ExperimentConfig, world: World, scratch: Scratch<'s>) -> Simulation<'s> {
        let clock = cfg.clock;
        let slots = cfg.slots;
        let width = clock.width();
        let World { workload, sites: site_worlds } = world;
        let site_cfgs = cfg.site_configs();
        debug_assert_eq!(site_cfgs.len(), site_worlds.len(), "world built for another config");

        let mut sites = Vec::with_capacity(site_cfgs.len());
        for (i, (site_cfg, site_world)) in site_cfgs.iter().zip(site_worlds).enumerate() {
            let rngs = gm_sim::RngFactory::new(cfg.site_seed(i));
            let mut cluster = Cluster::from_layout(site_world.layout);
            cluster.set_slot_width(width);
            // Temperature tiering is a home-site concern (remote clusters
            // hold no primary data, like failures and repairs).
            if i == 0 {
                if let Some(t) = cfg.tiering {
                    cluster.enable_tiering(t.ewma, t.cold_fraction_target, t.ec_k, t.ec_m);
                }
            }
            let model = PlanningModel::from_spec(&site_cfg.cluster);
            let forecaster = site_cfg.forecast.build(&site_world.green_trace, clock, &rngs);
            let battery_spec = site_cfg.battery.unwrap_or_else(|| BatterySpec::lithium_ion(0.0));
            let n_disks = site_cfg.cluster.topology.n_disks();
            sites.push(SiteState {
                name: site_cfg.name.clone(),
                source_label: site_cfg.source.label(),
                cluster,
                model,
                green_trace: site_world.green_trace,
                forecaster,
                battery_spec,
                battery: Battery::new(battery_spec),
                utc_offset_hours: site_cfg.utc_offset_hours,
                ledger: EnergyLedger::new(clock, cfg.energy.grid),
                gears_series: Vec::with_capacity(slots),
                rr_cursor: 0,
                prev_spinups: vec![0u64; n_disks],
                executed_batch_bytes: 0,
            });
        }

        let policy = cfg.policy.build();
        let home_model = sites[0].model;

        let home_disk = &site_cfgs[0].cluster.disk;
        let positioning_s = home_disk.avg_seek.as_secs_f64() + home_disk.avg_rotation.as_secs_f64();
        let secs_per_byte = 1.0 / home_disk.transfer_bps;
        let total_batch_bw =
            home_model.gears as f64 * home_model.disks_per_gear as f64 * home_model.disk_bw_bps;

        let failure_dice = FailureDice::new(cfg.seed);

        Simulation {
            cfg: cfg.clone(),
            clock,
            slots,
            hours: clock.width_hours(),
            sites,
            workload,
            policy,
            hist: LogHistogram::for_latency_secs(),
            jobs: Vec::new(),
            job_index: HashMap::new(),
            active_jobs: Vec::new(),
            live_cursor: LiveCursor::new(),
            next_batch: None,
            batch_report: BatchReport::default(),
            positioning_s,
            secs_per_byte,
            total_batch_bw,
            busy_memo: vec![f64::NAN; slots + DEFAULT_HORIZON],
            failure_dice,
            repair_jobs: HashMap::new(),
            next_repair_id: 1u64 << 40, // well above workload job ids
            repairs_completed: 0,
            migration_jobs: HashMap::new(),
            next_migration_id: 1u64 << 41, // above repair ids too
            migrations_completed: 0,
            migrated_bytes: 0,
            migrated_green_bytes: 0.0,
            admission_queue: Vec::new(),
            admission_held: Vec::new(),
            admission_accepted: 0,
            admission_deferred: 0,
            admission_rejected: 0,
            admission_rejected_bytes: 0,
            // Placeholder (closed and empty); `build` installs the run's
            // feed once any restore has fixed the start slot.
            feed: EventFeed::new().1,
            cursor: 0,
            observers: Vec::new(),
            time_phases: false,
            scratch,
        }
    }

    /// Attach an observer.
    pub fn add_observer(&mut self, observer: Box<dyn SlotObserver + Send>) {
        self.time_phases = self.time_phases || observer.wants_phases();
        self.observers.push(observer);
    }

    /// Index of the next slot to simulate.
    pub fn current_slot(&self) -> usize {
        self.cursor
    }

    /// Total slots in the horizon.
    pub fn total_slots(&self) -> usize {
        self.slots
    }

    /// Whether the horizon is exhausted.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.slots
    }

    /// Battery state of charge right now, summed across sites (Wh).
    pub fn battery_soc_wh(&self) -> f64 {
        self.sites.iter().map(|site| site.battery.stored_wh()).sum()
    }

    /// Number of sites in this simulation (1 for single-site configs).
    pub fn n_sites(&self) -> usize {
        self.sites.len()
    }

    /// Capture the full mid-run state as a serializable [`Snapshot`].
    ///
    /// Call at a slot boundary (between [`Self::step`] calls). The
    /// snapshot holds everything accumulated since slot 0; the world, the
    /// policy/matcher and the event feed are *not* captured — the world is
    /// referenced by its cache keys and re-materialised on resume, the
    /// policy is rebuilt from config (byte-exact: the matcher rebuilds its
    /// network every slot and carries no solution between slots), and the
    /// feed replays the workload from the resume slot. Restore with
    /// [`SimulationBuilder::resume_from`].
    pub fn snapshot(&self) -> Snapshot {
        let mut repair_jobs: Vec<(u64, usize)> =
            self.repair_jobs.iter().map(|(id, &disk)| (id.0, disk)).collect();
        repair_jobs.sort_unstable();
        let mut migration_jobs: Vec<(u64, MigrationInfo)> =
            self.migration_jobs.iter().map(|(id, info)| (id.0, info.clone())).collect();
        migration_jobs.sort_unstable_by_key(|(id, _)| *id);
        Snapshot {
            version: SNAPSHOT_VERSION,
            cfg: self.cfg.clone(),
            world_keys: world::world_keys(&self.cfg),
            cursor: self.cursor,
            sites: self
                .sites
                .iter()
                .map(|site| SiteSnapshot {
                    cluster: site.cluster.snapshot(),
                    battery: site.battery.export_state(),
                    ledger: site.ledger.clone(),
                    forecaster: site.forecaster.export_state(),
                    gears_series: site.gears_series.clone(),
                    rr_cursor: site.rr_cursor,
                    prev_spinups: site.prev_spinups.clone(),
                    executed_batch_bytes: site.executed_batch_bytes,
                })
                .collect(),
            jobs: self.jobs.clone(),
            active_jobs: self.active_jobs.clone(),
            batch_report: self.batch_report.clone(),
            hist: self.hist.clone(),
            repair_jobs,
            next_repair_id: self.next_repair_id,
            repairs_completed: self.repairs_completed,
            migration_jobs,
            next_migration_id: self.next_migration_id,
            migrations_completed: self.migrations_completed,
            migrated_bytes: self.migrated_bytes,
            migrated_green_bytes: self.migrated_green_bytes,
            admission_held: self.admission_held.clone(),
            admission_accepted: self.admission_accepted,
            admission_deferred: self.admission_deferred,
            admission_rejected: self.admission_rejected,
            admission_rejected_bytes: self.admission_rejected_bytes,
        }
    }

    /// Overlay a snapshot's history onto this freshly assembled
    /// simulation (the restore half of [`SimulationBuilder::resume_from`]).
    ///
    /// Config-derived state (policy, specs, planning constants, grid) was
    /// already built from the *resume* config by `assemble`; this replaces
    /// only the history-derived state. Rejects snapshots whose world keys,
    /// site count or cluster shapes do not match this simulation.
    fn restore_overlay(&mut self, snap: &Snapshot) -> Result<(), ConfigError> {
        let invalid = |message: String| ConfigError::Invalid { message };
        // Older snapshots restore with the newer fields at their defaults
        // — empty migration (v1) and admission (v2) tables, which is
        // exactly the state every such run was in.
        if !(1..=SNAPSHOT_VERSION).contains(&snap.version) {
            return Err(invalid(format!(
                "snapshot version {} not supported (this build reads versions 1 through {})",
                snap.version, SNAPSHOT_VERSION
            )));
        }
        let our_keys = world::world_keys(&self.cfg);
        if our_keys != snap.world_keys {
            return Err(invalid(
                "snapshot was taken over a different world (seed, workload, clock, slots, \
                 source or cluster section differs); only policy/battery/discharge/WAN \
                 variations can branch a checkpoint"
                    .to_string(),
            ));
        }
        if snap.cursor > self.slots {
            return Err(invalid(format!(
                "snapshot cursor {} beyond the {}-slot horizon",
                snap.cursor, self.slots
            )));
        }
        if snap.sites.len() != self.sites.len() {
            return Err(invalid(format!(
                "snapshot has {} sites, config has {}",
                snap.sites.len(),
                self.sites.len()
            )));
        }
        for (i, (site, ss)) in self.sites.iter_mut().zip(&snap.sites).enumerate() {
            site.cluster
                .restore_state(&ss.cluster)
                .map_err(|e| invalid(format!("site {i}: {e}")))?;
            if ss.gears_series.len() != snap.cursor {
                return Err(invalid(format!(
                    "site {i}: gear history has {} entries for cursor {}",
                    ss.gears_series.len(),
                    snap.cursor
                )));
            }
            if ss.prev_spinups.len() != site.prev_spinups.len() {
                return Err(invalid(format!(
                    "site {i}: spin-up table has {} disks, cluster has {}",
                    ss.prev_spinups.len(),
                    site.prev_spinups.len()
                )));
            }
            site.battery = Battery::restore(site.battery_spec, ss.battery);
            site.ledger = ss.ledger.clone();
            site.forecaster.import_state(&ss.forecaster);
            site.gears_series = ss.gears_series.clone();
            site.rr_cursor = ss.rr_cursor;
            site.prev_spinups = ss.prev_spinups.clone();
            site.executed_batch_bytes = ss.executed_batch_bytes;
        }
        if snap.active_jobs.iter().any(|&idx| idx >= snap.jobs.len()) {
            return Err(invalid("snapshot pending-job index out of range".to_string()));
        }
        self.jobs = snap.jobs.clone();
        self.active_jobs = snap.active_jobs.clone();
        self.job_index = snap.active_jobs.iter().map(|&idx| (snap.jobs[idx].id, idx)).collect();
        // Belt and braces: the live cursor seeks correctly from any prior
        // state, but a resumed run should start from the canonical one.
        self.live_cursor = LiveCursor::new();
        self.next_batch = None;
        self.batch_report = snap.batch_report.clone();
        self.hist = snap.hist.clone();
        self.repair_jobs = snap.repair_jobs.iter().map(|&(id, disk)| (JobId(id), disk)).collect();
        self.next_repair_id = snap.next_repair_id;
        self.repairs_completed = snap.repairs_completed;
        self.migration_jobs =
            snap.migration_jobs.iter().map(|(id, info)| (JobId(*id), info.clone())).collect();
        self.next_migration_id = snap.next_migration_id;
        self.migrations_completed = snap.migrations_completed;
        self.migrated_bytes = snap.migrated_bytes;
        self.migrated_green_bytes = snap.migrated_green_bytes;
        self.admission_queue.clear();
        self.admission_held = snap.admission_held.clone();
        self.admission_accepted = snap.admission_accepted;
        self.admission_deferred = snap.admission_deferred;
        self.admission_rejected = snap.admission_rejected;
        self.admission_rejected_bytes = snap.admission_rejected_bytes;
        self.cursor = snap.cursor;
        Ok(())
    }

    /// Simulate one slot through the phase pipeline
    /// (`Forecast → Classify → Admission → Plan → Gear → Execute →
    /// Settle`, see
    /// [`crate::phases`]), exchanging bulk data through the simulation's
    /// scratch (its own, or the caller's — see
    /// [`SimulationBuilder::scratch`]). Returns `None` once the horizon is
    /// exhausted.
    pub fn step(&mut self) -> Option<SlotOutcome> {
        let mut scratch =
            std::mem::replace(&mut self.scratch, Scratch::Owned(Box::new(SlotScratch::new())));
        let out = self.step_inner(scratch.get());
        self.scratch = scratch;
        out
    }

    /// One slot over an explicit scratch borrow (the borrow-split form
    /// [`Self::step`] delegates to).
    fn step_inner(&mut self, scratch: &mut SlotScratch) -> Option<SlotOutcome> {
        if self.cursor >= self.slots {
            return None;
        }
        let s = self.cursor;
        let ctx = SlotContext {
            slot: s,
            now: self.clock.slot_start(s),
            slot_end: self.clock.slot_end(s),
            width: self.clock.width(),
            hours: self.hours,
            clock: self.clock,
        };
        let t = self.time_phases.then(Instant::now);

        phases::forecast::run(self, &ctx, scratch);
        let t = self.emit_phase(s, Phase::Forecast, t);
        let classified = phases::classify::run(self, &ctx, scratch);
        let t = self.emit_phase(s, Phase::Classify, t);
        let admitted = phases::admission::run(self, &ctx, scratch);
        let t = self.emit_phase(s, Phase::Admission, t);
        let decision = phases::plan::run(self, &ctx, scratch);
        let t = self.emit_phase(s, Phase::Plan, t);
        let gears = phases::gear::run(self, &ctx, &decision);
        let t = self.emit_phase(s, Phase::Gear, t);
        // Migration jobs execute through the generic batch path; their
        // slot share is the drop in their remaining work across execute.
        let migration_remaining_before = self.migration_remaining_bytes();
        let executed_batch_bytes = phases::execute::run(self, &ctx, scratch, &decision);
        let migrated_bytes = migration_remaining_before - self.migration_remaining_bytes();
        let t = self.emit_phase(s, Phase::Execute, t);
        let settled = phases::settle::run(self, &ctx);
        self.emit_phase(s, Phase::Settle, t);

        if migrated_bytes > 0 {
            self.migrated_bytes += migrated_bytes;
            let e = &settled.energy;
            if e.load_wh > 0.0 {
                let green_frac = ((e.load_wh - e.grid_wh) / e.load_wh).clamp(0.0, 1.0);
                self.migrated_green_bytes += migrated_bytes as f64 * green_frac;
            }
        }

        self.cursor += 1;

        let usable: f64 = self.sites.iter().map(|site| site.battery_spec.usable_wh()).sum();
        let soc = self.battery_soc_wh();
        let site_energy: Vec<SiteSlotEnergy> = if self.sites.len() > 1 {
            settled
                .site_energy
                .iter()
                .enumerate()
                .map(|(i, &energy)| SiteSlotEnergy {
                    site: i,
                    gears: self.sites[i].gears_series.last().copied().unwrap_or(0),
                    executed_batch_bytes: scratch.site_executed_bytes.get(i).copied().unwrap_or(0),
                    energy,
                    battery_soc_wh: self.sites[i].battery.stored_wh(),
                })
                .collect()
        } else {
            Vec::new()
        };
        let outcome = SlotOutcome {
            slot: s,
            gears,
            requested_batch_bytes: decision.total_batch_bytes(),
            executed_batch_bytes,
            deadline_infeasible_bytes: decision.infeasible_bytes,
            decision,
            energy: settled.energy,
            battery_soc_wh: soc,
            battery_soc_frac: if usable > 0.0 { soc / usable } else { 0.0 },
            events: SlotEvents {
                jobs_submitted: classified.jobs_submitted + admitted.accepted,
                jobs_completed: settled.jobs_completed,
                deadline_misses: settled.deadline_misses,
                repairs_completed: settled.repairs_completed,
                disk_failures: classified.disk_failures,
                migrations_spawned: classified.migrations_spawned,
                migrations_completed: settled.migrations_completed,
                jobs_deferred: admitted.deferred,
                jobs_rejected: admitted.rejected,
                rejected_bytes: admitted.rejected_bytes,
            },
            latency: LatencyReport::from_histogram(&scratch.slot_hist),
            pending_jobs: self.job_index.len(),
            writelog_pending_bytes: self.sites[0].cluster.write_log().pending_total(),
            matcher_residual_units: self.policy.matcher_residual_units(),
            tier_hot: classified.tier_hot,
            tier_warm: classified.tier_warm,
            tier_cold: classified.tier_cold,
            tier_objects: if self.sites[0].cluster.tiering_enabled() {
                self.sites[0].cluster.spec().objects as u64
            } else {
                0
            },
            migrated_bytes,
            tier_bytes_released: settled.tier_bytes_released,
            tier_bytes_written: settled.tier_bytes_written,
            capacity_in_use_bytes: self.sites[0].cluster.capacity_in_use_bytes(),
            site_energy,
        };
        for obs in &mut self.observers {
            obs.on_slot(&outcome);
        }
        Some(outcome)
    }

    /// Remaining bytes across all tracked migration jobs (0 with tiering
    /// off — the table stays empty, so the hot path pays one branch).
    fn migration_remaining_bytes(&self) -> u64 {
        if self.migration_jobs.is_empty() {
            return 0;
        }
        self.migration_jobs.keys().map(|id| self.jobs[self.job_index[id]].remaining_bytes).sum()
    }

    /// Memoised expected interactive busy-seconds for an absolute slot
    /// (pure per slot; horizons overlap, so each slot is computed once).
    pub(crate) fn expected_busy_secs(&mut self, slot: usize) -> f64 {
        let memo = self.busy_memo.get(slot).copied().unwrap_or(f64::NAN);
        if !memo.is_nan() {
            return memo;
        }
        let busy = self.workload.interactive().expected_busy_secs_in_slot(
            self.clock,
            slot,
            self.positioning_s,
            self.secs_per_byte,
        );
        if let Some(entry) = self.busy_memo.get_mut(slot) {
            *entry = busy;
        }
        busy
    }

    /// Emit the elapsed time since `start` as a phase sample and restart
    /// the clock. No-op (and no clock reads) when no observer asked for
    /// phase timing.
    fn emit_phase(&mut self, slot: usize, phase: Phase, start: Option<Instant>) -> Option<Instant> {
        let start = start?;
        let nanos = start.elapsed().as_nanos() as u64;
        for obs in &mut self.observers {
            if obs.wants_phases() {
                obs.on_phase(slot, phase, nanos);
            }
        }
        Some(Instant::now())
    }

    /// Run the remaining slots and produce the final report.
    pub fn run_to_end(mut self) -> RunReport {
        let mut scratch =
            std::mem::replace(&mut self.scratch, Scratch::Owned(Box::new(SlotScratch::new())));
        while self.step_inner(scratch.get()).is_some() {}
        self.scratch = scratch;
        self.into_report()
    }

    /// Produce the end-of-run report from the current state (normally
    /// called with the horizon exhausted; an early call reports the run so
    /// far, with every not-yet-simulated slot absent from the series).
    pub fn into_report(mut self) -> RunReport {
        // Unfinished work at the end of the horizon (repair and migration
        // jobs are tracked separately and excluded from batch statistics).
        let horizon_end = self.clock.slot_end(self.slots - 1);
        for j in self.jobs.iter().filter(|j| {
            j.is_pending()
                && !self.repair_jobs.contains_key(&j.id)
                && !self.migration_jobs.contains_key(&j.id)
        }) {
            self.batch_report.bytes_completed += j.total_bytes - j.remaining_bytes;
            if j.deadline <= horizon_end {
                self.batch_report.unfinished_late += 1;
            }
        }

        for site in &mut self.sites {
            let efficiency_loss = site.battery.efficiency_loss_wh();
            let self_discharge = site.battery.self_discharge_loss_wh();
            site.ledger.set_battery_losses(efficiency_loss, self_discharge);
        }

        for obs in &mut self.observers {
            obs.on_finish();
        }

        // Aggregate energy accounting across sites. Exact for a single
        // site: every accumulator starts at zero and adds one term, and the
        // ratio formulas below replicate the ledger's own.
        let mut load_wh = 0.0;
        let mut brown_wh = 0.0;
        let mut green_produced_wh = 0.0;
        let mut green_direct_wh = 0.0;
        let mut battery_out_wh = 0.0;
        let mut curtailed_wh = 0.0;
        let mut battery_eff_loss_wh = 0.0;
        let mut battery_selfdisch_wh = 0.0;
        let mut spinup_overhead_wh = 0.0;
        let mut reclaim_overhead_wh = 0.0;
        let mut carbon_g = 0.0;
        let mut cost_dollars = 0.0;
        let mut battery_cycles = 0.0;
        let mut battery_wear_dollars = 0.0;
        let mut spinups = 0u64;
        let mut forced_spinups = 0u64;
        for site in &self.sites {
            let totals = site.ledger.totals();
            load_wh += totals.load_wh;
            brown_wh += totals.brown_wh;
            green_produced_wh += totals.green_produced_wh;
            green_direct_wh += totals.green_direct_wh;
            battery_out_wh += totals.battery_out_wh;
            curtailed_wh += totals.curtailed_wh;
            battery_eff_loss_wh += site.ledger.battery_efficiency_loss_wh();
            battery_selfdisch_wh += site.ledger.battery_self_discharge_wh();
            spinup_overhead_wh += site.ledger.spinup_overhead_wh();
            reclaim_overhead_wh += site.ledger.reclaim_overhead_wh();
            carbon_g += site.ledger.carbon_g();
            cost_dollars += site.ledger.cost_dollars();
            battery_cycles += site.battery.equivalent_full_cycles();
            battery_wear_dollars += site.battery.wear_cost_dollars();
            spinups += site.cluster.total_spinups();
            forced_spinups += site.cluster.total_forced_spinups();
        }
        let green_utilization = if green_produced_wh == 0.0 {
            0.0
        } else {
            (green_direct_wh + battery_out_wh) / green_produced_wh
        };
        let green_coverage =
            if load_wh == 0.0 { 0.0 } else { (green_direct_wh + battery_out_wh) / load_wh };

        // Element-wise summed per-slot series (the home site's values,
        // untouched, for a single site).
        let mut load_series_wh = self.sites[0].ledger.load_series().values().to_vec();
        let mut green_series_wh = self.sites[0].ledger.green_series().values().to_vec();
        let mut brown_series_wh = self.sites[0].ledger.brown_series().values().to_vec();
        let mut battery_out_series_wh = self.sites[0].ledger.battery_out_series().values().to_vec();
        let mut curtailed_series_wh = self.sites[0].ledger.curtailed_series().values().to_vec();
        for site in &self.sites[1..] {
            add_series(&mut load_series_wh, site.ledger.load_series().values());
            add_series(&mut green_series_wh, site.ledger.green_series().values());
            add_series(&mut brown_series_wh, site.ledger.brown_series().values());
            add_series(&mut battery_out_series_wh, site.ledger.battery_out_series().values());
            add_series(&mut curtailed_series_wh, site.ledger.curtailed_series().values());
        }

        let sites = if self.sites.len() > 1 {
            self.sites
                .iter()
                .enumerate()
                .map(|(i, site)| {
                    let totals = site.ledger.totals();
                    SiteReport {
                        site: i,
                        name: site.name.clone(),
                        source: site.source_label.clone(),
                        battery: battery_label(&site.battery_spec),
                        load_kwh: totals.load_wh / 1000.0,
                        brown_kwh: site.ledger.brown_kwh(),
                        green_produced_kwh: totals.green_produced_wh / 1000.0,
                        green_direct_kwh: totals.green_direct_wh / 1000.0,
                        battery_out_kwh: totals.battery_out_wh / 1000.0,
                        curtailed_kwh: totals.curtailed_wh / 1000.0,
                        green_utilization: site.ledger.green_utilization(),
                        green_coverage: site.ledger.green_coverage(),
                        executed_batch_bytes: site.executed_batch_bytes,
                        spinups: site.cluster.total_spinups(),
                    }
                })
                .collect()
        } else {
            Vec::new()
        };

        let admission = self.cfg.admission.is_some().then_some(AdmissionReport {
            accepted: self.admission_accepted,
            deferred: self.admission_deferred,
            rejected: self.admission_rejected,
            rejected_bytes: self.admission_rejected_bytes,
            pending_at_end: self.admission_held.len(),
        });
        let home = &mut self.sites[0];
        RunReport {
            policy: self.policy.label(),
            source: home.source_label.clone(),
            battery: battery_label(&home.battery_spec),
            seed: self.cfg.seed,
            slots: self.slots,
            load_kwh: load_wh / 1000.0,
            brown_kwh: brown_wh / 1000.0,
            green_produced_kwh: green_produced_wh / 1000.0,
            green_direct_kwh: green_direct_wh / 1000.0,
            battery_out_kwh: battery_out_wh / 1000.0,
            curtailed_kwh: curtailed_wh / 1000.0,
            battery_eff_loss_kwh: battery_eff_loss_wh / 1000.0,
            battery_selfdisch_kwh: battery_selfdisch_wh / 1000.0,
            spinup_overhead_kwh: spinup_overhead_wh / 1000.0,
            reclaim_overhead_kwh: reclaim_overhead_wh / 1000.0,
            green_utilization,
            green_coverage,
            carbon_kg: carbon_g / 1000.0,
            cost_dollars,
            battery_cycles,
            battery_wear_dollars,
            latency: LatencyReport::from_histogram(&self.hist),
            batch: self.batch_report,
            spinups,
            forced_spinups,
            writelog_peak_bytes: home.cluster.write_log().peak_pending(),
            failures: home.cluster.total_failures(),
            lost_objects: home.cluster.total_lost_objects(),
            degraded_reads: home.cluster.degraded_reads(),
            rebuild_bytes: home.cluster.total_rebuild_bytes(),
            repairs_completed: self.repairs_completed,
            migrations_completed: self.migrations_completed,
            migrated_bytes: self.migrated_bytes,
            migration_green_share: if self.migrated_bytes > 0 {
                self.migrated_green_bytes / self.migrated_bytes as f64
            } else {
                0.0
            },
            capacity_in_use_bytes: home.cluster.capacity_in_use_bytes(),
            ec_objects: home.cluster.ec_objects() as u64,
            cache_hit_ratio: home.cluster.cache().hit_ratio(),
            admission,
            gears_series: std::mem::take(&mut home.gears_series),
            load_series_wh,
            green_series_wh,
            brown_series_wh,
            battery_out_series_wh,
            curtailed_series_wh,
            sites,
        }
    }
}

/// Report label of a battery spec (the historic single-battery label).
fn battery_label(spec: &BatterySpec) -> String {
    if spec.capacity_wh > 0.0 {
        format!("LI-like:{:.1}kWh(σ={})", spec.capacity_wh / 1000.0, spec.efficiency)
    } else {
        "none".to_string()
    }
}

/// `a[i] += b[i]` for two equal-length per-slot series.
fn add_series(a: &mut [f64], b: &[f64]) {
    debug_assert_eq!(a.len(), b.len(), "site series lengths diverged");
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SourceKind;
    use crate::observe::{NullObserver, PhaseTimer};
    use crate::policy::PolicyKind;

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig::small_demo(11).with_slots(24)
    }

    fn sim(cfg: &ExperimentConfig) -> Simulation<'static> {
        Simulation::builder(cfg).build().expect("config materialises")
    }

    #[test]
    fn step_returns_one_outcome_per_slot_then_none() {
        let mut sim = sim(&quick_cfg());
        for s in 0..24 {
            assert_eq!(sim.current_slot(), s);
            let o = sim.step().expect("slot available");
            assert_eq!(o.slot, s);
            assert!((1..=3).contains(&o.gears));
        }
        assert!(sim.is_done());
        assert!(sim.step().is_none());
        assert!(sim.step().is_none(), "stays exhausted");
    }

    #[test]
    fn outcomes_satisfy_energy_identities() {
        let mut sim = sim(&quick_cfg());
        while let Some(o) = sim.step() {
            let e = &o.energy;
            assert!(
                (e.green_direct_wh + e.battery_out_wh + e.grid_wh - e.load_wh).abs() < 1e-9,
                "slot {}: supply identity",
                o.slot
            );
            assert!(
                (e.green_direct_wh + e.battery_in_wh + e.curtailed_wh - e.green_produced_wh).abs()
                    < 1e-9,
                "slot {}: production identity",
                o.slot
            );
            assert!(o.battery_soc_wh >= 0.0);
            assert!((0.0..=1.0).contains(&o.battery_soc_frac));
            assert!(o.executed_batch_bytes <= o.requested_batch_bytes);
        }
    }

    #[test]
    fn stepwise_report_equals_run_experiment() {
        let cfg = quick_cfg();
        let via_wrapper = crate::harness::run_experiment(&cfg);
        let mut sim = sim(&cfg);
        while sim.step().is_some() {}
        let via_steps = sim.into_report();
        assert_eq!(
            serde_json::to_string(&via_wrapper).unwrap(),
            serde_json::to_string(&via_steps).unwrap(),
            "step-wise run must be field-for-field identical"
        );
    }

    #[test]
    fn observers_do_not_change_the_report() {
        let cfg = quick_cfg();
        let bare = crate::harness::run_experiment(&cfg);
        let (timer, profile) = PhaseTimer::new();
        let observed = Simulation::builder(&cfg)
            .observer(Box::new(NullObserver))
            .observer(Box::new(timer))
            .build()
            .expect("config materialises")
            .run_to_end();
        assert_eq!(
            serde_json::to_string(&bare).unwrap(),
            serde_json::to_string(&observed).unwrap()
        );
        let p = profile.lock().unwrap();
        assert_eq!(p.slots, 24);
        assert!(p.total_ns() > 0);
    }

    #[test]
    fn build_reports_missing_trace_instead_of_panicking() {
        let cfg = quick_cfg().with_source(SourceKind::TraceCsv {
            label: "x".into(),
            path: "/nonexistent/definitely-missing.csv".into(),
        });
        let err = Simulation::builder(&cfg).build().err().expect("missing trace is an error");
        let msg = err.to_string();
        assert!(
            msg.starts_with("trace x: cannot read /nonexistent/definitely-missing.csv"),
            "{msg}"
        );
    }

    #[test]
    fn build_rejects_zero_slots() {
        let cfg = quick_cfg().with_slots(0);
        assert!(matches!(Simulation::builder(&cfg).build(), Err(ConfigError::Invalid { .. })));
    }

    #[test]
    fn policy_decisions_are_observable() {
        let mut sim = sim(&quick_cfg().with_policy(PolicyKind::AllOn));
        let o = sim.step().expect("first slot");
        assert_eq!(o.decision.gears, 3, "all-on always asks for every gear");
        assert_eq!(o.gears, 3);
    }

    #[test]
    fn single_site_runs_have_no_site_breakdown() {
        let mut sim = sim(&quick_cfg());
        while let Some(o) = sim.step() {
            assert!(o.site_energy.is_empty());
        }
        assert!(sim.into_report().sites.is_empty());
    }

    #[test]
    fn multi_site_run_aggregates_per_site_flows() {
        let base =
            quick_cfg().with_policy(PolicyKind::GreenMatch { delay_fraction: 1.0 }).with_slots(48);
        let mut sites = base.site_configs();
        let mut east = sites[0].clone();
        east.name = "east".into();
        east.utc_offset_hours = 8;
        sites.push(east);
        let cfg = base.with_sites(sites).with_wan_cost(200);

        let mut sim = sim(&cfg);
        assert_eq!(sim.n_sites(), 2);
        while let Some(o) = sim.step() {
            assert_eq!(o.site_energy.len(), 2, "slot {}", o.slot);
            let load: f64 = o.site_energy.iter().map(|s| s.energy.load_wh).sum();
            assert!((load - o.energy.load_wh).abs() < 1e-9, "slot {}", o.slot);
            let executed: u64 = o.site_energy.iter().map(|s| s.executed_batch_bytes).sum();
            assert_eq!(executed, o.executed_batch_bytes, "slot {}", o.slot);
        }
        let report = sim.into_report();
        assert_eq!(report.sites.len(), 2);
        assert_eq!(report.sites[0].name, "site0");
        assert_eq!(report.sites[1].name, "east");
        for (total, per_site) in [
            (report.load_kwh, report.sites.iter().map(|s| s.load_kwh).sum::<f64>()),
            (report.brown_kwh, report.sites.iter().map(|s| s.brown_kwh).sum::<f64>()),
            (
                report.green_produced_kwh,
                report.sites.iter().map(|s| s.green_produced_kwh).sum::<f64>(),
            ),
        ] {
            assert!((total - per_site).abs() < 1e-9, "{total} vs {per_site}");
        }
        assert_eq!(report.spinups, report.sites.iter().map(|s| s.spinups).sum::<u64>());
    }

    #[test]
    fn offset_site_shifts_green_production_in_time() {
        // Site 1 is site 0's solar field pushed 8 hours east: its trace is
        // the home trace rotated, so the two sites peak at different slots.
        let base = quick_cfg().with_slots(48);
        let mut sites = base.site_configs();
        let mut east = sites[0].clone();
        east.name = "east".into();
        east.utc_offset_hours = 8;
        sites.push(east);
        let cfg = base.with_sites(sites);

        let world = crate::world::World::try_materialize(&cfg).expect("materializes");
        let home = world.sites[0].green_trace.as_ref();
        let east = world.sites[1].green_trace.as_ref();
        let n = cfg.slots;
        let peak = |trace: &gm_sim::series::TimeSeries| {
            (0..n).max_by(|&a, &b| trace.get(a).total_cmp(&trace.get(b))).unwrap()
        };
        assert_ne!(peak(home) % 24, peak(east) % 24, "offset shifts the solar peak");
    }

    #[test]
    fn discharge_windows_follow_site_local_time() {
        // Regression: PeakOnly/Reserve windows used to be evaluated with
        // the *global* clock hour for every site, so an offset site
        // discharged during the home site's evening instead of its own.
        use crate::config::DischargeStrategy;
        let base = quick_cfg().with_slots(72);
        let mut sites = base.site_configs();
        let mut east = sites[0].clone();
        east.name = "east".into();
        east.utc_offset_hours = 8;
        sites.push(east);
        let mut cfg = base.with_sites(sites).with_wan_cost(200);
        cfg.energy.discharge = DischargeStrategy::PeakOnly;

        let mut sim = sim(&cfg);
        let mut east_out = 0.0;
        while let Some(o) = sim.step() {
            let hour = (o.slot % 24) as f64 + 0.5;
            if !(7.0..23.0).contains(&hour) {
                assert_eq!(
                    o.site_energy[0].energy.battery_out_wh, 0.0,
                    "home off-peak discharge at slot {}",
                    o.slot
                );
            }
            let local = (hour - 8.0).rem_euclid(24.0);
            let out = o.site_energy[1].energy.battery_out_wh;
            if !(7.0..23.0).contains(&local) {
                assert_eq!(out, 0.0, "east discharge at slot {} (local hour {local})", o.slot);
            }
            east_out += out;
        }
        assert!(east_out > 0.0, "east site must discharge during its local peak");
    }

    #[test]
    fn completed_repairs_leave_the_repair_table() {
        // Regression: `repair_jobs` entries were never removed on repair
        // completion, so the table grew without bound and every retired id
        // stayed live for execute-phase lookups.
        let mut cfg = quick_cfg().with_policy(PolicyKind::PowerProportional);
        cfg.slots = 7 * 24;
        cfg.failures = Some(gm_storage::FailureSpec {
            afr: 20.0,
            standby_factor: 0.5,
            spinup_wear_hours: 10.0,
        });
        let mut sim = sim(&cfg);
        while sim.step().is_some() {}

        let pending_repairs =
            sim.active_jobs.iter().filter(|&&idx| sim.jobs[idx].id.0 >= (1u64 << 40)).count();
        assert_eq!(
            sim.repair_jobs.len(),
            pending_repairs,
            "completed repairs must leave the repair table"
        );
        for id in sim.repair_jobs.keys() {
            assert!(sim.job_index.contains_key(id), "stale repair entry {}", id.0);
        }
        let report = sim.into_report();
        assert!(report.repairs_completed > 0, "storm must complete repairs");
    }
}

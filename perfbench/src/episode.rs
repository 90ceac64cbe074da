//! The closed loop: one thread calls `Simulation::step()` back to
//! back, timing each call, because a slot cannot start before the
//! previous one settles.

use crate::outcome::{Checker, SimResult};
use crate::workloads::{Kind, Producer};
use greenmatch::audit::{AuditReport, ConservationAuditor};
use greenmatch::config::ExperimentConfig;
use greenmatch::observe::SlotObserver;
use greenmatch::phases::SlotScratch;
use greenmatch::simulation::{Simulation, SlotOutcome};
use greenmatch::world::World;
use std::time::Instant;

/// A workload's world, ready for episodes.
pub struct Prepared {
    pub kind: Kind,
    seed: u64,
    pub cfg: ExperimentConfig,
    pub world: World,
    /// Host time `World::try_materialize` took (s).
    pub materialize_s: f64,
    /// Host time of the whole set-up (s): materialise, plus the untimed
    /// warm-up week for warm workloads.
    pub setup_s: f64,
    /// What the warm-up week computed (warm workloads only).
    pub warmup: Option<SimResult>,
    /// Whether an episode has run on this world.
    used: bool,
}

impl Prepared {
    /// Materialise `kind`'s world at `seed`; warm workloads also run one
    /// untimed week over it, which fills the memoised slot batches.
    pub fn new(kind: Kind, seed: u64, scratch: &mut SlotScratch) -> Result<Prepared, String> {
        let cfg = kind.config(seed);
        let t0 = Instant::now();
        let world = World::try_materialize(&cfg).map_err(|e| format!("{kind}: {e}"))?;
        let materialize_s = t0.elapsed().as_secs_f64();
        let mut ready = Prepared {
            kind,
            seed,
            cfg,
            world,
            materialize_s,
            setup_s: 0.0,
            warmup: None,
            used: false,
        };
        if kind.warm() {
            let ep = run_episode(&mut ready, scratch, Vec::new(), false, |_, _, _| {})?;
            ready.warmup = Some(ep.result);
        }
        ready.setup_s = t0.elapsed().as_secs_f64();
        Ok(ready)
    }

    /// Ready for one more episode. Warm workloads replay their world; a
    /// cold one never does (a live service sees every slot once), so a
    /// used world is freed and a fresh one materialised.
    pub fn renewed(self, scratch: &mut SlotScratch) -> Result<Prepared, String> {
        if self.kind.warm() || !self.used {
            return Ok(self);
        }
        let (kind, seed) = (self.kind, self.seed);
        drop(self);
        Prepared::new(kind, seed, scratch)
    }
}

/// Set up `kind`'s world at `seed` once and check its warm-up week.
pub fn set_up(
    kind: Kind,
    seed: u64,
    scratch: &mut SlotScratch,
    checker: &mut Checker,
) -> Result<Prepared, String> {
    let ready = Prepared::new(kind, seed, scratch)?;
    if let Some(warm) = &ready.warmup {
        checker.check("warm-up week", warm);
    }
    Ok(ready)
}

/// One episode's host-time samples and simulated result.
pub struct Episode {
    /// Host time of each `step()` call (s), in slot order.
    pub step_s: Vec<f64>,
    pub result: SimResult,
    /// Outcomes' per-slot counters the traced run reports.
    pub counts: SlotCounts,
    /// Home-site gear level powered in each slot.
    pub gears: Vec<usize>,
    /// Tier migrations completed in each slot.
    pub migrations_completed: Vec<u64>,
    /// Admission-gate decisions: (accepted, offered); offered counts
    /// rejected jobs and jobs still held at the end. `None` with the gate
    /// off.
    pub admission: Option<(u64, u64)>,
    /// Conservation audit of the episode, when one was attached.
    pub audit: Option<AuditReport>,
}

/// Per-slot counters summed over an episode, from its `SlotOutcome`s.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlotCounts {
    pub slots: u64,
    pub requested_batch_bytes: u64,
    pub executed_batch_bytes: u64,
    pub pending_jobs: u64,
    pub residual_units: u64,
    pub requests: u64,
}

impl SlotCounts {
    fn add(&mut self, o: &SlotOutcome) {
        self.slots += 1;
        self.requested_batch_bytes += o.requested_batch_bytes;
        self.executed_batch_bytes += o.executed_batch_bytes;
        self.pending_jobs += o.pending_jobs as u64;
        self.residual_units += o.matcher_residual_units.unsigned_abs();
        self.requests += o.latency.count;
    }
}

/// Build a simulation over `ready`'s world (through `scratch`, with
/// `observers` attached) and step it to the end of the horizon, timing
/// every step. With `audit`, a `ConservationAuditor` watches every slot
/// and the final state is deep-checked too. `after_step(slot, start,
/// end)` runs after each step, outside the timed interval. The service
/// workload pushes its batch arrivals through a feed producer thread.
pub fn run_episode(
    ready: &mut Prepared,
    scratch: &mut SlotScratch,
    mut observers: Vec<Box<dyn SlotObserver + Send>>,
    audit: bool,
    mut after_step: impl FnMut(usize, Instant, Instant),
) -> Result<Episode, String> {
    ready.used = true;
    let (kind, cfg, world) = (ready.kind, &ready.cfg, &ready.world);
    let mut builder = Simulation::builder(cfg).world(world.clone());
    let producer = if kind == Kind::MegaService {
        let (producer, feed) = Producer::start(cfg, world);
        builder = builder.feed(feed);
        Some(producer)
    } else {
        None
    };
    let auditor = audit.then(|| {
        let (auditor, handle) = ConservationAuditor::new();
        observers.push(Box::new(auditor));
        handle
    });
    for obs in observers {
        builder = builder.observer(obs);
    }
    let mut sim = builder.scratch(scratch).build().map_err(|e| format!("{kind}: {e}"))?;

    let mut step_s = Vec::with_capacity(cfg.slots);
    let mut counts = SlotCounts::default();
    let mut gears = Vec::with_capacity(cfg.slots);
    let mut migrations_completed = Vec::with_capacity(cfg.slots);
    loop {
        let start = Instant::now();
        let Some(outcome) = std::hint::black_box(sim.step()) else { break };
        let end = Instant::now();
        step_s.push((end - start).as_secs_f64());
        counts.add(&outcome);
        gears.push(outcome.gears);
        migrations_completed.push(outcome.events.migrations_completed);
        after_step(outcome.slot, start, end);
    }
    if let Some(p) = producer {
        p.join();
    }
    let audit = auditor.map(|handle| {
        let mut report = std::mem::take(&mut *handle.lock().expect("auditor never panics"));
        report.merge(sim.post_run_audit());
        report
    });
    let snapshot = sim.snapshot();
    let report = sim.into_report();
    let result = SimResult::new(&snapshot, &report, counts.executed_batch_bytes, counts.requests);
    let admission = report
        .admission
        .as_ref()
        .map(|a| (a.accepted, a.accepted + a.rejected + a.pending_at_end as u64));
    Ok(Episode { step_s, result, counts, gears, migrations_completed, admission, audit })
}

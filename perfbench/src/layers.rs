//! The traced run: per-layer metrics, measured from outside the program.
//!
//! * The seven `greenmatch` phases come from a benchmark-owned
//!   [`SlotObserver`] that asks for phase timings; each `step()` becomes a
//!   `core.step` span with seven child spans laid end to end in phase
//!   order, all sharing the slot id.
//! * `gm-workload`, `gm-storage` and `gm-energy` are timed by calling
//!   their public functions directly over the run's slots, on the run's
//!   world and a fresh cluster built from its layout, set up and geared
//!   as the workload's simulation does it.
//!
//! Traced and untraced episodes alternate so `trace.overhead_ratio`
//! compares like with like; a third, audited episode checks every
//! conservation invariant. Spans stay in memory and are written as JSON
//! lines when the run ends.

use crate::episode::{run_episode, set_up, Episode, Prepared};
use crate::outcome::Checker;
use crate::stats::median;
use crate::workloads::Kind;
use crate::{more_episodes, Args, Metric, MIN_SETUPS};
use gm_energy::forecast::{Forecaster, NoisyOracle};
use gm_sim::RngFactory;
use gm_storage::Cluster;
use gm_workload::LiveCursor;
use greenmatch::observe::{Phase, SlotObserver};
use greenmatch::phases::SlotScratch;
use greenmatch::scheduler::DEFAULT_HORIZON;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Phases in pipeline order, with their span and metric names.
const PHASES: [(Phase, &str, &str); 7] = [
    (Phase::Forecast, "core.forecast", "core.forecast.ms_per_slot"),
    (Phase::Classify, "core.classify", "core.classify.ms_per_slot"),
    (Phase::Admission, "core.admission", "core.admission.ms_per_slot"),
    (Phase::Plan, "core.plan", "core.plan.ms_per_slot"),
    (Phase::Gear, "core.gear", "core.gear.ms_per_slot"),
    (Phase::Execute, "core.execute", "core.execute.ms_per_slot"),
    (Phase::Settle, "core.settle", "core.settle.ms_per_slot"),
];

/// Where the span files go, relative to the repository root.
const SPANS_DIR: &str = "perfbench/out";

fn phase_index(phase: Phase) -> usize {
    PHASES.iter().position(|(p, ..)| *p == phase).expect("every phase is listed")
}

/// One timed interval. Times are nanoseconds since the run started.
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    /// The slot the span belongs to; spans of one slot share it.
    slot: usize,
    start_ns: u64,
    end_ns: u64,
    /// Items the span processed (requests served, streams live…), if any.
    items: Option<u64>,
}

/// The run's in-memory span log.
struct SpanLog {
    t0: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    fn push(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        slot: usize,
        start_ns: u64,
        end_ns: u64,
        items: Option<u64>,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span { id, parent, name, slot, start_ns, end_ns, items });
        id
    }

    /// Time `f` as a span named `name`.
    fn time<T>(
        &mut self,
        parent: u64,
        name: &'static str,
        slot: usize,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let (a, b) = (self.ns(start), self.ns(end));
        self.push(Some(parent), name, slot, a, b, None);
        (out, b - a)
    }

    fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let items = s.items.map_or("null".to_string(), |n| n.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"slot\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"items\": {items}}}",
                s.id, s.name, s.slot, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Phase durations handed over by the simulation, drained after each step.
type PhaseInbox = Arc<Mutex<Vec<(Phase, u64)>>>;

/// The benchmark's phase observer: it only collects durations; the
/// stepping loop turns them into spans outside the timed step.
struct PhaseSpans(PhaseInbox);

impl SlotObserver for PhaseSpans {
    fn wants_phases(&self) -> bool {
        true
    }

    fn on_phase(&mut self, _slot: usize, phase: Phase, nanos: u64) {
        self.0.lock().expect("phase inbox").push((phase, nanos));
    }
}

/// Totals the traced episodes accumulate.
#[derive(Default)]
struct PhaseTotals {
    slots: u64,
    step_ns: u64,
    phase_ns: [u64; 7],
    /// Steps whose phases add up to more than the step itself.
    overrun_steps: u64,
}

/// Totals of the direct per-layer calls.
#[derive(Default)]
struct LayerTotals {
    slots: u64,
    live_advance_ns: u64,
    synth_ns: u64,
    synth_requests: u64,
    expected_busy_ns: u64,
    serve_ns: u64,
    served: u64,
    tier_step_ns: u64,
    end_slot_ns: u64,
    predict_bands_ns: u64,
    cache_hit_ratio: f64,
}

/// The traced run. Returns the per-layer metrics (without the process
/// counters, which the caller adds), attempted and failed steps.
pub fn traced_run(
    args: &Args,
    width: usize,
    checker: &mut Checker,
) -> Result<(Vec<Metric>, u64, u64), String> {
    let kind = args.kind;
    let mut scratch = SlotScratch::new();
    let mut log = SpanLog { t0: Instant::now(), spans: Vec::new() };

    let mut ready = set_up(kind, args.seed, &mut scratch, checker)?;
    let mut materialize_s = vec![ready.materialize_s];
    while materialize_s.len() < MIN_SETUPS {
        drop(ready);
        ready = set_up(kind, args.seed, &mut scratch, checker)?;
        materialize_s.push(ready.materialize_s);
    }

    let inbox: PhaseInbox = Arc::default();
    let mut totals = PhaseTotals::default();
    let (mut untraced_s, mut untraced_slots) = (0.0, 0u64);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut last: Option<Episode> = None;
    let t0 = Instant::now();
    let mut n = 0;
    while more_episodes(totals.slots as usize, n, t0.elapsed().as_secs_f64(), args.seconds) {
        ready = ready.renewed(&mut scratch)?;
        let plain = run_episode(&mut ready, &mut scratch, Vec::new(), false, |_, _, _| {})?;
        untraced_s += plain.step_s.iter().sum::<f64>();
        untraced_slots += plain.step_s.len() as u64;
        ready = ready.renewed(&mut scratch)?;
        let observer: Box<dyn SlotObserver + Send> = Box::new(PhaseSpans(inbox.clone()));
        let traced =
            run_episode(&mut ready, &mut scratch, vec![observer], false, |slot, start, end| {
                let phases = std::mem::take(&mut *inbox.lock().expect("phase inbox"));
                let (a, b) = (log.ns(start), log.ns(end));
                let step = log.push(None, "core.step", slot, a, b, None);
                let mut at = a;
                for (phase, nanos) in phases {
                    let i = phase_index(phase);
                    log.push(Some(step), PHASES[i].1, slot, at, at + nanos, None);
                    totals.phase_ns[i] += nanos;
                    at += nanos;
                }
                totals.overrun_steps += u64::from(at > b);
                totals.step_ns += b - a;
                totals.slots += 1;
            })?;
        for (what, ep) in [("untraced", &plain), ("traced", &traced)] {
            attempted += ep.step_s.len() as u64;
            if !checker.check(&format!("{what} episode {n}"), &ep.result) {
                failed += ep.step_s.len() as u64;
            }
        }
        last = Some(traced);
        n += 1;
    }
    let traced = last.expect("an episode ran");

    // The audited episode: every conservation invariant, every slot.
    ready = ready.renewed(&mut scratch)?;
    let audited = run_episode(&mut ready, &mut scratch, Vec::new(), true, |_, _, _| {})?;
    checker.check("audited episode", &audited.result);
    let audit = audited.audit.as_ref().expect("audit requested");
    if !audit.is_clean() {
        let first: Vec<String> = audit.violations.iter().take(10).map(|v| v.render()).collect();
        checker.failures.push(format!("{}\n  {}", audit.summary(), first.join("\n  ")));
    }

    let layers = layer_pass(&ready, &traced, &mut log);

    // Sanity of the trace itself.
    let phase_sum: u64 = totals.phase_ns.iter().sum();
    let coverage = phase_sum as f64 / totals.step_ns as f64;
    if totals.overrun_steps > 0 || coverage < 0.9 {
        checker.failures.push(format!(
            "phase spans do not account for the step spans: coverage {coverage:.3}, \
             {} steps overrun",
            totals.overrun_steps
        ));
    }
    let per_slot_ms = |ns: u64| ns as f64 / 1e6 / totals.slots as f64;
    let step_ms = per_slot_ms(totals.step_ns);
    let phase_ms: Vec<f64> = totals.phase_ns.iter().map(|&ns| per_slot_ms(ns)).collect();
    let l = &layers;
    let slot_us = |ns: u64| ns as f64 / 1e3 / l.slots as f64;
    let synth_ms = l.synth_ns as f64 / 1e6 / l.slots as f64;
    let serve_ms = l.serve_ns as f64 / 1e6 / l.slots as f64;
    eprintln!(
        "trace: {} traced slots, phases cover {:.1} % of the step; step {step_ms:.3} ms = {}",
        totals.slots,
        coverage * 100.0,
        PHASES
            .iter()
            .zip(&phase_ms)
            .map(|((_, name, _), ms)| format!("{name} {:.1} %", ms / step_ms * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    );
    eprintln!(
        "layers: synthesis {synth_ms:.3} ms/slot, serve {serve_ms:.3} ms/slot, tier_step {:.3} \
         ms/slot, end_slot {:.3} ms/slot",
        slot_us(l.tier_step_ns) / 1e3,
        slot_us(l.end_slot_ns) / 1e3
    );
    if let Some(why) = dominant_layer_mismatch(kind, &phase_ms, step_ms, synth_ms + serve_ms, l) {
        checker.failures.push(format!("{kind}: trace does not show its dominant layer: {why}"));
    }

    let path = format!("{SPANS_DIR}/spans-{kind}-seed{}.jsonl", args.seed);
    std::fs::create_dir_all(SPANS_DIR).map_err(|e| format!("{SPANS_DIR}: {e}"))?;
    std::fs::write(&path, log.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("trace: {} spans written to {path}", log.spans.len());

    let untraced_ms = untraced_s * 1e3 / untraced_slots as f64;
    let c = &traced.counts;
    if c.residual_units != 0 {
        checker.failures.push(format!("matcher residual of {} units", c.residual_units));
    }
    let (accepted, offered) = traced.admission.unwrap_or((1, 1));
    let mut metrics: Vec<Metric> = PHASES
        .iter()
        .zip(&phase_ms)
        .map(|(&(_, _, name), &ms)| Metric { name, unit: "ms", value: ms })
        .collect();
    metrics.extend([
        Metric { name: "core.step.ms_per_slot", unit: "ms", value: step_ms },
        Metric { name: "trace.overhead_ratio", unit: "ratio", value: step_ms / untraced_ms },
        Metric {
            name: "core.admission.accept_ratio",
            unit: "ratio",
            value: accepted as f64 / offered.max(1) as f64,
        },
        Metric {
            name: "core.execute.batch_bytes_ratio",
            unit: "ratio",
            value: c.executed_batch_bytes as f64 / c.requested_batch_bytes.max(1) as f64,
        },
        Metric {
            name: "core.pending_jobs_mean",
            unit: "count",
            value: c.pending_jobs as f64 / c.slots as f64,
        },
        Metric { name: "core.plan.residual_units", unit: "count", value: c.residual_units as f64 },
        Metric {
            name: "core.world.materialize_ms",
            unit: "ms",
            value: median(&materialize_s) * 1e3,
        },
        Metric {
            name: "workload.live_advance_us_per_slot",
            unit: "us",
            value: slot_us(l.live_advance_ns),
        },
        Metric {
            name: "workload.synth_ns_per_request",
            unit: "ns",
            value: l.synth_ns as f64 / l.synth_requests.max(1) as f64,
        },
        Metric {
            name: "workload.expected_busy_us_per_slot",
            unit: "us",
            value: slot_us(l.expected_busy_ns),
        },
        Metric {
            name: "workload.requests_per_slot",
            unit: "count",
            value: c.requests as f64 / c.slots as f64,
        },
        Metric {
            name: "storage.serve_ns_per_request",
            unit: "ns",
            value: l.serve_ns as f64 / l.served.max(1) as f64,
        },
        Metric { name: "storage.cache_hit_ratio", unit: "ratio", value: l.cache_hit_ratio },
        Metric {
            name: "storage.tier_step_us_per_slot",
            unit: "us",
            value: slot_us(l.tier_step_ns),
        },
        Metric { name: "storage.end_slot_us", unit: "us", value: slot_us(l.end_slot_ns) },
        Metric {
            name: "energy.predict_bands_us_per_slot",
            unit: "us",
            value: slot_us(l.predict_bands_ns),
        },
        Metric { name: "pool.width", unit: "count", value: width as f64 },
    ]);
    Ok((metrics, attempted, failed))
}

/// Why the trace fails to show `kind`'s intended dominant layer, if it
/// does: serving on week-replay, synthesis plus serving on mega-service,
/// the tier classifier on geo-archive.
fn dominant_layer_mismatch(
    kind: Kind,
    phase_ms: &[f64],
    step_ms: f64,
    synth_serve_ms: f64,
    layers: &LayerTotals,
) -> Option<String> {
    let largest = (0..phase_ms.len()).max_by(|&a, &b| phase_ms[a].total_cmp(&phase_ms[b]))?;
    let largest_name = PHASES[largest].1;
    let (want, ok) = match kind {
        Kind::WeekReplay => ("core.execute", largest_name == "core.execute"),
        Kind::MegaService => (
            "core.execute, with synthesis + serving over half the step",
            largest_name == "core.execute" && synth_serve_ms > 0.5 * step_ms,
        ),
        Kind::GeoArchive => (
            "core.classify, with tier_step above serving",
            largest_name == "core.classify" && layers.tier_step_ns > layers.serve_ns,
        ),
    };
    (!ok).then(|| {
        format!(
            "want {want}; largest phase is {largest_name}, synthesis + serving {synth_serve_ms:.3} \
             of {step_ms:.3} ms/slot"
        )
    })
}

/// Direct calls into gm-workload, gm-storage and gm-energy over every slot
/// of the run's horizon, each call a span under one `layers.slot` span.
/// The cluster follows the simulation of `episode`: tiering only if the
/// workload has it, the home gear level of each slot, and in each slot as
/// many of the oldest in-flight migrations completed as the episode
/// completed. The storage calls run in phase order: `tier_step`
/// (Classify), `serve_request` (Execute), `end_slot` (Settle).
fn layer_pass(ready: &Prepared, episode: &Episode, log: &mut SpanLog) -> LayerTotals {
    let cfg = &ready.cfg;
    let (clock, workload) = (cfg.clock, &ready.world.workload);
    let generator = workload.interactive();
    let disk = &cfg.cluster.disk;
    let positioning_s = disk.avg_seek.as_secs_f64() + disk.avg_rotation.as_secs_f64();
    let secs_per_byte = 1.0 / disk.transfer_bps;
    let hours = clock.width().as_secs_f64() / 3600.0;

    let mut cluster = Cluster::from_layout(ready.world.layout().clone());
    cluster.set_slot_width(clock.width());
    if let Some(t) = cfg.tiering {
        cluster.enable_tiering(t.ewma, t.cold_fraction_target, t.ec_k, t.ec_m);
    }
    // Migrations spawned and not yet completed, oldest first: (objects, demote).
    let mut in_flight: VecDeque<(Vec<u32>, bool)> = VecDeque::new();
    let mut forecaster =
        NoisyOracle::new((**ready.world.green_trace()).clone(), 0.3, &RngFactory::new(cfg.seed));
    let (mut point, mut lower, mut upper) = (Vec::new(), Vec::new(), Vec::new());
    let mut cursor = LiveCursor::new();
    let mut t = LayerTotals::default();

    for slot in 0..cfg.slots {
        let start = Instant::now();
        let parent = log.push(None, "layers.slot", slot, log.ns(start), 0, None);

        let (_, ns) = log.time(parent, "workload.live_advance", slot, || {
            black_box(cursor.advance_to(generator, clock, slot).len())
        });
        t.live_advance_ns += ns;
        let (requests, ns) = log.time(parent, "workload.synthesize", slot, || {
            black_box(workload.requests_in_slot(clock, slot)).len()
        });
        log.spans.last_mut().expect("just pushed").items = Some(requests as u64);
        t.synth_ns += ns;
        t.synth_requests += requests as u64;
        let (_, ns) = log.time(parent, "workload.expected_busy", slot, || {
            black_box(generator.expected_busy_secs_in_slot(
                clock,
                slot,
                positioning_s,
                secs_per_byte,
            ))
        });
        t.expected_busy_ns += ns;
        let (_, ns) = log.time(parent, "energy.predict_bands", slot, || {
            forecaster.predict_bands_into(
                slot,
                DEFAULT_HORIZON,
                0.9,
                &mut point,
                &mut lower,
                &mut upper,
            );
            black_box(&lower);
        });
        t.predict_bands_ns += ns;

        if let Some(tiering) = cfg.tiering {
            let (step, ns) = log.time(parent, "storage.tier_step", slot, || {
                cluster.tier_step(hours, tiering.max_migrations_per_slot)
            });
            t.tier_step_ns += ns;
            for (objs, demote) in [(step.demote, true), (step.promote, false)] {
                if !objs.is_empty() {
                    in_flight.push_back((objs, demote));
                }
            }
        }

        let batch = workload.slot_batch(clock, slot);
        cluster.set_active_gears(episode.gears[slot], clock.slot_start(slot));
        let (_, ns) = log.time(parent, "storage.serve", slot, || {
            for i in 0..batch.len() {
                black_box(cluster.serve_request(&batch.request(i)));
            }
        });
        log.spans.last_mut().expect("just pushed").items = Some(batch.len() as u64);
        t.serve_ns += ns;
        t.served += batch.len() as u64;

        let (_, ns) = log.time(parent, "storage.end_slot", slot, || {
            black_box(cluster.end_slot(clock.slot_end(slot), clock.width()))
        });
        t.end_slot_ns += ns;
        for _ in 0..episode.migrations_completed[slot] {
            let Some((objs, demote)) = in_flight.pop_front() else { break };
            cluster.complete_migration(&objs, demote);
        }

        let end = log.ns(Instant::now());
        log.spans[parent as usize - 1].end_ns = end;
        t.slots += 1;
    }
    t.cache_hit_ratio = cluster.cache().hit_ratio();
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_serialise_one_json_object_per_line() {
        let mut log = SpanLog { t0: Instant::now(), spans: Vec::new() };
        let step = log.push(None, "core.step", 3, 10, 50, None);
        log.push(Some(step), "core.plan", 3, 10, 20, Some(7));
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\": null") && lines[0].contains("\"slot\": 3"));
        assert!(lines[1].contains("\"parent\": 1") && lines[1].contains("\"items\": 7"));
    }
}

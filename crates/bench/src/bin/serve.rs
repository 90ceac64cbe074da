//! gm-serve — long-lived service mode: stream admission control with
//! per-slot decision latency.
//!
//! Where `run_once` replays a pre-materialised workload through a
//! pre-loaded [`gm_workload::EventFeed`], `serve` drives the simulation the
//! way a real control plane would: a producer thread pushes each slot's
//! arrivals into an external feed, and the simulation's classify phase
//! blocks on it — a slow producer delays the clock instead of dropping
//! work. Every job faces the α-confidence admission gate before it can
//! reach the matcher.
//!
//! ```text
//! gm-serve --preset mega                       # 1M+ requests per slot
//! gm-serve --preset small --slots 48 --verify  # pin external feed == replay
//! gm-serve --preset mega --alpha 0.99 --forecast ewma --out serve.json
//! ```
//!
//! The headline output is the **decision latency** distribution: the
//! wall-clock cost of one full slot decision (feed drain, gate, forecast,
//! matcher, execution bookkeeping) at service scale, summarised as
//! p50/p99/max in the [`ServeReport`]. `--preset mega` additionally
//! raises the interactive request rate (default ×35, see `--rate`) so a
//! simulated slot carries over a million requests — the scale claim the
//! report's `requests_per_slot` field substantiates.
//!
//! `--verify` runs the identical scenario over the self-driving replay feed
//! and asserts the two reports are byte-identical JSON — the producer
//! thread provably changes nothing but who delivers the arrivals. `--audit` runs the
//! conservation auditor alongside.

use gm_sim::LogHistogram;
use greenmatch::config::{AdmissionConfig, ExperimentConfig, ForecastKind};
use greenmatch::report::{AdmissionReport, RunReport};
use greenmatch::simulation::Simulation;
use serde::Serialize;
use std::time::Instant;

fn usage() -> ! {
    eprintln!(
        "usage: gm-serve [--preset small|medium|mega] [--slots N] [--alpha A] \
         [--defer-slots N] [--forecast oracle|persistence|ewma|noisy] [--rate K] \
         [--seed N] [--no-admission] [--out FILE] [--verify] [--audit]\n\
         defaults: mega preset, 24 slots, alpha 0.9, noisy forecast (cv 0.3),\n\
         rate x35 on mega (x1 elsewhere)"
    );
    std::process::exit(2)
}

/// Latency summary of the per-slot decision loop.
#[derive(Serialize)]
struct DecisionLatency {
    count: u64,
    mean_s: f64,
    p50_s: f64,
    p99_s: f64,
    max_s: f64,
}

/// What `gm-serve` archives: service-scale throughput plus the decision
/// latency distribution, alongside the admission gate's totals.
#[derive(Serialize)]
struct ServeReport {
    preset: String,
    policy: String,
    forecast: String,
    alpha: Option<f64>,
    slots: usize,
    /// Interactive requests served over the run.
    requests: u64,
    /// Mean interactive requests per simulated slot — the scale claim.
    requests_per_slot: f64,
    /// Batch jobs offered through the feed.
    jobs_offered: u64,
    /// Wall-clock of the serve loop (s).
    wall_s: f64,
    /// Simulated slots per wall-clock second.
    slots_per_s: f64,
    decision_latency: DecisionLatency,
    admission: Option<AdmissionReport>,
    brown_kwh: f64,
    green_coverage: f64,
    deadline_miss_rate: f64,
}

fn main() {
    let mut preset = "mega".to_string();
    let mut slots: Option<usize> = None;
    let mut alpha = 0.9f64;
    let mut defer_slots = 4usize;
    let mut forecast = "noisy".to_string();
    let mut rate: Option<f64> = None;
    let mut seed = 42u64;
    let mut admission_on = true;
    let mut out: Option<String> = None;
    let mut verify = false;
    let mut audit = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--preset" => preset = args.next().unwrap_or_else(|| usage()),
            "--slots" => slots = args.next().and_then(|s| s.parse().ok()).or_else(|| usage()),
            "--alpha" => {
                alpha = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--defer-slots" => {
                defer_slots = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--forecast" => forecast = args.next().unwrap_or_else(|| usage()),
            "--rate" => rate = args.next().and_then(|s| s.parse().ok()).or_else(|| usage()),
            "--seed" => seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()),
            "--no-admission" => admission_on = false,
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--verify" => verify = true,
            "--audit" => audit = true,
            _ => usage(),
        }
    }

    let mut cfg = match preset.as_str() {
        "small" => ExperimentConfig::small_demo(seed),
        "medium" => ExperimentConfig::medium(seed),
        "mega" => ExperimentConfig::mega(seed),
        _ => usage(),
    };
    // Service scale: the mega preset's million streams carry ~42k
    // requests per hourly slot; the rate multiplier pushes a slot past
    // one million requests by default.
    let rate = rate.unwrap_or(if preset == "mega" { 35.0 } else { 1.0 });
    if rate != 1.0 {
        cfg.workload.interactive.rate_rps *= rate;
    }
    if let Some(n) = slots {
        cfg.slots = n;
    } else if preset == "mega" {
        cfg.slots = 24;
    }
    cfg = cfg.with_forecast(match forecast.as_str() {
        "oracle" => ForecastKind::Oracle,
        "persistence" => ForecastKind::Persistence,
        "ewma" => ForecastKind::Ewma { alpha: 0.3 },
        "noisy" => ForecastKind::Noisy { cv: 0.3 },
        _ => usage(),
    });
    if admission_on {
        cfg = cfg.with_admission(AdmissionConfig { alpha, defer_slots });
    }

    // Materialise the world once; the producer thread walks the same
    // workload the simulation was built over, so the feed offers exactly
    // the batch population, slot by slot.
    let world = greenmatch::world::World::try_materialize(&cfg).unwrap_or_else(|e| panic!("{e}"));
    let workload = world.workload.clone();
    let jobs_offered = workload.batch_jobs().len() as u64;

    let (feed_tx, feed) = gm_workload::EventFeed::new();
    let clock = cfg.clock;
    let total_slots = cfg.slots;
    let producer = std::thread::spawn(move || {
        let mut tx = feed_tx;
        for slot in 0..total_slots {
            if !tx.send_slot(slot, workload.batch_arrivals_in_slot(clock, slot)) {
                return; // consumer gone; stop producing
            }
        }
    });

    let mut builder = Simulation::builder(&cfg).world(world).feed(feed);
    let mut audit_handle = None;
    if audit {
        let (auditor, handle) = greenmatch::ConservationAuditor::new();
        builder = builder.observer(Box::new(auditor));
        audit_handle = Some(handle);
    }
    let mut sim = builder.build().unwrap_or_else(|e| panic!("{e}"));

    eprintln!(
        "serving {} slots of the {} preset ({} policy, {} forecast, gate {})...",
        cfg.slots,
        preset,
        cfg.policy.label(),
        forecast,
        if admission_on { format!("α={alpha}") } else { "off".to_string() }
    );

    let mut decision_hist = LogHistogram::for_latency_secs();
    let mut requests = 0u64;
    let t0 = Instant::now();
    loop {
        let t = Instant::now();
        let Some(outcome) = sim.step() else { break };
        decision_hist.record(t.elapsed().as_secs_f64());
        requests += outcome.latency.count;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    producer.join().expect("producer thread");

    let audit_report = audit_handle.map(|handle| {
        let mut report =
            std::mem::take(&mut *handle.lock().expect("auditor handle is never poisoned"));
        report.merge(sim.post_run_audit());
        report
    });
    let report: RunReport = sim.into_report();

    let serve = ServeReport {
        preset,
        policy: report.policy.clone(),
        forecast,
        alpha: admission_on.then_some(alpha),
        slots: report.slots,
        requests,
        requests_per_slot: requests as f64 / report.slots.max(1) as f64,
        jobs_offered,
        wall_s,
        slots_per_s: report.slots as f64 / wall_s.max(1e-9),
        decision_latency: DecisionLatency {
            count: decision_hist.count(),
            mean_s: decision_hist.mean(),
            p50_s: decision_hist.quantile(0.5),
            p99_s: decision_hist.quantile(0.99),
            max_s: decision_hist.max(),
        },
        admission: report.admission.clone(),
        brown_kwh: report.brown_kwh,
        green_coverage: report.green_coverage,
        deadline_miss_rate: report.batch.miss_rate(),
    };

    println!("{report}");
    eprintln!(
        "service        : {:.0} requests/slot over {} slots ({:.1}s wall, {:.1} slots/s)",
        serve.requests_per_slot, serve.slots, serve.wall_s, serve.slots_per_s
    );
    eprintln!(
        "decision       : p50 {:.2} ms, p99 {:.2} ms, max {:.2} ms per slot",
        serve.decision_latency.p50_s * 1e3,
        serve.decision_latency.p99_s * 1e3,
        serve.decision_latency.max_s * 1e3
    );

    if let Some(path) = &out {
        let json = serde_json::to_string_pretty(&serve).expect("serve report serialises");
        std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("serve report written to {path}");
    }

    if verify {
        // The service seam's core contract: a run over the producer's feed
        // equals the self-driving replay of the same scenario byte for
        // byte.
        let replay = greenmatch::harness::run_experiment(&cfg);
        let a = serde_json::to_string(&report).expect("report serialises");
        let b = serde_json::to_string(&replay).expect("report serialises");
        if a == b {
            eprintln!("verify         : external feed == replay (byte-identical reports)");
        } else {
            eprintln!("verify         : FAILED — external feed run diverged from the replay");
            std::process::exit(1);
        }
    }

    if let Some(audit_report) = audit_report {
        eprintln!("{}", audit_report.summary());
        if !audit_report.is_clean() {
            for v in audit_report.violations.iter().take(20) {
                eprintln!("  {}", v.render());
            }
            std::process::exit(1);
        }
    }
}

//! Run a single experiment from a JSON config file (or a built-in preset)
//! and print the report; optionally archive the full report as JSON.
//!
//! ```text
//! run_once --preset medium --policy greenmatch --out report.json
//! run_once --config my_experiment.json
//! run_once --preset small --describe-workload
//! run_once --preset medium --trace trace.jsonl --profile
//! ```
//!
//! `--trace FILE` attaches a [`JsonlTraceObserver`] and writes one JSON
//! record per slot (deterministic: same seed ⇒ byte-identical file);
//! `--csv FILE` writes the key per-slot series as CSV; `--profile` prints
//! per-phase wall-clock after the run. None of these change the report.
//! A write error on the trace or CSV file does not stop the run: it is
//! reported when the run ends (after the report, or at a `--halt-after`
//! stop), and `run_once` exits 1.
//!
//! `--audit` runs the whole simulation under the conservation auditor
//! (per-slot invariant checks plus the post-run deep audit), prints any
//! violations, and exits 1 if the run was not clean; `--audit-out FILE`
//! archives the audit report as JSON. Auditing never changes the report
//! or the trace either.
//!
//! `--checkpoint-every N` saves a resumable snapshot (atomic write) to
//! the `--checkpoint-file` every N slots; `--halt-after N` stops the run
//! right after saving a checkpoint at slot N, simulating a crash
//! deterministically. `--resume FILE` continues from such a snapshot —
//! without `--config`/`--preset` the snapshot's own config is used, and
//! `--trace`/`--csv` files are appended to (not truncated), so the
//! stitched output is byte-identical to an uninterrupted run. Combining
//! `--resume` with `--policy` branches the checkpoint into a what-if
//! continuation under the new policy.
//!
//! Config files use the same schema the experiment harness archives under
//! `results/configs/` — copy one of those and edit it.

use gm_sim::time::SimDuration;
use gm_workload::trace::Workload;
use greenmatch::config::ExperimentConfig;
use greenmatch::observe::{CsvSeriesObserver, JsonlTraceObserver, PhaseTimer};
use greenmatch::policy::PolicyKind;
use greenmatch::simulation::Simulation;

fn usage() -> ! {
    eprintln!(
        "usage: run_once [--config FILE | --preset small|medium|mega] [--policy NAME] \
         [--seed N] [--slots N] [--streams N] [--out FILE] [--trace FILE] [--csv FILE] \
         [--profile] [--audit] [--audit-out FILE] [--describe-workload] \
         [--checkpoint-every N] [--checkpoint-file FILE] [--halt-after N] [--resume FILE]\n\
         policies: all-on power-prop edf greedy-green greenmatch greenmatch30 greenmatch-carbon\n\
         --streams N re-spreads the interactive half over N sessions at the\n\
         same aggregate volume (mega preset = medium with --streams 1000000)"
    );
    std::process::exit(2)
}

fn parse_policy(name: &str) -> PolicyKind {
    match name {
        "all-on" => PolicyKind::AllOn,
        "power-prop" => PolicyKind::PowerProportional,
        "edf" => PolicyKind::Edf,
        "greedy-green" => PolicyKind::GreedyGreen,
        "greenmatch" => PolicyKind::GreenMatch { delay_fraction: 1.0 },
        "greenmatch30" => PolicyKind::GreenMatch { delay_fraction: 0.3 },
        "greenmatch-carbon" => PolicyKind::GreenMatchCarbon { delay_fraction: 1.0 },
        other => {
            eprintln!("unknown policy {other:?}");
            usage()
        }
    }
}

fn main() {
    let mut cfg: Option<ExperimentConfig> = None;
    let mut policy: Option<PolicyKind> = None;
    let mut seed: Option<u64> = None;
    let mut slots: Option<usize> = None;
    let mut streams: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut csv: Option<String> = None;
    let mut profile = false;
    let mut describe = false;
    let mut audit = false;
    let mut audit_out: Option<String> = None;
    let mut checkpoint_every: Option<usize> = None;
    let mut checkpoint_file = "checkpoint.json".to_string();
    let mut halt_after: Option<usize> = None;
    let mut resume: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--config" => {
                let path = args.next().unwrap_or_else(|| usage());
                let json = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
                cfg = Some(
                    serde_json::from_str(&json)
                        .unwrap_or_else(|e| panic!("bad config {path}: {e}")),
                );
            }
            "--preset" => {
                cfg = Some(match args.next().as_deref() {
                    Some("small") => ExperimentConfig::small_demo(42),
                    Some("medium") => ExperimentConfig::medium(42),
                    Some("mega") => ExperimentConfig::mega(42),
                    _ => usage(),
                });
            }
            "--policy" => policy = Some(parse_policy(&args.next().unwrap_or_else(|| usage()))),
            "--seed" => seed = args.next().and_then(|s| s.parse().ok()).or_else(|| usage()),
            "--slots" => slots = args.next().and_then(|s| s.parse().ok()).or_else(|| usage()),
            "--streams" => streams = args.next().and_then(|s| s.parse().ok()).or_else(|| usage()),
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--trace" => trace = Some(args.next().unwrap_or_else(|| usage())),
            "--csv" => csv = Some(args.next().unwrap_or_else(|| usage())),
            "--profile" => profile = true,
            "--audit" => audit = true,
            "--audit-out" => {
                audit = true;
                audit_out = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--describe-workload" => describe = true,
            "--checkpoint-every" => {
                checkpoint_every = args.next().and_then(|s| s.parse().ok()).or_else(|| usage())
            }
            "--checkpoint-file" => checkpoint_file = args.next().unwrap_or_else(|| usage()),
            "--halt-after" => {
                halt_after = args.next().and_then(|s| s.parse().ok()).or_else(|| usage())
            }
            "--resume" => resume = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }

    // A resumed run defaults to the checkpoint's own config; explicit
    // --config/--preset (plus the overrides below) branch it instead.
    let snapshot = resume.as_ref().map(|path| {
        greenmatch::Snapshot::load(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    });
    if cfg.is_none() {
        if let Some(snap) = &snapshot {
            cfg = Some(snap.cfg.clone());
        }
    }

    let mut cfg = cfg.unwrap_or_else(|| ExperimentConfig::small_demo(42));
    if let Some(p) = policy {
        cfg.policy = p;
    }
    if let Some(s) = seed {
        cfg.seed = s;
    }
    if let Some(n) = slots {
        cfg.slots = n;
    }
    if let Some(n) = streams {
        cfg.workload = cfg.workload.clone().with_interactive_streams(n);
    }

    if describe {
        let workload = Workload::generate(cfg.workload.clone(), cfg.seed);
        let stats = gm_workload::characterize(
            &workload,
            cfg.clock,
            cfg.slots,
            cfg.cluster.disk.transfer_bps,
        );
        let demand = gm_workload::stats::batch_demand_ratio(
            &workload,
            cfg.cluster.topology.n_disks(),
            cfg.cluster.disk.transfer_bps,
            SimDuration(cfg.clock.width().0 * cfg.slots as u64),
        );
        println!("workload characterisation (seed {}):", cfg.seed);
        println!(
            "  interactive: mean {:.1} req/s, peak/mean {:.2}",
            stats.interactive_rps.mean(),
            stats.interactive_peak_to_mean
        );
        println!(
            "  batch: {} jobs, mean size {:.1} GiB (σ {:.1}), slack mean {:.1} h (min {:.1})",
            stats.job_size.count,
            stats.job_size.mean / (1u64 << 30) as f64,
            stats.job_size.std_dev / (1u64 << 30) as f64,
            stats.slack_hours.mean,
            stats.slack_hours.min,
        );
        println!("  batch demand / sequential capacity: {:.3}", demand);
        return;
    }

    eprintln!("running {} slots with {} ...", cfg.slots, cfg.policy.label());
    // Observers must ride the builder (not `add_observer` after build) so
    // a resumed run delivers `on_resume` to them — that is what lets the
    // appended trace/CSV continue the original file without re-emitting
    // headers or restarting slot numbering.
    let mut builder = Simulation::builder(&cfg);
    if let Some(snap) = &snapshot {
        builder = builder.resume_from(snap);
    }
    let resuming = snapshot.is_some();
    // First I/O error of each file-writing observer, checked at exit.
    let mut write_errors = Vec::new();
    if let Some(path) = &trace {
        let obs = if resuming {
            JsonlTraceObserver::append(path)
        } else {
            JsonlTraceObserver::create(path)
        }
        .unwrap_or_else(|e| panic!("cannot open trace file {path}: {e}"));
        write_errors.push(("trace", path.clone(), obs.error_cell()));
        builder = builder.observer(Box::new(obs));
    }
    if let Some(path) = &csv {
        let obs = if resuming {
            CsvSeriesObserver::append(path)
        } else {
            CsvSeriesObserver::create(path)
        }
        .unwrap_or_else(|e| panic!("cannot open csv file {path}: {e}"));
        write_errors.push(("csv", path.clone(), obs.error_cell()));
        builder = builder.observer(Box::new(obs));
    }
    let mut profile_handle = None;
    if profile {
        let (timer, handle) = PhaseTimer::new();
        builder = builder.observer(Box::new(timer));
        profile_handle = Some(handle);
    }
    let mut audit_handle = None;
    if audit {
        // Step under the per-slot auditor, deep-audit, then report — the
        // stepwise path yields the identical report to `run_to_end`.
        let (auditor, handle) = greenmatch::ConservationAuditor::new();
        builder = builder.observer(Box::new(auditor));
        audit_handle = Some(handle);
    }

    let mut sim = builder.build().unwrap_or_else(|e| panic!("{e}"));
    if let Some(snap) = &snapshot {
        eprintln!("resumed at slot {} of {}", snap.cursor, cfg.slots);
    }

    let ck_path = std::path::PathBuf::from(&checkpoint_file);
    while sim.step().is_some() {
        let slot = sim.current_slot();
        let due = checkpoint_every.is_some_and(|n| n > 0 && slot.is_multiple_of(n))
            || halt_after == Some(slot);
        if due {
            sim.snapshot()
                .save(&ck_path)
                .unwrap_or_else(|e| panic!("cannot write checkpoint {}: {e}", ck_path.display()));
        }
        if halt_after == Some(slot) {
            eprintln!("halted at slot {slot}; checkpoint written to {}", ck_path.display());
            // Closing the run delivers `on_finish`, so the observers flush
            // (and keep any flush error) before the process stops; the
            // partial report itself is not wanted.
            let _ = sim.into_report();
            exit_on_write_error(&write_errors);
            return;
        }
    }
    let audit_report = audit_handle.map(|handle| {
        let mut report =
            std::mem::take(&mut *handle.lock().expect("auditor handle is never poisoned"));
        report.merge(sim.post_run_audit());
        report
    });
    let report = sim.into_report();
    println!("{report}");
    exit_on_write_error(&write_errors);
    if let Some(path) = &trace {
        eprintln!("per-slot trace written to {path}");
    }
    if let Some(path) = &csv {
        eprintln!("per-slot series written to {path}");
    }
    if let Some(handle) = profile_handle {
        eprintln!("phase profile: {}", handle.lock().unwrap().summary());
    }
    if let Some(path) = out {
        let json = serde_json::to_string_pretty(&report).expect("report serialises");
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("full report written to {path}");
    }
    if let Some(audit_report) = audit_report {
        if let Some(path) = audit_out {
            let json = serde_json::to_string_pretty(&audit_report).expect("audit serialises");
            std::fs::write(&path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("audit report written to {path}");
        }
        eprintln!("{}", audit_report.summary());
        if !audit_report.is_clean() {
            for v in audit_report.violations.iter().take(20) {
                eprintln!("  {}", v.render());
            }
            std::process::exit(1);
        }
    }
}

/// Report the first write error of each observer file and exit 1 if any
/// observer failed to write its output.
fn exit_on_write_error(cells: &[(&str, String, greenmatch::IoErrorCell)]) {
    let mut failed = false;
    for (what, path, cell) in cells {
        if let Some(e) = cell.get() {
            eprintln!("cannot write {what} file {path}: {e}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

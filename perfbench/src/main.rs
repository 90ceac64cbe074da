//! gm-perfbench — the repository benchmark.
//!
//! ```text
//! gm-perfbench --workload week-replay|mega-service|geo-archive \
//!              --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root. `--trace 0` measures the end-to-end
//! metrics with no observer asking for phase timings; `--trace 1` is the
//! separate traced run that reports per-layer metrics and writes its spans
//! to `perfbench/out/spans-<workload>-seed<seed>.jsonl`. Either way the
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `attempted` counts the timed `step()` calls and `failed` those whose
//! episode broke an output check.

mod episode;
mod layers;
mod outcome;
mod pins;
mod stats;
mod workloads;

use episode::{run_episode, set_up};
use greenmatch::phases::SlotScratch;
use outcome::Checker;
use stats::{median, quantile, ProcTimes};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Kind;

/// Timed steps a run collects at least, so at least ten lie beyond p90.
pub const MIN_STEPS: usize = 100;

pub struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = outcome::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args { kind, seed, seconds, trace })
}

/// Pin the process-wide `WorkPool` before anything starts it. The main
/// thread helps run every batch it submits, so one worker per core but
/// one keeps the busy threads at the core count (two on a 2-core host);
/// a wider pool leaves runnable threads queueing for a core. At width 1
/// the workload's auto-sharding picks one shard, so request synthesis
/// runs unsharded on the stepping thread; only per-site fan-out uses the
/// worker. Returns the width in use.
fn pin_pool() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    gm_sim::pool::set_max_workers(cores.saturating_sub(1).max(1));
    gm_sim::WorkPool::global().width()
}

/// One measured metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Set-ups a run makes at least; `setup_s` is their median.
pub const MIN_SETUPS: usize = 3;
/// Share of a run's episode time that set-ups between episodes take.
/// Host speed drifts over seconds, so set-ups spread through the run
/// sample the host over the same span as the step times; a burst of
/// set-ups at the start would sample only its first seconds.
const SETUP_SHARE: f64 = 0.2;

/// The end-to-end measurement: set up, then step whole episodes back to
/// back (see [`more_episodes`]), setting up again between episodes.
fn measure(args: &Args, checker: &mut Checker) -> Result<(Vec<Metric>, u64, u64), String> {
    let kind = args.kind;
    let mut scratch = SlotScratch::new();
    let mut ready = set_up(kind, args.seed, &mut scratch, checker)?;
    let mut setup_s = vec![ready.setup_s];

    let mut steps: Vec<f64> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let t0 = Instant::now();
    // Host time of the set-ups between episodes; the run's length leaves
    // it out.
    let mut setups_in_run = 0.0;
    let mut n = 0;
    while more_episodes(steps.len(), n, t0.elapsed().as_secs_f64() - setups_in_run, args.seconds) {
        // A cold world serves one episode; then set-ups catch up with
        // their share of the run. The previous world is freed first, so
        // peak RSS holds one world.
        let mut fresh = n > 0 && !kind.warm();
        while fresh || setups_in_run < SETUP_SHARE * (t0.elapsed().as_secs_f64() - setups_in_run) {
            let t = Instant::now();
            drop(ready);
            ready = set_up(kind, args.seed, &mut scratch, checker)?;
            setup_s.push(ready.setup_s);
            setups_in_run += t.elapsed().as_secs_f64();
            fresh = false;
        }
        let ep = run_episode(&mut ready, &mut scratch, Vec::new(), false, |_, _, _| {})?;
        attempted += ep.step_s.len() as u64;
        if !checker.check(&format!("episode {n}"), &ep.result) {
            failed += ep.step_s.len() as u64;
        }
        steps.extend_from_slice(&ep.step_s);
        n += 1;
    }
    while setup_s.len() < MIN_SETUPS {
        drop(ready);
        ready = set_up(kind, args.seed, &mut scratch, checker)?;
        setup_s.push(ready.setup_s);
    }
    eprintln!(
        "{kind}: {n} episodes, {} steps, {:.2}s stepping, setups {setup_s:?}",
        steps.len(),
        steps.iter().sum::<f64>(),
    );

    let result = checker.reference().expect("an episode ran").clone();
    let total: f64 = steps.iter().sum();
    steps.sort_by(f64::total_cmp);
    let metrics = vec![
        Metric { name: "setup_s", unit: "s", value: median(&setup_s) },
        Metric { name: "slots_per_s", unit: "1/s", value: steps.len() as f64 / total },
        Metric { name: "step_p50_ms", unit: "ms", value: quantile(&steps, 0.5) * 1e3 },
        Metric { name: "step_p90_ms", unit: "ms", value: quantile(&steps, 0.9) * 1e3 },
        Metric { name: "peak_rss_mb", unit: "MB", value: stats::peak_rss_mb() },
        Metric { name: "brown_kwh", unit: "kWh", value: result.brown_kwh },
        Metric { name: "deadline_met_ratio", unit: "ratio", value: result.deadline_met_ratio },
        Metric { name: "interactive_p99_ms", unit: "ms", value: result.interactive_p99_ms },
    ];
    Ok((metrics, attempted, failed))
}

/// Whether a run that has timed `steps` steps in `episodes` episodes,
/// `elapsed` seconds of episodes in all, starts another episode: until
/// `MIN_STEPS` steps are in, then while that brings the run nearer to
/// `seconds` (whole episodes only, so every run measures the same mix of
/// slots whatever the host speed).
pub fn more_episodes(steps: usize, episodes: usize, elapsed: f64, seconds: f64) -> bool {
    if steps < MIN_STEPS || episodes == 0 {
        return true;
    }
    elapsed + 0.5 * elapsed / (episodes as f64) < seconds
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
        let _ =
            write!(body, "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit);
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gm-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let width = pin_pool();
    let proc0 = ProcTimes::now();
    let wall0 = Instant::now();
    eprintln!(
        "gm-perfbench: workload {} seed {} for {}s, trace {}, pool width {width}",
        args.kind, args.seed, args.seconds, args.trace as u8
    );
    let mut checker = Checker::new(args.kind, args.seed);
    let measured = if args.trace {
        layers::traced_run(&args, width, &mut checker)
    } else {
        measure(&args, &mut checker)
    };
    let (mut metrics, attempted, failed) = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("gm-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall_s = wall0.elapsed().as_secs_f64();
    let proc = ProcTimes::now().since(proc0);
    let (cpu_ratio, runq_wait_ms) = (proc.cpu_s / wall_s, proc.runq_wait_s * 1e3);
    eprintln!(
        "proc {{\"wall_s\": {wall_s:.3}, \"cpu_ratio\": {cpu_ratio:.4}, \"runq_wait_ms\": {runq_wait_ms:.3}, \"pool_width\": {width}}}"
    );
    if args.trace {
        metrics.push(Metric { name: "proc.cpu_ratio", unit: "ratio", value: cpu_ratio });
        metrics.push(Metric { name: "proc.runq_wait_ms", unit: "ms", value: runq_wait_ms });
    }
    for f in &checker.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = checker.failures.is_empty() && attempted > 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

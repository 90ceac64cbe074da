//! Raw-sample statistics and process counters.
//!
//! Host-time metrics are computed from the sorted raw samples themselves:
//! no histogram buckets, no normalisation by a calibration loop.

/// The `q`-quantile of `sorted` (ascending), interpolating linearly
/// between the two nearest ranks.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// CPU time and run-queue wait of this process, summed over its threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcTimes {
    /// User + system CPU time (s).
    pub cpu_s: f64,
    /// Time runnable threads waited for a CPU (s).
    pub runq_wait_s: f64,
}

impl ProcTimes {
    /// Read `/proc/self/task/*/schedstat`. Threads that have exited are
    /// not counted, so sample around work done by live threads.
    pub fn now() -> ProcTimes {
        ProcTimes { cpu_s: sum_task_schedstat(0), runq_wait_s: sum_task_schedstat(1) }
    }

    pub fn since(self, start: ProcTimes) -> ProcTimes {
        ProcTimes {
            cpu_s: self.cpu_s - start.cpu_s,
            runq_wait_s: self.runq_wait_s - start.runq_wait_s,
        }
    }
}

/// Sum field `field` (0 = on-CPU ns, 1 = run-queue wait ns) of
/// `/proc/self/task/*/schedstat` over the live threads, in seconds.
fn sum_task_schedstat(field: usize) -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0.0 };
    let mut ns = 0u64;
    for task in tasks.flatten() {
        let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) else { continue };
        ns += text.split_whitespace().nth(field).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    }
    ns as f64 / 1e9
}

/// Peak resident set size of this process (MB), `VmHWM` in
/// `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert!((quantile(&s, 0.9) - 3.7).abs() < 1e-12);
    }
}

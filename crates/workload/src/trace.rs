//! Assembled workloads and trace import/export.
//!
//! A [`Workload`] is the pair (interactive generator, batch job list) built
//! from a [`WorkloadSpec`] and a master seed. The **medium-week preset**
//! mirrors the shape of the medium-private-cloud traces this literature
//! evaluates on; the **small preset** is the same shape scaled down for
//! tests and examples.
//!
//! Batch jobs can be exported to and re-imported from a simple CSV format
//! (one row per job), the substitution point for a user's real trace.

use crate::batch::{BatchGenerator, BatchSpec};
use crate::interactive::{InteractiveError, InteractiveGenerator, InteractiveSpec};
use crate::job::{BatchJob, BatchKind, JobId, JobState};
use gm_sim::pool::{Pending, Task};
use gm_sim::time::SimTime;
use gm_sim::{RngFactory, SlotClock, WorkPool};
use gm_storage::{IoRequest, RequestBatch};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Full workload parameterisation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Interactive half.
    pub interactive: InteractiveSpec,
    /// Batch half.
    pub batch: BatchSpec,
}

impl WorkloadSpec {
    /// The medium-DC non-holiday week (≈790 streams, ≈3150 batch jobs).
    pub fn medium_week(objects: usize) -> Self {
        WorkloadSpec {
            interactive: InteractiveSpec::medium_week(objects),
            batch: BatchSpec::medium_week(),
        }
    }

    /// A scaled-down week for tests and examples (~1/8 of medium).
    pub fn small_week(objects: usize) -> Self {
        let mut spec = WorkloadSpec::medium_week(objects);
        spec.interactive.streams = 100;
        spec.batch.jobs = 400;
        spec.batch.mean_bytes /= 4.0;
        spec
    }

    /// The mega preset: the medium week with its interactive half split
    /// across **one million** streams at constant aggregate request volume
    /// — the scale proof of the interval-indexed workload kernel. Memory:
    /// the population is ~32 MB of columns; synthesis cost per slot is
    /// proportional to *live* streams, not the population.
    pub fn mega_week(objects: usize) -> Self {
        WorkloadSpec::medium_week(objects).with_interactive_streams(1_000_000)
    }

    /// Re-spread the interactive half across `streams` sessions, scaling
    /// the per-stream rate inversely so the *aggregate* request volume (and
    /// thus the served byte volume) stays what the preset calibrated.
    pub fn with_interactive_streams(mut self, streams: usize) -> Self {
        assert!(streams > 0);
        let old = self.interactive.streams as f64;
        self.interactive.rate_rps *= old / streams as f64;
        self.interactive.streams = streams;
        self
    }

    /// Scale both halves' volume by `k` (streams and jobs), keeping shapes.
    pub fn scaled(mut self, k: f64) -> Self {
        assert!(k > 0.0);
        self.interactive.streams = ((self.interactive.streams as f64 * k).round() as usize).max(1);
        self.batch.jobs = ((self.batch.jobs as f64 * k).round() as usize).max(1);
        self
    }
}

/// Why a [`WorkloadSpec`] could not be turned into a [`Workload`].
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// A spec field lies outside its domain.
    Invalid {
        /// The field, e.g. `interactive.zipf_s`.
        field: &'static str,
        /// Its value.
        value: f64,
        /// The domain it must lie in.
        expected: &'static str,
    },
    /// The interactive population could not be drawn.
    Interactive(InteractiveError),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Invalid { field, value, expected } => {
                write!(f, "workload spec: {field} = {value}, expected {expected}")
            }
            WorkloadError::Interactive(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl WorkloadSpec {
    /// Check every field a build or a slot's synthesis would otherwise
    /// trip over with a panic (non-finite or out-of-range rates, sizes,
    /// shares and exponents). Whether `interactive.objects` fits the
    /// cluster is the caller's check: the spec does not know the cluster.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let (i, b) = (&self.interactive, &self.batch);
        let finite_nonneg = |x: f64| x.is_finite() && x >= 0.0;
        let finite_pos = |x: f64| x.is_finite() && x > 0.0;
        let unit = |x: f64| (0.0..=1.0).contains(&x);
        let checks: [(&'static str, f64, bool, &'static str); 10] = [
            ("interactive.zipf_s", i.zipf_s, finite_nonneg(i.zipf_s), "a finite value >= 0"),
            ("interactive.size_cv", i.size_cv, finite_nonneg(i.size_cv), "a finite value >= 0"),
            (
                "interactive.mean_size_bytes",
                i.mean_size_bytes,
                finite_pos(i.mean_size_bytes),
                "a finite value > 0",
            ),
            ("interactive.rate_rps", i.rate_rps, finite_nonneg(i.rate_rps), "a finite value >= 0"),
            (
                "interactive.read_fraction",
                i.read_fraction,
                unit(i.read_fraction),
                "a value in [0, 1]",
            ),
            (
                "interactive.diurnal_amplitude",
                i.diurnal_amplitude,
                unit(i.diurnal_amplitude),
                "a value in [0, 1]",
            ),
            (
                "interactive.objects",
                i.objects as f64,
                (1..=u32::MAX as usize).contains(&i.objects),
                "a count in [1, 2^32 - 1]",
            ),
            ("batch.jobs", b.jobs as f64, b.jobs >= 1, "at least 1"),
            ("batch.mean_bytes", b.mean_bytes, finite_pos(b.mean_bytes), "a finite value > 0"),
            ("batch.size_cv", b.size_cv, finite_nonneg(b.size_cv), "a finite value >= 0"),
        ];
        match checks.into_iter().find(|&(_, _, ok, _)| !ok) {
            Some((field, value, _, expected)) => {
                Err(WorkloadError::Invalid { field, value, expected })
            }
            None => Ok(()),
        }
    }
}

/// Live-set size below which a slot is synthesised as one shard: the
/// fan-out overhead (task boxing + result stitching) outweighs the split.
const SHARD_THRESHOLD: usize = 8_192;
/// Live streams per shard above the threshold. Fixed, so the shard count
/// depends on the live-set size only, never on the pool width.
const STREAMS_PER_SHARD: usize = 2_048;

/// A generated workload.
pub struct Workload {
    spec: WorkloadSpec,
    /// `Arc` so shard tasks borrow the generator without copying the
    /// (potentially tens of MB) stream columns.
    interactive: Arc<InteractiveGenerator>,
    batch_jobs: Vec<BatchJob>,
    /// Memoised columnar slot batches, keyed by `(slot width, slot)` —
    /// the two inputs of request synthesis beyond the workload itself, so
    /// shared-world sweeps synthesise each slot's requests once.
    slot_batches: Mutex<HashMap<(u64, usize), SlotBatchCell>>,
}

/// One memo slot, `Arc` so a batch is filled without the map lock.
type SlotBatchCell = Arc<OnceLock<Arc<RequestBatch>>>;

/// One slot's batch in flight on the [`WorkPool`]. Dropped unfinished, it
/// discards the shards no thread has started, waits for the others and
/// leaves the memo untouched.
#[must_use = "an unfinished slot batch is discarded"]
pub struct PendingSlotBatch {
    cell: SlotBatchCell,
    shards: ShardRows,
}

impl PendingSlotBatch {
    /// Join the shards (running any still queued on this thread), then
    /// order, gather and memoise the batch. If another caller filled the
    /// memo first, its identical batch is returned instead.
    pub fn finish(self) -> Arc<RequestBatch> {
        let PendingSlotBatch { cell, shards } = self;
        Arc::clone(cell.get_or_init(|| {
            let (order, rows) = shards.join();
            Arc::new(RequestBatch::gather(&rows, &order))
        }))
    }
}

/// Pool tasks synthesising one slot's rows, one buffer per shard.
///
/// **Shard-invariant by construction**: each stream's requests come from
/// its own `(stream, slot)`-keyed RNG, shards cover disjoint contiguous
/// ranges of the ascending live list, and results are stitched by shard
/// index, so the rows are the same for every shard count and thread count
/// (a property test pins this).
struct ShardRows {
    parts: Arc<[Mutex<Vec<IoRequest>>]>,
    pending: Pending<'static>,
}

impl ShardRows {
    /// The permutation [`arrival_order`] that puts the rows in slot order
    /// (ties keep stream order), and the rows in stream order: the first
    /// shard's buffer, grown once to the total, then each other shard's
    /// appended and freed.
    fn join(self) -> (Vec<u32>, Vec<IoRequest>) {
        self.pending.join();
        let mut parts = self.parts.iter().map(|p| std::mem::take(&mut *p.lock().expect("shard")));
        let mut rows = parts.next().unwrap_or_default();
        rows.reserve_exact(self.parts.iter().map(|p| p.lock().expect("shard").len()).sum());
        parts.for_each(|part| rows.extend_from_slice(&part));
        (arrival_order(&rows), rows)
    }

    /// [`Self::join`] gathered into a `Vec` in slot order.
    fn join_ordered(self) -> Vec<IoRequest> {
        let (order, rows) = self.join();
        order.iter().map(|&i| rows[i as usize]).collect()
    }
}

impl Workload {
    /// Build from a spec and master seed, panicking where
    /// [`Self::try_generate`] returns an error.
    pub fn generate(spec: WorkloadSpec, seed: u64) -> Self {
        Self::try_generate(spec, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build from a spec and master seed. The spec is checked
    /// ([`WorkloadSpec::validate`]) before anything is drawn; a population
    /// whose diurnal thinning stalls is reported too.
    pub fn try_generate(spec: WorkloadSpec, seed: u64) -> Result<Self, WorkloadError> {
        spec.validate()?;
        let rngs = RngFactory::new(seed);
        let interactive = InteractiveGenerator::try_new(spec.interactive.clone(), &rngs)
            .map_err(WorkloadError::Interactive)?;
        let batch_jobs = BatchGenerator::new(spec.batch.clone()).generate(&rngs);
        Ok(Workload {
            spec,
            interactive: Arc::new(interactive),
            batch_jobs,
            slot_batches: Mutex::new(HashMap::new()),
        })
    }

    /// The spec.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The interactive generator.
    pub fn interactive(&self) -> &InteractiveGenerator {
        &self.interactive
    }

    /// The batch job population (submission-ordered).
    pub fn batch_jobs(&self) -> &[BatchJob] {
        &self.batch_jobs
    }

    /// The stateless live set of `slot` (ascending stream indices).
    fn live_streams(&self, clock: SlotClock, slot: usize) -> Vec<u32> {
        let mut live = Vec::new();
        self.interactive.live_streams_in_slot(clock, slot, &mut live);
        live
    }

    /// Queue the synthesis of the `live` streams' requests in `slot` as
    /// pool tasks over contiguous ranges of one shared copy of the live
    /// list: `shards` of them, or by default one per [`STREAMS_PER_SHARD`]
    /// streams from [`SHARD_THRESHOLD`] up.
    fn submit_shards(
        &self,
        clock: SlotClock,
        slot: usize,
        live: &[u32],
        shards: Option<usize>,
    ) -> ShardRows {
        let live: Arc<[u32]> = live.into();
        let chunk = match shards {
            Some(n) => live.len().div_ceil(n.max(1)),
            None if live.len() < SHARD_THRESHOLD => live.len(),
            None => STREAMS_PER_SHARD,
        };
        let n = live.len().div_ceil(chunk.max(1));
        // Allocated on this thread so that workers grow them in its malloc
        // arena; arenas of their own kept ~9 MB more resident (mega-service).
        let parts: Arc<[Mutex<Vec<IoRequest>>]> =
            (0..n).map(|_| Mutex::new(Vec::with_capacity(chunk))).collect();
        let tasks: Vec<Task> = (0..n)
            .map(|k| {
                let generator = Arc::clone(&self.interactive);
                let (live, parts) = (Arc::clone(&live), Arc::clone(&parts));
                Box::new(move || {
                    let streams = &live[k * chunk..((k + 1) * chunk).min(live.len())];
                    let mut rows = parts[k].lock().expect("shard rows");
                    generator.synthesize_streams_into(clock, slot, streams, &mut rows);
                }) as Task
            })
            .collect();
        ShardRows { parts, pending: WorkPool::global().submit(tasks) }
    }

    /// Synthesise one slot's requests with an explicit shard count —
    /// exposed so tests can assert byte-identity across shard counts.
    /// Equals [`Self::requests_in_slot`] for every `shards ≥ 1`.
    pub fn synthesize_slot_requests(
        &self,
        clock: SlotClock,
        slot: usize,
        shards: usize,
    ) -> Vec<IoRequest> {
        let live = self.live_streams(clock, slot);
        self.submit_shards(clock, slot, &live, Some(shards)).join_ordered()
    }

    /// Requests of one slot (stateless live query + sharded synthesis).
    pub fn requests_in_slot(&self, clock: SlotClock, slot: usize) -> Vec<IoRequest> {
        let live = self.live_streams(clock, slot);
        self.submit_shards(clock, slot, &live, None).join_ordered()
    }

    /// The memo cell of `(clock width, slot)`.
    fn memo_cell(&self, clock: SlotClock, slot: usize) -> SlotBatchCell {
        let mut map = self.slot_batches.lock().expect("slot batch lock");
        Arc::clone(map.entry((clock.width().0, slot)).or_default())
    }

    /// Begin synthesising the slot's memoised batch on the pool and return
    /// at once, or `None` if it is already memoised. `live` is the slot's
    /// live set from the caller's advancing
    /// [`crate::interactive::LiveCursor`] and must equal the stateless set
    /// (debug-asserted). [`PendingSlotBatch::finish`] completes the batch.
    pub fn begin_slot_batch(
        &self,
        clock: SlotClock,
        slot: usize,
        live: &[u32],
    ) -> Option<PendingSlotBatch> {
        let cell = self.memo_cell(clock, slot);
        if cell.get().is_some() {
            return None;
        }
        debug_assert_eq!(live, self.live_streams(clock, slot), "cursor live set diverged ({slot})");
        let shards = self.submit_shards(clock, slot, live, None);
        Some(PendingSlotBatch { cell, shards })
    }

    /// The slot's requests as a memoised columnar [`RequestBatch`] — the
    /// form the simulation hot loop uses.
    ///
    /// The batch holds the identical requests in the identical order as
    /// [`Self::requests_in_slot`]; once built, it is shared as an `Arc`
    /// for the life of this workload, so runs over a cached shared world
    /// skip re-synthesis entirely.
    pub fn slot_batch(&self, clock: SlotClock, slot: usize) -> Arc<RequestBatch> {
        if let Some(batch) = self.memo_cell(clock, slot).get() {
            return Arc::clone(batch);
        }
        let begun = self.begin_slot_batch(clock, slot, &self.live_streams(clock, slot));
        begun.map_or_else(|| self.slot_batch(clock, slot), PendingSlotBatch::finish)
    }

    /// Batch jobs submitted within slot `slot`.
    pub fn batch_arrivals_in_slot(&self, clock: SlotClock, slot: usize) -> Vec<BatchJob> {
        let a = clock.slot_start(slot);
        let b = clock.slot_end(slot);
        self.batch_jobs.iter().filter(|j| j.submit >= a && j.submit < b).cloned().collect()
    }

    /// Total batch bytes over the horizon.
    pub fn total_batch_bytes(&self) -> u64 {
        self.batch_jobs.iter().map(|j| j.total_bytes).sum()
    }

    /// Replace the batch population (trace substitution).
    pub fn with_batch_jobs(mut self, jobs: Vec<BatchJob>) -> Self {
        self.batch_jobs = jobs;
        self.batch_jobs.sort_by_key(|j| j.submit);
        self
    }
}

/// Bits per digit of [`arrival_order`]'s radix sort: 2048 buckets, so a
/// one-hour slot (2³² µs) sorts in three passes.
const DIGIT_BITS: u32 = 11;
const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;

/// The permutation that sorts `requests` by arrival, **stably**: requests
/// with equal arrivals keep their input order, exactly like a stable
/// `sort_by_key(|r| r.arrival)`.
///
/// An LSD radix sort on 11-bit digits of `arrival − min`. Each element is
/// one `u64`: key digits above the row index. The pass count comes from
/// the span `max − min`, so any span sorts fully; when the key digits do
/// not all fit beside the index (a span of more than ~2⁴⁴ µs), the sort
/// runs in stages, repacking the next digits from the rows between them.
/// Every pass is a stable counting scatter, and a pass whose digit is the
/// same for every key is skipped. O(n · passes), no comparisons.
pub(crate) fn arrival_order(requests: &[IoRequest]) -> Vec<u32> {
    let n = requests.len();
    assert!(u32::try_from(n).is_ok(), "at most 2^32 - 1 requests per slot");
    let (min, max) = requests
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), r| (lo.min(r.arrival.0), hi.max(r.arrival.0)));
    let passes = (u64::BITS - max.saturating_sub(min).leading_zeros()).div_ceil(DIGIT_BITS);
    let index_bits = u64::BITS - (n as u64).leading_zeros();
    let index_mask = (1u64 << index_bits) - 1;
    // Digits that fit beside the index: at least 2, as an index needs at
    // most 32 bits.
    let stage_digits = (u64::BITS - index_bits) / DIGIT_BITS;
    let mut packed: Vec<u64> = (0..n as u64).collect();
    let mut scratch = vec![0u64; n];
    let mut counts = vec![[0u32; 1 << DIGIT_BITS]; stage_digits as usize];
    let mut done = 0;
    while done < passes {
        let digits = stage_digits.min(passes - done);
        let (shift, key_mask) = (done * DIGIT_BITS, (1u64 << (digits * DIGIT_BITS)) - 1);
        let counts = &mut counts[..digits as usize];
        counts.iter_mut().for_each(|hist| hist.fill(0));
        for v in &mut packed {
            let i = *v & index_mask;
            let key = ((requests[i as usize].arrival.0 - min) >> shift) & key_mask;
            for (d, hist) in counts.iter_mut().enumerate() {
                hist[((key >> (d as u32 * DIGIT_BITS)) & DIGIT_MASK) as usize] += 1;
            }
            *v = key << index_bits | i;
        }
        for (d, hist) in counts.iter_mut().enumerate() {
            if hist.contains(&(n as u32)) {
                continue; // every key has the same digit here
            }
            let mut next = 0;
            for c in hist.iter_mut() {
                (*c, next) = (next, next + *c);
            }
            let digit_shift = index_bits + d as u32 * DIGIT_BITS;
            for &v in &packed {
                let b = ((v >> digit_shift) & DIGIT_MASK) as usize;
                scratch[hist[b] as usize] = v;
                hist[b] += 1;
            }
            std::mem::swap(&mut packed, &mut scratch);
        }
        done += digits;
    }
    packed.into_iter().map(|v| (v & index_mask) as u32).collect()
}

/// Serialize batch jobs to the CSV trace format:
/// `id,kind,submit_us,deadline_us,total_bytes`.
pub fn batch_jobs_to_csv(jobs: &[BatchJob]) -> String {
    let mut out = String::from("id,kind,submit_us,deadline_us,total_bytes\n");
    for j in jobs {
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            j.id.0,
            j.kind.label(),
            j.submit.0,
            j.deadline.0,
            j.total_bytes
        ));
    }
    out
}

/// Parse the CSV trace format produced by [`batch_jobs_to_csv`].
pub fn batch_jobs_from_csv(csv: &str) -> Result<Vec<BatchJob>, String> {
    let mut jobs = Vec::new();
    for (lineno, line) in csv.lines().enumerate() {
        if lineno == 0 || line.trim().is_empty() {
            continue; // header / blanks
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 5 {
            return Err(format!("line {}: expected 5 fields, got {}", lineno + 1, fields.len()));
        }
        let id = fields[0].parse::<u64>().map_err(|e| format!("line {}: id: {e}", lineno + 1))?;
        let kind = match fields[1] {
            "scrub" => BatchKind::Scrub,
            "backup" => BatchKind::Backup,
            "analytics" => BatchKind::Analytics,
            "repair" => BatchKind::Repair,
            other => return Err(format!("line {}: unknown kind {other:?}", lineno + 1)),
        };
        let submit = SimTime(
            fields[2].parse::<u64>().map_err(|e| format!("line {}: submit: {e}", lineno + 1))?,
        );
        let deadline = SimTime(
            fields[3].parse::<u64>().map_err(|e| format!("line {}: deadline: {e}", lineno + 1))?,
        );
        let bytes =
            fields[4].parse::<u64>().map_err(|e| format!("line {}: bytes: {e}", lineno + 1))?;
        if deadline <= submit {
            return Err(format!("line {}: deadline {deadline:?} <= submit {submit:?}", lineno + 1));
        }
        if bytes == 0 {
            return Err(format!("line {}: zero-byte job", lineno + 1));
        }
        jobs.push(BatchJob {
            id: JobId(id),
            kind,
            submit,
            deadline,
            total_bytes: bytes,
            remaining_bytes: bytes,
            state: JobState::Pending,
        });
    }
    jobs.sort_by_key(|j| j.submit);
    Ok(jobs)
}

/// A convenience summary of a workload used by reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSummary {
    /// Number of interactive streams.
    pub streams: usize,
    /// Number of batch jobs.
    pub batch_jobs: usize,
    /// Total batch bytes.
    pub batch_bytes: u64,
    /// Horizon in hours.
    pub horizon_hours: f64,
}

impl Workload {
    /// Build a summary.
    pub fn summary(&self) -> WorkloadSummary {
        WorkloadSummary {
            streams: self.interactive.stream_count(),
            batch_jobs: self.batch_jobs.len(),
            batch_bytes: self.total_batch_bytes(),
            horizon_hours: self.spec.interactive.horizon.as_hours_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Workload {
        Workload::generate(WorkloadSpec::small_week(1_000), 11)
    }

    #[test]
    fn generates_both_halves() {
        let w = small();
        assert_eq!(w.interactive().stream_count(), 100);
        assert_eq!(w.batch_jobs().len(), 400);
        assert!(w.total_batch_bytes() > 0);
        let s = w.summary();
        assert_eq!(s.streams, 100);
        assert_eq!(s.batch_jobs, 400);
        assert!((s.horizon_hours - 168.0).abs() < 1e-9);
    }

    #[test]
    fn batch_arrivals_partition_the_week() {
        let w = small();
        let c = SlotClock::hourly();
        let total: usize = (0..168).map(|s| w.batch_arrivals_in_slot(c, s).len()).sum();
        assert_eq!(total, 400, "every job arrives in exactly one slot");
    }

    #[test]
    fn slot_batch_matches_row_synthesis_and_memoises() {
        let w = small();
        let c = SlotClock::hourly();
        let rows = w.requests_in_slot(c, 40);
        let batch = w.slot_batch(c, 40);
        assert_eq!(batch.iter().collect::<Vec<_>>(), rows, "columns mirror the row form");
        let again = w.slot_batch(c, 40);
        assert!(Arc::ptr_eq(&batch, &again), "second lookup is a memo hit");
        // A different clock width is a different synthesis — distinct entry.
        let wide = SlotClock::new(gm_sim::SimDuration::from_hours(2));
        assert!(!Arc::ptr_eq(&batch, &w.slot_batch(wide, 40)));
    }

    #[test]
    fn csv_roundtrip() {
        let w = small();
        let csv = batch_jobs_to_csv(w.batch_jobs());
        let parsed = batch_jobs_from_csv(&csv).expect("roundtrip parses");
        assert_eq!(parsed, w.batch_jobs());
    }

    #[test]
    fn csv_rejects_malformed_input() {
        assert!(batch_jobs_from_csv("id,kind\n1,scrub").is_err());
        assert!(batch_jobs_from_csv("header\n1,frobnicate,0,100,5\n").is_err(), "unknown kind");
        assert!(
            batch_jobs_from_csv("header\n1,scrub,100,100,5\n").is_err(),
            "deadline not after submit"
        );
        assert!(batch_jobs_from_csv("header\n1,scrub,0,100,0\n").is_err(), "zero bytes");
        assert!(batch_jobs_from_csv("header\n1,scrub,x,100,5\n").is_err(), "bad number");
        // Header-only is fine.
        assert_eq!(
            batch_jobs_from_csv("id,kind,submit_us,deadline_us,total_bytes\n").unwrap(),
            vec![]
        );
    }

    #[test]
    fn with_batch_jobs_substitutes_trace() {
        let w = small();
        let custom = vec![BatchJob::new(
            JobId(999),
            BatchKind::Backup,
            SimTime::from_hours(1),
            SimTime::from_hours(5),
            42,
        )];
        let w = w.with_batch_jobs(custom.clone());
        assert_eq!(w.batch_jobs(), &custom[..]);
    }

    #[test]
    fn scaled_spec_scales_counts() {
        let spec = WorkloadSpec::medium_week(100).scaled(0.5);
        assert_eq!(spec.interactive.streams, 394);
        assert_eq!(spec.batch.jobs, 1_574);
    }

    #[test]
    fn with_interactive_streams_preserves_aggregate_rate() {
        let base = WorkloadSpec::medium_week(100);
        let spread = base.clone().with_interactive_streams(10_000);
        assert_eq!(spread.interactive.streams, 10_000);
        let before = base.interactive.streams as f64 * base.interactive.rate_rps;
        let after = spread.interactive.streams as f64 * spread.interactive.rate_rps;
        assert!((before - after).abs() < 1e-9, "{before} vs {after}");
    }

    #[test]
    fn synthesis_is_shard_count_invariant() {
        let w = small();
        let c = SlotClock::hourly();
        for slot in [10usize, 40, 90] {
            let one = w.synthesize_slot_requests(c, slot, 1);
            assert!(!one.is_empty(), "slot {slot} should have traffic");
            for shards in [2usize, 3, 5, 16] {
                assert_eq!(
                    w.synthesize_slot_requests(c, slot, shards),
                    one,
                    "slot {slot}, {shards} shards"
                );
            }
            assert_eq!(w.requests_in_slot(c, slot), one, "auto-sharded path");
        }
    }

    #[test]
    fn begun_batches_from_a_cursor_match_plain_batches() {
        let a = small();
        let b = small();
        let c = SlotClock::hourly();
        let mut cursor = crate::interactive::LiveCursor::new();
        for slot in 0..60 {
            let live = cursor.advance_to(a.interactive(), c, slot);
            let via_cursor = a.begin_slot_batch(c, slot, live).expect("cold slot").finish();
            let plain = b.slot_batch(c, slot);
            assert_eq!(
                via_cursor.iter().collect::<Vec<_>>(),
                plain.iter().collect::<Vec<_>>(),
                "slot {slot}"
            );
            assert!(a.begin_slot_batch(c, slot, live).is_none(), "slot {slot} is memoised");
            assert!(Arc::ptr_eq(&via_cursor, &a.slot_batch(c, slot)));
        }
    }

    /// A small week re-spread over 20 000 two-week sessions: enough live
    /// streams late in the week that automatic sharding splits the slot.
    fn sharded() -> Workload {
        let mut spec = WorkloadSpec::small_week(1_000).with_interactive_streams(20_000);
        spec.interactive.mean_lifetime = gm_sim::SimDuration::from_days(14);
        Workload::generate(spec, 5)
    }

    #[test]
    fn begin_finish_matches_one_shard_synthesis_at_any_shard_count() {
        let w = sharded();
        let c = SlotClock::hourly();
        let mut seen = Vec::new();
        for slot in [0usize, 40, 100] {
            let live = w.live_streams(c, slot);
            seen.push(live.len() >= SHARD_THRESHOLD);
            let batch = w.begin_slot_batch(c, slot, &live).expect("cold slot").finish();
            let one = w.synthesize_slot_requests(c, slot, 1);
            assert!(!one.is_empty(), "slot {slot}");
            assert_eq!(batch.iter().collect::<Vec<_>>(), one, "slot {slot}");
        }
        assert_eq!(seen, [false, false, true], "one-shard and many-shard slots");
    }

    #[test]
    fn dropped_pending_batch_leaves_the_memo_empty() {
        let w = sharded();
        let c = SlotClock::hourly();
        let slot = 100;
        let live = w.live_streams(c, slot);
        assert!(live.len() >= SHARD_THRESHOLD, "{} live streams", live.len());
        drop(w.begin_slot_batch(c, slot, &live).expect("cold slot"));
        assert!(w.memo_cell(c, slot).get().is_none(), "nothing memoised");
        let again = w.begin_slot_batch(c, slot, &live).expect("still cold");
        drop(again);
        let batch = w.slot_batch(c, slot);
        assert_eq!(batch.iter().collect::<Vec<_>>(), w.synthesize_slot_requests(c, slot, 1));
    }

    /// Requests with the given arrivals; the object id records the input
    /// position, so any reordering of ties shows.
    fn stamped(arrivals: &[u64]) -> Vec<IoRequest> {
        arrivals
            .iter()
            .enumerate()
            .map(|(i, &t)| IoRequest::read(SimTime(t), gm_storage::ObjectId(i as u64), 512))
            .collect()
    }

    /// The stable comparison sort [`arrival_order`] replaced, kept only as
    /// its exactness oracle.
    fn sorted_by_key(requests: &[IoRequest]) -> Vec<IoRequest> {
        let mut sorted = requests.to_vec();
        sorted.sort_by_key(|r| r.arrival);
        sorted
    }

    fn radix_sorted(requests: &[IoRequest]) -> Vec<IoRequest> {
        arrival_order(requests).iter().map(|&i| requests[i as usize]).collect()
    }

    #[test]
    fn exactness_radix_arrival_order_matches_stable_sort() {
        use proptest::test_runner::TestRng;
        assert!(arrival_order(&[]).is_empty());
        assert_eq!(arrival_order(&stamped(&[7])), vec![0]);
        assert_eq!(arrival_order(&stamped(&[u64::MAX, 0])), vec![1, 0], "full 64-bit span");
        for case in 0..200u32 {
            let mut r = TestRng::for_case("exactness-radix", case);
            let n = (r.next_u64() % 3_000) as usize;
            // Spans from one value (every key ties) up to 2^47 µs, past
            // 2^33 µs (a 2.4 h slot) and past the 44 key bits one packing
            // stage holds; keys drawn from a few distinct values, so most
            // tie with others, or from the whole span.
            let span_bits = (r.next_u64() % 48) as u32;
            let span = (1u64 << span_bits) - 1;
            let base = r.next_u64() % (1 << 50);
            let distinct = 1 + r.next_u64() % 64;
            let choices: Vec<u64> = (0..distinct).map(|_| r.next_u64() % (span + 1)).collect();
            let heavy_ties = case % 2 == 0;
            let arrivals: Vec<u64> = (0..n)
                .map(|_| {
                    let offset = if heavy_ties {
                        choices[(r.next_u64() % distinct) as usize]
                    } else {
                        r.next_u64() % (span + 1)
                    };
                    base + offset
                })
                .collect();
            let requests = stamped(&arrivals);
            assert_eq!(
                radix_sorted(&requests),
                sorted_by_key(&requests),
                "case {case}: n {n}, span 2^{span_bits}"
            );
        }
    }

    #[test]
    fn exactness_slot_synthesis_matches_stable_sort_of_rows() {
        let w = small();
        for (clock, slot) in [(SlotClock::hourly(), 40usize), (SlotClock::hourly(), 100)] {
            let mut live = Vec::new();
            w.interactive().live_streams_in_slot(clock, slot, &mut live);
            let mut rows = Vec::new();
            w.interactive().synthesize_streams_into(clock, slot, &live, &mut rows);
            assert!(!rows.is_empty());
            assert_eq!(w.requests_in_slot(clock, slot), sorted_by_key(&rows), "slot {slot}");
        }
    }

    #[test]
    fn exactness_slot_batches_match_sorted_rows_at_every_width() {
        let w = small();
        for minutes in [15u64, 60, 240, 1440] {
            let clock = SlotClock::new(gm_sim::SimDuration::from_mins(minutes));
            for hour in [40u64, 100] {
                let slot = (hour * 60 / minutes) as usize;
                let mut live = Vec::new();
                w.interactive().live_streams_in_slot(clock, slot, &mut live);
                let mut rows = Vec::new();
                w.interactive().synthesize_streams_into(clock, slot, &live, &mut rows);
                let oracle = sorted_by_key(&rows);
                let batch = w.slot_batch(clock, slot);
                assert!(!oracle.is_empty(), "{minutes} min slot {slot}");
                assert_eq!(batch.iter().collect::<Vec<_>>(), oracle, "{minutes} min slot {slot}");
                for (i, r) in oracle.iter().enumerate().step_by(61) {
                    assert_eq!(batch.request(i), *r, "{minutes} min slot {slot}, request {i}");
                }
                // Slots wider than 2^32 µs (71.6 min) always cross a
                // high-word boundary of the arrival column.
                let high = |r: &IoRequest| r.arrival.0 >> 32;
                if minutes > 72 {
                    assert!(high(&oracle[0]) < high(&oracle[oracle.len() - 1]));
                }
            }
        }
    }

    #[test]
    fn try_generate_rejects_degenerate_specs_before_drawing() {
        let mut spec = WorkloadSpec::small_week(1_000);
        spec.interactive.zipf_s = f64::INFINITY;
        match Workload::try_generate(spec, 11) {
            Err(WorkloadError::Invalid { field, .. }) => assert_eq!(field, "interactive.zipf_s"),
            other => panic!("expected an invalid zipf_s, got {:?}", other.err()),
        }
        let mut spec = WorkloadSpec::small_week(1_000);
        spec.interactive.size_cv = f64::NAN;
        let err = Workload::try_generate(spec, 11).err().expect("NaN size_cv is rejected");
        assert_eq!(
            err.to_string(),
            "workload spec: interactive.size_cv = NaN, expected a finite value >= 0"
        );
        assert!(Workload::try_generate(WorkloadSpec::small_week(1_000), 11).is_ok());
    }

    #[test]
    fn same_seed_same_workload() {
        let a = Workload::generate(WorkloadSpec::small_week(500), 3);
        let b = Workload::generate(WorkloadSpec::small_week(500), 3);
        assert_eq!(a.batch_jobs(), b.batch_jobs());
        let c = SlotClock::hourly();
        assert_eq!(a.requests_in_slot(c, 77).len(), b.requests_in_slot(c, 77).len());
    }
}

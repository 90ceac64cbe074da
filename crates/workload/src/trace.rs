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
use crate::interactive::{InteractiveGenerator, InteractiveSpec};
use crate::job::{BatchJob, BatchKind, JobId, JobState};
use gm_sim::pool::Task;
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

/// Live-set size below which sharded synthesis is not worth the fan-out
/// overhead (task boxing + result stitching).
const SHARD_THRESHOLD: usize = 8_192;
/// Minimum number of live streams per shard once sharding kicks in.
const STREAMS_PER_SHARD: usize = 2_048;

/// A generated workload.
pub struct Workload {
    spec: WorkloadSpec,
    /// `Arc` so shard tasks borrow the generator without copying the
    /// (potentially tens of MB) stream columns.
    interactive: Arc<InteractiveGenerator>,
    batch_jobs: Vec<BatchJob>,
    /// Memoised columnar slot batches, keyed by `(slot width, slot)` —
    /// the two inputs of request synthesis beyond the workload itself.
    /// Shared-world sweeps therefore synthesise each slot's requests once
    /// across all runs. The per-key `OnceLock` keeps concurrent misses
    /// single-build without holding the map lock while synthesising.
    slot_batches: Mutex<HashMap<(u64, usize), SlotBatchCell>>,
}

/// One memo slot: `Arc` so the map lock can be dropped while a miss
/// synthesises into the `OnceLock`.
type SlotBatchCell = Arc<OnceLock<Arc<RequestBatch>>>;

impl Workload {
    /// Build from a spec and master seed.
    pub fn generate(spec: WorkloadSpec, seed: u64) -> Self {
        let rngs = RngFactory::new(seed);
        let interactive = Arc::new(InteractiveGenerator::new(spec.interactive.clone(), &rngs));
        let batch_jobs = BatchGenerator::new(spec.batch.clone()).generate(&rngs);
        Workload { spec, interactive, batch_jobs, slot_batches: Mutex::new(HashMap::new()) }
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

    /// Shard count for a live set of `live` streams: 1 below the
    /// threshold, else one shard per [`STREAMS_PER_SHARD`] streams capped
    /// by the pool width.
    fn auto_shards(live: usize) -> usize {
        if live < SHARD_THRESHOLD {
            1
        } else {
            WorkPool::global().width().min(live / STREAMS_PER_SHARD).max(1)
        }
    }

    /// Synthesise the requests of the given live streams, fanned across
    /// `shards` pool tasks, and return them in canonical slot order.
    ///
    /// **Shard-invariant by construction**: each stream's requests come
    /// from its own `(stream, slot)`-keyed RNG, shards cover disjoint
    /// contiguous ranges of the ascending live list, results are stitched
    /// by shard index, and one stable sort by arrival produces the
    /// canonical order. The output is byte-identical for every `shards`
    /// value and thread count (a property test pins this).
    fn synthesize_live(
        &self,
        clock: SlotClock,
        slot: usize,
        live: &[u32],
        shards: usize,
    ) -> Vec<IoRequest> {
        let shards = shards.clamp(1, live.len().max(1));
        let mut out = Vec::new();
        if shards == 1 {
            self.interactive.synthesize_streams_into(clock, slot, live, &mut out);
        } else {
            let chunk = live.len().div_ceil(shards);
            let cells: Arc<Vec<Mutex<Vec<IoRequest>>>> =
                Arc::new((0..shards).map(|_| Mutex::new(Vec::new())).collect());
            let tasks: Vec<Task> = live
                .chunks(chunk)
                .enumerate()
                .map(|(k, part)| {
                    let generator = Arc::clone(&self.interactive);
                    let cells = Arc::clone(&cells);
                    let part = part.to_vec();
                    Box::new(move || {
                        let mut buf = Vec::new();
                        generator.synthesize_streams_into(clock, slot, &part, &mut buf);
                        *cells[k].lock().expect("shard cell") = buf;
                    }) as Task
                })
                .collect();
            WorkPool::global().scatter(tasks);
            for cell in cells.iter() {
                out.append(&mut cell.lock().expect("shard cell"));
            }
        }
        out.sort_by_key(|r| r.arrival); // stable: ties keep stream order
        out
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
        let mut live = Vec::new();
        self.interactive.live_streams_in_slot(clock, slot, &mut live);
        self.synthesize_live(clock, slot, &live, shards)
    }

    /// Requests of one slot (stateless live query + auto-sharded
    /// synthesis).
    pub fn requests_in_slot(&self, clock: SlotClock, slot: usize) -> Vec<IoRequest> {
        let mut live = Vec::new();
        self.interactive.live_streams_in_slot(clock, slot, &mut live);
        self.synthesize_live(clock, slot, &live, Self::auto_shards(live.len()))
    }

    /// The slot's requests as a memoised columnar [`RequestBatch`] — the
    /// form the simulation hot loop uses.
    ///
    /// The batch holds the identical requests in the identical order as
    /// [`Self::requests_in_slot`]; it is synthesised at most once per
    /// `(clock width, slot)` for the life of this workload and shared as
    /// an `Arc` thereafter, so runs over a cached shared world skip
    /// re-synthesis entirely.
    pub fn slot_batch(&self, clock: SlotClock, slot: usize) -> Arc<RequestBatch> {
        self.slot_batch_inner(clock, slot, None)
    }

    /// [`Self::slot_batch`] for callers that already know the slot's live
    /// stream set (the simulation's advancing [`crate::interactive::LiveCursor`]) —
    /// skips the stateless live query on a memo miss. `live` must equal
    /// the stateless set (debug-asserted); the returned batch is
    /// byte-identical to [`Self::slot_batch`]'s.
    pub fn slot_batch_with_live(
        &self,
        clock: SlotClock,
        slot: usize,
        live: &[u32],
    ) -> Arc<RequestBatch> {
        self.slot_batch_inner(clock, slot, Some(live))
    }

    fn slot_batch_inner(
        &self,
        clock: SlotClock,
        slot: usize,
        live: Option<&[u32]>,
    ) -> Arc<RequestBatch> {
        let key = (clock.width().0, slot);
        let cell = {
            let mut map = self.slot_batches.lock().expect("slot batch lock");
            map.entry(key).or_insert_with(|| Arc::new(OnceLock::new())).clone()
        };
        cell.get_or_init(|| {
            let mut fallback = Vec::new();
            let live = match live {
                Some(l) => {
                    #[cfg(debug_assertions)]
                    {
                        let mut check = Vec::new();
                        self.interactive.live_streams_in_slot(clock, slot, &mut check);
                        debug_assert_eq!(l, &check[..], "cursor live set diverged (slot {slot})");
                    }
                    l
                }
                None => {
                    self.interactive.live_streams_in_slot(clock, slot, &mut fallback);
                    &fallback
                }
            };
            let requests = self.synthesize_live(clock, slot, live, Self::auto_shards(live.len()));
            Arc::new(RequestBatch::from_requests(&requests))
        })
        .clone()
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
    fn slot_batch_with_live_matches_plain_batch() {
        let a = small();
        let b = small();
        let c = SlotClock::hourly();
        let mut cursor = crate::interactive::LiveCursor::new();
        for slot in 0..60 {
            let live = cursor.advance_to(a.interactive(), c, slot).to_vec();
            let via_cursor = a.slot_batch_with_live(c, slot, &live);
            let plain = b.slot_batch(c, slot);
            assert_eq!(
                via_cursor.iter().collect::<Vec<_>>(),
                plain.iter().collect::<Vec<_>>(),
                "slot {slot}"
            );
        }
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

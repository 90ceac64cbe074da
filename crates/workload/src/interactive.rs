//! Interactive (latency-critical) request streams.
//!
//! An [`InteractiveStream`] is a client session issuing random I/O at a
//! base rate for its lifetime (~12 h in the medium-DC preset). The cluster-
//! wide intensity is the superposition of all live streams, modulated by a
//! diurnal curve (business-hours peak, small-hours trough) — the canonical
//! shape of private-cloud traces.
//!
//! Request synthesis is **per-stream, per-slot and seeded**: the requests
//! of stream `i` in slot `s` are a pure function of
//! `(workload seed, i, s)` via [`RngFactory::keyed_stream`]-style
//! counter-based seeding, so any subset of streams can be synthesised
//! independently — on one thread or sharded across many — and every
//! policy sees the identical byte stream. The population is stored
//! struct-of-arrays ([`StreamColumns`]: start/end/rate/request-seed
//! columns, ~32 B per stream), so a 10⁶-stream population costs ~32 MB
//! and the per-slot live-set walk is cache-friendly.
//!
//! Two ways to find the streams alive in a slot:
//!
//! * [`LiveCursor`] — the O(live + newly started) path the simulation hot
//!   loop uses: sorted-by-start streams admitted by an advancing cursor,
//!   dropped when their end passes the slot start.
//! * the stateless query ([`InteractiveGenerator::live_streams_in_slot`])
//!   — a prefix cut by `start` (binary search) plus a block-indexed scan
//!   that skips blocks whose latest `end` precedes the slot. Exact same
//!   set, usable from any slot without history (cold queries, resume).

use gm_sim::dist::{exponential, lognormal_mean_cv, poisson, Zipf};
use gm_sim::rng::splitmix64;
use gm_sim::time::{SimDuration, SimTime};
use gm_sim::{RngFactory, SlotClock};
use gm_storage::{IoRequest, ObjectId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the interactive half of the workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InteractiveSpec {
    /// Number of streams over the horizon.
    pub streams: usize,
    /// Mean stream lifetime.
    pub mean_lifetime: SimDuration,
    /// Per-stream base request rate (req/s) before diurnal modulation.
    pub rate_rps: f64,
    /// Fraction of requests that are reads.
    pub read_fraction: f64,
    /// Mean request size (bytes).
    pub mean_size_bytes: f64,
    /// Coefficient of variation of request size (lognormal).
    pub size_cv: f64,
    /// Zipf exponent of object popularity.
    pub zipf_s: f64,
    /// Diurnal modulation amplitude in `[0,1)`: intensity swings between
    /// `1−a` and `1+a` around the base, peaking mid-afternoon.
    pub diurnal_amplitude: f64,
    /// Number of addressable objects (must match the cluster directory).
    pub objects: usize,
    /// Horizon over which streams start.
    pub horizon: SimDuration,
}

impl InteractiveSpec {
    /// Medium-DC preset: ≈790 streams of ~12 h over one week.
    pub fn medium_week(objects: usize) -> Self {
        InteractiveSpec {
            streams: 787,
            mean_lifetime: SimDuration::from_hours(12),
            rate_rps: 0.20,
            read_fraction: 0.70,
            mean_size_bytes: 256.0 * 1024.0,
            size_cv: 1.5,
            zipf_s: 0.9,
            diurnal_amplitude: 0.6,
            objects,
            horizon: SimDuration::from_days(7),
        }
    }

    /// Diurnal intensity multiplier at `t` (peak 15:00, trough 03:00).
    pub fn diurnal(&self, t: SimTime) -> f64 {
        let h = t.hour_of_day();
        1.0 + self.diurnal_amplitude * ((h - 15.0) / 24.0 * std::f64::consts::TAU).cos()
    }
}

/// One client session.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InteractiveStream {
    /// Session start.
    pub start: SimTime,
    /// Session end.
    pub end: SimTime,
    /// Base rate (req/s).
    pub rate_rps: f64,
}

impl InteractiveStream {
    /// Overlap of this stream with `[a, b)`.
    pub fn overlap(&self, a: SimTime, b: SimTime) -> SimDuration {
        let lo = self.start.max(a);
        let hi = self.end.min(b);
        hi.saturating_sub(lo)
    }
}

/// Why an [`InteractiveSpec`] could not be turned into a population.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InteractiveError {
    /// The oversample/thin loop drawing session starts hit its iteration
    /// cap before reaching the target stream count — the spec's diurnal
    /// acceptance is degenerate (or the target is unreachable).
    ThinningStalled {
        /// Stream count the spec asked for.
        target: usize,
        /// Streams actually accepted when the cap was hit.
        accepted: usize,
        /// Iterations spent (the cap).
        iterations: u64,
    },
}

impl std::fmt::Display for InteractiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InteractiveError::ThinningStalled { target, accepted, iterations } => write!(
                f,
                "interactive population stalled: {accepted}/{target} streams after \
                 {iterations} thinning iterations (degenerate diurnal acceptance?)"
            ),
        }
    }
}

impl std::error::Error for InteractiveError {}

/// Streams in a block share one `max(end)` bound, letting the stateless
/// live query skip whole blocks that ended before the slot.
const BLOCK: usize = 4096;

/// Axis multipliers of [`RngFactory::keyed_seed`]; the stream index is
/// pre-mixed into the seed column with `KEY_A`, the slot finishes the seed
/// with `KEY_B` at synthesis time.
const KEY_A: u64 = 0x9E37_79B9_7F4A_7C15;
const KEY_B: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// The stream population, struct-of-arrays and sorted by start.
#[derive(Debug, Clone, Default)]
pub struct StreamColumns {
    /// Session starts (µs), ascending.
    start_us: Vec<u64>,
    /// Session ends (µs); `end_us[i]` belongs to `start_us[i]`.
    end_us: Vec<u64>,
    /// Base rates (req/s).
    rate_rps: Vec<f64>,
    /// Per-stream request-seed column: `seed_for("interactive-req") ^
    /// i·KEY_A`, pre-mixed so finishing a per-`(stream, slot)` seed is one
    /// xor + one SplitMix round (see [`RngFactory::keyed_seed`]).
    req_seed: Vec<u64>,
    /// `max(end_us)` per [`BLOCK`] of streams.
    block_max_end: Vec<u64>,
}

impl StreamColumns {
    fn from_streams(streams: &[InteractiveStream], req_seed_base: u64) -> Self {
        debug_assert!(streams.windows(2).all(|w| w[0].start <= w[1].start), "sorted by start");
        let mut cols = StreamColumns {
            start_us: Vec::with_capacity(streams.len()),
            end_us: Vec::with_capacity(streams.len()),
            rate_rps: Vec::with_capacity(streams.len()),
            req_seed: Vec::with_capacity(streams.len()),
            block_max_end: Vec::with_capacity(streams.len().div_ceil(BLOCK)),
        };
        for (i, s) in streams.iter().enumerate() {
            cols.start_us.push(s.start.0);
            cols.end_us.push(s.end.0);
            cols.rate_rps.push(s.rate_rps);
            cols.req_seed.push(req_seed_base ^ (i as u64).wrapping_mul(KEY_A));
            let block = i / BLOCK;
            if block == cols.block_max_end.len() {
                cols.block_max_end.push(s.end.0);
            } else {
                cols.block_max_end[block] = cols.block_max_end[block].max(s.end.0);
            }
        }
        cols
    }

    /// Number of streams.
    pub fn len(&self) -> usize {
        self.start_us.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.start_us.is_empty()
    }

    /// Materialise stream `i` in the row form.
    pub fn get(&self, i: usize) -> InteractiveStream {
        InteractiveStream {
            start: SimTime(self.start_us[i]),
            end: SimTime(self.end_us[i]),
            rate_rps: self.rate_rps[i],
        }
    }

    /// Index of the first stream starting at or after `b_us` — the prefix
    /// cut of the live query (streams past it cannot overlap `[a, b)`).
    fn prefix_end(&self, b_us: u64) -> usize {
        self.start_us.partition_point(|&s| s < b_us)
    }

    /// Visit (in ascending index order) every stream overlapping
    /// `[a_us, b_us)`, i.e. with `start < b && end > a`. Stateless: a
    /// binary-searched prefix cut by start, then a block scan skipping
    /// blocks whose `max(end)` precedes the slot.
    fn for_each_live(&self, a_us: u64, b_us: u64, mut f: impl FnMut(usize)) {
        let hi = self.prefix_end(b_us);
        let mut i = 0;
        while i < hi {
            let block = i / BLOCK;
            if self.block_max_end[block] <= a_us {
                i = (block + 1) * BLOCK;
                continue;
            }
            let block_end = ((block + 1) * BLOCK).min(hi);
            while i < block_end {
                if self.end_us[i] > a_us {
                    f(i);
                }
                i += 1;
            }
        }
    }
}

/// An advancing live-set cursor over a sorted stream population — the
/// O(live + newly started) way to enumerate the streams of consecutive
/// slots. One cursor belongs to one walk (a run of a simulation); it is
/// **not** part of the workload, which stays immutable and shared.
///
/// [`LiveCursor::advance_to`] is exact for *any* forward move, not just
/// `slot + 1`: admitting every stream with `start < slot_end` and then
/// retaining `end > slot_start` reproduces the stateless live set from
/// whatever prior state the cursor was in. A freshly constructed cursor
/// advanced straight to slot `s` therefore equals a cursor stepped through
/// `0..=s` — which is how snapshot/resume restores the cursor without
/// serialising it (resume-by-seek).
#[derive(Debug, Clone, Default)]
pub struct LiveCursor {
    /// Streams before this index have been admitted.
    pos: usize,
    /// Live stream indices, ascending.
    live: Vec<u32>,
    /// End (µs) of the last slot advanced to; a move backwards resets.
    frontier_us: u64,
}

impl LiveCursor {
    /// A cursor at the beginning of time.
    pub fn new() -> Self {
        LiveCursor::default()
    }

    /// Advance to `slot` and return the live stream indices (ascending).
    /// Exact for any forward move; a backward move falls back to a reset +
    /// re-walk (correct, just not incremental).
    pub fn advance_to<'c>(
        &'c mut self,
        generator: &InteractiveGenerator,
        clock: SlotClock,
        slot: usize,
    ) -> &'c [u32] {
        let cols = &generator.cols;
        let a_us = clock.slot_start(slot).0;
        let b_us = clock.slot_end(slot).0;
        if b_us < self.frontier_us {
            self.pos = 0;
            self.live.clear();
        }
        self.frontier_us = b_us;
        while self.pos < cols.len() && cols.start_us[self.pos] < b_us {
            self.live.push(self.pos as u32);
            self.pos += 1;
        }
        let end_us = &cols.end_us;
        self.live.retain(|&i| end_us[i as usize] > a_us);
        &self.live
    }

    /// The live set of the last slot advanced to (ascending indices).
    pub fn live(&self) -> &[u32] {
        &self.live
    }
}

/// Generator over an [`InteractiveSpec`]: pre-draws the stream population,
/// then synthesises requests slot by slot (and stream by stream — each
/// stream's requests come from its own `(stream, slot)`-keyed RNG, so the
/// synthesis of disjoint stream ranges can run on different shards and
/// still concatenate into the byte-identical slot).
#[derive(Debug, Clone)]
pub struct InteractiveGenerator {
    spec: InteractiveSpec,
    cols: StreamColumns,
    popularity: Zipf,
}

/// Iteration cap of the oversample/thin population loop: comfortably
/// above the ~2× oversampling the thinning needs for any sane spec, but
/// finite, so a degenerate acceptance cannot spin forever.
fn thinning_cap(target: usize) -> u64 {
    (target as u64).saturating_mul(64).saturating_add(10_000)
}

impl InteractiveGenerator {
    /// Draw the stream population deterministically from `rngs`,
    /// panicking on a degenerate spec (see [`Self::try_new`]).
    pub fn new(spec: InteractiveSpec, rngs: &RngFactory) -> Self {
        Self::try_new(spec, rngs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Draw the stream population deterministically from `rngs`.
    ///
    /// Stream starts follow the diurnal curve (thinning an exponential
    /// arrival process), so business hours see more session launches. The
    /// thinning loop is bounded (~64 iterations per requested stream);
    /// a spec whose acceptance is degenerate reports
    /// [`InteractiveError::ThinningStalled`] instead of spinning forever.
    pub fn try_new(spec: InteractiveSpec, rngs: &RngFactory) -> Result<Self, InteractiveError> {
        let cap = thinning_cap(spec.streams);
        Self::try_new_bounded(spec, rngs, cap)
    }

    /// [`Self::try_new`] with an explicit iteration cap (exposed so tests
    /// can exercise the stall path without a genuinely degenerate spec).
    fn try_new_bounded(
        spec: InteractiveSpec,
        rngs: &RngFactory,
        cap: u64,
    ) -> Result<Self, InteractiveError> {
        assert!(spec.objects > 0);
        assert!((0.0..=1.0).contains(&spec.read_fraction));
        let mut rng = rngs.stream("interactive-streams");
        let horizon_s = spec.horizon.as_secs_f64();
        let mut streams = Vec::with_capacity(spec.streams);
        // Thinned Poisson process over the horizon with target count.
        let base_rate = spec.streams as f64 / horizon_s * 2.0; // oversample, thin
        let mut t = 0.0;
        let mut iterations = 0u64;
        while streams.len() < spec.streams {
            if iterations >= cap {
                return Err(InteractiveError::ThinningStalled {
                    target: spec.streams,
                    accepted: streams.len(),
                    iterations,
                });
            }
            iterations += 1;
            t += exponential(&mut rng, base_rate);
            if t >= horizon_s {
                // Wrap: sessions keep arriving; restart the clock.
                t -= horizon_s;
            }
            let start = SimTime::ZERO + SimDuration::from_secs_f64(t);
            let accept = spec.diurnal(start) / (1.0 + spec.diurnal_amplitude);
            if rng.gen::<f64>() > accept {
                continue;
            }
            let life = exponential(&mut rng, 1.0 / spec.mean_lifetime.as_secs_f64());
            streams.push(InteractiveStream {
                start,
                end: start + SimDuration::from_secs_f64(life),
                rate_rps: spec.rate_rps,
            });
        }
        streams.sort_by_key(|s| s.start);
        let cols = StreamColumns::from_streams(&streams, rngs.seed_for("interactive-req"));
        let popularity = Zipf::new(spec.objects, spec.zipf_s);
        Ok(InteractiveGenerator { spec, cols, popularity })
    }

    /// The spec.
    pub fn spec(&self) -> &InteractiveSpec {
        &self.spec
    }

    /// Number of streams in the population.
    pub fn stream_count(&self) -> usize {
        self.cols.len()
    }

    /// Materialise stream `i` in the row form.
    pub fn stream(&self, i: usize) -> InteractiveStream {
        self.cols.get(i)
    }

    /// The population in columnar form.
    pub fn columns(&self) -> &StreamColumns {
        &self.cols
    }

    /// Stateless live query: the indices (ascending) of every stream
    /// overlapping `slot`, computed without cursor history — exactly the
    /// set a [`LiveCursor`] advanced to `slot` holds. Appends into `out`
    /// after clearing it.
    pub fn live_streams_in_slot(&self, clock: SlotClock, slot: usize, out: &mut Vec<u32>) {
        out.clear();
        let a = clock.slot_start(slot).0;
        let b = clock.slot_end(slot).0;
        self.cols.for_each_live(a, b, |i| out.push(i as u32));
    }

    /// Expected aggregate request rate (req/s) in a slot — what capacity
    /// planners use.
    pub fn expected_rate_in_slot(&self, clock: SlotClock, slot: usize) -> f64 {
        let a = clock.slot_start(slot);
        let b = clock.slot_end(slot);
        let width_s = clock.width().as_secs_f64();
        let mid = a + clock.width() / 2;
        let diurnal = self.spec.diurnal(mid);
        // Ascending-index accumulation: the same order (and therefore the
        // same float sum) as a full population scan, since streams outside
        // the live set would contribute exactly 0.0.
        let mut live = 0.0;
        self.cols.for_each_live(a.0, b.0, |i| {
            let s = self.cols.get(i);
            live += s.overlap(a, b).as_secs_f64() / width_s * s.rate_rps;
        });
        live * diurnal
    }

    /// Append the requests of the given streams in `slot` to `out`
    /// (per-stream draw order; **not** sorted by arrival across streams).
    ///
    /// This is the shard kernel: because each stream's requests come from
    /// its own `(stream, slot)`-keyed RNG, concatenating the outputs of
    /// disjoint stream ranges in ascending stream order — no matter how
    /// the ranges were split across shards or threads — yields exactly
    /// the sequence a single-threaded walk of the live set produces. One
    /// stable sort by arrival then gives the canonical slot ordering.
    pub fn synthesize_streams_into(
        &self,
        clock: SlotClock,
        slot: usize,
        streams: &[u32],
        out: &mut Vec<IoRequest>,
    ) {
        let a = clock.slot_start(slot);
        let b = clock.slot_end(slot);
        let mid = a + clock.width() / 2;
        let diurnal = self.spec.diurnal(mid);
        let slot_mix = (slot as u64).wrapping_mul(KEY_B);
        for &i in streams {
            let i = i as usize;
            let s = self.cols.get(i);
            let ov = s.overlap(a, b).as_secs_f64();
            if ov <= 0.0 {
                continue;
            }
            // Finish the pre-mixed seed column with the slot axis — the
            // seed RngFactory::keyed_seed("interactive-req", i, slot)
            // derives (pinned by a test below).
            let mut state = self.cols.req_seed[i] ^ slot_mix;
            let mut rng = SmallRng::seed_from_u64(splitmix64(&mut state));
            let mean = s.rate_rps * ov * diurnal;
            let n = poisson(&mut rng, mean);
            for _ in 0..n {
                let lo = s.start.max(a);
                let span = s.end.min(b).saturating_sub(lo).as_secs_f64();
                let dt = rng.gen::<f64>() * span;
                let arrival = lo + SimDuration::from_secs_f64(dt);
                let object = ObjectId(self.popularity.sample(&mut rng) as u64);
                let size = lognormal_mean_cv(&mut rng, self.spec.mean_size_bytes, self.spec.size_cv)
                    .max(512.0) as u64;
                let req = if rng.gen::<f64>() < self.spec.read_fraction {
                    IoRequest::read(arrival, object, size)
                } else {
                    IoRequest::write(arrival, object, size)
                };
                out.push(req);
            }
        }
    }

    /// Expected disk busy-seconds the slot's requests will cost, assuming
    /// random access at `service_secs_per_byte` + `positioning_secs` each —
    /// the planner's load estimate.
    pub fn expected_busy_secs_in_slot(
        &self,
        clock: SlotClock,
        slot: usize,
        positioning_secs: f64,
        secs_per_byte: f64,
    ) -> f64 {
        let rate = self.expected_rate_in_slot(clock, slot);
        let width_s = clock.width().as_secs_f64();
        rate * width_s * (positioning_secs + self.spec.mean_size_bytes * secs_per_byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gm_storage::IoKind;
    use proptest::test_runner::TestRng;

    fn generator() -> InteractiveGenerator {
        let mut spec = InteractiveSpec::medium_week(1_000);
        spec.streams = 100; // keep tests fast
        InteractiveGenerator::new(spec, &RngFactory::new(42))
    }

    /// One slot's requests sorted by arrival: the stateless live query
    /// plus the shard kernel over the whole live set.
    fn requests_in_slot(g: &InteractiveGenerator, clock: SlotClock, slot: usize) -> Vec<IoRequest> {
        let mut live = Vec::new();
        g.live_streams_in_slot(clock, slot, &mut live);
        let mut out = Vec::new();
        g.synthesize_streams_into(clock, slot, &live, &mut out);
        out.sort_by_key(|r| r.arrival);
        out
    }

    /// The naive reference: every stream, overlap test per slot.
    fn naive_live(g: &InteractiveGenerator, clock: SlotClock, slot: usize) -> Vec<u32> {
        let a = clock.slot_start(slot);
        let b = clock.slot_end(slot);
        (0..g.stream_count())
            .filter(|&i| g.stream(i).overlap(a, b) > SimDuration::ZERO)
            .map(|i| i as u32)
            .collect()
    }

    #[test]
    fn population_size_and_ordering() {
        let g = generator();
        assert_eq!(g.stream_count(), 100);
        for i in 1..g.stream_count() {
            assert!(g.stream(i - 1).start <= g.stream(i).start);
        }
        for i in 0..g.stream_count() {
            assert!(g.stream(i).end > g.stream(i).start);
        }
    }

    #[test]
    fn slot_synthesis_is_deterministic() {
        let g1 = generator();
        let g2 = generator();
        let c = SlotClock::hourly();
        let a = requests_in_slot(&g1, c, 40);
        let b = requests_in_slot(&g2, c, 40);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.object, y.object);
            assert_eq!(x.size_bytes, y.size_bytes);
        }
    }

    #[test]
    fn requests_fall_inside_slot_and_stream() {
        let g = generator();
        let c = SlotClock::hourly();
        for slot in [10usize, 50, 100] {
            for r in requests_in_slot(&g, c, slot) {
                assert!(r.arrival >= c.slot_start(slot) && r.arrival < c.slot_end(slot));
                assert!(r.size_bytes >= 512);
                assert!(r.object.0 < 1_000);
            }
        }
    }

    #[test]
    fn read_write_mix_approximates_spec() {
        let g = generator();
        let c = SlotClock::hourly();
        let mut reads = 0usize;
        let mut total = 0usize;
        for slot in 0..168 {
            for r in requests_in_slot(&g, c, slot) {
                total += 1;
                if r.kind == IoKind::Read {
                    reads += 1;
                }
            }
        }
        assert!(total > 1_000, "enough requests to judge the mix: {total}");
        let frac = reads as f64 / total as f64;
        assert!((frac - 0.70).abs() < 0.05, "read fraction {frac}");
    }

    #[test]
    fn diurnal_peaks_in_afternoon() {
        let spec = InteractiveSpec::medium_week(10);
        let peak = spec.diurnal(SimTime::from_hours(15));
        let trough = spec.diurnal(SimTime::from_hours(3));
        assert!((peak - 1.6).abs() < 1e-9);
        assert!((trough - 0.4).abs() < 1e-9);
    }

    #[test]
    fn expected_rate_tracks_synthesis() {
        let g = generator();
        let c = SlotClock::hourly();
        // Sum expectation vs realisation over the busiest day.
        let mut expect = 0.0;
        let mut actual = 0usize;
        for slot in 24..48 {
            expect += g.expected_rate_in_slot(c, slot) * 3600.0;
            actual += requests_in_slot(&g, c, slot).len();
        }
        assert!(expect > 0.0);
        let ratio = actual as f64 / expect;
        assert!((0.8..1.2).contains(&ratio), "actual/expected = {ratio}");
    }

    #[test]
    fn busy_estimate_is_positive_during_activity() {
        let g = generator();
        let c = SlotClock::hourly();
        let busy = g.expected_busy_secs_in_slot(c, 30, 0.0127, 1.0 / 140.0e6);
        assert!(busy >= 0.0);
    }

    #[test]
    fn stateless_live_query_matches_naive_scan() {
        let g = generator();
        let c = SlotClock::hourly();
        let mut live = Vec::new();
        for slot in 0..200 {
            g.live_streams_in_slot(c, slot, &mut live);
            assert_eq!(live, naive_live(&g, c, slot), "slot {slot}");
        }
    }

    #[test]
    fn cursor_matches_naive_scan_on_random_specs() {
        for case in 0..12u32 {
            let mut rng = TestRng::for_case("interactive-cursor", case);
            let mut spec = InteractiveSpec::medium_week(100);
            spec.streams = 20 + (rng.next_u64() % 300) as usize;
            spec.mean_lifetime = SimDuration::from_secs((600.0 + rng.unit_f64() * 72_000.0) as u64);
            spec.diurnal_amplitude = rng.unit_f64() * 0.9;
            spec.horizon = SimDuration::from_hours(24 + rng.next_u64() % 144);
            let g = InteractiveGenerator::new(spec, &RngFactory::new(rng.next_u64()));
            let c = SlotClock::hourly();
            let mut cursor = LiveCursor::new();
            let mut slot = 0usize;
            while slot < 180 {
                let live = cursor.advance_to(&g, c, slot).to_vec();
                assert_eq!(live, naive_live(&g, c, slot), "case {case} slot {slot}");
                // Mix of single steps and forward jumps.
                slot += 1 + (rng.next_u64() % 7) as usize;
            }
        }
    }

    #[test]
    fn fresh_cursor_seeks_to_any_slot() {
        let g = generator();
        let c = SlotClock::hourly();
        let mut walked = LiveCursor::new();
        for slot in 0..=90 {
            walked.advance_to(&g, c, slot);
        }
        let mut seeked = LiveCursor::new();
        assert_eq!(seeked.advance_to(&g, c, 90), walked.live());
    }

    #[test]
    fn cursor_resets_on_backward_move() {
        let g = generator();
        let c = SlotClock::hourly();
        let mut cursor = LiveCursor::new();
        cursor.advance_to(&g, c, 120);
        let back = cursor.advance_to(&g, c, 30).to_vec();
        assert_eq!(back, naive_live(&g, c, 30));
    }

    #[test]
    fn sharded_synthesis_concatenates_to_the_sequential_walk() {
        let g = generator();
        let c = SlotClock::hourly();
        for slot in [20usize, 40, 60] {
            let mut live = Vec::new();
            g.live_streams_in_slot(c, slot, &mut live);
            let mut whole = Vec::new();
            g.synthesize_streams_into(c, slot, &live, &mut whole);
            for shards in [2usize, 3, 7] {
                let chunk = live.len().div_ceil(shards).max(1);
                let mut stitched = Vec::new();
                for part in live.chunks(chunk) {
                    g.synthesize_streams_into(c, slot, part, &mut stitched);
                }
                assert_eq!(stitched, whole, "slot {slot}, {shards} shards");
            }
        }
    }

    #[test]
    fn per_stream_rng_is_the_keyed_stream_discipline() {
        // The seed column + slot mix must reproduce
        // RngFactory::keyed_stream("interactive-req", i, slot) exactly —
        // that is the published re-keying contract of the shard kernel.
        let rngs = RngFactory::new(42);
        let g = generator();
        let base = rngs.seed_for("interactive-req");
        for (i, slot) in [(0usize, 7u64), (13, 40), (99, 0)] {
            let expected = RngFactory::keyed_seed(base, i as u64, slot);
            let mut state = g.cols.req_seed[i] ^ slot.wrapping_mul(KEY_B);
            assert_eq!(splitmix64(&mut state), expected, "stream {i} slot {slot}");
        }
    }

    #[test]
    fn thinning_loop_is_bounded() {
        let spec = InteractiveSpec::medium_week(100);
        let err = InteractiveGenerator::try_new_bounded(spec, &RngFactory::new(1), 3)
            .expect_err("a 3-iteration cap cannot build 787 streams");
        match err {
            InteractiveError::ThinningStalled { target, accepted, iterations } => {
                assert_eq!(target, 787);
                assert!(accepted <= 3);
                assert_eq!(iterations, 3);
            }
        }
        // The default cap is generous: normal specs build fine.
        assert!(InteractiveGenerator::try_new(
            InteractiveSpec::medium_week(100),
            &RngFactory::new(1)
        )
        .is_ok());
    }
}

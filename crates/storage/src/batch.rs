//! Compact columnar request batches.
//!
//! A [`RequestBatch`] holds one slot's interactive requests as parallel
//! columns, 13 bytes per request instead of the 25 of a plain
//! `(SimTime, ObjectId, u64, IoKind)` row:
//!
//! * **arrival** — the low 32 bits of each arrival (µs) in a `u32`
//!   column, plus a run table of the high 32 bits: one `(first index,
//!   high word)` entry each time the high word changes. A slot's
//!   arrivals are sorted, so the table holds one entry per 2³² µs
//!   (≈ 71.6 min) the slot spans — two at most for a 1 h slot;
//! * **object** — a `u32` index (clusters hold at most `u32::MAX`
//!   objects);
//! * **size** — a `u32`; sizes of `u32::MAX` bytes or more store
//!   [`SIZE_ESCAPE`] and their value in an index-ordered side table;
//! * **kind** — one byte.
//!
//! The encoding is exact and canonical: a batch decodes to the identical
//! `IoRequest` sequence it was built from (arrival order is not required,
//! an unsorted batch only grows its run table), and two batches are equal
//! exactly when their requests are.
//!
//! Batches are immutable once built and a pure function of
//! `(workload seed, clock width, slot)`, which makes them ideal memo
//! material: the workload crate's `Workload::slot_batch` builds each slot's
//! batch once and hands out `Arc` clones thereafter, so a policy sweep
//! over one shared workload pays request synthesis once per slot — not
//! once per slot *per run*. [`crate::Cluster::serve_batch`] then serves
//! a whole batch in one pass.

use crate::object::ObjectId;
use crate::request::{IoKind, IoRequest};
use gm_sim::time::SimTime;

/// Size-column marker of a request whose size lives in the escape table.
const SIZE_ESCAPE: u32 = u32::MAX;

/// One slot's interactive requests in compact struct-of-arrays form.
///
/// Index `i` across the columns is the `i`-th request in arrival order
/// (ties preserve synthesis order, exactly like the historic sorted
/// `Vec<IoRequest>`). Batched requests are random-access.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestBatch {
    /// Low 32 bits of each arrival.
    arrival_lo: Vec<u32>,
    /// `(first index, high 32 bits)` of each run of arrivals sharing
    /// their high word; the first run starts at 0.
    arrival_hi: Vec<(usize, u32)>,
    objects: Vec<u32>,
    /// Sizes in bytes, [`SIZE_ESCAPE`] for the escaped ones.
    sizes: Vec<u32>,
    /// `(index, size)` of every escaped size, in index order.
    big_sizes: Vec<(usize, u64)>,
    kinds: Vec<IoKind>,
}

impl RequestBatch {
    /// The batch of `rows` taken in `order`: entry `k` is
    /// `rows[order[k]]`. The columns are allocated zeroed and written in
    /// one pass through `order`; pushing onto reserved columns instead
    /// (a capacity check per column per row) measured about twice as slow.
    ///
    /// # Panics
    /// If an entry of `order` is out of range for `rows`, or a row is
    /// sequential or names an object past `u32::MAX`.
    pub fn gather(rows: &[IoRequest], order: &[u32]) -> Self {
        let n = order.len();
        let mut batch = RequestBatch {
            arrival_lo: vec![0; n],
            objects: vec![0; n],
            sizes: vec![0; n],
            kinds: vec![IoKind::Read; n],
            ..RequestBatch::default()
        };
        let columns = batch
            .arrival_lo
            .iter_mut()
            .zip(&mut batch.objects)
            .zip(&mut batch.sizes)
            .zip(&mut batch.kinds);
        for (k, ((((lo, object), size), kind), &i)) in columns.zip(order).enumerate() {
            let r = &rows[i as usize];
            assert!(!r.sequential, "batched requests are random-access");
            let high = (r.arrival.0 >> 32) as u32;
            if batch.arrival_hi.last().is_none_or(|&(_, h)| h != high) {
                batch.arrival_hi.push((k, high));
            }
            *lo = r.arrival.0 as u32;
            *object = u32::try_from(r.object.0).expect("object id fits in 32 bits");
            *size = match u32::try_from(r.size_bytes) {
                Ok(s) if s != SIZE_ESCAPE => s,
                _ => {
                    batch.big_sizes.push((k, r.size_bytes));
                    SIZE_ESCAPE
                }
            };
            *kind = r.kind;
        }
        batch
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.arrival_lo.len()
    }

    /// Whether the batch holds no requests.
    pub fn is_empty(&self) -> bool {
        self.arrival_lo.is_empty()
    }

    /// Materialise request `i`.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn request(&self, i: usize) -> IoRequest {
        let lo = self.arrival_lo[i];
        let run = self.arrival_hi.partition_point(|&(start, _)| start <= i) - 1;
        let size_bytes = match self.sizes[i] {
            SIZE_ESCAPE => {
                let at = self.big_sizes.partition_point(|&(j, _)| j < i);
                self.big_sizes[at].1
            }
            s => u64::from(s),
        };
        IoRequest {
            arrival: SimTime(u64::from(self.arrival_hi[run].1) << 32 | u64::from(lo)),
            object: ObjectId(u64::from(self.objects[i])),
            kind: self.kinds[i],
            size_bytes,
            sequential: false,
        }
    }

    /// Iterate the batch as materialised requests, in arrival order: one
    /// forward pass over the columns and the two side tables.
    pub fn iter(&self) -> impl Iterator<Item = IoRequest> + '_ {
        let mut runs = self.arrival_hi.iter().peekable();
        let mut big = self.big_sizes.iter().map(|&(_, s)| s);
        let mut high = 0u64;
        let columns = self.arrival_lo.iter().zip(&self.objects).zip(&self.sizes).zip(&self.kinds);
        columns.enumerate().map(move |(i, (((&lo, &object), &size), &kind))| {
            if let Some(&(_, h)) = runs.next_if(|&&(start, _)| start == i) {
                high = u64::from(h) << 32;
            }
            let size_bytes = match size {
                SIZE_ESCAPE => big.next().expect("escape table covers every marker"),
                s => u64::from(s),
            };
            IoRequest {
                arrival: SimTime(high | u64::from(lo)),
                object: ObjectId(u64::from(object)),
                kind,
                size_bytes,
                sequential: false,
            }
        })
    }

    /// Total bytes across the batch — one contiguous column scan plus the
    /// escape table.
    pub fn total_bytes(&self) -> u64 {
        let small: u64 =
            self.sizes.iter().filter(|&&s| s != SIZE_ESCAPE).map(|&s| u64::from(s)).sum();
        small + self.big_sizes.iter().map(|&(_, s)| s).sum::<u64>()
    }

    /// Number of reads — one contiguous column scan.
    pub fn read_count(&self) -> usize {
        self.kinds.iter().filter(|k| **k == IoKind::Read).count()
    }
}

/// Collect requests into a batch, in iteration order (arrival order
/// keeps the run table smallest).
///
/// # Panics
/// If a request is sequential or names an object past `u32::MAX`.
impl FromIterator<IoRequest> for RequestBatch {
    fn from_iter<I: IntoIterator<Item = IoRequest>>(requests: I) -> Self {
        let rows: Vec<IoRequest> = requests.into_iter().collect();
        let order: Vec<u32> =
            (0..u32::try_from(rows.len()).expect("at most 2^32 - 1 requests")).collect();
        RequestBatch::gather(&rows, &order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    fn sample() -> Vec<IoRequest> {
        vec![
            IoRequest::read(SimTime(10), ObjectId(3), 4096),
            IoRequest::write(SimTime(20), ObjectId(7), 512),
            IoRequest::read(SimTime(30), ObjectId(3), 1024),
        ]
    }

    /// Every decoding path against the plain rows it was built from.
    fn assert_decodes_to(batch: &RequestBatch, rows: &[IoRequest]) {
        assert_eq!(batch.len(), rows.len());
        assert_eq!(batch.is_empty(), rows.is_empty());
        assert_eq!(batch.iter().collect::<Vec<_>>(), rows, "iter");
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(batch.request(i), *r, "request({i})");
        }
        // Rows whose sizes overflow a u64 sum have no total.
        if let Some(total) = rows.iter().try_fold(0u64, |t, r| t.checked_add(r.size_bytes)) {
            assert_eq!(batch.total_bytes(), total);
        }
        let reads = rows.iter().filter(|r| r.kind == IoKind::Read).count();
        assert_eq!(batch.read_count(), reads);
    }

    #[test]
    fn roundtrips_requests() {
        let reqs = sample();
        let batch: RequestBatch = reqs.iter().copied().collect();
        assert_decodes_to(&batch, &reqs);
        assert_eq!(batch.total_bytes(), 4096 + 512 + 1024);
        assert_eq!(batch.read_count(), 2);
        assert_decodes_to(&RequestBatch::default(), &[]);
    }

    #[test]
    fn gather_takes_rows_in_order() {
        let reqs = sample();
        let batch = RequestBatch::gather(&reqs, &[2, 0, 1]);
        assert_decodes_to(&batch, &[reqs[2], reqs[0], reqs[1]]);
        assert!(RequestBatch::gather(&reqs, &[]).is_empty());
    }

    #[test]
    fn rows_take_thirteen_bytes_each() {
        let n = 6_000u64;
        let rows: Vec<IoRequest> = (0..n)
            .map(|i| IoRequest::read(SimTime(i * 1_000_000), ObjectId(i % 97), 4096 + i))
            .collect();
        let order: Vec<u32> = (0..n as u32).collect();
        let b = RequestBatch::gather(&rows, &order);
        let column_bytes = b.arrival_lo.capacity() * 4
            + b.objects.capacity() * 4
            + b.sizes.capacity() * 4
            + b.kinds.capacity() * std::mem::size_of::<IoKind>();
        assert_eq!(column_bytes, 13 * n as usize);
        // 6000 s of arrivals cross one 2^32 µs boundary; no size escapes.
        assert_eq!(b.arrival_hi, vec![(0, 0), (4_295, 1)]);
        assert!(b.big_sizes.is_empty());
    }

    #[test]
    fn exactness_hand_built_batches_round_trip() {
        const HIGH: u64 = 1 << 32;
        let edge = [
            // Sizes at and around the escape marker, and the widest.
            IoRequest::read(SimTime(HIGH - 1), ObjectId(0), u64::from(u32::MAX) - 1),
            IoRequest::write(SimTime(HIGH), ObjectId(u64::from(u32::MAX)), u64::from(u32::MAX)),
            IoRequest::read(SimTime(HIGH), ObjectId(1), 1 << 32),
            IoRequest::read(SimTime(3 * HIGH + 7), ObjectId(u64::from(u32::MAX)), u64::MAX),
            IoRequest::write(SimTime(u64::MAX), ObjectId(2), 0),
            // Out of arrival order: the high word goes back down.
            IoRequest::read(SimTime(5), ObjectId(3), 512),
        ];
        assert_decodes_to(&edge.iter().copied().collect(), &edge);
        let order: Vec<u32> = (0..edge.len() as u32).rev().collect();
        let reversed: Vec<IoRequest> = edge.iter().rev().copied().collect();
        assert_decodes_to(&RequestBatch::gather(&edge, &order), &reversed);

        for case in 0..300u32 {
            let mut r = TestRng::for_case("exactness-batch", case);
            let n = (r.next_u64() % 2_000) as usize;
            // Arrival spans from one value to 2^40 µs (12.7 days, many
            // high-word runs), sorted or not; sizes mostly small, with
            // escapes up to 2^40 B mixed in; object ids up to u32::MAX.
            let span = 1u64 << (r.next_u64() % 41);
            let base = r.next_u64() % (1 << 50);
            let mut rows: Vec<IoRequest> = (0..n)
                .map(|_| {
                    let arrival = SimTime(base + r.next_u64() % span);
                    let object = ObjectId(r.next_u64() % (u64::from(u32::MAX) + 1));
                    let size = match r.next_u64() % 8 {
                        0 => u64::from(u32::MAX) + r.next_u64() % 3 - 1,
                        1 => r.next_u64() >> 24,
                        _ => r.next_u64() % (1 << 22),
                    };
                    if r.next_u64().is_multiple_of(3) {
                        IoRequest::write(arrival, object, size)
                    } else {
                        IoRequest::read(arrival, object, size)
                    }
                })
                .collect();
            if case % 2 == 0 {
                rows.sort_by_key(|q| q.arrival);
            }
            let batch: RequestBatch = rows.iter().copied().collect();
            assert_decodes_to(&batch, &rows);
            let order: Vec<u32> = (0..n as u32).map(|k| (k * 7919) % n.max(1) as u32).collect();
            let gathered: Vec<IoRequest> = order.iter().map(|&k| rows[k as usize]).collect();
            let batch = RequestBatch::gather(&rows, &order);
            assert_decodes_to(&batch, &gathered);
            assert_eq!(batch, gathered.iter().copied().collect(), "canonical encoding");
        }
    }

    #[test]
    #[should_panic(expected = "object id fits in 32 bits")]
    fn object_ids_past_u32_are_rejected() {
        let _: RequestBatch =
            [IoRequest::read(SimTime(0), ObjectId(1 << 32), 1)].into_iter().collect();
    }
}

//! Columnar (struct-of-arrays) request batches.
//!
//! The simulation's Execute phase historically walked a `Vec<IoRequest>`
//! per slot — an array-of-structs whose padding and field mix defeat both
//! the prefetcher and any hope of vectorising the byte accounting. A
//! [`RequestBatch`] stores the same slot's requests as parallel columns
//! (arrivals, objects, sizes, kinds), so per-column scans (total bytes,
//! read counts) run over contiguous memory and the service loop touches
//! only the columns it needs.
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

/// One slot's interactive requests in struct-of-arrays form.
///
/// All columns have identical length; index `i` across the columns is the
/// `i`-th request in arrival order (ties preserve synthesis order, exactly
/// like the historic sorted `Vec<IoRequest>`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestBatch {
    arrivals: Vec<SimTime>,
    objects: Vec<ObjectId>,
    sizes: Vec<u64>,
    kinds: Vec<IoKind>,
}

impl RequestBatch {
    /// An empty batch.
    pub fn new() -> Self {
        RequestBatch::default()
    }

    /// An empty batch with per-column capacity `n`.
    pub fn with_capacity(n: usize) -> Self {
        RequestBatch {
            arrivals: Vec::with_capacity(n),
            objects: Vec::with_capacity(n),
            sizes: Vec::with_capacity(n),
            kinds: Vec::with_capacity(n),
        }
    }

    /// The columns of `rows` taken in `order`: entry `k` of the batch is
    /// `rows[order[k]]`. One pass, each column written in place.
    ///
    /// # Panics
    /// If an entry of `order` is out of range for `rows`.
    pub fn gather(rows: &[IoRequest], order: &[u32]) -> Self {
        let n = order.len();
        let mut batch = RequestBatch {
            arrivals: vec![SimTime::ZERO; n],
            objects: vec![ObjectId(0); n],
            sizes: vec![0; n],
            kinds: vec![IoKind::Read; n],
        };
        let columns = batch
            .arrivals
            .iter_mut()
            .zip(&mut batch.objects)
            .zip(&mut batch.sizes)
            .zip(&mut batch.kinds);
        for ((((arrival, object), size), kind), &i) in columns.zip(order) {
            let r = &rows[i as usize];
            (*arrival, *object, *size, *kind) = (r.arrival, r.object, r.size_bytes, r.kind);
        }
        batch
    }

    /// Append one request to the columns.
    pub fn push(&mut self, r: &IoRequest) {
        self.arrivals.push(r.arrival);
        self.objects.push(r.object);
        self.sizes.push(r.size_bytes);
        self.kinds.push(r.kind);
    }

    /// Clear all columns (capacity retained).
    pub fn clear(&mut self) {
        self.arrivals.clear();
        self.objects.clear();
        self.sizes.clear();
        self.kinds.clear();
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the batch holds no requests.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Materialise request `i` (interactive requests are always
    /// random-access, mirroring [`IoRequest::read`] / [`IoRequest::write`]).
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn request(&self, i: usize) -> IoRequest {
        IoRequest {
            arrival: self.arrivals[i],
            object: self.objects[i],
            kind: self.kinds[i],
            size_bytes: self.sizes[i],
            sequential: false,
        }
    }

    /// Iterate the batch as materialised requests, in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = IoRequest> + '_ {
        (0..self.len()).map(|i| self.request(i))
    }

    /// Arrival column.
    pub fn arrivals(&self) -> &[SimTime] {
        &self.arrivals
    }

    /// Object column.
    pub fn objects(&self) -> &[ObjectId] {
        &self.objects
    }

    /// Size column (bytes).
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Kind column.
    pub fn kinds(&self) -> &[IoKind] {
        &self.kinds
    }

    /// Total bytes across the batch — one contiguous column scan.
    pub fn total_bytes(&self) -> u64 {
        self.sizes.iter().sum()
    }

    /// Number of reads — one contiguous column scan.
    pub fn read_count(&self) -> usize {
        self.kinds.iter().filter(|k| **k == IoKind::Read).count()
    }
}

/// Collect requests (already in arrival order) into the columns.
impl FromIterator<IoRequest> for RequestBatch {
    fn from_iter<I: IntoIterator<Item = IoRequest>>(requests: I) -> Self {
        let requests = requests.into_iter();
        let mut batch = RequestBatch::with_capacity(requests.size_hint().0);
        for r in requests {
            batch.push(&r);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<IoRequest> {
        vec![
            IoRequest::read(SimTime(10), ObjectId(3), 4096),
            IoRequest::write(SimTime(20), ObjectId(7), 512),
            IoRequest::read(SimTime(30), ObjectId(3), 1024),
        ]
    }

    #[test]
    fn roundtrips_requests() {
        let reqs = sample();
        let batch: RequestBatch = reqs.iter().copied().collect();
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        let back: Vec<IoRequest> = batch.iter().collect();
        assert_eq!(back, reqs);
        assert_eq!(batch.request(1), reqs[1]);
    }

    #[test]
    fn gather_takes_rows_in_order() {
        let reqs = sample();
        let batch = RequestBatch::gather(&reqs, &[2, 0, 1]);
        assert_eq!(batch.iter().collect::<Vec<_>>(), vec![reqs[2], reqs[0], reqs[1]]);
        assert!(RequestBatch::gather(&reqs, &[]).is_empty());
    }

    #[test]
    fn column_scans() {
        let batch: RequestBatch = sample().into_iter().collect();
        assert_eq!(batch.total_bytes(), 4096 + 512 + 1024);
        assert_eq!(batch.read_count(), 2);
        assert_eq!(batch.sizes(), &[4096, 512, 1024]);
        assert_eq!(batch.objects(), &[ObjectId(3), ObjectId(7), ObjectId(3)]);
        assert_eq!(batch.arrivals(), &[SimTime(10), SimTime(20), SimTime(30)]);
        assert_eq!(batch.kinds().len(), 3);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut batch: RequestBatch = sample().into_iter().collect();
        let cap = batch.sizes.capacity();
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.sizes.capacity(), cap);
        assert_eq!(RequestBatch::new().len(), 0);
    }
}

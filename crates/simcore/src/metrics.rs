//! Measurement collection: counters and running sample summaries.
//!
//! Experiments record latencies and throughputs into a [`Recorder`],
//! which keeps a running [`Summary`] per series: count, sum, min and max,
//! so its memory is one entry per series however many samples stream
//! through. Sums accumulate in insertion order, which makes the digest's
//! means bit-identical across same-seed runs. Code that needs a
//! percentile sorts its own samples and reads them with
//! [`nearest_rank`], or streams them through the trace crate's
//! `QuantileSketch`; both use the one rank rule, [`nearest_rank_index`].
//!
//! Metric names are interned: the first `record`/`add` under a name pays
//! one allocation to register it, and every subsequent hit is a hash
//! lookup into a `u32` handle — no per-record `String` allocation, no
//! `BTreeMap` walk. Hot call sites can hoist even the hash lookup out of
//! their loop with [`Recorder::hist_id`] / [`Recorder::counter_id`].

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use crate::time::SimDuration;

/// Running count, sum, min and max of a stream of samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    count: usize,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Summary {
        Summary::new()
    }
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Summary {
        Summary {
            count: 0,
            // `Iterator::sum` over `f64` starts from -0.0; starting there
            // too keeps `mean` bit-identical to summing a sample vector.
            sum: -0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample. Non-finite samples are rejected with a panic —
    /// they always indicate a modeling bug.
    pub fn record(&mut self, v: f64) {
        assert!(v.is_finite(), "summary sample must be finite, got {v}");
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record a duration in seconds.
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample; 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample; 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Index of the nearest-rank `q`-quantile among `len > 0` sorted values:
/// `round((len - 1) * q)`, with `q` clamped to `[0, 1]`.
pub fn nearest_rank_index(len: usize, q: f64) -> usize {
    ((len - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize
}

/// The nearest-rank `q`-quantile of ascending `sorted`; 0 when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted[nearest_rank_index(sorted.len(), q)]
    }
}

/// Interned handle to a summary series (see [`Recorder::hist_id`]).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct HistId(u32);

/// Interned handle to a counter series (see [`Recorder::counter_id`]).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct CounterId(u32);

/// A counter handle that interns its name on first increment, then hits
/// the `u32` fast path forever after.
///
/// Services embed these for their hot-path counters. The lazy resolve
/// matters for determinism, not just startup cost: [`Recorder::digest`]
/// prints *every* interned series, zero-valued ones included, so
/// interning at construction would leak `counter x = 0` lines into the
/// digests of runs that never touch the counter. First-use interning is
/// byte-identical to recording by name.
///
/// Not valid across [`Recorder::reset`] (nothing in this workspace
/// resets mid-run).
pub struct LazyCounter {
    name: &'static str,
    id: Cell<Option<CounterId>>,
}

impl LazyCounter {
    /// A handle for `name`, not yet interned.
    pub const fn new(name: &'static str) -> LazyCounter {
        LazyCounter {
            name,
            id: Cell::new(None),
        }
    }

    /// Add `n`, interning the name on first use.
    pub fn add(&self, recorder: &Recorder, n: u64) {
        let id = match self.id.get() {
            Some(id) => id,
            None => {
                let id = recorder.counter_id(self.name);
                self.id.set(Some(id));
                id
            }
        };
        recorder.add_id(id, n);
    }

    /// Add 1, interning the name on first use.
    pub fn incr(&self, recorder: &Recorder) {
        self.add(recorder, 1);
    }
}

/// A summary handle that interns its name on first sample; the
/// summary twin of [`LazyCounter`], with the same digest rationale.
pub struct LazyHist {
    name: &'static str,
    id: Cell<Option<HistId>>,
}

impl LazyHist {
    /// A handle for `name`, not yet interned.
    pub const fn new(name: &'static str) -> LazyHist {
        LazyHist {
            name,
            id: Cell::new(None),
        }
    }

    /// Record one sample, interning the name on first use.
    pub fn record(&self, recorder: &Recorder, v: f64) {
        let id = match self.id.get() {
            Some(id) => id,
            None => {
                let id = recorder.hist_id(self.name);
                self.id.set(Some(id));
                id
            }
        };
        recorder.record_id(id, v);
    }

    /// Record a duration in seconds, interning the name on first use.
    pub fn record_duration(&self, recorder: &Recorder, d: SimDuration) {
        self.record(recorder, d.as_secs_f64());
    }
}

/// One side of the registry: an intern table from name to `u32` handle
/// plus the values, indexed by handle.
struct Series<T> {
    index: HashMap<Box<str>, u32>,
    names: Vec<Box<str>>,
    values: Vec<T>,
}

impl<T> Default for Series<T> {
    fn default() -> Series<T> {
        Series {
            index: HashMap::new(),
            names: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<T: Default> Series<T> {
    /// Handle for `name`, interning it on first use. The fast path is a
    /// single hash lookup with no allocation.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.index.insert(Box::from(name), id);
        self.names.push(Box::from(name));
        self.values.push(T::default());
        id
    }

    fn get(&self, name: &str) -> Option<&T> {
        self.index.get(name).map(|&id| &self.values[id as usize])
    }

    /// Handles in name-sorted order, so reports stay byte-identical to
    /// the old `BTreeMap` layout regardless of interning order.
    fn sorted_ids(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.names.len() as u32).collect();
        ids.sort_by(|&a, &b| self.names[a as usize].cmp(&self.names[b as usize]));
        ids
    }

    fn sorted_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.names.iter().map(|n| n.to_string()).collect();
        names.sort();
        names
    }

    fn clear(&mut self) {
        self.index.clear();
        self.names.clear();
        self.values.clear();
    }
}

/// A shared registry of named summaries and counters.
///
/// Names are free-form; the convention in this workspace is
/// `"<service>.<operation>"`, e.g. `"blob.get"` or `"faas.invoke.cold"`.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Rc<RefCell<RecorderInner>>,
}

#[derive(Default)]
struct RecorderInner {
    summaries: Series<Summary>,
    counters: Series<u64>,
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Interned handle for summary `name`; lets hot loops skip the
    /// per-record name lookup entirely via [`Recorder::record_id`].
    pub fn hist_id(&self, name: &str) -> HistId {
        HistId(self.inner.borrow_mut().summaries.intern(name))
    }

    /// Interned handle for counter `name` (see [`Recorder::add_id`]).
    pub fn counter_id(&self, name: &str) -> CounterId {
        CounterId(self.inner.borrow_mut().counters.intern(name))
    }

    /// Record a floating-point sample under `name`.
    pub fn record(&self, name: &str, v: f64) {
        let mut inner = self.inner.borrow_mut();
        let id = inner.summaries.intern(name);
        inner.summaries.values[id as usize].record(v);
    }

    /// Record a sample under a pre-interned handle — no name lookup.
    pub fn record_id(&self, id: HistId, v: f64) {
        self.inner.borrow_mut().summaries.values[id.0 as usize].record(v);
    }

    /// Record a duration sample (stored in seconds) under `name`.
    pub fn record_duration(&self, name: &str, d: SimDuration) {
        self.record(name, d.as_secs_f64());
    }

    /// Record a duration under a pre-interned handle.
    pub fn record_duration_id(&self, id: HistId, d: SimDuration) {
        self.record_id(id, d.as_secs_f64());
    }

    /// Add `n` to the counter `name`.
    pub fn add(&self, name: &str, n: u64) {
        let mut inner = self.inner.borrow_mut();
        let id = inner.counters.intern(name);
        inner.counters.values[id as usize] += n;
    }

    /// Add `n` under a pre-interned handle — no name lookup.
    pub fn add_id(&self, id: CounterId, n: u64) {
        self.inner.borrow_mut().counters.values[id.0 as usize] += n;
    }

    /// Increment the counter `name`.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Increment under a pre-interned handle.
    pub fn incr_id(&self, id: CounterId) {
        self.add_id(id, 1);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .borrow()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// All counter names, sorted.
    pub fn counter_names(&self) -> Vec<String> {
        self.inner.borrow().counters.sorted_names()
    }

    /// Drop all recorded data. Interned handles from before the reset are
    /// invalidated; re-intern after resetting.
    pub fn reset(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.summaries.clear();
        inner.counters.clear();
    }

    /// A plain-text digest of everything recorded, for debugging and for
    /// byte-exact determinism assertions in tests.
    pub fn digest(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::new();
        use fmt::Write;
        for id in inner.counters.sorted_ids() {
            let name = &inner.counters.names[id as usize];
            let count = inner.counters.values[id as usize];
            writeln!(out, "counter {name} = {count}").unwrap();
        }
        for id in inner.summaries.sorted_ids() {
            let name = &inner.summaries.names[id as usize];
            let s = &inner.summaries.values[id as usize];
            writeln!(
                out,
                "hist {name}: n={} mean={:.9} min={:.9} max={:.9}",
                s.count(),
                s.mean(),
                s.min(),
                s.max()
            )
            .unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_summary_is_safe() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn basic_statistics() {
        let mut s = Summary::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.record(v);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 0.0), 1.0);
        assert_eq!(nearest_rank(&sorted, 0.5), 51.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 100.0);
        assert_eq!(nearest_rank(&sorted, 0.95), 95.0);
        assert_eq!(nearest_rank(&sorted, 0.99), 99.0);
        // Out-of-range q clamps.
        assert_eq!(nearest_rank(&sorted, 2.0), 100.0);
        assert_eq!(nearest_rank(&sorted, -1.0), 1.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_sample_panics() {
        Summary::new().record(f64::NAN);
    }

    proptest! {
        /// The running summary agrees bit for bit with statistics taken
        /// over the kept sample vector.
        #[test]
        fn summary_matches_sample_vector(
            samples in prop::collection::vec(0.0f64..1e6, 0..200),
        ) {
            let mut s = Summary::new();
            for &v in &samples {
                s.record(v);
            }
            prop_assert_eq!(s.count(), samples.len());
            if samples.is_empty() {
                prop_assert_eq!(s.mean().to_bits(), 0.0f64.to_bits());
            } else {
                let mean = samples.iter().sum::<f64>() / samples.len() as f64;
                let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
                let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                prop_assert_eq!(s.mean().to_bits(), mean.to_bits());
                prop_assert_eq!(s.min().to_bits(), min.to_bits());
                prop_assert_eq!(s.max().to_bits(), max.to_bits());
            }
        }
    }

    #[test]
    fn recorder_counters_and_summaries() {
        let r = Recorder::new();
        r.incr("faas.invocations");
        r.add("faas.invocations", 2);
        r.record("blob.get", 0.05);
        r.record("blob.get", 0.07);
        r.record_duration("blob.put", SimDuration::from_millis(53));
        assert_eq!(r.counter("faas.invocations"), 3);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(
            r.digest(),
            "counter faas.invocations = 3\n\
             hist blob.get: n=2 mean=0.060000000 min=0.050000000 max=0.070000000\n\
             hist blob.put: n=1 mean=0.053000000 min=0.053000000 max=0.053000000\n"
        );
        assert_eq!(r.counter_names(), vec!["faas.invocations"]);
    }

    #[test]
    fn recorder_reset_and_digest() {
        let r = Recorder::new();
        r.incr("x");
        r.record("y", 1.0);
        let d1 = r.digest();
        assert!(d1.contains("counter x = 1"));
        assert!(d1.contains("hist y"));
        // Digest is deterministic.
        assert_eq!(d1, r.digest());
        r.reset();
        assert_eq!(r.counter("x"), 0);
        assert!(r.digest().is_empty());
    }

    #[test]
    fn recorder_clones_share_state() {
        let r = Recorder::new();
        let r2 = r.clone();
        r2.incr("shared");
        assert_eq!(r.counter("shared"), 1);
    }

    #[test]
    fn interned_ids_alias_names() {
        let r = Recorder::new();
        let h = r.hist_id("lat");
        let c = r.counter_id("hits");
        r.record_id(h, 1.0);
        r.record("lat", 3.0);
        r.record_duration_id(h, SimDuration::from_secs(5));
        r.incr_id(c);
        r.add_id(c, 2);
        r.add("hits", 4);
        assert!(
            r.digest()
                .contains("hist lat: n=3 mean=3.000000000 min=1.000000000 max=5.000000000"),
            "{}",
            r.digest()
        );
        assert_eq!(r.counter("hits"), 7);
        // Re-interning the same name yields the same handle.
        assert_eq!(r.hist_id("lat"), h);
        assert_eq!(r.counter_id("hits"), c);
    }

    #[test]
    fn digest_is_name_sorted_regardless_of_interning_order() {
        let r = Recorder::new();
        r.record("zzz", 1.0);
        r.record("aaa", 2.0);
        r.incr("m");
        r.incr("b");
        let d = r.digest();
        let aaa = d.find("hist aaa").unwrap();
        let zzz = d.find("hist zzz").unwrap();
        assert!(aaa < zzz, "{d}");
        let b = d.find("counter b").unwrap();
        let m = d.find("counter m").unwrap();
        assert!(b < m, "{d}");
        assert_eq!(r.counter_names(), vec!["b", "m"]);
    }
}

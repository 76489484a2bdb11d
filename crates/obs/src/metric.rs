//! Counters and gauges: the scalar metrics.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Number of independent cells a [`Counter`] stripes its count over.
///
/// Recording threads hash to a cell, so concurrent increments from
/// different threads (the detector hot path) rarely contend on one cache
/// line. Reads sum all cells — reads are snapshot-time only, so their cost
/// is irrelevant.
pub(crate) const STRIPES: usize = 16;

/// A cache-line-isolated atomic cell, so neighbouring stripes do not
/// false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

thread_local! {
    /// Each recording thread gets a stable stripe index once; `inc` is then
    /// one thread-local read plus one relaxed fetch-add.
    static STRIPE: usize = {
        use std::sync::atomic::AtomicUsize;
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES
    };
}

pub(crate) fn stripe_index() -> usize {
    STRIPE.with(|s| *s)
}

/// A monotonic counter.
///
/// Lock-free and striped: each thread records into its own cell, so the
/// per-event cost is one relaxed `fetch_add` on an uncontended cache line.
///
/// # Examples
///
/// ```
/// use crace_obs::Counter;
///
/// let c = Counter::new();
/// c.inc();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Default)]
pub struct Counter {
    cells: [PaddedU64; STRIPES],
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[stripe_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total across all stripes.
    pub fn get(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }

    /// Raises the counter to `total` when it is below it. This is how a
    /// `feed` method exports a monotone total kept elsewhere: feeding the
    /// same total again never double-counts. Assumes one feeder at a time.
    pub fn advance_to(&self, total: u64) {
        let cur = self.get();
        if total > cur {
            self.add(total - cur);
        }
    }
}

/// An instantaneous value: last write wins.
///
/// Used for ratios and sizes fed in at snapshot time (epoch hit rate,
/// active access points, …). Stored as millionths of the set `f64` so the
/// cell stays a single atomic without transmuting bits (the crate forbids
/// `unsafe`).
///
/// # Examples
///
/// ```
/// use crace_obs::Gauge;
///
/// let g = Gauge::new();
/// g.set(0.75);
/// assert!((g.get() - 0.75).abs() < 1e-6);
/// ```
#[derive(Default)]
pub struct Gauge {
    micros: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value. Resolution is 1e-6; magnitudes beyond ~9.2e12
    /// saturate.
    pub fn set(&self, value: f64) {
        let clamped = (value * 1e6).clamp(i64::MIN as f64, i64::MAX as f64);
        self.micros.store(clamped as i64, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        self.micros.load(Ordering::Relaxed) as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_accumulates_across_threads() {
        let c = Arc::new(Counter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_round_trips_fractions_and_negatives() {
        let g = Gauge::new();
        for v in [0.0, 1.0, 0.333333, -2.5, 1e9] {
            g.set(v);
            assert!((g.get() - v).abs() < 1e-5, "{v}");
        }
    }
}

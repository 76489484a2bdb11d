//! Offline stand-in for the crates.io `criterion` crate.
//!
//! The build environment has no network access, so the workspace vendors
//! the slice of the criterion API its benches use — `benchmark_group`,
//! `bench_function` / `bench_with_input`, `Bencher::iter`, `Throughput`,
//! `BenchmarkId` and the `criterion_group!` / `criterion_main!` macros —
//! backed by a small, honest wall-clock harness:
//!
//! * each benchmark is auto-calibrated (the iteration count is grown until
//!   one measurement batch exceeds ~100 ms),
//! * the reported number is the **median of 5 batches** (robust against a
//!   scheduler hiccup in any single batch),
//! * with an element throughput set, per-element time is derived from the
//!   same medians.
//!
//! There are no statistical confidence intervals, HTML reports,
//! baselines or result files: these are local tools, and the repository's
//! committed numbers come from the end-to-end benchmark instead. Output
//! goes to stdout, one line per benchmark:
//!
//! ```text
//! per_event/rd2 ... 3.04 ms/iter (304 ns/elem, 5x41 iters)
//! ```
//!
//! # Examples
//!
//! ```no_run
//! use criterion::{criterion_group, criterion_main, Criterion};
//!
//! fn bench_sum(c: &mut Criterion) {
//!     let mut group = c.benchmark_group("sums");
//!     group.bench_function("naive", |b| b.iter(|| (0..1000u64).sum::<u64>()));
//!     group.finish();
//! }
//!
//! criterion_group!(benches, bench_sum);
//! criterion_main!(benches);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target wall-clock time for one measurement batch.
const TARGET_BATCH: Duration = Duration::from_millis(100);

/// Number of measured batches; the median is reported.
const BATCHES: usize = 5;

/// The top-level benchmark driver (configuration carrier in the real
/// criterion; here it only needs to exist and hand out groups).
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            _criterion: self,
        }
    }
}

/// Throughput annotation: lets the harness report per-element cost.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// The measured routine processes this many logical elements per
    /// iteration.
    Elements(u64),
    /// The measured routine processes this many bytes per iteration.
    Bytes(u64),
}

/// A `group/function` benchmark identifier, with an optional parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id from a function name plus a parameter (`name/param`).
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{}/{parameter}", name.into()),
        }
    }

    /// An id from a parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId { id: s }
    }
}

/// A named group of benchmarks sharing a throughput setting.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the throughput used to derive per-element numbers for
    /// subsequent benchmarks in this group.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Measures `f`, which receives a [`Bencher`].
    pub fn bench_function<I: Into<BenchmarkId>>(
        &mut self,
        id: I,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut bencher = Bencher::new();
        f(&mut bencher);
        self.report(&id.into(), &bencher);
        self
    }

    /// Measures `f` with an input value (criterion's parameterized form).
    pub fn bench_with_input<I: Into<BenchmarkId>, T: ?Sized>(
        &mut self,
        id: I,
        input: &T,
        mut f: impl FnMut(&mut Bencher, &T),
    ) -> &mut Self {
        let mut bencher = Bencher::new();
        f(&mut bencher, input);
        self.report(&id.into(), &bencher);
        self
    }

    /// Ends the group (a no-op separator line, for parity with criterion).
    pub fn finish(self) {
        println!();
    }

    fn report(&self, id: &BenchmarkId, bencher: &Bencher) {
        let Some(m) = &bencher.measurement else {
            println!("{}/{id} ... no measurement", self.name);
            return;
        };
        let per_iter = m.median_per_iter();
        let detail = match self.throughput {
            Some(Throughput::Elements(n)) if n > 0 => {
                format!(" ({}/elem,", fmt_duration(per_iter / n as u32))
            }
            Some(Throughput::Bytes(n)) if n > 0 => {
                format!(" ({}/byte,", fmt_duration(per_iter / n as u32))
            }
            _ => " (".to_string(),
        };
        println!(
            "{}/{id} ... {}/iter{detail} {BATCHES}x{} iters)",
            self.name,
            fmt_duration(per_iter),
            m.iters_per_batch,
        );
    }
}

struct Measurement {
    batch_times: Vec<Duration>,
    iters_per_batch: u64,
}

impl Measurement {
    fn median_per_iter(&self) -> Duration {
        let mut sorted = self.batch_times.clone();
        sorted.sort();
        sorted[sorted.len() / 2] / self.iters_per_batch.max(1) as u32
    }
}

/// Drives one benchmark routine: calibrates, then measures.
pub struct Bencher {
    measurement: Option<Measurement>,
}

impl Bencher {
    fn new() -> Bencher {
        Bencher { measurement: None }
    }

    /// Calibrates and measures `routine`, retaining batch timings for the
    /// group to report. The routine's output is passed through
    /// [`black_box`] so its computation cannot be optimized away.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // Calibration: grow the iteration count until one batch takes
        // long enough to trust the clock.
        let mut iters: u64 = 1;
        loop {
            let t = Self::time_batch(&mut routine, iters);
            if t >= TARGET_BATCH || iters >= (1 << 30) {
                break;
            }
            // Aim directly at the target, with a growth cap to smooth
            // over noisy early readings.
            let factor = (TARGET_BATCH.as_secs_f64() / t.as_secs_f64().max(1e-9)).min(16.0);
            iters = ((iters as f64 * factor).ceil() as u64).max(iters + 1);
        }
        let batch_times = (0..BATCHES)
            .map(|_| Self::time_batch(&mut routine, iters))
            .collect();
        self.measurement = Some(Measurement {
            batch_times,
            iters_per_batch: iters,
        });
    }

    fn time_batch<O>(routine: &mut impl FnMut() -> O, iters: u64) -> Duration {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        start.elapsed()
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("le", 64).to_string(), "le/64");
        assert_eq!(BenchmarkId::from_parameter("dict").to_string(), "dict");
    }

    #[test]
    fn fmt_duration_picks_unit() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
    }

    #[test]
    fn median_is_per_iteration() {
        let m = Measurement {
            batch_times: vec![
                Duration::from_millis(10),
                Duration::from_millis(30),
                Duration::from_millis(20),
            ],
            iters_per_batch: 10,
        };
        assert_eq!(m.median_per_iter(), Duration::from_millis(2));
    }
}

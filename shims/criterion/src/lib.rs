//! Offline stand-in for the `criterion` crate.
//!
//! Provides the subset of criterion's API used by the workspace's bench
//! targets — [`Criterion::benchmark_group`], [`BenchmarkGroup`] with
//! `sample_size`/`throughput`/`bench_function`/`bench_with_input`,
//! [`Bencher::iter`], [`BenchmarkId`], [`Throughput`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros — with a simple
//! wall-clock measurement loop instead of criterion's statistics. Output
//! is one line per benchmark: mean time per iteration plus derived
//! throughput when configured.
//!
//! When the binary is invoked without `--bench` (as `cargo test` does
//! for `harness = false` bench targets), every benchmark body runs
//! exactly once as a smoke test and no timing is reported.

#![warn(missing_docs)]

use std::fmt;
use std::time::{Duration, Instant};

/// Measurement throughput basis for a group.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Items processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark name parameterised by an input label.
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            name: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// The benchmark driver handed to `criterion_group!` functions.
pub struct Criterion {
    smoke_only: bool,
}

impl Default for Criterion {
    fn default() -> Criterion {
        // Full measurement only under `cargo bench` (which passes
        // `--bench`); `cargo test` runs bench targets as smoke tests.
        let smoke_only = !std::env::args().any(|a| a == "--bench");
        Criterion { smoke_only }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            smoke_only: self.smoke_only,
            throughput: None,
            _parent: std::marker::PhantomData,
        }
    }

    /// Benchmarks outside any group.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) -> &mut Criterion {
        let smoke = self.smoke_only;
        run_one("", name, smoke, None, f);
        self
    }
}

/// A group of benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    smoke_only: bool,
    throughput: Option<Throughput>,
    _parent: std::marker::PhantomData<&'a ()>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim sizes its own loop.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; the shim ignores it.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Sets the per-iteration throughput basis for derived rates.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function(
        &mut self,
        id: impl fmt::Display,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        run_one(
            &self.name,
            &id.to_string(),
            self.smoke_only,
            self.throughput,
            f,
        );
        self
    }

    /// Runs one benchmark with an explicit input.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        run_one(
            &self.name,
            &id.to_string(),
            self.smoke_only,
            self.throughput,
            |b| f(b, input),
        );
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Times a closure; handed to each benchmark body.
pub struct Bencher {
    smoke_only: bool,
    nanos_per_iter: f64,
}

impl Bencher {
    /// Measures `f`, storing mean nanoseconds per call.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        self.iter_custom(|iters| {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            start.elapsed()
        });
    }

    /// Measures a routine that times itself: `f(iters)` runs `iters`
    /// iterations and returns the time they took, so per-iteration setup
    /// and teardown can stay off the clock (criterion's `iter_custom`).
    pub fn iter_custom<F: FnMut(u64) -> Duration>(&mut self, mut f: F) {
        if self.smoke_only {
            f(1);
            return;
        }
        f(1); // warm-up
        let mut iters = 1u64;
        loop {
            let elapsed = f(iters);
            if elapsed >= Duration::from_millis(50) || iters >= 1 << 22 {
                self.nanos_per_iter = elapsed.as_nanos() as f64 / iters as f64;
                return;
            }
            iters *= 4;
        }
    }
}

fn run_one(
    group: &str,
    name: &str,
    smoke_only: bool,
    throughput: Option<Throughput>,
    mut f: impl FnMut(&mut Bencher),
) {
    let label = if group.is_empty() {
        name.to_string()
    } else {
        format!("{group}/{name}")
    };
    let mut b = Bencher {
        smoke_only,
        nanos_per_iter: 0.0,
    };
    f(&mut b);
    if smoke_only {
        println!("bench {label}: ok (smoke)");
        return;
    }
    let per_iter = Duration::from_nanos(b.nanos_per_iter as u64);
    match throughput {
        Some(Throughput::Elements(n)) => {
            let rate = n as f64 / (b.nanos_per_iter / 1e9);
            println!("bench {label}: {per_iter:?}/iter, {rate:.0} elem/s");
        }
        Some(Throughput::Bytes(n)) => {
            let rate = n as f64 / (b.nanos_per_iter / 1e9) / (1024.0 * 1024.0);
            println!("bench {label}: {per_iter:?}/iter, {rate:.1} MiB/s");
        }
        None => println!("bench {label}: {per_iter:?}/iter"),
    }
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the bench binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

/// Opaque-value helper; re-exported for criterion compatibility.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

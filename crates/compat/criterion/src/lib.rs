//! Vendored stand-in for `criterion`: same macro + builder surface, backed
//! by a simple mean-of-samples wall-clock harness. Benches compile with
//! `cargo bench --no-run` and produce one `name/id  mean  (samples)` line per
//! benchmark when run. Statistical rigor (outlier analysis, regression
//! detection) is out of scope for the offline stub — absolute numbers and
//! A/B ratios within one run are what the evaluation reads.

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Mirrors `criterion::profiler`: the hook external profilers (e.g. the
/// vendored `pprof` stand-in) implement to run around each benchmark.
pub mod profiler {
    use std::path::Path;

    /// Started before a benchmark's timed samples and stopped after them.
    /// `benchmark_dir` is where a real profiler would drop its artifacts
    /// (the stub passes `target/criterion/<group>`).
    pub trait Profiler {
        fn start_profiling(&mut self, benchmark_id: &str, benchmark_dir: &Path);
        fn stop_profiling(&mut self, benchmark_id: &str, benchmark_dir: &Path);
    }
}

/// Harness entry point, mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    profiler: Option<Box<dyn profiler::Profiler>>,
}

impl Criterion {
    /// Installs a profiler hook, mirroring `Criterion::with_profiler`
    /// (real criterion is generic over the measurement; the stub keeps
    /// wall-clock and boxes the profiler).
    pub fn with_profiler<P: profiler::Profiler + 'static>(mut self, p: P) -> Self {
        self.profiler = Some(Box::new(p));
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.into(),
            sample_size: 10,
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark (criterion's floor is 10; the
    /// stub honors whatever is asked, minimum 1).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_one(
            &self.name,
            &id.label(),
            self.sample_size,
            self.c.profiler.as_deref_mut(),
            f,
        );
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input));
    }

    pub fn finish(self) {}
}

/// A benchmark identifier: function name plus an optional parameter.
pub struct BenchmarkId {
    function: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            function: function.into(),
            parameter: Some(parameter.to_string()),
        }
    }

    fn label(&self) -> String {
        match &self.parameter {
            Some(p) => format!("{}/{p}", self.function),
            None => self.function.clone(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(function: &str) -> Self {
        BenchmarkId {
            function: function.to_owned(),
            parameter: None,
        }
    }
}

/// Passed to the benchmark closure; `iter` times the routine.
pub struct Bencher {
    samples: usize,
    /// Mean wall-clock time of one routine invocation, once measured.
    mean: Option<Duration>,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        black_box(routine()); // warm-up, primes caches and lazy state
        let start = Instant::now();
        for _ in 0..self.samples {
            black_box(routine());
        }
        self.mean = Some(start.elapsed() / self.samples as u32);
    }
}

fn run_one<F>(
    group: &str,
    id: &str,
    samples: usize,
    mut profiler: Option<&mut (dyn profiler::Profiler + 'static)>,
    mut f: F,
) where
    F: FnMut(&mut Bencher),
{
    let mut b = Bencher {
        samples,
        mean: None,
    };
    let label = if id.is_empty() {
        group.to_owned()
    } else {
        format!("{group}/{id}")
    };
    let bench_dir = std::path::PathBuf::from("target/criterion").join(group);
    if let Some(p) = profiler.as_deref_mut() {
        p.start_profiling(&label, &bench_dir);
    }
    f(&mut b);
    if let Some(p) = profiler {
        p.stop_profiling(&label, &bench_dir);
    }
    match b.mean {
        Some(mean) => println!(
            "{label:<50} time: {:>12.3} us  ({samples} samples)",
            mean.as_secs_f64() * 1e6
        ),
        None => println!("{label:<50} (no iter() call)"),
    }
}

/// Mirrors `criterion_group!`: defines a function running each target.
/// The `name = …; config = …; targets = …` arm mirrors criterion's
/// configured form (the shape profiler hooks are installed through).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $config;
            $($target(&mut c);)+
        }
    };
}

/// Mirrors `criterion_main!`: the bench binary's entry point.
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
    fn group_times_a_closure() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("stub");
        g.sample_size(3);
        let mut ran = 0u32;
        g.bench_function(BenchmarkId::new("count", 1), |b| b.iter(|| ran += 1));
        g.finish();
        // warm-up + 3 samples
        assert_eq!(ran, 4);
    }

    #[test]
    fn profiler_hook_wraps_every_benchmark() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        struct Counting {
            starts: Arc<AtomicUsize>,
            stops: Arc<AtomicUsize>,
        }
        impl profiler::Profiler for Counting {
            fn start_profiling(&mut self, _id: &str, _dir: &std::path::Path) {
                self.starts.fetch_add(1, Ordering::Relaxed);
            }
            fn stop_profiling(&mut self, _id: &str, _dir: &std::path::Path) {
                self.stops.fetch_add(1, Ordering::Relaxed);
            }
        }
        let starts = Arc::new(AtomicUsize::new(0));
        let stops = Arc::new(AtomicUsize::new(0));
        let mut c = Criterion::default().with_profiler(Counting {
            starts: Arc::clone(&starts),
            stops: Arc::clone(&stops),
        });
        let mut g = c.benchmark_group("prof");
        g.sample_size(1);
        g.bench_function("a", |b| b.iter(|| 1 + 1));
        g.bench_function("b", |b| b.iter(|| 2 + 2));
        g.finish();
        assert_eq!(starts.load(Ordering::Relaxed), 2);
        assert_eq!(stops.load(Ordering::Relaxed), 2);
    }
}

//! Vendored stand-in for `pprof`'s criterion integration: the same
//! `PProfProfiler::new(frequency, Output::Flamegraph(..))` surface the real
//! crate exposes, so benches wire the profiler hook exactly as they would
//! against crates.io. The build environment has no registry access and no
//! in-process sampling signal support, so this stub does **not** fabricate
//! profiles — it implements the
//! [`criterion::profiler::Profiler`](::criterion::profiler::Profiler) hook,
//! announces where a real flamegraph would land, and otherwise stays out of
//! the timing path. Swapping in the real `pprof` is a Cargo.toml change
//! only.

pub mod criterion {
    use std::path::{Path, PathBuf};

    /// Mirrors `pprof::criterion::Output`: where the profile report goes.
    /// Only the flamegraph arm exists — it is the one the benches use.
    pub enum Output<'a> {
        /// Write a flamegraph SVG into the benchmark directory (or the
        /// given directory when `Some`).
        Flamegraph(Option<&'a Path>),
    }

    /// Mirrors `pprof::criterion::PProfProfiler`: a sampling CPU profiler
    /// run around each benchmark by criterion's `--profile-time` phase
    /// (the stub harness runs it around every benchmark).
    pub struct PProfProfiler<'a> {
        frequency: i32,
        output: Output<'a>,
    }

    impl<'a> PProfProfiler<'a> {
        /// `frequency` is the sampling rate in Hz (the real crate passes
        /// it to its signal-based sampler; recorded here for the
        /// announcement only).
        pub fn new(frequency: i32, output: Output<'a>) -> Self {
            PProfProfiler { frequency, output }
        }

        fn target_dir(&self, benchmark_dir: &Path) -> PathBuf {
            match &self.output {
                Output::Flamegraph(Some(dir)) => dir.to_path_buf(),
                Output::Flamegraph(None) => benchmark_dir.to_path_buf(),
            }
        }
    }

    impl ::criterion::profiler::Profiler for PProfProfiler<'_> {
        fn start_profiling(&mut self, benchmark_id: &str, benchmark_dir: &Path) {
            eprintln!(
                "[pprof stub] {benchmark_id}: sampling profiler unavailable in the \
                 offline build ({} Hz requested); no flamegraph will be written to {}",
                self.frequency,
                self.target_dir(benchmark_dir).display()
            );
        }

        fn stop_profiling(&mut self, _benchmark_id: &str, _benchmark_dir: &Path) {}
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use ::criterion::profiler::Profiler;

        #[test]
        fn profiler_wires_into_the_criterion_hook() {
            let mut p = PProfProfiler::new(1000, Output::Flamegraph(None));
            // The hook must be callable through the trait object surface
            // criterion stores — and must not panic or write anything.
            let p_dyn: &mut dyn Profiler = &mut p;
            p_dyn.start_profiling("stub/bench", Path::new("target/criterion/stub"));
            p_dyn.stop_profiling("stub/bench", Path::new("target/criterion/stub"));
        }

        #[test]
        fn explicit_output_dir_is_respected() {
            let dir = Path::new("/tmp/flamegraphs");
            let p = PProfProfiler::new(99, Output::Flamegraph(Some(dir)));
            assert_eq!(p.target_dir(Path::new("ignored")), dir);
            let p = PProfProfiler::new(99, Output::Flamegraph(None));
            assert_eq!(
                p.target_dir(Path::new("target/criterion/g")),
                Path::new("target/criterion/g")
            );
        }
    }
}

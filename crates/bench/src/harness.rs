//! The timing harness behind `bench_report`: named measurements, grouped
//! by a name prefix, each the median ns of up to 101 samples within a
//! 300 ms budget after 3 warm-up runs.
//!
//! [`Criterion::write_json`] dumps every measurement (with optional
//! [`BenchMeta`] — problem size in blocks, operations per iteration) as
//! one JSON line. `MIMOSE_BENCH_SMOKE=1` shrinks sampling to a fast smoke
//! run, so CI can exercise every suite without paying full measurement
//! cost.

use mimose_runtime::json::{self, Fixed};
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// True when `MIMOSE_BENCH_SMOKE` is set (non-empty, not `0`): suites run
/// with minimal sampling, checking only that the code paths work.
pub fn smoke_mode() -> bool {
    static SMOKE: OnceLock<bool> = OnceLock::new();
    *SMOKE.get_or_init(|| {
        std::env::var("MIMOSE_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
    })
}

/// Optional per-benchmark metadata carried into the JSON report.
#[derive(Debug, Clone, Copy)]
pub struct BenchMeta {
    /// Problem size in model blocks (planner/scheduler benches).
    pub blocks: Option<usize>,
    /// Allocator (or other) operations performed per iteration; the report
    /// derives ops/sec from this and the median iteration time.
    pub ops_per_iter: Option<u64>,
}

/// Per-benchmark measurement driver.
pub struct Bencher {
    /// Median nanoseconds per iteration, filled by the `iter*` methods.
    ns_per_iter: f64,
}

const WARMUP_ITERS: usize = 3;
const MAX_SAMPLES: usize = 101;
const SAMPLE_BUDGET: Duration = Duration::from_millis(300);

impl Bencher {
    fn measure<F: FnMut() -> Duration>(&mut self, mut one: F) {
        let (warmup, max_samples, budget) = if smoke_mode() {
            (0, 3, Duration::from_millis(20))
        } else {
            (WARMUP_ITERS, MAX_SAMPLES, SAMPLE_BUDGET)
        };
        for _ in 0..warmup {
            let _ = one();
        }
        let started = Instant::now();
        let mut samples = Vec::with_capacity(max_samples);
        while samples.len() < max_samples && (samples.is_empty() || started.elapsed() < budget) {
            samples.push(one().as_nanos() as f64);
        }
        samples.sort_by(f64::total_cmp);
        self.ns_per_iter = samples[samples.len() / 2];
    }

    /// Time `routine` directly.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        self.measure(|| {
            let t0 = Instant::now();
            std::hint::black_box(routine());
            t0.elapsed()
        });
    }

    /// Time `routine` on a mutable reference to a fresh value from `setup`
    /// (setup untimed).
    pub fn iter_batched_ref<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(&mut I) -> O,
    ) {
        self.measure(|| {
            let mut input = setup();
            let t0 = Instant::now();
            std::hint::black_box(routine(&mut input));
            t0.elapsed()
        });
    }
}

/// Result line for one benchmark.
struct Entry {
    name: String,
    ns_per_iter: f64,
    meta: BenchMeta,
}

/// Benchmark registry + runner.
#[derive(Default)]
pub struct Criterion {
    entries: Vec<Entry>,
}

impl Criterion {
    /// Open a named group; member benchmarks are prefixed with the group name.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            prefix: name.to_string(),
        }
    }

    /// Print all collected measurements.
    pub fn report(&self) {
        for e in &self.entries {
            println!("{:<48} {:>14.0} ns/iter", e.name, e.ns_per_iter);
        }
    }

    /// Serialise all measurements as a JSON document: suite name plus
    /// one record per bench with the median iteration time and any
    /// metadata.
    #[must_use]
    pub fn to_json(&self, suite: &str) -> String {
        json::object(|o| {
            o.field("suite", suite)
                .field("smoke", smoke_mode())
                .array("results", |a| {
                    for e in &self.entries {
                        a.object(|o| {
                            o.field("name", &e.name)
                                .field("median_ns", Fixed(e.ns_per_iter, 1));
                            if let Some(blocks) = e.meta.blocks {
                                o.field("blocks", blocks);
                            }
                            if let Some(ops) = e.meta.ops_per_iter {
                                o.field("ops_per_iter", ops);
                                if e.ns_per_iter > 0.0 {
                                    let per_sec = ops as f64 / (e.ns_per_iter * 1e-9);
                                    o.field("ops_per_sec", Fixed(per_sec, 1));
                                }
                            }
                        });
                    }
                });
        })
    }

    /// Write the JSON report to `path`, one line.
    pub fn write_json(&self, suite: &str, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "{}", self.to_json(suite))
    }
}

/// A named group: member benchmarks are prefixed with the group name.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    prefix: String,
}

impl BenchmarkGroup<'_> {
    /// Run one benchmark inside the group, carrying metadata into the
    /// JSON report.
    pub fn bench_function_with<F: FnMut(&mut Bencher)>(
        &mut self,
        name: &str,
        meta: BenchMeta,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher { ns_per_iter: 0.0 };
        f(&mut b);
        self.c.entries.push(Entry {
            name: format!("{}/{}", self.prefix, name),
            ns_per_iter: b.ns_per_iter,
            meta,
        });
        self
    }
}

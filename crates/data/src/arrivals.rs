//! Job-arrival processes for the fleet's event-driven serving mode.
//!
//! The paper exploits the fact that *input sizes* arrive as a stochastic
//! process the planner can adapt to; one level up, *jobs* arrive as a
//! stochastic process the scheduler must absorb. An [`ArrivalProcess`]
//! turns a seed into a deterministic, nondecreasing sequence of virtual
//! arrival offsets (nanoseconds on the cluster's event clock), so an
//! event-driven fleet run is reproducible from `(workload, arrivals,
//! faults)` alone.
//!
//! The stochastic variants ride on the same `mimose-rng` machinery as
//! [`LengthSampler`](crate::LengthSampler) — seeded `StdRng` streams and
//! inverse-CDF draws — and [`ArrivalProcess::Sampled`] plugs a
//! `LengthSampler` in directly as an inter-arrival-gap distribution.

use crate::LengthSampler;
use mimose_rng::{Rng, SeedableRng, StdRng};

/// How jobs arrive on the fleet's virtual clock.
///
/// Every variant is a pure function from `(self, n)` to `n` nondecreasing
/// arrival offsets in virtual nanoseconds — no shared stream, no wall
/// clock — so two runs with the same process are byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Every job is present at `t = 0` (the BSP batch-world assumption).
    Immediate,
    /// Poisson arrivals: independent exponential inter-arrival gaps with
    /// the given mean, drawn by inverse CDF from a seeded stream.
    Poisson {
        /// Mean inter-arrival gap in virtual nanoseconds.
        mean_gap_ns: u64,
        /// Seed for the gap stream.
        seed: u64,
    },
    /// A two-phase Markov-modulated Poisson process: the arrival rate
    /// alternates between a calm phase and a burst phase, with
    /// geometrically distributed phase lengths. Models the bursty traffic
    /// of the north-star serving scenario.
    Bursty {
        /// Mean inter-arrival gap during the calm phase, in virtual ns.
        calm_gap_ns: u64,
        /// Mean inter-arrival gap during the burst phase, in virtual ns.
        burst_gap_ns: u64,
        /// Mean number of arrivals per phase before switching (≥ 1).
        mean_phase_len: usize,
        /// Seed for the gap and phase-switch streams.
        seed: u64,
    },
    /// Inter-arrival gaps drawn from a [`LengthSampler`] distribution,
    /// scaled by `unit_ns` — reuses the paper's per-sample size
    /// distributions (normal, log-normal, ladder) as arrival shapes.
    Sampled {
        /// Distribution over gap multiples.
        gaps: LengthSampler,
        /// Virtual nanoseconds per sampled unit.
        unit_ns: u64,
        /// Seed for the gap stream.
        seed: u64,
    },
    /// Replay of an explicit arrival trace: absolute offsets in virtual
    /// nanoseconds, sorted ascending. Jobs beyond the trace extend at the
    /// trace's final inter-arrival gap.
    Trace {
        /// Absolute arrival offsets in virtual nanoseconds.
        offsets_ns: Vec<u64>,
    },
}

impl ArrivalProcess {
    /// All jobs at `t = 0`.
    #[must_use]
    pub fn immediate() -> Self {
        ArrivalProcess::Immediate
    }

    /// Poisson arrivals with the given mean inter-arrival gap.
    #[must_use]
    pub fn poisson(mean_gap_ns: u64, seed: u64) -> Self {
        ArrivalProcess::Poisson { mean_gap_ns, seed }
    }

    /// Bursty (two-phase MMPP) arrivals alternating between calm and
    /// burst rates. `mean_phase_len` is clamped to at least 1.
    #[must_use]
    pub fn bursty(calm_gap_ns: u64, burst_gap_ns: u64, mean_phase_len: usize, seed: u64) -> Self {
        ArrivalProcess::Bursty {
            calm_gap_ns,
            burst_gap_ns,
            mean_phase_len: mean_phase_len.max(1),
            seed,
        }
    }

    /// Inter-arrival gaps drawn from a [`LengthSampler`], `unit_ns` virtual
    /// nanoseconds per sampled unit.
    #[must_use]
    pub fn sampled(gaps: LengthSampler, unit_ns: u64, seed: u64) -> Self {
        ArrivalProcess::Sampled {
            gaps,
            unit_ns,
            seed,
        }
    }

    /// Replay an explicit trace of absolute arrival offsets (sorted here,
    /// so callers may pass them in any order).
    #[must_use]
    pub fn trace(mut offsets_ns: Vec<u64>) -> Self {
        offsets_ns.sort_unstable();
        ArrivalProcess::Trace { offsets_ns }
    }

    /// Parse a trace file: one absolute arrival offset (virtual ns) per
    /// line; blank lines and `#` comments are skipped. Offsets may appear
    /// in any order — they are sorted on construction.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first line that is not a `u64`.
    pub fn parse_trace(text: &str) -> Result<Self, String> {
        let mut offsets = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let ns: u64 = line.parse().map_err(|e| {
                format!(
                    "trace line {}: {:?} is not a u64 ns offset ({e})",
                    i + 1,
                    line
                )
            })?;
            offsets.push(ns);
        }
        Ok(ArrivalProcess::trace(offsets))
    }

    /// Short stable name of the variant ("immediate", "poisson", "bursty",
    /// "sampled", "trace") for reports and CLI round-trips.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Immediate => "immediate",
            ArrivalProcess::Poisson { .. } => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
            ArrivalProcess::Sampled { .. } => "sampled",
            ArrivalProcess::Trace { .. } => "trace",
        }
    }

    /// The first `n` arrival offsets in virtual nanoseconds, nondecreasing.
    /// Pure: the same `(self, n)` always produces the same sequence, and
    /// a longer request is a prefix-extension of a shorter one.
    #[must_use]
    pub fn arrival_ns(&self, n: usize) -> Vec<u64> {
        match self {
            ArrivalProcess::Immediate => vec![0; n],
            ArrivalProcess::Poisson { mean_gap_ns, seed } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let mut t = 0u64;
                (0..n)
                    .map(|_| {
                        t = t.saturating_add(exp_draw(&mut rng, *mean_gap_ns));
                        t
                    })
                    .collect()
            }
            ArrivalProcess::Bursty {
                calm_gap_ns,
                burst_gap_ns,
                mean_phase_len,
                seed,
            } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let switch_p = 1.0 / (*mean_phase_len).max(1) as f64;
                let mut calm = true;
                let mut t = 0u64;
                (0..n)
                    .map(|_| {
                        let mean = if calm { *calm_gap_ns } else { *burst_gap_ns };
                        t = t.saturating_add(exp_draw(&mut rng, mean));
                        // Geometric phase lengths: after each arrival the
                        // phase flips with probability 1/mean_phase_len.
                        if rng.gen::<f64>() < switch_p {
                            calm = !calm;
                        }
                        t
                    })
                    .collect()
            }
            ArrivalProcess::Sampled {
                gaps,
                unit_ns,
                seed,
            } => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let mut t = 0u64;
                (0..n)
                    .map(|_| {
                        let gap = (gaps.sample(&mut rng) as u64).saturating_mul(*unit_ns);
                        t = t.saturating_add(gap);
                        t
                    })
                    .collect()
            }
            ArrivalProcess::Trace { offsets_ns } => {
                if offsets_ns.is_empty() {
                    return vec![0; n];
                }
                let last = offsets_ns[offsets_ns.len() - 1];
                let final_gap = if offsets_ns.len() >= 2 {
                    last - offsets_ns[offsets_ns.len() - 2]
                } else {
                    0
                };
                (0..n)
                    .map(|i| {
                        if i < offsets_ns.len() {
                            offsets_ns[i]
                        } else {
                            let extra = (i - offsets_ns.len() + 1) as u64;
                            last.saturating_add(final_gap.saturating_mul(extra))
                        }
                    })
                    .collect()
            }
        }
    }
}

/// One exponential draw with the given mean, by inverse CDF, rounded to
/// whole nanoseconds. A zero mean yields zero gaps (back-to-back arrivals).
fn exp_draw<R: Rng + ?Sized>(rng: &mut R, mean_ns: u64) -> u64 {
    // Draw u in [0, 1); 1-u is in (0, 1] so ln() is finite and <= 0.
    let u: f64 = rng.gen();
    let gap = -(1.0 - u).max(f64::MIN_POSITIVE).ln() * mean_ns as f64;
    gap.round().min(u64::MAX as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn immediate_is_all_zeros() {
        assert_eq!(ArrivalProcess::immediate().arrival_ns(4), vec![0, 0, 0, 0]);
        assert_eq!(ArrivalProcess::immediate().arrival_ns(0), Vec::<u64>::new());
    }

    #[test]
    fn poisson_is_deterministic_nondecreasing_and_prefix_stable() {
        let p = ArrivalProcess::poisson(1_000_000, 42);
        let a = p.arrival_ns(100);
        let b = p.arrival_ns(100);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        // Longer requests extend, never rewrite, shorter ones.
        assert_eq!(&p.arrival_ns(150)[..100], &a[..]);
        // The empirical mean gap lands near the configured mean.
        let mean = a[99] as f64 / 100.0;
        assert!(
            (500_000.0..2_000_000.0).contains(&mean),
            "empirical mean gap {mean}"
        );
    }

    #[test]
    fn distinct_seeds_give_distinct_streams() {
        let a = ArrivalProcess::poisson(1_000_000, 1).arrival_ns(10);
        let b = ArrivalProcess::poisson(1_000_000, 2).arrival_ns(10);
        assert_ne!(a, b);
    }

    #[test]
    fn bursty_is_denser_than_its_calm_phase() {
        let calm_only = ArrivalProcess::poisson(1_000_000, 9).arrival_ns(200);
        let bursty = ArrivalProcess::bursty(1_000_000, 50_000, 10, 9).arrival_ns(200);
        assert!(bursty.windows(2).all(|w| w[0] <= w[1]));
        // Mixing in a 20x-faster burst phase must compress the horizon.
        assert!(
            bursty[199] < calm_only[199],
            "bursty horizon {} vs calm {}",
            bursty[199],
            calm_only[199]
        );
    }

    #[test]
    fn sampled_rides_a_length_sampler() {
        let p = ArrivalProcess::sampled(LengthSampler::Uniform { min: 2, max: 4 }, 1_000, 7);
        let a = p.arrival_ns(50);
        assert_eq!(a, p.arrival_ns(50));
        assert!(a
            .windows(2)
            .all(|w| w[1] - w[0] >= 2_000 && w[1] - w[0] <= 4_000));
    }

    #[test]
    fn trace_replays_sorts_and_extends() {
        let p = ArrivalProcess::trace(vec![3_000, 1_000, 2_000]);
        assert_eq!(p.name(), "trace");
        // Sorted on construction, extended at the final gap (1000).
        assert_eq!(p.arrival_ns(5), vec![1_000, 2_000, 3_000, 4_000, 5_000]);
        assert_eq!(ArrivalProcess::trace(vec![]).arrival_ns(3), vec![0, 0, 0]);
        assert_eq!(
            ArrivalProcess::trace(vec![500]).arrival_ns(3),
            vec![500, 500, 500]
        );
    }

    #[test]
    fn trace_parser_skips_comments_and_rejects_garbage() {
        let text = "# fleet trace\n1000\n\n  2000 \n# tail\n3000\n";
        let p = ArrivalProcess::parse_trace(text).unwrap();
        assert_eq!(p.arrival_ns(3), vec![1_000, 2_000, 3_000]);
        let err = ArrivalProcess::parse_trace("1000\nnope\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }
}

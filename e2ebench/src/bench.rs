//! What every workload shares: options, the measurement loop (set-ups and
//! timed rounds) and the process's peak memory.

use crate::stats::{median, quartiles};
use std::time::{Duration, Instant};

/// Set-up runs this many times per invocation; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
/// Timed rounds keep running until `--seconds` have passed, and at least
/// this many have run.
const MIN_ROUNDS: usize = 3;

/// The four workloads, in the order the all-workloads mode runs them.
pub const WORKLOADS: [&str; 4] = ["train-epoch", "train-chaos", "serve-overload", "fleet-bsp"];

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    /// Add one traced and one recorded round and report per-layer metrics.
    pub trace: bool,
    /// Toy sizes, one set-up and one timed round: every check, little time.
    pub smoke: bool,
}

/// A host timing over the timed rounds: the fast quartile, i.e. the third
/// quartile of per-round rates or the first quartile of per-round
/// latencies.
///
/// Neighbours on a shared machine only ever slow a round down, and they do
/// so in phases of several seconds: on the 2-vCPU shared VM this was built
/// on, a fixed CPU loop ran up to 1.8x slower for 5-10 s at a time. The
/// median over rounds moves with how much of a run such a phase covers. In
/// ten runs of one seed of `train-epoch` there, the median spread 11%
/// across runs and the fast quartile 6.7%.
pub fn fast_quartile(per_round: &[f64], rate: bool) -> f64 {
    let (q1, q3) = quartiles(per_round);
    if rate {
        q3
    } else {
        q1
    }
}

/// Set up, then run timed rounds for `opts.seconds` (at least
/// [`MIN_ROUNDS`]). The set-up is repeated [`SETUP_REPEATS`] − 1 more times
/// at even intervals over the rounds, each copy dropped at once, so that
/// `setup_s`, their median, samples the whole run rather than one moment
/// of it. Smoke mode sets up once and runs one round.
///
/// `round` returns a round's result and its timed host nanoseconds. Set-up
/// and round times are reported on standard error.
pub fn measure<S, R>(
    opts: &Opts,
    mut setup: impl FnMut() -> Result<S, String>,
    mut round: impl FnMut(&S) -> Result<(R, u64), String>,
) -> Result<(S, f64, Vec<R>), String> {
    let mut setup_s = Vec::new();
    let mut timed_setup = || -> Result<S, String> {
        let t0 = Instant::now();
        let state = setup()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        Ok(state)
    };
    let state = timed_setup()?;
    let repeats = if opts.smoke { 1 } else { SETUP_REPEATS };
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut round_ms = Vec::new();
    let mut setups = 1;
    loop {
        let (r, ns) = round(&state)?;
        rounds.push(r);
        round_ms.push(format!("{:.1}", ns as f64 / 1e6));
        if setups < repeats && start.elapsed() >= budget * setups as u32 / repeats as u32 {
            drop(timed_setup()?);
            setups += 1;
        }
        if opts.smoke || (rounds.len() >= MIN_ROUNDS && start.elapsed() >= budget) {
            break;
        }
    }
    for _ in setups..repeats {
        drop(timed_setup()?);
    }
    let setup_ms: Vec<String> = setup_s.iter().map(|t| format!("{:.1}", t * 1e3)).collect();
    eprintln!("e2e: {} set-ups, ms: {}", setup_s.len(), setup_ms.join(" "));
    eprintln!(
        "e2e: {} timed rounds, ms: {}",
        rounds.len(),
        round_ms.join(" ")
    );
    Ok((state, median(&setup_s), rounds))
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

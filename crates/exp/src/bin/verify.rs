//! `verify`: the static-verifier acceptance gate.
//!
//! Three sections, all differential:
//!
//! 1. **Sanitizer** — canonical schedule lowerings lint clean and every
//!    seeded mutant class is caught with its designated check id.
//! 2. **Soundness** — across randomized (task × planner × budget × batch
//!    window) draws, every issued [`SafetyCertificate`] is replayed in the
//!    simulated engine inside an arena of exactly its certified bound, at
//!    every input size in the certified bucket; one OOM fails the gate.
//!    Certification refusals are replayed at the requested budget to
//!    measure (not gate) the false-reject rate.
//! 3. **Plan cache** — a certified bucket hit in the Mimose plan cache
//!    serves with zero planner solves and zero revalidations.
//!
//! `--gate` runs the full acceptance volume (500 policy-driven seeds + 500
//! randomized-plan seeds); the default is a quick smoke (40 + 40). Pass
//! `--seeds N` to run N of each instead. Output: one JSON diagnostic per
//! failure on stdout, a human summary on stderr; exits 1 on any failure,
//! and 2 with usage on stderr for an unknown argument or a bad value.
//!
//! [`SafetyCertificate`]: mimose_verify::SafetyCertificate

use mimose_audit::Diagnostic;
use mimose_exp::verifygate::{check_cache_zero_solve, check_sanitizer, soundness_sweep};

const USAGE: &str = "\
verify — static-verifier gate: sanitizer, certificate soundness, plan-cache zero-solve

USAGE:
    verify [OPTIONS]

OPTIONS:
    --gate         full acceptance volume: 500 policy-driven + 500 randomized-plan seeds
    --seeds <N>    N seeds of each kind (N >= 1)  [40, or 500 with --gate]
";

#[derive(Debug, PartialEq)]
struct Args {
    gate: bool,
    /// Seeds of each kind, policy-driven and randomized-plan.
    seeds: u64,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut gate = false;
    let mut seeds = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--gate" => gate = true,
            "--seeds" => {
                let n: u64 = it
                    .next()
                    .ok_or("--seeds requires a value")?
                    .parse()
                    .map_err(|_| "--seeds must be a positive integer")?;
                if n == 0 {
                    return Err("--seeds must be a positive integer".into());
                }
                seeds = Some(n);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let seeds = seeds.unwrap_or(if gate { 500 } else { 40 });
    Ok(Args { gate, seeds })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Args { gate, seeds } = parse(&raw).unwrap_or_else(|e| {
        eprintln!("error: {e}\n");
        eprint!("{USAGE}");
        std::process::exit(2);
    });

    let mut failures: Vec<Diagnostic> = Vec::new();

    for f in check_sanitizer() {
        failures.push(Diagnostic::error("verify-sanitizer", "gate", f));
    }
    eprintln!(
        "verify: sanitizer section {} (mutant catalogue + canonical lowerings)",
        if failures.is_empty() { "ok" } else { "FAILED" }
    );

    let sweep = soundness_sweep(seeds, seeds);
    for f in &sweep.failures {
        failures.push(Diagnostic::error("verify-soundness", "gate", f.clone()));
    }
    eprintln!(
        "verify: soundness section over {} seeds — {} certified, {} refused \
         ({} false rejects, rate {:.1}%), {} replays, {} violation(s)",
        sweep.seeds,
        sweep.certified,
        sweep.rejected,
        sweep.false_rejects,
        sweep.false_reject_rate() * 100.0,
        sweep.replays,
        sweep.failures.len()
    );

    for f in check_cache_zero_solve() {
        failures.push(Diagnostic::error("verify-cache-zero-solve", "gate", f));
    }
    eprintln!("verify: plan-cache zero-solve section checked");

    for d in &failures {
        println!("{}", d.to_json());
    }
    eprintln!(
        "verify: {} failure(s){}",
        failures.len(),
        if gate { " [gate]" } else { "" }
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Result<Args, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn seed_counts_follow_the_flags() {
        let args = |gate, seeds| Args { gate, seeds };
        assert_eq!(parsed(&[]), Ok(args(false, 40)));
        assert_eq!(parsed(&["--gate"]), Ok(args(true, 500)));
        assert_eq!(parsed(&["--gate", "--seeds", "7"]), Ok(args(true, 7)));
        assert_eq!(parsed(&["--seeds", "7"]), Ok(args(false, 7)));
    }

    #[test]
    fn unknown_flags_and_bad_seed_counts_are_rejected() {
        assert_eq!(parsed(&["--gat"]), Err("unknown option '--gat'".into()));
        assert_eq!(parsed(&["--seeds"]), Err("--seeds requires a value".into()));
        for bad in ["ten", "-3", "0", ""] {
            assert_eq!(
                parsed(&["--seeds", bad]),
                Err("--seeds must be a positive integer".into()),
                "{bad}"
            );
        }
    }
}

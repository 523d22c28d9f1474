//! Runs the planner, arena, and recorded-iteration suites and writes
//! `BENCH_planner.json` + `BENCH_arena.json` + `BENCH_runtime.json` at the
//! repository root — the machine-readable record the acceptance criteria
//! (and future regression tracking) read.
//! `cargo run --release -p mimose-bench --bin bench_report`.
//!
//! Pass suite names (`planner`, `arena`, `runtime`) to regenerate a subset
//! — useful when one suite caught machine-load noise and the others are
//! fine: `cargo run --release -p mimose-bench --bin bench_report -- runtime`.
//! Any other argument is an error.

use mimose_bench::harness::Criterion;
use mimose_bench::suites::{arena_suite, planner_suite, runtime_suite};
use std::path::Path;

const USAGE: &str = "\
bench_report — time the planner, arena and runtime suites and write BENCH_<suite>.json

USAGE:
    bench_report [SUITE]...

SUITES:
    planner | arena | runtime   (default: all three)

ENVIRONMENT:
    MIMOSE_BENCH_SMOKE=1        minimal sampling, a fast check that the suites run
";

type Suite = fn(&mut Criterion);

const SUITES: [(&str, Suite); 3] = [
    ("planner", planner_suite),
    ("arena", arena_suite),
    ("runtime", runtime_suite),
];

/// The suites to run, in `SUITES` order: every suite when `args` is
/// empty, else the named ones. An unknown name is an error.
fn parse(args: &[String]) -> Result<Vec<(&'static str, Suite)>, String> {
    if let Some(bad) = args
        .iter()
        .find(|a| !SUITES.iter().any(|(name, _)| name == a))
    {
        return Err(format!("unknown suite '{bad}'"));
    }
    Ok(SUITES
        .into_iter()
        .filter(|(name, _)| args.is_empty() || args.iter().any(|a| a == name))
        .collect())
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let suites = parse(&raw).unwrap_or_else(|e| {
        eprintln!("error: {e}\n");
        eprint!("{USAGE}");
        std::process::exit(2);
    });
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for (name, suite) in suites {
        let mut c = Criterion::default();
        suite(&mut c);
        c.report();
        let path = root.join(format!("BENCH_{name}.json"));
        c.write_json(name, &path)
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse(&args).map(|suites| suites.into_iter().map(|(name, _)| name).collect())
    }

    #[test]
    fn suites_are_selected_by_name_in_a_fixed_order() {
        assert_eq!(names(&[]).unwrap(), ["planner", "arena", "runtime"]);
        assert_eq!(names(&["runtime", "arena"]).unwrap(), ["arena", "runtime"]);
        assert_eq!(names(&["runtime", "runtime"]).unwrap(), ["runtime"]);
    }

    #[test]
    fn unknown_suites_and_flags_are_rejected() {
        assert_eq!(names(&["runtim"]).unwrap_err(), "unknown suite 'runtim'");
        assert!(names(&["planner", "--smoke"]).is_err());
        assert!(names(&[""]).is_err());
    }
}

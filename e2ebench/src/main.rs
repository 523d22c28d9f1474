//! `e2e`: run the end-to-end benchmark, or compare two sets of its runs.

use mimose_e2e::bench::{Opts, WORKLOADS};
use mimose_e2e::json::Json;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage: e2e [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
       e2e --compare A B

  --workload NAME  run one workload in this process: train-epoch, train-chaos,
                   serve-overload or fleet-bsp. Without it, every workload
                   runs, each in a child process of its own.
  --seed N         input seed (default 97)
  --seconds S      keep running timed rounds for S seconds (default 10)
  --trace [0|1]    add a traced and a recorded round; the result line then
                   holds the per-layer metrics
  --smoke          toy sizes and one round, every correctness check
  --compare A B    compare the runs captured in files A and B against the
                   bounds in BENCHMARK.json

Prints `workload metric value unit` lines, then one JSON result line per
workload. Exits 1 when a correctness check fails, 2 on a usage or run error.";

enum Cmd {
    Run {
        workload: Option<String>,
        opts: Opts,
    },
    Compare(String, String),
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let mut workload = None;
    let mut compare = None;
    let mut opts = Opts {
        seed: 97,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value(&mut i, "--seconds")?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                opts.trace = true;
                match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        opts.trace = false;
                        i += 1;
                    }
                    Some("1") => i += 1,
                    _ => {}
                }
            }
            "--smoke" => opts.smoke = true,
            "--compare" => {
                let a = value(&mut i, "--compare")?;
                let b = value(&mut i, "--compare")?;
                compare = Some((a, b));
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if let Some(w) = &workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(match compare {
        Some((a, b)) => Cmd::Compare(a, b),
        None => Cmd::Run { workload, opts },
    })
}

/// Run one workload here and print its lines and result.
fn run_one(workload: &str, opts: &Opts) -> ExitCode {
    let mut out = match mimose_e2e::run_workload(workload, opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2e: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    let result = out.result_json(opts.trace);
    for line in out.lines(workload) {
        println!("{line}");
    }
    for e in &out.errors {
        eprintln!("e2e: {workload}: check failed: {e}");
    }
    println!("{result}");
    if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, each in a fresh child process, so peak memory and
/// allocator state belong to one workload.
fn run_all(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2e: cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if opts.smoke {
            cmd.arg("--smoke");
        }
        let output = match cmd.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("e2e: {workload}: cannot start: {e}");
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let correct = stdout
            .lines()
            .last()
            .and_then(|l| Json::parse(l).ok())
            .and_then(|v| v.get("correct").cloned())
            == Some(Json::Bool(true));
        if !output.status.success() || !correct {
            eprintln!("e2e: {workload}: failed ({})", output.status);
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare(a: &str, b: &str) -> ExitCode {
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    // BENCHMARK.json sits at the repository root, one level above this crate.
    let benchmark = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let table = read(benchmark)
        .and_then(|bm| Ok((bm, read(a)?, read(b)?)))
        .and_then(|(bm, a, b)| mimose_e2e::compare::compare(&bm, &a, &b));
    match table {
        Ok(table) => {
            println!("{table}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Cmd::Compare(a, b)) => compare(&a, &b),
        Ok(Cmd::Run {
            workload: Some(w),
            opts,
        }) => run_one(&w, &opts),
        Ok(Cmd::Run {
            workload: None,
            opts,
        }) => run_all(&opts),
    }
}

//! `mimose_sim`: simulate budgeted training for any (task, planner, budget)
//! from the command line; text summary or per-iteration CSV.

use mimose::prelude::*;
use mimose_exp::cli::{find_task, parse_args, SimOptions, USAGE};
use mimose_exp::csv::iterations_to_csv;
use mimose_exp::planners::build_policy;
use mimose_exp::table::{gib, ms};

fn run(opt: &SimOptions) {
    let task = find_task(&opt.task).expect("validated by parse_args");
    let device = if opt.a100 {
        DeviceProfile::a100()
    } else {
        DeviceProfile::v100()
    };
    let reports = Session::builder(&task.model, &task.dataset)
        .policy_boxed(build_policy(opt.planner, &task, opt.budget_bytes))
        .seed(opt.seed)
        .device(device)
        .build()
        .and_then(|mut session| session.run(opt.iters))
        .expect("training run");
    if opt.csv {
        print!("{}", iterations_to_csv(&reports));
        return;
    }
    let mut summary = RunSummary::default();
    for r in &reports {
        summary.absorb(r);
    }
    println!(
        "task {} | planner {} | budget {} GiB | {} iters | device {}",
        task.abbr,
        opt.planner.name(),
        gib(opt.budget_bytes),
        opt.iters,
        if opt.a100 { "A100" } else { "V100" }
    );
    println!(
        "total {} ms ({} ms/iter) | peak {} GiB | reserved {} GiB | frag {} GiB",
        ms(summary.total_ns),
        ms(summary.mean_iter_ns()),
        gib(summary.max_peak_bytes),
        gib(summary.max_peak_extent),
        gib(summary.max_frag_bytes),
    );
    println!(
        "compute {} ms | recompute {} ms | planning {} ms | bookkeeping {} ms | swap {} ms",
        ms(summary.time.compute_ns),
        ms(summary.time.recompute_ns),
        ms(summary.time.planning_ns),
        ms(summary.time.bookkeeping_ns),
        ms(summary.time.swap_ns),
    );
    println!(
        "oom iters: {} | shuttle iters: {}",
        summary.oom_iters, summary.shuttle_iters
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Some(opt)) => run(&opt),
        Ok(None) => print!("{USAGE}"),
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    }
}

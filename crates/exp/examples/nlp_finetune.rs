//! Fine-tuning scenario: compare every planner on QA-Bert (SQuAD) under the
//! same memory budget — the production "frequent fine-tuning" use case the
//! paper motivates, where the input-size distribution of the freshly
//! collected dataset is unknown in advance.
//!
//! Run with: `cargo run --release --example nlp_finetune`

use mimose::exec::Session;
use mimose_exp::planners::{build_policy, PlannerKind};
use mimose_exp::tasks::Task;

fn main() {
    let task = Task::qa_bert();
    let budget = 6usize << 30;
    let iters = 200;

    println!(
        "task: {} — {} on {} (batch {}), budget {} GiB, {} iterations\n",
        task.abbr,
        task.kind,
        task.dataset.name(),
        task.dataset.batch_size(),
        budget >> 30,
        iters
    );

    println!("planner    total(s)  vs baseline  peak(GiB)  recompute%  oom");
    let mut baseline_ns = None;
    for kind in PlannerKind::comparison_set() {
        let s = Session::builder(&task.model, &task.dataset)
            .policy_boxed(build_policy(kind, &task, budget))
            .seed(7)
            .build()
            .and_then(|mut session| session.run_summary(iters))
            .expect("run");
        if kind == PlannerKind::Baseline {
            baseline_ns = Some(s.total_ns);
        }
        let norm = s.total_ns as f64 / baseline_ns.expect("baseline first") as f64;
        println!(
            "{:<9}  {:>8.2}  {:>11.3}  {:>9.2}  {:>9.1}%  {:>3}",
            kind.name(),
            s.total_ns as f64 / 1e9,
            norm,
            s.max_peak_extent as f64 / (1u64 << 30) as f64,
            s.time.recompute_ns as f64 / s.time.total_ns() as f64 * 100.0,
            s.oom_iters
        );
    }

    println!("\nExpected shape (paper Fig 10): Mimose closest to baseline; the");
    println!("static planners pay worst-case recomputation on every iteration;");
    println!("DTR pays metadata maintenance and exceeds the nominal budget.");
}

//! Object-detection scenario: ResNet-50 on COCO-like multi-scale data.
//!
//! Multi-scale resize (short side 480–800, long side ≤ 1333) makes the
//! collated image shape fluctuate wildly across iterations — the strongest
//! form of the input dynamics Mimose exploits. Static tensor planners must
//! solve against one exported shape and blow through the budget on larger
//! ones (§VI-B).
//!
//! Run with: `cargo run --release --example object_detection`

use mimose::core::{MimoseConfig, MimosePolicy};
use mimose::exec::Session;
use mimose::planner::SublinearPolicy;
use mimose_exp::tasks::Task;

fn main() {
    let task = Task::od_r50();
    let budget = 14usize << 30;
    let iters = 120;

    println!(
        "task: {} on {} (batch {}), budget {} GiB\n",
        task.abbr,
        task.dataset.name(),
        task.dataset.batch_size(),
        budget >> 30
    );

    // Show the input dynamics first.
    let mut stream = task.dataset.stream(3);
    println!("sample collated shapes after multi-scale resize + padding:");
    for _ in 0..8 {
        let b = stream.next_batch();
        println!("  input_size = {:>9} ({:?})", b.input_size(), b.kind);
    }
    println!();

    // Mimose vs the conservative static plan.
    let s_mimose = Session::builder(&task.model, &task.dataset)
        .policy(MimosePolicy::new(MimoseConfig::with_budget(budget)))
        .seed(9)
        .build()
        .and_then(|mut session| session.run_summary(iters))
        .expect("run");

    let worst = task.worst_profile();
    let s_sub = Session::builder(&task.model, &task.dataset)
        .policy(SublinearPolicy::plan_offline(&worst, budget))
        .seed(9)
        .build()
        .and_then(|mut session| session.run_summary(iters))
        .expect("run");

    println!("planner    total(s)  peak(GiB)  frag(GiB)  recompute%");
    for (name, s) in [("Mimose", &s_mimose), ("Sublinear", &s_sub)] {
        println!(
            "{:<9}  {:>8.2}  {:>9.2}  {:>9.2}  {:>9.1}%",
            name,
            s.total_ns as f64 / 1e9,
            s.max_peak_extent as f64 / (1u64 << 30) as f64,
            s.max_frag_bytes as f64 / (1u64 << 30) as f64,
            s.time.recompute_ns as f64 / s.time.total_ns() as f64 * 100.0,
        );
    }
    assert!(s_mimose.max_peak_extent <= budget);
    assert!(
        s_mimose.total_ns < s_sub.total_ns,
        "input-aware planning should beat the static worst-case plan"
    );
    println!(
        "\nMimose is {:.1}% faster by skipping recomputation on small images.",
        (1.0 - s_mimose.total_ns as f64 / s_sub.total_ns as f64) * 100.0
    );
}

//! Quickstart: train BERT-base on a GLUE-QQP-like stream under a 5 GiB
//! budget with Mimose, and watch the planner move from sheltered collection
//! to responsive per-input planning.
//!
//! Run with: `cargo run --release --example quickstart`

use mimose::core::{MimoseConfig, MimosePolicy, Phase};
use mimose::data::presets;
use mimose::exec::Session;
use mimose::models::builders::{bert_base, BertHead};
use mimose::planner::MemoryPolicy;

fn main() {
    let budget = 5usize << 30;
    let model = bert_base(BertHead::Classification { labels: 2 }).optimize();
    let dataset = presets::glue_qqp();

    println!(
        "model: {} ({:.1} M params), dataset: {} (batch {})",
        model.name,
        model.param_count() as f64 / 1e6,
        dataset.name(),
        dataset.batch_size()
    );
    println!("budget: {} GiB\n", budget >> 30);

    let mut policy = MimosePolicy::new(MimoseConfig::with_budget(budget));
    // The session borrows the policy, so its state stays readable after
    // the run.
    let reports = Session::builder(&model, &dataset)
        .policy(&mut policy)
        .seed(42)
        .build()
        .and_then(|mut session| session.run(40))
        .expect("training run");

    println!("iter  seqlen  phase       peak(GiB)  ckpt  time(ms)");
    for (i, report) in reports.into_iter().enumerate() {
        let phase = if report.shuttle {
            "sheltered "
        } else {
            "responsive"
        };
        println!(
            "{:>4}  {:>6}  {}  {:>9.2}  {:>4}  {:>8.1}",
            i,
            report.input.per_sample_extent(),
            phase,
            report.peak_bytes as f64 / (1u64 << 30) as f64,
            report.dropped_units,
            report.time.total_ns() as f64 / 1e6,
        );
        assert!(report.ok(), "iteration {i} ran out of memory");
        assert!(report.peak_bytes <= budget, "budget violated at iter {i}");
    }

    assert_eq!(policy.phase(), Phase::Responsive);
    let stats = policy.stats();
    println!(
        "\ncollected {} shuttle iterations, generated {} plans ({} cache hits)",
        stats.shuttle_iters, stats.plans_generated, stats.cache_hits
    );
    let (lo, hi) = stats.plan_ns_range();
    println!(
        "plan generation latency: {:.0}~{:.0} us (the paper's sub-millisecond claim)",
        lo as f64 / 1e3,
        hi as f64 / 1e3
    );
    let _ = policy.budget_bytes();
}

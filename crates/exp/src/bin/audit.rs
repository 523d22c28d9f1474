//! `audit`: run every `mimose-audit` pass over every preset task × planner
//! combination and exit non-zero on any error-severity diagnostic.
//!
//! Per task: lint the worst-case and typical profiles, then for each
//! planner build its policy, lint the plan it emits for the typical input
//! (against the budget it was configured with), execute the plan in the
//! block engine with event recording enabled, and audit the recorded
//! [`ExecEvent`](mimose_runtime::ExecEvent) stream — its allocator
//! events go through the shadow replay (including `ArenaStats`
//! divergence) and any embedded recovery events through the ladder lint.
//! In debug builds the engine's own shadow checker additionally
//! cross-validates the allocator against the analytic residency curve at
//! every block boundary, fed from the same stream.
//!
//! Output: one JSON object per diagnostic on stdout, a human summary on
//! stderr. Pass `--errors-only` to suppress info/warning findings; any
//! other argument prints usage on stderr and exits 2.

use mimose_audit::{
    audit_exec_events, lint_fine_plan, lint_hybrid_plan, lint_plan, lint_profile, Diagnostic,
    Severity,
};
use mimose_exec::{BlockIteration, BlockMode};
use mimose_exp::planners::{build_policy, PlannerKind};
use mimose_exp::tasks::Task;
use mimose_planner::memory_model::min_feasible_budget;
use mimose_planner::Directive;
use mimose_simgpu::DeviceProfile;

const USAGE: &str = "\
audit — lint every task × planner and audit its recorded event stream

USAGE:
    audit [--errors-only]

OPTIONS:
    --errors-only    print only error-severity findings (exit 1 on any)
";

/// Whether only error-severity findings are printed. `--errors-only` is
/// the one argument; anything else is an error.
fn parse(args: &[String]) -> Result<bool, String> {
    let mut errors_only = false;
    for arg in args {
        match arg.as_str() {
            "--errors-only" => errors_only = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(errors_only)
}

/// Unconstrained arena for trace collection: plan feasibility is judged
/// analytically by the linter, not by OOMing the engine.
const TRACE_CAPACITY: usize = 64 << 30;

fn all_kinds() -> Vec<PlannerKind> {
    let mut kinds = PlannerKind::comparison_set().to_vec();
    kinds.push(PlannerKind::MimoseKnapsack);
    kinds
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let errors_only = parse(&raw).unwrap_or_else(|e| {
        eprintln!("error: {e}\n");
        eprint!("{USAGE}");
        std::process::exit(2);
    });
    let dev = DeviceProfile::v100();
    let mut diags: Vec<Diagnostic> = Vec::new();

    for task in Task::all() {
        let worst = task.worst_profile();
        let typical = task.typical_profile();
        diags.extend(lint_profile(&worst));
        diags.extend(lint_profile(&typical));

        // Mid-range budget: halfway between the all-checkpointed floor and
        // the no-checkpoint peak of the worst-case input, so every planner
        // has a feasible but non-trivial target.
        let lo = min_feasible_budget(&worst);
        let hi = worst.peak_no_checkpoint();
        let budget = lo + (hi - lo) / 2;

        for kind in all_kinds() {
            let subject = format!("{}/{}", task.abbr, kind.name());
            let mut policy = build_policy(kind, &task, budget);
            // Baseline has no budget to honour; everything else does.
            let lint_budget =
                (policy.budget_bytes() != usize::MAX).then_some(policy.budget_bytes());
            let directive = policy.begin_iteration(0, &typical);

            let mode = match &directive {
                Directive::RunPlan(p) => {
                    diags.extend(lint_plan(&typical, p, lint_budget, &subject));
                    Some(BlockMode::Plan(p))
                }
                Directive::Shuttle(p) => {
                    diags.extend(lint_plan(&typical, p, lint_budget, &subject));
                    Some(BlockMode::Shuttle)
                }
                Directive::RunFine(fp) => {
                    diags.extend(lint_fine_plan(&typical, fp, lint_budget, &subject));
                    Some(BlockMode::Fine(fp))
                }
                Directive::RunHybrid(hp) => {
                    diags.extend(lint_hybrid_plan(&typical, hp, lint_budget, &subject));
                    Some(BlockMode::Hybrid(hp))
                }
                Directive::DtrDynamic => None, // no static plan to lint
            };

            if let Some(mode) = mode {
                let (run, events, stats) = BlockIteration::with_mode(&typical, mode)
                    .device(&dev)
                    .capacity(TRACE_CAPACITY)
                    .run_recorded();
                if let Some(oom) = &run.report.oom {
                    diags.push(Diagnostic::error(
                        "unconstrained-oom",
                        subject.clone(),
                        format!(
                            "engine OOMed in a {} GiB arena during {}",
                            TRACE_CAPACITY >> 30,
                            oom.phase
                        ),
                    ));
                }
                let mut stream_diags = audit_exec_events(TRACE_CAPACITY, &events, Some(&stats));
                for d in &mut stream_diags {
                    d.subject = format!("{subject}: {}", d.subject);
                }
                diags.extend(stream_diags);
            }
        }
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for d in &diags {
        match d.severity {
            Severity::Error => errors += 1,
            Severity::Warning => warnings += 1,
            Severity::Info => {}
        }
        if !errors_only || d.severity == Severity::Error {
            println!("{}", d.to_json());
        }
    }
    eprintln!(
        "audit: {} finding(s) — {errors} error(s), {warnings} warning(s), {} info",
        diags.len(),
        diags.len() - errors - warnings
    );
    if errors > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn errors_only_is_the_one_argument() {
        assert_eq!(parse(&v(&[])), Ok(false));
        assert_eq!(parse(&v(&["--errors-only"])), Ok(true));
        assert_eq!(
            parse(&v(&["--errors-onyl"])),
            Err("unknown option '--errors-onyl'".into())
        );
        assert!(parse(&v(&["--errors-only", "TC-Bert"])).is_err());
    }
}

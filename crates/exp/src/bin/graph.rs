//! `graph`: inspect the graph optimization pass layer — render a model's
//! block DAG with its stash annotations, the per-block before/after
//! memory and FLOP profile, and the pass-by-pass savings attribution.
//!
//! With `--gate`, exit non-zero unless the pass layer honours its
//! contract on the canonical builders: the `mimose-verify`
//! graph-equivalence lint clean on all four (identical FLOPs, identical
//! block boundaries, isomorphic dataflow, no unsound elision), a
//! measured activation-byte reduction floor on BERT and T5, and an
//! idempotent pipeline (a second run annotates and removes nothing).
//! The gate also writes `BENCH_graph.json` (pipeline wall time and
//! bytes saved per builder) at the repository root.

use mimose::models::builders::{bert_base, resnet50_od, roberta_base, t5_base, BertHead};
use mimose::models::{GraphDelta, ModelGraph, ModelInput, OptimizedGraph, StashMode};
use mimose_exp::table::{gib, render_table};
use mimose_runtime::json;
use std::path::Path;
use std::time::Instant;

const USAGE: &str = "\
graph — inspect the graph optimization pass layer

USAGE:
    graph [OPTIONS]

OPTIONS:
    --model <M>       bert | roberta | t5 | resnet50  [bert]
    --batch <N>       batch size  [32]
    --seqlen <N>      sequence length (NLP models)  [256]
    --dag             render the full block DAG with stash annotations
    --gate            run the equivalence/reduction/idempotence gate and
                      write BENCH_graph.json at the repository root
    --help            print this message
";

struct Args {
    model: String,
    batch: usize,
    seqlen: usize,
    dag: bool,
    gate: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            model: "bert".into(),
            batch: 32,
            seqlen: 256,
            dag: false,
            gate: false,
        }
    }
}

fn parse(args: &[String]) -> Result<Option<Args>, String> {
    let mut a = Args::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--gate" => a.gate = true,
            "--dag" => a.dag = true,
            "--model" => {
                let m = value("--model")?;
                if !["bert", "roberta", "t5", "resnet50"].contains(&m.as_str()) {
                    return Err(format!("unknown model '{m}'"));
                }
                a.model = m.clone();
            }
            "--batch" => {
                a.batch = value("--batch")?
                    .parse()
                    .map_err(|_| "--batch must be an integer".to_string())?;
            }
            "--seqlen" => {
                a.seqlen = value("--seqlen")?
                    .parse()
                    .map_err(|_| "--seqlen must be an integer".to_string())?;
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if a.batch == 0 || a.seqlen == 0 {
        return Err("--batch and --seqlen must be positive".into());
    }
    Ok(Some(a))
}

fn build(model: &str, batch: usize, seqlen: usize) -> (ModelGraph, ModelInput) {
    match model {
        "bert" => (
            bert_base(BertHead::Classification { labels: 2 }),
            ModelInput::tokens(batch, seqlen),
        ),
        "roberta" => (
            roberta_base(BertHead::Classification { labels: 1 }),
            ModelInput::tokens(batch, seqlen),
        ),
        "t5" => (t5_base(), ModelInput::tokens(batch, seqlen)),
        "resnet50" => (resnet50_od(), ModelInput::image(batch, 640, 640)),
        other => unreachable!("parse admitted model '{other}'"),
    }
}

/// The four canonical builders the gate sweeps, with representative
/// inputs.
fn canonical() -> Vec<(&'static str, ModelGraph, ModelInput)> {
    vec![
        (
            "bert-base",
            bert_base(BertHead::Classification { labels: 2 }),
            ModelInput::tokens(32, 256),
        ),
        (
            "roberta-base",
            roberta_base(BertHead::Classification { labels: 1 }),
            ModelInput::tokens(16, 256),
        ),
        ("t5-base", t5_base(), ModelInput::tokens(8, 256)),
        ("resnet50-od", resnet50_od(), ModelInput::image(2, 640, 640)),
    ]
}

fn mib(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1u64 << 20) as f64)
}

fn gflop(flops: f64) -> String {
    format!("{:.2}", flops / 1e9)
}

fn stash_tag(mode: StashMode) -> &'static str {
    match mode {
        StashMode::Default => "",
        StashMode::MaskOnly => "  [mask-only]",
        StashMode::Elided => "  [elided]",
    }
}

/// Render every block's node DAG, collapsing runs of structurally
/// identical blocks within a stage (encoder layer 1..=11 repeat layer 0).
fn render_dag(opt: &OptimizedGraph) {
    let mut global = 0usize;
    for stage in &opt.stages {
        println!("stage {}:", stage.name);
        let mut i = 0usize;
        while i < stage.blocks.len() {
            let block = &stage.blocks[i];
            let ann = &opt.annotations()[global];
            let mut run = 1usize;
            while i + run < stage.blocks.len()
                && stage.blocks[i + run].nodes == block.nodes
                && opt.annotations()[global + run] == *ann
            {
                run += 1;
            }
            let times = if run > 1 {
                format!("  (x{run} structurally identical)")
            } else {
                String::new()
            };
            println!("  block {}{times}", block.name);
            for (ni, node) in block.nodes.iter().enumerate() {
                let inputs: Vec<String> =
                    node.inputs.iter().map(|inp| format!("{inp:?}")).collect();
                let by = match ann[ni].by {
                    Some(p) => format!("  <- {}", p.name()),
                    None => String::new(),
                };
                println!(
                    "    %{ni} = {}({}){}{}",
                    node.op.mnemonic(),
                    inputs.join(", "),
                    stash_tag(ann[ni].stash),
                    by
                );
            }
            global += run;
            i += run;
        }
    }
}

fn render_delta(name: &str, delta: &GraphDelta) {
    let rows: Vec<Vec<String>> = delta
        .per_block
        .iter()
        .map(|b| {
            vec![
                b.index.to_string(),
                b.name.clone(),
                mib(b.raw_act_bytes),
                mib(b.opt_act_bytes),
                mib(b.raw_act_bytes.saturating_sub(b.opt_act_bytes)),
                gflop(b.raw_fwd_flops),
                gflop(b.opt_fwd_flops),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!("{name}: per-block activation footprint, before/after passes"),
            &["#", "block", "raw(MiB)", "opt(MiB)", "saved", "raw GF", "opt GF",],
            &rows,
        )
    );
    println!();

    let pass_rows: Vec<Vec<String>> = delta
        .per_pass
        .iter()
        .map(|p| {
            vec![
                p.pass.name().to_string(),
                p.nodes.to_string(),
                mib(p.bytes_saved),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &format!("{name}: pass-by-pass attribution"),
            &["pass", "nodes", "saved(MiB)"],
            &pass_rows,
        )
    );
    println!(
        "\ntotal activation bytes {} -> {} ({} saved, {:.1}%) | \
         no-checkpoint peak {} -> {}",
        gib(delta.raw_act_bytes),
        gib(delta.opt_act_bytes),
        gib(delta.bytes_saved()),
        delta.bytes_saved() as f64 / delta.raw_act_bytes.max(1) as f64 * 100.0,
        gib(delta.raw_peak_bytes),
        gib(delta.opt_peak_bytes),
    );
}

struct BenchRow {
    model: &'static str,
    optimize_ns: u128,
    raw_act_bytes: usize,
    opt_act_bytes: usize,
    passes: Vec<(String, usize, usize)>,
}

fn bench_json(rows: &[BenchRow]) -> String {
    json::object(|o| {
        o.field("suite", "graph").array("builders", |a| {
            for r in rows {
                a.object(|o| {
                    o.field("model", r.model)
                        .field("optimize_ns", r.optimize_ns)
                        .field("raw_act_bytes", r.raw_act_bytes)
                        .field("opt_act_bytes", r.opt_act_bytes)
                        .field(
                            "bytes_saved",
                            r.raw_act_bytes.saturating_sub(r.opt_act_bytes),
                        )
                        .array("passes", |a| {
                            for (pass, nodes, saved) in &r.passes {
                                a.object(|o| {
                                    o.field("pass", pass)
                                        .field("nodes", nodes)
                                        .field("bytes_saved", saved);
                                });
                            }
                        });
                });
            }
        });
    }) + "\n"
}

fn gate() -> Vec<String> {
    let mut failures = Vec::new();
    let mut check = |name: &str, ok: bool, detail: String| {
        eprintln!("graph gate: {name}: {}", if ok { "ok" } else { "FAILED" });
        if !ok {
            failures.push(format!("{name}: {detail}"));
        }
    };

    let mut bench_rows = Vec::new();
    for (name, raw, input) in canonical() {
        // 1. Equivalence lint: the optimized graph must preserve FLOPs,
        // boundaries and dataflow, and every elision must re-derive as
        // safe in the independent verifier.
        let t0 = Instant::now();
        let opt = raw.optimize();
        let optimize_ns = t0.elapsed().as_nanos();
        let viols = mimose::audit::lint_optimized_graph(&opt, &input, name);
        check(
            &format!("{name}: equivalence lint"),
            viols.is_empty(),
            format!(
                "{:?}",
                viols.iter().map(|v| v.to_string()).collect::<Vec<_>>()
            ),
        );

        // 2. Idempotence: a second pipeline run is a structural fixpoint —
        // same graph, same annotations (re-derived, not accumulated),
        // nothing removed or rewired.
        let again = (*opt).clone().optimize();
        let noop = *again == *opt
            && again.annotations() == opt.annotations()
            && again
                .reports()
                .iter()
                .all(|r| r.nodes_removed == 0 && r.nodes_rewired == 0);
        check(
            &format!("{name}: pipeline idempotent"),
            noop,
            "second optimize() changed the graph or its annotations".into(),
        );

        let delta = opt.delta(&input).expect("canonical input profiles");
        eprintln!(
            "graph gate: {name}: {} -> {} act bytes ({:.1}% saved) in {:.2} ms",
            delta.raw_act_bytes,
            delta.opt_act_bytes,
            delta.bytes_saved() as f64 / delta.raw_act_bytes.max(1) as f64 * 100.0,
            optimize_ns as f64 / 1e6,
        );

        // 3. Reduction floor on the transformer builders: the paper's
        // encoder blocks keep GELU inputs but free the pure-elementwise
        // tails, worth well over 10% of the stash.
        if name == "bert-base" || name == "t5-base" {
            check(
                &format!("{name}: bytes-reduction floor"),
                delta.bytes_saved() * 10 >= delta.raw_act_bytes,
                format!(
                    "saved {} of {} raw activation bytes (< 10%)",
                    delta.bytes_saved(),
                    delta.raw_act_bytes
                ),
            );
        } else {
            check(
                &format!("{name}: bytes saved"),
                delta.bytes_saved() > 0,
                "pipeline saved nothing".into(),
            );
        }

        bench_rows.push(BenchRow {
            model: name,
            optimize_ns,
            raw_act_bytes: delta.raw_act_bytes,
            opt_act_bytes: delta.opt_act_bytes,
            passes: delta
                .per_pass
                .iter()
                .map(|p| (p.pass.name().to_string(), p.nodes, p.bytes_saved))
                .collect(),
        });
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_graph.json");
    match std::fs::write(&path, bench_json(&bench_rows)) {
        Ok(()) => eprintln!("graph gate: wrote {}", path.display()),
        Err(e) => failures.push(format!("BENCH_graph.json: {e}")),
    }

    failures
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(Some(a)) => a,
        Ok(None) => {
            print!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };

    if args.gate {
        let failures = gate();
        if failures.is_empty() {
            eprintln!("graph gate: every check passed");
        } else {
            for f in &failures {
                eprintln!("graph gate: FAILED: {f}");
            }
            std::process::exit(1);
        }
        return;
    }

    let (model, input) = build(&args.model, args.batch, args.seqlen);
    let opt = model.optimize();
    let delta = match opt.delta(&input) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if args.dag {
        render_dag(&opt);
        println!();
    }
    render_delta(&args.model, &delta);
}

//! `explain` — render causal run traces (`twq-obs`) as indented walk
//! transcripts, answering "why accepted / why rejected" from recorded
//! witnesses.
//!
//! ```sh
//! cargo run --release --bin explain                  # --e1 and --fo demos
//! cargo run --release --bin explain -- --e1 --jobs 4
//! cargo run --release --bin explain -- --fo
//! cargo run --release --bin explain -- --replay repros.jsonl
//! ```
//!
//! * `--e1` runs the paper's Example 3.2 on an accepting and a rejecting
//!   tree through the deterministic batch tracer, prints both walk
//!   transcripts with state/label names, and checks the merged trace is
//!   byte-identical for `--jobs 1` and `--jobs N` (causal IDs are
//!   worker-independent).
//! * `--fo` evaluates an FO sentence and a node selection under the trace
//!   collector and shows which nodes witnessed each quantifier.
//! * `--replay PATH` explains stored fuzz repros — the embedded
//!   first-divergence report plus a traced transcript of the base run
//!   (the same renderer as `fuzz --replay --explain`).
//!
//! Exit status: `0` when every internal self-check holds, `1` otherwise,
//! `2` for usage errors.

use twq::automata::{examples, run_with, Limits, RunReport, TwProgram};
use twq::exec::Pool;
use twq::fuzz::{explain_repro, explain_with_names, parse_jsonl};
use twq::guard::NullGuard;
use twq::logic::fo::build as fob;
use twq::logic::{eval_sentence_in, select_in};
use twq::obs::{explain_verdict, Namer, Trace, TraceCollector, Verdict};
use twq::tree::{DelimTree, Label, Tree, Value, Vocab};

/// One causal trace per tree, recorded across `pool` and merged in input
/// order, so the merged trace is the same for every pool size.
fn traced_batch(prog: &TwProgram, trees: &[Tree], pool: &Pool) -> (Vec<RunReport>, Trace) {
    let (reports, traces) = pool
        .scoped(trees.len(), |i| {
            let delim = DelimTree::build(&trees[i]);
            TraceCollector::record("run", |c| run_with(prog, &delim, Limits::default(), c))
        })
        .into_iter()
        .unzip();
    (reports, Trace::merge_batch("run_batch", traces))
}

fn usage() -> ! {
    eprintln!("usage: explain [--e1] [--fo] [--replay PATH] [--jobs N]");
    std::process::exit(2);
}

/// Example 3.2 on one accepting and one rejecting tree: transcripts plus
/// the worker-independence check on the merged batch trace.
fn run_e1(jobs: usize) -> bool {
    let mut vocab = Vocab::new();
    let ex = examples::example_32(&mut vocab);
    let v1 = vocab.val_int(1);
    let v2 = vocab.val_int(2);
    // A δ-root with two σ-leaves: accepted iff both leaves carry the same
    // `a`-attribute (Example 3.2's language).
    let make = |vals: [Value; 2]| {
        let mut t = Tree::new(Label::Sym(ex.delta));
        for v in vals {
            let leaf = t.add_child(t.root(), Label::Sym(ex.sigma));
            t.set_attr(leaf, ex.attr, v);
        }
        t
    };
    let trees = vec![make([v1, v1]), make([v1, v2])];
    let (reports, merged) = traced_batch(&ex.program, &trees, &Pool::new(jobs));
    let (_, serial) = traced_batch(&ex.program, &trees, &Pool::new(1));
    let identical = merged.to_json_line() == serial.to_json_line();
    println!("== E1: Example 3.2 (all leaf-descendants of every δ share one a-value) ==");
    println!("batch traces byte-identical across --jobs 1 and --jobs {jobs}: {identical}\n");
    let mut ok = identical;
    for (i, (t, r)) in trees.iter().zip(&reports).enumerate() {
        let expect = i == 0;
        ok &= r.accepted() == expect;
        let delim = DelimTree::build(t);
        let (_, trace) = TraceCollector::record("run", |c| {
            run_with(&ex.program, &delim, Limits::default(), c)
        });
        println!(
            "-- tree {i} ({}) --",
            if r.accepted() { "accepted" } else { "rejected" }
        );
        print!(
            "{}",
            explain_with_names(&trace, &ex.program, &delim, &vocab)
        );
        println!();
    }
    ok
}

/// An FO sentence and a node selection with quantifier witnesses.
fn run_fo() -> bool {
    let mut vocab = Vocab::new();
    let sigma = vocab.sym("sigma");
    let delta = vocab.sym("delta");
    let mut t = Tree::new(Label::Sym(sigma));
    let _left = t.add_child(t.root(), Label::Sym(sigma));
    let mid = t.add_child(t.root(), Label::Sym(delta));
    let _grand = t.add_child(mid, Label::Sym(sigma));
    let labels: Vec<String> = t.node_ids().map(|u| t.label(u).display(&vocab)).collect();
    let node_namer = |n: u64| match labels.get(n as usize) {
        Some(l) => format!("n{n}:{l}"),
        None => format!("n{n}"),
    };
    let state_namer = |q: u32| format!("q{q}");
    let names = Namer {
        state: &state_namer,
        node: &node_namer,
    };

    println!("== FO: ∃x (O_δ(x) ∧ ¬leaf(x)) — which node witnesses the sentence? ==");
    let x = fob::var(0);
    let sentence = fob::exists(
        x,
        fob::and([fob::lab(Label::Sym(delta), x), fob::not(fob::leaf(x))]),
    );
    let (verdict, mut trace) = TraceCollector::record("eval_sentence", |c| {
        eval_sentence_in(&t, &sentence, c, &mut NullGuard)
    });
    if let Ok(b) = verdict {
        trace.root.verdict = Some(Verdict::Bool(b));
    }
    let mut ok = matches!(verdict, Ok(true));
    print!("{}", explain_verdict(&trace, &names));
    println!();
    print!("{}", trace.render_with(&names));
    ok &= trace.render().contains("witness");

    println!("\n== FO select: φ(x, y) = E(x, y) ∧ O_σ(y), from the root ==");
    let phi = fob::and([
        fob::edge(fob::var(0), fob::var(1)),
        fob::lab(Label::Sym(sigma), fob::var(1)),
    ]);
    let (selected, mut strace) = TraceCollector::record("select", |c| {
        select_in(
            &t,
            &phi,
            fob::var(0),
            t.root(),
            fob::var(1),
            c,
            &mut NullGuard,
        )
    });
    if let Ok(s) = &selected {
        strace.root.verdict = Some(Verdict::Bool(!s.is_empty()));
    }
    match &selected {
        Ok(s) => {
            let nodes: Vec<String> = s.iter().map(|u| node_namer(u64::from(u.0))).collect();
            println!("selected: [{}]", nodes.join(", "));
            ok &= s.len() == 1;
        }
        Err(e) => {
            println!("selection failed: {e}");
            ok = false;
        }
    }
    print!("{}", strace.render_with(&names));
    ok
}

/// Explain every repro in a JSONL file.
fn run_replay(path: &str) -> bool {
    let contents = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("explain: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let repros = match parse_jsonl(&contents) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("explain: cannot parse {path}: {e}");
            std::process::exit(2);
        }
    };
    for (i, r) in repros.iter().enumerate() {
        println!("== repro {} ==", i + 1);
        print!("{}", explain_repro(r));
        println!();
    }
    println!("explained {} repro(s)", repros.len());
    true
}

fn main() {
    let (mut e1, mut fo, mut jobs) = (false, false, 4usize);
    let mut replay: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--e1" => e1 = true,
            "--fo" => fo = true,
            "--replay" => match it.next() {
                Some(p) => replay = Some(p),
                None => usage(),
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => jobs = n,
                _ => usage(),
            },
            _ => usage(),
        }
    }
    let mut ok = true;
    if let Some(path) = &replay {
        ok &= run_replay(path);
    } else {
        // Default to both demos when no mode is given.
        if !e1 && !fo {
            e1 = true;
            fo = true;
        }
        if e1 {
            ok &= run_e1(jobs);
        }
        if fo {
            if e1 {
                println!();
            }
            ok &= run_fo();
        }
    }
    std::process::exit(i32::from(!ok));
}

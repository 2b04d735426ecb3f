//! Integration tests for the `twq-obs` instrumentation seam: collectors
//! must not change run semantics, metrics must describe the run the
//! engine actually performed, and the folds over a run's causal trace
//! (flame profile, post-mortem) must agree with those metrics.

use twq::automata::{
    examples, run_on_tree, run_with, Action, Dir, Halt, Limits, RunReport, TwProgram,
    TwProgramBuilder,
};
use twq::obs::trace::DEFAULT_MAX_SPANS;
use twq::obs::{
    explain_verdict, post_mortem, FoEval, HaltKind, MetricsCollector, Namer, RunMetrics, Trace,
    TraceCollector,
};
use twq::sim::compile_logspace;
use twq::tree::generate::{random_tree, TreeGenConfig};
use twq::tree::{parse_tree, DelimTree, Label, Tree, Vocab};
use twq::xtm::machines;

const ACCEPTED: &str = "sigma[a=0](delta[a=0](sigma[a=1],sigma[a=1]),sigma[a=2])";
const REJECTED: &str = "sigma[a=0](delta[a=0](sigma[a=1],sigma[a=2]),sigma[a=2])";

/// Instrumentation must be an observer: the `NullCollector` run (the
/// public entry point) and the `MetricsCollector` run of Example 3.2 end
/// the same way with the same step totals, on both verdicts.
#[test]
fn collectors_agree_on_example_32() {
    for (text, expect) in [(ACCEPTED, true), (REJECTED, false)] {
        let mut vocab = Vocab::new();
        let ex = examples::example_32(&mut vocab);
        let t = parse_tree(text, &mut vocab).unwrap();
        let plain = run_on_tree(&ex.program, &t, Limits::default());
        let mut mc = MetricsCollector::new();
        let measured = run_with(
            &ex.program,
            &DelimTree::build(&t),
            Limits::default(),
            &mut mc,
        );
        let m = mc.into_metrics();
        assert_eq!(plain.accepted(), expect, "verdict on {text}");
        assert_eq!(plain.halt, measured.halt);
        assert_eq!(plain.steps, measured.steps);
        assert_eq!(m.steps, plain.steps);
        assert_eq!(m.halt, Some(plain.halt.kind()));
        assert_eq!(m.halt.unwrap().accepted(), expect);
    }
}

/// The acceptance-criteria metrics for an Example 3.2 run: per-state step
/// counts that add up, the `atp` nesting the example is known to reach,
/// and the store high-water mark the engine itself reports.
#[test]
fn example_32_metrics_describe_the_run() {
    let mut vocab = Vocab::new();
    let ex = examples::example_32(&mut vocab);
    let t = parse_tree(ACCEPTED, &mut vocab).unwrap();
    let mut mc = MetricsCollector::new();
    let report = run_with(
        &ex.program,
        &DelimTree::build(&t),
        Limits::default(),
        &mut mc,
    );
    let m = mc.into_metrics();
    assert_eq!(m.steps_per_state.iter().sum::<u64>(), m.steps);
    assert!(
        m.steps_per_state.iter().filter(|&&s| s > 0).count() >= 3,
        "the example walks through q0, q_sel, and q_leaf at least"
    );
    assert_eq!(
        m.top_states(16).iter().map(|&(_, s)| s).sum::<u64>(),
        m.steps
    );
    // Main chain (depth 0) → atp(φ₁) subcomputations at δ-nodes (depth 1)
    // → atp(φ₂) leaf-collection chains (depth 2).
    assert_eq!(m.max_atp_depth, 2);
    assert_eq!(m.atp_calls, report.atp_calls);
    assert_eq!(m.subcomputations, report.subcomputations);
    assert_eq!(m.max_store_tuples, report.max_store_tuples);
    assert!(
        m.max_store_tuples > 0,
        "φ₂ stores the collected leaf values"
    );
    assert!(m.cycle_inserts > 0);
}

/// Run `prog` once under the pair collector: metrics and trace together.
fn measure(prog: &TwProgram, dt: &DelimTree, limits: Limits) -> (RunReport, RunMetrics, Trace) {
    let mut pair = (MetricsCollector::new(), TraceCollector::new());
    let report = run_with(prog, dt, limits, &mut pair);
    let (mc, tc) = pair;
    (report, mc.into_metrics(), tc.finish("run"))
}

/// The flame fold over the trace accounts for the run exactly: the
/// chain weights sum to the engine's step count, and each `fo_*` leaf
/// total equals the metrics' tally of that primitive — on Example 3.2
/// (nested `atp` look-ahead) and on a compiled pebble walker (one long
/// chain, thousands of steps past the per-span step cap).
#[test]
fn trace_fold_matches_run_metrics() {
    let mut vocab = Vocab::new();
    let ex = examples::example_32(&mut vocab);
    let dt = DelimTree::build(&parse_tree(ACCEPTED, &mut vocab).unwrap());
    let (report, m, trace) = measure(&ex.program, &dt, Limits::default());
    assert!(report.accepted());
    assert_fold_matches(&trace, &m);

    let (pebbles, dt) = leaf_count_even_walker(8);
    let (report, m, trace) = measure(&pebbles, &dt, Limits::long_walk());
    assert_eq!(report.halt, Halt::Stuck);
    assert!(m.steps > 4096, "outgrows the default step cap");
    assert_fold_matches(&trace, &m);
}

fn assert_fold_matches(trace: &Trace, m: &RunMetrics) {
    assert_eq!(trace.dropped_spans, 0);
    let mut chain_weight = 0;
    let mut fo = [0u64; FoEval::COUNT];
    for line in trace.collapsed_with("", |q| format!("q{q}")).lines() {
        let (stack, w) = line.rsplit_once(' ').expect("`stack weight`");
        let w: u64 = w.parse().unwrap();
        let leaf = stack.rsplit(';').next().unwrap();
        assert_ne!(leaf, "(root)", "every step happens inside a chain");
        match FoEval::ALL
            .iter()
            .find(|k| leaf == format!("fo_{}", k.name()))
        {
            Some(k) => fo[*k as usize] += w,
            None => chain_weight += w,
        }
    }
    assert!(m.steps > 0);
    assert_eq!(chain_weight, m.steps);
    for k in FoEval::ALL {
        assert_eq!(fo[k as usize], m.fo(k), "fo_{}", k.name());
    }
    assert_eq!(
        trace.total_weight(),
        m.steps + m.fo_evals.iter().sum::<u64>()
    );
}

/// E3's compiled walker: the logspace xTM `leaf_count_even` as a `TW`
/// pebble walker, on the seed-2 random tree of `n` nodes with unique ids.
fn leaf_count_even_walker(n: usize) -> (TwProgram, DelimTree) {
    let mut vocab = Vocab::new();
    let base = TreeGenConfig::example32(&mut vocab, 1, &[1]);
    let id = vocab.attr("id");
    let machine = machines::leaf_count_even(&base.symbols);
    let prog = compile_logspace(&machine, &base.symbols, id, &mut vocab).unwrap();
    let t = random_tree(&TreeGenConfig { nodes: n, ..base }, 2);
    let mut dt = DelimTree::build(&t);
    dt.assign_unique_ids(id, &mut vocab);
    (prog.program, dt)
}

/// A capped span keeps the *last* steps of its walk, so a trace under
/// the default cap still ends where the walk ended: its tail, and the
/// "ended at" of `explain_verdict`, equal those of the same run recorded
/// with room for every step.
#[test]
fn capped_trace_keeps_the_tail_of_a_long_walk() {
    let (prog, dt) = leaf_count_even_walker(8);
    let record = |mut c: TraceCollector| {
        let report = run_with(&prog, &dt, Limits::long_walk(), &mut c);
        assert_eq!(report.halt, Halt::Stuck);
        c.finish("run")
    };
    let capped = record(TraceCollector::new());
    let full = record(TraceCollector::with_caps(DEFAULT_MAX_SPANS, 1 << 20));
    let (c, f) = (&capped.root.children[0], &full.root.children[0]);
    assert_eq!(f.steps_dropped, 0);
    assert_eq!(f.steps.len(), 8052, "E3's n = 8 walk");
    assert_eq!(c.steps.len() as u64 + c.steps_dropped, 8052);
    assert!(c.steps_dropped > 0, "the default cap is exceeded");
    assert_eq!(&c.steps[..], &f.steps[f.steps.len() - c.steps.len()..]);
    let namer = Namer::plain();
    let ended = |t: &Trace| {
        let text = explain_verdict(t, &namer);
        let at = text.find("ended at").expect("a decisive chain");
        text[at..].lines().next().unwrap().to_owned()
    };
    let (n, q) = f.steps.last().unwrap();
    assert_eq!(ended(&capped), format!("ended at (n{n}, q{q})"));
    assert_eq!(ended(&capped), ended(&full));
}

/// A walker that marches down the spine (hopping right over each `⊳`
/// delimiter) and has no rule for the `△` it lands on under the leaf —
/// a guaranteed mid-tree `Stuck` after several steps.
fn stuck_walker(vocab: &mut Vocab) -> (TwProgram, Tree) {
    let s = vocab.sym("sigma");
    let t = parse_tree("sigma(sigma(sigma))", vocab).unwrap();
    let mut b = TwProgramBuilder::new();
    let q0 = b.state("q0");
    let q_f = b.state("qF");
    b.initial(q0).final_state(q_f);
    b.rule_true(Label::DelimRoot, q0, Action::Move(q0, Dir::Down));
    b.rule_true(Label::DelimOpen, q0, Action::Move(q0, Dir::Right));
    b.rule_true(Label::Sym(s), q0, Action::Move(q0, Dir::Down));
    (b.build().unwrap(), t)
}

/// The post-mortem of a `Stuck` run is a fold over its trace: the
/// stuck chain's head, then the last steps it kept, ending at the step
/// the walk got stuck after — even when a tiny step cap dropped the
/// earlier ones.
#[test]
fn post_mortem_captures_the_stuck_tail() {
    let mut vocab = Vocab::new();
    let (prog, t) = stuck_walker(&mut vocab);
    let dt = DelimTree::build(&t);
    let mut pair = (MetricsCollector::new(), TraceCollector::with_caps(16, 2));
    let report = run_with(&prog, &dt, Limits::default(), &mut pair);
    assert_eq!(report.halt, Halt::Stuck);
    assert!(report.steps >= 2, "walks the spine before sticking");
    let (mc, tc) = pair;
    assert_eq!(mc.metrics.halt, Some(HaltKind::Stuck));
    let trace = tc.finish("run");
    let chain = &trace.root.children[0];
    assert!(chain.steps_dropped > 0, "the run outgrew the 2-step window");
    let (_, full) = TraceCollector::record("run", |c| run_with(&prog, &dt, Limits::default(), c));
    let last = *full.root.children[0].steps.last().unwrap();
    assert_eq!(chain.steps.last(), Some(&last));

    let pm = post_mortem(&trace, &Namer::plain(), 16);
    let lines: Vec<&str> = pm.lines().collect();
    assert!(lines[0].starts_with("r.0 chain d0"), "{pm}");
    assert!(lines[0].ends_with("→ halt=stuck"), "{pm}");
    assert!(lines[1].ends_with("earlier step(s)"), "{pm}");
    let tail = format!("step (n{}, q{})", last.0, last.1);
    assert_eq!(
        lines.iter().rfind(|l| l.starts_with("step ")),
        Some(&tail.as_str()),
        "{pm}"
    );
}

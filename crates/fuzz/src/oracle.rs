//! The differential oracle: run one case through every applicable
//! evaluator pair and report the first disagreement.
//!
//! | pair | compared |
//! |------|----------|
//! | `run` vs `run_in(NullCollector, unlimited)` | full `RunReport` |
//! | `run` vs `run_batch` | full `RunReport`, every batch slot |
//! | `run` vs `run_routed` | acceptance (skipped on limit halts) |
//! | `run` vs `run(prune(P))` | acceptance (skipped on limit halts) |
//! | serial `run_in(guard)` vs `pool.scoped(run_in(guard))` | `Ok` report / trip reason + injected kind, per budget axis |
//! | `eval_sentence` vs `_memo` vs `_par` | boolean verdict |
//! | `select` vs `select_memo` vs `select_batch` vs `ExistsFormula::select` | node sets, every context node |
//! | serial `select_in(guard)` vs `pool.scoped(select_in(guard))` | `Ok` set / trip reason, per node |
//! | `eval_sentence` vs `eval_sentence(normalize_formula(φ))` | boolean verdict |
//! | `select` vs `select(normalize_formula(φ))` vs `normalize_exists(φ).select` | node sets, every context node |
//! | `eval_from` vs `eval_from(normal form)` | node sets, every context node |
//! | `eval_pairs` vs `eval_pairs(normal form)` | the full binary relation |
//! | `select` vs `fo_select_routed` | node sets, every context node, fragment-routed |
//! | `eval_from` vs `eval_plan_from(compile_xpath(p))` | node sets, every context node, bitset algebra |
//! | `eval_from` vs `execute_plan(plan_query(p))` | root node set; no index (certificate-chosen), and an index under `Auto`/`Index`/`Walk` |
//! | `run_routed(compile(p))` vs `run_routed(compile(normal form))` | acceptance |
//! | near-miss builder spec | rejected with the intended `ProgramError` |
//! | smelly program | analyzer diagnostics non-empty or pruner fired |
//!
//! A pair of contexts — a collector/guard pair handed to the same `_in`
//! entry, serially or fanned across a pool — is a pair like any other.
//! All comparisons are exact: evaluators disagreeing on *how* they fail
//! (trip reason, injected fault kind) count as discrepancies just like
//! wrong answers.

use twq_analyze::{analyze, prune, run_routed};
use twq_automata::{run, run_batch, run_in, run_with, Limits, TwProgram};
use twq_exec::Pool;
use twq_guard::{Guard, GuardError, ResourceGuard, TwqError};
use twq_index::{compile_xpath, eval_plan_from, fo_select_routed, CostModel, Force, TreeIndex};
use twq_logic::fo::build::exists;
use twq_logic::{
    eval_sentence, eval_sentence_memo, eval_sentence_par, select, select_batch, select_in,
    select_memo,
};
use twq_obs::{diff as trace_diff, Divergence, NullCollector, Trace, TraceCollector, Verdict};
use twq_rw::{
    execute_plan, normalize_exists, normalize_formula, plan_query, rewrite_in, RewriteCtx,
};
use twq_tree::{DelimTree, NodeId};
use twq_xpath::{eval_from, eval_pairs, xpath_to_program};

use crate::gen::{BudgetSpec, FormulaCase, ProgramCase};

/// Engine limits for fuzz runs: tight enough that cyclic or exploding
/// programs stop fast, loose enough that ordinary walks finish.
pub const FUZZ_LIMITS: Limits = Limits {
    max_steps: 20_000,
    max_atp_depth: 12,
    cycle_check_interval: 1,
};

/// A deliberately planted bug, used by `fuzz --self-test` to prove the
/// oracle catches discrepancies and the minimizer shrinks them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedBug {
    /// Flip the routed evaluator's acceptance on every tree with at least
    /// two nodes. Monotone in the tree, so delta debugging shrinks repros
    /// to a two-node witness.
    RoutedFlip,
}

impl InjectedBug {
    /// Stable CLI / repro-file name.
    pub fn name(self) -> &'static str {
        match self {
            InjectedBug::RoutedFlip => "routed-flip",
        }
    }

    /// Parse the stable name.
    pub fn from_name(s: &str) -> Option<InjectedBug> {
        match s {
            "routed-flip" => Some(InjectedBug::RoutedFlip),
            _ => None,
        }
    }
}

/// One observed disagreement between two evaluators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Discrepancy {
    /// Which evaluator pair disagreed (e.g. `"run vs run_routed"`).
    pub pair: String,
    /// What each side produced.
    pub detail: String,
    /// Causal first-divergence report, when both sides could be traced.
    /// Evaluators without a collector seam (routed graph evaluation,
    /// batch machinery) contribute verdict-only traces, so the divergence
    /// lands at the root span `r`.
    pub divergence: Option<Divergence>,
}

impl Discrepancy {
    fn new(pair: &str, detail: String) -> Self {
        Discrepancy {
            pair: pair.to_owned(),
            detail,
            divergence: None,
        }
    }

    fn diverging(pair: &str, detail: String, left: &Trace, right: &Trace) -> Self {
        let mut d = Discrepancy::new(pair, detail);
        d.divergence = Some(trace_diff(left, right).unwrap_or_else(|| Divergence {
            at: "r".to_owned(),
            left_label: left.label.clone(),
            right_label: right.label.clone(),
            left: left.root.head(),
            right: right.root.head(),
            left_accepted: left.verdict().and_then(|v| v.accepted()),
            right_accepted: right.verdict().and_then(|v| v.accepted()),
            note: "traces agree on re-run; divergence outside the traced surface".to_owned(),
        }));
        d
    }
}

impl std::fmt::Display for Discrepancy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.pair, self.detail)?;
        if let Some(d) = &self.divergence {
            write!(f, "\n  {d}")?;
        }
        Ok(())
    }
}

fn trip(e: &TwqError) -> &GuardError {
    e.guard()
        .expect("evaluators surface guard trips as TwqError::Guard")
}

/// Compare two guarded verdicts: `Ok` reports must be identical, `Err`
/// trips must agree on reason *and* injected fault kind.
fn verdicts_agree<T: PartialEq>(a: &Result<T, TwqError>, b: &Result<T, TwqError>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x == y,
        (Err(x), Err(y)) => {
            let (x, y) = (trip(x), trip(y));
            x.reason == y.reason && x.injected == y.injected
        }
        _ => false,
    }
}

fn verdict_str<T: std::fmt::Debug>(v: &Result<T, TwqError>) -> String {
    match v {
        Ok(x) => format!("Ok({x:?})"),
        Err(e) => {
            let g = trip(e);
            format!("Err(reason={:?}, injected={:?})", g.reason, g.injected)
        }
    }
}

/// The causal trace of a plain run.
pub(crate) fn traced_run(prog: &TwProgram, delim: &DelimTree) -> Trace {
    TraceCollector::record("run", |c| run_with(prog, delim, FUZZ_LIMITS, c)).1
}

/// The causal trace of a run under `guard`.
fn traced_run_in<G: Guard>(prog: &TwProgram, delim: &DelimTree, guard: &mut G) -> Trace {
    TraceCollector::record("run_in", |c| run_in(prog, delim, FUZZ_LIMITS, c, guard)).1
}

/// Run every evaluator pair applicable to a program case.
pub fn check_program_case(
    case: &ProgramCase,
    pool: &Pool,
    inject: Option<InjectedBug>,
) -> Option<Discrepancy> {
    let prog = &case.program;
    let delim = DelimTree::build(&case.tree);
    let base = run(prog, &delim, FUZZ_LIMITS);

    // 1. An unlimited guard must be invisible.
    let mut unlimited = ResourceGuard::unlimited();
    let guarded = run_in(
        prog,
        &delim,
        FUZZ_LIMITS,
        &mut NullCollector,
        &mut unlimited,
    );
    match guarded {
        Ok(ref r) if *r == base => {}
        other => {
            let lt = traced_run(prog, &delim);
            let rt = traced_run_in(prog, &delim, &mut ResourceGuard::unlimited());
            return Some(Discrepancy::diverging(
                "run vs run_in(unlimited)",
                format!("base={base:?} guarded={}", verdict_str(&other)),
                &lt,
                &rt,
            ));
        }
    }

    // 2. Batch slots must reproduce the serial report exactly.
    let trees = vec![case.tree.clone(), case.tree.clone(), case.tree.clone()];
    for (i, r) in run_batch(prog, &trees, FUZZ_LIMITS, pool)
        .iter()
        .enumerate()
    {
        if *r != base {
            let serial = traced_run(prog, &delim);
            let lt = Trace::merge_batch("run x3", vec![serial.clone(), serial.clone(), serial]);
            let items = pool.scoped(trees.len(), |i| {
                traced_run(prog, &DelimTree::build(&trees[i]))
            });
            let rt = Trace::merge_batch("run_batch", items);
            return Some(Discrepancy::diverging(
                "run vs run_batch",
                format!("slot {i}: base={base:?} batch={r:?}"),
                &lt,
                &rt,
            ));
        }
    }

    // 3. The routing layer (prune + class-routed evaluator choice) must
    // agree on acceptance whenever the direct run is definite. (On limit
    // halts the graph evaluator may legitimately finish where the direct
    // engine ran out, and vice versa.)
    if !base.halt.is_limit() {
        let routed = run_routed(prog, &delim, FUZZ_LIMITS);
        let mut routed_accepted = routed.accepted;
        if inject == Some(InjectedBug::RoutedFlip) && case.tree.len() >= 2 {
            routed_accepted = !routed_accepted;
        }
        if routed_accepted != base.accepted() {
            // The routed graph evaluator has no collector seam: its side is
            // a verdict-only trace, so the divergence pinpoints the root
            // acceptance flip (left/right_accepted carry the evidence).
            let lt = traced_run(prog, &delim);
            let rt = Trace::verdict_only(
                "run_routed",
                Verdict::Bool(routed_accepted),
                &format!("evaluator={:?}", routed.evaluator),
            );
            return Some(Discrepancy::diverging(
                "run vs run_routed",
                format!(
                    "base halt={:?} accepted={} routed({:?}) accepted={}",
                    base.halt,
                    base.accepted(),
                    routed.evaluator,
                    routed_accepted
                ),
                &lt,
                &rt,
            ));
        }
    }

    // 4. Pruning preserves acceptance — but not halt reasons: removing
    // rules of non-co-accessible states turns a doomed wander (Cycle,
    // step-limit) into an immediate Stuck. Compare acceptance only, on
    // definite base runs.
    if !base.halt.is_limit() {
        let pruned = prune(prog);
        let pruned_run = run(&pruned.program, &delim, FUZZ_LIMITS);
        if pruned_run.accepted() != base.accepted() {
            let lt = traced_run(prog, &delim);
            let mut rt = traced_run(&pruned.program, &delim);
            rt.label = "run(prune)".to_owned();
            return Some(Discrepancy::diverging(
                "run vs run(prune)",
                format!(
                    "base halt={:?} accepted={} pruned halt={:?} accepted={}",
                    base.halt,
                    base.accepted(),
                    pruned_run.halt,
                    pruned_run.accepted()
                ),
                &lt,
                &rt,
            ));
        }
    }

    // 5. Serial vs pooled guarded runs, one axis at a time plus the
    // combined spec — identical verdicts including trip reasons and
    // injected fault kinds.
    for spec in budget_axes(&case.budget) {
        let governed = |t: &twq_tree::Tree| {
            let mut g = spec.guard();
            run_in(
                prog,
                &DelimTree::build(t),
                FUZZ_LIMITS,
                &mut NullCollector,
                &mut g,
            )
        };
        let serial: Vec<_> = trees.iter().map(governed).collect();
        let batch = pool.scoped(trees.len(), |i| governed(&trees[i]));
        for (i, (s, b)) in serial.iter().zip(&batch).enumerate() {
            if !verdicts_agree(s, b) {
                let lt = traced_run_in(prog, &delim, &mut spec.guard());
                let rv = match b {
                    Ok(r) => Verdict::Halt(r.halt.kind()),
                    Err(_) => Verdict::Trip,
                };
                let rt = Trace::verdict_only("pooled run_in", rv, &format!("slot {i}, {spec:?}"));
                return Some(Discrepancy::diverging(
                    "run_in vs pooled run_in",
                    format!(
                        "spec={spec:?} slot {i}: serial={} batch={}",
                        verdict_str(s),
                        verdict_str(b)
                    ),
                    &lt,
                    &rt,
                ));
            }
        }
        // A pure fuel/deadline guard only ever *stops* a run; a verdict it
        // lets through must equal the unguarded report.
        if spec.faults.is_none() {
            if let Ok(r) = &serial[0] {
                if *r != base {
                    let lt = traced_run(prog, &delim);
                    let rt = traced_run_in(prog, &delim, &mut spec.guard());
                    return Some(Discrepancy::diverging(
                        "run vs run_in(limited)",
                        format!("spec={spec:?}: base={base:?} guarded={r:?}"),
                        &lt,
                        &rt,
                    ));
                }
            }
        }
    }

    None
}

/// The budget axes to exercise: each configured constraint in isolation,
/// then the full combination when it mixes axes.
fn budget_axes(budget: &BudgetSpec) -> Vec<BudgetSpec> {
    let mut specs = Vec::new();
    if let Some(fuel) = budget.fuel {
        specs.push(BudgetSpec {
            fuel: Some(fuel),
            ..BudgetSpec::default()
        });
    }
    if let Some(ms) = budget.deadline_ms {
        specs.push(BudgetSpec {
            deadline_ms: Some(ms),
            ..BudgetSpec::default()
        });
    }
    if let Some(plan) = &budget.faults {
        specs.push(BudgetSpec {
            faults: Some(plan.clone()),
            ..BudgetSpec::default()
        });
    }
    if specs.len() > 1 {
        specs.push(budget.clone());
    }
    specs
}

/// Run every evaluator pair applicable to a formula case.
pub fn check_formula_case(case: &FormulaCase, pool: &Pool) -> Option<Discrepancy> {
    let phi = &case.phi;
    let tree = &case.tree;
    let formula = phi.to_formula();
    let sentence = exists(phi.x(), exists(phi.y(), formula.clone()));

    // 1. Sentence verdict: naive vs memoized vs parallel.
    let naive = match eval_sentence(tree, &sentence) {
        Ok(b) => b,
        Err(e) => {
            return Some(Discrepancy::new(
                "eval_sentence",
                format!("rejected a closed sentence: {e}"),
            ))
        }
    };
    match eval_sentence_memo(tree, &sentence) {
        Ok(b) if b == naive => {}
        other => {
            return Some(Discrepancy::new(
                "eval_sentence vs eval_sentence_memo",
                format!("naive={naive} memo={other:?}"),
            ))
        }
    }
    match eval_sentence_par(tree, &sentence, pool) {
        Ok(b) if b == naive => {}
        other => {
            return Some(Discrepancy::new(
                "eval_sentence vs eval_sentence_par",
                format!("naive={naive} par={other:?}"),
            ))
        }
    }

    // 2. Node selection from every context node: naive recursion vs
    // memoized vs pooled batch vs the FO(∃*) backtracking selector.
    let us: Vec<NodeId> = tree.node_ids().collect();
    let serial: Vec<_> = us
        .iter()
        .map(|&u| select(tree, &formula, phi.x(), u, phi.y()))
        .collect::<Result<_, _>>()
        .ok()?;
    for (i, &u) in us.iter().enumerate() {
        match select_memo(tree, &formula, phi.x(), u, phi.y()) {
            Ok(s) if s == serial[i] => {}
            other => {
                return Some(Discrepancy::new(
                    "select vs select_memo",
                    format!("node {u}: naive={:?} memo={other:?}", serial[i]),
                ))
            }
        }
        let direct = phi.select(tree, u);
        if direct != serial[i] {
            return Some(Discrepancy::new(
                "select vs ExistsFormula::select",
                format!("node {u}: naive={:?} backtracking={direct:?}", serial[i]),
            ));
        }
    }
    match select_batch(tree, &formula, phi.x(), &us, phi.y(), pool) {
        Ok(batch) if batch == serial => {}
        other => {
            return Some(Discrepancy::new(
                "select vs select_batch",
                format!("serial={serial:?} batch={other:?}"),
            ))
        }
    }

    // 3. The FO normal forms: normalization must change nothing
    // observable, for the closed sentence, the raw matrix from every
    // context node, and the prenex FO(∃*) backtracking selector.
    match eval_sentence(tree, &normalize_formula(&sentence)) {
        Ok(b) if b == naive => {}
        other => {
            return Some(Discrepancy::new(
                "eval_sentence vs eval_sentence(normal form)",
                format!("naive={naive} normalized={other:?}"),
            ))
        }
    }
    let formula_norm = normalize_formula(&formula);
    let phi_norm = normalize_exists(phi);
    let idx = TreeIndex::build(tree);
    for (i, &u) in us.iter().enumerate() {
        match select(tree, &formula_norm, phi.x(), u, phi.y()) {
            Ok(s) if s == serial[i] => {}
            other => {
                return Some(Discrepancy::new(
                    "select vs select(normal form)",
                    format!("node {u}: naive={:?} normalized={other:?}", serial[i]),
                ))
            }
        }
        let norm_sel = phi_norm.select(tree, u);
        if norm_sel != serial[i] {
            return Some(Discrepancy::new(
                "select vs normalize_exists(phi).select",
                format!("node {u}: naive={:?} normalized={norm_sel:?}", serial[i]),
            ));
        }
        // The index router: in-fragment formulas go through the bitset
        // algebra, the rest fall back — either way the sets must match.
        let (routed_sel, indexed) = fo_select_routed(tree, &idx, phi, u);
        if routed_sel != serial[i] {
            return Some(Discrepancy::new(
                "select vs fo_select_routed",
                format!(
                    "node {u} (indexed={indexed}): naive={:?} routed={routed_sel:?}",
                    serial[i]
                ),
            ));
        }
    }

    // 4. The XPath normal form, the index algebra and the planner, when
    // the source query is known: each must reproduce the naive relational
    // answers exactly.
    if let Some(path) = &case.path {
        let normal = rewrite_in(path, &RewriteCtx::unconstrained()).output;
        let direct_pairs = eval_pairs(tree, path);
        let normal_pairs = eval_pairs(tree, &normal);
        if normal_pairs != direct_pairs {
            return Some(Discrepancy::new(
                "eval_pairs vs eval_pairs(normal form)",
                format!("direct={direct_pairs:?} normalized={normal_pairs:?}"),
            ));
        }
        let compiled = compile_xpath(path);
        for &u in &us {
            let direct = eval_from(tree, path, u);
            let normalized = eval_from(tree, &normal, u);
            if normalized != direct {
                return Some(Discrepancy::new(
                    "eval_from vs eval_from(normal form)",
                    format!("node {u}: direct={direct:?} normalized={normalized:?}"),
                ));
            }
            let via_index = eval_plan_from(tree, &idx, &compiled, u);
            if via_index != direct {
                return Some(Discrepancy::new(
                    "eval_from vs eval_plan_from",
                    format!("node {u}: direct={direct:?} indexed={via_index:?}"),
                ));
            }
        }
        // The planner without an index may stream or short-circuit on an
        // Empty certificate; with one, forced walk, forced index and the
        // cost model's own pick must all reproduce the naive root answer.
        let root_direct = eval_from(tree, path, tree.root());
        let ctx = RewriteCtx::unconstrained().with_alphabet(case.alphabet.iter().copied());
        let model = CostModel::default();
        for (index, force) in [
            (None, Force::Auto),
            (Some(&idx), Force::Auto),
            (Some(&idx), Force::Index),
            (Some(&idx), Force::Walk),
        ] {
            let plan = plan_query(path, &ctx, index, &model, force);
            let planned = execute_plan(tree, index, &plan);
            if planned != root_direct {
                return Some(Discrepancy::new(
                    "eval_from vs execute_plan",
                    format!(
                        "indexed={} force={force:?} evaluator={:?}: direct={root_direct:?} planned={planned:?}",
                        index.is_some(),
                        plan.evaluator
                    ),
                ));
            }
        }
        // Routed acceptance: the acceptor compiled from the query and the
        // one compiled from its normal form must agree.
        let delim = DelimTree::build(tree);
        let compile = |p| xpath_to_program(p, &case.alphabet, case.id_attr, case.test);
        let naive_routed = run_routed(&compile(path), &delim, FUZZ_LIMITS);
        let normal_routed = run_routed(&compile(&normal), &delim, FUZZ_LIMITS);
        if normal_routed.accepted != naive_routed.accepted {
            return Some(Discrepancy::new(
                "run_routed vs run_routed(normal form)",
                format!(
                    "test={:?}: naive accepted={} normalized accepted={}",
                    case.test, naive_routed.accepted, normal_routed.accepted
                ),
            ));
        }
    }

    // 5. Guarded selection: serial fresh-guard loop vs the same loop
    // fanned across the pool.
    if let Some(fuel) = case.fuel {
        let governed = |u: NodeId| {
            let mut g = ResourceGuard::unlimited().with_budget(fuel);
            select_in(
                tree,
                &formula,
                phi.x(),
                u,
                phi.y(),
                &mut NullCollector,
                &mut g,
            )
        };
        let serial: Vec<_> = us.iter().map(|&u| governed(u)).collect();
        let batch = pool.scoped(us.len(), |i| governed(us[i]));
        for (i, (s, b)) in serial.iter().zip(&batch).enumerate() {
            if !verdicts_agree(s, b) {
                return Some(Discrepancy::new(
                    "select_in vs pooled select_in",
                    format!(
                        "fuel={fuel} node {}: serial={} batch={}",
                        us[i],
                        verdict_str(s),
                        verdict_str(b)
                    ),
                ));
            }
        }
    }

    None
}

/// Check that the analyzer sees something wrong with a deliberately smelly
/// (but well-formed) program: at least one diagnostic, or a pruner hit.
pub fn check_smelly_program(prog: &TwProgram) -> Option<Discrepancy> {
    let analysis = analyze(prog);
    let pruned = prune(prog);
    if analysis.diagnostics.is_empty() && !pruned.changed() {
        return Some(Discrepancy::new(
            "analyze on smelly program",
            format!(
                "no diagnostics and nothing pruned for:\n{}",
                prog.display(&twq_tree::Vocab::new())
            ),
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_formula_case, gen_program_case, gen_smelly_program, Universe};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clean_program_cases_pass_the_oracle() {
        let uni = Universe::standard();
        let pool = Pool::new(2);
        for seed in 0..60 {
            let mut rng = StdRng::seed_from_u64(seed);
            let case = gen_program_case(&mut rng, &uni);
            let d = check_program_case(&case, &pool, None);
            assert!(d.is_none(), "seed {seed}: {}", d.unwrap());
        }
    }

    #[test]
    fn clean_formula_cases_pass_the_oracle() {
        let uni = Universe::standard();
        let pool = Pool::new(2);
        for seed in 100..130 {
            let mut rng = StdRng::seed_from_u64(seed);
            let case = gen_formula_case(&mut rng, &uni);
            let d = check_formula_case(&case, &pool);
            assert!(d.is_none(), "seed {seed}: {}", d.unwrap());
        }
    }

    #[test]
    fn injected_routed_flip_is_caught() {
        let uni = Universe::standard();
        let pool = Pool::new(2);
        let mut caught = 0;
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let case = gen_program_case(&mut rng, &uni);
            if let Some(d) = check_program_case(&case, &pool, Some(InjectedBug::RoutedFlip)) {
                assert_eq!(d.pair, "run vs run_routed", "{d}");
                caught += 1;
            }
        }
        assert!(caught > 0, "flip never observable in 40 cases");
    }

    #[test]
    fn smelly_programs_trip_the_analyzer_check() {
        let uni = Universe::standard();
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let prog = gen_smelly_program(&mut rng, &uni);
            assert!(check_smelly_program(&prog).is_none(), "seed {seed}");
        }
    }
}

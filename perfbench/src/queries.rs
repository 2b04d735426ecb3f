//! The three query workloads: `doc64k` and `deep` through the indexed
//! router (`run_query_indexed`), `corpus` through the certificate router
//! (`run_query_planned`), each query given as text to `parse_xpath`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use twq_index::{eval_plan_from, CostModel, Force, TreeIndex};
use twq_rw::{
    plan_indexed, rewrite_in, run_query_indexed, run_query_planned, stream_select, Certificate,
    IndexedEvaluator, RewriteCtx,
};
use twq_tree::{parse_tree, Label, NodeId, NodeSet, Tree, Vocab};
use twq_xpath::{eval_from, parse_xpath};

use crate::gen::{label_names, Doc, Rng, Shape, NO_PARENT};
use crate::reference::{Attr, Axis, Lead, Model, Pred, Query, Seq, Step};
use crate::trace::Tracer;
use crate::{Layers, OpResult, SetupTimes, Workload};

/// Which public router answers the queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Router {
    /// Parse, index once, `run_query_indexed(.., Force::Auto)`.
    Indexed,
    /// Parse only, `run_query_planned` (stream or relational walk).
    Planned,
}

struct Op {
    doc: usize,
    text: String,
    expected: Vec<u32>,
}

/// What the traced run counts per query.
#[derive(Default)]
struct Counts {
    queries: u64,
    rules_fired: u64,
    streamable: u64,
    empty: u64,
    planned: u64,
    indexed: u64,
    cost_err_log2: f64,
}

pub struct QueryWorkload {
    router: Router,
    names: Vec<String>,
    docs: Vec<Doc>,
    texts: Vec<String>,
    ops: Vec<Op>,
    ref_ns: u64,
    // Program-side state, rebuilt by every set-up.
    vocab: Vocab,
    ctx: RewriteCtx,
    model: CostModel,
    trees: Vec<Tree>,
    indexes: Vec<TreeIndex>,
    preorder: Vec<Vec<u32>>,
    counts: Counts,
}

/// Random queries against one document; value filters take their values
/// from a random node of it, so that they name values that occur.
struct Gen<'a> {
    rng: Rng,
    doc: &'a Doc,
    labels: usize,
}

impl Gen<'_> {
    fn label(&mut self) -> Option<u16> {
        Some(self.rng.below(self.labels) as u16)
    }

    fn node(&mut self) -> usize {
        self.rng.below(self.doc.len())
    }

    fn step(&mut self, preds: Vec<Pred>) -> Step {
        Step {
            test: self.label(),
            preds,
        }
    }

    fn bare(test: Option<u16>) -> Step {
        Step {
            test,
            preds: vec![],
        }
    }

    fn desc(first: Step, rest: Vec<(Axis, Step)>) -> Seq {
        Seq {
            lead: Lead::Desc,
            first,
            rest,
        }
    }

    fn rel(first: Step, rest: Vec<(Axis, Step)>) -> Query {
        Query(vec![Seq {
            lead: Lead::Bare,
            first,
            rest,
        }])
    }

    /// One query of class `class`: selective label/value filters, child and
    /// descendant paths, path predicates, unions and attribute joins.
    fn query(&mut self, class: Class) -> Query {
        let q = |seq| Query(vec![seq]);
        match class {
            Class::Label => q(Self::desc(self.step(vec![]), vec![])),
            Class::Value => {
                let u = self.node();
                let (attr, v) = if self.rng.below(2) == 0 {
                    (Attr::A, self.doc.a[u])
                } else {
                    (Attr::B, self.doc.b[u])
                };
                q(Self::desc(
                    Self::bare(None).with(Pred::AttrConst(attr, v)),
                    vec![],
                ))
            }
            Class::LabelValue => {
                let u = self.node();
                let step = Self::bare(Some(self.doc.label[u]))
                    .with(Pred::AttrConst(Attr::A, self.doc.a[u]));
                q(Self::desc(step, vec![]))
            }
            Class::ChildPath => {
                let (a, b) = (self.step(vec![]), self.step(vec![]));
                q(Self::desc(a, vec![(Axis::Child, b)]))
            }
            Class::DescPath => {
                let (a, b) = (self.step(vec![]), self.step(vec![]));
                q(Self::desc(a, vec![(Axis::Desc, b)]))
            }
            Class::RootPath => {
                let root = Self::bare(Some(self.doc.label[0]));
                let (a, b) = (self.step(vec![]), self.step(vec![]));
                q(Seq {
                    lead: Lead::Root,
                    first: root,
                    rest: vec![(Axis::Desc, a), (Axis::Child, b)],
                })
            }
            Class::ChildPred => {
                let inner = Self::rel(self.step(vec![]), vec![]);
                q(Self::desc(self.step(vec![Pred::Path(inner)]), vec![]))
            }
            Class::DescPred => {
                let inner = Query(vec![Self::desc(self.step(vec![]), vec![])]);
                q(Self::desc(self.step(vec![Pred::Path(inner)]), vec![]))
            }
            Class::PathPred => {
                let (b, c) = (self.step(vec![]), self.step(vec![]));
                let inner = Self::rel(b, vec![(Axis::Child, c)]);
                q(Self::desc(self.step(vec![Pred::Path(inner)]), vec![]))
            }
            Class::PathValue => {
                let u = self.node();
                let v = self.doc.a[u];
                let a = self.step(vec![]);
                let b = Self::bare(Some(self.doc.label[u])).with(Pred::AttrConst(Attr::A, v));
                q(Self::desc(a, vec![(Axis::Child, b)]))
            }
            Class::Union => Query(vec![
                Self::desc(self.step(vec![]), vec![]),
                Self::desc(self.step(vec![]), vec![]),
            ]),
            Class::ValueUnion => {
                let (u, w) = (self.node(), self.node());
                let a = Self::bare(Some(self.doc.label[u]))
                    .with(Pred::AttrConst(Attr::A, self.doc.a[u]));
                let b = Self::bare(Some(self.doc.label[w]))
                    .with(Pred::AttrConst(Attr::B, self.doc.b[w]));
                Query(vec![Self::desc(a, vec![]), Self::desc(b, vec![])])
            }
            Class::LabelJoin => q(Self::desc(
                self.step(vec![Pred::AttrAttr(Attr::A, Attr::B)]),
                vec![],
            )),
            Class::WildJoin => q(Self::desc(
                Self::bare(None).with(Pred::AttrAttr(Attr::A, Attr::B)),
                vec![],
            )),
            Class::Absent => q(Self::desc(Self::bare(Some(self.labels as u16)), vec![])),
        }
    }
}

impl Step {
    fn with(mut self, p: Pred) -> Step {
        self.preds.push(p);
        self
    }
}

#[derive(Debug, Clone, Copy)]
enum Class {
    Label,
    Value,
    LabelValue,
    ChildPath,
    DescPath,
    RootPath,
    ChildPred,
    DescPred,
    PathPred,
    PathValue,
    Union,
    ValueUnion,
    LabelJoin,
    WildJoin,
    /// A label that occurs in no document: provably empty under the
    /// corpus alphabet.
    Absent,
}

/// The indexed mix, 41 queries a period: 2 attribute joins (the walked
/// tail), the rest selective filters, paths, predicates and unions. An odd
/// number of equal shares puts the median op in the middle of a share,
/// never on the boundary between two classes.
const INDEXED_MIX: [(Class, usize); 14] = [
    (Class::Label, 5),
    (Class::Value, 4),
    (Class::LabelValue, 4),
    (Class::ChildPath, 3),
    (Class::DescPath, 3),
    (Class::RootPath, 2),
    (Class::ChildPred, 3),
    (Class::DescPred, 2),
    (Class::PathPred, 3),
    (Class::PathValue, 2),
    (Class::Union, 3),
    (Class::ValueUnion, 5),
    (Class::LabelJoin, 1),
    (Class::WildJoin, 1),
];

/// The corpus mix, 17 queries (odd, as for the indexed mix): 11 that the
/// rewriter certifies for one-pass streaming, 4 with child-path predicates
/// and 1 root-anchored path (relational walk), 1 provably empty. Descendant
/// predicates (`//a[//b]`) are left out here: their relational walk is
/// quadratic in the document and took 85% of the time of a mix with one in
/// 17, where streaming is meant to do most of the work.
const CORPUS_MIX: [Class; 17] = [
    Class::Label,
    Class::ChildPred,
    Class::ChildPath,
    Class::Value,
    Class::DescPath,
    Class::ValueUnion,
    Class::Union,
    Class::LabelValue,
    Class::PathPred,
    Class::RootPath,
    Class::ChildPath,
    Class::ChildPred,
    Class::Absent,
    Class::Label,
    Class::DescPath,
    Class::PathPred,
    Class::Value,
];

/// Mix periods in one pass of an indexed workload: every op of a pass is
/// a distinct query, so a run samples many instances of each class.
const INDEXED_PERIODS: usize = 28;

fn indexed_pass() -> Vec<Class> {
    let period = spread(&INDEXED_MIX);
    (0..INDEXED_PERIODS)
        .flat_map(|_| period.iter().copied())
        .collect()
}

/// The mix spread evenly over one period, so that every stretch of a
/// period has the same class shares.
fn spread(mix: &[(Class, usize)]) -> Vec<Class> {
    let total: usize = mix.iter().map(|&(_, n)| n).sum();
    let mut slots: Vec<(f64, usize, Class)> = Vec::with_capacity(total);
    for (ci, &(c, n)) in mix.iter().enumerate() {
        for k in 0..n {
            slots.push(((k as f64 + 0.5) / n as f64, ci, c));
        }
    }
    slots.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
    slots.into_iter().map(|(_, _, c)| c).collect()
}

impl QueryWorkload {
    /// One random 64k-node document, 64 labels, fan-out ≤ 4, attribute
    /// values from 4096; the indexed router.
    pub fn doc64k(seed: u64) -> QueryWorkload {
        let mut rng = Rng::fork(seed, 1);
        let doc = Doc::generate(&mut rng, Shape::Random { max_fanout: 4 }, 65_536, 64, 4096);
        let plan: Vec<(usize, Class)> = indexed_pass().into_iter().map(|c| (0, c)).collect();
        Self::build(Router::Indexed, seed, vec![doc], 64, &plan)
    }

    /// Random-labelled chains 4k to 32k deep, 4 labels; the indexed router.
    pub fn deep(seed: u64) -> QueryWorkload {
        let mut rng = Rng::fork(seed, 2);
        let docs: Vec<Doc> = [4096, 8192, 16_384, 32_768]
            .iter()
            .map(|&n| Doc::generate(&mut rng, Shape::Chain, n, 4, 4096))
            .collect();
        // Docs rotate against the mix, so that every class runs on every doc.
        let period: usize = INDEXED_MIX.iter().map(|&(_, n)| n).sum();
        let plan: Vec<(usize, Class)> = indexed_pass()
            .into_iter()
            .enumerate()
            .map(|(i, c)| ((i + i / period) % docs.len(), c))
            .collect();
        Self::build(Router::Indexed, seed, docs, 4, &plan)
    }

    /// 1024 small documents (64 to 1k nodes; random, comb and fan shapes),
    /// 4 queries each, no index; the certificate router. Sizes and shapes
    /// are fixed for every seed: a ladder over 64..=1024 in a scrambled
    /// order, shapes in turn.
    pub fn corpus(seed: u64) -> QueryWorkload {
        const DOCS: usize = 1024;
        let mut rng = Rng::fork(seed, 3);
        let docs: Vec<Doc> = (0..DOCS)
            .map(|i| {
                let shape = [Shape::Random { max_fanout: 4 }, Shape::Comb, Shape::Fan][i % 3];
                let n = 64 + (i * 149 % DOCS) * 960 / (DOCS - 1);
                Doc::generate(&mut rng, shape, n, 8, 256)
            })
            .collect();
        let plan: Vec<(usize, Class)> = (0..docs.len() * 4)
            .map(|i| (i / 4, CORPUS_MIX[i % CORPUS_MIX.len()]))
            .collect();
        Self::build(Router::Planned, seed, docs, 8, &plan)
    }

    fn build(
        router: Router,
        seed: u64,
        docs: Vec<Doc>,
        labels: usize,
        plan: &[(usize, Class)],
    ) -> QueryWorkload {
        // One extra name, never used by a document, for `Class::Absent`.
        let names = label_names("s", labels + 1);
        let texts: Vec<String> = docs.iter().map(|d| d.text(&names)).collect();
        let models: Vec<Model> = docs.iter().map(|d| Model::new(d, labels + 1)).collect();
        let mut rng = Rng::fork(seed, 4);
        let mut ref_ns = 0;
        let ops = plan
            .iter()
            .map(|&(d, class)| {
                let mut g = Gen {
                    rng: Rng::fork(rng.next_u64(), 5),
                    doc: &docs[d],
                    labels,
                };
                let q = g.query(class);
                let t0 = Instant::now();
                let expected = models[d].answer(&q);
                ref_ns += t0.elapsed().as_nanos() as u64;
                Op {
                    doc: d,
                    text: q.text(&names),
                    expected,
                }
            })
            .collect();
        QueryWorkload {
            router,
            names,
            docs,
            texts,
            ops,
            ref_ns,
            vocab: Vocab::new(),
            ctx: RewriteCtx::unconstrained(),
            model: CostModel::default(),
            trees: Vec::new(),
            indexes: Vec::new(),
            preorder: Vec::new(),
            counts: Counts::default(),
        }
    }

    fn check(&self, doc: usize, got: &NodeSet, expected: &[u32]) -> Result<(), String> {
        let pre = &self.preorder[doc];
        let mut got: Vec<u32> = got.iter().map(|u| pre[u.0 as usize]).collect();
        got.sort_unstable();
        if got == expected {
            Ok(())
        } else {
            Err(format!(
                "wrong answer: {} nodes, expected {}",
                got.len(),
                expected.len()
            ))
        }
    }

    /// The traced indexed path: `run_query_indexed` split into its public
    /// stages, `plan_indexed` (rewrite, compile, estimate, choose: span
    /// `plan`) and the evaluator the plan names.
    fn traced_indexed(&mut self, i: usize, tr: &mut Tracer) -> Result<NodeSet, String> {
        let op = &self.ops[i];
        let (tree, idx) = (&self.trees[op.doc], &self.indexes[op.doc]);
        let vocab = &mut self.vocab;
        let q = tr
            .span("xpath", "parse_xpath", || parse_xpath(&op.text, vocab))
            .map_err(|e| e.to_string())?;
        let (ctx, model) = (&self.ctx, &self.model);
        let plan = tr.span("index", "plan", || {
            plan_indexed(&q, ctx, idx, model, Force::Auto)
        });
        self.counts.note_rewrite(&plan.rewritten);
        let (Some(ix), Some(est)) = (&plan.plan, &plan.estimate) else {
            return Ok(NodeSet::new());
        };
        self.counts.planned += 1;
        let t0 = Instant::now();
        let (out, est_ns) = match plan.evaluator {
            IndexedEvaluator::Indexed => {
                self.counts.indexed += 1;
                let out = tr.span("index", "eval_plan_from", || {
                    eval_plan_from(tree, idx, ix, tree.root())
                });
                (out, est.index_ns)
            }
            _ => (
                tr.span("xpath", "eval_from", || eval_from(tree, &q, tree.root())),
                est.walk_ns,
            ),
        };
        let act = t0.elapsed().as_nanos().max(1) as f64;
        self.counts.cost_err_log2 += (est_ns.max(1.0) / act).log2().abs();
        Ok(out)
    }

    /// The traced certificate path: `run_query_planned` split into
    /// `rewrite_in` (= `plan_query`) and the evaluator the certificate names.
    fn traced_planned(&mut self, i: usize, tr: &mut Tracer) -> Result<NodeSet, String> {
        let op = &self.ops[i];
        let tree = &self.trees[op.doc];
        let vocab = &mut self.vocab;
        let q = tr
            .span("xpath", "parse_xpath", || parse_xpath(&op.text, vocab))
            .map_err(|e| e.to_string())?;
        let rw = tr.span("rewrite", "rewrite_in", || rewrite_in(&q, &self.ctx));
        self.counts.note_rewrite(&rw);
        Ok(match rw.certificate {
            Certificate::Empty => NodeSet::new(),
            Certificate::Streamable { .. } => {
                tr.span("rewrite", "stream_select", || {
                    stream_select(tree, &rw.output)
                })
                .ok_or("certified query did not stream")?
                .0
            }
            Certificate::NotStreamable { .. } => tr.span("xpath", "eval_from", || {
                eval_from(tree, &rw.output, tree.root())
            }),
        })
    }
}

impl Counts {
    fn note_rewrite(&mut self, rw: &twq_rw::Rewritten) {
        self.queries += 1;
        self.rules_fired += rw.fired.iter().map(|&(_, n)| n).sum::<u64>();
        self.streamable += u64::from(rw.certificate.is_streamable());
        self.empty += u64::from(rw.provably_empty);
    }
}

/// Preorder position of every node, by arena id, from the tree's own
/// navigation; also checks the loaded labels, parents and `a`/`b` values
/// against the generated ones.
pub fn check_loaded(
    tree: &Tree,
    vocab: &Vocab,
    doc: &Doc,
    names: &[String],
) -> Result<Vec<u32>, String> {
    if tree.len() != doc.len() {
        return Err(format!(
            "loaded {} nodes, generated {}",
            tree.len(),
            doc.len()
        ));
    }
    let attr = |name: &str| {
        vocab
            .attr_opt(name)
            .ok_or(format!("attribute {name} not loaded"))
    };
    let (a, b) = (attr("a")?, attr("b")?);
    let mut pre = vec![u32::MAX; tree.len()];
    let mut next = 0u32;
    let mut stack = vec![tree.root()];
    while let Some(u) = stack.pop() {
        let i = next as usize;
        let want = &names[doc.label[i] as usize];
        match tree.label(u) {
            Label::Sym(s) if vocab.sym_name(s) == want => {}
            other => return Err(format!("node {next}: label {other:?}, expected {want}")),
        }
        let parent = tree.parent(u).map_or(NO_PARENT, |p| pre[p.0 as usize]);
        if parent != doc.parent[i] {
            return Err(format!(
                "node {next}: loaded under {parent}, generated under {}",
                doc.parent[i]
            ));
        }
        for (id, name, want) in [(a, "a", doc.a[i]), (b, "b", doc.b[i])] {
            let got = vocab.value_display(tree.attr(u, id));
            if got != want.to_string() {
                return Err(format!("node {next}: @{name}={got}, expected {want}"));
            }
        }
        pre[u.0 as usize] = next;
        next += 1;
        let mut kids: Vec<NodeId> = tree.children(u).collect();
        kids.reverse();
        stack.extend(kids);
    }
    Ok(pre)
}

impl Workload for QueryWorkload {
    fn pass_len(&self) -> usize {
        self.ops.len()
    }

    fn period(&self) -> usize {
        match self.router {
            Router::Indexed => INDEXED_MIX.iter().map(|&(_, n)| n).sum(),
            Router::Planned => CORPUS_MIX.len(),
        }
    }

    fn unload(&mut self) {
        self.trees.clear();
        self.indexes.clear();
        self.vocab = Vocab::new();
    }

    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        for text in &self.texts {
            let vocab = &mut self.vocab;
            let tree = tr
                .span("tree", "parse_tree", || parse_tree(text, vocab))
                .map_err(|e| e.to_string())?;
            if self.router == Router::Indexed {
                self.indexes
                    .push(tr.span("index", "TreeIndex::build", || TreeIndex::build(&tree)));
            }
            self.trees.push(tree);
        }
        Ok(())
    }

    fn after_setup(&mut self) -> Result<(), String> {
        self.preorder = self
            .trees
            .iter()
            .zip(&self.docs)
            .map(|(t, d)| check_loaded(t, &self.vocab, d, &self.names))
            .collect::<Result<_, _>>()?;
        let docs_labels: Vec<_> = self.names[..self.names.len() - 1]
            .iter()
            .filter_map(|n| self.vocab.sym_opt(n))
            .collect();
        self.ctx = RewriteCtx::unconstrained().with_alphabet(docs_labels);
        Ok(())
    }

    fn op(&mut self, i: usize) -> OpResult {
        let op = &self.ops[i];
        let (tree, vocab) = (&self.trees[op.doc], &mut self.vocab);
        let t0 = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| {
            let q = parse_xpath(&op.text, vocab).map_err(|e| e.to_string())?;
            Ok::<_, String>(match self.router {
                Router::Indexed => {
                    let idx = &self.indexes[op.doc];
                    run_query_indexed(tree, idx, &q, &self.ctx, &self.model, Force::Auto).0
                }
                Router::Planned => run_query_planned(tree, &q, &self.ctx).0,
            })
        }));
        let ns = t0.elapsed().as_nanos() as u64;
        OpResult {
            ns,
            outcome: flatten(res).and_then(|set| self.check(op.doc, &set, &op.expected)),
        }
    }

    fn op_traced(&mut self, i: usize, tr: &mut Tracer) -> OpResult {
        let root = tr.begin("bench", "op");
        let res = catch_unwind(AssertUnwindSafe(|| match self.router {
            Router::Indexed => self.traced_indexed(i, tr),
            Router::Planned => self.traced_planned(i, tr),
        }));
        tr.end(root);
        let op = &self.ops[i];
        OpResult {
            ns: tr.spans[root as usize].ns(),
            outcome: flatten(res).and_then(|set| self.check(op.doc, &set, &op.expected)),
        }
    }

    fn layers(&self, tr: &Tracer, setup: &SetupTimes, out: &mut Layers) {
        // Mean time of the calls to `name`; unset (n/a) when there were none.
        let mut per_call = |metric: &'static str, name: &str| {
            let (ns, n) = tr.total(name);
            if n > 0 {
                out.set(metric, ns as f64 / n as f64);
            }
        };
        per_call("xpath.parse_ns", "parse_xpath");
        per_call("xpath.walk_ns", "eval_from");
        per_call("rewrite.ns", "rewrite_in");
        match self.router {
            Router::Indexed => {
                per_call("index.plan_ns", "plan");
                per_call("index.eval_ns", "eval_plan_from");
            }
            Router::Planned => {
                per_call("rewrite.stream_ns", "stream_select");
                per_call("rewrite.relational_ns", "eval_from");
            }
        }
        let c = &self.counts;
        let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let nodes: usize = self.docs.iter().map(Doc::len).sum();
        out.set("tree.parse_ns_per_node", setup.parse_ns / nodes as f64);
        out.set(
            "xpath.walk_share",
            frac(tr.total("eval_from").0, tr.total("op").0),
        );
        out.set("rewrite.rules_fired", frac(c.rules_fired, c.queries));
        out.set("rewrite.streamable_frac", frac(c.streamable, c.queries));
        out.set("rewrite.empty_frac", frac(c.empty, c.queries));
        out.set("ref.scan_ns", self.ref_ns as f64 / self.ops.len() as f64);
        if self.router == Router::Indexed {
            out.set("index.build_ns", setup.build_ns);
            let bytes: usize = self.indexes.iter().map(|i| i.stats().postings_bytes).sum();
            out.set("index.postings_bytes", bytes as f64);
            out.set("index.chosen_frac", frac(c.indexed, c.planned));
            if c.planned > 0 {
                out.set("index.cost_err_log2", c.cost_err_log2 / c.planned as f64);
            }
        }
    }
}

fn flatten<T>(res: std::thread::Result<Result<T, String>>) -> Result<T, String> {
    match res {
        Ok(r) => r,
        Err(p) => Err(format!("panic: {}", crate::panic_message(&p))),
    }
}

//! The benchmark's own reference answers.
//!
//! Queries are built as a small AST here, printed as text for the program
//! to parse, and answered by a set-at-a-time evaluator over the generated
//! document's preorder intervals: every step maps a node set to a node set
//! in one linear sweep (Gottlob, Koch and Pichler's evaluation of Core
//! XPath). Its run time per query is the `ref.scan_ns` baseline that later
//! speed-ups are quoted against. Walker verdicts are computed from the
//! same model, after the `oracle_*` functions of `automata::examples`.

use std::fmt::Write as _;

use crate::gen::Doc;

/// A node set over preorder positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bits(Vec<u64>);

impl Bits {
    fn empty(n: usize) -> Bits {
        Bits(vec![0; n.div_ceil(64)])
    }

    fn full(n: usize) -> Bits {
        let mut b = Bits(vec![!0; n.div_ceil(64)]);
        if !n.is_multiple_of(64) {
            *b.0.last_mut().expect("n > 0") = (1u64 << (n % 64)) - 1;
        }
        b
    }

    fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }

    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    fn and(mut self, o: &Bits) -> Bits {
        self.0.iter_mut().zip(&o.0).for_each(|(a, b)| *a &= b);
        self
    }

    fn or(mut self, o: &Bits) -> Bits {
        self.0.iter_mut().zip(&o.0).for_each(|(a, b)| *a |= b);
        self
    }

    fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Members in ascending preorder.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for (wi, &w) in self.0.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                out.push((wi * 64) as u32 + w.trailing_zeros());
                w &= w - 1;
            }
        }
        out
    }
}

/// The two attributes every generated node carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attr {
    A,
    B,
}

impl Attr {
    fn name(self) -> &'static str {
        match self {
            Attr::A => "a",
            Attr::B => "b",
        }
    }
}

/// How a sequence starts. A bare sequence tests the context node itself at
/// the top level, and its children inside a filter (the parser's implicit
/// child step).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lead {
    Bare,
    Root,
    Desc,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    Child,
    Desc,
}

#[derive(Debug, Clone)]
pub enum Pred {
    Path(Query),
    AttrConst(Attr, u32),
    AttrAttr(Attr, Attr),
}

/// A node test (`None` is `*`) with its filters.
#[derive(Debug, Clone)]
pub struct Step {
    pub test: Option<u16>,
    pub preds: Vec<Pred>,
}

#[derive(Debug, Clone)]
pub struct Seq {
    pub lead: Lead,
    pub first: Step,
    pub rest: Vec<(Axis, Step)>,
}

/// A union of sequences.
#[derive(Debug, Clone)]
pub struct Query(pub Vec<Seq>);

impl Query {
    /// The query in the syntax `parse_xpath` reads.
    pub fn text(&self, names: &[String]) -> String {
        let mut out = String::new();
        self.write(&mut out, names);
        out
    }

    fn write(&self, out: &mut String, names: &[String]) {
        for (i, seq) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(" | ");
            }
            out.push_str(match seq.lead {
                Lead::Bare => "",
                Lead::Root => "/",
                Lead::Desc => "//",
            });
            seq.first.write(out, names);
            for (axis, step) in &seq.rest {
                out.push_str(match axis {
                    Axis::Child => "/",
                    Axis::Desc => "//",
                });
                step.write(out, names);
            }
        }
    }
}

impl Step {
    fn write(&self, out: &mut String, names: &[String]) {
        match self.test {
            Some(l) => out.push_str(&names[l as usize]),
            None => out.push('*'),
        }
        for p in &self.preds {
            out.push('[');
            match p {
                Pred::Path(q) => q.write(out, names),
                Pred::AttrConst(a, v) => {
                    let _ = write!(out, "@{}={v}", a.name());
                }
                Pred::AttrAttr(a, b) => {
                    let _ = write!(out, "@{}=@{}", a.name(), b.name());
                }
            }
            out.push(']');
        }
    }
}

/// A document prepared for set-at-a-time evaluation.
pub struct Model<'d> {
    doc: &'d Doc,
    by_label: Vec<Bits>,
}

impl<'d> Model<'d> {
    pub fn new(doc: &'d Doc, labels: usize) -> Model<'d> {
        let mut by_label = vec![Bits::empty(doc.len()); labels];
        for (i, &l) in doc.label.iter().enumerate() {
            by_label[l as usize].set(i);
        }
        Model { doc, by_label }
    }

    fn n(&self) -> usize {
        self.doc.len()
    }

    /// The nodes `q` selects from the root, in preorder.
    pub fn answer(&self, q: &Query) -> Vec<u32> {
        let mut root = Bits::empty(self.n());
        root.set(0);
        self.forward(q, &root, false).to_vec()
    }

    fn forward(&self, q: &Query, ctx: &Bits, in_filter: bool) -> Bits {
        let mut out = Bits::empty(self.n());
        for seq in &q.0 {
            let mut cur = match seq.lead {
                Lead::Bare if in_filter => self.children(ctx),
                Lead::Bare => ctx.clone(),
                Lead::Root => self.root_if(!ctx.is_empty()),
                Lead::Desc => self.descendants(ctx),
            };
            cur = self.step(&seq.first, cur);
            for (axis, step) in &seq.rest {
                cur = match axis {
                    Axis::Child => self.children(&cur),
                    Axis::Desc => self.descendants(&cur),
                };
                cur = self.step(step, cur);
            }
            out = out.or(&cur);
        }
        out
    }

    /// The nodes from which the filter path `q` selects at least one node
    /// of `target`: the path run backwards.
    fn backward(&self, q: &Query, target: &Bits) -> Bits {
        let mut out = Bits::empty(self.n());
        for seq in &q.0 {
            let mut cur = target.clone();
            for (axis, step) in seq.rest.iter().rev() {
                cur = self.step(step, cur);
                cur = match axis {
                    Axis::Child => self.parents(&cur),
                    Axis::Desc => self.ancestors(&cur),
                };
            }
            cur = self.step(&seq.first, cur);
            cur = match seq.lead {
                Lead::Bare => self.parents(&cur),
                Lead::Desc => self.ancestors(&cur),
                Lead::Root if cur.get(0) => Bits::full(self.n()),
                Lead::Root => Bits::empty(self.n()),
            };
            out = out.or(&cur);
        }
        out
    }

    fn step(&self, step: &Step, mut cur: Bits) -> Bits {
        if let Some(l) = step.test {
            cur = cur.and(&self.by_label[l as usize]);
        }
        for p in &step.preds {
            cur = cur.and(&self.holds(p));
        }
        cur
    }

    fn holds(&self, p: &Pred) -> Bits {
        let attr = |a: Attr| match a {
            Attr::A => &self.doc.a,
            Attr::B => &self.doc.b,
        };
        match p {
            Pred::Path(q) => self.backward(q, &Bits::full(self.n())),
            Pred::AttrConst(a, v) => self.select(|i| attr(*a)[i] == *v),
            Pred::AttrAttr(a, b) => self.select(|i| attr(*a)[i] == attr(*b)[i]),
        }
    }

    fn select(&self, f: impl Fn(usize) -> bool) -> Bits {
        let mut out = Bits::empty(self.n());
        (0..self.n()).filter(|&i| f(i)).for_each(|i| out.set(i));
        out
    }

    fn root_if(&self, yes: bool) -> Bits {
        let mut out = Bits::empty(self.n());
        if yes {
            out.set(0);
        }
        out
    }

    fn children(&self, s: &Bits) -> Bits {
        self.select(|i| i > 0 && s.get(self.doc.parent[i] as usize))
    }

    /// Strict descendants: one sweep keeping the furthest open interval end.
    fn descendants(&self, s: &Bits) -> Bits {
        let mut out = Bits::empty(self.n());
        let mut open_end = 0u32;
        for i in 0..self.n() {
            if (i as u32) < open_end {
                out.set(i);
            }
            if s.get(i) {
                open_end = open_end.max(self.doc.end[i]);
            }
        }
        out
    }

    fn parents(&self, s: &Bits) -> Bits {
        let mut out = Bits::empty(self.n());
        for i in s.to_vec() {
            if i > 0 {
                out.set(self.doc.parent[i as usize] as usize);
            }
        }
        out
    }

    /// Strict ancestors: `u` qualifies when its interval, less `u` itself,
    /// holds a member — a prefix count answers that in O(1).
    fn ancestors(&self, s: &Bits) -> Bits {
        let mut prefix = vec![0u32; self.n() + 1];
        for i in 0..self.n() {
            prefix[i + 1] = prefix[i] + u32::from(s.get(i));
        }
        self.select(|u| prefix[self.doc.end[u] as usize] > prefix[u + 1])
    }
}

/// The walker roster: each program of `automata::examples` the `walkers`
/// workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walker {
    Traversal,
    EvenLeaves,
    AllLeavesEqual,
    ParentChildMatch,
    DistinctValues(usize),
    Example32,
}

impl Walker {
    pub fn name(self) -> &'static str {
        match self {
            Walker::Traversal => "traversal",
            Walker::EvenLeaves => "even-leaves",
            Walker::AllLeavesEqual => "all-leaves-equal",
            Walker::ParentChildMatch => "parent-child-match",
            Walker::DistinctValues(_) => "distinct-values",
            Walker::Example32 => "example-3.2",
        }
    }

    /// Whether the program accepts `doc`. For Example 3.2, `delta` is the
    /// label index of `δ`.
    pub fn verdict(self, doc: &Doc, delta: u16) -> bool {
        let leaves = || (0..doc.len()).filter(|&u| doc.is_leaf(u));
        let same = |mut it: Box<dyn Iterator<Item = usize> + '_>| match it.next() {
            None => true,
            Some(f) => it.all(|u| doc.a[u] == doc.a[f]),
        };
        match self {
            Walker::Traversal => true,
            Walker::EvenLeaves => leaves().count() % 2 == 0,
            Walker::AllLeavesEqual => same(Box::new(leaves())),
            Walker::ParentChildMatch => {
                (1..doc.len()).any(|u| doc.a[u] == doc.a[doc.parent[u] as usize])
            }
            Walker::DistinctValues(k) => {
                let mut vals = doc.a.clone();
                vals.sort_unstable();
                vals.dedup();
                vals.len() >= k
            }
            Walker::Example32 => (0..doc.len()).filter(|&u| doc.label[u] == delta).all(|u| {
                let below = (u + 1..doc.end[u] as usize).filter(|&w| doc.is_leaf(w));
                same(Box::new(below))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Rng, Shape};

    fn leaf(l: u16) -> Step {
        Step {
            test: Some(l),
            preds: vec![],
        }
    }

    fn seq(lead: Lead, first: Step, rest: Vec<(Axis, Step)>) -> Query {
        Query(vec![Seq { lead, first, rest }])
    }

    /// Node-at-a-time semantics straight from the definitions, for
    /// cross-checking the sweeps on small documents.
    fn naive(doc: &Doc, q: &Query, x: usize, in_filter: bool) -> Vec<usize> {
        let desc = |y: usize| (y + 1..doc.end[y] as usize).collect::<Vec<_>>();
        let kids = |y: usize| {
            (y + 1..doc.end[y] as usize)
                .filter(|&c| doc.parent[c] as usize == y)
                .collect::<Vec<_>>()
        };
        let ok = |s: &Step, y: usize| {
            s.test.is_none_or(|l| doc.label[y] == l)
                && s.preds.iter().all(|p| match p {
                    Pred::Path(q) => !naive(doc, q, y, true).is_empty(),
                    Pred::AttrConst(Attr::A, v) => doc.a[y] == *v,
                    Pred::AttrConst(Attr::B, v) => doc.b[y] == *v,
                    Pred::AttrAttr(p, r) => {
                        let g = |a: &Attr| if *a == Attr::A { doc.a[y] } else { doc.b[y] };
                        g(p) == g(r)
                    }
                })
        };
        let mut out = Vec::new();
        for s in &q.0 {
            let mut cur: Vec<usize> = match s.lead {
                Lead::Bare if in_filter => kids(x),
                Lead::Bare => vec![x],
                Lead::Root => vec![0],
                Lead::Desc => desc(x),
            };
            cur.retain(|&y| ok(&s.first, y));
            for (axis, st) in &s.rest {
                let mut next: Vec<usize> = cur
                    .iter()
                    .flat_map(|&y| match axis {
                        Axis::Child => kids(y),
                        Axis::Desc => desc(y),
                    })
                    .filter(|&y| ok(st, y))
                    .collect();
                next.sort_unstable();
                next.dedup();
                cur = next;
            }
            out.extend(cur);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn sweeps_agree_with_definitions() {
        let mut rng = Rng::new(3);
        let queries = vec![
            seq(Lead::Desc, leaf(1), vec![]),
            seq(Lead::Desc, leaf(0), vec![(Axis::Child, leaf(1))]),
            seq(Lead::Desc, leaf(0), vec![(Axis::Desc, leaf(2))]),
            seq(
                Lead::Desc,
                Step {
                    test: Some(0),
                    preds: vec![Pred::Path(seq(
                        Lead::Bare,
                        leaf(1),
                        vec![(Axis::Desc, leaf(2))],
                    ))],
                },
                vec![],
            ),
            seq(
                Lead::Desc,
                Step {
                    test: None,
                    preds: vec![
                        Pred::Path(seq(Lead::Desc, leaf(3), vec![])),
                        Pred::AttrConst(Attr::A, 1),
                    ],
                },
                vec![],
            ),
            seq(
                Lead::Root,
                Step {
                    test: None,
                    preds: vec![Pred::Path(seq(Lead::Root, leaf(0), vec![]))],
                },
                vec![(Axis::Desc, leaf(1))],
            ),
            seq(
                Lead::Desc,
                Step {
                    test: Some(2),
                    preds: vec![Pred::AttrAttr(Attr::A, Attr::B)],
                },
                vec![],
            ),
        ];
        for shape in [Shape::Random { max_fanout: 3 }, Shape::Comb, Shape::Chain] {
            for _ in 0..20 {
                let doc = Doc::generate(&mut rng, shape, 40, 4, 3);
                let m = Model::new(&doc, 4);
                for q in &queries {
                    let want: Vec<u32> = naive(&doc, q, 0, false)
                        .into_iter()
                        .map(|u| u as u32)
                        .collect();
                    assert_eq!(m.answer(q), want);
                }
            }
        }
    }
}

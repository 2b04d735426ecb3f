//! Seeded input generation: documents as term-syntax text and their
//! benchmark-side model, independent of the repository's own generators so
//! that the inputs for a seed stay fixed while the program changes.

use std::fmt::Write as _;

/// splitmix64: small, fast, and stable across platforms and versions.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_7a11_c0ff_ee00)
    }

    /// An independent stream for one named purpose, so that adding draws to
    /// one generator never shifts another.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

/// A generated document in preorder. Node `i`'s subtree is the preorder
/// interval `i..end[i]`; every node carries both attributes `a` and `b`.
#[derive(Debug, Clone)]
pub struct Doc {
    pub label: Vec<u16>,
    pub parent: Vec<u32>,
    pub end: Vec<u32>,
    pub a: Vec<u32>,
    pub b: Vec<u32>,
}

/// The parent of the root.
pub const NO_PARENT: u32 = u32::MAX;

/// Document shapes.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// Breadth-first growth, each node taking 0 to `max_fanout` children.
    Random { max_fanout: usize },
    /// A single path (fan-out 1).
    Chain,
    /// A spine whose every node also has one leaf child.
    Comb,
    /// A root with `n - 1` leaf children.
    Fan,
}

impl Doc {
    pub fn len(&self) -> usize {
        self.label.len()
    }

    /// Generate an `n`-node document of `shape` with labels drawn from
    /// `0..labels` and attribute values from `0..values`.
    pub fn generate(rng: &mut Rng, shape: Shape, n: usize, labels: usize, values: usize) -> Doc {
        assert!(n >= 1, "documents are never empty");
        // Child lists in creation order; node 0 is the root.
        let mut children: Vec<Vec<u32>> = vec![Vec::new()];
        let add = |children: &mut Vec<Vec<u32>>, p: usize| {
            let id = children.len() as u32;
            children.push(Vec::new());
            children[p].push(id);
            id as usize
        };
        match shape {
            Shape::Random { max_fanout } => {
                let mut queue = std::collections::VecDeque::from([0usize]);
                while children.len() < n {
                    let p = queue.pop_front().expect("growth never dies out");
                    // The last open node always gets a child, so growth
                    // cannot stop before `n` nodes.
                    let lo = usize::from(queue.is_empty());
                    let k = rng.range(lo, max_fanout).min(n - children.len());
                    for _ in 0..k {
                        let c = add(&mut children, p);
                        queue.push_back(c);
                    }
                }
            }
            Shape::Chain => {
                for p in 0..n - 1 {
                    add(&mut children, p);
                }
            }
            Shape::Comb => {
                let mut spine = 0;
                while children.len() < n {
                    let next = add(&mut children, spine);
                    if children.len() < n {
                        add(&mut children, spine);
                    }
                    spine = next;
                }
            }
            Shape::Fan => {
                for _ in 1..n {
                    add(&mut children, 0);
                }
            }
        }
        // Renumber in preorder with an explicit stack (chains are deep).
        let mut doc = Doc {
            label: Vec::with_capacity(n),
            parent: Vec::with_capacity(n),
            end: vec![0; n],
            a: Vec::with_capacity(n),
            b: Vec::with_capacity(n),
        };
        let mut stack: Vec<(u32, u32)> = vec![(0, NO_PARENT)];
        let mut open: Vec<u32> = Vec::new();
        while let Some((old, parent)) = stack.pop() {
            let pre = doc.label.len() as u32;
            while let Some(&top) = open.last() {
                if top == parent {
                    break;
                }
                doc.end[top as usize] = pre;
                open.pop();
            }
            doc.label.push(rng.below(labels) as u16);
            doc.parent.push(parent);
            doc.a.push(rng.below(values) as u32);
            doc.b.push(rng.below(values) as u32);
            open.push(pre);
            for &c in children[old as usize].iter().rev() {
                stack.push((c, pre));
            }
        }
        for &u in &open {
            doc.end[u as usize] = n as u32;
        }
        doc
    }

    /// The document in the term syntax `parse_tree` reads, written without
    /// recursion: `s3[a=17,b=2](s0[a=5,b=9],…)`.
    pub fn text(&self, names: &[String]) -> String {
        let mut out = String::with_capacity(self.len() * 20);
        let mut open: Vec<u32> = Vec::new();
        for i in 0..self.len() {
            let mut first_child = i > 0 && self.parent[i] == i as u32 - 1;
            while let Some(&top) = open.last() {
                if self.end[top as usize] > i as u32 {
                    break;
                }
                out.push(')');
                open.pop();
                first_child = false;
            }
            if i > 0 && !first_child {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}[a={},b={}]",
                names[self.label[i] as usize], self.a[i], self.b[i]
            );
            if self.end[i] > i as u32 + 1 {
                out.push('(');
                open.push(i as u32);
            }
        }
        for _ in open {
            out.push(')');
        }
        out
    }

    pub fn is_leaf(&self, u: usize) -> bool {
        self.end[u] == u as u32 + 1
    }
}

/// Label names `s0`, `s1`, ….
pub fn label_names(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(doc: &Doc) {
        for i in 0..doc.len() {
            assert!(doc.end[i] > i as u32 && doc.end[i] as usize <= doc.len());
            if i > 0 {
                let p = doc.parent[i] as usize;
                assert!(p < i && doc.end[p] >= doc.end[i]);
            }
        }
    }

    #[test]
    fn shapes_are_preorder_with_intervals() {
        let mut rng = Rng::new(7);
        for shape in [
            Shape::Random { max_fanout: 4 },
            Shape::Chain,
            Shape::Comb,
            Shape::Fan,
        ] {
            for n in [1, 2, 3, 10, 200] {
                let d = Doc::generate(&mut rng, shape, n, 4, 8);
                assert_eq!(d.len(), n);
                check(&d);
            }
        }
    }

    #[test]
    fn text_nests_children() {
        let mut rng = Rng::new(1);
        let d = Doc::generate(&mut rng, Shape::Comb, 4, 1, 1);
        assert_eq!(
            d.text(&label_names("s", 1)),
            "s0[a=0,b=0](s0[a=0,b=0](s0[a=0,b=0]),s0[a=0,b=0])"
        );
    }
}

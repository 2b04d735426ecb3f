//! Canonical normal form for FO formulas and the prenex FO(∃*) fragment.
//!
//! The normalizer is semantics-preserving over `Dom(t)` (which is never
//! empty — every tree has a root, so vacuous quantifiers drop):
//!
//! * flatten nested ∧/∨, drop units, collapse on absorbing elements;
//! * sort + dedupe conjuncts/disjuncts in the canonical [`Formula`] order;
//! * annihilate complementary siblings (`φ ∧ ¬φ = ⊥`, `φ ∨ ¬φ = ⊤`);
//! * `¬¬φ = φ`, `¬⊤ = ⊥`, `¬⊥ = ⊤`, `x = x` is `⊤`;
//! * `∃x φ = φ` and `∀x φ = φ` when `x` is not free in `φ`.

use twq_logic::fo::{Formula, TreeAtom, Var};
use twq_logic::ExistsFormula;

/// Normalize a formula. Equivalent to the input on every tree (proptests
/// in `tests/rewrite.rs` check both sentence truth and `select` sets).
pub fn normalize_formula(f: &Formula) -> Formula {
    norm(f.clone())
}

fn norm(f: Formula) -> Formula {
    match f {
        Formula::True | Formula::False => f,
        Formula::Atom(TreeAtom::Eq(x, y)) if x == y => Formula::True,
        Formula::Atom(_) => f,
        Formula::Not(g) => match norm(*g) {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            Formula::Not(inner) => *inner,
            other => Formula::Not(Box::new(other)),
        },
        Formula::And(fs) => {
            let mut flat = Vec::new();
            for g in fs {
                match norm(g) {
                    Formula::True => {}
                    Formula::False => return Formula::False,
                    Formula::And(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            flat.sort();
            flat.dedup();
            if has_complementary(&flat) {
                return Formula::False;
            }
            match flat.len() {
                0 => Formula::True,
                1 => flat.pop().expect("len checked"),
                _ => Formula::And(flat),
            }
        }
        Formula::Or(fs) => {
            let mut flat = Vec::new();
            for g in fs {
                match norm(g) {
                    Formula::False => {}
                    Formula::True => return Formula::True,
                    Formula::Or(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            flat.sort();
            flat.dedup();
            if has_complementary(&flat) {
                return Formula::True;
            }
            match flat.len() {
                0 => Formula::False,
                1 => flat.pop().expect("len checked"),
                _ => Formula::Or(flat),
            }
        }
        Formula::Exists(v, g) => requantify(v, norm(*g), true),
        Formula::Forall(v, g) => requantify(v, norm(*g), false),
    }
}

/// `Dom(t)` is never empty, so a quantifier over a variable its body does
/// not mention is a no-op.
fn requantify(v: Var, body: Formula, exists: bool) -> Formula {
    match body {
        Formula::True | Formula::False => body,
        _ if !body.free_vars().contains(&v) => body,
        _ if exists => Formula::Exists(v, Box::new(body)),
        _ => Formula::Forall(v, Box::new(body)),
    }
}

fn has_complementary(sorted: &[Formula]) -> bool {
    sorted.iter().any(|f| {
        let neg = match f {
            Formula::Not(inner) => (**inner).clone(),
            other => Formula::Not(Box::new(other.clone())),
        };
        sorted.binary_search(&neg).is_ok()
    })
}

/// Canonical form of a prenex FO(∃*) formula: normalize the matrix and
/// drop quantified variables it no longer mentions.
pub fn normalize_exists(phi: &ExistsFormula) -> ExistsFormula {
    let matrix = normalize_formula(phi.matrix());
    let free = matrix.free_vars();
    let quantified: Vec<Var> = phi
        .quantified()
        .iter()
        .copied()
        .filter(|v| free.contains(v))
        .collect();
    ExistsFormula::new(phi.x(), phi.y(), quantified, matrix)
        .expect("normalization preserves the FO(∃*) invariants")
}

#[cfg(test)]
mod tests {
    use super::*;
    use twq_logic::eval::eval_sentence;
    use twq_logic::fo::build as b;
    use twq_tree::{parse_tree, Vocab};

    #[test]
    fn matrix_simplifications() {
        let x = b::var(0);
        let y = b::var(1);
        // x = x vanishes; duplicate conjuncts collapse.
        let f = b::and([b::eq(x, x), b::edge(x, y), b::edge(x, y)]);
        assert_eq!(normalize_formula(&f), b::edge(x, y));
        // Complementary pair annihilates.
        let f = b::and([b::edge(x, y), b::not(b::edge(x, y))]);
        assert_eq!(normalize_formula(&f), Formula::False);
        let f = b::or([b::leaf(x), b::not(b::leaf(x))]);
        assert_eq!(normalize_formula(&f), Formula::True);
        // Vacuous quantifier drops.
        let f = b::exists(y, b::leaf(x));
        assert_eq!(normalize_formula(&f), b::leaf(x));
        // Double negation.
        assert_eq!(normalize_formula(&b::not(b::not(b::root(x)))), b::root(x));
    }

    #[test]
    fn normalized_sentence_agrees() {
        let mut v = Vocab::new();
        let t = parse_tree("sigma(delta(sigma),sigma)", &mut v).unwrap();
        let x = b::var(0);
        let f = b::exists(
            x,
            b::and([b::root(x), b::eq(x, x), b::not(b::not(b::root(x)))]),
        );
        assert_eq!(
            eval_sentence(&t, &f).unwrap(),
            eval_sentence(&t, &normalize_formula(&f)).unwrap()
        );
    }
}

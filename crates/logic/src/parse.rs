//! Concrete syntax for FO formulas over the tree vocabulary — handy in
//! examples, tests, and REPL-style exploration.
//!
//! ```text
//! formula := quantified
//! quantified := ('E' | 'A') ident '.' quantified      (∃ / ∀)
//!             | implication
//! implication := disjunction ('->' disjunction)?
//! disjunction := conjunction ('|' conjunction)*
//! conjunction := negation ('&' negation)*
//! negation    := '!' negation | '(' formula ')' | atom | 'true' | 'false'
//! atom        := 'E(' x ',' y ')'          edge
//!             | 'desc(' x ',' y ')'        strict descendant  (x ≺ y)
//!             | 'sib(' x ',' y ')'         sibling order      (x < y)
//!             | 'lab(' name ',' x ')'      O_name(x)
//!             | 'root(' x ')' | 'leaf(' x ')' | 'first(' x ')' | 'last(' x ')'
//!             | 'succ(' x ',' y ')'
//!             | x '=' y
//!             | 'val(' attr ',' x ')' '=' ('val(' attr ',' y ')' | literal)
//! literal     := integer | ident          (interned as a data value)
//! ```
//!
//! Variables are identifiers; the parser assigns dense [`Var`] indices in
//! order of first occurrence and reports the mapping.
//!
//! Nesting — quantifier bodies, `->` right-hand sides, `!` and
//! parentheses — is bounded by [`MAX_NESTING`]: deeper text is a parse
//! error at the byte where the limit is crossed, never a stack overflow in
//! the parser or in the recursive passes that consume the formula.

use std::collections::HashMap;

use twq_tree::{Label, Vocab};

use crate::fo::{Formula, TreeAtom, Var};

/// How deeply query text may nest: filter brackets in XPath
/// (`twq-xpath`'s parser shares this limit), quantifiers, implications,
/// negations and parentheses in FO. A formula or query exactly this deep
/// still gets through normalization, certification, compilation and
/// evaluation on a 2 MiB pool worker stack.
pub const MAX_NESTING: usize = 256;

/// An FO parse error with position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoParseError {
    /// Byte offset.
    pub at: usize,
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for FoParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FO parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for FoParseError {}

/// A parsed formula plus the variable-name mapping.
#[derive(Debug, Clone)]
pub struct ParsedFormula {
    /// The formula.
    pub formula: Formula,
    /// Variable names in index order (`vars[i]` is the name of `Var(i)`).
    pub vars: Vec<String>,
}

impl ParsedFormula {
    /// The variable with the given name, if it occurred.
    pub fn var(&self, name: &str) -> Option<Var> {
        self.vars
            .iter()
            .position(|n| n == name)
            .map(|i| Var(i as u16))
    }
}

struct P<'s, 'v> {
    src: &'s [u8],
    pos: usize,
    vocab: &'v mut Vocab,
    vars: Vec<String>,
    by_name: HashMap<String, Var>,
    depth: usize,
}

impl P<'_, '_> {
    /// Parse one nested construct with `f`, refusing to go deeper than
    /// [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, FoParseError>,
    ) -> Result<T, FoParseError> {
        if self.depth == MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING}"));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, FoParseError> {
        Err(FoParseError {
            at: self.pos,
            msg: msg.into(),
        })
    }

    fn ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_str(&mut self, s: &str) -> bool {
        self.ws();
        if self.src[self.pos..].starts_with(s.as_bytes()) {
            // Keywords must not run into identifier characters.
            let after = self.src.get(self.pos + s.len());
            let kw_like = s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_');
            if kw_like && after.is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_') {
                return false;
            }
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, FoParseError> {
        self.ws();
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected identifier");
        }
        Ok(std::str::from_utf8(&self.src[start..self.pos])
            .expect("ascii")
            .to_owned())
    }

    fn variable(&mut self) -> Result<Var, FoParseError> {
        let name = self.ident()?;
        Ok(self.var_named(&name))
    }

    fn var_named(&mut self, name: &str) -> Var {
        if let Some(&v) = self.by_name.get(name) {
            return v;
        }
        let v = Var(self.vars.len() as u16);
        self.vars.push(name.to_owned());
        self.by_name.insert(name.to_owned(), v);
        v
    }

    fn formula(&mut self) -> Result<Formula, FoParseError> {
        self.ws();
        // Quantifiers: `E x.` / `A x.` — disambiguate from the atom `E(`.
        if self.peek() == Some(b'E') && self.src.get(self.pos + 1) == Some(&b' ') {
            self.pos += 1;
            let v = self.variable()?;
            if !self.eat(b'.') {
                return self.err("expected '.' after quantified variable");
            }
            let body = self.nested(Self::formula)?;
            return Ok(Formula::Exists(v, Box::new(body)));
        }
        if self.peek() == Some(b'A') && self.src.get(self.pos + 1) == Some(&b' ') {
            self.pos += 1;
            let v = self.variable()?;
            if !self.eat(b'.') {
                return self.err("expected '.' after quantified variable");
            }
            let body = self.nested(Self::formula)?;
            return Ok(Formula::Forall(v, Box::new(body)));
        }
        self.implication()
    }

    fn implication(&mut self) -> Result<Formula, FoParseError> {
        let lhs = self.disjunction()?;
        self.ws();
        if self.eat_str("->") {
            let rhs = self.nested(Self::formula)?;
            return Ok(Formula::Or(vec![Formula::Not(Box::new(lhs)), rhs]));
        }
        Ok(lhs)
    }

    fn disjunction(&mut self) -> Result<Formula, FoParseError> {
        let mut parts = vec![self.conjunction()?];
        while self.eat(b'|') {
            parts.push(self.conjunction()?);
        }
        if parts.len() == 1 {
            Ok(parts.pop().expect("one element"))
        } else {
            Ok(Formula::Or(parts))
        }
    }

    fn conjunction(&mut self) -> Result<Formula, FoParseError> {
        let mut parts = vec![self.negation()?];
        while self.eat(b'&') {
            parts.push(self.negation()?);
        }
        if parts.len() == 1 {
            Ok(parts.pop().expect("one element"))
        } else {
            Ok(Formula::And(parts))
        }
    }

    fn negation(&mut self) -> Result<Formula, FoParseError> {
        self.ws();
        if self.eat(b'!') {
            return Ok(Formula::Not(Box::new(self.nested(Self::negation)?)));
        }
        if self.eat(b'(') {
            return self.nested(|p| {
                let f = p.formula()?;
                if !p.eat(b')') {
                    return p.err("expected ')'");
                }
                Ok(f)
            });
        }
        if self.eat_str("true") {
            return Ok(Formula::True);
        }
        if self.eat_str("false") {
            return Ok(Formula::False);
        }
        self.atom()
    }

    fn two_vars(&mut self) -> Result<(Var, Var), FoParseError> {
        if !self.eat(b'(') {
            return self.err("expected '('");
        }
        let x = self.variable()?;
        if !self.eat(b',') {
            return self.err("expected ','");
        }
        let y = self.variable()?;
        if !self.eat(b')') {
            return self.err("expected ')'");
        }
        Ok((x, y))
    }

    fn one_var(&mut self) -> Result<Var, FoParseError> {
        if !self.eat(b'(') {
            return self.err("expected '('");
        }
        let x = self.variable()?;
        if !self.eat(b')') {
            return self.err("expected ')'");
        }
        Ok(x)
    }

    fn atom(&mut self) -> Result<Formula, FoParseError> {
        self.ws();
        // E(x, y)
        if self.peek() == Some(b'E') && self.src.get(self.pos + 1) == Some(&b'(') {
            self.pos += 1;
            let (x, y) = self.two_vars()?;
            return Ok(Formula::Atom(TreeAtom::Edge(x, y)));
        }
        if self.eat_str("desc") {
            let (x, y) = self.two_vars()?;
            return Ok(Formula::Atom(TreeAtom::Desc(x, y)));
        }
        if self.eat_str("sib") {
            let (x, y) = self.two_vars()?;
            return Ok(Formula::Atom(TreeAtom::SibLess(x, y)));
        }
        if self.eat_str("succ") {
            let (x, y) = self.two_vars()?;
            return Ok(Formula::Atom(TreeAtom::Succ(x, y)));
        }
        if self.eat_str("lab") {
            if !self.eat(b'(') {
                return self.err("expected '('");
            }
            let name = self.ident()?;
            let sym = self.vocab.sym(&name);
            if !self.eat(b',') {
                return self.err("expected ','");
            }
            let x = self.variable()?;
            if !self.eat(b')') {
                return self.err("expected ')'");
            }
            return Ok(Formula::Atom(TreeAtom::Lab(Label::Sym(sym), x)));
        }
        if self.eat_str("root") {
            return Ok(Formula::Atom(TreeAtom::Root(self.one_var()?)));
        }
        if self.eat_str("leaf") {
            return Ok(Formula::Atom(TreeAtom::Leaf(self.one_var()?)));
        }
        if self.eat_str("first") {
            return Ok(Formula::Atom(TreeAtom::First(self.one_var()?)));
        }
        if self.eat_str("last") {
            return Ok(Formula::Atom(TreeAtom::Last(self.one_var()?)));
        }
        if self.eat_str("val") {
            // val(a, x) = val(b, y)  |  val(a, x) = literal
            if !self.eat(b'(') {
                return self.err("expected '('");
            }
            let aname = self.ident()?;
            let a = self.vocab.attr(&aname);
            if !self.eat(b',') {
                return self.err("expected ','");
            }
            let x = self.variable()?;
            if !self.eat(b')') {
                return self.err("expected ')'");
            }
            if !self.eat(b'=') {
                return self.err("expected '=' after val(...)");
            }
            self.ws();
            if self.eat_str("val") {
                if !self.eat(b'(') {
                    return self.err("expected '('");
                }
                let bname = self.ident()?;
                let bb = self.vocab.attr(&bname);
                if !self.eat(b',') {
                    return self.err("expected ','");
                }
                let y = self.variable()?;
                if !self.eat(b')') {
                    return self.err("expected ')'");
                }
                return Ok(Formula::Atom(TreeAtom::ValEq(a, x, bb, y)));
            }
            let neg = self.eat(b'-');
            let tok = self.ident()?;
            let d = if let Ok(mut i) = tok.parse::<i64>() {
                if neg {
                    i = -i;
                }
                self.vocab.val_int(i)
            } else if neg {
                return self.err("'-' must precede an integer");
            } else {
                self.vocab.val_str(&tok)
            };
            return Ok(Formula::Atom(TreeAtom::ValConst(a, x, d)));
        }
        // x = y
        let x = self.variable()?;
        if !self.eat(b'=') {
            return self.err("expected '=' in equality atom");
        }
        let y = self.variable()?;
        Ok(Formula::Atom(TreeAtom::Eq(x, y)))
    }
}

/// Parse an FO formula from the concrete syntax.
pub fn parse_fo(src: &str, vocab: &mut Vocab) -> Result<ParsedFormula, FoParseError> {
    let mut p = P {
        src: src.as_bytes(),
        pos: 0,
        vocab,
        vars: Vec::new(),
        by_name: HashMap::new(),
        depth: 0,
    };
    let formula = p.formula()?;
    p.ws();
    if p.pos != p.src.len() {
        return p.err("trailing input");
    }
    Ok(ParsedFormula {
        formula,
        vars: p.vars,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_sentence;
    use twq_tree::parse_tree;

    #[test]
    fn parses_quantifiers_and_atoms() {
        let mut v = Vocab::new();
        let p = parse_fo("A x. leaf(x) -> E y. E(y, x)", &mut v).unwrap();
        assert!(p.formula.free_vars().is_empty());
        assert_eq!(p.vars, vec!["x", "y"]);
        assert_eq!(p.var("x"), Some(Var(0)));
        assert_eq!(p.var("zzz"), None);
    }

    #[test]
    fn sentence_semantics_match_builders() {
        let mut v = Vocab::new();
        let t = parse_tree("a(b,c(d,e))", &mut v).unwrap();
        // "some leaf is a last child" — true (e, and also b? b is not last).
        let p = parse_fo("E x. leaf(x) & last(x)", &mut v).unwrap();
        assert!(eval_sentence(&t, &p.formula).unwrap());
        // "every node is a leaf" — false.
        let q = parse_fo("A x. leaf(x)", &mut v).unwrap();
        assert!(!eval_sentence(&t, &q.formula).unwrap());
    }

    #[test]
    fn value_atoms() {
        let mut v = Vocab::new();
        let t = parse_tree("a[k=1](b[k=2],c[k=1])", &mut v).unwrap();
        let p = parse_fo("E x. E y. !(x = y) & val(k, x) = val(k, y)", &mut v).unwrap();
        assert!(eval_sentence(&t, &p.formula).unwrap());
        let q = parse_fo("E x. val(k, x) = 2", &mut v).unwrap();
        assert!(eval_sentence(&t, &q.formula).unwrap());
        let r = parse_fo("E x. val(k, x) = 9", &mut v).unwrap();
        assert!(!eval_sentence(&t, &r.formula).unwrap());
    }

    #[test]
    fn structural_atoms() {
        let mut v = Vocab::new();
        let t = parse_tree("a(b,c(d))", &mut v).unwrap();
        for (src, expect) in [
            ("E x. E y. E(x, y) & lab(c, x) & lab(d, y)", true),
            ("E x. E y. desc(x, y) & lab(a, x) & lab(d, y)", true),
            ("E x. E y. sib(x, y) & lab(b, x) & lab(c, y)", true),
            ("E x. E y. sib(x, y) & lab(c, x) & lab(b, y)", false),
            ("E x. E y. succ(x, y) & lab(b, x) & lab(c, y)", true),
            ("E x. root(x) & lab(a, x)", true),
            ("E x. first(x) & lab(c, x)", false),
        ] {
            let p = parse_fo(src, &mut v).unwrap();
            assert_eq!(eval_sentence(&t, &p.formula).unwrap(), expect, "{src}");
        }
    }

    #[test]
    fn precedence_and_grouping() {
        let mut v = Vocab::new();
        let t = parse_tree("a(b)", &mut v).unwrap();
        // & binds tighter than |: false & false | true = true.
        let p = parse_fo("false & false | true", &mut v).unwrap();
        assert!(eval_sentence(&t, &p.formula).unwrap());
        // Parentheses override: false & (false | true) = false.
        let q = parse_fo("false & (false | true)", &mut v).unwrap();
        assert!(!eval_sentence(&t, &q.formula).unwrap());
        // Implication with false antecedent.
        let r = parse_fo("false -> false", &mut v).unwrap();
        assert!(eval_sentence(&t, &r.formula).unwrap());
    }

    #[test]
    fn the_papers_background_example() {
        // §2.2: ∀x (val_a(x) = d ∨ val_a(x) = val_b(x)).
        let mut v = Vocab::new();
        let t = parse_tree("s[a=d,b=q](s[a=7,b=7])", &mut v).unwrap();
        let p = parse_fo("A x. val(a, x) = d | val(a, x) = val(b, x)", &mut v).unwrap();
        assert!(eval_sentence(&t, &p.formula).unwrap());
        let t2 = parse_tree("s[a=z,b=q]", &mut v).unwrap();
        assert!(!eval_sentence(&t2, &p.formula).unwrap());
    }

    #[test]
    fn errors_are_positioned() {
        let mut v = Vocab::new();
        for src in [
            "",
            "E x",
            "E x.",
            "lab(a x)",
            "x =",
            "val(a, x)",
            "(true",
            "x y",
        ] {
            let e = parse_fo(src, &mut v);
            assert!(e.is_err(), "{src}");
        }
    }
}

//! Concrete syntax for the XPath fragment.
//!
//! ```text
//! path   := seq ('|' seq)*
//! seq    := ('/' | '//')? step (('/' | '//') step)*
//! step   := test filter*
//! test   := ident | '*'
//! filter := '[' path ']' | '[@' ident '=' value ']' | '[@' ident '=@' ident ']'
//! value  := ident | integer
//! ```
//!
//! Filters may nest at most [`MAX_NESTING`] deep (the limit FO text shares):
//! deeper text is a parse error at the `[` that crosses it, never a stack
//! overflow in the parser or in the recursive passes that consume the path.

use twq_logic::MAX_NESTING;
use twq_tree::Vocab;

use crate::ast::{Pred, XPath};

/// An XPath parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPathParseError {
    /// Byte offset.
    pub at: usize,
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for XPathParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "xpath parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for XPathParseError {}

struct P<'s, 'v> {
    src: &'s [u8],
    pos: usize,
    vocab: &'v mut Vocab,
    depth: usize,
}

impl P<'_, '_> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, XPathParseError> {
        Err(XPathParseError {
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
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat2(&mut self, a: u8, b: u8) -> bool {
        if self.peek() == Some(a) && self.src.get(self.pos + 1) == Some(&b) {
            self.pos += 2;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<&str, XPathParseError> {
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
        Ok(std::str::from_utf8(&self.src[start..self.pos]).expect("ascii"))
    }

    fn path(&mut self) -> Result<XPath, XPathParseError> {
        let mut p = self.seq()?;
        loop {
            self.ws();
            if self.eat(b'|') {
                let q = self.seq()?;
                p = XPath::Union(Box::new(p), Box::new(q));
            } else {
                return Ok(p);
            }
        }
    }

    fn seq(&mut self) -> Result<XPath, XPathParseError> {
        self.ws();
        // Leading axis.
        let mut p = if self.eat2(b'/', b'/') {
            XPath::FromDesc(Box::new(self.step()?))
        } else if self.eat(b'/') {
            XPath::FromRoot(Box::new(self.step()?))
        } else {
            self.step()?
        };
        loop {
            self.ws();
            if self.eat2(b'/', b'/') {
                let s = self.step()?;
                p = XPath::Descendant(Box::new(p), Box::new(s));
            } else if self.eat(b'/') {
                let s = self.step()?;
                p = XPath::Child(Box::new(p), Box::new(s));
            } else {
                return Ok(p);
            }
        }
    }

    fn step(&mut self) -> Result<XPath, XPathParseError> {
        self.ws();
        let mut p = if self.eat(b'*') {
            XPath::Wild
        } else {
            let name = self.ident()?.to_owned();
            XPath::Name(self.vocab.sym(&name))
        };
        loop {
            self.ws();
            if self.eat(b'[') {
                if self.depth == MAX_NESTING {
                    return self.err(format!("filters nested deeper than {MAX_NESTING}"));
                }
                self.depth += 1;
                let pred = self.pred()?;
                self.depth -= 1;
                self.ws();
                if !self.eat(b']') {
                    return self.err("expected ']'");
                }
                p = XPath::Filter(Box::new(p), Box::new(pred));
            } else {
                return Ok(p);
            }
        }
    }

    fn pred(&mut self) -> Result<Pred, XPathParseError> {
        self.ws();
        if self.eat(b'@') {
            let a = self.ident()?.to_owned();
            let a = self.vocab.attr(&a);
            self.ws();
            if !self.eat(b'=') {
                return self.err("expected '=' in attribute predicate");
            }
            self.ws();
            if self.eat(b'@') {
                let b = self.ident()?.to_owned();
                let b = self.vocab.attr(&b);
                return Ok(Pred::AttrEqAttr(a, b));
            }
            let neg = self.eat(b'-');
            let tok = self.ident()?.to_owned();
            let value = if let Ok(mut i) = tok.parse::<i64>() {
                if neg {
                    i = -i;
                }
                self.vocab.val_int(i)
            } else if neg {
                return self.err("'-' must precede an integer");
            } else {
                self.vocab.val_str(&tok)
            };
            return Ok(Pred::AttrEqConst(a, value));
        }
        Ok(Pred::Path(crate::ast::relativize(self.path()?)))
    }
}

/// Parse an XPath expression, interning names into `vocab`.
pub fn parse_xpath(src: &str, vocab: &mut Vocab) -> Result<XPath, XPathParseError> {
    let mut p = P {
        src: src.as_bytes(),
        pos: 0,
        vocab,
        depth: 0,
    };
    let path = p.path()?;
    p.ws();
    if p.pos != p.src.len() {
        return p.err("trailing input");
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::xb;

    #[test]
    fn parses_paper_shapes() {
        let mut v = Vocab::new();
        for src in [
            "a",
            "*",
            "a/b",
            "a//b",
            "/a",
            "//a",
            "a/b[c//d]",
            "a | b",
            "a/b | c//d",
            "a[b][c]",
            "a[@k=3]",
            "a[@k=@m]",
            "a[@k=xyz]",
        ] {
            let p = parse_xpath(src, &mut v);
            assert!(p.is_ok(), "{src}: {p:?}");
        }
    }

    #[test]
    fn structure_of_composite() {
        let mut v = Vocab::new();
        let p = parse_xpath("a/b//c", &mut v).unwrap();
        let (a, b, c) = (
            v.sym_opt("a").unwrap(),
            v.sym_opt("b").unwrap(),
            v.sym_opt("c").unwrap(),
        );
        // Left-associated: (a/b)//c.
        assert_eq!(
            p,
            xb::desc(xb::child(xb::name(a), xb::name(b)), xb::name(c))
        );
    }

    #[test]
    fn union_binds_loosest() {
        let mut v = Vocab::new();
        let p = parse_xpath("a/b | c", &mut v).unwrap();
        assert!(matches!(p, XPath::Union(_, _)));
    }

    #[test]
    fn display_parse_round_trip() {
        let mut v = Vocab::new();
        for src in ["a/b//c[d]", "/a[@k=3] | //b[@k=@m]", "*[b/c]"] {
            let p = parse_xpath(src, &mut v).unwrap();
            let shown = p.display(&v);
            let p2 = parse_xpath(&shown, &mut v).unwrap();
            assert_eq!(p, p2, "{src} → {shown}");
        }
    }

    #[test]
    fn rejects_garbage() {
        let mut v = Vocab::new();
        for src in ["", "/", "a/", "a[", "a[]", "a[@k]", "a]", "a[@k=-x]", "|a"] {
            assert!(parse_xpath(src, &mut v).is_err(), "{src}");
        }
    }
}

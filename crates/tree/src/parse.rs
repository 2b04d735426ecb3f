//! A compact term syntax for attributed trees, used by tests, examples, and
//! documentation.
//!
//! Grammar:
//!
//! ```text
//! term     := label attrs? children?
//! label    := ident
//! attrs    := '[' ident '=' value (',' ident '=' value)* ']'
//! value    := ident | integer
//! children := '(' term (',' term)* ')'
//! ```
//!
//! Example: `a[id=1](b[v=x], c(d, e[v=7]))`.

use std::fmt::Write as _;

use crate::tree::{Label, NodeId, Tree};
use crate::vocab::Vocab;

/// An error produced while parsing the term syntax.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'s, 'v> {
    src: &'s [u8],
    pos: usize,
    vocab: &'v mut Vocab,
}

impl<'s, 'v> Parser<'s, 'v> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            at: self.pos,
            msg: msg.into(),
        })
    }

    fn skip_ws(&mut self) {
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

    fn ident(&mut self) -> Result<&'s str, ParseError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_' || c == b'#')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return self.err("expected identifier");
        }
        Ok(std::str::from_utf8(&self.src[start..self.pos]).expect("ascii slice"))
    }

    fn value(&mut self) -> Result<crate::vocab::Value, ParseError> {
        let start = self.pos;
        let neg = self.eat(b'-');
        let tok = self.ident()?;
        if let Ok(mut i) = tok.parse::<i64>() {
            if neg {
                i = -i;
            }
            return Ok(self.vocab.val_int(i));
        }
        if neg {
            self.pos = start;
            return self.err("'-' must be followed by an integer");
        }
        Ok(self.vocab.val_str(tok))
    }

    /// Parse one node's label and attributes, creating it as the last
    /// child of `parent` (or as the root of a new tree).
    fn head(
        &mut self,
        tree: &mut Option<Tree>,
        parent: Option<NodeId>,
    ) -> Result<NodeId, ParseError> {
        self.skip_ws();
        let name = self.ident()?;
        let label = Label::Sym(self.vocab.sym(name));
        let node = match (parent, tree.as_mut()) {
            (Some(p), Some(t)) => t.add_child(p, label),
            (None, None) => {
                *tree = Some(Tree::new(label));
                tree.as_ref().expect("just set").root()
            }
            _ => unreachable!("parent iff tree exists"),
        };
        self.skip_ws();
        if self.eat(b'[') {
            loop {
                self.skip_ws();
                let aname = self.ident()?;
                let attr = self.vocab.attr(aname);
                self.skip_ws();
                if !self.eat(b'=') {
                    return self.err("expected '=' in attribute");
                }
                self.skip_ws();
                let val = self.value()?;
                tree.as_mut()
                    .expect("tree exists")
                    .set_attr(node, attr, val);
                self.skip_ws();
                if self.eat(b']') {
                    break;
                }
                if !self.eat(b',') {
                    return self.err("expected ',' or ']' in attribute list");
                }
            }
        }
        Ok(node)
    }

    /// Parse a whole term. Nesting is tracked on an explicit stack of the
    /// nodes whose child lists are open, so depth costs heap, not call
    /// stack: a million-deep chain parses like a million-wide fan.
    fn term(&mut self, tree: &mut Option<Tree>) -> Result<(), ParseError> {
        let mut open: Vec<NodeId> = Vec::new();
        let mut node = self.head(tree, None)?;
        loop {
            self.skip_ws();
            if self.eat(b'(') {
                open.push(node);
                node = self.head(tree, Some(node))?;
                continue;
            }
            // `node` is complete: close child lists until one continues.
            loop {
                let Some(&parent) = open.last() else {
                    return Ok(());
                };
                self.skip_ws();
                if self.eat(b')') {
                    open.pop();
                    continue;
                }
                if !self.eat(b',') {
                    return self.err("expected ',' or ')' in child list");
                }
                node = self.head(tree, Some(parent))?;
                break;
            }
        }
    }
}

/// Parse a tree from the term syntax, interning into `vocab`.
pub fn parse_tree(src: &str, vocab: &mut Vocab) -> Result<Tree, ParseError> {
    let mut p = Parser {
        src: src.as_bytes(),
        pos: 0,
        vocab,
    };
    let mut tree = None;
    p.term(&mut tree)?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return p.err("trailing input after tree");
    }
    let t = tree.expect("term() always creates the root");
    debug_assert!(t.check_consistency().is_ok());
    Ok(t)
}

/// Render a tree back into the term syntax (inverse of [`parse_tree`] up to
/// whitespace). The walk follows child, sibling and parent links in
/// preorder, so it needs no stack at any depth.
pub fn tree_to_string(tree: &Tree, vocab: &Vocab) -> String {
    let mut out = String::new();
    let mut u = tree.root();
    loop {
        write_head(tree, u, vocab, &mut out);
        if let Some(c) = tree.first_child(u) {
            out.push('(');
            u = c;
            continue;
        }
        // `u` is finished: climb to the nearest ancestor-or-self that has
        // a next sibling, closing the child lists passed on the way.
        loop {
            if u == tree.root() {
                return out;
            }
            if let Some(s) = tree.next_sibling(u) {
                out.push(',');
                u = s;
                break;
            }
            u = tree.parent(u).expect("a non-root node has a parent");
            out.push(')');
        }
    }
}

/// One node's label and attribute list.
fn write_head(tree: &Tree, u: NodeId, vocab: &Vocab, out: &mut String) {
    out.push_str(&tree.label(u).display(vocab));
    let attrs: Vec<(u16, crate::vocab::Value)> = (0..tree.attr_columns() as u16)
        .filter_map(|a| {
            let v = tree.attr(u, crate::vocab::AttrId(a));
            (!v.is_bot()).then_some((a, v))
        })
        .collect();
    if !attrs.is_empty() {
        out.push('[');
        for (i, (a, v)) in attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}={}",
                vocab.attr_name(crate::vocab::AttrId(*a)),
                vocab.value_display(*v)
            );
        }
        out.push(']');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let mut v = Vocab::new();
        let t = parse_tree("a(b,c(d,e))", &mut v).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(t.child_count(t.root()), 2);
        let c = t.node_at_path(&[2]).unwrap();
        assert_eq!(t.child_count(c), 2);
    }

    #[test]
    fn parse_attributes() {
        let mut v = Vocab::new();
        let t = parse_tree("a[id=1,v=x](b[v=-3])", &mut v).unwrap();
        let id = v.attr_opt("id").unwrap();
        let va = v.attr_opt("v").unwrap();
        assert_eq!(t.attr(t.root(), id), v.val_int_opt(1).unwrap());
        assert_eq!(t.attr(t.root(), va), v.val_str_opt("x").unwrap());
        let b = t.node_at_path(&[1]).unwrap();
        assert_eq!(t.attr(b, va), v.val_int_opt(-3).unwrap());
        assert!(t.attr(b, id).is_bot());
    }

    #[test]
    fn parse_whitespace_tolerant() {
        let mut v = Vocab::new();
        let t = parse_tree("  a ( b , c [ k = 7 ] ) ", &mut v).unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn parse_errors() {
        let mut v = Vocab::new();
        assert!(parse_tree("", &mut v).is_err());
        assert!(parse_tree("a(", &mut v).is_err());
        assert!(parse_tree("a(b,)", &mut v).is_err());
        assert!(parse_tree("a[x]", &mut v).is_err());
        assert!(parse_tree("a[x=1", &mut v).is_err());
        assert!(parse_tree("a b", &mut v).is_err());
        assert!(parse_tree("a[x=-y]", &mut v).is_err());
    }

    #[test]
    fn display_round_trips() {
        let mut v = Vocab::new();
        let src = "a[id=1](b[v=x],c(d[k=-9],e))";
        let t = parse_tree(src, &mut v).unwrap();
        let rendered = tree_to_string(&t, &v);
        assert_eq!(rendered, src);
        let t2 = parse_tree(&rendered, &mut v).unwrap();
        assert_eq!(tree_to_string(&t2, &v), src);
    }

    #[test]
    fn error_display_mentions_position() {
        let mut v = Vocab::new();
        let e = parse_tree("a(b,)", &mut v).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("parse error"), "{msg}");
    }
}

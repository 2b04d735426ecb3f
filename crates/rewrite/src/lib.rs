//! # twq-rw — query-level static analysis
//!
//! The rewrite layer in front of every evaluator: canonical normal forms
//! for the paper's XPath fragment and prenex FO(∃*), a semantics-
//! preserving rewrite engine with a named-rule catalog, conservative
//! emptiness + containment checking for the downward fragment (after
//! Hellings et al.), and a **streamability certification pass** — the
//! query-level face of the paper's bounded-configuration argument (§7).
//!
//! * [`rules`] — the [`RwRule`] catalog; every rule carries its own
//!   proptest equivalence obligation in `tests/rewrite.rs`;
//! * [`norm`] — the bottom-up fixpoint engine and [`normalize`];
//! * [`contain`] — [`provably_empty`] and [`contains`] (sound,
//!   incomplete, brute-force-verified on bounded random trees);
//! * [`stream`] — [`certify`] into [`Certificate`], plus the one-pass
//!   [`stream_select`] evaluator that validates certificates;
//! * [`fo`] — FO / FO(∃*) normal forms;
//! * [`route`] — the query planner: one [`QueryPlan`] built by
//!   [`plan_query`] (certificate, and cost when the tree is indexed) and
//!   run by [`execute_plan`];
//! * [`diag`] — the `RW`/`ST` diagnostic codes extending the
//!   `twq-analyze` taxonomy to queries.
//!
//! The pass reports telemetry through the `twq-obs` [`Collector`] seam
//! (`rewrite/rules_fired/<name>`, `rewrite/pruned_branches`,
//! `rewrite/certified_streamable`); with a `NullCollector` the hooks
//! compile to nothing.

pub mod contain;
pub mod diag;
pub mod fo;
pub mod norm;
pub mod route;
pub mod rules;
pub mod stream;

use twq_obs::{Collector, NullCollector};
use twq_xpath::XPath;

pub use contain::{contains, is_self_relation, pred_tautology, provably_empty, RewriteCtx};
pub use diag::{query_severity_counts, QueryDiagnostic, Severity};
pub use fo::{normalize_exists, normalize_formula};
pub use norm::{apply_rule_deep, normalize, normalize_in, normalize_seeded};
pub use route::{
    execute_plan, plan_indexed, plan_query, run_query_indexed, run_query_planned, Evaluator,
    IndexedEvaluator, QueryPlan,
};
pub use rules::{rule, RwRule, CATALOG};
pub use stream::{certify, stream_select, stream_select_gauged, Certificate, StreamStats};

/// The record of one rewrite: what went in, what came out, which rules
/// fired, what the certificate says, and the findings to report.
#[derive(Debug)]
pub struct Rewritten {
    /// The query as given.
    pub input: XPath,
    /// Its canonical normal form.
    pub output: XPath,
    /// The whole query is provably empty (certificate
    /// [`Certificate::Empty`], diagnostic `RW002`).
    pub provably_empty: bool,
    /// Rule name → fire count, in catalog order, fired rules only.
    pub fired: Vec<(&'static str, u64)>,
    /// Union branches deleted by dedupe, emptiness, or subsumption.
    pub pruned_branches: u64,
    /// The streamability certificate of the normal form.
    pub certificate: Certificate,
    /// `RW`/`ST` findings.
    pub diagnostics: Vec<QueryDiagnostic>,
}

/// Rewrite under the default (assumption-free) context.
pub fn rewrite(q: &XPath) -> Rewritten {
    rewrite_in(q, &RewriteCtx::unconstrained())
}

/// Rewrite under `ctx`.
pub fn rewrite_in(q: &XPath, ctx: &RewriteCtx) -> Rewritten {
    rewrite_with(q, ctx, &mut NullCollector)
}

/// Rewrite under `ctx`, reporting telemetry through `c`.
pub fn rewrite_with<C: Collector>(q: &XPath, ctx: &RewriteCtx, c: &mut C) -> Rewritten {
    let (output, st) = norm::normalize_stats(q, ctx);
    let provably_empty = provably_empty(&output, ctx);
    let certificate = if provably_empty {
        Certificate::Empty
    } else {
        certify(&output)
    };

    // Fired counts in catalog order, with their static counter names.
    let mut fired = Vec::new();
    for r in CATALOG {
        if let Some(&n) = st.fired.get(r.name) {
            fired.push((r.name, n));
            c.counter(r.counter, n);
        }
    }
    if st.pruned > 0 {
        c.counter("rewrite/pruned_branches", st.pruned);
    }
    if certificate.is_streamable() {
        c.counter("rewrite/certified_streamable", 1);
    }

    let mut diagnostics = Vec::new();
    let fired_count = |name: &str| {
        fired
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, n)| *n)
    };
    if fired_count("empty-prune") > 0 {
        diagnostics.push(QueryDiagnostic {
            severity: Severity::Info,
            code: "RW001",
            message: "provably-empty union branch(es) deleted".to_owned(),
            hint: "the branch can never select a node on conforming trees",
        });
    }
    if provably_empty {
        diagnostics.push(QueryDiagnostic {
            severity: Severity::Warning,
            code: "RW002",
            message: "query is provably empty".to_owned(),
            hint: "it selects nothing on any conforming tree; evaluation short-circuits",
        });
    }
    if fired_count("union-subsume") > 0 {
        diagnostics.push(QueryDiagnostic {
            severity: Severity::Info,
            code: "RW003",
            message: format!(
                "union branch(es) subsumed by siblings ({} branch(es) pruned in total)",
                st.pruned
            ),
            hint: "p ⊑ q justifies rewriting p | q to q",
        });
    }
    if fired_count("filter-true") > 0 {
        diagnostics.push(QueryDiagnostic {
            severity: Severity::Info,
            code: "RW004",
            message: "tautological filter(s) dropped".to_owned(),
            hint: "the predicate holds at every node",
        });
    }
    match &certificate {
        Certificate::Empty => {}
        Certificate::Streamable { max_depth_state } => diagnostics.push(QueryDiagnostic {
            severity: Severity::Info,
            code: "ST001",
            message: format!(
                "certified streamable with at most {max_depth_state} active states per level"
            ),
            hint: "a single document-order pass answers this query in O(depth) memory",
        }),
        Certificate::NotStreamable { witness } => diagnostics.push(QueryDiagnostic {
            severity: Severity::Info,
            code: "ST002",
            message: format!("not streamable: {witness}"),
            hint: "the relational evaluator handles it",
        }),
    }

    Rewritten {
        input: q.clone(),
        output,
        provably_empty,
        fired,
        pruned_branches: st.pruned,
        certificate,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twq_obs::MetricsCollector;
    use twq_tree::Vocab;
    use twq_xpath::ast::xb;

    #[test]
    fn rewrite_reports_rules_and_certificate() {
        let mut v = Vocab::new();
        let a = xb::name(v.sym("a"));
        let b = xb::name(v.sym("b"));
        let q = xb::union(
            xb::child(a.clone(), b.clone()),
            xb::desc(a.clone(), b.clone()),
        );
        let rw = rewrite(&q);
        assert_eq!(rw.output, xb::desc(a.clone(), b.clone()));
        assert!(rw.pruned_branches >= 1);
        assert!(rw.certificate.is_streamable());
        assert!(rw.diagnostics.iter().any(|d| d.code == "RW003"));
        assert!(rw.diagnostics.iter().any(|d| d.code == "ST001"));
        assert!(!rw.provably_empty);
    }

    #[test]
    fn telemetry_lands_in_registry_verbatim() {
        let mut v = Vocab::new();
        let a = xb::name(v.sym("a"));
        let q = xb::union(a.clone(), a.clone());
        let mut reg = twq_obs::Registry::new();
        let mut c = MetricsCollector::with_registry(&mut reg);
        let rw = rewrite_with(&q, &RewriteCtx::unconstrained(), &mut c);
        assert_eq!(rw.output, a);
        drop(c);
        assert!(reg.counter("rewrite/rules_fired/union-canon") >= 1);
        assert!(reg.counter("rewrite/pruned_branches") >= 1);
        assert_eq!(reg.counter("rewrite/certified_streamable"), 1);
    }

    #[test]
    fn empty_query_gets_rw002() {
        let mut v = Vocab::new();
        let a = v.sym("a");
        let ghost = v.sym("ghost");
        let ctx = RewriteCtx::unconstrained().with_alphabet([a]);
        let rw = rewrite_in(&xb::name(ghost), &ctx);
        assert!(rw.provably_empty);
        assert_eq!(rw.certificate, Certificate::Empty);
        assert!(rw.diagnostics.iter().any(|d| d.code == "RW002"));
    }
}

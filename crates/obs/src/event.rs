//! The evaluator-neutral event vocabulary the
//! [`Collector`](crate::collect::Collector) hooks speak: why a run ended
//! ([`HaltKind`]) and which first-order primitive ran ([`FoEval`]).

/// Why a run (or one computation chain) ended — the evaluator-neutral
/// union of the engines' halt enums.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HaltKind {
    /// The final/accepting state was reached.
    Accept,
    /// No rule applied (includes moves off the tree or tape).
    Stuck,
    /// A configuration repeated.
    Cycle,
    /// Several rules applied in a deterministic run.
    Nondeterministic,
    /// A subcomputation rejected, rejecting the whole computation.
    SubRejected,
    /// The step budget was exhausted.
    StepLimit,
    /// The `atp` nesting budget was exhausted.
    AtpDepthLimit,
    /// The tape-space budget was exhausted (`xTM` runs).
    SpaceLimit,
}

impl HaltKind {
    /// A stable lowercase name, used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            HaltKind::Accept => "accept",
            HaltKind::Stuck => "stuck",
            HaltKind::Cycle => "cycle",
            HaltKind::Nondeterministic => "nondeterministic",
            HaltKind::SubRejected => "sub_rejected",
            HaltKind::StepLimit => "step_limit",
            HaltKind::AtpDepthLimit => "atp_depth_limit",
            HaltKind::SpaceLimit => "space_limit",
        }
    }

    /// Whether this halt means acceptance.
    pub fn accepted(self) -> bool {
        self == HaltKind::Accept
    }
}

/// Which first-order evaluation primitive was invoked. Each evaluator
/// reports the primitives it actually exercises;
/// [`RunMetrics`](crate::metrics::RunMetrics) tallies them per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FoEval {
    /// A rule-guard sentence over the store (`eval_guard`).
    Guard,
    /// A store-update query (`eval_query`).
    Update,
    /// An `atp` node-selection (`φ.select`).
    Select,
    /// One tree-atom evaluation inside the FO model checker.
    Atom,
    /// A full FO sentence check (`eval_sentence`).
    Sentence,
    /// One recursive XPath path-evaluation call.
    Path,
    /// One XPath filter-predicate check.
    Pred,
}

impl FoEval {
    /// Number of variants (sizes the per-kind counter array).
    pub const COUNT: usize = 7;

    /// All variants, in counter-index order.
    pub const ALL: [FoEval; FoEval::COUNT] = [
        FoEval::Guard,
        FoEval::Update,
        FoEval::Select,
        FoEval::Atom,
        FoEval::Sentence,
        FoEval::Path,
        FoEval::Pred,
    ];

    /// A stable lowercase name, used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            FoEval::Guard => "guard",
            FoEval::Update => "update",
            FoEval::Select => "select",
            FoEval::Atom => "atom",
            FoEval::Sentence => "sentence",
            FoEval::Path => "path",
            FoEval::Pred => "pred",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(HaltKind::SubRejected.name(), "sub_rejected");
        assert!(HaltKind::Accept.accepted());
        assert!(!HaltKind::Cycle.accepted());
        for (i, k) in FoEval::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "{k:?} out of order");
        }
    }
}

//! Derivation trees: machine-checkable proofs produced by the engine.
//!
//! A derivation mirrors the numbered statement sequences of the paper
//! (Appendix E statements 12–25): every node records the formula concluded
//! and the rule that justified it, with premises as children.

use core::fmt;
use std::sync::Arc;

use crate::axioms::Axiom;
use crate::syntax::Formula;

/// The justification attached to a derivation node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Rule {
    /// An axiom schema application.
    Axiom(Axiom),
    /// An initial belief of the verifier (a trust assumption), with a label
    /// such as `"Statement 1"`.
    InitialBelief(String),
    /// A message received on the wire (certificates, signed requests).
    Received(String),
    /// A side condition checked outside the logic (e.g. an ACL lookup or a
    /// timestamp freshness window).
    SideCondition(String),
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rule::Axiom(a) => write!(f, "axiom {a}"),
            Rule::InitialBelief(label) => write!(f, "initial belief ({label})"),
            Rule::Received(label) => write!(f, "received ({label})"),
            Rule::SideCondition(label) => write!(f, "side condition ({label})"),
        }
    }
}

/// A proof tree: conclusion, justification, premises.
///
/// Premises are shared via [`Arc`]: the engine reuses the same belief
/// sub-proofs across many conclusions, so a premise is a reference-count
/// bump rather than a subtree copy. Rendering and traversal are unchanged
/// (an `Arc<Derivation>` dereferences like a `Derivation`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Derivation {
    /// The formula this node concludes.
    pub(crate) conclusion: Formula,
    /// How it was concluded.
    pub(crate) rule: Rule,
    /// Sub-derivations for the premises.
    pub(crate) premises: Vec<Arc<Derivation>>,
}

impl Derivation {
    /// A leaf node (no premises).
    #[must_use]
    pub(crate) fn leaf(conclusion: Formula, rule: Rule) -> Self {
        Derivation {
            conclusion,
            rule,
            premises: Vec::new(),
        }
    }

    /// An axiom application over premises.
    #[must_use]
    pub(crate) fn by_axiom(
        conclusion: Formula,
        axiom: Axiom,
        premises: Vec<Arc<Derivation>>,
    ) -> Self {
        Derivation {
            conclusion,
            rule: Rule::Axiom(axiom),
            premises,
        }
    }

    /// Wraps this derivation for sharing as a premise.
    #[must_use]
    pub(crate) fn share(self) -> Arc<Derivation> {
        Arc::new(self)
    }

    /// Number of axiom applications in the tree (experiment E8's cost
    /// metric).
    #[must_use]
    pub fn axiom_applications(&self) -> usize {
        let own = usize::from(matches!(self.rule, Rule::Axiom(_)));
        own + self
            .premises
            .iter()
            .map(|p| p.axiom_applications())
            .sum::<usize>()
    }

    /// All distinct axioms used, in first-use order.
    #[must_use]
    pub fn axioms_used(&self) -> Vec<Axiom> {
        let mut out = Vec::new();
        self.collect_axioms(&mut out);
        out
    }

    fn collect_axioms(&self, out: &mut Vec<Axiom>) {
        for p in &self.premises {
            p.collect_axioms(out);
        }
        if let Rule::Axiom(a) = self.rule {
            if !out.contains(&a) {
                out.push(a);
            }
        }
    }

    /// Renders the proof as an indented listing (premises above
    /// conclusions, like the paper's statement sequences).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for p in &self.premises {
            p.render_into(out, depth + 1);
        }
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!("{}   [{}]\n", self.conclusion, self.rule));
    }

    /// Renders the proof as a numbered statement sequence in the style of
    /// the paper's Appendix E ("12. P believes … [A10 on 11, 6]"): each
    /// line cites the numbers of its premises.
    #[must_use]
    pub fn render_numbered(&self) -> String {
        let mut out = String::new();
        let mut counter = 0usize;
        self.number_into(&mut out, &mut counter);
        out
    }

    fn number_into(&self, out: &mut String, counter: &mut usize) -> usize {
        let premise_ids: Vec<usize> = self
            .premises
            .iter()
            .map(|p| p.number_into(out, counter))
            .collect();
        *counter += 1;
        let id = *counter;
        let citation = if premise_ids.is_empty() {
            format!("[{}]", self.rule)
        } else {
            let nums: Vec<String> = premise_ids.iter().map(ToString::to_string).collect();
            format!("[{} on {}]", self.rule, nums.join(", "))
        };
        out.push_str(&format!("{id:>3}. {}   {citation}\n", self.conclusion));
        id
    }

    /// Depth-first iterator over all conclusions in the tree.
    #[must_use]
    pub fn conclusions(&self) -> Vec<&Formula> {
        let mut out = Vec::new();
        self.collect_conclusions(&mut out);
        out
    }

    fn collect_conclusions<'a>(&'a self, out: &mut Vec<&'a Formula>) {
        for p in &self.premises {
            p.collect_conclusions(out);
        }
        out.push(&self.conclusion);
    }
}

impl fmt::Display for Derivation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::{Message, Subject, Time};

    fn prop(s: &str) -> Formula {
        Formula::Prop(s.into())
    }

    fn sample() -> Derivation {
        let leaf1 = Derivation::leaf(prop("a"), Rule::InitialBelief("Statement 1".into())).share();
        let leaf2 = Derivation::leaf(prop("b"), Rule::Received("Message 1-1".into())).share();
        let mid = Derivation::by_axiom(prop("c"), Axiom::A10, vec![leaf1, leaf2]).share();
        Derivation::by_axiom(prop("d"), Axiom::A22, vec![mid])
    }

    #[test]
    fn size_and_axiom_count() {
        fn size(d: &Derivation) -> usize {
            1 + d.premises.iter().map(|p| size(p)).sum::<usize>()
        }
        let d = sample();
        assert_eq!(size(&d), 4);
        assert_eq!(d.axiom_applications(), 2);
    }

    #[test]
    fn axioms_used_in_first_use_order() {
        let d = sample();
        assert_eq!(d.axioms_used(), vec![Axiom::A10, Axiom::A22]);
    }

    #[test]
    fn render_lists_premises_before_conclusion() {
        let text = sample().render();
        let pos_a = text.find("a   [").expect("a");
        let pos_c = text.find("c   [axiom A10]").expect("c");
        let pos_d = text.find("d   [axiom A22]").expect("d");
        assert!(pos_a < pos_c && pos_c < pos_d);
    }

    #[test]
    fn conclusions_enumerates_all_nodes() {
        let d = sample();
        let cs = d.conclusions();
        assert_eq!(cs.len(), 4);
        assert_eq!(cs.last(), Some(&&prop("d")));
    }

    #[test]
    fn numbered_rendering_cites_premises() {
        let text = sample().render_numbered();
        // Leaves first, conclusion last; the final line cites statement 3.
        assert!(text.contains("  1. a   [initial belief (Statement 1)]"));
        assert!(text.contains("  2. b   [received (Message 1-1)]"));
        assert!(text.contains("  3. c   [axiom A10 on 1, 2]"));
        assert!(text.contains("  4. d   [axiom A22 on 3]"));
    }

    #[test]
    fn display_of_rules() {
        assert_eq!(Rule::Axiom(Axiom::A38).to_string(), "axiom A38");
        assert_eq!(
            Rule::SideCondition("ACL check".into()).to_string(),
            "side condition (ACL check)"
        );
    }

    #[test]
    fn leaf_with_real_formula() {
        let f = Formula::says(Subject::principal("U"), Time(1), Message::data("x"));
        let d = Derivation::leaf(f.clone(), Rule::Received("request".into()));
        assert_eq!(d.conclusion, f);
        assert_eq!(d.axiom_applications(), 0);
    }
}

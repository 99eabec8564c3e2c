//! The axiom system (paper Appendix B): inference rules R1–R2 and axiom
//! schemas A1–A38, as first-class values.
//!
//! Every [`crate::Derivation`] node is labeled with the [`Axiom`] that
//! justified it, so proofs printed by the engine read like the paper's
//! statement sequences (e.g. statements 12–25 of Appendix E).

use core::fmt;

/// An axiom schema or inference rule of the logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // the variants are the paper's axiom numbers
pub enum Axiom {
    R1,
    R2,
    A1,
    A2,
    A3,
    A4,
    A5,
    A6,
    A7,
    A8,
    A9,
    A10,
    A11,
    A12,
    A13,
    A14,
    A15,
    A16,
    A17,
    A18,
    A19,
    A20,
    A21,
    A22,
    A23,
    A24,
    A25,
    A26,
    A27,
    A28,
    A29,
    A30,
    A31,
    A32,
    A33,
    A34,
    A35,
    A36,
    A37,
    A38,
}

impl Axiom {
    /// All axioms and rules, in paper order.
    pub const ALL: [Axiom; 40] = [
        Axiom::R1,
        Axiom::R2,
        Axiom::A1,
        Axiom::A2,
        Axiom::A3,
        Axiom::A4,
        Axiom::A5,
        Axiom::A6,
        Axiom::A7,
        Axiom::A8,
        Axiom::A9,
        Axiom::A10,
        Axiom::A11,
        Axiom::A12,
        Axiom::A13,
        Axiom::A14,
        Axiom::A15,
        Axiom::A16,
        Axiom::A17,
        Axiom::A18,
        Axiom::A19,
        Axiom::A20,
        Axiom::A21,
        Axiom::A22,
        Axiom::A23,
        Axiom::A24,
        Axiom::A25,
        Axiom::A26,
        Axiom::A27,
        Axiom::A28,
        Axiom::A29,
        Axiom::A30,
        Axiom::A31,
        Axiom::A32,
        Axiom::A33,
        Axiom::A34,
        Axiom::A35,
        Axiom::A36,
        Axiom::A37,
        Axiom::A38,
    ];

    /// The paper's identifier, e.g. `"A10"`.
    #[must_use]
    pub fn id(&self) -> &'static str {
        match self {
            Axiom::R1 => "R1",
            Axiom::R2 => "R2",
            Axiom::A1 => "A1",
            Axiom::A2 => "A2",
            Axiom::A3 => "A3",
            Axiom::A4 => "A4",
            Axiom::A5 => "A5",
            Axiom::A6 => "A6",
            Axiom::A7 => "A7",
            Axiom::A8 => "A8",
            Axiom::A9 => "A9",
            Axiom::A10 => "A10",
            Axiom::A11 => "A11",
            Axiom::A12 => "A12",
            Axiom::A13 => "A13",
            Axiom::A14 => "A14",
            Axiom::A15 => "A15",
            Axiom::A16 => "A16",
            Axiom::A17 => "A17",
            Axiom::A18 => "A18",
            Axiom::A19 => "A19",
            Axiom::A20 => "A20",
            Axiom::A21 => "A21",
            Axiom::A22 => "A22",
            Axiom::A23 => "A23",
            Axiom::A24 => "A24",
            Axiom::A25 => "A25",
            Axiom::A26 => "A26",
            Axiom::A27 => "A27",
            Axiom::A28 => "A28",
            Axiom::A29 => "A29",
            Axiom::A30 => "A30",
            Axiom::A31 => "A31",
            Axiom::A32 => "A32",
            Axiom::A33 => "A33",
            Axiom::A34 => "A34",
            Axiom::A35 => "A35",
            Axiom::A36 => "A36",
            Axiom::A37 => "A37",
            Axiom::A38 => "A38",
        }
    }

    /// The schema as stated in the paper (Appendix B), in our notation.
    #[must_use]
    pub fn statement(&self) -> &'static str {
        match self {
            Axiom::R1 => "Modus Ponens: from φ and φ ⊃ ψ infer ψ",
            Axiom::R2 => "Necessitation: if ⊢ φ, from φ infer P believes_t φ",
            Axiom::A1 => "P believes_t φ ∧ P believes_t (φ ⊃ ψ) ⊃ P believes_t ψ",
            Axiom::A2 => "P believes_t φ ≡ P believes_t P believes_t φ",
            Axiom::A3 => "P believes_t φ ≡ P believes_t (φ at_P t)",
            Axiom::A4 => "CP believes_t φ ∧ CP believes_t (φ ⊃ ψ) ⊃ CP believes_t ψ",
            Axiom::A5 => "CP believes_t φ ≡ CP believes_t CP believes_t φ",
            Axiom::A6 => "CP believes_t φ ≡ CP believes_t (φ at_CP t)",
            Axiom::A7 => "time-interval: S believes_[t1,t2] φ ≡ ∀t ∈ [t1,t2]. S believes_t φ (and for controls/received/says/said/has/⇒)",
            Axiom::A8 => "monotonicity: received/said/has persist forward; fresh persists backward; at composes",
            Axiom::A9 => "reduction: (φ at_P t1) at_P t2 ∧ t2 ≥ t1 ⊃ φ at_P t2 (for says/said/received bodies)",
            Axiom::A10 => "originator identification: K ⇒_{t,P} S ∧ P received_t ⟨X⟩_{K⁻¹} ⊃ S said_{t,P} X ∧ S said_{t,P} ⟨X⟩_{K⁻¹} (S a principal, compound, or threshold compound)",
            Axiom::A11 => "P received_t {X}_K ∧ P has_t K⁻¹ ⊃ P received_t X",
            Axiom::A12 => "P received_t ⟨X⟩_{K⁻¹} ⊃ P received_t X",
            Axiom::A13 => "CP received_t {X}_K ∧ CP has_t K⁻¹ ⊃ CP received_t X",
            Axiom::A14 => "CP received_t ⟨X⟩_{K⁻¹} ⊃ CP received_t X",
            Axiom::A15 => "P said_t (X1,…,Xn) ⊃ P said_t Xi",
            Axiom::A16 => "P says_t (X1,…,Xn) ⊃ P says_t Xi",
            Axiom::A17 => "P said_t ⟨X⟩_{K⁻¹} ⊃ P said_t X",
            Axiom::A18 => "P says_t ⟨X⟩_{K⁻¹} ⊃ P says_t X",
            Axiom::A19 => "P said_t X ⊃ ∃t' ≥ t. P says_{t'} X",
            Axiom::A20 => "P says_t X ⊃ P said_t X",
            Axiom::A21 => "freshness: fresh_t X ⊃ fresh_t F(X,Y)",
            Axiom::A22 => "jurisdiction: P controls_t φ ∧ P says_t φ ⊃ φ at_P t",
            Axiom::A23 => "multi-principal jurisdiction: CP controls_t φ ∧ CP says_t φ ⊃ φ at_CP t",
            Axiom::A24 => "P controls_t Q ⇒_{t'} G ∧ P says_t Q ⇒_{t'} G ⊃ Q ⇒_{t'} G at_P t",
            Axiom::A25 => "P controls_t CP' ⇒_{t'} G ∧ P says_t CP' ⇒_{t'} G ⊃ CP' ⇒_{t'} G at_P t",
            Axiom::A26 => "P controls_t Q|K ⇒_{t'} G ∧ P says_t Q|K ⇒_{t'} G ⊃ Q|K ⇒_{t'} G at_P t",
            Axiom::A27 => "P controls_t CP'|K ⇒_{t'} G ∧ P says_t CP'|K ⇒_{t'} G ⊃ CP'|K ⇒_{t'} G at_P t",
            Axiom::A28 => "P controls_t CP'_{m,n} ⇒_{t'} G ∧ P says_t CP'_{m,n} ⇒_{t'} G ⊃ CP'_{m,n} ⇒_{t'} G at_P t",
            Axiom::A29 => "CP controls_t Q ⇒_{t'} G ∧ CP says_t Q ⇒_{t'} G ⊃ Q ⇒_{t'} G at_CP t",
            Axiom::A30 => "CP controls_t CP' ⇒_{t'} G ∧ CP says_t CP' ⇒_{t'} G ⊃ CP' ⇒_{t'} G at_CP t",
            Axiom::A31 => "CP controls_t Q|K ⇒_{t'} G ∧ CP says_t Q|K ⇒_{t'} G ⊃ Q|K ⇒_{t'} G at_CP t",
            Axiom::A32 => "CP controls_t CP'|K ⇒_{t'} G ∧ CP says_t CP'|K ⇒_{t'} G ⊃ CP'|K ⇒_{t'} G at_CP t",
            Axiom::A33 => "CP controls_t CP'_{m,n} ⇒_{t'} G ∧ CP says_t CP'_{m,n} ⇒_{t'} G ⊃ CP'_{m,n} ⇒_{t'} G at_CP t",
            Axiom::A34 => "Q ⇒_t G ∧ Q says_t X ⊃ G says_t X",
            Axiom::A35 => "Q|K ⇒_t G ∧ K ⇒_{t,P} Q ∧ Q says_t ⟨X⟩_{K⁻¹} ⊃ G says_t X",
            Axiom::A36 => "CP ⇒_t G ∧ CP says_t X ⊃ G says_t X",
            Axiom::A37 => "CP|K ⇒_t G ∧ K ⇒_{t,P} CP ∧ CP says_t ⟨X⟩_{K⁻¹} ⊃ G says_t X",
            Axiom::A38 => "CP_{m,n} ⇒_t G ∧ P1 says_t ⟨X⟩_{K1⁻¹} ∧ … ∧ Pm says_t ⟨X⟩_{Km⁻¹} ⊃ G says_t X",
        }
    }

    /// `true` for the schemas the paper adds over the prior logics of
    /// Lampson/Abadi/Stubblebine–Wright (the extensions: A10 compound and
    /// threshold originator cases, and A24–A38).
    #[must_use]
    pub fn is_extension(&self) -> bool {
        matches!(
            self,
            Axiom::A10
                | Axiom::A23
                | Axiom::A24
                | Axiom::A25
                | Axiom::A26
                | Axiom::A27
                | Axiom::A28
                | Axiom::A29
                | Axiom::A30
                | Axiom::A31
                | Axiom::A32
                | Axiom::A33
                | Axiom::A34
                | Axiom::A35
                | Axiom::A36
                | Axiom::A37
                | Axiom::A38
        )
    }
}

impl fmt::Display for Axiom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forty_axioms_and_rules() {
        assert_eq!(Axiom::ALL.len(), 40);
        let mut ids: Vec<&str> = Axiom::ALL.iter().map(Axiom::id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 40, "ids must be unique");
    }

    #[test]
    fn ids_match_variants() {
        assert_eq!(Axiom::A10.id(), "A10");
        assert_eq!(Axiom::R1.id(), "R1");
        assert_eq!(Axiom::A38.to_string(), "A38");
    }

    #[test]
    fn every_axiom_has_a_statement() {
        for ax in Axiom::ALL {
            assert!(!ax.statement().is_empty(), "{ax} lacks a statement");
        }
    }

    #[test]
    fn extensions_match_paper_claim() {
        // "These extensions are reflected in Axioms 10, 24 – 38."
        assert!(Axiom::A10.is_extension());
        for a in [Axiom::A24, Axiom::A28, Axiom::A33, Axiom::A34, Axiom::A38] {
            assert!(a.is_extension(), "{a} is an extension");
        }
        assert!(!Axiom::A1.is_extension());
        assert!(!Axiom::A22.is_extension());
    }

    #[test]
    fn key_statements_quote_the_paper() {
        assert!(Axiom::A38.statement().contains("CP_{m,n}"));
        assert!(Axiom::A22.statement().contains("controls"));
        assert!(Axiom::R1.statement().contains("Modus Ponens"));
    }
}

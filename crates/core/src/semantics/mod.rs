//! The model of computation and truth conditions (paper Appendix C), used
//! to reproduce the soundness theorem (Appendix D) as executable checks.
//!
//! A [`Run`] assigns each principal — and each *compound* principal — a
//! local state: a clock, a monotone key set, and a history of timestamped
//! `send`/`receive`/`generate` events. The [`Model`] evaluates formulas at
//! a point `(r, t)` against the truth conditions of Appendix C.
//!
//! # Fidelity notes
//!
//! * Quantifications in the truth conditions ("for all X", "for all
//!   principals Q") range over the *finite* message/party universe of the
//!   run, which is exactly what makes the conditions checkable.
//! * `P believes_t φ` is evaluated as `φ at_P t` on the given run. The
//!   paper's possible-worlds definition quantifies over all runs
//!   indistinguishable to `P`; evaluating on the actual run is the
//!   standard single-run strengthening — sound formulas remain true under
//!   it, which is what the soundness reproduction needs.
//! * Clock skew is modeled by a per-party offset (local = global + offset);
//!   the paper's `Start`/`End` window of a local time collapses to a point.

mod run;
mod truth;

pub use run::{Run, RunBuilder};
pub use truth::Model;

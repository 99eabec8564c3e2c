//! Syntax of the logic: terms, subjects, messages and formulas
//! (paper Appendix A, rules M1–M3 and F1–F22).

mod formula;
mod message;
pub mod parser;
mod principal;
mod time;

pub use formula::Formula;
pub use message::Message;
pub use parser::{parse_formula, ParseFormulaError, Vocabulary};
pub use principal::{GroupId, KeyId, PrincipalId, Subject};
pub use time::{Time, TimeRef};

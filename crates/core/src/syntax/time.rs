//! Time in the logic.
//!
//! Each principal has a local clock; the paper writes `[t1, t2]` for "at all
//! times between t1 and t2" and `⟨t1, t2⟩` for "at some time between t1 and
//! t2". Time is modeled as discrete ticks ([`Time`], an `i64`), totally
//! ordered as Appendix A requires.

use core::fmt;

/// A point in (some principal's) time, in discrete ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub i64);

impl Time {
    /// The latest representable time (the paper's "upper bound of infinity"
    /// for revocation certificates).
    pub const INFINITY: Time = Time(i64::MAX);

    /// `self + delta` ticks (saturating).
    #[must_use]
    pub fn plus(self, delta: i64) -> Time {
        Time(self.0.saturating_add(delta))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Time::INFINITY {
            write!(f, "∞")
        } else {
            write!(f, "t{}", self.0)
        }
    }
}

impl From<i64> for Time {
    fn from(v: i64) -> Self {
        Time(v)
    }
}

/// A temporal qualifier on a formula: a point, a closed interval (`[t1,t2]`,
/// "at all times"), or an existential interval (`⟨t1,t2⟩`, "at some time").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimeRef {
    /// Holds at exactly `t`.
    At(Time),
    /// Holds at every time in `[lo, hi]` (paper `[t1, t2]`).
    Closed(Time, Time),
    /// Holds at some time in `[lo, hi]` (paper `⟨t1, t2⟩`).
    Within(Time, Time),
}

impl TimeRef {
    /// Returns `true` if the reference universally covers time `t` — i.e.
    /// the formula is asserted to hold at `t`. (`Within` promises only some
    /// unknown time, so it never *covers* a specific `t`.)
    #[must_use]
    pub(crate) fn covers(&self, t: Time) -> bool {
        match self {
            TimeRef::At(x) => *x == t,
            TimeRef::Closed(lo, hi) => *lo <= t && t <= *hi,
            TimeRef::Within(_, _) => false,
        }
    }

    /// The (inclusive) bounds of the reference.
    #[must_use]
    pub(crate) fn bounds(&self) -> (Time, Time) {
        match self {
            TimeRef::At(t) => (*t, *t),
            TimeRef::Closed(lo, hi) | TimeRef::Within(lo, hi) => (*lo, *hi),
        }
    }
}

impl fmt::Display for TimeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeRef::At(t) => write!(f, "{t}"),
            TimeRef::Closed(lo, hi) => write!(f, "[{lo},{hi}]"),
            TimeRef::Within(lo, hi) => write!(f, "⟨{lo},{hi}⟩"),
        }
    }
}

impl From<Time> for TimeRef {
    fn from(t: Time) -> Self {
        TimeRef::At(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_arithmetic() {
        assert!(Time(1) < Time(2));
        assert_eq!(Time(5).plus(3), Time(8));
        assert_eq!(Time::INFINITY.plus(1), Time::INFINITY);
    }

    #[test]
    fn covers_semantics() {
        assert!(TimeRef::At(Time(5)).covers(Time(5)));
        assert!(!TimeRef::At(Time(5)).covers(Time(6)));
        assert!(TimeRef::Closed(Time(1), Time(9)).covers(Time(5)));
        assert!(!TimeRef::Closed(Time(1), Time(9)).covers(Time(10)));
        // ⟨t1,t2⟩ promises "some time", never a specific one.
        assert!(!TimeRef::Within(Time(1), Time(9)).covers(Time(5)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Time(7).to_string(), "t7");
        assert_eq!(Time::INFINITY.to_string(), "∞");
        assert_eq!(TimeRef::Closed(Time(1), Time(2)).to_string(), "[t1,t2]");
        assert_eq!(TimeRef::Within(Time(1), Time(2)).to_string(), "⟨t1,t2⟩");
    }
}

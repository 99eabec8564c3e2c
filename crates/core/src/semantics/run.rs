//! Runs: histories of timestamped events per (compound) principal.

use std::collections::BTreeMap;

use crate::syntax::{KeyId, Message, Subject, Time};

/// A basic event in a party's history (Appendix C).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Event {
    /// `send(X, Q)`: send message `X` to party `Q`.
    Send {
        /// Recipient.
        to: Subject,
        /// The message.
        msg: Message,
    },
    /// `receive(X)`.
    Receive {
        /// The message.
        msg: Message,
    },
}

/// An event stamped with the party's local time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TimedEvent {
    /// The event.
    pub(crate) event: Event,
    /// Local time at which it occurred.
    pub(crate) at: Time,
}

/// One (possibly compound) principal's local state over the whole run.
#[derive(Debug, Clone)]
pub(crate) struct PartyState {
    /// The party (a principal, compound, threshold compound, or a group).
    pub(crate) subject: Subject,
    /// Clock skew: local time = global time + offset.
    pub(crate) clock_offset: i64,
    /// Keys with acquisition times (key sets grow monotonically).
    pub(crate) keys: Vec<(KeyId, Time)>,
    /// Timestamped history, sorted by local time.
    pub(crate) history: Vec<TimedEvent>,
}

impl PartyState {
    /// Local time corresponding to global time `t`.
    #[must_use]
    pub(crate) fn local_time(&self, global: Time) -> Time {
        Time(global.0.saturating_add(self.clock_offset))
    }

    /// Global time corresponding to local time `t`.
    #[must_use]
    pub(crate) fn global_time(&self, local: Time) -> Time {
        Time(local.0.saturating_sub(self.clock_offset))
    }

    /// The key set available at local time `t`.
    #[must_use]
    pub(crate) fn keyset_at(&self, local: Time) -> Vec<KeyId> {
        self.keys
            .iter()
            .filter(|(_, acquired)| *acquired <= local)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Messages received at local times `<= local`.
    #[must_use]
    pub(crate) fn received_by(&self, local: Time) -> Vec<&Message> {
        self.history
            .iter()
            .filter(|e| e.at <= local)
            .filter_map(|e| match &e.event {
                Event::Receive { msg } => Some(msg),
                _ => None,
            })
            .collect()
    }

    /// Send events at exactly local time `local`.
    #[must_use]
    pub(crate) fn sends_at(&self, local: Time) -> Vec<&Message> {
        self.history
            .iter()
            .filter(|e| e.at == local)
            .filter_map(|e| match &e.event {
                Event::Send { msg, .. } => Some(msg),
                _ => None,
            })
            .collect()
    }

    /// All send events with their local times.
    #[must_use]
    pub(crate) fn all_sends(&self) -> Vec<(Time, &Message)> {
        self.history
            .iter()
            .filter_map(|e| match &e.event {
                Event::Send { msg, .. } => Some((e.at, msg)),
                _ => None,
            })
            .collect()
    }
}

/// A run: local states for every party (Appendix C's global state as a
/// function of time, flattened into per-party histories).
#[derive(Debug, Clone, Default)]
pub struct Run {
    parties: BTreeMap<String, PartyState>,
}

impl Run {
    /// The party state for `subject`, if present.
    #[must_use]
    pub(crate) fn party(&self, subject: &Subject) -> Option<&PartyState> {
        self.parties.get(&subject.to_string())
    }

    /// Iterates over all party states.
    pub(crate) fn parties(&self) -> impl Iterator<Item = &PartyState> {
        self.parties.values()
    }

    /// Legality check (Appendix C): every `receive(X)` must be preceded by
    /// a matching `send(X, recipient)` at an earlier-or-equal global time,
    /// and histories must be sorted.
    #[must_use]
    pub fn is_legal(&self) -> bool {
        for p in self.parties.values() {
            if !p.history.windows(2).all(|w| w[0].at <= w[1].at) {
                return false;
            }
        }
        for receiver in self.parties.values() {
            for e in &receiver.history {
                let Event::Receive { msg } = &e.event else {
                    continue;
                };
                let recv_global = receiver.global_time(e.at);
                let matched = self.parties.values().any(|sender| {
                    sender.history.iter().any(|se| {
                        matches!(&se.event, Event::Send { to, msg: m }
                            if to == &receiver.subject && m == msg)
                            && sender.global_time(se.at) <= recv_global
                    })
                });
                if !matched {
                    return false;
                }
            }
        }
        true
    }
}

/// Builder for runs; delivery is recorded symmetrically (a `send` here plus
/// a `receive` at the recipient after `delay` ticks).
#[derive(Debug, Default)]
pub struct RunBuilder {
    run: Run,
}

impl RunBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        RunBuilder::default()
    }

    /// Registers a party with a clock offset.
    pub fn party(&mut self, subject: Subject, clock_offset: i64) -> &mut Self {
        self.run.parties.insert(
            subject.to_string(),
            PartyState {
                subject,
                clock_offset,
                keys: Vec::new(),
                history: Vec::new(),
            },
        );
        self
    }

    /// Gives `subject` a key from local time `at`.
    ///
    /// # Panics
    ///
    /// Panics if the party is unknown.
    pub fn give_key(&mut self, subject: &Subject, key: KeyId, at: Time) -> &mut Self {
        self.party_mut(subject).keys.push((key, at));
        self
    }

    /// Records a message transfer: `from` sends at global time `sent`,
    /// `to` receives `delay` ticks later (both stamped in local times).
    ///
    /// # Panics
    ///
    /// Panics if either party is unknown.
    pub fn deliver(
        &mut self,
        from: &Subject,
        to: &Subject,
        msg: Message,
        sent_global: Time,
        delay: i64,
    ) -> &mut Self {
        let to_subject = self.party_mut(to).subject.clone();
        let sender = self.party_mut(from);
        let send_local = sender.local_time(sent_global);
        sender.history.push(TimedEvent {
            event: Event::Send {
                to: to_subject,
                msg: msg.clone(),
            },
            at: send_local,
        });
        sender.history.sort_by_key(|e| e.at);
        let receiver = self.party_mut(to);
        let recv_local = receiver.local_time(sent_global.plus(delay));
        receiver.history.push(TimedEvent {
            event: Event::Receive { msg },
            at: recv_local,
        });
        receiver.history.sort_by_key(|e| e.at);
        self
    }

    /// Records a bare send with no delivery (message lost in transit).
    ///
    /// # Panics
    ///
    /// Panics if either party is unknown.
    pub fn send_lost(
        &mut self,
        from: &Subject,
        to: &Subject,
        msg: Message,
        sent_global: Time,
    ) -> &mut Self {
        let to_subject = self.party_mut(to).subject.clone();
        let sender = self.party_mut(from);
        let at = sender.local_time(sent_global);
        sender.history.push(TimedEvent {
            event: Event::Send {
                to: to_subject,
                msg,
            },
            at,
        });
        sender.history.sort_by_key(|e| e.at);
        self
    }

    /// Finishes the run.
    #[must_use]
    pub fn build(self) -> Run {
        self.run
    }

    fn party_mut(&mut self, subject: &Subject) -> &mut PartyState {
        self.run
            .parties
            .get_mut(&subject.to_string())
            .unwrap_or_else(|| panic!("unknown party {subject}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(name: &str) -> Subject {
        Subject::principal(name)
    }

    #[test]
    fn delivered_messages_make_legal_runs() {
        let mut b = RunBuilder::new();
        b.party(p("A"), 0).party(p("B"), 0);
        b.deliver(&p("A"), &p("B"), Message::data("hi"), Time(5), 1);
        let run = b.build();
        assert!(run.is_legal());
        let bob = run.party(&p("B")).expect("B");
        assert_eq!(bob.received_by(Time(6)).len(), 1);
        assert_eq!(bob.received_by(Time(5)).len(), 0);
    }

    #[test]
    fn receive_without_send_is_illegal() {
        let mut b = RunBuilder::new();
        b.party(p("A"), 0);
        let mut run = b.build();
        // Manually inject an orphan receive.
        run.parties
            .get_mut("A")
            .expect("A")
            .history
            .push(TimedEvent {
                event: Event::Receive {
                    msg: Message::data("forged"),
                },
                at: Time(1),
            });
        assert!(!run.is_legal());
    }

    #[test]
    fn lost_sends_are_legal() {
        let mut b = RunBuilder::new();
        b.party(p("A"), 0).party(p("B"), 0);
        b.send_lost(&p("A"), &p("B"), Message::data("dropped"), Time(5));
        assert!(b.build().is_legal());
    }

    #[test]
    fn clock_offsets_shift_local_times() {
        let mut b = RunBuilder::new();
        b.party(p("A"), 10).party(p("B"), -5);
        b.deliver(&p("A"), &p("B"), Message::data("m"), Time(20), 2);
        let run = b.build();
        assert!(run.is_legal());
        let a = run.party(&p("A")).expect("A");
        let bobs = run.party(&p("B")).expect("B");
        assert_eq!(a.all_sends()[0].0, Time(30)); // 20 + 10
        assert_eq!(bobs.received_by(Time(17)).len(), 1); // (20+2) - 5
        assert_eq!(a.local_time(Time(0)), Time(10));
        assert_eq!(a.global_time(Time(10)), Time(0));
    }

    #[test]
    fn keyset_monotone() {
        let mut b = RunBuilder::new();
        b.party(p("A"), 0);
        b.give_key(&p("A"), KeyId::new("K1"), Time(5));
        let run = b.build();
        let a = run.party(&p("A")).expect("A");
        assert!(a.keyset_at(Time(4)).is_empty());
        assert_eq!(a.keyset_at(Time(5)), vec![KeyId::new("K1")]);
        assert_eq!(a.keyset_at(Time(100)), vec![KeyId::new("K1")]);
    }

    #[test]
    fn compound_principals_are_parties() {
        let cp = Subject::compound(vec![p("D1"), p("D2")]);
        let mut b = RunBuilder::new();
        b.party(cp.clone(), 0).party(p("P"), 0);
        b.deliver(&cp, &p("P"), Message::data("joint"), Time(1), 1);
        let run = b.build();
        assert!(run.is_legal());
        assert!(run.party(&cp).is_some());
    }

    #[test]
    fn unsorted_history_is_illegal() {
        let mut b = RunBuilder::new();
        b.party(p("A"), 0);
        let mut run = b.build();
        let hist = &mut run.parties.get_mut("A").expect("A").history;
        hist.push(TimedEvent {
            event: Event::Send {
                to: p("B"),
                msg: Message::data("later"),
            },
            at: Time(10),
        });
        hist.push(TimedEvent {
            event: Event::Send {
                to: p("B"),
                msg: Message::data("earlier"),
            },
            at: Time(5),
        });
        assert!(!run.is_legal());
    }
}

//! An in-process simulated message-passing network.
//!
//! This crate is the transport substrate for the multi-party protocols of the
//! paper: Boneh–Franklin distributed RSA key generation (§3.1), joint
//! signatures (§3.2) and share refresh. It plays the role of the
//! *environment principal* `Pe` from the paper's model of computation
//! (Appendix C): it can deliver, drop, duplicate (replay) and reorder
//! messages, and it records a transcript of everything that happened.
//!
//! # Design
//!
//! * [`Network::mesh`] builds a fully connected mesh of `n` parties and hands
//!   back one [`Endpoint`] per party plus a [`NetworkHandle`] for transcript
//!   and statistics inspection.
//! * Each [`Endpoint`] can [`send`](Endpoint::send),
//!   [`broadcast`](Endpoint::broadcast), and receive either in arrival order
//!   ([`recv_timeout`](Endpoint::recv_timeout)) or per-sender ([`recv_from`](Endpoint::recv_from),
//!   which buffers out-of-order arrivals).
//! * [`run_parties`] runs one closure per party on scoped threads and
//!   collects the results in party order — the standard harness for an MPC
//!   round trip.
//!
//! # Example
//!
//! ```
//! use jaap_net::{Network, run_parties};
//! use std::time::Duration;
//!
//! let (endpoints, handle) = Network::<u64>::mesh(3);
//! let sums = run_parties(endpoints, |mut ep| {
//!     assert_eq!(ep.broadcast(ep.id().0 as u64 + 1), 2);
//!     let mut sum = ep.id().0 as u64 + 1;
//!     for _ in 0..ep.n() - 1 {
//!         sum += ep.recv_timeout(Duration::from_secs(5)).unwrap().payload;
//!     }
//!     sum
//! });
//! assert_eq!(sums, vec![6, 6, 6]);
//! assert_eq!(handle.stats().messages_sent, 6);
//! ```

#![forbid(unsafe_code)]

mod endpoint;
mod fault;
mod network;
mod repl;
mod transcript;

pub use endpoint::{Endpoint, Envelope, NetError};
pub use fault::{Crash, FaultPlan};
pub use network::{run_parties, Network, NetworkHandle, NetworkStats};
pub use repl::{RejectReason, ReplMessage};
pub use transcript::{TranscriptEntry, TranscriptEvent};

/// Identifies a party on a simulated network (dense indices `0..n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartyId(pub usize);

impl core::fmt::Display for PartyId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "party#{}", self.0)
    }
}

//! Observability primitives for the coalition stack.
//!
//! The authorization pipeline is a four-step derivation (§4.3 / Appendix E)
//! whose cost and failure modes the rest of the workspace exercises at
//! scale — fault-injected signing sessions, the parallel cached decision
//! pipeline — yet until this crate the only visibility into a decision was
//! the final audit entry. `jaap-obs` provides the missing instruments in
//! the style of BAN-family protocol analyzers and threshold-RSA service
//! measurements:
//!
//! * [`Counter`] — monotone event counts (cache hits, retries, evictions),
//!   lock-free atomic increments.
//! * [`Gauge`] — signed point-in-time values (live cache entries).
//! * [`Histogram`] — latency distributions over **fixed log₂-scale
//!   buckets**: recording is two atomic adds and one atomic increment, with
//!   no allocation and no lock, so it is safe on the hottest path.
//! * [`Span`] — a drop-guard that times a region and records the elapsed
//!   nanoseconds into a histogram (span-style timed events).
//! * [`MetricsRegistry`] — a cheap-to-clone shared handle owning all named
//!   instruments, exporting a deterministic JSON snapshot
//!   ([`MetricsRegistry::to_json`]) with no external dependencies.
//! * [`bounded`] — the one oldest-first eviction policy behind every
//!   runtime cache and log ([`bounded::FifoMap`], [`bounded::Ring`]), each
//!   counting its evictions into an optional [`Counter`] mirror.
//!
//! # Design constraints
//!
//! The registry hangs off the coalition server behind an `Option`; the
//! disabled path must stay allocation-free. To make the *enabled* path
//! nearly free too, instruments are resolved **once** (a locked name-map
//! lookup returning an `Arc` handle) and then used forever after via atomic
//! operations only. Callers on hot paths should resolve handles at
//! configuration time, not per event.
//!
//! ```
//! use jaap_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let decisions = registry.counter("server.decisions");
//! let latency = registry.histogram("server.decision_ns");
//!
//! decisions.inc();
//! {
//!     let _span = latency.span(); // records on drop
//! }
//! latency.record(1_500); // or record nanoseconds directly
//!
//! let json = registry.to_json();
//! assert!(json.contains("\"server.decisions\":1"));
//! ```

pub mod bounded;
mod instruments;
mod registry;

pub use instruments::{Counter, Gauge, Histogram, HistogramSnapshot, Span, BUCKETS};
pub use registry::MetricsRegistry;

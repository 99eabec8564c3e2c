//! End-to-end benchmark of the coalition server at 2048-bit keys.
//!
//! Three closed-loop workloads (`read_hot`, `read_cold`,
//! `joint_write_durable`) drive the sharded front-end with a journal on
//! disk, the persistent cert store attached and one replica. All signing
//! and issuance happen in set-up ([`world`]); the timed loops only call
//! into the system ([`drive`]). A traced run takes spans around those
//! calls ([`trace`]) and derives per-layer metrics from them
//! ([`report`]). Time metrics are taken at a reference pace of the host
//! ([`pace`]). See `NOTES.md` for the metric list, the layer-to-metric
//! predictions and the baseline findings.

pub mod config;
pub mod drive;
pub mod pace;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod world;

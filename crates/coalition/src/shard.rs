//! `ShardedCoalition`: a router partitioning independent coalition
//! namespaces across N single-writer shards (DESIGN §5g).
//!
//! Each shard is a [`ConcurrentServer`] owning a **disjoint** object/group
//! namespace; the router keeps an object → shard map built from the shards'
//! registered objects (and refuses overlapping namespaces — the soundness
//! condition for sharding: belief lookups filter by group/key, so decisions
//! about one namespace never depend on another's beliefs). Decision
//! requests route to the owning shard and run on its lock-free snapshot
//! path; coalition-wide events — clock advances, revocations, CRLs — fan
//! out to every shard through each shard's single writer.
//!
//! A shard presented with an artifact from a foreign trust root rejects it
//! exactly as its serial twin would (the signature does not verify against
//! its anchors); fan-out reports per-shard outcomes rather than failing the
//! whole operation.

use std::collections::HashMap;
use std::sync::Arc;

use jaap_core::syntax::Time;
use jaap_obs::{Counter, MetricsRegistry};
use jaap_pki::attribute::AttributeRevocation;
use jaap_pki::Crl;

use crate::concurrent::ConcurrentServer;
use crate::pool;
use crate::request::JointAccessRequest;
use crate::server::{CoalitionServer, ServerDecision};
use crate::CoalitionError;

/// Per-shard instruments (`server.shard.{i}.*`), resolved once when a
/// registry is attached.
#[derive(Debug)]
struct ShardInstruments {
    decisions: Arc<Counter>,
    granted: Arc<Counter>,
    fanout: Arc<Counter>,
}

/// The sharded front-end: N concurrent shards plus the routing map.
#[derive(Debug)]
pub struct ShardedCoalition {
    shards: Vec<ConcurrentServer>,
    /// Object name → owning shard.
    routes: HashMap<String, usize>,
    instruments: Vec<ShardInstruments>,
}

impl ShardedCoalition {
    /// Builds the router over pre-built shard servers, indexing each
    /// shard's registered objects.
    ///
    /// # Errors
    ///
    /// [`CoalitionError::Config`] when two shards claim the same object
    /// name (namespaces must be disjoint) or no shards are given.
    pub fn new(servers: Vec<CoalitionServer>) -> Result<Self, CoalitionError> {
        if servers.is_empty() {
            return Err(CoalitionError::Config(
                "a sharded coalition needs at least one shard".into(),
            ));
        }
        let mut routes = HashMap::new();
        for (i, server) in servers.iter().enumerate() {
            for obj in server.objects() {
                if let Some(prev) = routes.insert(obj.name.clone(), i) {
                    return Err(CoalitionError::Config(format!(
                        "object {:?} owned by shards {prev} and {i}: shard namespaces must be disjoint",
                        obj.name
                    )));
                }
            }
        }
        Ok(ShardedCoalition {
            shards: servers.into_iter().map(ConcurrentServer::new).collect(),
            routes,
            instruments: Vec::new(),
        })
    }

    /// The shard owning `object`, falling back to a stable hash for
    /// unregistered names (the decision will then be a clean
    /// "unknown object" denial on that shard).
    #[must_use]
    pub fn shard_for(&self, object: &str) -> usize {
        self.routes
            .get(object)
            .copied()
            .unwrap_or_else(|| (fnv1a(object.as_bytes()) as usize) % self.shards.len())
    }

    /// Direct access to shard `i`'s concurrent server.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn shard(&self, i: usize) -> &ConcurrentServer {
        &self.shards[i]
    }

    /// Attaches per-shard instruments `server.shard.{i}.{decisions,granted,
    /// fanout_admissions}` to the router and a scoped `shard.{i}.`-prefixed
    /// registry view to each shard ([`ConcurrentServer::set_metrics`], so
    /// the full `server.*` pipeline instruments exist once per shard and
    /// its `server.shed.*` counters aggregate both decision paths).
    pub fn set_metrics(&mut self, registry: &MetricsRegistry) {
        self.instruments = (0..self.shards.len())
            .map(|i| ShardInstruments {
                decisions: registry.counter(&format!("server.shard.{i}.decisions")),
                granted: registry.counter(&format!("server.shard.{i}.granted")),
                fanout: registry.counter(&format!("server.shard.{i}.fanout_admissions")),
            })
            .collect();
        for (i, shard) in self.shards.iter().enumerate() {
            shard.set_metrics(&registry.scoped(&format!("shard.{i}.")));
        }
    }

    /// Routes one decision to the owning shard's lock-free snapshot path.
    #[must_use]
    pub fn decide(&self, req: &JointAccessRequest) -> ServerDecision {
        let i = self.shard_for(&req.operation.object);
        let decision = self.shards[i].decide(req);
        if let Some(m) = self.instruments.get(i) {
            m.decisions.inc();
            if decision.granted {
                m.granted.inc();
            }
        }
        decision
    }

    /// Decides a batch across up to `workers` scoped threads (the caller
    /// included); requests for different shards proceed fully
    /// independently, requests for the same shard parallelize their crypto
    /// phases and serialize only the commit tail. Results come back in
    /// request order.
    #[must_use]
    pub fn decide_batch(
        &self,
        requests: &[JointAccessRequest],
        workers: usize,
    ) -> Vec<ServerDecision> {
        pool::run_indexed(requests.len(), workers, |i| self.decide(&requests[i]))
    }

    /// Fans a clock advance to every shard.
    ///
    /// # Errors
    ///
    /// The first shard error, after attempting every shard (clocks must
    /// not diverge silently).
    pub fn advance_clock(&self, to: Time) -> Result<(), CoalitionError> {
        let mut first_err = None;
        for shard in &self.shards {
            if let Err(e) = shard.advance_clock(to) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Fans an attribute revocation to every shard; per-shard outcomes
    /// (a shard with a foreign trust root rejects the artifact, as its
    /// serial twin would).
    pub fn admit_attribute_revocation(
        &self,
        rev: &AttributeRevocation,
    ) -> Vec<Result<(), CoalitionError>> {
        self.fan_out(|s| s.admit_attribute_revocation(rev))
    }

    /// Fans a CRL to every shard (per-shard outcomes).
    pub fn admit_crl(&self, crl: &Crl) -> Vec<Result<(), CoalitionError>> {
        self.fan_out(|s| s.admit_crl(crl))
    }

    /// Runs `f` on every shard's writer in shard order, recording fan-out
    /// instruments.
    fn fan_out<R>(&self, mut f: impl FnMut(&mut CoalitionServer) -> R) -> Vec<R> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                if let Some(m) = self.instruments.get(i) {
                    m.fanout.inc();
                }
                shard.with_writer(&mut f)
            })
            .collect()
    }
}

/// FNV-1a, the stable fallback route for unregistered object names.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaap_core::protocol::Acl;
    use jaap_core::syntax::GroupId;
    use jaap_pki::TrustStore;

    fn bare_server(name: &str, objects: &[&str]) -> CoalitionServer {
        let mut s = CoalitionServer::new(name, TrustStore::new(Time(0)));
        for obj in objects {
            let mut acl = Acl::new();
            acl.permit(GroupId::new("G"), "write");
            s.add_object(*obj, acl).expect("fresh server, no journal");
        }
        s
    }

    #[test]
    fn routing_follows_object_ownership() {
        let router = ShardedCoalition::new(vec![
            bare_server("P0", &["A", "B"]),
            bare_server("P1", &["C"]),
        ])
        .expect("router");
        assert_eq!(router.shard_for("A"), 0);
        assert_eq!(router.shard_for("B"), 0);
        assert_eq!(router.shard_for("C"), 1);
        // Unknown objects get a stable fallback shard.
        let f1 = router.shard_for("nope");
        let f2 = router.shard_for("nope");
        assert_eq!(f1, f2);
        assert!(f1 < 2);
    }

    #[test]
    fn overlapping_namespaces_are_rejected() {
        let err = ShardedCoalition::new(vec![bare_server("P0", &["A"]), bare_server("P1", &["A"])]);
        assert!(matches!(err, Err(CoalitionError::Config(_))));
    }

    #[test]
    fn clock_fanout_reaches_every_shard() {
        let router =
            ShardedCoalition::new(vec![bare_server("P0", &["A"]), bare_server("P1", &["B"])])
                .expect("router");
        router.advance_clock(Time(9)).expect("clock");
        for i in 0..2 {
            assert_eq!(router.shard(i).read(|s| s.now()), Time(9));
        }
    }
}

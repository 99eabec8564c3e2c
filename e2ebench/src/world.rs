//! Set-up: everything signed or issued happens here, before any timed
//! loop. A [`World`] is one deployed coalition server (sharded front-end,
//! journal, cert store, one replica) plus every pre-signed request and
//! pre-issued admin artifact its workload will present, each with the
//! verdict known by construction.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use jaap_bigint::Nat;
use jaap_coalition::domain::UserAgent;
use jaap_coalition::replication::ReplicationNet;
use jaap_coalition::request::{statement_bytes, JointAccessRequest, WireStatement};
use jaap_coalition::scenario::{Coalition, CoalitionBuilder, OBJECT_O};
use jaap_coalition::shard::ShardedCoalition;
use jaap_core::certs::Validity;
use jaap_core::protocol::{Acl, Operation};
use jaap_core::syntax::{GroupId, Time};
use jaap_crypto::rsa::RsaKeyPair;
use jaap_net::FaultPlan;
use jaap_pki::{
    AttributeCertificate, AttributeRevocation, Crl, CrlEntry, IdentityCertificate,
    ThresholdAttributeCertificate, ThresholdSubject, TrustStore,
};
use jaap_store::CertStore;
use jaap_wal::{FileStore, LogOutbox, TeeStore};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::config::{Profile, CONTROLS, REPLICAS};
use crate::trace::{TimedStore, WalProbe};

/// Seed of the coalition's CA/AA/RA/user keys. Fixed, so every seed and
/// every commit deploys the same keys and pays the same key search.
const KEY_SEED: u64 = 0x2048_C0A1;

/// The group of the readers: the principals the read pool draws from.
pub const GROUP_READ: &str = "G_read";

/// The group of the revocation targets, one principal per revocation,
/// apart from the readers. A revocation drops the cached checks of its
/// group only, so revocations spread over a read phase leave the cached
/// `G_read` checks of the read pool in place, and no reader's verdict
/// changes.
pub const GROUP_AUDIT: &str = "G_audit";

/// Server clock when the measured phase starts; every admin mutation
/// happens at or after it.
const CLOCK0: i64 = 10_000;
/// Warm-up reads are stamped `WARM_AT0 + principal`.
const WARM_AT0: i64 = 500;
/// Pool reads are stamped `READ_AT0 + pool index` (distinct, so no two
/// pool entries share a replay digest).
const READ_AT0: i64 = 1_000;
/// Pool writes are stamped `WRITE_AT0 + pool index`.
const WRITE_AT0: i64 = 5_000;
/// Certificate validity horizon.
const VALIDITY_END: i64 = 1 << 40;
/// Ship window per replication round: large enough that one round ships
/// everything written since the previous sync.
const SHIP_WINDOW: usize = 1 << 20;
/// Round limit of one sync; reaching it is a failure.
pub const MAX_SYNC_ROUNDS: usize = 64;

/// 1024-bit primes (hex, one per line) every population key is built
/// from; committed so set-up does no prime search for the population.
const PRIME_FIXTURE: &str = include_str!("../primes1024.txt");

/// Worker threads used to sign and issue during set-up.
const SETUP_THREADS: usize = 2;

/// One certified population member.
#[derive(Debug)]
pub struct Principal {
    /// Name, `P0000`…
    pub name: String,
    /// Signing key (unique modulus).
    pub key: RsaKeyPair,
    /// CA-issued identity certificate.
    pub identity: IdentityCertificate,
    /// AA-issued attribute certificate: `G_read` for a reader, `G_audit`
    /// for a revocation target.
    pub grant: AttributeCertificate,
}

/// One pre-signed read of the pool. The certificates are fetched from the
/// cert store when the read is presented.
#[derive(Debug, Clone)]
pub struct ReadItem {
    /// Population index of the reader.
    pub principal: usize,
    /// The signed statement.
    pub statement: WireStatement,
}

/// A fully assembled request and the verdict known by construction.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The request.
    pub request: JointAccessRequest,
    /// Whether it must be granted.
    pub grant: bool,
}

/// Admin mutation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminKind {
    /// CRL admission.
    Crl,
    /// Attribute revocation.
    Revoke,
    /// ACL change on the object.
    Acl,
    /// Clock tick.
    Tick,
}

impl AdminKind {
    /// The span name the mutation is recorded under.
    #[must_use]
    pub fn span(self) -> &'static str {
        match self {
            AdminKind::Crl => "admin.crl",
            AdminKind::Revoke => "admin.revoke",
            AdminKind::Acl => "admin.acl",
            AdminKind::Tick => "admin.tick",
        }
    }
}

/// The repeating order of admin mutations. Four in five are revocations,
/// so the median admin latency sits well inside the revocation cluster
/// (at its 37.5th percentile): an ACL change or a tick costs a tenth of a
/// revocation, and a median near the lower edge of the revocation cluster
/// jumped between runs as the host's speed moved samples across it.
const ADMIN_CYCLE: [AdminKind; 10] = [
    AdminKind::Crl,
    AdminKind::Revoke,
    AdminKind::Crl,
    AdminKind::Revoke,
    AdminKind::Acl,
    AdminKind::Crl,
    AdminKind::Revoke,
    AdminKind::Crl,
    AdminKind::Revoke,
    AdminKind::Tick,
];

/// Revocations (CRL admissions and attribute revocations) among the
/// first `ops` admin mutations.
#[must_use]
pub fn revocations(ops: usize) -> usize {
    ADMIN_CYCLE
        .iter()
        .cycle()
        .take(ops)
        .filter(|k| matches!(k, AdminKind::Crl | AdminKind::Revoke))
        .count()
}

/// A pre-issued admin mutation.
#[derive(Debug, Clone)]
pub enum AdminAction {
    /// Admit this CRL.
    Crl(Crl),
    /// Admit this attribute revocation.
    Revoke(AttributeRevocation),
    /// Replace the object's ACL.
    Acl(Acl),
    /// Advance the clock to this time.
    Tick(Time),
}

/// One admin mutation plus, for revocations, a probe by the target on
/// each side of it: granted before, denied after.
#[derive(Debug, Clone)]
pub struct AdminOp {
    /// Kind (span name).
    pub kind: AdminKind,
    /// The mutation.
    pub action: AdminAction,
    /// Read by the target one tick before the revocation time, presented
    /// before the mutation; must be granted.
    pub before: Option<JointAccessRequest>,
    /// Read by the target at the revocation time, presented after the
    /// mutation; must be denied.
    pub probe: Option<JointAccessRequest>,
}

/// A deployed server plus everything its workload presents.
pub struct World {
    /// The profile it was built for.
    pub profile: Profile,
    /// Sharded front-end (one shard).
    pub front: ShardedCoalition,
    /// Primary plus one replica.
    pub repl: ReplicationNet,
    /// The persistent cert store attached to the shard.
    pub store: CertStore,
    /// Trust anchors, for recovery.
    pub trust: TrustStore,
    /// Journal-append observer.
    pub wal: Arc<WalProbe>,
    /// Working directory of this world's files.
    pub dir: PathBuf,
    /// The primary's journal file.
    pub journal_path: PathBuf,
    /// Population names.
    pub names: Vec<String>,
    /// Read pool (read workloads).
    pub reads: Vec<ReadItem>,
    /// Write pool (write workload).
    pub writes: Vec<Expected>,
    /// One read per principal, presented during warm-up.
    pub warm: Vec<JointAccessRequest>,
    /// Admin mutations, in order.
    pub admin: Vec<AdminOp>,
    /// Probe set for the live-versus-recovered comparison.
    pub probes: Vec<Expected>,
    /// A statement body, its signature and key: the sample for the
    /// bench-timed verify and encrypt micro-measurements.
    pub sample: (
        Vec<u8>,
        jaap_crypto::rsa::RsaSignature,
        jaap_crypto::rsa::RsaPublicKey,
    ),
}

/// Maps `f` over `0..n` on [`SETUP_THREADS`] scoped threads, in order.
fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..SETUP_THREADS)
            .map(|t| {
                s.spawn(move || {
                    (t..n)
                        .step_by(SETUP_THREADS)
                        .map(|i| (i, f(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for h in handles {
            for (i, v) in h.join().expect("set-up worker panicked") {
                out[i] = Some(v);
            }
        }
        out.into_iter()
            .map(|v| v.expect("every index mapped"))
            .collect()
    })
}

/// The fixture primes, filtered so that every pair combines with e = 65537.
fn fixture_primes() -> Vec<Nat> {
    let e = Nat::from(jaap_crypto::rsa::PUBLIC_EXPONENT);
    PRIME_FIXTURE
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|l| {
            format!("0x{l}")
                .parse::<Nat>()
                .expect("fixture prime is hex")
        })
        .filter(|p| !(p - &Nat::one()).rem_nat(&e).is_zero())
        .collect()
}

/// The key of principal `i`: the `i`-th distinct pair of fixture primes
/// (offset, gap), so no two principals share a modulus.
fn derive_keypair(primes: &[Nat], i: usize) -> RsaKeyPair {
    let m = primes.len();
    let (a, gap) = (i % m, 1 + i / m);
    assert!(
        gap <= (m - 1) / 2,
        "prime fixture too small for principal {i}"
    );
    RsaKeyPair::from_primes(primes[a].clone(), primes[(a + gap) % m].clone())
        .expect("fixture primes combine")
}

/// A single-member threshold subject: how CRLs and attribute revocations
/// name one principal.
fn single(p: &Principal) -> ThresholdSubject {
    ThresholdSubject::new(vec![(p.name.clone(), p.key.public().clone())], 1)
        .expect("single-member subject")
}

fn read_op() -> Operation {
    Operation::new("read", OBJECT_O)
}

fn write_op() -> Operation {
    Operation::new("write", OBJECT_O)
}

/// A fully assembled read by `p` at `at`.
fn read_request(p: &Principal, at: Time) -> JointAccessRequest {
    let op = read_op();
    let signature = p
        .key
        .sign(&statement_bytes(&p.name, &op, at))
        .expect("sign read");
    JointAccessRequest {
        identity_certs: vec![p.identity.clone()],
        threshold_certs: vec![],
        attribute_certs: vec![p.grant.clone()],
        statements: vec![WireStatement {
            principal: p.name.clone(),
            at,
            signature,
        }],
        operation: op,
        at,
        deadline: None,
    }
}

/// The three coalition members' signing agents, identity certificates
/// and the 2-of-3 write certificate: what a joint write is built from.
struct Members<'a> {
    users: Vec<&'a UserAgent>,
    ids: Vec<IdentityCertificate>,
    write_ac: &'a ThresholdAttributeCertificate,
}

impl<'a> Members<'a> {
    fn of(c: &'a Coalition) -> Self {
        let names = ["User_D1", "User_D2", "User_D3"];
        Members {
            users: names
                .iter()
                .map(|n| c.user(n).expect("coalition user"))
                .collect(),
            ids: names
                .iter()
                .map(|n| c.identity_cert(n).expect("user identity").clone())
                .collect(),
            write_ac: c.write_ac(),
        }
    }

    /// A joint write signed by the members at indexes `signers`.
    fn write(&self, signers: &[usize], at: Time) -> JointAccessRequest {
        jaap_coalition::request::assemble(
            &signers.iter().map(|&i| self.users[i]).collect::<Vec<_>>(),
            signers.iter().map(|&i| self.ids[i].clone()).collect(),
            vec![self.write_ac.clone()],
            vec![],
            write_op(),
            at,
        )
        .expect("sign write")
    }
}

/// Uniform f64 in [0, 1).
fn uniform(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Rank sampler: Zipf(s) over `n` ranks, or uniform.
fn sampler(n: usize, zipf: Option<f64>) -> impl Fn(&mut StdRng) -> usize {
    let cdf: Vec<f64> = zipf.map_or_else(Vec::new, |s| {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        cdf
    });
    move |rng| {
        if cdf.is_empty() {
            (rng.next_u64() % n as u64) as usize
        } else {
            cdf.partition_point(|&c| c < uniform(rng)).min(n - 1)
        }
    }
}

/// The two ACLs admin mutations alternate between. Both keep every
/// permission the workloads rely on, so an ACL change never flips a
/// verdict.
#[must_use]
pub fn acl_variant(k: usize) -> Acl {
    let mut acl = Acl::new();
    acl.permit(GroupId::new("G_write"), "write");
    acl.permit(GroupId::new(GROUP_READ), "read");
    acl.permit(GroupId::new(GROUP_AUDIT), "read");
    if k.is_multiple_of(2) {
        acl.permit(GroupId::new("G_ops"), "read");
    }
    acl
}

/// Deterministic Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
}

/// Certifies `readers` members of `G_read`, then `targets` members of
/// `G_audit`: unique 2048-bit keys, CA identity and AA attribute
/// certificates.
fn certify(coalition: &Coalition, readers: usize, targets: usize) -> Vec<Principal> {
    let validity = Validity::new(Time(0), Time(VALIDITY_END));
    let primes = fixture_primes();
    let cas: Vec<_> = coalition.domains().iter().map(|d| d.ca()).collect();
    let aa = coalition.aa();
    par_map(readers + targets, |i| {
        let name = format!("P{i:04}");
        let key = derive_keypair(&primes, i);
        let identity = cas[i % cas.len()]
            .issue_identity(&name, key.public(), validity, Time(1))
            .expect("issue identity");
        let group = if i < readers { GROUP_READ } else { GROUP_AUDIT };
        let grant = aa
            .issue_attribute_certificate(
                &name,
                key.public(),
                GroupId::new(group),
                validity,
                Time(6),
            )
            .expect("issue attribute certificate");
        Principal {
            name,
            key,
            identity,
            grant,
        }
    })
}

/// Pre-issues `ops` admin mutations in [`ADMIN_CYCLE`] order; returns
/// them, the principals they revoke, and the clock after the last one.
/// Each revocation strikes its own target: the members after the first
/// `readers`, in shuffled order. No principal is revoked twice, and no
/// reader is revoked.
fn admin_schedule(
    coalition: &Coalition,
    population: &[Principal],
    readers: usize,
    ops: usize,
    rng: &mut StdRng,
) -> (Vec<AdminOp>, Vec<usize>, i64) {
    let mut revocable: Vec<usize> = (readers..population.len()).collect();
    assert_eq!(
        revocable.len(),
        revocations(ops),
        "one target per revocation"
    );
    shuffle(&mut revocable, rng);
    let mut clock = CLOCK0;
    let mut plan = Vec::with_capacity(ops);
    let mut revoked = Vec::new();
    for j in 0..ops {
        let kind = ADMIN_CYCLE[j % ADMIN_CYCLE.len()];
        if kind == AdminKind::Tick {
            clock += 1;
        }
        let target = match kind {
            AdminKind::Crl | AdminKind::Revoke => {
                let t = revocable[revoked.len()];
                revoked.push(t);
                Some(t)
            }
            _ => None,
        };
        plan.push((kind, clock, target, j));
    }
    let ra = coalition.ra();
    let admin = par_map(plan.len(), |x| {
        let (kind, clock, target, j) = plan[x];
        let at = Time(clock);
        let group = GroupId::new(GROUP_AUDIT);
        let before = target.map(|t| read_request(&population[t], Time(clock - 1)));
        let (action, probe) = match (kind, target) {
            (AdminKind::Crl, Some(t)) => {
                let crl = ra
                    .issue_crl(
                        j as u64 + 1,
                        at,
                        vec![CrlEntry {
                            subject: single(&population[t]),
                            group,
                            revoked_from: at,
                        }],
                    )
                    .expect("issue crl");
                (
                    AdminAction::Crl(crl),
                    Some(read_request(&population[t], at)),
                )
            }
            (AdminKind::Revoke, Some(t)) => {
                let rev = ra
                    .revoke_attribute(&single(&population[t]), group, at, at)
                    .expect("issue revocation");
                (
                    AdminAction::Revoke(rev),
                    Some(read_request(&population[t], at)),
                )
            }
            (AdminKind::Acl, _) => (AdminAction::Acl(acl_variant(j)), None),
            _ => (AdminAction::Tick(at), None),
        };
        AdminOp {
            kind,
            action,
            before,
            probe,
        }
    });
    (admin, revoked, clock)
}

/// Deploys the coalition's server: every fast path on, bounded as
/// profiled, cert store attached, journal on a file with the profiled
/// sync policy and teed to one replica, behind a one-shard front-end.
fn deploy(
    mut coalition: Coalition,
    profile: &Profile,
    store: CertStore,
    dir: &Path,
    epoch: Instant,
    trace_wal: bool,
) -> (ShardedCoalition, ReplicationNet, Arc<WalProbe>, PathBuf) {
    let server = coalition.server_mut();
    server.set_verification_cache(true).expect("verify cache");
    server.set_crypto_precomp(true).expect("precomp");
    server.set_derivation_memo(true).expect("memo");
    server.set_batch_verify(true).expect("batch verify");
    server.set_replay_protection(true).expect("replay");
    server.attach_cert_store(store).expect("attach store");
    server
        .apply_capacity_config(&profile.capacities)
        .expect("capacities");
    server.advance_clock(Time(CLOCK0)).expect("clock");
    let wal = WalProbe::new(epoch, trace_wal);
    let journal_path = dir.join("journal.log");
    let outbox = LogOutbox::new();
    let journal =
        FileStore::with_sync_policy(&journal_path, profile.journal_sync).expect("journal file");
    server
        .attach_journal(Box::new(TeeStore::new(
            TimedStore::new(journal, Arc::clone(&wal)),
            outbox.clone(),
        )))
        .expect("attach journal");
    server.set_journal_term(1);
    server
        .set_acl(OBJECT_O, acl_variant(1))
        .expect("initial ACL");
    server.set_metrics(None);
    let mut repl =
        ReplicationNet::new(1, REPLICAS, outbox, FaultPlan::reliable()).expect("replication");
    repl.set_window(SHIP_WINDOW);
    repl.sync(MAX_SYNC_ROUNDS);
    assert!(repl.primary.all_caught_up(), "bootstrap replication");
    let front = ShardedCoalition::new(vec![coalition.into_server()]).expect("front-end");
    (front, repl, wal, journal_path)
}

impl World {
    /// Builds the world for `profile` and `seed`, with its files under
    /// `dir` (created; must not exist yet). `trace_wal` makes the journal
    /// wrapper time every append.
    ///
    /// # Panics
    ///
    /// Panics when set-up fails: nothing has been measured yet, and a
    /// broken deployment is not a result.
    #[must_use]
    pub fn build(profile: Profile, seed: u64, dir: &Path, epoch: Instant, trace_wal: bool) -> Self {
        std::fs::create_dir_all(dir).expect("create world directory");
        let coalition = CoalitionBuilder::new()
            .key_bits(profile.key_bits)
            .seed(KEY_SEED)
            .validity_end(VALIDITY_END)
            .build()
            .expect("coalition");
        let population = certify(&coalition, profile.principals, profile.revocations());
        let store_medium =
            FileStore::with_sync_policy(dir.join("certstore.log"), profile.store_sync)
                .expect("cert store file");
        let store = CertStore::open(Box::new(store_medium), profile.store).expect("open store");
        for p in &population {
            store
                .put_identity_cert(&p.identity)
                .expect("store identity");
            store.put_attribute_cert(&p.grant).expect("store grant");
        }
        store.flush().expect("flush store");

        let mut rng = StdRng::seed_from_u64(seed);
        let n = profile.principals;

        // Read pool (read workloads): principals drawn from the mix.
        let reads = if profile.workload.is_read() {
            let draw = sampler(n, profile.zipf);
            let who: Vec<usize> = (0..profile.pool).map(|_| draw(&mut rng)).collect();
            let pop = &population;
            par_map(profile.pool, |k| {
                let p = &pop[who[k]];
                let at = Time(READ_AT0 + k as i64);
                let signature = p
                    .key
                    .sign(&statement_bytes(&p.name, &read_op(), at))
                    .expect("sign read");
                ReadItem {
                    principal: who[k],
                    statement: WireStatement {
                        principal: p.name.clone(),
                        at,
                        signature,
                    },
                }
            })
        } else {
            Vec::new()
        };

        // Write pool: mostly 2-of-3 pairs (grant); every 16th a single
        // member (deny: a write needs two distinct members).
        let members = Members::of(&coalition);
        let writes = if profile.workload.is_read() {
            Vec::new()
        } else {
            let signers: Vec<Vec<usize>> = (0..profile.pool)
                .map(|k| {
                    let a = (rng.next_u64() % 3) as usize;
                    if k % 16 == 15 {
                        vec![a]
                    } else {
                        vec![a, (a + 1 + (rng.next_u64() % 2) as usize) % 3]
                    }
                })
                .collect();
            let m = &members;
            par_map(profile.pool, |k| Expected {
                request: m.write(&signers[k], Time(WRITE_AT0 + k as i64)),
                grant: signers[k].len() >= 2,
            })
        };

        let warm = {
            let pop = &population;
            par_map(pop.len(), |i| {
                read_request(&pop[i], Time(WARM_AT0 + i as i64))
            })
        };

        let (admin, revoked, clock) =
            admin_schedule(&coalition, &population, n, profile.admin_ops, &mut rng);

        // Probe set for live versus recovered, at the final clock.
        let final_at = Time(clock);
        let mut probes: Vec<Expected> = (0..CONTROLS.min(n))
            .map(|i| Expected {
                request: read_request(&population[i], final_at),
                grant: true,
            })
            .collect();
        probes.extend(revoked.iter().take(CONTROLS).map(|&i| Expected {
            request: read_request(&population[i], final_at),
            grant: false,
        }));
        probes.push(Expected {
            request: members.write(&[0, 1], final_at),
            grant: true,
        });
        probes.push(Expected {
            request: members.write(&[2], final_at),
            grant: false,
        });
        drop(members);

        let sample = {
            let p = &population[0];
            let body = statement_bytes(&p.name, &read_op(), Time(READ_AT0));
            let sig = p.key.sign(&body).expect("sign sample");
            (body, sig, p.key.public().clone())
        };
        let trust = coalition.trust_store();

        let (front, repl, wal, journal_path) =
            deploy(coalition, &profile, store.clone(), dir, epoch, trace_wal);

        World {
            profile,
            front,
            repl,
            store,
            trust,
            wal,
            dir: dir.to_path_buf(),
            journal_path,
            names: population.iter().map(|p| p.name.clone()).collect(),
            reads,
            writes,
            warm,
            admin,
            probes,
            sample,
        }
    }

    /// The read request for pool entry `k`, with the reader's
    /// certificates fetched from the cert store (the directory lookup a
    /// client front-end performs per request).
    ///
    /// # Errors
    ///
    /// A description of the failed or missing lookup.
    pub fn fetch_read(&self, k: usize) -> Result<JointAccessRequest, String> {
        let item = &self.reads[k];
        let name = &self.names[item.principal];
        let identity = self
            .store
            .identity_by_subject(name)
            .map_err(|e| format!("identity lookup: {e}"))?
            .ok_or_else(|| format!("no identity row for {name}"))?;
        let grant = self
            .store
            .attribute_grant(name, GROUP_READ)
            .map_err(|e| format!("grant lookup: {e}"))?
            .ok_or_else(|| format!("no grant row for {name}"))?;
        Ok(JointAccessRequest {
            identity_certs: vec![identity],
            threshold_certs: vec![],
            attribute_certs: vec![grant],
            statements: vec![item.statement.clone()],
            operation: read_op(),
            at: item.statement.at,
            deadline: None,
        })
    }
}

impl Drop for World {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and removed
        // with the run directory.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

//! Workload definitions: what each workload offers and how the server it
//! runs against is deployed. Everything a run depends on besides the seed
//! lives here, and `BENCHMARK.json` restates it.

use jaap_coalition::server::CapacityConfig;
use jaap_store::StoreConfig;
use jaap_wal::SyncPolicy;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 2(d) reads, Zipf(1.1) over a population that fits every
    /// cache, one client calling `ShardedCoalition::decide`.
    ReadHot,
    /// Uniform reads over a population many times the verify-cache and
    /// page-cache capacities, batches through `decide_batch` on 2 workers.
    ReadCold,
    /// §4.3 2-of-3 joint writes interleaved with admin mutations, fsync on
    /// every journal append, one replica synced after each mutation.
    JointWriteDurable,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "read_hot" => Some(Workload::ReadHot),
            "read_cold" => Some(Workload::ReadCold),
            "joint_write_durable" => Some(Workload::JointWriteDurable),
            _ => None,
        }
    }

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read_hot",
            Workload::ReadCold => "read_cold",
            Workload::JointWriteDurable => "joint_write_durable",
        }
    }

    /// True for the two read workloads.
    #[must_use]
    pub fn is_read(self) -> bool {
        !matches!(self, Workload::JointWriteDurable)
    }
}

/// Every knob of one workload's deployment and offered load.
#[derive(Debug, Clone, Copy)]
pub struct Profile {
    /// Which workload.
    pub workload: Workload,
    /// Modulus size of every CA, AA, RA and user key of the coalition.
    /// Population keys are always 2048-bit (built from the committed
    /// 1024-bit prime fixture).
    pub key_bits: usize,
    /// Readers: certified members of `G_read` (identity + attribute
    /// certificate) the read pool draws from. The first [`CONTROLS`] are
    /// the granted controls of the probe set. Each world also certifies
    /// one `G_audit` member per revocation as its target.
    pub principals: usize,
    /// Zipf exponent of the read mix; `None` is uniform.
    pub zipf: Option<f64>,
    /// Pre-signed requests, presented cyclically. At least twice the
    /// replay capacity and the derivation-memo capacity (both evict in
    /// insertion order), so a re-presented request is never a replay-window
    /// hit and never finds its derivation still memoized: each timed
    /// decision runs the derivation, as a freshly signed request would.
    pub pool: usize,
    /// Requests offered in each world's timed phase: a fixed count, never
    /// a duration, so both commits journal and count the same work.
    pub requests: usize,
    /// Requests per `decide_batch` call; 1 means `decide`.
    pub batch: usize,
    /// Pool workers per batch.
    pub workers: usize,
    /// Bounds of every server-owned structure.
    pub capacities: CapacityConfig,
    /// Persistent cert store sizing.
    pub store: StoreConfig,
    /// Journal sync policy.
    pub journal_sync: SyncPolicy,
    /// Cert-store medium sync policy.
    pub store_sync: SyncPolicy,
    /// Admin mutations per world, spread evenly over its timed phase.
    pub admin_ops: usize,
    /// `CoalitionServer::recover` runs over the previous world's final
    /// journal, spread over each world's timed phase (none in a run's
    /// first world).
    pub recover_runs: usize,
    /// Worlds per run. Each is set up from scratch (`setup_s` is the median
    /// of their set-up times) and then runs its share of the timed work,
    /// so the measured work is spread over the whole run rather than one
    /// window of a host whose speed drifts over tens of seconds.
    pub worlds: usize,
}

/// Replication followers in every workload.
pub const REPLICAS: usize = 1;

/// Worlds per run (see [`Profile::worlds`]).
const WORLDS: usize = 3;

/// Readers that serve as the granted controls of the probe set.
pub const CONTROLS: usize = 4;

/// Capacity of the derivation memo in every measured profile: half the
/// smallest pool (see [`Profile::pool`]).
const MEMO: usize = 128;

/// Offered requests per `--seconds` of run length, per workload. Chosen so
/// one run of the timed phase lasts about `--seconds` on a 2-core host;
/// the count does not adapt to the speed of the code under test.
fn requests_per_second(w: Workload) -> usize {
    match w {
        Workload::ReadHot => 3_600,
        Workload::ReadCold => 3_300,
        Workload::JointWriteDurable => 1_800,
    }
}

impl Profile {
    /// The measured profile of `workload` for a run of `seconds`.
    #[must_use]
    pub fn new(workload: Workload, seconds: u64) -> Self {
        let requests = requests_per_second(workload) * seconds.max(1) as usize / WORLDS;
        let store = |cache_pages| StoreConfig {
            page_size: 4 * 1024,
            cache_pages,
            flush_threshold: 16 * 1024,
            ..StoreConfig::default()
        };
        let capacities = |verify_cache, store_pages| CapacityConfig {
            replay: 128,
            verify_cache: Some(verify_cache),
            derivation_memo: Some(MEMO),
            store_cache_pages: Some(store_pages),
            ..CapacityConfig::default()
        };
        match workload {
            Workload::ReadHot => Profile {
                workload,
                key_bits: 2048,
                principals: 32,
                zipf: Some(1.1),
                pool: 512,
                requests,
                batch: 1,
                workers: 1,
                capacities: capacities(256, 64),
                store: store(64),
                journal_sync: SyncPolicy::EveryN(256),
                store_sync: SyncPolicy::Never,
                admin_ops: 32,
                recover_runs: 11,
                worlds: WORLDS,
            },
            Workload::ReadCold => Profile {
                workload,
                key_bits: 2048,
                principals: 64,
                zipf: None,
                pool: 512,
                requests,
                batch: 8,
                workers: 2,
                capacities: capacities(16, 2),
                store: store(2),
                journal_sync: SyncPolicy::EveryN(256),
                store_sync: SyncPolicy::Never,
                admin_ops: 32,
                recover_runs: 11,
                worlds: WORLDS,
            },
            Workload::JointWriteDurable => Profile {
                workload,
                key_bits: 2048,
                principals: CONTROLS,
                zipf: None,
                pool: 256,
                requests,
                batch: 1,
                workers: 1,
                capacities: capacities(256, 64),
                store: store(64),
                journal_sync: SyncPolicy::EveryAppend,
                store_sync: SyncPolicy::EveryAppend,
                admin_ops: requests / 64,
                recover_runs: 11,
                worlds: WORLDS,
            },
        }
    }

    /// Revocations among this profile's admin mutations.
    #[must_use]
    pub fn revocations(&self) -> usize {
        crate::world::revocations(self.admin_ops)
    }

    /// A seconds-scale profile of the same shape for tests: small counts
    /// and 512-bit coalition keys, identical code paths.
    #[must_use]
    pub fn smoke(workload: Workload) -> Self {
        let mut p = Profile::new(workload, 1);
        p.key_bits = 512;
        p.principals = 8;
        p.pool = 16;
        p.requests = 24;
        p.batch = p.batch.min(4);
        p.admin_ops = 6;
        p.recover_runs = 2;
        p.worlds = 1;
        p.capacities.replay = 8;
        p.capacities.derivation_memo = Some(4);
        if workload == Workload::ReadCold {
            p.capacities.verify_cache = Some(2);
        }
        p
    }
}

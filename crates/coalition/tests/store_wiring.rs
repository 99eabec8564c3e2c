//! Integration of the persistent cert/CRL/ACL store with the coalition
//! server: store-before-effect mirroring, snapshot plumbing through the
//! concurrent front-end, and `CapacityConfig` replay through the journal.

use jaap_coalition::concurrent::ConcurrentServer;
use jaap_coalition::scenario::{Coalition, CoalitionBuilder};
use jaap_coalition::server::{CapacityConfig, CoalitionServer};
use jaap_core::protocol::Operation;
use jaap_core::syntax::Time;
use jaap_pki::TrustStore;
use jaap_store::{CertStore, Column, StoreConfig};
use jaap_wal::MemStore;

fn coalition(seed: u64) -> Coalition {
    CoalitionBuilder::new()
        .domains(&["D1", "D2"])
        .key_bits(192)
        .seed(seed)
        .build()
        .expect("build")
}

fn store_config() -> StoreConfig {
    StoreConfig {
        page_size: 1024,
        cache_pages: 8,
        flush_threshold: 512,
        ..StoreConfig::default()
    }
}

#[test]
fn attached_store_mirrors_acls_and_admitted_certs() {
    let mut c = coalition(51);
    let req = c
        .build_request(&["User_D1", "User_D2"], Operation::new("write", "Object O"))
        .expect("request");
    let medium = MemStore::new();
    let store = CertStore::open(Box::new(medium.clone()), store_config()).expect("open");
    let server = c.server_mut();
    server
        .attach_cert_store(store.clone())
        .expect("attach backfills");
    // The attach backfilled every registered object's ACL row.
    let obj_acl = server.object("Object O").expect("object").acl.clone();
    assert_eq!(store.acl("Object O").expect("get"), Some(obj_acl));

    // A granted decision admits the request's certificate bodies; the
    // store sees them before the engine does (store-before-effect).
    let d = server.handle_request(&req);
    assert!(d.granted, "{:?}", d.detail);
    assert!(store.identity_by_subject("User_D1").expect("get").is_some());
    assert!(store.len(Column::IdentitySubject) >= 2);
    store.verify_integrity().expect("index consistent");

    // A reopen over the same medium serves the same rows.
    store.flush().expect("flush");
    let reopened = CertStore::open(Box::new(medium), store_config()).expect("reopen");
    assert_eq!(
        reopened.identity_by_subject("User_D1").expect("get"),
        store.identity_by_subject("User_D1").expect("get")
    );
    assert_eq!(
        reopened.len(Column::IdentitySubject),
        store.len(Column::IdentitySubject)
    );
}

#[test]
fn store_attached_through_the_writer_mirrors_concurrent_decisions() {
    let c = coalition(52);
    let req = c
        .build_request(&["User_D1"], Operation::new("read", "Object O"))
        .expect("request");
    let store = CertStore::in_memory(store_config());
    let server = ConcurrentServer::new(c.into_server());
    let snap0 = server.snapshot();
    server
        .with_writer(|s| s.attach_cert_store(store.clone()))
        .expect("attach");
    // Attaching is a configuration change: a fresh snapshot is published.
    assert!(server.snapshot().version() > snap0.version());
    // The lock-free decision path commits through the writer, so the
    // request's first-seen identity certificate lands in the store.
    assert_eq!(store.identity_by_subject("User_D1").expect("get"), None);
    assert!(server.decide(&req).granted);
    assert!(store.identity_by_subject("User_D1").expect("get").is_some());
}

#[test]
fn capacity_config_round_trips_through_the_journal() {
    let medium = MemStore::new();
    let mut server = CoalitionServer::new("P", TrustStore::new(Time(0)));
    server
        .attach_journal(Box::new(medium.clone()))
        .expect("attach journal");
    server.set_verification_cache(true).expect("config");
    let cfg = CapacityConfig::million_principals();
    server.apply_capacity_config(&cfg).expect("config");
    assert_eq!(server.capacity_config().verify_cache, Some(65_536));

    let (recovered, report) =
        CoalitionServer::recover("P", TrustStore::new(Time(0)), Box::new(medium)).expect("recover");
    assert!(report.records_replayed > 0);
    assert_eq!(
        recovered.capacity_config().verify_cache,
        Some(65_536),
        "verify-cache bound must survive crash recovery"
    );
    // Every journaled bound comes back; the store page budget is
    // forwarded to an attached store, never kept.
    let journaled = CapacityConfig {
        store_cache_pages: None,
        ..cfg
    };
    assert_eq!(server.capacity_config(), journaled);
    assert_eq!(recovered.capacity_config(), journaled);
}

#[test]
fn default_capacity_config_reproduces_historical_defaults() {
    let cfg = CapacityConfig::default();
    let mut server = CoalitionServer::new("P", TrustStore::new(Time(0)));
    server.apply_capacity_config(&cfg).expect("config");
    assert_eq!(server.capacity_config().verify_cache, None);
    assert_eq!(server.capacity_config(), cfg);
}

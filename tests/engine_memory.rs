//! A server's live heap does not grow with the number of requests it has
//! decided.
//!
//! Every table that a request can add to is bounded: the replay window,
//! the audit log, the verification cache and the derivation memo. Fresh
//! requests at a new clock tick each miss the memo, so the memo keeps
//! storing entries and the bound keeps displacing them. This test counts
//! every allocation the process makes and checks that, once those tables
//! are full, decisions 401 to 1 200 leave the live heap where they found
//! it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use jaap_coalition::scenario::CoalitionBuilder;
use jaap_coalition::server::CapacityConfig;
use jaap_core::syntax::Time;

/// Delegates to [`System`] and keeps a running count of live bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter update touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live_bytes() -> isize {
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn fresh_requests_do_not_grow_the_live_heap() {
    const SLACK: isize = 16 * 1024;

    let mut c = CoalitionBuilder::new()
        .domains(&["D1", "D2", "D3"])
        .key_bits(192)
        .seed(0xE5)
        .validity_end(1_000_000)
        .build()
        .expect("build");
    c.set_verification_cache(true).expect("config");
    c.set_derivation_memo(true).expect("config");
    c.server_mut()
        .apply_capacity_config(&CapacityConfig {
            replay: 8,
            audit: 8,
            verify_cache: Some(8),
            derivation_memo: Some(8),
            store_cache_pages: None,
        })
        .expect("config");

    let start = c.server().now().0;
    let mut after_400 = 0;
    for i in 1..=1_200 {
        c.advance_time(Time(start + i)).expect("clock");
        let decision = c.request_write(&["User_D1", "User_D2"]).expect("request");
        assert!(decision.granted, "request {i} must be granted");
        if i == 400 {
            after_400 = live_bytes();
        }
    }
    let after_1200 = live_bytes();
    let stats = c.server().derivation_memo_stats().expect("memo on");
    assert_eq!(stats.hits, 0, "every request is fresh: {stats:?}");
    assert!(stats.entries <= 8, "memo bound holds: {stats:?}");
    assert!(
        (after_1200 - after_400).abs() <= SLACK,
        "live heap moved by {} B between request 400 ({after_400} B) and \
         request 1 200 ({after_1200} B)",
        after_1200 - after_400
    );
}

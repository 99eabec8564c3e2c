//! Model-based check of `jaap_obs::bounded` against a naive reference.
//!
//! The reference keeps live entries in a `Vec` in slot order and evicts
//! from the front, exactly as the containers promise; random operation
//! sequences must leave both with the same live set, the same oldest-first
//! order (hence the same eviction order) and the same eviction count, and
//! the map's internal queue must stay within twice its live size.
//!
//! The vendored `proptest` does not shrink, so each case draws one seed,
//! replays its whole operation sequence from that seed, and names the seed
//! in every failure message: rerun `run_map(seed)` / `run_ring(seed)` to
//! reproduce.

use std::sync::Arc;

use jaap_obs::bounded::{FifoMap, Ring};
use jaap_obs::Counter;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The reference: live `(key, value)` pairs, oldest first.
#[derive(Default)]
struct MapModel {
    live: Vec<(u8, u32)>,
    capacity: Option<usize>,
    evictions: u64,
}

impl MapModel {
    fn trim(&mut self) {
        if let Some(cap) = self.capacity {
            while self.live.len() > cap {
                self.live.remove(0);
                self.evictions += 1;
            }
        }
    }

    fn insert(&mut self, k: u8, v: u32) -> Option<u32> {
        if let Some(slot) = self.live.iter_mut().find(|(key, _)| *key == k) {
            return Some(std::mem::replace(&mut slot.1, v));
        }
        self.live.push((k, v));
        self.trim();
        None
    }

    fn remove(&mut self, k: u8) -> Option<u32> {
        let at = self.live.iter().position(|(key, _)| *key == k)?;
        Some(self.live.remove(at).1)
    }
}

/// Uniform in `[0, bound)`.
fn below(rng: &mut StdRng, bound: u64) -> u64 {
    rng.next_u64() % bound
}

/// A random bound: unbounded one time in five, else 0 to 5.
fn random_capacity(rng: &mut StdRng) -> Option<usize> {
    (below(rng, 5) != 0).then(|| below(rng, 6) as usize)
}

/// Runs one random operation sequence through a [`FifoMap`] and the model.
fn run_map(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let capacity = random_capacity(&mut rng);
    let mut map = FifoMap::new(capacity);
    let mirror = Arc::new(Counter::new());
    map.set_eviction_mirror(Some(Arc::clone(&mirror)));
    let mut model = MapModel {
        capacity,
        ..MapModel::default()
    };
    for step in 0..200 {
        let k = below(&mut rng, 8) as u8;
        let v = below(&mut rng, 1000) as u32;
        let op = below(&mut rng, 100) as u32;
        let fail = |what: &str| format!("seed {seed}, step {step} (op {op}, key {k}): {what}");
        match op {
            0..=39 => {
                if map.insert(k, v) != model.insert(k, v) {
                    return Err(fail("insert returned a different previous value"));
                }
            }
            40..=54 => {
                if map.get(&k) != model.live.iter().find(|(key, _)| *key == k).map(|(_, v)| v) {
                    return Err(fail("get disagrees"));
                }
            }
            55..=74 => {
                if map.remove(&k) != model.remove(k) {
                    return Err(fail("remove disagrees"));
                }
            }
            75..=89 => {
                let keep = |key: u8| key % 3 != k % 3;
                let before = model.live.len();
                model.live.retain(|(key, _)| keep(*key));
                if map.retain(|key, _| keep(*key)) != before - model.live.len() {
                    return Err(fail("retain dropped a different count"));
                }
            }
            90..=93 => {
                map.clear();
                model.live.clear();
            }
            _ => {
                let capacity = random_capacity(&mut rng);
                map.set_capacity(capacity);
                model.capacity = capacity;
                model.trim();
            }
        }
        let live: Vec<(u8, u32)> = map.iter().map(|(k, v)| (*k, *v)).collect();
        if live != model.live {
            return Err(fail(&format!("live {live:?} != model {:?}", model.live)));
        }
        if map.len() != model.live.len() {
            return Err(fail("len disagrees"));
        }
        if (map.evictions(), mirror.get()) != (model.evictions, model.evictions) {
            return Err(fail(&format!(
                "evictions {} (mirror {}) != model {}",
                map.evictions(),
                mirror.get(),
                model.evictions
            )));
        }
        if map.queue_len() > 2 * map.len().max(1) {
            return Err(fail(&format!(
                "queue {} exceeds twice the live size {}",
                map.queue_len(),
                map.len()
            )));
        }
    }
    Ok(())
}

/// Runs one random push/re-bound sequence through a [`Ring`] and a `Vec`.
fn run_ring(seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut capacity = below(&mut rng, 6) as usize;
    let mut ring = Ring::new(capacity);
    let mut model: Vec<u32> = Vec::new();
    let mut evictions = 0u64;
    for step in 0..200 {
        if below(&mut rng, 10) == 0 {
            capacity = below(&mut rng, 6) as usize;
            ring.set_capacity(capacity);
        } else {
            let v = below(&mut rng, 1000) as u32;
            ring.push(v);
            model.push(v);
        }
        while model.len() > capacity {
            model.remove(0);
            evictions += 1;
        }
        let live: Vec<u32> = ring.as_deque().iter().copied().collect();
        if live != model || ring.evictions() != evictions {
            return Err(format!(
                "seed {seed}, step {step}: ring {live:?} / {} evictions != model {model:?} / {evictions}",
                ring.evictions()
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fifo_map_matches_the_reference_model(seed in any::<u64>()) {
        run_map(seed).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn ring_matches_the_reference_model(seed in any::<u64>()) {
        run_ring(seed).map_err(TestCaseError::fail)?;
    }
}

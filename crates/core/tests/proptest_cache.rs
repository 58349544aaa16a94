//! Property tests of the pulse cache.
//!
//! Unbounded, the cache is observationally equivalent to a plain map under any
//! interleaving of inserts and lookups, and a snapshot restores every entry.
//! Bounded, it must respect its total capacity under any insert sequence, never
//! evict the entry an insert call just wrote, never answer a lookup with a stale
//! value, and count every lookup as exactly one hit or miss.

use proptest::prelude::*;
use std::collections::HashMap;
use vqc_circuit::Circuit;
use vqc_core::{BlockKey, CacheConfig, CachedBlock, CachedTuning, PulseCache};

/// One step of a cache workload, replayed against the cache and a map model.
#[derive(Debug, Clone)]
enum Op {
    InsertBlock(usize, usize),
    LookupBlock(usize),
    InsertTuning(usize, usize),
    LookupTuning(usize),
    Counts,
}

fn arb_op(key_space: usize) -> impl Strategy<Value = Op> {
    let k = 0..key_space;
    prop_oneof![
        (k.clone(), 0..1000usize).prop_map(|(k, v)| Op::InsertBlock(k, v)),
        k.clone().prop_map(Op::LookupBlock),
        (k.clone(), 0..1000usize).prop_map(|(k, v)| Op::InsertTuning(k, v)),
        k.clone().prop_map(Op::LookupTuning),
        k.prop_map(|_| Op::Counts),
    ]
}

/// Distinct, deterministic keys: one-qubit circuits with distinct rotation angles.
fn key(tag: usize) -> BlockKey {
    let mut circuit = Circuit::new(1);
    circuit.rz(0, 0.25 * tag as f64 + 0.125);
    BlockKey::from_bound_circuit(&circuit)
}

/// `value` scales the entry's recompute cost (iterations and duration both grow).
fn block(value: usize) -> CachedBlock {
    CachedBlock {
        duration_ns: value as f64 * 0.5,
        converged: !value.is_multiple_of(3),
        grape_iterations: value,
    }
}

fn tuning(value: usize) -> CachedTuning {
    CachedTuning {
        learning_rate: 0.01 * value as f64,
        decay_rate: 0.99,
        duration_ns: value as f64,
        converged: value.is_multiple_of(2),
        precompute_iterations: value * 7,
        runtime_iterations: value,
    }
}

/// The most block entries a cache bounded at `capacity` may hold: the total is
/// split over 16 shards, each holding at least one entry.
fn effective_bound(capacity: usize) -> usize {
    capacity.div_ceil(16).max(1) * 16
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unbounded_cache_agrees_with_a_map(ops in prop::collection::vec(arb_op(12), 1..80)) {
        let cache = PulseCache::default();
        let mut blocks: HashMap<usize, CachedBlock> = HashMap::new();
        let mut tunings: HashMap<usize, CachedTuning> = HashMap::new();
        for op in &ops {
            match *op {
                Op::InsertBlock(k, v) => {
                    blocks.insert(k, block(v));
                    cache.insert_block(key(k), block(v));
                }
                Op::LookupBlock(k) => {
                    prop_assert_eq!(blocks.get(&k).cloned(), cache.block(&key(k)));
                }
                Op::InsertTuning(k, v) => {
                    tunings.insert(k, tuning(v));
                    cache.insert_tuning(key(k), tuning(v));
                }
                Op::LookupTuning(k) => {
                    prop_assert_eq!(tunings.get(&k).cloned(), cache.tuning(&key(k)));
                }
                Op::Counts => {
                    prop_assert_eq!(blocks.len(), cache.num_blocks());
                    prop_assert_eq!(tunings.len(), cache.num_tunings());
                }
            }
        }
        // Final exhaustive sweep over the key space.
        for k in 0..12 {
            prop_assert_eq!(blocks.get(&k).cloned(), cache.block(&key(k)));
            prop_assert_eq!(tunings.get(&k).cloned(), cache.tuning(&key(k)));
        }
    }

    #[test]
    fn snapshot_absorb_preserves_every_entry(
        entries in prop::collection::vec((0usize..40, 0usize..1000), 0..40),
    ) {
        let original = PulseCache::default();
        for &(k, v) in &entries {
            original.insert_block(key(k), block(v));
        }
        let restored = PulseCache::default();
        restored.absorb(original.snapshot());
        prop_assert_eq!(original.num_blocks(), restored.num_blocks());
        for k in 0..40 {
            prop_assert_eq!(original.block(&key(k)), restored.block(&key(k)));
        }
        // Absorb is a restore, not compile-time work: the compile counters stay zero.
        let metrics = restored.metrics();
        prop_assert_eq!(metrics.insertions, 0);
        prop_assert_eq!(metrics.evictions, 0);
        prop_assert_eq!(metrics.restored, original.num_blocks() as u64);
    }

    /// A bounded cache obeys its total capacity under any insert/lookup sequence,
    /// the entry an insert call just wrote is always still present afterwards,
    /// every hit returns the key's latest value, and the lookup counters balance
    /// (`hits + misses == lookups`).
    #[test]
    fn bounded_cache_respects_capacity_and_counts_every_lookup(
        ops in prop::collection::vec(arb_op(64), 1..160),
        capacity in 1usize..40,
    ) {
        let cache = PulseCache::new(CacheConfig {
            max_blocks: Some(capacity),
            ..CacheConfig::default()
        });
        let bound = effective_bound(capacity);
        let mut latest: HashMap<usize, CachedBlock> = HashMap::new();
        let mut lookups = 0u64;
        for op in &ops {
            match *op {
                Op::InsertBlock(k, v) => {
                    latest.insert(k, block(v));
                    cache.insert_block(key(k), block(v));
                    prop_assert!(
                        cache.block(&key(k)) == Some(block(v)),
                        "the entry just inserted must never be this insert's victim"
                    );
                    lookups += 1; // the assertion above performed a lookup
                    prop_assert!(cache.num_blocks() <= bound);
                }
                Op::LookupBlock(k) => {
                    if let Some(found) = cache.block(&key(k)) {
                        prop_assert!(Some(&found) == latest.get(&k), "stale hit");
                    }
                    lookups += 1;
                }
                // Tunings are unbounded in this config; exercise them lightly.
                Op::InsertTuning(k, v) => cache.insert_tuning(key(k), tuning(v)),
                Op::LookupTuning(k) => {
                    cache.tuning(&key(k));
                    lookups += 1;
                }
                Op::Counts => {
                    prop_assert!(cache.num_blocks() <= bound);
                }
            }
        }
        let metrics = cache.metrics();
        prop_assert_eq!(metrics.hits + metrics.misses, lookups);
    }
}

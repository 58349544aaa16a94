//! The pulse cache: GRAPE results keyed by block content.
//!
//! Strict partial compilation's whole point is that Fixed blocks can be compiled once
//! and looked up forever after; and even for full GRAPE, identical blocks recur both
//! within a circuit (repeated QAOA rounds) and across variational iterations. Keys
//! are content-addressed: a [`BlockKey`] is a canonical fingerprint of the block
//! circuit, so two requests compiling the same subcircuit hit the same entry
//! regardless of which circuit or which variational iteration they came from.
//!
//! [`PulseCache`] is the one cache type: [`crate::PartialCompiler::new`] builds one,
//! and `vqc-runtime` shares one between its compiler and its worker pool. The key
//! space is striped over 16 shards, each guarded by its own mutex, so lookups of
//! different blocks from different workers do not contend. (On a 2-vCPU host a
//! single shard measured ~7% fewer iterations per second on the runtime's mixed
//! interactive/background workload. A per-shard reader-writer lock measured slower
//! than a mutex: the critical sections are a few nanoseconds, so lock acquisition
//! dominates.)
//!
//! # Eviction
//!
//! The cache is unbounded by default. [`CacheConfig::max_blocks`] and
//! [`CacheConfig::max_tunings`] cap it as a deployment memory bound, split evenly
//! over the shards. A full shard evicts by *recompute cost*: every entry carries
//! the GRAPE seconds it would take to reproduce, and the cheapest-to-recompute
//! entry leaves first, ties in insertion order. That cost is the wall time the
//! compilation was *observed* to take when the compiler recorded one (it does for
//! every real compilation, via [`PulseCache::record_observed_cost`]), or else the
//! [`LatencyModel`] estimate from the entry's recorded iterations. A cached
//! 4-qubit block stands for minutes of GRAPE, a 2-qubit block for a fraction of a
//! second, and a bounded cache should spend its capacity on the former.
//!
//! Observed costs are *host* seconds while model estimates are paper-scale
//! seconds. Within one process every real compilation records an observation
//! before its insert, and [`PulseCache::absorb`] seeds the observations from a
//! snapshot's persisted costs. For entries that never ran anywhere, the model
//! estimate is multiplied by the [`CostCalibration`] scale, a least-squares fit
//! over every real compilation's (estimate, observation) pair, so they rank on
//! (approximately) the host-seconds axis once a few blocks have run.

use crate::latency::{CostCalibration, LatencyModel};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use vqc_circuit::Circuit;
use vqc_pulse::{SeedEntry, TableConfig, TranspositionTable, WarmStartStats};

/// A canonical fingerprint of a (bound or structural) block circuit.
///
/// Two blocks with the same key are guaranteed to have the same gates on the same
/// local qubit indices with the same angles (rounded to 10⁻⁹), so a cached compilation
/// result can be reused.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockKey(String);

impl BlockKey {
    /// Builds the key of a *bound* block circuit (angles included).
    pub fn from_bound_circuit(circuit: &Circuit) -> Self {
        let mut key = format!("q{}|", circuit.num_qubits());
        for op in circuit.iter() {
            key.push_str(op.gate.name());
            for q in &op.qubits {
                key.push_str(&format!(",{q}"));
            }
            if let Some(angle) = op.gate.angle() {
                if angle.is_parameterized() {
                    // audit:allow(unwrap): guarded by angle.is_parameterized() on the line above
                    key.push_str(&format!("[θ{}]", angle.parameter().expect("parameterized")));
                } else {
                    key.push_str(&format!("[{:.9}]", angle.evaluate(&[])));
                }
            }
            key.push(';');
        }
        BlockKey(key)
    }

    /// The qubit count encoded in the key's `q{n}|` prefix (0 if the key is
    /// malformed). Both bound and structural keys carry it, so cache layers can
    /// estimate a cached entry's recompute cost (which scales as `dim³ = 8ⁿ`) without
    /// access to the originating circuit.
    pub fn num_qubits(&self) -> usize {
        let digits = self
            .0
            .strip_prefix("s|")
            .unwrap_or(&self.0)
            .strip_prefix('q')
            .and_then(|rest| rest.split('|').next());
        digits.and_then(|d| d.parse().ok()).unwrap_or(0)
    }

    /// Builds a *structural* key that ignores the numeric values of parameterized
    /// angles (but keeps constant angles). Used to cache per-subcircuit hyperparameters
    /// and minimum durations, which the paper observes are robust to the θ argument.
    pub fn structural(circuit: &Circuit) -> Self {
        let mut key = format!("s|q{}|", circuit.num_qubits());
        for op in circuit.iter() {
            key.push_str(op.gate.name());
            for q in &op.qubits {
                key.push_str(&format!(",{q}"));
            }
            if let Some(angle) = op.gate.angle() {
                if angle.is_parameterized() {
                    key.push_str("[θ]");
                } else {
                    key.push_str(&format!("[{:.9}]", angle.evaluate(&[])));
                }
            }
            key.push(';');
        }
        BlockKey(key)
    }
}

/// A cached block compilation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachedBlock {
    /// Minimum pulse duration found for the block, in nanoseconds.
    pub duration_ns: f64,
    /// Whether GRAPE converged (if not, `duration_ns` is the gate-based fallback).
    pub converged: bool,
    /// Total GRAPE iterations that were spent producing this entry.
    pub grape_iterations: usize,
}

/// A cached flexible-compilation precompute result: tuned hyperparameters plus the
/// minimum block duration found with them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachedTuning {
    /// Tuned ADAM learning rate.
    pub learning_rate: f64,
    /// Tuned learning-rate decay.
    pub decay_rate: f64,
    /// Minimum pulse duration found for the subcircuit (ns).
    pub duration_ns: f64,
    /// Whether the tuned GRAPE converged at `duration_ns`.
    pub converged: bool,
    /// GRAPE iterations spent during tuning and duration search (pre-compute latency).
    pub precompute_iterations: usize,
    /// GRAPE iterations one runtime compilation needs with the tuned hyperparameters.
    pub runtime_iterations: usize,
}

/// Number of lock stripes the key space is hashed over (a power of two).
const SHARDS: usize = 16;

/// Cap on retained observed-cost entries across the whole cache. Every new θ
/// binding of a bound block is a distinct key, so under parameter churn the
/// feedback table would otherwise grow without bound even in a process that clears
/// its caches; losing an old observation merely falls back to the latency model.
const OBSERVED_CAPACITY: usize = 65_536;

/// Configuration of a [`PulseCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Maximum number of block entries in the whole cache, split evenly over its
    /// shards (each holds at least one entry, so the effective bound rounds up to
    /// a multiple of 16). A full shard evicts its cheapest-to-recompute entry on
    /// insert. Below 32 (fewer than 2 entries per shard) every insert replaces
    /// its shard's only entry, so eviction is last-write-wins. `None` (the
    /// default) disables eviction.
    pub max_blocks: Option<usize>,
    /// Maximum number of tuning entries, as for `max_blocks`.
    pub max_tunings: Option<usize>,
    /// Configuration of the transposition-table warm-start index (capacity,
    /// shard count, and the `VQC_CACHE_BYTES` byte budget).
    pub seeds: TableConfig,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_blocks: None,
            max_tunings: None,
            // Like `TranspositionTable::default()`, the default honors the
            // `VQC_TT` / `VQC_TT_CAPACITY` / `VQC_CACHE_BYTES` knobs.
            seeds: TableConfig::from_env(),
        }
    }
}

/// Point-in-time cache counters.
///
/// `hits`/`misses` count lookups of both block and tuning entries; `evictions`
/// counts entries displaced by the capacity bound (on any write path, including a
/// bounded warm start). `restored` counts entries absorbed from a snapshot, which
/// deliberately do **not** contribute to `insertions` — a warm start is not
/// compile-time work, and polluting the compile-time counters with it would make
/// the first post-restart metrics read look like a compilation storm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheMetrics {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries written (first insert or overwrite) by compilation.
    pub insertions: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Entries restored from a snapshot by [`PulseCache::absorb`].
    pub restored: u64,
}

/// Per-shard counters. Keeping one `Counters` inside every shard (rather than one
/// global set) spreads the atomic increments across as many cache lines as there are
/// shards, so metrics do not re-introduce the very contention the striping removes.
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    restored: AtomicU64,
}

impl Counters {
    fn record_lookup(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One stored value plus its eviction metadata.
#[derive(Debug)]
struct Slot<V> {
    value: V,
    /// Estimated seconds of GRAPE work to reproduce the value if evicted.
    cost: f64,
    /// Monotone write stamp. Overwriting a key refreshes its stamp, so an entry's
    /// age reflects its latest write.
    seq: u64,
}

/// Maps a cost to a key that sorts exactly like [`f64::total_cmp`] (the standard
/// sign-flip trick), so the victim index below can order entries without floats.
fn cost_order_bits(cost: f64) -> u64 {
    let bits = cost.to_bits();
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// One capacity-bounded key→value map with per-entry recompute costs.
#[derive(Debug)]
struct BoundedMap<V> {
    entries: HashMap<BlockKey, Slot<V>>,
    /// Eviction order index: the map's first entry is the next victim. Keys are
    /// `(cost order bits, seq)` — unique because `seq` is — so picking a victim
    /// and maintaining the index on insert/overwrite are both O(log n) under the
    /// shard mutex.
    victims: BTreeMap<(u64, u64), BlockKey>,
    capacity: Option<usize>,
    next_seq: u64,
}

impl<V> BoundedMap<V> {
    fn new(capacity: Option<usize>) -> Self {
        BoundedMap {
            entries: HashMap::new(),
            victims: BTreeMap::new(),
            capacity,
            next_seq: 0,
        }
    }

    fn get(&self, key: &BlockKey) -> Option<&V> {
        self.entries.get(key).map(|slot| &slot.value)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.victims.clear();
    }

    /// Inserts, returning the number of entries evicted to make room. The entry
    /// inserted by this very call is never its own victim, even when it is the
    /// cheapest in the shard — evicting what the caller is about to rely on would
    /// guarantee an immediate recompute.
    fn insert(&mut self, key: BlockKey, value: V, cost: f64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = Slot { value, cost, seq };
        let Some(capacity) = self.capacity else {
            // Unbounded maps (the default config) never evict, so they skip the
            // victim index entirely rather than mirror every key into it.
            self.entries.insert(key, slot);
            return 0;
        };
        if let Some(old) = self.entries.insert(key.clone(), slot) {
            self.victims.remove(&(cost_order_bits(old.cost), old.seq));
        }
        self.victims
            .insert((cost_order_bits(cost), seq), key.clone());
        let mut evicted = 0;
        while self.entries.len() > capacity.max(1) {
            // The just-inserted key is at most one of the first two index
            // entries away from the front, so this scan inspects ≤ 2 entries.
            let victim = self
                .victims
                .iter()
                .find(|(_, candidate)| **candidate != key)
                .map(|(order, candidate)| (*order, candidate.clone()));
            match victim {
                Some((order, victim)) => {
                    self.victims.remove(&order);
                    self.entries.remove(&victim);
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }
}

/// FIFO-bounded key → measured-seconds table (overwrites keep the original queue
/// position; the bound caps memory, it does not implement recency).
#[derive(Debug, Default)]
struct ObservedCosts {
    costs: HashMap<BlockKey, f64>,
    order: VecDeque<BlockKey>,
}

impl ObservedCosts {
    fn record(&mut self, key: &BlockKey, seconds: f64) {
        if self.costs.insert(key.clone(), seconds).is_none() {
            self.order.push_back(key.clone());
            while self.order.len() > OBSERVED_CAPACITY {
                if let Some(evicted) = self.order.pop_front() {
                    self.costs.remove(&evicted);
                }
            }
        }
    }

    fn get(&self, key: &BlockKey) -> Option<f64> {
        self.costs.get(key).copied()
    }
}

#[derive(Debug)]
struct Shard {
    blocks: Mutex<BoundedMap<CachedBlock>>,
    tunings: Mutex<BoundedMap<CachedTuning>>,
    counters: Counters,
}

/// Serializable image of a cache's contents, for warm-start persistence. Each entry
/// carries its recompute-cost estimate (seconds), so a restored cache ranks restored
/// and freshly compiled entries on the same eviction scale.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// All cached block compilations, with per-entry recompute costs.
    pub blocks: Vec<(BlockKey, CachedBlock, f64)>,
    /// All cached flexible-compilation tunings, with per-entry recompute costs.
    pub tunings: Vec<(BlockKey, CachedTuning, f64)>,
    /// The transposition-table warm-start entries.
    pub seeds: Vec<(BlockKey, SeedEntry)>,
}

/// The thread-safe, lock-striped pulse cache: block compilations, flexible
/// tunings, observed compile costs, and the warm-start transposition table.
#[derive(Debug)]
pub struct PulseCache {
    shards: Vec<Shard>,
    /// Measured wall-clock compile seconds per key. Deliberately *outside* the
    /// bounded entry maps: evicting a result does not un-learn what it cost to
    /// produce, so re-compilations and LPT scheduling keep the observation (up to
    /// the [`OBSERVED_CAPACITY`] feedback bound). Written once per real
    /// compilation and read once per planned block, so one table does not
    /// contend.
    observed: Mutex<ObservedCosts>,
    /// Model→host scale fit from every real compilation's (estimate, observation)
    /// pair. One global accumulator: it is written once per *real* GRAPE
    /// compilation, and a single fit sees every sample.
    calibration: Mutex<CostCalibration>,
    /// Converts an entry's recorded GRAPE iterations into its recompute cost.
    latency: LatencyModel,
    /// The transposition-table warm-start index: structural key → tuned
    /// hyperparameters, converged duration window, and best-so-far amplitudes.
    /// Sharded and bounded on its own, independent of the block/tuning shards.
    seeds: TranspositionTable<BlockKey>,
}

impl Default for PulseCache {
    fn default() -> Self {
        PulseCache::new(CacheConfig::default())
    }
}

impl PulseCache {
    /// Creates an empty cache with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        let per_shard = |total: Option<usize>| total.map(|n| n.div_ceil(SHARDS).max(1));
        PulseCache {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    blocks: Mutex::new(BoundedMap::new(per_shard(config.max_blocks))),
                    tunings: Mutex::new(BoundedMap::new(per_shard(config.max_tunings))),
                    counters: Counters::default(),
                })
                .collect(),
            observed: Mutex::new(ObservedCosts::default()),
            calibration: Mutex::new(CostCalibration::new()),
            latency: LatencyModel::default(),
            seeds: TranspositionTable::new(config.seeds),
        }
    }

    fn shard(&self, key: &BlockKey) -> &Shard {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) & (SHARDS - 1)]
    }

    /// Looks up a cached block compilation.
    pub fn block(&self, key: &BlockKey) -> Option<CachedBlock> {
        let shard = self.shard(key);
        let found = shard.blocks.lock().get(key).cloned();
        shard.counters.record_lookup(found.is_some());
        found
    }

    /// Inserts a block compilation result.
    pub fn insert_block(&self, key: BlockKey, value: CachedBlock) {
        let cost = self.recompute_cost(&key, || self.latency.block_recompute_seconds(&key, &value));
        let shard = self.shard(&key);
        let evicted = shard.blocks.lock().insert(key, value, cost);
        shard.counters.insertions.fetch_add(1, Ordering::Relaxed);
        shard
            .counters
            .evictions
            .fetch_add(evicted, Ordering::Relaxed);
    }

    /// Looks up a cached flexible-compilation tuning.
    pub fn tuning(&self, key: &BlockKey) -> Option<CachedTuning> {
        let shard = self.shard(key);
        let found = shard.tunings.lock().get(key).cloned();
        shard.counters.record_lookup(found.is_some());
        found
    }

    /// Inserts a tuning result.
    pub fn insert_tuning(&self, key: BlockKey, value: CachedTuning) {
        let cost =
            self.recompute_cost(&key, || self.latency.tuning_recompute_seconds(&key, &value));
        let shard = self.shard(&key);
        let evicted = shard.tunings.lock().insert(key, value, cost);
        shard.counters.insertions.fetch_add(1, Ordering::Relaxed);
        shard
            .counters
            .evictions
            .fetch_add(evicted, Ordering::Relaxed);
    }

    /// The recompute cost an insert of `key` is ranked by. Once the key has a
    /// measured compile time, that observation *is* the cost the cache protects;
    /// the latency model only covers never-observed entries (e.g. hand-inserted
    /// ones), scaled by the fitted model→host factor once enough compilations
    /// calibrated it so modeled and observed costs rank on one axis.
    fn recompute_cost(&self, key: &BlockKey, model_seconds: impl FnOnce() -> f64) -> f64 {
        match self.observed_cost(key).filter(|seconds| *seconds > 0.0) {
            Some(seconds) => seconds,
            None => model_seconds() * self.cost_model_scale().unwrap_or(1.0),
        }
    }

    /// Number of cached block compilations.
    pub fn num_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.blocks.lock().len()).sum()
    }

    /// Number of cached tunings.
    pub fn num_tunings(&self) -> usize {
        self.shards.iter().map(|s| s.tunings.lock().len()).sum()
    }

    /// Clears the block and tuning entries. Observed compile times and warm-start
    /// seeds survive on purpose: clearing stored results changes neither what the
    /// work costs to redo nor what was learned about how to redo it faster.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.blocks.lock().clear();
            shard.tunings.lock().clear();
        }
    }

    /// Records the measured wall-clock seconds one *real* compilation of `key` took
    /// (cache hits are never recorded). The observation is kept apart from the
    /// bounded entry storage so it survives eviction: once a block has run, its
    /// observed cost replaces the a-priori latency-model estimate in LPT
    /// scheduling and eviction ranking.
    pub fn record_observed_cost(&self, key: &BlockKey, seconds: f64) {
        self.observed.lock().record(key, seconds);
    }

    /// The most recently recorded compilation wall time for `key`, if the block has
    /// ever been compiled for real (or restored from a snapshot).
    pub fn observed_cost(&self, key: &BlockKey) -> Option<f64> {
        self.observed.lock().get(key)
    }

    /// Records one (raw model estimate, observed wall seconds) pair from a real
    /// compilation, feeding the cache's [`CostCalibration`]. The estimate must be
    /// the *unscaled* model value — recording an already-calibrated estimate would
    /// make the fit feed back on itself.
    pub fn record_cost_sample(&self, estimated_seconds: f64, observed_seconds: f64) {
        self.calibration
            .lock()
            .record(estimated_seconds, observed_seconds);
    }

    /// The fitted model→host cost scale factor, once enough samples support it;
    /// estimates of never-compiled blocks multiplied by this land on the same
    /// wall-clock axis as observed costs.
    pub fn cost_model_scale(&self) -> Option<f64> {
        self.calibration.lock().scale()
    }

    /// Probes the warm-start transposition table for what past compilations of
    /// this *structure* (a [`BlockKey::structural`] key) learned: tuned
    /// hyperparameters, a converged duration window, and best-so-far amplitudes.
    pub fn seed(&self, key: &BlockKey) -> Option<SeedEntry> {
        self.seeds.probe(key)
    }

    /// Records what one compilation learned about a structural key into the
    /// warm-start table (same-key records merge; the window only tightens).
    pub fn record_seed(&self, key: &BlockKey, entry: SeedEntry) {
        self.seeds.record(key, entry);
    }

    /// Adds one finished duration search's GRAPE iteration total to the
    /// seeded-vs-cold warm-start accounting.
    pub fn record_search_outcome(&self, seeded: bool, grape_iterations: u64) {
        self.seeds.record_search_outcome(seeded, grape_iterations);
    }

    /// Adds one compilation's [`vqc_pulse::EigenMemo`] counter totals to the
    /// warm-start accounting.
    pub fn record_memo_outcome(&self, hits: u64, misses: u64, rejected: u64) {
        self.seeds.record_memo_outcome(hits, misses, rejected);
    }

    /// Current warm-start counters (table and memo traffic, seeded-vs-cold
    /// iteration totals).
    pub fn warm_start_stats(&self) -> WarmStartStats {
        self.seeds.stats()
    }

    /// The warm-start index's current entry count.
    pub fn num_seeds(&self) -> usize {
        self.seeds.len()
    }

    /// Current counter values, aggregated over all shards.
    pub fn metrics(&self) -> CacheMetrics {
        let mut metrics = CacheMetrics::default();
        for shard in &self.shards {
            metrics.hits += shard.counters.hits.load(Ordering::Relaxed);
            metrics.misses += shard.counters.misses.load(Ordering::Relaxed);
            metrics.insertions += shard.counters.insertions.load(Ordering::Relaxed);
            metrics.evictions += shard.counters.evictions.load(Ordering::Relaxed);
            metrics.restored += shard.counters.restored.load(Ordering::Relaxed);
        }
        metrics
    }

    /// Copies the full cache contents into a serializable snapshot.
    pub fn snapshot(&self) -> CacheSnapshot {
        let mut snapshot = CacheSnapshot::default();
        for shard in &self.shards {
            let blocks = shard.blocks.lock();
            snapshot.blocks.extend(
                blocks
                    .entries
                    .iter()
                    .map(|(k, slot)| (k.clone(), slot.value.clone(), slot.cost)),
            );
            let tunings = shard.tunings.lock();
            snapshot.tunings.extend(
                tunings
                    .entries
                    .iter()
                    .map(|(k, slot)| (k.clone(), slot.value.clone(), slot.cost)),
            );
        }
        snapshot.seeds = self.seeds.entries();
        snapshot
    }

    /// Restores every entry of a snapshot (e.g. one loaded from disk) without
    /// fabricating compile-time activity: `restored` counts the entries read from
    /// the snapshot (never `insertions`), so metrics read zero compilation after a
    /// warm start. Capacity bounds still apply — a snapshot larger than the cache
    /// keeps only what fits, and entries displaced that way are real displacements
    /// and do count in `evictions` (so `restored - evictions` reconciles with the
    /// entry count after a bounded warm start).
    pub fn absorb(&self, snapshot: CacheSnapshot) {
        // Each entry's persisted cost doubles as its observed compile cost: a
        // warm-started process then schedules (LPT) and evicts by what its
        // predecessor measured, instead of silently reverting to the a-priori
        // model for every restored key.
        for (key, value, cost) in snapshot.blocks {
            self.record_observed_cost(&key, cost);
            let shard = self.shard(&key);
            let evicted = shard.blocks.lock().insert(key, value, cost);
            shard.counters.restored.fetch_add(1, Ordering::Relaxed);
            shard
                .counters
                .evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
        for (key, value, cost) in snapshot.tunings {
            self.record_observed_cost(&key, cost);
            let shard = self.shard(&key);
            let evicted = shard.tunings.lock().insert(key, value, cost);
            shard.counters.restored.fetch_add(1, Ordering::Relaxed);
            shard
                .counters
                .evictions
                .fetch_add(evicted, Ordering::Relaxed);
        }
        // Seeds replay through the table's own record path, so depth-preferred
        // replacement and the capacity/byte bounds apply to restored entries
        // exactly as they do to live ones.
        self.seeds.absorb(snapshot.seeds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqc_circuit::ParamExpr;

    fn key(tag: usize) -> BlockKey {
        let mut circuit = Circuit::new(1);
        circuit.rz(0, tag as f64 * 0.1);
        BlockKey::from_bound_circuit(&circuit)
    }

    /// An entry whose recompute cost grows with `tag` (iterations and duration both
    /// scale with it).
    fn entry(tag: usize) -> CachedBlock {
        CachedBlock {
            duration_ns: tag as f64,
            converged: true,
            grape_iterations: tag,
        }
    }

    fn bounded(max_blocks: usize) -> PulseCache {
        PulseCache::new(CacheConfig {
            max_blocks: Some(max_blocks),
            ..CacheConfig::default()
        })
    }

    /// `N` distinct keys that `cache` stripes to one shard.
    fn same_shard_keys<const N: usize>(cache: &PulseCache) -> [BlockKey; N] {
        let first = key(1);
        let mut keys = vec![first.clone()];
        let mut tag = 2;
        while keys.len() < N {
            if std::ptr::eq(cache.shard(&key(tag)), cache.shard(&first)) {
                keys.push(key(tag));
            }
            tag += 1;
        }
        keys.try_into().expect("exactly N keys")
    }

    fn armed_seeds() -> PulseCache {
        // Armed explicitly so seed round trips hold even under `VQC_TT=0`.
        PulseCache::new(CacheConfig {
            seeds: TableConfig::default(),
            ..CacheConfig::default()
        })
    }

    #[test]
    fn bound_keys_distinguish_angles() {
        let mut a = Circuit::new(1);
        a.rz(0, 0.5);
        let mut b = Circuit::new(1);
        b.rz(0, 0.6);
        assert_ne!(
            BlockKey::from_bound_circuit(&a),
            BlockKey::from_bound_circuit(&b)
        );
        assert_eq!(
            BlockKey::from_bound_circuit(&a),
            BlockKey::from_bound_circuit(&a.clone())
        );
    }

    #[test]
    fn structural_keys_ignore_parameter_values() {
        let mut a = Circuit::new(1);
        a.rz_expr(0, ParamExpr::theta(0));
        a.h(0);
        let bound_1 = a.bind(&[0.3]);
        let bound_2 = a.bind(&[1.7]);
        assert_ne!(
            BlockKey::from_bound_circuit(&bound_1),
            BlockKey::from_bound_circuit(&bound_2)
        );
        assert_eq!(BlockKey::structural(&a), BlockKey::structural(&a.clone()));
    }

    #[test]
    fn entries_round_trip_and_lookups_count_hits_and_misses() {
        let cache = PulseCache::default();
        assert!(cache.block(&key(1)).is_none());
        cache.insert_block(key(1), entry(1));
        assert_eq!(cache.block(&key(1)).unwrap(), entry(1));
        assert_eq!(cache.num_blocks(), 1);
        cache.insert_tuning(
            key(2),
            CachedTuning {
                learning_rate: 0.2,
                decay_rate: 0.99,
                duration_ns: 3.5,
                converged: true,
                precompute_iterations: 500,
                runtime_iterations: 40,
            },
        );
        assert_eq!(cache.num_tunings(), 1);
        assert!(cache.tuning(&key(2)).is_some());
        let metrics = cache.metrics();
        assert_eq!(
            (metrics.hits, metrics.misses, metrics.insertions),
            (2, 1, 2)
        );
        cache.clear();
        assert_eq!(cache.num_blocks(), 0);
        assert_eq!(cache.num_tunings(), 0);
    }

    #[test]
    fn clear_keeps_observed_costs_and_seeds() {
        let cache = armed_seeds();
        assert_eq!(cache.observed_cost(&key(1)), None);
        cache.record_observed_cost(&key(1), 0.125);
        assert_eq!(cache.observed_cost(&key(1)), Some(0.125));
        // A later run overwrites (the latest measurement wins)...
        cache.record_observed_cost(&key(1), 0.25);
        assert_eq!(cache.observed_cost(&key(1)), Some(0.25));
        cache.record_seed(&key(2), seed_entry(4.0, 30));
        cache.insert_block(key(1), entry(1));
        // ...and clearing cached *results* erases neither what the work cost nor
        // what was learned about redoing it.
        cache.clear();
        assert_eq!(cache.num_blocks(), 0);
        assert_eq!(cache.observed_cost(&key(1)), Some(0.25));
        assert!(cache.seed(&key(2)).is_some());
    }

    #[test]
    fn seeds_round_trip_under_structural_keys() {
        let cache = armed_seeds();
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        c.rz_expr(1, ParamExpr::theta(0));
        // The structural key is taken on the *unbound* subcircuit (as the
        // compiler's `dedup_key` does), so any θ binding maps to the same key.
        // A separately-built circuit with identical structure must agree.
        let key_a = BlockKey::structural(&c);
        let mut c2 = Circuit::new(2);
        c2.cx(0, 1);
        c2.rz_expr(1, ParamExpr::theta(0));
        let key_b = BlockKey::structural(&c2);
        assert_eq!(key_a, key_b, "structural keys must be θ-invariant");

        assert!(cache.seed(&key_a).is_none());
        let entry = seed_entry(7.5, 40);
        cache.record_seed(&key_a, entry.clone());
        assert_eq!(cache.seed(&key_b), Some(entry));

        cache.record_search_outcome(true, 40);
        cache.record_memo_outcome(5, 2, 0);
        let stats = cache.warm_start_stats();
        assert_eq!(stats.table_hits, 1);
        assert_eq!(stats.seeded_iterations, 40);
        assert_eq!(stats.memo_hits, 5);
    }

    #[test]
    fn observed_cost_table_is_bounded_in_total() {
        let cache = PulseCache::default();
        let key_for = |tag: usize| {
            let mut c = Circuit::new(1);
            c.rz(0, tag as f64 * 1e-6);
            BlockKey::from_bound_circuit(&c)
        };
        let total = OBSERVED_CAPACITY + 4;
        for tag in 0..total {
            cache.record_observed_cost(&key_for(tag), tag as f64);
        }
        // The earliest observations age out; the newest survive.
        for tag in 0..4 {
            assert_eq!(cache.observed_cost(&key_for(tag)), None);
        }
        for tag in (total - 4)..total {
            assert_eq!(cache.observed_cost(&key_for(tag)), Some(tag as f64));
        }
        assert_eq!(cache.observed.lock().costs.len(), OBSERVED_CAPACITY);
    }

    #[test]
    fn full_map_evicts_cheapest_first_with_insertion_tiebreak() {
        // Expensive entry first, then a cheap one, then a medium one: the cheap
        // entry goes, not the oldest.
        let mut map = BoundedMap::new(Some(2));
        map.insert(key(1), (), 100.0);
        map.insert(key(2), (), 1.0);
        assert_eq!(map.insert(key(3), (), 10.0), 1);
        assert!(map.get(&key(1)).is_some(), "costliest entry survives");
        assert!(map.get(&key(2)).is_none(), "cheapest entry is evicted");
        assert!(map.get(&key(3)).is_some());

        // Equal costs fall back to write order, and an overwrite refreshes it.
        let mut map = BoundedMap::new(Some(2));
        map.insert(key(1), (), 5.0);
        map.insert(key(2), (), 5.0);
        map.insert(key(1), (), 5.0);
        map.insert(key(3), (), 5.0);
        assert!(map.get(&key(1)).is_some(), "refreshed entry survives");
        assert!(map.get(&key(2)).is_none(), "stalest tie is evicted");
        assert!(map.get(&key(3)).is_some());
    }

    #[test]
    fn just_inserted_entry_is_never_its_own_victim() {
        let mut map = BoundedMap::new(Some(1));
        map.insert(key(1), (), 100.0);
        // Cheaper than the resident entry, but the insert call must still land it.
        assert_eq!(map.insert(key(2), (), 1.0), 1);
        assert!(map.get(&key(2)).is_some());
        assert!(map.get(&key(1)).is_none());
    }

    #[test]
    fn total_capacity_is_split_over_the_shards() {
        // 32 entries over 16 shards is 2 per shard; a shard never holds more.
        let cache = bounded(32);
        for tag in 0..200 {
            cache.insert_block(key(tag), entry(tag));
        }
        assert!(cache.num_blocks() <= 32);
        for shard in &cache.shards {
            assert!(shard.blocks.lock().len() <= 2);
        }
        let metrics = cache.metrics();
        assert_eq!(metrics.insertions, 200);
        assert_eq!(metrics.evictions as usize, 200 - cache.num_blocks());
        // A bound below the shard count still lets every shard hold one entry.
        assert_eq!(bounded(1).shards[0].blocks.lock().capacity, Some(1));
    }

    #[test]
    fn calibration_scales_model_costed_inserts() {
        let cache = PulseCache::default();
        let cost_of = |cache: &PulseCache, wanted: &BlockKey| {
            cache
                .snapshot()
                .blocks
                .iter()
                .find(|(k, _, _)| k == wanted)
                .map(|(_, _, cost)| *cost)
                .unwrap()
        };
        // Without samples the fallback is the raw model value.
        cache.insert_block(key(1), entry(10));
        assert_eq!(
            cost_of(&cache, &key(1)),
            LatencyModel::default().block_recompute_seconds(&key(1), &entry(10))
        );

        // Three samples at a consistent 0.01 host/model ratio calibrate the scale;
        // a later never-observed insert is costed at model × 0.01.
        for estimate in [10.0, 20.0, 40.0] {
            cache.record_cost_sample(estimate, estimate * 0.01);
        }
        let scale = cache.cost_model_scale().expect("calibrated");
        assert!((scale - 0.01).abs() < 1e-12);
        cache.insert_block(key(2), entry(10));
        let expected = LatencyModel::default().block_recompute_seconds(&key(2), &entry(10)) * scale;
        let calibrated = cost_of(&cache, &key(2));
        assert!((calibrated - expected).abs() <= 1e-15 + 1e-9 * expected);

        // An observed cost replaces the model outright.
        cache.record_observed_cost(&key(3), 10.0);
        cache.insert_block(key(3), entry(1));
        assert_eq!(cost_of(&cache, &key(3)), 10.0);
    }

    #[test]
    fn observed_costs_override_the_model_in_eviction() {
        // 32 entries over 16 shards is 2 per shard, so the third insert into one
        // shard evicts through the public path.
        let cache = bounded(32);
        let [a, b, c] = same_shard_keys(&cache);
        // `a` is modeled cheap (1 iteration) but was observed to take 10 s; `b` is
        // modeled expensive (100 iterations) but was observed at 1 ms; `c` has no
        // observation and falls back to the model.
        let model = LatencyModel::default();
        assert!(model.block_recompute_seconds(&a, &entry(1)) < 1e-3);
        assert!(model.block_recompute_seconds(&c, &entry(50)) > 1e-3);
        cache.record_observed_cost(&a, 10.0);
        cache.insert_block(a.clone(), entry(1));
        cache.record_observed_cost(&b, 1e-3);
        cache.insert_block(b.clone(), entry(100));
        cache.insert_block(c.clone(), entry(50));
        // Under the a-priori model `a` would be the victim; with feedback the
        // observed-cheapest entry `b` leaves instead.
        assert!(cache.block(&a).is_some(), "observed-expensive survives");
        assert!(cache.block(&b).is_none(), "observed-cheap is evicted");
        assert!(cache.block(&c).is_some());
        assert_eq!(cache.metrics().evictions, 1);
        // The observation itself survives the eviction: a later re-insert of `b`
        // still ranks by what the work actually cost, and LPT still orders by it.
        assert_eq!(cache.observed_cost(&b), Some(1e-3));
        // And snapshots persist the observed cost as the entry's metadata.
        let persisted = cache
            .snapshot()
            .blocks
            .iter()
            .find(|(k, _, _)| *k == a)
            .map(|(_, _, cost)| *cost);
        assert_eq!(persisted, Some(10.0));
    }

    #[test]
    fn absorb_seeds_observed_costs_from_snapshot_metadata() {
        let source = PulseCache::default();
        source.record_observed_cost(&key(1), 7.5);
        source.insert_block(key(1), entry(1));
        source.insert_block(key(2), entry(2)); // never observed: model-costed

        let restored = PulseCache::default();
        restored.absorb(source.snapshot());
        // The persisted cost (observed where the source had an observation, model
        // otherwise) becomes the restored process's observation, so LPT and
        // eviction rank warm-started blocks by the predecessor's knowledge.
        assert_eq!(restored.observed_cost(&key(1)), Some(7.5));
        assert_eq!(
            restored.observed_cost(&key(2)),
            Some(LatencyModel::default().block_recompute_seconds(&key(2), &entry(2)))
        );
    }

    #[test]
    fn concurrent_inserts_against_a_tight_bound_respect_capacity_and_balance_metrics() {
        // 3 entries per shard, and twice as many keys as fit: every shard ranks
        // victims by cost while the threads race.
        let capacity = 3 * SHARDS;
        let cache = bounded(capacity);
        let threads = 8;
        let per_thread_ops = 200;
        let lookups_per_thread = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let cache = &cache;
                let lookups = &lookups_per_thread;
                scope.spawn(move || {
                    for i in 0..per_thread_ops {
                        let tag = (t * 31 + i * 7) % (2 * capacity);
                        if i % 3 == 0 {
                            cache.block(&key(tag));
                            lookups.fetch_add(1, Ordering::Relaxed);
                        } else {
                            cache.insert_block(key(tag), entry(tag));
                        }
                        // The capacity bound must hold at every intermediate
                        // point, not just after the dust settles.
                        assert!(cache.num_blocks() <= capacity);
                    }
                });
            }
        });
        let metrics = cache.metrics();
        assert!(cache.num_blocks() <= capacity);
        for shard in &cache.shards {
            assert!(shard.blocks.lock().len() <= 3);
        }
        assert_eq!(
            metrics.hits + metrics.misses,
            lookups_per_thread.load(Ordering::Relaxed),
            "every lookup is a hit or a miss"
        );
        let total_inserts = (threads * (per_thread_ops - per_thread_ops.div_ceil(3))) as u64;
        assert_eq!(metrics.insertions, total_inserts);
        assert!(metrics.evictions > 0, "churn must evict");
    }

    #[test]
    fn absorb_restores_without_perturbing_compile_time_counters() {
        let source = PulseCache::default();
        for tag in 0..10 {
            source.insert_block(key(tag), entry(tag));
        }
        let restored = PulseCache::default();
        restored.absorb(source.snapshot());
        let metrics = restored.metrics();
        assert_eq!(metrics.hits, 0);
        assert_eq!(metrics.misses, 0);
        assert_eq!(metrics.insertions, 0, "absorb must not count as insertions");
        assert_eq!(metrics.evictions, 0);
        assert_eq!(metrics.restored, 10);
        assert_eq!(restored.num_blocks(), 10);
    }

    #[test]
    fn bounded_absorb_reconciles_restored_against_evictions() {
        let source = PulseCache::default();
        for tag in 0..100 {
            source.insert_block(key(tag), entry(tag));
        }
        let bounded = bounded(SHARDS);
        bounded.absorb(source.snapshot());
        let metrics = bounded.metrics();
        assert_eq!(metrics.restored, 100);
        assert_eq!(metrics.insertions, 0);
        assert!(bounded.num_blocks() <= SHARDS);
        assert!(metrics.evictions > 0, "capacity displacements stay visible");
        assert_eq!(
            (metrics.restored - metrics.evictions) as usize,
            bounded.num_blocks()
        );
    }

    #[test]
    fn snapshot_round_trips_through_absorb() {
        let cache = PulseCache::default();
        for tag in 0..20 {
            cache.insert_block(key(tag), entry(tag));
        }
        let snapshot = cache.snapshot();
        assert_eq!(snapshot.blocks.len(), 20);
        // Every snapshot entry carries the same cost the live cache computed.
        let model = LatencyModel::default();
        for (key, value, cost) in &snapshot.blocks {
            assert_eq!(*cost, model.block_recompute_seconds(key, value));
        }

        let restored = PulseCache::default();
        restored.absorb(snapshot);
        assert_eq!(restored.num_blocks(), 20);
        for tag in 0..20 {
            assert_eq!(restored.block(&key(tag)).unwrap(), entry(tag));
        }
        // The multiset of retained costs is preserved exactly.
        let costs = |cache: &PulseCache| {
            let mut costs: Vec<f64> = cache.snapshot().blocks.iter().map(|(_, _, c)| *c).collect();
            costs.sort_by(f64::total_cmp);
            costs
        };
        assert_eq!(costs(&restored), costs(&cache));
    }

    fn seed_entry(duration_ns: f64, iterations: usize) -> SeedEntry {
        SeedEntry {
            learning_rate: 0.1,
            decay_rate: 0.999,
            tuned: true,
            converged_duration_ns: Some(duration_ns),
            failed_below_ns: duration_ns * 0.5,
            probe_iterations: vec![(duration_ns, iterations)],
            pulse: Some(vqc_pulse::PulseSequence::zeros(2, 64, 0.5)),
        }
    }

    #[test]
    fn seeds_round_trip_through_snapshot_and_absorb() {
        let source = armed_seeds();
        source.record_seed(&key(1), seed_entry(4.0, 30));
        source.record_seed(&key(2), seed_entry(7.0, 90));
        assert_eq!(source.num_seeds(), 2);

        let restored = armed_seeds();
        restored.absorb(source.snapshot());
        assert_eq!(restored.num_seeds(), 2);
        let found = restored.seed(&key(2)).expect("seed restored");
        assert_eq!(found.converged_duration_ns, Some(7.0));
        assert_eq!(found.depth(), 90);
    }

    #[test]
    fn seed_byte_budget_evicts_waveform_payloads() {
        // A budget that fits roughly one pulse-carrying entry: inserting deeper
        // entries must displace shallower ones rather than grow without bound.
        let one_entry = seed_entry(4.0, 10).approx_bytes();
        let cache = PulseCache::new(CacheConfig {
            seeds: TableConfig {
                enabled: true,
                capacity: 64,
                shards: 1,
                max_bytes: Some(one_entry + one_entry / 2),
            },
            ..CacheConfig::default()
        });
        for tag in 0..6 {
            cache.record_seed(&key(tag), seed_entry(4.0 + tag as f64, 10 * (tag + 1)));
        }
        let bytes = cache.seeds.approx_bytes();
        assert!(
            bytes <= one_entry + one_entry / 2,
            "byte budget must hold: {bytes} > {}",
            one_entry + one_entry / 2
        );
        assert!(cache.num_seeds() < 6, "budget must have evicted entries");
        assert!(cache.warm_start_stats().table_evictions > 0);
    }
}

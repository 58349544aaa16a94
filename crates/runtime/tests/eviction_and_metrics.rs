//! Regression tests for the runtime's accounting under bounded caches: every real
//! GRAPE compilation is counted no matter which dedup path ran it, warm starts do
//! not pollute compile-time metrics, and the worker count changes only the order
//! of work, never its result.

use vqc_circuit::{Circuit, ParamExpr};
use vqc_core::{CompilerOptions, Strategy};
use vqc_runtime::{CacheConfig, CompilationRuntime, CompileJob, RuntimeOptions};

fn fast_options() -> CompilerOptions {
    let mut options = CompilerOptions::fast();
    options.grape.max_iterations = 80;
    options.grape.target_infidelity = 5e-2;
    options.search_precision_ns = 2.0;
    options
}

/// Options with the tightest block cache: one entry per shard (16 in total), so
/// any two distinct blocks hashed to one shard evict each other and "cached
/// forever" assumptions break immediately.
fn capacity_one_options(workers: usize) -> RuntimeOptions {
    let mut options = RuntimeOptions::with_workers(workers);
    options.cache = CacheConfig {
        max_blocks: Some(1),
        ..CacheConfig::default()
    };
    options
}

/// More distinct Fixed blocks than a capacity-one cache has shards, so by
/// pigeonhole at least one shard holds several of them and must evict.
const DISTINCT_BLOCKS: usize = 17;

/// A circuit aggregating into one Fixed multi-gate block (GRAPE work, cached under
/// a bound key) plus one parameterized single-gate block (lookup, uncached).
fn variational_circuit(phase: f64) -> Circuit {
    let mut circuit = Circuit::new(2);
    circuit.h(0);
    circuit.h(1);
    circuit.cx(0, 1);
    circuit.rx(0, phase);
    circuit.cx(0, 1);
    circuit.rz_expr(1, ParamExpr::theta(0));
    circuit
}

/// With a capacity-one cache, cycling through more distinct blocks than there are
/// shards defeats the cache: in every shard holding several of them, each pass
/// evicts what the next pass needs first. Every such miss performs real GRAPE
/// work, and `unique_compilations` must count every one of them. (The seed only
/// counted the in-flight *leader* path, so any recompilation performed by a
/// follower — after its leader's entry was evicted or its leader failed — went
/// uncounted.)
#[test]
fn capacity_one_cache_counts_every_real_compilation_sequentially() {
    let runtime = CompilationRuntime::new(fast_options(), capacity_one_options(1));
    let circuits: Vec<Circuit> = (0..DISTINCT_BLOCKS)
        .map(|i| variational_circuit(0.1 + 0.15 * i as f64))
        .collect();
    let params = [0.9];
    for _ in 0..2 {
        for circuit in &circuits {
            runtime
                .compile(circuit, &params, Strategy::StrictPartial)
                .unwrap();
        }
    }
    let metrics = runtime.metrics();
    // Strict partial does no tuning lookups, so every cache miss is a block miss,
    // and every block miss runs GRAPE and must be counted.
    assert!(
        metrics.cache.misses > DISTINCT_BLOCKS as u64,
        "the second pass must miss in a shard the first pass overfilled"
    );
    assert_eq!(
        metrics.unique_compilations, metrics.cache.misses,
        "every miss performed real GRAPE work and must be counted"
    );
    assert!(runtime.cache().num_blocks() <= 16);
    assert_eq!(
        metrics.cache.evictions,
        metrics.cache.insertions - runtime.cache().num_blocks() as u64
    );
}

/// The same invariant under contention: concurrent duplicate requests against a
/// capacity-one cache coalesce in flight, and any follower whose entry was evicted
/// before it woke performs — and must count — a real compilation.
#[test]
fn capacity_one_cache_counts_every_real_compilation_under_contention() {
    let runtime = CompilationRuntime::new(fast_options(), capacity_one_options(4));
    // Each batch floods the pool with duplicates of more distinct blocks than the
    // cache has shards, so leaders' flights carry coalesced followers while an
    // overfilled shard guarantees some leader's insert evicts another's entry —
    // waking followers look up an evicted key, miss, and recompile. Repeated
    // rounds make a follower-path recompile (the case the seed failed to count)
    // likely under any interleaving.
    let jobs: Vec<CompileJob> = (0..2 * DISTINCT_BLOCKS)
        .map(|i| {
            CompileJob::new(
                variational_circuit(0.1 + 0.15 * (i % DISTINCT_BLOCKS) as f64),
                vec![0.9],
                Strategy::StrictPartial,
            )
        })
        .collect();
    for _ in 0..2 {
        for report in runtime.compile_batch(&jobs) {
            report.unwrap();
        }
    }
    let metrics = runtime.metrics();
    assert!(
        metrics.coalesced_waits > 0,
        "duplicate in-flight requests must produce followers for this test to bite"
    );
    assert_eq!(
        metrics.unique_compilations, metrics.cache.misses,
        "every block-lookup miss ran GRAPE, whichever dedup ticket held it"
    );
    assert!(
        metrics.unique_compilations > DISTINCT_BLOCKS as u64,
        "an overfilled shard forces recompilations"
    );
}

/// Warm-starting from a snapshot restores entries without fabricating compile-time
/// activity: insertions/evictions/hits/misses stay zero and only `restored` moves.
#[test]
fn warm_start_does_not_pollute_compile_time_metrics() {
    let dir = std::env::temp_dir().join("vqc_runtime_warm_metrics_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.snapshot");

    let first = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(2));
    first
        .compile(&variational_circuit(0.8), &[1.3], Strategy::StrictPartial)
        .unwrap();
    first.save_snapshot(&path).unwrap();
    let saved = first.cache().num_blocks();
    assert!(saved > 0);

    let second =
        CompilationRuntime::with_warm_start(fast_options(), RuntimeOptions::with_workers(2), &path)
            .unwrap();
    let metrics = second.metrics();
    assert_eq!(metrics.cache.hits, 0);
    assert_eq!(metrics.cache.misses, 0);
    assert_eq!(
        metrics.cache.insertions, 0,
        "absorbed snapshot entries are not compile-time insertions"
    );
    assert_eq!(metrics.cache.evictions, 0);
    assert_eq!(metrics.cache.restored, saved as u64);
    assert_eq!(metrics.unique_compilations, 0);
    assert_eq!(second.cache().num_blocks(), saved);

    std::fs::remove_dir_all(&dir).ok();
}

/// The worker count is a schedule, not a semantics: a 4-worker pool drains block
/// tasks in a different order than a single worker, and the reports must be
/// identical anyway.
#[test]
fn four_workers_and_one_worker_produce_identical_reports() {
    let jobs: Vec<CompileJob> = (0..3)
        .map(|i| {
            CompileJob::new(
                variational_circuit(0.3 + 0.5 * i as f64),
                vec![0.2 * i as f64],
                Strategy::StrictPartial,
            )
        })
        .collect();
    let pooled = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(4));
    let single = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(1));
    let pooled_reports = pooled.compile_batch(&jobs);
    let single_reports = single.compile_batch(&jobs);
    assert_eq!(pooled_reports.len(), single_reports.len());
    for (p, s) in pooled_reports.iter().zip(&single_reports) {
        let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
        assert_eq!(p.pulse_duration_ns, s.pulse_duration_ns);
        assert_eq!(p.num_blocks, s.num_blocks);
        assert_eq!(p.blocks.len(), s.blocks.len());
    }
}

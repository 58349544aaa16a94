//! Concurrency correctness of the compilation runtime: overlapping block sets
//! compiled from many threads must GRAPE-compile each unique block exactly once,
//! and a snapshot written by one "run" must be hit by the next.

use std::sync::Arc;
use vqc_circuit::{Circuit, ParamExpr};
use vqc_core::{CompilerOptions, PartialCompiler, Strategy};
use vqc_runtime::{CompilationRuntime, CompileJob, RuntimeOptions};

fn fast_options() -> CompilerOptions {
    let mut options = CompilerOptions::fast();
    options.grape.max_iterations = 80;
    options.grape.target_infidelity = 5e-2;
    options.search_precision_ns = 2.0;
    options
}

/// A circuit whose prepared form aggregates into one Fixed entangling block plus a
/// parameterized single-gate block; `phase` varies the fixed section so different
/// circuits produce different block keys.
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

/// Counts the unique GRAPE-level cache keys a strict-partial compile of the given
/// circuits needs, by compiling them sequentially on a fresh compiler and reading
/// the resulting cache size.
fn unique_block_count(circuits: &[Circuit], params: &[f64]) -> usize {
    let compiler = PartialCompiler::new(fast_options());
    for circuit in circuits {
        compiler
            .compile(circuit, params, Strategy::StrictPartial)
            .unwrap();
    }
    compiler.cache().num_blocks()
}

#[test]
fn contended_compilation_compiles_each_unique_block_exactly_once() {
    // Eight threads, four distinct circuits, every circuit compiled by two threads
    // concurrently through one shared runtime.
    let circuits: Vec<Circuit> = (0..4)
        .map(|i| variational_circuit(0.4 + 0.3 * i as f64))
        .collect();
    let params = [0.9];
    let expected_unique = unique_block_count(&circuits, &params);
    assert!(expected_unique > 0, "workload must involve GRAPE blocks");

    let runtime = Arc::new(CompilationRuntime::new(
        fast_options(),
        RuntimeOptions::with_workers(4),
    ));
    std::thread::scope(|scope| {
        for thread_index in 0..8 {
            let runtime = Arc::clone(&runtime);
            let circuit = circuits[thread_index % circuits.len()].clone();
            scope.spawn(move || {
                let report = runtime
                    .compile(&circuit, &params, Strategy::StrictPartial)
                    .unwrap();
                assert!(report.pulse_duration_ns <= report.gate_based_duration_ns + 1e-9);
            });
        }
    });

    let metrics = runtime.metrics();
    // Exactly-once: every unique BlockKey was stored once, and the number of cache
    // misses on block lookups equals the number of unique keys — a second GRAPE run
    // of the same key would show up as an extra miss + insertion.
    assert_eq!(runtime.cache().num_blocks(), expected_unique);
    assert_eq!(metrics.cache.misses, expected_unique as u64);
    assert_eq!(metrics.cache.insertions, expected_unique as u64);
    // The runtime's own accounting agrees: GRAPE actually ran once per unique key,
    // and every duplicate request was served by a cache hit or a coalesced wait.
    assert_eq!(metrics.unique_compilations, expected_unique as u64);
    assert!(metrics.cache.hits > 0);
}

#[test]
fn batch_over_many_iterations_reuses_blocks_across_requests() {
    let runtime = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(4));
    let circuit = variational_circuit(1.1);
    let jobs: Vec<CompileJob> = (0..6)
        .map(|i| {
            CompileJob::new(
                circuit.clone(),
                vec![0.2 * i as f64],
                Strategy::StrictPartial,
            )
        })
        .collect();
    let reports = runtime.compile_batch(&jobs);
    assert_eq!(reports.len(), 6);
    let reports: Vec<_> = reports.into_iter().map(|r| r.unwrap()).collect();

    // The Fixed block is θ-independent: GRAPE ran for exactly one job, the other five
    // were served from the shared cache (cached flag set on their GRAPE blocks).
    let paying: Vec<_> = reports
        .iter()
        .filter(|r| r.precompute.grape_iterations > 0)
        .collect();
    assert_eq!(paying.len(), 1, "exactly one job pays the pre-compute cost");
    for report in &reports {
        if report.precompute.grape_iterations == 0 {
            assert!(report
                .blocks
                .iter()
                .filter(|b| b.used_grape)
                .all(|b| b.cached));
        }
    }
    // All six jobs agree on the result.
    let durations: Vec<f64> = reports.iter().map(|r| r.pulse_duration_ns).collect();
    assert!(durations.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
}

#[test]
fn snapshot_written_by_one_run_is_hit_by_the_next() {
    let dir = std::env::temp_dir().join("vqc_runtime_warm_start_test");
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot_path = dir.join("pulse_cache.snapshot");

    let circuit = variational_circuit(0.8);
    let params = [1.3];

    // Run 1: cold cache — pays GRAPE, persists the cache.
    let first_run = CompilationRuntime::new(fast_options(), RuntimeOptions::with_workers(2));
    let cold = first_run
        .compile(&circuit, &params, Strategy::StrictPartial)
        .unwrap();
    assert!(
        cold.precompute.grape_iterations > 0,
        "cold run must pay GRAPE"
    );
    first_run.save_snapshot(&snapshot_path).unwrap();
    let saved_blocks = first_run.cache().num_blocks();
    assert!(saved_blocks > 0);

    // Run 2: a fresh runtime (fresh process, conceptually) warm-starts from disk and
    // compiles the same circuit without any GRAPE work.
    let second_run = CompilationRuntime::with_warm_start(
        fast_options(),
        RuntimeOptions::with_workers(2),
        &snapshot_path,
    )
    .unwrap();
    assert_eq!(second_run.cache().num_blocks(), saved_blocks);
    let warm = second_run
        .compile(&circuit, &params, Strategy::StrictPartial)
        .unwrap();
    assert_eq!(
        warm.precompute.grape_iterations, 0,
        "warm run must be all cache hits"
    );
    assert_eq!(warm.pulse_duration_ns, cold.pulse_duration_ns);
    assert!(warm
        .blocks
        .iter()
        .filter(|b| b.used_grape)
        .all(|b| b.cached));
    assert!(second_run.metrics().cache.hits > 0);

    std::fs::remove_dir_all(&dir).ok();
}

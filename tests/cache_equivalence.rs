//! A cache hit must equal a cold compile. One job is compiled four ways — cold
//! through `PartialCompiler::new`, cold on a fresh `CompilationRuntime`, again on
//! that runtime (all cache hits), and on a runtime warm-started from the first
//! runtime's snapshot — and every way must report the same pulse.

use vqc::circuit::{Circuit, ParamExpr};
use vqc::core::{CompilationReport, CompilerOptions, PartialCompiler, Strategy};
use vqc::runtime::{CompilationRuntime, RuntimeOptions};

/// A 3-qubit variational circuit whose strict-partial plan has two Fixed 2-qubit
/// GRAPE blocks of different structure (so neither block's duration search is
/// seeded by the other's, whatever order they compile in) plus lookup-table
/// blocks.
fn circuit() -> Circuit {
    let mut circuit = Circuit::new(3);
    circuit.h(0);
    circuit.cx(0, 1);
    circuit.rz_expr(1, ParamExpr::theta(0));
    circuit.rz_expr(0, ParamExpr::theta(1));
    circuit.h(2);
    circuit.cx(1, 2);
    circuit.h(1);
    circuit
}

/// What a cache hit must reproduce exactly: the total pulse duration and each
/// block's duration and convergence.
fn outcome(report: &CompilationReport) -> (f64, Vec<(f64, bool)>) {
    (
        report.pulse_duration_ns,
        report
            .blocks
            .iter()
            .map(|block| (block.duration_ns, block.converged))
            .collect(),
    )
}

#[test]
fn cache_hits_and_warm_starts_reproduce_the_cold_compile() {
    let circuit = circuit();
    let params = [0.4, 1.1];
    let strategy = Strategy::StrictPartial;

    let cold = PartialCompiler::new(CompilerOptions::fast())
        .compile(&circuit, &params, strategy)
        .unwrap();
    assert!(
        cold.blocks.iter().filter(|block| block.used_grape).count() >= 2,
        "the job must exercise GRAPE blocks"
    );

    let runtime = CompilationRuntime::new(CompilerOptions::fast(), RuntimeOptions::with_workers(2));
    let fresh = runtime.compile(&circuit, &params, strategy).unwrap();

    let before = runtime.metrics();
    let hit = runtime.compile(&circuit, &params, strategy).unwrap();
    let after = runtime.metrics();
    assert!(after.cache.hits > before.cache.hits);
    assert_eq!(after.cache.misses, before.cache.misses, "all hits");
    assert_eq!(after.unique_compilations, before.unique_compilations);
    assert!(hit
        .blocks
        .iter()
        .filter(|block| block.used_grape)
        .all(|block| block.cached));

    let path = std::env::temp_dir().join(format!(
        "vqc_cache_equivalence_{}.snapshot",
        std::process::id()
    ));
    runtime.save_snapshot(&path).unwrap();
    let warm = CompilationRuntime::with_warm_start(
        CompilerOptions::fast(),
        RuntimeOptions::with_workers(2),
        &path,
    );
    std::fs::remove_file(&path).ok();
    let warm = warm.unwrap();
    let restored = warm.compile(&circuit, &params, strategy).unwrap();
    assert_eq!(
        warm.metrics().unique_compilations,
        0,
        "warm start recompiled"
    );

    for (way, report) in [
        ("fresh runtime", &fresh),
        ("cache hit", &hit),
        ("warm start", &restored),
    ] {
        assert_eq!(
            outcome(report),
            outcome(&cold),
            "{way} differs from the cold compile"
        );
    }
}

//! The correctness gate every compiled output must pass.
//!
//! The reference values are not taken from the compiler under test: the
//! gate-based durations below are a hand-written table (the critical path of
//! each prepared circuit over the Table 1 gate times at the fast settings),
//! and the paper's invariant — a pulse is never longer than the gate-based
//! schedule it replaces — holds for every block and every circuit.

use vqc_core::{CompilationReport, Strategy};

/// Slack for comparing durations that are sums of the same gate times.
const DURATION_TOLERANCE_NS: f64 = 1e-6;

/// Tolerance of the hand-written gate-based table, which is written to 0.1 ns.
const TABLE_TOLERANCE_NS: f64 = 0.05;

/// Expected gate-based duration (ns) of each benchmark circuit.
pub const EXPECTED_GATE_BASED_NS: [(&str, f64); 5] = [
    ("H2", 73.9),
    ("LiH", 319.2),
    ("BeH2", 1975.7),
    ("NaH", 1730.4),
    ("QAOA-3reg-N6-p1", 51.9),
];

/// The hand-written gate-based duration of a named circuit.
pub fn expected_gate_based_ns(circuit: &str) -> Option<f64> {
    EXPECTED_GATE_BASED_NS
        .iter()
        .find(|(name, _)| *name == circuit)
        .map(|&(_, ns)| ns)
}

/// Checks one report of `circuit` compiled under `strategy`; returns every
/// violation found (empty when the report is correct).
pub fn check_report(circuit: &str, strategy: Strategy, report: &CompilationReport) -> Vec<String> {
    let mut violations = Vec::new();
    if report.strategy != strategy {
        violations.push(format!(
            "{circuit}: report is for {} but {strategy} was requested",
            report.strategy
        ));
    }
    match expected_gate_based_ns(circuit) {
        Some(expected)
            if (report.gate_based_duration_ns - expected).abs() <= TABLE_TOLERANCE_NS => {}
        Some(expected) => violations.push(format!(
            "{circuit}: gate-based duration {:.3} ns, expected {expected:.1} ns",
            report.gate_based_duration_ns
        )),
        None => violations.push(format!("{circuit}: no expected gate-based duration")),
    }
    if !(report.pulse_duration_ns.is_finite() && report.pulse_duration_ns > 0.0) {
        violations.push(format!(
            "{circuit}: pulse duration {} ns is not a positive number",
            report.pulse_duration_ns
        ));
    }
    if report.pulse_duration_ns > report.gate_based_duration_ns + DURATION_TOLERANCE_NS {
        violations.push(format!(
            "{circuit}: pulse {:.3} ns longer than gate-based {:.3} ns",
            report.pulse_duration_ns, report.gate_based_duration_ns
        ));
    }
    if report.blocks.len() != report.num_blocks {
        violations.push(format!(
            "{circuit}: {} block reports for {} blocks",
            report.blocks.len(),
            report.num_blocks
        ));
    }
    for (index, block) in report.blocks.iter().enumerate() {
        if !(block.duration_ns.is_finite() && block.duration_ns >= 0.0) {
            violations.push(format!(
                "{circuit}: block {index} has duration {}",
                block.duration_ns
            ));
        }
        if block.duration_ns > block.gate_based_ns + DURATION_TOLERANCE_NS {
            violations.push(format!(
                "{circuit}: block {index} pulse {:.3} ns longer than its gate-based {:.3} ns",
                block.duration_ns, block.gate_based_ns
            ));
        }
    }
    violations
}

/// Compares a report received over the wire with an in-process report of the
/// same (circuit, θ, strategy). Timing fields and cache flags may differ; the
/// compiled result may not.
pub fn same_result(remote: &CompilationReport, local: &CompilationReport) -> bool {
    remote.strategy == local.strategy
        && remote.pulse_duration_ns == local.pulse_duration_ns
        && remote.gate_based_duration_ns == local.gate_based_duration_ns
        && remote.num_blocks == local.num_blocks
        && remote.blocks.len() == local.blocks.len()
        && remote.blocks.iter().zip(&local.blocks).all(|(a, b)| {
            a.qubits == b.qubits
                && a.num_ops == b.num_ops
                && a.duration_ns == b.duration_ns
                && a.gate_based_ns == b.gate_based_ns
                && a.used_grape == b.used_grape
                && a.converged == b.converged
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqc_core::{BlockCompilation, CompileProfile, LatencyEstimate};

    fn block(duration_ns: f64, gate_based_ns: f64) -> BlockCompilation {
        BlockCompilation {
            qubits: vec![0, 1],
            num_ops: 3,
            duration_ns,
            gate_based_ns,
            grape_iterations: 10,
            used_grape: true,
            converged: true,
            cached: false,
            measured_seconds: 0.01,
            profile: CompileProfile::default(),
        }
    }

    fn report(pulse_ns: f64, gate_ns: f64, blocks: Vec<BlockCompilation>) -> CompilationReport {
        CompilationReport {
            strategy: Strategy::FullGrape,
            pulse_duration_ns: pulse_ns,
            gate_based_duration_ns: gate_ns,
            num_blocks: blocks.len(),
            blocks,
            precompute: LatencyEstimate::default(),
            runtime: LatencyEstimate::default(),
        }
    }

    #[test]
    fn a_correct_report_passes() {
        let good = report(40.0, 73.9, vec![block(20.0, 35.0), block(20.0, 38.9)]);
        assert!(check_report("H2", Strategy::FullGrape, &good).is_empty());
    }

    #[test]
    fn a_block_longer_than_its_gate_schedule_is_rejected() {
        let doctored = report(40.0, 73.9, vec![block(20.0, 35.0), block(39.0, 38.9)]);
        let violations = check_report("H2", Strategy::FullGrape, &doctored);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("block 1"));
    }

    #[test]
    fn a_circuit_longer_than_its_gate_schedule_is_rejected() {
        let doctored = report(80.0, 73.9, vec![block(20.0, 35.0)]);
        assert!(!check_report("H2", Strategy::FullGrape, &doctored).is_empty());
    }

    #[test]
    fn a_wrong_gate_based_duration_is_rejected() {
        let doctored = report(40.0, 74.5, vec![block(20.0, 35.0)]);
        let violations = check_report("H2", Strategy::FullGrape, &doctored);
        assert!(violations.iter().any(|v| v.contains("expected 73.9")));
        assert!(!check_report("unknown", Strategy::FullGrape, &doctored).is_empty());
    }

    #[test]
    fn a_wrong_strategy_or_missing_block_is_rejected() {
        let mut doctored = report(40.0, 73.9, vec![block(20.0, 35.0)]);
        assert!(!check_report("H2", Strategy::FlexiblePartial, &doctored).is_empty());
        doctored.num_blocks = 2;
        assert!(!check_report("H2", Strategy::FullGrape, &doctored).is_empty());
    }

    #[test]
    fn remote_and_local_reports_must_agree_on_results_only() {
        let local = report(40.0, 73.9, vec![block(20.0, 35.0)]);
        let mut remote = local.clone();
        remote.blocks[0].cached = true;
        remote.blocks[0].measured_seconds = 0.0;
        assert!(same_result(&remote, &local));
        remote.blocks[0].duration_ns = 21.0;
        assert!(!same_result(&remote, &local));
    }
}

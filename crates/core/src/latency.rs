//! Compilation-latency accounting.
//!
//! The paper's Figure 7 reports the *reduction factor* in compilation latency of
//! flexible partial compilation relative to full GRAPE. Latency here is tracked two
//! ways: as wall-clock seconds actually spent by this process, and as an estimate
//! derived from the amount of GRAPE work performed (iterations × problem size), scaled
//! to the paper's hardware so that a 4-qubit block costs minutes — the regime the paper
//! describes. The reduction *factor* is insensitive to the calibration constant because
//! both strategies are scaled identically.

use crate::cache::{BlockKey, CachedBlock, CachedTuning};
use serde::{Deserialize, Serialize};
use vqc_pulse::DeviceModel;

/// Canonical GRAPE sample period (ns) assumed when estimating the recompute cost of a
/// *cached* entry, which no longer carries the `GrapeOptions` it was produced with.
/// Cost-aware cache eviction only needs a consistent ordering of entries, so a fixed
/// sample period (the `GrapeOptions::fast` setting) is accurate enough.
pub const RECOMPUTE_DT_NS: f64 = 0.5;

/// Calibration constant: estimated seconds of compilation per unit of GRAPE work,
/// where one unit is `iterations × slices × dim³ × controls`. The default is chosen so
/// that a 4-qubit block at the paper's settings (0.05 ns samples, a few thousand
/// iterations) costs on the order of ten minutes, matching the paper's observation
/// that "running GRAPE control on a circuit with just four qubits takes several
/// minutes" to an hour.
pub const DEFAULT_SECONDS_PER_WORK_UNIT: f64 = 3.0e-8;

/// Minimum number of (estimate, observation) pairs before a fitted scale is
/// trusted. Below this, one anomalous block (a pathological binary search, a cache
/// shard resize mid-measurement) could swing the factor by orders of magnitude.
pub const MIN_CALIBRATION_SAMPLES: u64 = 3;

/// Online least-squares fit of the factor mapping model-scale cost estimates onto
/// this host's observed wall-clock seconds.
///
/// The [`LatencyModel`] is calibrated to the *paper's* hardware (a 4-qubit block
/// costs minutes), while observed compile times are *host* seconds — on a fast
/// machine with reduced GRAPE effort the two differ by orders of magnitude. Every
/// real block compilation contributes one `(model estimate, observed seconds)`
/// pair; the through-origin least-squares scale `Σ(e·o) / Σ(e²)` then converts the
/// model's a-priori estimate for a *never-seen* block into calibrated host seconds,
/// so LPT scheduling and cost-aware eviction rank unseen blocks on the same axis as
/// observed ones instead of mixing two incomparable unit systems.
///
/// Estimates recorded here must always be the **raw** model values, never already
/// scaled ones, or the fit would feed back on itself.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostCalibration {
    sum_estimate_observed: f64,
    sum_estimate_squared: f64,
    samples: u64,
}

impl CostCalibration {
    /// An empty calibration (no samples, no scale).
    pub fn new() -> Self {
        CostCalibration::default()
    }

    /// Records one (raw model estimate, observed seconds) pair. Non-finite or
    /// non-positive pairs are ignored: a zero estimate carries no slope
    /// information, and a zero observation is a cache hit mis-reported as work.
    pub fn record(&mut self, estimated_seconds: f64, observed_seconds: f64) {
        if !(estimated_seconds.is_finite() && observed_seconds.is_finite()) {
            return;
        }
        if estimated_seconds <= 0.0 || observed_seconds <= 0.0 {
            return;
        }
        self.sum_estimate_observed += estimated_seconds * observed_seconds;
        self.sum_estimate_squared += estimated_seconds * estimated_seconds;
        self.samples += 1;
    }

    /// Number of pairs recorded so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The fitted model→host scale factor, once at least
    /// [`MIN_CALIBRATION_SAMPLES`] pairs support it; `None` while uncalibrated
    /// (callers fall back to the raw model estimate).
    pub fn scale(&self) -> Option<f64> {
        if self.samples < MIN_CALIBRATION_SAMPLES || self.sum_estimate_squared <= 0.0 {
            return None;
        }
        let scale = self.sum_estimate_observed / self.sum_estimate_squared;
        scale.is_finite().then_some(scale)
    }
}

/// Model converting GRAPE work into estimated wall-clock compilation latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Seconds per unit of GRAPE work (`iterations × slices × dim³ × controls`).
    pub seconds_per_work_unit: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            seconds_per_work_unit: DEFAULT_SECONDS_PER_WORK_UNIT,
        }
    }
}

impl LatencyModel {
    /// Estimated seconds for `iterations` GRAPE iterations on a problem with the given
    /// number of time slices, Hilbert-space dimension, and control knobs.
    pub fn estimate_seconds(
        &self,
        iterations: usize,
        slices: usize,
        dim: usize,
        controls: usize,
    ) -> f64 {
        self.seconds_per_work_unit
            * iterations as f64
            * slices as f64
            * (dim as f64).powi(3)
            * controls as f64
    }

    /// Estimated seconds of `iterations` GRAPE iterations on a `num_qubits`-wide
    /// line-device block whose pulse spans `duration_ns` at the `dt_ns` sample
    /// period. This is the one place the block-level work formula (slices from the
    /// duration, `dim³` and control count from the width) lives; both cache
    /// eviction and LPT scheduling rank blocks through it, so the two always agree
    /// on what makes a block expensive.
    pub fn block_work_seconds(
        &self,
        iterations: usize,
        duration_ns: f64,
        dt_ns: f64,
        num_qubits: usize,
    ) -> f64 {
        let device = DeviceModel::qubits_line(num_qubits.max(1));
        let slices = (duration_ns / dt_ns).ceil().max(1.0) as usize;
        self.estimate_seconds(iterations, slices, device.dim(), device.num_controls())
    }

    /// Estimated seconds of GRAPE work needed to recompute a cached block entry from
    /// scratch: the iterations it took to produce, on the device its key's qubit
    /// count implies, at the [`RECOMPUTE_DT_NS`] sample period. This is the value a
    /// bounded cache protects by keeping the entry — cost-aware eviction drops the
    /// entries with the smallest recompute cost first.
    pub fn block_recompute_seconds(&self, key: &BlockKey, entry: &CachedBlock) -> f64 {
        self.block_work_seconds(
            entry.grape_iterations,
            entry.duration_ns,
            RECOMPUTE_DT_NS,
            key.num_qubits(),
        )
    }

    /// Estimated seconds to recompute a cached flexible-compilation tuning from
    /// scratch (the hyperparameter probes plus the duration search it took).
    pub fn tuning_recompute_seconds(&self, key: &BlockKey, entry: &CachedTuning) -> f64 {
        self.block_work_seconds(
            entry.precompute_iterations,
            entry.duration_ns,
            RECOMPUTE_DT_NS,
            key.num_qubits(),
        )
    }
}

/// Accumulated compilation latency for one phase (pre-compute or runtime) of one
/// strategy.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LatencyEstimate {
    /// Total GRAPE iterations attributed to this phase.
    pub grape_iterations: usize,
    /// Estimated seconds on paper-scale hardware (via [`LatencyModel`]).
    pub estimated_seconds: f64,
    /// Wall-clock seconds this process actually spent.
    pub measured_seconds: f64,
}

impl LatencyEstimate {
    /// Adds another estimate into this one.
    pub fn accumulate(&mut self, other: &LatencyEstimate) {
        self.grape_iterations += other.grape_iterations;
        self.estimated_seconds += other.estimated_seconds;
        self.measured_seconds += other.measured_seconds;
    }

    /// Returns the ratio of this latency to another (e.g. full-GRAPE runtime over
    /// flexible runtime), using the estimated seconds; falls back to iteration counts
    /// when the estimate is degenerate.
    pub fn reduction_factor_vs(&self, other: &LatencyEstimate) -> f64 {
        if other.estimated_seconds > 0.0 {
            self.estimated_seconds / other.estimated_seconds
        } else if other.grape_iterations > 0 {
            self.grape_iterations as f64 / other.grape_iterations as f64
        } else if self.estimated_seconds > 0.0 || self.grape_iterations > 0 {
            f64::INFINITY
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_qubit_block_costs_minutes_under_the_default_model() {
        let model = LatencyModel::default();
        // Paper-scale: 4 qubits (dim 16), ~40 ns block at 0.05 ns samples = 800 slices,
        // 11 controls, ~2000 iterations across the binary search.
        let seconds = model.estimate_seconds(2000, 800, 16, 11);
        assert!(
            (60.0..7200.0).contains(&seconds),
            "estimated {seconds} s should be minutes-to-an-hour"
        );
    }

    #[test]
    fn estimates_scale_linearly_in_iterations() {
        let model = LatencyModel::default();
        let one = model.estimate_seconds(100, 50, 4, 5);
        let two = model.estimate_seconds(200, 50, 4, 5);
        assert!((two / one - 2.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_fits_the_least_squares_scale_after_enough_samples() {
        let mut calibration = CostCalibration::new();
        assert_eq!(calibration.scale(), None);
        // Observations exactly 0.05× the estimates: the fit must recover 0.05.
        calibration.record(100.0, 5.0);
        calibration.record(40.0, 2.0);
        assert_eq!(calibration.scale(), None, "two samples are not enough");
        calibration.record(200.0, 10.0);
        let scale = calibration.scale().expect("three samples calibrate");
        assert!((scale - 0.05).abs() < 1e-12, "fitted {scale}");
        assert_eq!(calibration.samples(), 3);

        // Degenerate pairs are ignored rather than poisoning the fit.
        calibration.record(0.0, 1.0);
        calibration.record(1.0, 0.0);
        calibration.record(f64::NAN, 1.0);
        calibration.record(1.0, f64::INFINITY);
        assert_eq!(calibration.samples(), 3);
        assert!((calibration.scale().unwrap() - 0.05).abs() < 1e-12);

        // The fit minimizes squared error through the origin, so a mixed
        // population lands between its extremes.
        let mut mixed = CostCalibration::new();
        mixed.record(10.0, 1.0);
        mixed.record(10.0, 2.0);
        mixed.record(10.0, 3.0);
        let scale = mixed.scale().unwrap();
        assert!(
            (scale - 0.2).abs() < 1e-12,
            "mean of 0.1/0.2/0.3 is {scale}"
        );
    }

    #[test]
    fn accumulation_and_reduction_factor() {
        let mut a = LatencyEstimate {
            grape_iterations: 1000,
            estimated_seconds: 100.0,
            measured_seconds: 1.0,
        };
        let b = LatencyEstimate {
            grape_iterations: 500,
            estimated_seconds: 50.0,
            measured_seconds: 0.5,
        };
        a.accumulate(&b);
        assert_eq!(a.grape_iterations, 1500);
        assert!((a.estimated_seconds - 150.0).abs() < 1e-12);

        let small = LatencyEstimate {
            grape_iterations: 15,
            estimated_seconds: 1.5,
            measured_seconds: 0.01,
        };
        assert!((a.reduction_factor_vs(&small) - 100.0).abs() < 1e-9);
        // Degenerate comparisons do not panic.
        assert_eq!(
            small.reduction_factor_vs(&LatencyEstimate::default()),
            f64::INFINITY
        );
        assert_eq!(
            LatencyEstimate::default().reduction_factor_vs(&LatencyEstimate::default()),
            1.0
        );
    }
}

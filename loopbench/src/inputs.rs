//! Seeded inputs: the benchmark circuits and the θ trajectories an optimizer
//! would submit for them.
//!
//! Each trajectory is every point Nelder–Mead evaluates while minimizing the
//! circuit's own cost Hamiltonian (simulated exactly), starting from a point
//! drawn from the seed near the usual initial guess: the Hartree–Fock point
//! θ = 0 for UCCSD, θ = 0.1 for QAOA (as `vqc_apps::variational` starts).
//! Steps are small and shrink as the simplex contracts — the locality a
//! variational loop really has.
//!
//! The client runs a multi-start search: each start gets a budget of
//! `2 (n + 1)` evaluations for `n` parameters (the initial simplex and as many
//! moves), then the optimizer restarts from a fresh seeded point. The cost of
//! a full-GRAPE iteration grows as θ leaves the initial guess, and steeply
//! after ~100 steps for BeH2 and ~30 for LiH; restarting keeps the stream of
//! bindings stationary, so a run of any length, on a faster or slower
//! program, samples the same mix of steps.

use vqc_apps::molecules::Molecule;
use vqc_apps::optimizer::NelderMead;
use vqc_apps::qaoa::{maxcut_hamiltonian, QaoaBenchmark};
use vqc_apps::uccsd::uccsd_circuit;
use vqc_apps::variational::evaluate_energy;
use vqc_circuit::Circuit;
use vqc_sim::PauliOperator;

/// A benchmark circuit with the Hamiltonian its optimizer minimizes.
#[derive(Debug, Clone)]
pub struct Program {
    /// Name used in reports and in the correctness table.
    pub name: &'static str,
    /// The parameterized circuit.
    pub circuit: Circuit,
    /// Cost operator whose expectation the optimizer minimizes.
    pub cost: PauliOperator,
    /// `+1` to minimize the expectation, `-1` to maximize it (MAXCUT).
    pub sign: f64,
    /// The optimizer's usual initial guess for every parameter.
    pub start: f64,
}

impl Program {
    fn molecule(name: &'static str, molecule: Molecule) -> Program {
        Program {
            name,
            circuit: uccsd_circuit(molecule),
            cost: molecule.hamiltonian(),
            sign: 1.0,
            start: 0.0,
        }
    }

    /// H2 UCCSD (2 qubits, 3 parameters).
    pub fn h2() -> Program {
        Program::molecule("H2", Molecule::H2)
    }

    /// LiH UCCSD (4 qubits, 8 parameters).
    pub fn lih() -> Program {
        Program::molecule("LiH", Molecule::LiH)
    }

    /// BeH2 UCCSD (6 qubits, 26 parameters).
    pub fn beh2() -> Program {
        Program::molecule("BeH2", Molecule::BeH2)
    }

    /// NaH UCCSD (8 qubits, 24 parameters).
    pub fn nah() -> Program {
        Program::molecule("NaH", Molecule::NaH)
    }

    /// MAXCUT QAOA on the 3-regular N=6 graph, p=1: the Table 4 instance
    /// (graph seed 17 + N).
    pub fn qaoa_regular() -> Program {
        let instance = QaoaBenchmark {
            num_nodes: 6,
            p: 1,
            three_regular: true,
            seed: 23,
        };
        Program {
            name: "QAOA-3reg-N6-p1",
            circuit: instance.circuit(),
            cost: maxcut_hamiltonian(&instance.graph()),
            sign: -1.0,
            start: 0.1,
        }
    }

    /// Number of variational parameters.
    pub fn num_parameters(&self) -> usize {
        self.circuit.num_parameters()
    }

    /// The cost the optimizer sees at `theta`.
    pub fn objective(&self, theta: &[f64]) -> f64 {
        self.sign * evaluate_energy(&self.circuit, &self.cost, theta)
    }
}

/// SplitMix64: a small, well-mixed generator, enough to draw start points.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed` and one input `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[low, high)`.
    pub fn uniform(&mut self, low: f64, high: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        low + (high - low) * unit
    }
}

/// Half-width of the box around the initial guess that start points are
/// drawn from (radians): enough to make every seed's trajectory its own.
const START_RADIUS: f64 = 0.05;

/// Evaluations each optimizer start may spend on a problem with `dimension`
/// parameters.
pub fn restart_budget(dimension: usize) -> usize {
    2 * (dimension + 1)
}

/// The first `length` bindings Nelder–Mead evaluates on `program`, starting
/// (and restarting) from points drawn from `seed`. The first start is cut
/// short by `phase` (a fraction of the restart budget), so that streams of
/// one client with different phases are at different stages of their
/// searches at every step.
pub fn trajectory(
    program: &Program,
    seed: u64,
    stream: u64,
    length: usize,
    phase: f64,
) -> Vec<Vec<f64>> {
    let mut rng = SplitMix64::new(seed, stream);
    let dimension = program.num_parameters();
    let budget = restart_budget(dimension);
    let mut first = budget - ((phase.clamp(0.0, 1.0) * budget as f64) as usize).min(budget - 1);
    let mut points: Vec<Vec<f64>> = Vec::with_capacity(length);
    while points.len() < length {
        let start: Vec<f64> = (0..dimension)
            .map(|_| program.start + rng.uniform(-START_RADIUS, START_RADIUS))
            .collect();
        let optimizer = NelderMead {
            max_evaluations: std::mem::replace(&mut first, budget).min(length - points.len()),
            tolerance: 1e-9,
            initial_step: 0.1,
        };
        let before = points.len();
        optimizer.minimize(
            |theta| {
                points.push(theta.to_vec());
                program.objective(theta)
            },
            &start,
        );
        if points.len() == before {
            break;
        }
    }
    points.truncate(length);
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectories_repeat_for_a_seed_and_differ_across_seeds() {
        let program = Program::h2();
        let a = trajectory(&program, 7, 0, 64, 0.0);
        let b = trajectory(&program, 7, 0, 64, 0.0);
        let c = trajectory(&program, 8, 0, 64, 0.0);
        assert_eq!(a.len(), 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|theta| theta.len() == 3));
    }

    #[test]
    fn restarts_begin_near_the_initial_guess() {
        let program = Program::lih();
        let budget = restart_budget(program.num_parameters());
        let points = trajectory(&program, 3, 1, 3 * budget, 0.5);
        let near_guess = |theta: &Vec<f64>| theta.iter().all(|t| t.abs() <= START_RADIUS);
        // The first start is cut to half a budget, which is exactly its
        // initial simplex; the next start begins a fresh search.
        let first = budget - budget / 2;
        assert_eq!(first, program.num_parameters() + 1, "the initial simplex");
        for start in [0, first] {
            assert!(near_guess(&points[start]), "restart at {start}");
        }
        let qaoa = trajectory(&Program::qaoa_regular(), 3, 1, 1, 0.0);
        assert!(qaoa[0].iter().all(|t| (t - 0.1).abs() <= START_RADIUS));
    }

    #[test]
    fn optimizer_steps_shrink_over_the_trajectory() {
        let program = Program::lih();
        let points = trajectory(&program, 3, 1, 18, 0.0);
        let step = |pair: &[Vec<f64>]| -> f64 {
            pair[0]
                .iter()
                .zip(&pair[1])
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        let early: f64 = points[..6].windows(2).map(step).sum();
        let late: f64 = points[12..].windows(2).map(step).sum();
        assert!(late < early, "late steps {late} vs early {early}");
    }

    #[test]
    fn start_points_are_uniform_in_the_box() {
        let mut rng = SplitMix64::new(1, 2);
        let draws: Vec<f64> = (0..1000).map(|_| rng.uniform(-1.0, 1.0)).collect();
        assert!(draws.iter().all(|d| (-1.0..1.0).contains(d)));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!(mean.abs() < 0.1);
    }
}

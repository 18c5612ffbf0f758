//! Property-based tests for the state-vector simulator.

#![allow(
    clippy::as_conversions,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test and bench code: a panic is how it reports a failure, and fixtures cast literals"
)]

use proptest::prelude::*;
use qsim::{gates, Circuit, Complex64, DiagonalObservable, StateVector};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rotation gates compose additively: RX(a)·RX(b) = RX(a+b), applied at
    /// the state level.
    #[test]
    fn rotation_addition_on_states(a in -6.0f64..6.0, b in -6.0f64..6.0) {
        let mut s1 = StateVector::plus_state(2);
        s1.apply_single(0, &gates::rx(a)).expect("valid qubit");
        s1.apply_single(0, &gates::rx(b)).expect("valid qubit");
        let mut s2 = StateVector::plus_state(2);
        s2.apply_single(0, &gates::rx(a + b)).expect("valid qubit");
        prop_assert!((s1.fidelity(&s2).expect("same width") - 1.0).abs() < 1e-10);
    }

    /// A diagonal observable's expectation is a convex combination of its
    /// diagonal entries for any normalized state.
    #[test]
    fn diagonal_expectation_bounded(
        angles in proptest::collection::vec(-3.0f64..3.0, 4),
        diag in proptest::collection::vec(-5.0f64..5.0, 8),
    ) {
        let mut s = StateVector::plus_state(3);
        for (q, &theta) in angles.iter().take(3).enumerate() {
            s.apply_single(q, &gates::u3(theta, 0.0, 0.0)).expect("valid qubit");
        }
        let obs = DiagonalObservable::new(diag.clone()).expect("power-of-two length");
        let e = obs.expectation(&s).expect("matching dims");
        prop_assert!(e >= obs.min() - 1e-12);
        prop_assert!(e <= obs.max() + 1e-12);
    }

    /// CNOT is self-inverse on arbitrary product states.
    #[test]
    fn cnot_involution(a in -3.0f64..3.0, b in -3.0f64..3.0) {
        let mut prep = Circuit::new(2);
        prep.h(0).rz(0, a).rx(1, b).h(1).rz(1, a - b);
        let base = prep.run(StateVector::zero_state(2)).expect("valid circuit");
        let mut c = Circuit::new(2);
        c.cnot(0, 1).cnot(0, 1);
        let out = c.run(base.clone()).expect("valid circuit");
        prop_assert!((out.fidelity(&base).expect("same width") - 1.0).abs() < 1e-12);
    }

    /// Global phases never change probabilities.
    #[test]
    fn global_phase_invisible(phi in -6.0f64..6.0) {
        let mut s = StateVector::plus_state(2);
        let before = s.probabilities();
        let phase = Complex64::cis(phi);
        let phases = vec![phase; 4];
        s.apply_diagonal(&phases).expect("matching dims");
        let after = s.probabilities();
        for (b, a) in before.iter().zip(&after) {
            prop_assert!((b - a).abs() < 1e-14);
        }
    }

    /// Controlled gates act trivially on the |0…0⟩ control sector.
    #[test]
    fn control_zero_sector_untouched(theta in -3.0f64..3.0, target in 1usize..3) {
        let mut s = StateVector::zero_state(3);
        s.apply_single(target, &gates::u3(theta, 0.0, 0.0)).expect("valid qubit");
        let before = s.clone();
        // Control qubit 0 is |0⟩: the controlled gate must do nothing.
        s.apply_controlled(0, target, &gates::rx(1.3)).expect("valid qubits");
        prop_assert!((s.fidelity(&before).expect("same width") - 1.0).abs() < 1e-12);
    }

    /// Sampling frequencies converge to Born probabilities (loose 6-sigma).
    #[test]
    fn born_rule_sampling(theta in 0.3f64..2.8) {
        use rand::SeedableRng;
        let mut s = StateVector::zero_state(1);
        s.apply_single(0, &gates::u3(theta, 0.0, 0.0)).expect("valid qubit");
        let p1 = s.probability(1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let shots = 4000;
        let mut sampler = qsim::CdfSampler::new();
        sampler.load_amplitudes(s.amplitudes().iter().copied()).unwrap();
        let ones = (0..shots).filter(|_| sampler.draw(&mut rng) == 1).count();
        let observed = ones as f64 / shots as f64;
        let sigma = (p1 * (1.0 - p1) / shots as f64).sqrt().max(1e-3);
        prop_assert!((observed - p1).abs() < 6.0 * sigma,
            "observed {observed} vs born {p1}");
    }
}

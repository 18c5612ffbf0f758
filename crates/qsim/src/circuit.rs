use crate::{gates, QsimError, StateVector};

/// One gate application in a [`Circuit`]: the gate set of the QAOA
/// circuit (Fig. 1(a) of the paper), H, then CNOT·RZ·CNOT per edge, then
/// RX.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Gate {
    /// Hadamard on a qubit.
    H(usize),
    /// `RX(θ)` rotation.
    Rx {
        /// Target qubit.
        qubit: usize,
        /// Rotation angle θ.
        theta: f64,
    },
    /// `RZ(θ)` rotation.
    Rz {
        /// Target qubit.
        qubit: usize,
        /// Rotation angle θ.
        theta: f64,
    },
    /// Controlled-NOT.
    Cnot {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
}

impl Gate {
    /// Qubits this gate touches (one or two entries).
    #[must_use]
    pub fn qubits(&self) -> Vec<usize> {
        match *self {
            Gate::H(qubit) | Gate::Rx { qubit, .. } | Gate::Rz { qubit, .. } => vec![qubit],
            Gate::Cnot { control, target } => vec![control, target],
        }
    }

    /// `true` for two-qubit gates.
    #[must_use]
    pub fn is_two_qubit(&self) -> bool {
        matches!(self, Gate::Cnot { .. })
    }

    /// Checks that the gate addresses valid, distinct qubits of an
    /// `n_qubits`-wide register.
    pub(crate) fn check(&self, n_qubits: usize) -> Result<(), QsimError> {
        let qs = self.qubits();
        if let Some(&qubit) = qs.iter().find(|&&q| q >= n_qubits) {
            return Err(QsimError::QubitOutOfRange { qubit, n_qubits });
        }
        if qs.len() == 2 && qs[0] == qs[1] {
            return Err(QsimError::DuplicateQubit { qubit: qs[0] });
        }
        Ok(())
    }
}

/// A replayable sequence of gates on a fixed-width register.
///
/// Built with chainable methods and executed with [`Circuit::run`] (or
/// [`Circuit::apply`] to reuse an existing state). This is the gate-level
/// execution path; the QAOA core also has a fast diagonal path, and the two
/// are cross-validated in the `qaoa` crate's tests.
///
/// # Example
///
/// ```
/// use qsim::{Circuit, StateVector};
/// # fn main() -> Result<(), qsim::QsimError> {
/// // GHZ state on three qubits.
/// let mut c = Circuit::new(3);
/// c.h(0).cnot(0, 1).cnot(1, 2);
/// let psi = c.run(StateVector::zero_state(3))?;
/// assert!((psi.probability(0b000) - 0.5).abs() < 1e-12);
/// assert!((psi.probability(0b111) - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Circuit {
    n_qubits: usize,
    ops: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit on `n_qubits`.
    #[must_use]
    pub fn new(n_qubits: usize) -> Self {
        Self {
            n_qubits,
            ops: Vec::new(),
        }
    }

    /// Register width the circuit was built for.
    #[must_use]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of gate operations recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if no gates have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Borrows the recorded operations.
    #[must_use]
    pub fn ops(&self) -> &[Gate] {
        &self.ops
    }

    /// Number of two-qubit gates (a common NISQ cost metric).
    #[must_use]
    pub fn two_qubit_count(&self) -> usize {
        self.ops.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Appends an arbitrary [`Gate`].
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        self.ops.push(gate);
        self
    }

    /// Appends a Hadamard.
    pub fn h(&mut self, qubit: usize) -> &mut Self {
        self.push(Gate::H(qubit))
    }

    /// Appends `RX(θ)`.
    pub fn rx(&mut self, qubit: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rx { qubit, theta })
    }

    /// Appends `RZ(θ)`.
    pub fn rz(&mut self, qubit: usize, theta: f64) -> &mut Self {
        self.push(Gate::Rz { qubit, theta })
    }

    /// Appends a CNOT.
    pub fn cnot(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Gate::Cnot { control, target })
    }

    /// Applies every recorded gate to `state` in order.
    ///
    /// # Errors
    ///
    /// * [`QsimError::WidthMismatch`] if the state width differs from the
    ///   circuit width.
    /// * Any gate-level error ([`QsimError::QubitOutOfRange`],
    ///   [`QsimError::DuplicateQubit`]); the state is left partially evolved
    ///   in that case, so prefer validating circuits once with
    ///   [`Circuit::validate`] when reusing them.
    pub fn apply(&self, state: &mut StateVector) -> Result<(), QsimError> {
        if state.n_qubits() != self.n_qubits {
            return Err(QsimError::WidthMismatch {
                circuit: self.n_qubits,
                state: state.n_qubits(),
            });
        }
        for op in &self.ops {
            match *op {
                Gate::H(q) => state.apply_single(q, &gates::h())?,
                Gate::Rx { qubit, theta } => state.apply_single(qubit, &gates::rx(theta))?,
                Gate::Rz { qubit, theta } => state.apply_single(qubit, &gates::rz(theta))?,
                Gate::Cnot { control, target } => {
                    state.apply_controlled(control, target, &gates::x())?;
                }
            }
        }
        Ok(())
    }

    /// Consumes `state`, applies the circuit and returns the evolved state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Circuit::apply`].
    pub fn run(&self, mut state: StateVector) -> Result<StateVector, QsimError> {
        self.apply(&mut state)?;
        Ok(state)
    }

    /// Checks that every recorded gate addresses valid, distinct qubits.
    ///
    /// # Errors
    ///
    /// The first [`QsimError::QubitOutOfRange`] or
    /// [`QsimError::DuplicateQubit`] found, if any.
    pub fn validate(&self) -> Result<(), QsimError> {
        self.ops.iter().try_for_each(|op| op.check(self.n_qubits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn builder_records_ops() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).rz(1, 0.5);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.two_qubit_count(), 1);
        assert_eq!(c.ops()[0], Gate::H(0));
        assert_eq!(c.n_qubits(), 2);
    }

    #[test]
    fn width_mismatch_rejected() {
        let c = Circuit::new(2);
        assert!(matches!(
            c.run(StateVector::zero_state(3)),
            Err(QsimError::WidthMismatch {
                circuit: 2,
                state: 3
            })
        ));
    }

    #[test]
    fn validate_catches_bad_gates() {
        let mut c = Circuit::new(2);
        c.h(5);
        assert!(matches!(
            c.validate(),
            Err(QsimError::QubitOutOfRange { qubit: 5, .. })
        ));
        let mut c2 = Circuit::new(2);
        c2.cnot(1, 1);
        assert!(matches!(
            c2.validate(),
            Err(QsimError::DuplicateQubit { qubit: 1 })
        ));
        let mut ok = Circuit::new(2);
        ok.h(0).cnot(1, 0);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn swap_swaps_basis_states() {
        // SWAP as three CNOTs, the control alternating: |01⟩ → |10⟩.
        let mut c = Circuit::new(2);
        c.cnot(0, 1).cnot(1, 0).cnot(0, 1);
        let s = c.run(StateVector::basis_state(2, 0b01)).unwrap();
        assert!((s.probability(0b10) - 1.0).abs() < EPS);
    }

    #[test]
    fn cz_symmetry() {
        // CZ as H·CNOT·H on the target is the same gate with either qubit
        // as the target, on an arbitrary product state.
        let mut prep = Circuit::new(2);
        prep.h(0).rx(1, 0.7).rz(1, 0.3);
        let base = prep.run(StateVector::zero_state(2)).unwrap();
        let mut c1 = Circuit::new(2);
        c1.h(1).cnot(0, 1).h(1);
        let mut c2 = Circuit::new(2);
        c2.h(0).cnot(1, 0).h(0);
        let s1 = c1.run(base.clone()).unwrap();
        let s2 = c2.run(base).unwrap();
        assert!((s1.fidelity(&s2).unwrap() - 1.0).abs() < EPS);
    }

    #[test]
    fn circuit_preserves_norm() {
        let mut c = Circuit::new(3);
        c.h(0)
            .h(1)
            .h(2)
            .cnot(0, 1)
            .rz(1, 0.9)
            .cnot(0, 1)
            .rx(2, 1.3)
            .cnot(2, 1)
            .h(0)
            .rz(2, -0.4);
        let s = c.run(StateVector::zero_state(3)).unwrap();
        assert!((s.norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn inverse_undoes_circuit() {
        let mut c = Circuit::new(3);
        c.h(0)
            .rx(1, 0.7)
            .cnot(0, 2)
            .rz(2, -1.3)
            .cnot(1, 2)
            .h(1)
            .rx(0, 2.2);
        // Reversed order, each rotation negated; the rest are self-inverse.
        let mut inverse = Circuit::new(3);
        inverse
            .rx(0, -2.2)
            .h(1)
            .cnot(1, 2)
            .rz(2, 1.3)
            .cnot(0, 2)
            .rx(1, -0.7)
            .h(0);
        let forward = c.run(StateVector::zero_state(3)).unwrap();
        let restored = inverse.run(forward).unwrap();
        assert!((restored.probability(0) - 1.0).abs() < EPS);
    }

    #[test]
    fn zz_interaction_decomposition() {
        // CNOT(a,b) RZ(b,θ) CNOT(a,b) == exp(-iθ Z_a Z_b / 2) up to phase:
        // check on |++⟩ that probabilities match the analytic form.
        let theta = 0.8;
        let mut c = Circuit::new(2);
        c.h(0).h(1).cnot(0, 1).rz(1, theta).cnot(0, 1);
        let s = c.run(StateVector::zero_state(2)).unwrap();
        // ZZ phase on |++> leaves uniform probabilities.
        for i in 0..4 {
            assert!((s.probability(i) - 0.25).abs() < EPS);
        }
    }
}

use std::error::Error;
use std::fmt;

/// Error type for simulator operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QsimError {
    /// A gate referenced a qubit index `>= n_qubits`.
    QubitOutOfRange {
        /// The offending qubit index.
        qubit: usize,
        /// Number of qubits in the register.
        n_qubits: usize,
    },
    /// A two-qubit gate was given the same qubit twice.
    DuplicateQubit {
        /// The repeated qubit index.
        qubit: usize,
    },
    /// A circuit built for one register width was run on another.
    WidthMismatch {
        /// Width the circuit was built for.
        circuit: usize,
        /// Width of the state it was applied to.
        state: usize,
    },
    /// An observable's dimension does not match the state dimension.
    DimensionMismatch {
        /// Dimension expected by the observable.
        expected: usize,
        /// Dimension of the state.
        actual: usize,
    },
    /// Requested register is too wide to allocate (`2^n` amplitudes).
    TooManyQubits {
        /// The requested qubit count.
        n_qubits: usize,
    },
    /// A computational-basis index was `>= 2^n_qubits`.
    BasisIndexOutOfRange {
        /// The offending basis-state index.
        index: usize,
        /// Dimension `2^n` of the register.
        dim: usize,
    },
    /// A noise channel failed validation: a depolarizing rate that is not
    /// finite or lies outside `[0, 1]`.
    InvalidChannel {
        /// Description of the violated requirement.
        reason: &'static str,
    },
    /// A probability vector was unusable for sampling (empty, containing a
    /// non-finite entry, or summing to zero).
    InvalidProbabilities {
        /// Description of the violated requirement.
        reason: &'static str,
    },
    /// A state handed to the half-plane [`SplitState`](crate::soa::SplitState)
    /// is not symmetric under flipping every qubit: the amplitudes at
    /// `index` and at its mirror `dim − 1 − index` differ.
    NotFlipSymmetric {
        /// The lower of the two mismatched basis-state indices.
        index: usize,
    },
}

impl fmt::Display for QsimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QsimError::QubitOutOfRange { qubit, n_qubits } => {
                write!(
                    f,
                    "qubit {qubit} out of range for {n_qubits}-qubit register"
                )
            }
            QsimError::DuplicateQubit { qubit } => {
                write!(f, "two-qubit gate applied twice to qubit {qubit}")
            }
            QsimError::WidthMismatch { circuit, state } => write!(
                f,
                "circuit built for {circuit} qubits applied to {state}-qubit state"
            ),
            QsimError::DimensionMismatch { expected, actual } => write!(
                f,
                "observable dimension {expected} does not match state dimension {actual}"
            ),
            QsimError::TooManyQubits { n_qubits } => {
                write!(f, "{n_qubits} qubits exceeds the supported register width")
            }
            QsimError::BasisIndexOutOfRange { index, dim } => {
                write!(f, "basis index {index} out of range for dimension {dim}")
            }
            QsimError::InvalidChannel { reason } => {
                write!(f, "invalid quantum channel: {reason}")
            }
            QsimError::InvalidProbabilities { reason } => {
                write!(f, "invalid probability vector: {reason}")
            }
            QsimError::NotFlipSymmetric { index } => write!(
                f,
                "state is not bit-flip symmetric: amplitude {index} differs from its mirror"
            ),
        }
    }
}

impl Error for QsimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(
            QsimError::QubitOutOfRange {
                qubit: 5,
                n_qubits: 3
            }
            .to_string(),
            "qubit 5 out of range for 3-qubit register"
        );
        assert!(QsimError::DuplicateQubit { qubit: 1 }
            .to_string()
            .contains("qubit 1"));
        assert!(QsimError::WidthMismatch {
            circuit: 2,
            state: 3
        }
        .to_string()
        .contains("2 qubits"));
        assert!(QsimError::DimensionMismatch {
            expected: 4,
            actual: 8
        }
        .to_string()
        .contains('8'));
        assert!(QsimError::TooManyQubits { n_qubits: 64 }
            .to_string()
            .contains("64"));
        assert!(QsimError::BasisIndexOutOfRange { index: 9, dim: 8 }
            .to_string()
            .contains("basis index 9"));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QsimError>();
    }
}

//! Standard single-qubit gate matrices.
//!
//! Each function returns a row-major 2×2 unitary suitable for
//! [`StateVector::apply_single`](crate::StateVector::apply_single) or
//! [`StateVector::apply_controlled`](crate::StateVector::apply_controlled).
//!
//! Rotation conventions follow the usual exponential-map definitions used by
//! the QAOA literature (and QuTiP/Qiskit):
//!
//! * `RX(θ) = exp(-i θ X / 2)`
//! * `RZ(θ) = exp(-i θ Z / 2)`
//!
//! so the paper's mixing layer `RX(2β)` and phase layer `RZ(-2γ)` (one per
//! edge, conjugated by CNOTs) compose exactly as in Fig. 1(a).
//!
//! ```
//! use qsim::gates;
//! let h = gates::h();
//! // H is self-inverse: H² = I.
//! let h2 = gates::compose(&h, &h);
//! assert!(gates::max_deviation(&h2, &gates::identity()) < 1e-15);
//! ```

use crate::Complex64;

/// A 2×2 complex matrix in row-major order.
pub type Gate2 = [[Complex64; 2]; 2];

const FRAC_1_SQRT_2: f64 = std::f64::consts::FRAC_1_SQRT_2;

fn c(re: f64, im: f64) -> Complex64 {
    Complex64::new(re, im)
}

/// The 2×2 identity.
#[must_use]
pub fn identity() -> Gate2 {
    [
        [Complex64::ONE, Complex64::ZERO],
        [Complex64::ZERO, Complex64::ONE],
    ]
}

/// Hadamard gate.
#[must_use]
pub fn h() -> Gate2 {
    let s = FRAC_1_SQRT_2;
    [[c(s, 0.0), c(s, 0.0)], [c(s, 0.0), c(-s, 0.0)]]
}

/// Pauli-X (NOT) gate.
#[must_use]
pub fn x() -> Gate2 {
    [
        [Complex64::ZERO, Complex64::ONE],
        [Complex64::ONE, Complex64::ZERO],
    ]
}

/// `RX(θ) = exp(-i θ X / 2)`, the QAOA mixing rotation.
#[must_use]
pub fn rx(theta: f64) -> Gate2 {
    let (s, co) = (theta / 2.0).sin_cos();
    [[c(co, 0.0), c(0.0, -s)], [c(0.0, -s), c(co, 0.0)]]
}

/// `RZ(θ) = exp(-i θ Z / 2)`, the phase-separation rotation.
#[must_use]
pub fn rz(theta: f64) -> Gate2 {
    [
        [Complex64::cis(-theta / 2.0), Complex64::ZERO],
        [Complex64::ZERO, Complex64::cis(theta / 2.0)],
    ]
}

/// Phase gate `diag(1, e^{iφ})`.
#[must_use]
pub fn phase(phi: f64) -> Gate2 {
    [
        [Complex64::ONE, Complex64::ZERO],
        [Complex64::ZERO, Complex64::cis(phi)],
    ]
}

/// The general single-qubit unitary `U3(θ, φ, λ)` (OpenQASM convention):
///
/// ```text
/// U3 = [[cos(θ/2),            −e^{iλ} sin(θ/2)],
///       [e^{iφ} sin(θ/2),  e^{i(φ+λ)} cos(θ/2)]]
/// ```
///
/// Every single-qubit unitary equals `U3` up to global phase;
/// `U3(θ, −π/2, π/2) = RX(θ)` and `U3(θ, 0, 0) = exp(-i θ Y / 2)`.
#[must_use]
pub fn u3(theta: f64, phi: f64, lambda: f64) -> Gate2 {
    let (s, co) = (theta / 2.0).sin_cos();
    [
        [c(co, 0.0), -(Complex64::cis(lambda) * s)],
        [Complex64::cis(phi) * s, Complex64::cis(phi + lambda) * co],
    ]
}

/// Matrix product `a · b` (apply `b` first, then `a`).
#[must_use]
pub fn compose(a: &Gate2, b: &Gate2) -> Gate2 {
    let mut out = [[Complex64::ZERO; 2]; 2];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, entry) in row.iter_mut().enumerate() {
            *entry = a[i][0] * b[0][j] + a[i][1] * b[1][j];
        }
    }
    out
}

/// Conjugate transpose `U†`.
#[must_use]
pub fn adjoint(u: &Gate2) -> Gate2 {
    [
        [u[0][0].conj(), u[1][0].conj()],
        [u[0][1].conj(), u[1][1].conj()],
    ]
}

/// Largest entry-wise deviation `max |aᵢⱼ − bᵢⱼ|` between two gates.
#[must_use]
pub fn max_deviation(a: &Gate2, b: &Gate2) -> f64 {
    let mut worst = 0.0_f64;
    for i in 0..2 {
        for j in 0..2 {
            worst = worst.max((a[i][j] - b[i][j]).abs());
        }
    }
    worst
}

/// `true` if `u` is unitary to within `tol` (`U†U = I`).
#[must_use]
pub fn is_unitary(u: &Gate2, tol: f64) -> bool {
    max_deviation(&compose(&adjoint(u), u), &identity()) <= tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    const EPS: f64 = 1e-14;

    /// Pauli-Y, written out: no circuit gate uses it.
    fn y() -> Gate2 {
        [
            [Complex64::ZERO, c(0.0, -1.0)],
            [c(0.0, 1.0), Complex64::ZERO],
        ]
    }

    /// Pauli-Z, written out: no circuit gate uses it.
    fn z() -> Gate2 {
        [
            [Complex64::ONE, Complex64::ZERO],
            [Complex64::ZERO, c(-1.0, 0.0)],
        ]
    }

    #[test]
    fn all_standard_gates_are_unitary() {
        for (name, g) in [
            ("i", identity()),
            ("h", h()),
            ("x", x()),
            ("rx", rx(0.731)),
            ("rz", rz(4.0)),
            ("u3", u3(-2.5, 0.4, 1.9)),
            ("phase", phase(1.2)),
        ] {
            assert!(is_unitary(&g, EPS), "{name} is not unitary");
        }
    }

    #[test]
    fn pauli_algebra() {
        // XY = iZ
        let xy = compose(&x(), &y());
        let iz = [
            [Complex64::I, Complex64::ZERO],
            [Complex64::ZERO, -Complex64::I],
        ];
        assert!(max_deviation(&xy, &iz) < EPS);
        // X² = Y² = Z² = I
        for g in [x(), y(), z()] {
            assert!(max_deviation(&compose(&g, &g), &identity()) < EPS);
        }
    }

    #[test]
    fn rotations_at_special_angles() {
        // RX(π) = -iX.
        let rxpi = rx(PI);
        let minus_ix = [
            [Complex64::ZERO, c2(0.0, -1.0)],
            [c2(0.0, -1.0), Complex64::ZERO],
        ];
        assert!(max_deviation(&rxpi, &minus_ix) < EPS);
        // RZ(2π) = -I.
        let rz2pi = rz(2.0 * PI);
        let minus_i = compose(&z(), &z());
        let neg = [
            [-minus_i[0][0], -minus_i[0][1]],
            [-minus_i[1][0], -minus_i[1][1]],
        ];
        assert!(max_deviation(&rz2pi, &neg) < EPS);
        // RX(0) = RZ(0) = I.
        assert!(max_deviation(&rx(0.0), &identity()) < EPS);
        assert!(max_deviation(&rz(0.0), &identity()) < EPS);
    }

    fn c2(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    #[test]
    fn hadamard_diagonalizes_x() {
        // H X H = Z.
        let hxh = compose(&compose(&h(), &x()), &h());
        assert!(max_deviation(&hxh, &z()) < EPS);
    }

    #[test]
    fn s_squared_is_z_and_t_squared_is_s() {
        // S = phase(π/2), T = phase(π/4).
        let s = phase(std::f64::consts::FRAC_PI_2);
        let t = phase(std::f64::consts::FRAC_PI_4);
        assert!(max_deviation(&compose(&s, &s), &z()) < EPS);
        assert!(max_deviation(&compose(&t, &t), &s) < EPS);
    }

    #[test]
    fn adjoint_inverts() {
        let g = rx(1.234);
        assert!(max_deviation(&compose(&adjoint(&g), &g), &identity()) < EPS);
    }

    #[test]
    fn u3_specializations() {
        use std::f64::consts::FRAC_PI_2;
        // U3(θ, −π/2, π/2) = RX(θ).
        assert!(max_deviation(&u3(0.9, -FRAC_PI_2, FRAC_PI_2), &rx(0.9)) < EPS);
        // U3(θ, 0, 0) = RY(θ), the real rotation by θ/2.
        let (s, co) = (1.3_f64 / 2.0).sin_cos();
        let ry = [[c(co, 0.0), c(-s, 0.0)], [c(s, 0.0), c(co, 0.0)]];
        assert!(max_deviation(&u3(1.3, 0.0, 0.0), &ry) < EPS);
        // Always unitary.
        assert!(is_unitary(&u3(2.0, 0.7, -1.1), EPS));
    }

    #[test]
    fn rotation_composition_adds_angles() {
        let a = rz(0.4);
        let b = rz(0.8);
        assert!(max_deviation(&compose(&a, &b), &rz(1.2)) < EPS);
        let a = rx(0.3);
        let b = rx(0.5);
        assert!(max_deviation(&compose(&a, &b), &rx(0.8)) < EPS);
    }
}

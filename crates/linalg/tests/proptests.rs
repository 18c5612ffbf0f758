//! Property-based tests for the dense linear-algebra kernels.

#![allow(
    clippy::as_conversions,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test and bench code: a panic is how it reports a failure, and fixtures cast literals"
)]

use linalg::{norm_inf, solve_lower_triangular, solve_upper_triangular, Matrix};
use proptest::prelude::*;

/// Strategy: a well-conditioned SPD matrix `A = B Bᵀ + n·I`.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f64..2.0, n * n).prop_map(move |data| {
        let b = Matrix::from_vec(n, n, data).expect("sized buffer");
        let mut a = b.matmul(&b.transpose()).expect("square product");
        a.add_diagonal(n as f64);
        a
    })
}

/// Entrywise difference `a − b` of two equal-length slices.
fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Determinant by Gaussian elimination with partial pivoting: an
/// independent reference for `Cholesky::log_det`.
fn lu_det(a: &Matrix) -> f64 {
    let n = a.rows();
    let mut m: Vec<Vec<f64>> = (0..n).map(|i| a.row(i).to_vec()).collect();
    let mut det = 1.0;
    for k in 0..n {
        let p = (k..n)
            .max_by(|&i, &j| m[i][k].abs().total_cmp(&m[j][k].abs()))
            .expect("non-empty pivot range");
        if p != k {
            m.swap(p, k);
            det = -det;
        }
        let (top, below) = m.split_at_mut(k + 1);
        let pivot_row = &top[k][k..];
        det *= pivot_row[0];
        for row in below {
            let f = row[k] / pivot_row[0];
            for (x, p) in row[k..].iter_mut().zip(pivot_row) {
                *x -= f * p;
            }
        }
    }
    det
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cholesky_solve_residual_small(
        (a, rhs) in (2usize..7).prop_flat_map(|n| {
            (spd(n), proptest::collection::vec(-5.0f64..5.0, n))
        })
    ) {
        let chol = a.cholesky().expect("SPD by construction");
        let x = chol.solve(&rhs).expect("solvable");
        let r = sub(&a.matvec(&x).expect("shape ok"), &rhs);
        prop_assert!(norm_inf(&r) < 1e-8, "residual {}", norm_inf(&r));
    }

    #[test]
    fn cholesky_logdet_matches_lu_det(a in (2usize..6).prop_flat_map(spd)) {
        let chol = a.cholesky().expect("SPD");
        let det = lu_det(&a);
        prop_assert!(det > 0.0);
        prop_assert!((chol.log_det() - det.ln()).abs() < 1e-6 * (1.0 + det.ln().abs()));
    }

    #[test]
    fn qr_least_squares_normal_equations(
        data in proptest::collection::vec(-3.0f64..3.0, 12),
        rhs in proptest::collection::vec(-3.0f64..3.0, 6),
    ) {
        // 6x2 full-rank-ish design; skip degenerate draws.
        let a = Matrix::from_vec(6, 2, data).expect("sized buffer");
        let Ok(qr) = a.qr() else { return Ok(()); };
        let Ok(x) = qr.solve_least_squares(&rhs) else { return Ok(()); };
        // Residual orthogonal to the column space: Aᵀ(Ax − b) ≈ 0.
        let r = sub(&a.matvec(&x).expect("shape ok"), &rhs);
        let atr = a.matvec_t(&r).expect("shape ok");
        prop_assert!(norm_inf(&atr) < 1e-7, "normal equations violated: {}", norm_inf(&atr));
    }

    #[test]
    fn triangular_solves_invert_matvec(a in (2usize..6).prop_flat_map(spd)) {
        let chol = a.cholesky().expect("SPD");
        let l = chol.factor();
        let ones = vec![1.0; l.rows()];
        let b = l.matvec(&ones).expect("shape ok");
        let x = solve_lower_triangular(l, &b).expect("nonsingular L");
        prop_assert!(norm_inf(&sub(&x, &ones)) < 1e-9);
        let lt = l.transpose();
        let bt = lt.matvec(&ones).expect("shape ok");
        let xt = solve_upper_triangular(&lt, &bt).expect("nonsingular U");
        prop_assert!(norm_inf(&sub(&xt, &ones)) < 1e-9);
    }

    #[test]
    fn matmul_associative(
        x in proptest::collection::vec(-2.0f64..2.0, 9),
        y in proptest::collection::vec(-2.0f64..2.0, 9),
        z in proptest::collection::vec(-2.0f64..2.0, 9),
    ) {
        let a = Matrix::from_vec(3, 3, x).expect("sized buffer");
        let b = Matrix::from_vec(3, 3, y).expect("sized buffer");
        let c = Matrix::from_vec(3, 3, z).expect("sized buffer");
        let left = a.matmul(&b).expect("ok").matmul(&c).expect("ok");
        let right = a.matmul(&b.matmul(&c).expect("ok")).expect("ok");
        prop_assert!((&left - &right).norm_fro() < 1e-10);
    }

    #[test]
    fn gram_is_positive_semidefinite(
        data in proptest::collection::vec(-3.0f64..3.0, 12)
    ) {
        let a = Matrix::from_vec(4, 3, data).expect("sized buffer");
        let mut g = a.gram();
        // PSD + jitter must be Cholesky-factorizable.
        g.add_diagonal(1e-9);
        prop_assert!(g.cholesky().is_ok());
    }
}

//! Failure injection: objectives that misbehave mid-run (NaN walls,
//! discontinuities, call-budget starvation) must terminate gracefully with
//! the best finite iterate, never panic, and never blow the call cap by
//! more than one iteration's worth of evaluations.

#![allow(
    clippy::as_conversions,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test and bench code: a panic is how it reports a failure, and fixtures cast literals"
)]

use std::cell::Cell;

use optimize::{all_optimizers, Bounds, Options, Termination};

/// A quadratic that turns into NaN after `budget` evaluations.
fn nan_after(budget: usize) -> impl Fn(&[f64]) -> f64 {
    let calls = Cell::new(0usize);
    move |x: &[f64]| {
        calls.set(calls.get() + 1);
        if calls.get() > budget {
            f64::NAN
        } else {
            x.iter().map(|v| v * v).sum()
        }
    }
}

#[test]
fn nan_wall_mid_run_terminates_gracefully() {
    let bounds = Bounds::uniform(3, -2.0, 2.0).expect("valid bounds");
    for optimizer in all_optimizers() {
        let f = nan_after(12);
        let result = optimizer
            .minimize(&f, &[1.5, -1.0, 0.5], &bounds, &Options::default())
            .unwrap_or_else(|e| panic!("{} errored: {e}", optimizer.name()));
        // The returned point must be finite and within bounds.
        assert!(
            result.fx.is_finite(),
            "{} returned non-finite best value",
            optimizer.name()
        );
        assert!(
            bounds.contains(&result.x),
            "{} left the box",
            optimizer.name()
        );
    }
}

#[test]
fn nan_region_inside_box_avoided() {
    // NaN for x0 > 1: optimizers starting at 0.5 and pulled toward the
    // minimum at (-1, 0) should never return a NaN-region point.
    let f = |x: &[f64]| {
        if x[0] > 1.0 {
            f64::NAN
        } else {
            (x[0] + 1.0).powi(2) + x[1] * x[1]
        }
    };
    let bounds = Bounds::uniform(2, -2.0, 2.0).expect("valid bounds");
    for optimizer in all_optimizers() {
        let result = optimizer
            .minimize(&f, &[0.5, 0.5], &bounds, &Options::default())
            .unwrap_or_else(|e| panic!("{} errored: {e}", optimizer.name()));
        assert!(result.fx.is_finite(), "{}", optimizer.name());
        assert!(
            result.fx < 0.5,
            "{} made no progress: {}",
            optimizer.name(),
            result.fx
        );
    }
}

#[test]
fn call_budget_starvation_respected() {
    // With max_calls = 5 no optimizer may consume wildly more than the
    // budget plus one iteration's overhead.
    let bounds = Bounds::uniform(4, -5.0, 5.0).expect("valid bounds");
    let options = Options::default()
        .with_max_calls(5)
        .with_ftol(0.0)
        .with_gtol(0.0);
    for optimizer in all_optimizers() {
        let counter = Cell::new(0usize);
        let f = |x: &[f64]| {
            counter.set(counter.get() + 1);
            x.iter().map(|v| v * v).sum::<f64>()
        };
        let result = optimizer
            .minimize(&f, &[4.0, -4.0, 3.0, 2.0], &bounds, &options)
            .unwrap_or_else(|e| panic!("{} errored: {e}", optimizer.name()));
        // One iteration can cost up to ~(n + line search) calls beyond the cap.
        assert!(
            counter.get() <= 5 + 30,
            "{} used {} calls against a budget of 5",
            optimizer.name(),
            counter.get()
        );
        assert_eq!(
            result.n_calls,
            counter.get(),
            "{} miscounted",
            optimizer.name()
        );
    }
}

#[test]
fn discontinuous_step_function_handled() {
    // A staircase objective breaks gradients; gradient-free methods must
    // still descend and gradient-based methods must not panic.
    let f = |x: &[f64]| (x[0] * 4.0).floor() + (x[1] * 4.0).floor();
    let bounds = Bounds::uniform(2, 0.0, 1.0).expect("valid bounds");
    for optimizer in all_optimizers() {
        let result = optimizer
            .minimize(&f, &[0.9, 0.9], &bounds, &Options::default())
            .unwrap_or_else(|e| panic!("{} errored: {e}", optimizer.name()));
        assert!(result.fx.is_finite());
        assert!(bounds.contains(&result.x));
    }
}

#[test]
fn degenerate_single_point_box() {
    // lower == upper everywhere: the only feasible point is the start.
    let bounds = Bounds::new(vec![0.5, -1.0], vec![0.5, -1.0]).expect("valid bounds");
    for optimizer in all_optimizers() {
        let f = |x: &[f64]| x[0] + x[1];
        let result = optimizer
            .minimize(&f, &[0.5, -1.0], &bounds, &Options::default())
            .unwrap_or_else(|e| panic!("{} errored: {e}", optimizer.name()));
        assert_eq!(result.x, vec![0.5, -1.0], "{} moved", optimizer.name());
        assert!((result.fx + 0.5).abs() < 1e-12);
    }
}

#[test]
fn infinity_start_rejected_cleanly() {
    let f = |_: &[f64]| f64::INFINITY;
    let bounds = Bounds::uniform(2, 0.0, 1.0).expect("valid bounds");
    for optimizer in all_optimizers() {
        let err = optimizer
            .minimize(&f, &[0.5, 0.5], &bounds, &Options::default())
            .expect_err("infinite objective must be rejected");
        assert!(
            matches!(err, optimize::OptimizeError::NonFiniteObjective { .. }),
            "{}: {err}",
            optimizer.name()
        );
    }
}

#[test]
fn max_iterations_reported() {
    // A slowly-improving valley with a 2-iteration cap must report the cap.
    let f = |x: &[f64]| (x[0] - 0.9).powi(2) * 1e-3 + x[1].abs();
    let bounds = Bounds::uniform(2, -1.0, 1.0).expect("valid bounds");
    let options = Options::default()
        .with_max_iters(2)
        .with_ftol(0.0)
        .with_gtol(0.0);
    for optimizer in all_optimizers() {
        let result = optimizer
            .minimize(&f, &[-0.9, 0.8], &bounds, &options)
            .unwrap_or_else(|e| panic!("{} errored: {e}", optimizer.name()));
        assert!(
            result.n_iters <= 2,
            "{} overran the iteration cap: {}",
            optimizer.name(),
            result.n_iters
        );
        // Termination may be MaxIterations or an early convergence signal,
        // but never MaxCalls (no call cap set here).
        assert_ne!(
            result.termination,
            Termination::MaxCalls,
            "{}",
            optimizer.name()
        );
    }
}

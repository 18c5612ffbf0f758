//! Bound-constrained local optimizers with function-call accounting.
//!
//! This crate replaces the four SciPy optimizers the paper evaluates:
//!
//! * [`Lbfgsb`] — projected limited-memory BFGS (gradient-based; the paper's
//!   data-generation optimizer),
//! * [`Slsqp`] — sequential quadratic programming with a damped-BFGS Hessian
//!   (gradient-based),
//! * [`NelderMead`] — downhill simplex (gradient-free),
//! * [`Cobyla`] — linear-approximation trust region (gradient-free).
//!
//! All optimizers **minimize** `f` over a box [`Bounds`]; the QAOA layer
//! maximizes `⟨C⟩` by minimizing `-⟨C⟩`. Every objective evaluation — the
//! paper's *function call / QC call*, its headline cost metric — is counted
//! through the [`Counted`] wrapper, including those spent on finite-
//! difference gradients, exactly as SciPy reports `nfev`.
//!
//! # Example
//!
//! ```
//! use optimize::{Bounds, NelderMead, Optimizer, Options};
//!
//! # fn main() -> Result<(), optimize::OptimizeError> {
//! // Minimize a shifted quadratic inside [0, 4]^2.
//! let f = |x: &[f64]| (x[0] - 1.0).powi(2) + (x[1] - 2.5).powi(2);
//! let bounds = Bounds::uniform(2, 0.0, 4.0)?;
//! let result = NelderMead::default().minimize(&f, &[3.0, 3.0], &bounds, &Options::default())?;
//! assert!(result.fx < 1e-6);
//! assert!(result.n_calls > 0);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(
    test,
    allow(
        clippy::as_conversions,
        reason = "unit tests build fixtures with small literal casts"
    )
)]

mod bounds;
mod cobyla;
mod counted;
mod error;
mod gradient;
mod lbfgsb;
mod nelder_mead;
mod objective;
mod options;
mod powell;
mod result;
mod slsqp;
mod spsa;

pub use bounds::Bounds;
pub use cobyla::Cobyla;
pub use counted::Counted;
pub use error::OptimizeError;
pub use gradient::{central_difference, forward_difference, gradient};
pub use objective::{Fallible, Objective};

pub use lbfgsb::Lbfgsb;
pub use nelder_mead::NelderMead;
pub(crate) use objective::FnObjective;
pub use options::Options;
pub use powell::Powell;
pub use result::{OptimizeResult, Termination};
pub use slsqp::Slsqp;
pub use spsa::Spsa;

/// Converts a dimension or iteration count to `f64`.
///
/// Dimensions are parameter-vector lengths and iteration counts are bounded
/// by `Options::max_iters`, all far below 2^53, so the conversion is exact.
#[expect(
    clippy::as_conversions,
    reason = "dimensions and iteration counts are < 2^53 so usize -> f64 is exact here"
)]
pub(crate) fn count_f64(n: usize) -> f64 {
    n as f64
}

/// A local minimizer of a scalar function over a box.
///
/// All four paper optimizers implement this trait, which lets the evaluation
/// harness sweep them uniformly (Table I iterates over
/// `[L-BFGS-B, Nelder-Mead, SLSQP, COBYLA]`).
pub trait Optimizer {
    /// Minimizes `f` starting from `x0` inside `bounds`.
    ///
    /// Implementations must count **every** call to `f` in the returned
    /// [`OptimizeResult::n_calls`], including gradient-estimation calls.
    ///
    /// # Errors
    ///
    /// * [`OptimizeError::DimensionMismatch`] if `x0.len() != bounds.dim()`.
    /// * [`OptimizeError::EmptyProblem`] for zero-dimensional input.
    /// * [`OptimizeError::NonFiniteObjective`] if `f` returns NaN/∞ at the
    ///   starting point (later non-finite values terminate gracefully).
    fn minimize(
        &self,
        f: &dyn Fn(&[f64]) -> f64,
        x0: &[f64],
        bounds: &Bounds,
        options: &Options,
    ) -> Result<OptimizeResult, OptimizeError>;

    /// Minimizes a gradient-capable [`Objective`]. Gradient-based
    /// optimizers (`Lbfgsb`, `Slsqp`) consume the analytic gradient when
    /// [`Objective::value_and_grad`] provides one — counted as
    /// [`OptimizeResult::n_grad_calls`] — and fall back to finite
    /// differences otherwise. The default implementation (all gradient-free
    /// methods) evaluates values only.
    ///
    /// # Errors
    ///
    /// Same contract as [`Optimizer::minimize`].
    fn minimize_objective(
        &self,
        f: &dyn Objective,
        x0: &[f64],
        bounds: &Bounds,
        options: &Options,
    ) -> Result<OptimizeResult, OptimizeError> {
        self.minimize(&|x: &[f64]| f.value(x), x0, bounds, options)
    }

    /// Short, stable identifier used in benchmark tables (e.g. `"L-BFGS-B"`).
    fn name(&self) -> &'static str;
}

/// The four optimizers evaluated in the paper, as trait objects, in the
/// order of Table I.
///
/// ```
/// let opts = optimize::all_optimizers();
/// let names: Vec<_> = opts.iter().map(|o| o.name()).collect();
/// assert_eq!(names, ["L-BFGS-B", "Nelder-Mead", "SLSQP", "COBYLA"]);
/// ```
#[must_use]
pub fn all_optimizers() -> Vec<Box<dyn Optimizer + Send + Sync>> {
    vec![
        Box::new(Lbfgsb::default()),
        Box::new(NelderMead::default()),
        Box::new(Slsqp::default()),
        Box::new(Cobyla::default()),
    ]
}

/// The paper's four optimizers plus the extension methods ([`Powell`],
/// [`Spsa`]) used by the `optimizer_zoo` study.
///
/// ```
/// let opts = optimize::extended_optimizers();
/// assert_eq!(opts.len(), 6);
/// assert_eq!(opts.last().unwrap().name(), "SPSA");
/// ```
#[must_use]
pub fn extended_optimizers() -> Vec<Box<dyn Optimizer + Send + Sync>> {
    let mut v = all_optimizers();
    v.push(Box::new(Powell::default()));
    v.push(Box::new(Spsa::default()));
    v
}

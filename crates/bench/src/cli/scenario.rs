//! `--shots` / `--noise` flag parsing: the evaluation-scenario axis.
//!
//! Every Table-I-style binary evaluates the ideal expectation by default.
//! These flags swap the objective: `--shots N` samples the circuit N times
//! per evaluation (shot noise, SPSA-optimized), `--noise p1,p2` applies a
//! depolarizing channel after every gate. The two are mutually exclusive —
//! a run measures one scenario at a time so its rows stay interpretable.

use optimize::Options;
use qaoa::Scenario;

/// Per-optimization function-call ceiling under gate noise.
const NOISY_MAX_CALLS: usize = 600;
/// Iteration ceiling under gate noise.
const NOISY_MAX_ITERS: usize = 100;
/// Convergence tolerance under gate noise.
const NOISY_FTOL: f64 = 1e-4;

/// Parses `--shots N` (N >= 1).
///
/// # Errors
///
/// Returns a human-readable message for non-numeric or zero values.
pub fn parse_shots(value: &str) -> Result<u32, String> {
    match value.parse::<u32>() {
        Ok(n) if n >= 1 => Ok(n),
        Ok(_) => Err("--shots 0: need at least one shot per evaluation".into()),
        Err(e) => Err(format!("--shots {value}: {e}")),
    }
}

/// Parses `--noise p1,p2` — single- and two-qubit depolarizing
/// probabilities, both finite and in `[0, 1]`.
///
/// # Errors
///
/// Returns a human-readable message for malformed pairs or out-of-range
/// probabilities.
pub fn parse_noise(value: &str) -> Result<(f64, f64), String> {
    let (a, b) = value
        .split_once(',')
        .ok_or_else(|| format!("--noise {value}: expected p1,p2 (e.g. 0.002,0.02)"))?;
    let parse = |s: &str| -> Result<f64, String> {
        s.trim()
            .parse()
            .map_err(|e| format!("--noise {value}: {e}"))
    };
    let (p1, p2) = (parse(a)?, parse(b)?);
    Scenario::Noisy { p1, p2 }
        .validate()
        .map_err(|_| format!("--noise {value}: probabilities must be finite and in [0, 1]"))?;
    Ok((p1, p2))
}

/// Combines the two optional flags into one [`Scenario`].
///
/// # Errors
///
/// Rejects runs that request both `--shots` and `--noise`: a row of the
/// resulting table would not say which effect it measured.
pub fn resolve(shots: Option<u32>, noise: Option<(f64, f64)>) -> Result<Scenario, String> {
    match (shots, noise) {
        (None, None) => Ok(Scenario::Exact),
        (Some(shots), None) => Ok(Scenario::Sampled { shots }),
        (None, Some((p1, p2))) => Ok(Scenario::Noisy { p1, p2 }),
        (Some(_), Some(_)) => {
            Err("--shots and --noise are mutually exclusive: pick one scenario per run".into())
        }
    }
}

/// Optimizer budget appropriate to a scenario.
///
/// The exact objective keeps the paper's high-precision defaults. The
/// gate-noise objective pays ~1000x more per evaluation (a density-matrix
/// simulation instead of a statevector pass) and gradient-based optimizers
/// consume `2p + 1` of those per finite-difference gradient, while the
/// noise floor makes differences below ~1e-4 physically meaningless — so
/// its budget is capped on all three axes (iterations, function calls,
/// tolerance). The sampled objective is cheap per evaluation and is
/// optimized by an internally-budgeted SPSA, so it keeps the base options.
#[must_use]
pub fn tuned_options(scenario: &Scenario, base: Options) -> Options {
    match scenario {
        Scenario::Noisy { .. } => base
            .with_ftol(base.ftol.max(NOISY_FTOL))
            .with_max_iters(base.max_iters.min(NOISY_MAX_ITERS))
            .with_max_calls(if base.max_calls == 0 {
                NOISY_MAX_CALLS
            } else {
                base.max_calls.min(NOISY_MAX_CALLS)
            }),
        Scenario::Exact | Scenario::Sampled { .. } => base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shots_parse_and_validate() {
        assert_eq!(parse_shots("256"), Ok(256));
        assert!(parse_shots("0").is_err());
        assert!(parse_shots("many").is_err());
        assert!(parse_shots("-4").is_err());
    }

    #[test]
    fn noise_parse_and_validate() {
        assert_eq!(parse_noise("0.002,0.02"), Ok((0.002, 0.02)));
        assert_eq!(parse_noise("0, 1"), Ok((0.0, 1.0)));
        assert!(parse_noise("0.002").is_err());
        assert!(parse_noise("0.002,2.0").is_err());
        assert!(parse_noise("-0.1,0.02").is_err());
        assert!(parse_noise("nan,0.02").is_err());
        assert!(parse_noise("a,b").is_err());
        assert_eq!(
            parse_noise("0.1,inf"),
            Err("--noise 0.1,inf: probabilities must be finite and in [0, 1]".into())
        );
    }

    #[test]
    fn resolve_picks_one_scenario() {
        assert_eq!(resolve(None, None), Ok(Scenario::Exact));
        assert_eq!(resolve(Some(64), None), Ok(Scenario::Sampled { shots: 64 }));
        assert_eq!(
            resolve(None, Some((0.001, 0.01))),
            Ok(Scenario::Noisy {
                p1: 0.001,
                p2: 0.01
            })
        );
        assert!(resolve(Some(64), Some((0.001, 0.01))).is_err());
    }

    #[test]
    fn noisy_options_are_capped_and_others_untouched() {
        let base = Options::default();
        let exact = tuned_options(&Scenario::Exact, base);
        assert_eq!(exact.max_iters, base.max_iters);
        assert_eq!(exact.ftol.to_bits(), base.ftol.to_bits());
        let sampled = tuned_options(&Scenario::Sampled { shots: 64 }, base);
        assert_eq!(sampled.max_iters, base.max_iters);
        let noisy = tuned_options(&Scenario::Noisy { p1: 0.0, p2: 0.01 }, base);
        assert_eq!(noisy.max_iters, NOISY_MAX_ITERS);
        assert_eq!(noisy.max_calls, NOISY_MAX_CALLS);
        assert!(noisy.ftol >= NOISY_FTOL);
        // An already-tighter caller budget is respected, not loosened.
        let tight = tuned_options(
            &Scenario::Noisy { p1: 0.0, p2: 0.01 },
            Options::default().with_max_iters(10).with_max_calls(50),
        );
        assert_eq!(tight.max_iters, 10);
        assert_eq!(tight.max_calls, 50);
    }
}

//! The proposed two-level flow (Fig. 4) and its hierarchical variant.
//!
//! Every entry point — [`TwoLevelFlow::run`] under any [`Scenario`], the
//! engine's cached [`TwoLevelFlow::run_with_level1`] and
//! [`TwoLevelFlow::run_hierarchical`] — differs only in how it obtains the
//! level-1 optimum and the predicted initialization; all of them finish in
//! one level-2 routine that optimizes the target depth and builds the
//! [`TwoLevelOutcome`]. `run` and `run_with_level1` pass the problem's
//! graph to the predictor, so they serve two-level and graph-aware
//! [`FeatureSet`]s alike.

use optimize::{Optimizer, Options};
use rand::Rng;

use crate::canonical::canonicalize_packed;
use crate::features::FeatureSet;
use crate::stablehash::mix64;
use crate::{
    InstanceOutcome, MaxCutProblem, ParameterPredictor, QaoaError, QaoaInstance, Scenario,
};

/// Domain separators for the level-1 and level-2 scenario seeds, so the two
/// levels of one run never share a shot schedule.
const LEVEL1_DOMAIN: u64 = 0x4c45_5645_4c31; // "LEVEL1"
const LEVEL2_DOMAIN: u64 = 0x4c45_5645_4c32; // "LEVEL2"

/// Configuration of the two-level flow.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoLevelConfig {
    /// Random initializations for the level-1 (`p = 1`) optimization.
    /// The paper treats level 1 as a single cheap random-init run; raise
    /// this for a more robust (but costlier) depth-1 optimum.
    pub level1_starts: usize,
    /// Optimizer options for both levels (paper: ftol 1e-6).
    pub options: Options,
}

impl Default for TwoLevelConfig {
    fn default() -> Self {
        Self {
            level1_starts: 1,
            options: Options::default(),
        }
    }
}

/// Outcome of one two-level run.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoLevelOutcome {
    /// Final parameters at the target depth.
    pub params: Vec<f64>,
    /// Final expectation `⟨C⟩`.
    pub expectation: f64,
    /// Final approximation ratio.
    pub approximation_ratio: f64,
    /// Function calls spent on level 1 (`p = 1`, random init).
    pub level1_calls: usize,
    /// Function calls spent on intermediate levels (hierarchical runs only).
    pub intermediate_calls: usize,
    /// Function calls spent on level 2 (target depth, ML init).
    pub level2_calls: usize,
    /// Analytic gradient evaluations (`njev`) across all levels; 0 for
    /// gradient-free optimizers.
    pub gradient_calls: usize,
    /// The ML-predicted initial parameters that seeded level 2.
    pub predicted_init: Vec<f64>,
}

impl TwoLevelOutcome {
    /// Total function calls — the paper's cost metric for the proposed flow
    /// (level-1 + intermediate + level-2 calls).
    #[must_use]
    pub fn total_calls(&self) -> usize {
        self.level1_calls + self.intermediate_calls + self.level2_calls
    }
}

/// The proposed two-level QAOA implementation flow (Fig. 4).
///
/// Level 1 optimizes the cheap `p = 1` instance from random initialization;
/// the trained [`ParameterPredictor`] maps `(γ₁OPT, β₁OPT, pt)` (and, for
/// graph-aware predictors, the graph's structure) to tuned initial
/// parameters; level 2 runs the target-depth instance from that
/// initialization with a local optimizer.
///
/// # Example
///
/// ```no_run
/// use graphs::generators;
/// use ml::ModelKind;
/// use optimize::Lbfgsb;
/// use qaoa::datagen::{DataGenConfig, ParameterDataset};
/// use qaoa::{MaxCutProblem, ParameterPredictor, Scenario, TwoLevelConfig, TwoLevelFlow};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), qaoa::QaoaError> {
/// let corpus = ParameterDataset::generate(&DataGenConfig::quick())?;
/// let predictor = ParameterPredictor::train(ModelKind::Gpr, &corpus)?;
/// let flow = TwoLevelFlow::new(&predictor);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let problem = MaxCutProblem::new(&generators::cycle(6))?;
/// let config = TwoLevelConfig::default();
/// let out = flow.run(&problem, 3, &Lbfgsb::default(), &config, &mut rng, &Scenario::Exact, 0)?;
/// assert!(out.total_calls() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TwoLevelFlow<'a> {
    predictor: &'a ParameterPredictor,
}

impl<'a> TwoLevelFlow<'a> {
    /// Wraps a trained predictor.
    #[must_use]
    pub fn new(predictor: &'a ParameterPredictor) -> Self {
        Self { predictor }
    }

    /// The wrapped predictor.
    #[must_use]
    pub fn predictor(&self) -> &ParameterPredictor {
        self.predictor
    }

    /// Runs the two-level flow for `problem` at `target_depth`, with every
    /// objective evaluation performed under `scenario` — level 1 and
    /// level 2 both pay the scenario's cost (sampled or decohered
    /// evaluations), which is the point of the noisy Table-I question.
    ///
    /// `base_seed` feeds the stochastic scenarios, domain-separated per
    /// level; exact and noisy runs ignore it.
    ///
    /// # Errors
    ///
    /// * [`QaoaError::InvalidDepth`] if the target depth exceeds the
    ///   predictor's training depth.
    /// * Scenario construction, evaluation, or optimizer errors from
    ///   either level.
    #[expect(
        clippy::too_many_arguments,
        reason = "both levels' inputs plus the scenario and its seed"
    )]
    pub fn run<R: Rng + ?Sized>(
        &self,
        problem: &MaxCutProblem,
        target_depth: usize,
        optimizer: &dyn Optimizer,
        config: &TwoLevelConfig,
        rng: &mut R,
        scenario: &Scenario,
        base_seed: u64,
    ) -> Result<TwoLevelOutcome, QaoaError> {
        // Level 1: cheap p = 1 optimization from random init.
        let level1 = QaoaInstance::with_scenario(
            problem.clone(),
            1,
            scenario,
            mix64(base_seed ^ LEVEL1_DOMAIN),
        )?;
        let l1 =
            level1.optimize_multistart(optimizer, config.level1_starts, rng, &config.options)?;
        let init = self.predict(problem, &l1, target_depth)?;
        let level2 = QaoaInstance::with_scenario(
            problem.clone(),
            target_depth,
            scenario,
            mix64(base_seed ^ LEVEL2_DOMAIN),
        )?;
        optimize_level2(&level2, optimizer, &config.options, &l1, None, init)
    }

    /// Runs the flow's second level (exactly) from an **already-computed**
    /// depth-1 optimum — the entry point the parallel engine uses when its
    /// isomorphism cache already holds the level-1 solution for this
    /// graph's canonical class, so the `p = 1` optimization is skipped
    /// entirely. With `level1` from the exact level-1 multistart this is
    /// [`TwoLevelFlow::run`] under [`Scenario::Exact`], bit for bit.
    ///
    /// `level1.function_calls` is carried into the outcome's
    /// `level1_calls`; pass an outcome with zeroed calls to account a
    /// cache hit as free.
    ///
    /// # Errors
    ///
    /// * [`QaoaError::InvalidDepth`] if the target depth exceeds the
    ///   predictor's training depth.
    /// * Instance/optimizer errors from level 2.
    pub fn run_with_level1(
        &self,
        problem: &MaxCutProblem,
        target_depth: usize,
        optimizer: &dyn Optimizer,
        options: &Options,
        level1: &InstanceOutcome,
    ) -> Result<TwoLevelOutcome, QaoaError> {
        let init = self.predict(problem, level1, target_depth)?;
        let level2 = QaoaInstance::new(problem.clone(), target_depth)?;
        optimize_level2(&level2, optimizer, options, level1, None, init)
    }

    /// Runs the hierarchical variant (§I(d)): level 1 at `p = 1`, an
    /// intermediate optimization at the predictor's intermediate depth
    /// (itself ML-initialized through a two-level companion predictor), then
    /// the target depth seeded by the hierarchical predictor.
    ///
    /// `two_level` supplies the intermediate initialization; `self` must be
    /// a hierarchical predictor.
    ///
    /// # Errors
    ///
    /// * [`QaoaError::Ml`] if `self` is not hierarchical.
    /// * Depth/instance/optimizer errors from any level.
    pub fn run_hierarchical<R: Rng + ?Sized>(
        &self,
        two_level: &ParameterPredictor,
        problem: &MaxCutProblem,
        target_depth: usize,
        optimizer: &dyn Optimizer,
        config: &TwoLevelConfig,
        rng: &mut R,
    ) -> Result<TwoLevelOutcome, QaoaError> {
        let FeatureSet::Hierarchical {
            intermediate_depth: pm,
        } = self.predictor.features()
        else {
            return Err(QaoaError::Ml(ml::MlError::ShapeMismatch {
                expected: 6,
                actual: self.predictor.features().width(),
                what: "features (run_hierarchical needs a hierarchical predictor)",
            }));
        };

        // Level 1.
        let level1 = QaoaInstance::new(problem.clone(), 1)?;
        let l1 =
            level1.optimize_multistart(optimizer, config.level1_starts, rng, &config.options)?;

        // Intermediate level at pm, ML-initialized via the two-level model.
        let l1_canon = canonicalize_packed(&l1.params);
        let mid_init = two_level.predict(l1_canon[0], l1_canon[1], pm)?;
        let mid_instance = QaoaInstance::new(problem.clone(), pm)?;
        let mid = mid_instance.optimize(optimizer, &mid_init, &config.options)?;
        let mid_canon = canonicalize_packed(&mid.params);

        // Target level with hierarchical features.
        let init = self.predictor.predict_hierarchical(
            l1_canon[0],
            l1_canon[1],
            mid_canon[0],
            mid_canon[pm],
            target_depth,
        )?;
        let level2 = QaoaInstance::new(problem.clone(), target_depth)?;
        optimize_level2(&level2, optimizer, &config.options, &l1, Some(&mid), init)
    }

    /// Predicts target-depth initial parameters from a level-1 optimum,
    /// folded into the canonical symmetry domain first so it matches the
    /// corpus the predictor was trained on.
    fn predict(
        &self,
        problem: &MaxCutProblem,
        level1: &InstanceOutcome,
        target_depth: usize,
    ) -> Result<Vec<f64>, QaoaError> {
        let l1_canon = canonicalize_packed(&level1.params);
        self.predictor
            .predict_for_graph(problem.graph(), l1_canon[0], l1_canon[1], target_depth)
    }
}

/// Level 2 of every two-level flow: optimizes `level2` from the predicted
/// `init` and charges the level-1 (and, for hierarchical runs,
/// intermediate) cost — the one place a [`TwoLevelOutcome`] is built.
pub(crate) fn optimize_level2(
    level2: &QaoaInstance,
    optimizer: &dyn Optimizer,
    options: &Options,
    level1: &InstanceOutcome,
    intermediate: Option<&InstanceOutcome>,
    init: Vec<f64>,
) -> Result<TwoLevelOutcome, QaoaError> {
    let l2 = level2.optimize(optimizer, &init, options)?;
    let (mid_calls, mid_grads) =
        intermediate.map_or((0, 0), |mid| (mid.function_calls, mid.gradient_calls));
    Ok(TwoLevelOutcome {
        params: l2.params,
        expectation: l2.expectation,
        approximation_ratio: l2.approximation_ratio,
        level1_calls: level1.function_calls,
        intermediate_calls: mid_calls,
        level2_calls: l2.function_calls,
        gradient_calls: level1.gradient_calls + mid_grads + l2.gradient_calls,
        predicted_init: init,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{DataGenConfig, ParameterDataset};
    use graphs::generators;
    use ml::ModelKind;
    use optimize::Lbfgsb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn corpus() -> ParameterDataset {
        ParameterDataset::generate(&DataGenConfig {
            n_graphs: 6,
            n_nodes: 5,
            edge_probability: 0.6,
            max_depth: 3,
            restarts: 3,
            seed: 5,
            options: Default::default(),
            trend_preference_margin: 1e-3,
        })
        .unwrap()
    }

    const HIERARCHICAL: FeatureSet = FeatureSet::Hierarchical {
        intermediate_depth: 2,
    };

    #[test]
    fn two_level_produces_valid_outcome() {
        let ds = corpus();
        let predictor = ParameterPredictor::train(ModelKind::Linear, &ds).unwrap();
        let flow = TwoLevelFlow::new(&predictor);
        let problem = MaxCutProblem::new(&generators::cycle(5)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let out = flow
            .run(
                &problem,
                2,
                &Lbfgsb::default(),
                &TwoLevelConfig::default(),
                &mut rng,
                &Scenario::Exact,
                0,
            )
            .unwrap();
        assert_eq!(out.params.len(), 4);
        assert_eq!(out.predicted_init.len(), 4);
        assert!(out.level1_calls > 0);
        assert!(out.level2_calls > 0);
        assert_eq!(out.intermediate_calls, 0);
        assert_eq!(out.total_calls(), out.level1_calls + out.level2_calls);
        assert!(out.approximation_ratio > 0.6);
        assert!((0.0..=1.0 + 1e-9).contains(&out.approximation_ratio));
    }

    #[test]
    fn exact_scenario_run_matches_plain_run_bit_for_bit() {
        // The scenario flow under `Exact` is the engine's cache path fed
        // with the exact level-1 multistart, bit for bit.
        let ds = corpus();
        let predictor = ParameterPredictor::train(ModelKind::Linear, &ds).unwrap();
        let flow = TwoLevelFlow::new(&predictor);
        let problem = MaxCutProblem::new(&generators::cycle(5)).unwrap();
        let config = TwoLevelConfig::default();
        let l1 = QaoaInstance::new(problem.clone(), 1)
            .unwrap()
            .optimize_multistart(
                &Lbfgsb::default(),
                config.level1_starts,
                &mut StdRng::seed_from_u64(2),
                &config.options,
            )
            .unwrap();
        let a = flow
            .run_with_level1(&problem, 2, &Lbfgsb::default(), &config.options, &l1)
            .unwrap();
        let b = flow
            .run(
                &problem,
                2,
                &Lbfgsb::default(),
                &config,
                &mut StdRng::seed_from_u64(2),
                &Scenario::Exact,
                12345,
            )
            .unwrap();
        assert_eq!(a, b);
    }

    /// Bits of a two-level outcome: params, ⟨C⟩, AR, [level-1,
    /// intermediate, level-2, gradient] calls, predicted init.
    type Pinned = (Vec<u64>, u64, u64, [usize; 4], Vec<u64>);

    fn pinned(out: &TwoLevelOutcome) -> Pinned {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (
            bits(&out.params),
            out.expectation.to_bits(),
            out.approximation_ratio.to_bits(),
            [
                out.level1_calls,
                out.intermediate_calls,
                out.level2_calls,
                out.gradient_calls,
            ],
            bits(&out.predicted_init),
        )
    }

    /// The 6-node graph every pinned outcome is recorded on.
    fn pinned_problem() -> MaxCutProblem {
        let graph = generators::erdos_renyi_nonempty(6, 0.5, &mut StdRng::seed_from_u64(21));
        MaxCutProblem::new(&graph).unwrap()
    }

    #[test]
    fn entry_points_match_recorded_bits() {
        // Bits recorded from the implementation that built a
        // `TwoLevelOutcome` separately in every entry point: the one
        // level-2 routine must reproduce each of them.
        let ds = corpus();
        let predictor = ParameterPredictor::train(ModelKind::Linear, &ds).unwrap();
        let flow = TwoLevelFlow::new(&predictor);
        let problem = pinned_problem();
        let options = Options::default().with_max_iters(40);
        let config = TwoLevelConfig {
            level1_starts: 2,
            options,
        };
        let lbfgsb = Lbfgsb::default();

        // The engine's cache path.
        let l1 = QaoaInstance::new(problem.clone(), 1)
            .unwrap()
            .optimize_multistart(&lbfgsb, 2, &mut StdRng::seed_from_u64(3), &options)
            .unwrap();
        let cached = flow
            .run_with_level1(&problem, 2, &lbfgsb, &options, &l1)
            .unwrap();
        assert_eq!(
            pinned(&cached),
            (
                vec![
                    0x3fe34f18016dd137,
                    0x3fed8702655c4de4,
                    0x3fe2d2cd706524db,
                    0x3fd9286f3541eae7
                ],
                0x4018a94f4b26bd4f,
                0x3fec2f360cbe8f36,
                [25, 0, 17, 21],
                vec![
                    0x3fdc958f3d553f2a,
                    0x3ff0ff342cb3cc62,
                    0x3fd93ce9196b6adc,
                    0x3fc7ae4d2e698ce0
                ],
            )
        );

        // The scenario flow, exact and sampled.
        let run = |scenario: &Scenario, base_seed: u64| {
            let mut rng = StdRng::seed_from_u64(4);
            flow.run(&problem, 2, &lbfgsb, &config, &mut rng, scenario, base_seed)
                .unwrap()
        };
        assert_eq!(
            pinned(&run(&Scenario::Exact, 0)),
            (
                vec![
                    0x3fe34f181f39f2e2,
                    0x3fed870289759586,
                    0x3fe2d2cd50c902b7,
                    0x3fd9286f5d18c071
                ],
                0x4018a94f4b24b1c8,
                0x3fec2f360cbc38e5,
                [42, 0, 17, 26],
                vec![
                    0x3fdc94ff8c609902,
                    0x3ff0ff1c4ab3a5ce,
                    0x3fd93cd7cc6c0fd8,
                    0x3fc7adf96ca76c52
                ],
            )
        );
        assert_eq!(
            pinned(&run(&Scenario::Sampled { shots: 64 }, 9)),
            (
                vec![
                    0x3fe6cafef05eb475,
                    0x3feeb276298674ae,
                    0x3fe396a926779a51,
                    0x3fd90e5dceb98b56
                ],
                0x401856c0411cac7b,
                0x3febd0dbb820c51f,
                [164, 0, 82, 0],
                vec![
                    0x3fe1c43312b7783d,
                    0x3ff1dca10396d873,
                    0x3fdd1fba91a0bc32,
                    0x3fce018c26d625cc
                ],
            )
        );

        // The hierarchical flow.
        let hier = ParameterPredictor::train_with(ModelKind::Linear, &ds, HIERARCHICAL).unwrap();
        let out = TwoLevelFlow::new(&hier)
            .run_hierarchical(
                &predictor,
                &problem,
                3,
                &lbfgsb,
                &config,
                &mut StdRng::seed_from_u64(6),
            )
            .unwrap();
        assert_eq!(
            pinned(&out),
            (
                vec![
                    0x3fe918a9c67aa71f,
                    0x4013891c297f6a63,
                    0x40158fd176297396,
                    0x3fbdf41d61054477,
                    0x4004c5223e9a387a,
                    0x400661c7493dd5a9
                ],
                0x4019e252c52805e9,
                0x3fed94f0e1524fe6,
                [29, 17, 80, 50],
                vec![
                    0x3fdf0035690937f1,
                    0x400d7d688ed3e3e7,
                    0x401921fb54442d18,
                    0x3fdeda46d674041a,
                    0x400921fb54442d18,
                    0x400921fb54442d18
                ],
            )
        );
    }

    #[test]
    fn graph_aware_run_matches_recorded_bits() {
        // Recorded from the graph-aware predictor's own two-level run (one
        // exact level-1 start, its own table, fit and predict loops); the
        // shared flow must reproduce it.
        let predictor =
            ParameterPredictor::train_with(ModelKind::Linear, &corpus(), FeatureSet::GraphAware)
                .unwrap();
        let config = TwoLevelConfig {
            level1_starts: 1,
            options: Options::default().with_max_iters(40),
        };
        let out = TwoLevelFlow::new(&predictor)
            .run(
                &pinned_problem(),
                2,
                &Lbfgsb::default(),
                &config,
                &mut StdRng::seed_from_u64(8),
                &Scenario::Exact,
                0,
            )
            .unwrap();
        assert_eq!(
            pinned(&out),
            (
                vec![
                    0x3fe5f071e47e214c,
                    0x400731830b86f4d5,
                    0x3fdc8b803184d400,
                    0x3ffb2f8159e2c8e5
                ],
                0x401431f373a32c21,
                0x3fe71483f1df0ddd,
                [16, 0, 33, 23],
                vec![
                    0x3fe8a7414231f7c8,
                    0x40020bec470eb6ee,
                    0x3fea7ad34d4d2338,
                    0x3fe0d7f2f4a7199d
                ],
            )
        );
    }

    #[test]
    fn sampled_scenario_run_is_seed_deterministic() {
        let ds = corpus();
        let predictor = ParameterPredictor::train(ModelKind::Linear, &ds).unwrap();
        let flow = TwoLevelFlow::new(&predictor);
        let problem = MaxCutProblem::new(&generators::cycle(5)).unwrap();
        let config = TwoLevelConfig {
            level1_starts: 1,
            options: Options::default().with_max_iters(20),
        };
        let run = |base: u64| {
            flow.run(
                &problem,
                2,
                &Lbfgsb::default(),
                &config,
                &mut StdRng::seed_from_u64(3),
                &Scenario::Sampled { shots: 64 },
                base,
            )
            .unwrap()
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a, b);
        assert!(a.total_calls() > 0);
    }

    #[test]
    fn target_depth_beyond_training_rejected() {
        let ds = corpus();
        let predictor = ParameterPredictor::train(ModelKind::Linear, &ds).unwrap();
        let flow = TwoLevelFlow::new(&predictor);
        let problem = MaxCutProblem::new(&generators::cycle(4)).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(matches!(
            flow.run(
                &problem,
                9,
                &Lbfgsb::default(),
                &TwoLevelConfig::default(),
                &mut rng,
                &Scenario::Exact,
                0,
            ),
            Err(QaoaError::InvalidDepth { depth: 9 })
        ));
    }

    #[test]
    fn hierarchical_run_accumulates_intermediate_cost() {
        let ds = corpus();
        let two_level = ParameterPredictor::train(ModelKind::Linear, &ds).unwrap();
        let hier = ParameterPredictor::train_with(ModelKind::Linear, &ds, HIERARCHICAL).unwrap();
        let flow = TwoLevelFlow::new(&hier);
        let problem = MaxCutProblem::new(&generators::cycle(5)).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let out = flow
            .run_hierarchical(
                &two_level,
                &problem,
                3,
                &Lbfgsb::default(),
                &TwoLevelConfig::default(),
                &mut rng,
            )
            .unwrap();
        assert!(out.intermediate_calls > 0);
        assert_eq!(
            out.total_calls(),
            out.level1_calls + out.intermediate_calls + out.level2_calls
        );
        // Running the plain entry point with a hierarchical predictor fails.
        assert!(flow
            .run(
                &problem,
                3,
                &Lbfgsb::default(),
                &TwoLevelConfig::default(),
                &mut rng,
                &Scenario::Exact,
                0,
            )
            .is_err());
    }
}

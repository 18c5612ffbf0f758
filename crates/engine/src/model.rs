//! The `QMODEL2` file format of trained parameter predictors.
//!
//! A [`ParameterPredictor`] is the expensive half of the paper's
//! train-once / predict-many promise: training solves hundreds of QAOA
//! instances, while prediction is a handful of regressor evaluations. This
//! module saves the trained predictor to a versioned text file and
//! rebuilds it in another process, so a serving loop never pays the
//! training cost — and the rebuilt predictor answers **bit-identically** to
//! the in-memory original (the `ml` crate's `to_params`/`from_params`
//! round-trip guarantee, float payloads as IEEE-754 bit hex like
//! [`crate::wire`]).
//!
//! File format (line-delimited):
//!
//! ```text
//! QMODEL2 numerics=v3 seed=<master seed> kind=<abbr> features=<3|6> max-depth=<p> intermediate=<-|m>
//! MODEL gamma 1 <ints> <floats>
//! MODEL beta 1 <ints> <floats>
//! ...
//! END <model count>
//! ints   := "-" | u64 ("," u64)*
//! floats := "-" | hex64 ("," hex64)*    (IEEE-754 bits, 16 lowercase hex)
//! ```
//!
//! One `MODEL` line per stage regressor, γ stages first then β stages, each
//! carrying that model's exported parameter streams. The `END` trailer
//! makes truncation detectable: a file that stops mid-stream never parses.
//! The header names two-level and hierarchical feature sets only; nothing
//! saves a graph-aware predictor, so [`encode`] refuses one.
//!
//! The header scopes the artifact by version, numerics
//! ([`crate::artifact`], whose load and save policy this file follows),
//! model kind (each stage line is decoded by that kind's own layout) and
//! corpus master seed — a model trained on another seed's corpus would
//! silently change served answers, so it is treated like a stale version.

use std::path::Path;

use ml::{ModelKind, ModelParams, Regressor};
use qaoa::features::FeatureSet;
use qaoa::ParameterPredictor;

use crate::artifact::{self, Load};
use crate::wire::{fmt_floats, parse_floats, parse_int, WireError};

/// Version tag opening the model-file header; bump alongside any format
/// change so stale files are discarded rather than misread. (`QMODEL2`
/// added the numerics token.)
pub const MODEL_VERSION: &str = "QMODEL2";

/// What [`load`] found on disk: the rebuilt predictor, ready to serve.
pub type ModelLoad = Load<ParameterPredictor>;

impl ModelLoad {
    /// One-line human summary for driver logs.
    #[must_use]
    pub fn summary(&self) -> String {
        match self {
            Load::Missing => "no model file; training from scratch".into(),
            Load::Loaded(p) => {
                format!("loaded {} model (max depth {})", p.kind(), p.max_depth())
            }
            Load::Discarded(why) => format!("model file discarded ({why}); retraining"),
        }
    }
}

fn fmt_ints(v: &[u64]) -> String {
    if v.is_empty() {
        return "-".into();
    }
    v.iter().map(u64::to_string).collect::<Vec<_>>().join(",")
}

fn parse_ints(s: &str) -> Result<Vec<u64>, WireError> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|part| parse_int::<u64>(part, "model int field"))
        .collect()
}

fn err(message: impl Into<String>) -> WireError {
    WireError {
        message: message.into(),
    }
}

/// Encodes a trained predictor as the full text of a `QMODEL2` file.
///
/// # Errors
///
/// Fails for a graph-aware predictor (the format has no field for its
/// feature set), or if a stage model refuses to export (an unfitted model,
/// which a trained predictor never contains).
pub fn encode(predictor: &ParameterPredictor, master_seed: u64) -> Result<String, WireError> {
    let features = predictor.features();
    let intermediate = match features {
        FeatureSet::TwoLevel => "-".to_string(),
        FeatureSet::Hierarchical { intermediate_depth } => intermediate_depth.to_string(),
        FeatureSet::GraphAware => {
            return Err(err("a graph-aware predictor has no QMODEL2 encoding"));
        }
    };
    let mut out = format!(
        "{} seed={master_seed} kind={} features={} max-depth={} intermediate={intermediate}\n",
        artifact::header(MODEL_VERSION),
        predictor.kind().abbreviation(),
        features.width(),
        predictor.max_depth(),
    );
    let mut count = 0usize;
    for (param, models) in [
        ("gamma", predictor.gamma_models()),
        ("beta", predictor.beta_models()),
    ] {
        for (i, model) in models.iter().enumerate() {
            let exported = model
                .to_params()
                .map_err(|e| err(format!("stage {param} {} export failed: {e}", i + 1)))?;
            out.push_str(&format!(
                "MODEL {param} {} {} {}\n",
                i + 1,
                fmt_ints(&exported.ints),
                fmt_floats(&exported.floats),
            ));
            count += 1;
        }
    }
    out.push_str(&format!("END {count}\n"));
    Ok(out)
}

/// Parses the full text of a `QMODEL2` file scoped to `master_seed`.
///
/// # Errors
///
/// Rejects a missing/mismatched/misseeded header, any malformed stage
/// line, a missing or wrong `END` trailer, or stage lists that do not
/// assemble into a valid predictor — the whole file is untrustworthy
/// (partial loads could hide truncation behind a shallower model).
pub fn parse_model(text: &str, master_seed: u64) -> Result<ParameterPredictor, WireError> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().unwrap_or_default();
    let opening = format!("{} ", artifact::header(MODEL_VERSION));
    let fields: Vec<&str> = header.split_whitespace().skip(2).collect();
    if !header.starts_with(&opening) || fields.len() != 5 {
        return Err(err(format!(
            "model header `{}` is not a `{opening}…` header",
            header.trim()
        )));
    }
    let field = |i: usize, prefix: &str| -> Result<&str, WireError> {
        fields[i].strip_prefix(prefix).ok_or_else(|| {
            err(format!(
                "model header field `{}` needs `{prefix}`",
                fields[i]
            ))
        })
    };
    let seed: u64 = parse_int(field(0, "seed=")?, "model seed")?;
    if seed != master_seed {
        return Err(err(format!(
            "model trained under seed {seed}, this run uses {master_seed}"
        )));
    }
    let kind_abbr = field(1, "kind=")?;
    let kind = ModelKind::from_abbreviation(kind_abbr)
        .ok_or_else(|| err(format!("unknown model kind `{kind_abbr}`")))?;
    let features: usize = parse_int(field(2, "features=")?, "feature count")?;
    let max_depth: usize = parse_int(field(3, "max-depth=")?, "max depth")?;
    let feature_set = match field(4, "intermediate=")? {
        "-" => FeatureSet::TwoLevel,
        m => FeatureSet::Hierarchical {
            intermediate_depth: parse_int::<usize>(m, "intermediate depth")?,
        },
    };
    if features != feature_set.width() {
        return Err(err(format!(
            "feature schema {features} contradicts intermediate={} (expected {})",
            fields[4],
            feature_set.width()
        )));
    }

    let mut gamma_models: Vec<Box<dyn Regressor>> = Vec::new();
    let mut beta_models: Vec<Box<dyn Regressor>> = Vec::new();
    let mut ended = false;
    for line in lines {
        if ended {
            return Err(err("content after the END trailer"));
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.first().copied() {
            Some("MODEL") => {
                if fields.len() != 5 {
                    return Err(err(format!(
                        "MODEL line needs 5 fields, got {}",
                        fields.len()
                    )));
                }
                let stage: usize = parse_int(fields[2], "model stage")?;
                let exported = ModelParams {
                    ints: parse_ints(fields[3])?,
                    floats: parse_floats(fields[4])?,
                };
                let model = kind
                    .from_params(&exported)
                    .map_err(|e| err(format!("stage {} {} rejected: {e}", fields[1], stage)))?;
                let list = match fields[1] {
                    "gamma" => &mut gamma_models,
                    "beta" => &mut beta_models,
                    other => return Err(err(format!("unknown parameter kind `{other}`"))),
                };
                if stage != list.len() + 1 {
                    return Err(err(format!(
                        "{} stage {stage} out of order (expected {})",
                        fields[1],
                        list.len() + 1
                    )));
                }
                list.push(model);
            }
            Some("END") => {
                let count: usize = parse_int(fields.get(1).copied().unwrap_or(""), "model count")?;
                if fields.len() != 2 || count != gamma_models.len() + beta_models.len() {
                    return Err(err(format!(
                        "END trailer count {count} does not match {} stage lines",
                        gamma_models.len() + beta_models.len()
                    )));
                }
                ended = true;
            }
            _ => return Err(err(format!("unrecognized model line `{line}`"))),
        }
    }
    if !ended {
        return Err(err("model file truncated (no END trailer)"));
    }
    ParameterPredictor::from_parts(kind, max_depth, feature_set, gamma_models, beta_models)
        .map_err(|e| err(format!("model stages do not assemble: {e}")))
}

/// Loads the predictor persisted at `path`, tolerating every failure mode
/// (see [`crate::artifact`]).
pub fn load(path: &Path, master_seed: u64) -> ModelLoad {
    artifact::read(path, |text| {
        parse_model(text, master_seed).map_err(|e| e.message)
    })
}

/// Writes `predictor` to `path` atomically, replacing whatever was there.
///
/// # Errors
///
/// Propagates I/O errors, and surfaces (as [`std::io::ErrorKind::Other`])
/// the [`encode`] failures: a graph-aware predictor, or the
/// never-in-practice case of a stage model refusing to export.
pub fn save(predictor: &ParameterPredictor, path: &Path, master_seed: u64) -> std::io::Result<()> {
    let text = encode(predictor, master_seed).map_err(std::io::Error::other)?;
    artifact::write_atomic(path, text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qaoa::datagen::{DataGenConfig, ParameterDataset};

    fn tiny_corpus() -> ParameterDataset {
        ParameterDataset::generate(&DataGenConfig {
            n_graphs: 5,
            n_nodes: 5,
            edge_probability: 0.6,
            max_depth: 3,
            restarts: 2,
            seed: 33,
            options: Default::default(),
            trend_preference_margin: 1e-3,
        })
        .unwrap()
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("qmodel_{}_{tag}.qm", std::process::id()))
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let corpus = tiny_corpus();
        for kind in ModelKind::EXTENDED {
            let trained = ParameterPredictor::train(kind, &corpus).unwrap();
            let path = temp_path(&format!("roundtrip_{kind}"));
            save(&trained, &path, 2020).unwrap();
            let ModelLoad::Loaded(loaded) = load(&path, 2020) else {
                panic!("{kind} artifact must load");
            };
            assert_eq!(loaded.kind(), kind);
            assert_eq!(loaded.max_depth(), trained.max_depth());
            for pt in 1..=trained.max_depth() {
                let a = trained.predict(1.2, 0.6, pt).unwrap();
                let b = loaded.predict(1.2, 0.6, pt).unwrap();
                let a_bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
                let b_bits: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
                assert_eq!(a_bits, b_bits, "{kind} depth {pt}");
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn missing_file_is_a_cold_start() {
        assert!(matches!(
            load(Path::new("/nonexistent/model.qm"), 2020),
            ModelLoad::Missing
        ));
    }

    #[test]
    fn corrupt_stale_and_misseeded_files_are_discarded() {
        let corpus = tiny_corpus();
        let trained = ParameterPredictor::train(ModelKind::Linear, &corpus).unwrap();
        let good = encode(&trained, 2020).unwrap();
        let truncated: String = good.lines().take(3).map(|l| format!("{l}\n")).collect();
        let reseeded = good.replacen("seed=2020", "seed=7", 1);
        let cases = [
            ("garbage", "complete nonsense\n".to_string()),
            ("stale", good.replacen("QMODEL2", "QMODEL1", 1)),
            (
                "othernumerics",
                good.replacen("numerics=v3", "numerics=v2", 1),
            ),
            ("otherseed", reseeded),
            ("truncated", truncated),
            ("empty", String::new()),
            ("badkind", good.replacen("kind=LM", "kind=WAT", 1)),
        ];
        for (tag, text) in cases {
            let path = temp_path(tag);
            std::fs::write(&path, text).unwrap();
            assert!(
                matches!(load(&path, 2020), ModelLoad::Discarded(_)),
                "{tag} must be discarded"
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn graph_aware_predictors_are_not_encoded() {
        let aware = ParameterPredictor::train_with(
            ModelKind::Linear,
            &tiny_corpus(),
            FeatureSet::GraphAware,
        )
        .unwrap();
        let e = encode(&aware, 2020).unwrap_err();
        assert!(e.message.contains("graph-aware"), "{}", e.message);
    }

    #[test]
    fn load_statuses_summarize() {
        assert!(ModelLoad::Missing.summary().contains("training"));
        assert!(ModelLoad::Discarded("why".into()).summary().contains("why"));
    }
}

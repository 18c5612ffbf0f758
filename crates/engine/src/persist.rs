//! The `QCACHE3` file format of the depth-1 optimum cache: a header, then
//! one `ENTRY` line ([`crate::wire`]) per entry.
//!
//! ```text
//! QCACHE3 numerics=v3
//! QW1 ENTRY <restarts> <solver> <key payload> <outcome payload>
//! ```
//!
//! Every entry carries its whole [`Level1Key`] (class, restarts and the
//! solver fingerprint of seed, optimizer and options), and every solve of
//! one key produces the same bits, so one file holds the entries of
//! several seeds, restart counts and optimizers side by side and a lookup
//! hits only an entry whose inputs all match. Loads and saves follow the
//! [`crate::artifact`] policy.
//!
//! **Merge policy:** [`save_merge`] unions the file's entries *as read at
//! save time* with the in-memory snapshot (which wins; both hold the same
//! bits), so processes sharing one file enrich rather than clobber it.
//! There is **no file locking**: of two simultaneous saves the later
//! rename wins, and entries only the earlier saver held are re-solved by a
//! later run — a redundant solve, never a wrong value.

use std::collections::BTreeMap;
use std::path::Path;

use qaoa::InstanceOutcome;

use crate::artifact::{self, Load};
use crate::cache::{Level1Cache, Level1Key};
use crate::wire;

/// Version tag opening the cache-file header; bump alongside any format
/// change so stale files are discarded rather than misread. (`QCACHE3`
/// keys each entry on its solver fingerprint too, so files stopped being
/// scoped to one seed; `QCACHE2` and older files are discarded.)
pub const CACHE_VERSION: &str = "QCACHE3";

/// What [`load_into`] found on disk: the number of entries pre-warmed.
pub type LoadStatus = Load<usize>;

impl LoadStatus {
    /// One-line human summary for driver logs.
    #[must_use]
    pub fn summary(&self) -> String {
        match self {
            Load::Missing => "cold start (no cache file)".into(),
            Load::Loaded(n) => format!("pre-warmed {n} cached depth-1 entries"),
            Load::Discarded(why) => format!("cache file discarded ({why}); starting cold"),
        }
    }
}

/// Parses the full text of a cache file.
///
/// # Errors
///
/// Rejects a header of another version or numerics, or any malformed
/// entry line — the whole file is treated as untrustworthy (partial loads
/// could hide a truncation bug behind a silently smaller cache).
pub fn parse_entries(text: &str) -> Result<Vec<(Level1Key, InstanceOutcome)>, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header = lines.next().unwrap_or_default().trim();
    if header != artifact::header(CACHE_VERSION) {
        return Err(format!("cache header `{header}` is stale or corrupt"));
    }
    lines
        .map(|line| wire::decode_entry(line).map_err(|e| e.message))
        .collect()
}

/// Pre-warms `cache` from the file at `path`, tolerating every failure
/// mode (see [`crate::artifact`]). Never touches the hit/miss counters.
pub fn load_into(cache: &Level1Cache, path: &Path) -> LoadStatus {
    match artifact::read(path, parse_entries) {
        Load::Loaded(entries) => {
            let n = entries.len();
            for (key, outcome) in entries {
                cache.insert(key, outcome);
            }
            Load::Loaded(n)
        }
        Load::Missing => Load::Missing,
        Load::Discarded(why) => Load::Discarded(why),
    }
}

/// Writes `cache`'s finished entries to `path`, merged with whatever valid
/// entries the file already holds (in-memory values win), atomically.
/// Returns the number of entries written.
///
/// # Errors
///
/// Propagates I/O errors from the final write/rename (an unreadable or
/// corrupt *existing* file is silently replaced, per the failure policy).
pub fn save_merge(cache: &Level1Cache, path: &Path) -> std::io::Result<usize> {
    let mut merged: BTreeMap<Level1Key, InstanceOutcome> = BTreeMap::new();
    if let Load::Loaded(existing) = artifact::read(path, parse_entries) {
        merged.extend(existing);
    }
    merged.extend(cache.snapshot());
    let mut text = artifact::header(CACHE_VERSION);
    text.push('\n');
    for (key, outcome) in &merged {
        text.push_str(&wire::encode_entry(key, outcome));
        text.push('\n');
    }
    artifact::write_atomic(path, text.as_bytes())?;
    Ok(merged.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use optimize::{Lbfgsb, Options, Termination};
    use qaoa::canonical::graph_key;
    use qaoa::datagen::{level1_solver, solve_level1};

    /// Cache key for `g` at the tests' default restarts count, under the
    /// default L-BFGS-B solve at `seed`.
    fn key_at(g: &graphs::Graph, seed: u64) -> Level1Key {
        let config = crate::BatchConfig {
            master_seed: seed,
            ..crate::BatchConfig::default()
        };
        Level1Key::for_solve(g, &Lbfgsb::default(), 2, &config)
    }

    fn k(g: &graphs::Graph) -> Level1Key {
        key_at(g, 2020)
    }

    fn outcome(tag: f64) -> InstanceOutcome {
        InstanceOutcome {
            params: vec![tag, tag / 2.0],
            expectation: tag,
            approximation_ratio: 1.0,
            function_calls: 5,
            gradient_calls: 1,
            termination: Termination::FtolSatisfied,
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("qcache_{}_{tag}.cache", std::process::id()))
    }

    /// Every bit of an outcome's floats.
    fn bits(o: &InstanceOutcome) -> Vec<u64> {
        let mut b: Vec<u64> = o.params.iter().map(|x| x.to_bits()).collect();
        b.extend([o.expectation.to_bits(), o.approximation_ratio.to_bits()]);
        b
    }

    /// Looks `key` up in `cache`, solving it for real on a miss, and checks
    /// that a foreign entry was not served: the lookup misses and returns
    /// the bits of a cold `solve_level1` at `seed`.
    fn assert_re_solves(cache: &Level1Cache, key: &Level1Key, seed: u64) {
        let solve = || {
            solve_level1(
                &key.class,
                &Lbfgsb::default(),
                key.restarts,
                seed,
                &Options::default(),
            )
        };
        let (got, hit) = cache.get_or_solve(key, solve).unwrap();
        assert!(!hit, "a foreign entry must never be served");
        let cold = solve().unwrap();
        assert_eq!(bits(&got), bits(&cold));
        assert_eq!(got.function_calls, cold.function_calls);
    }

    #[test]
    fn save_load_round_trip() {
        let path = temp_path("roundtrip");
        let cache = Level1Cache::new();
        cache.insert(k(&generators::cycle(5)), outcome(1.0));
        cache.insert(k(&generators::path(6)), outcome(2.0));
        assert_eq!(save_merge(&cache, &path).unwrap(), 2);

        let warm = Level1Cache::new();
        assert_eq!(load_into(&warm, &path), LoadStatus::Loaded(2));
        assert_eq!(warm.len(), 2);
        assert_eq!((warm.hits(), warm.misses()), (0, 0));
        let (got, hit) = warm
            .get_or_solve(&k(&generators::cycle(5)), || {
                panic!("persisted class must not re-solve")
            })
            .unwrap();
        assert!(hit);
        assert_eq!(got.expectation.to_bits(), 1.0f64.to_bits());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_cold_start() {
        let cache = Level1Cache::new();
        assert_eq!(
            load_into(&cache, Path::new("/nonexistent/qcache.cache")),
            LoadStatus::Missing
        );
        assert!(cache.is_empty());
    }

    #[test]
    fn corrupt_and_stale_files_are_discarded() {
        let cache = Level1Cache::new();
        for (tag, text) in [
            ("huge", huge_entry_file().as_str()),
            ("garbage", "complete nonsense\nmore nonsense\n"),
            // QCACHE2 files were scoped to one seed and their entries carry
            // no solver fingerprint: the whole file is stale.
            (
                "stale",
                "QCACHE2 seed=2020\nQW1 ENTRY 3 2 0-1:3ff0000000000000 - 0 0 0 0 ftol\n",
            ),
            ("othernumerics", "QCACHE3 numerics=v2\n"),
            ("extrafield", "QCACHE3 numerics=v3 seed=2020\n"),
            ("empty", ""),
            (
                "truncated",
                "QCACHE3 numerics=v3\nQW1 ENTRY 2 0 3 0-1:3ff00000",
            ),
        ] {
            let path = temp_path(tag);
            std::fs::write(&path, text).unwrap();
            assert!(
                matches!(load_into(&cache, &path), LoadStatus::Discarded(_)),
                "{tag} must be discarded"
            );
            assert!(cache.is_empty(), "{tag} must not pollute the cache");
            std::fs::remove_file(&path).ok();
        }

        // A file solved under another seed is valid: its entry loads, but a
        // lookup at this seed is never served it and re-solves cold.
        let path = temp_path("otherseed");
        let g = generators::cycle(5);
        let foreign = Level1Cache::new();
        foreign.insert(key_at(&g, 7), outcome(9.0));
        save_merge(&foreign, &path).unwrap();
        assert_eq!(load_into(&cache, &path), LoadStatus::Loaded(1));
        assert_re_solves(&cache, &k(&g), 2020);
        std::fs::remove_file(&path).ok();
    }

    /// A cache file whose second entry claims 10^14 nodes.
    fn huge_entry_file() -> String {
        let good = wire::encode_entry(&k(&generators::path(4)), &outcome(1.0));
        let mut fields: Vec<&str> = good.split(' ').collect();
        assert_eq!(fields[4], "4", "n_nodes follows restarts and solver");
        fields[4] = "100000000000000";
        let huge = fields.join(" ");
        format!("{}\n{good}\n{huge}\n", artifact::header(CACHE_VERSION))
    }

    #[test]
    fn save_merge_drops_a_file_with_a_huge_entry() {
        let path = temp_path("huge_merge");
        std::fs::write(&path, huge_entry_file()).unwrap();
        let cache = Level1Cache::new();
        cache.insert(k(&generators::star(5)), outcome(3.0));
        assert_eq!(save_merge(&cache, &path).unwrap(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("100000000000000"), "{text}");
        let warm = Level1Cache::new();
        assert_eq!(load_into(&warm, &path), LoadStatus::Loaded(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_merge_unions_with_existing_file() {
        let path = temp_path("merge");
        let g = generators::cycle(5);
        let a = Level1Cache::new();
        a.insert(k(&g), outcome(1.0));
        save_merge(&a, &path).unwrap();
        // A second process with a different class merges, not clobbers.
        let b = Level1Cache::new();
        b.insert(k(&generators::star(5)), outcome(3.0));
        assert_eq!(save_merge(&b, &path).unwrap(), 2);
        let warm = Level1Cache::new();
        assert_eq!(load_into(&warm, &path), LoadStatus::Loaded(2));
        // A run at another seed merges too: its entry for the same class
        // sits next to the seed-2020 one, and neither serves the other.
        let c = Level1Cache::new();
        c.insert(key_at(&g, 7), outcome(5.0));
        assert_eq!(save_merge(&c, &path).unwrap(), 3);
        let warm = Level1Cache::new();
        assert_eq!(load_into(&warm, &path), LoadStatus::Loaded(3));
        for (seed, tag) in [(2020, 1.0f64), (7, 5.0)] {
            let (got, hit) = warm
                .get_or_solve(&key_at(&g, seed), || panic!("persisted entry"))
                .unwrap();
            assert!(hit);
            assert_eq!(got.expectation.to_bits(), tag.to_bits());
        }
        assert_re_solves(&warm, &key_at(&g, 8), 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restart_variants_of_one_class_coexist_in_one_file() {
        // A run with --restarts 2 and a run with --restarts 3 share the
        // file: their entries for the same canonical class are distinct and
        // neither ever serves the other (the review's warm-run purity bug).
        let path = temp_path("restart_variants");
        let class = graph_key(&generators::cycle(5));
        let solver = level1_solver(&Lbfgsb::default(), 2020, &Options::default());
        let a = Level1Cache::new();
        a.insert(
            Level1Key {
                class: class.clone(),
                restarts: 2,
                solver,
            },
            outcome(2.0),
        );
        save_merge(&a, &path).unwrap();
        let b = Level1Cache::new();
        b.insert(
            Level1Key {
                class: class.clone(),
                restarts: 3,
                solver,
            },
            outcome(3.0),
        );
        assert_eq!(save_merge(&b, &path).unwrap(), 2);

        let warm = Level1Cache::new();
        assert_eq!(load_into(&warm, &path), LoadStatus::Loaded(2));
        for (restarts, tag) in [(2usize, 2.0f64), (3, 3.0)] {
            let (got, hit) = warm
                .get_or_solve(
                    &Level1Key {
                        class: class.clone(),
                        restarts,
                        solver,
                    },
                    || panic!("persisted variant must not re-solve"),
                )
                .unwrap();
            assert!(hit);
            assert_eq!(got.expectation.to_bits(), tag.to_bits());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_merge_replaces_a_corrupt_file() {
        let path = temp_path("replace");
        std::fs::write(&path, "not a cache\n").unwrap();
        let cache = Level1Cache::new();
        cache.insert(k(&generators::path(4)), outcome(4.0));
        assert_eq!(save_merge(&cache, &path).unwrap(), 1);
        let warm = Level1Cache::new();
        assert_eq!(load_into(&warm, &path), LoadStatus::Loaded(1));
        std::fs::remove_file(&path).ok();
    }
}

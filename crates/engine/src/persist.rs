//! Cross-process persistence of the depth-1 optimum cache.
//!
//! The [`Level1Cache`] is keyed by [`Level1Key`] — a stable,
//! process-independent identity pairing the canonical graph class
//! ([`qaoa::canonical::CanonicalGraphKey`]) with the solve's restarts
//! count — and every solve of one key produces
//! the same bits (solved on the canonical representative, seeded from the
//! class hash and the restarts count). Its contents are therefore safe to
//! carry across processes: this module saves the cache to a versioned text
//! file and pre-warms a fresh cache from it, so a second run of any driver
//! starts with every previously-seen key already solved.
//!
//! File format (line-delimited, built on [`crate::wire`]):
//!
//! ```text
//! QCACHE2 seed=<master seed>
//! QW1 ENTRY <restarts> <key payload> <outcome payload>
//! ...
//! ```
//!
//! A persisted depth-1 optimum is a pure function of
//! `(master_seed, class, restarts)`. The header scopes the file to the
//! batch master seed — loading entries solved under a different seed would
//! make a run's output depend on cache-file history instead of its own
//! flags — and each entry records the restarts count it was solved with,
//! so runs (or job-server sessions) with different `--restarts` can share
//! one file: a lookup only ever hits an entry with the same restarts
//! count, and the variants coexist as distinct entries. A seed-mismatched
//! file is treated exactly like a stale version — discarded and
//! regenerated.
//!
//! **Failure policy:** a missing, truncated, corrupt, or version-mismatched
//! file is *never* a hard error — [`load_into`] reports
//! [`LoadStatus::Discarded`] and leaves the cache cold, and the next
//! [`save_merge`] atomically replaces the bad file. The cache is an
//! optimization; losing it must never take a run down.
//!
//! **Merge policy:** [`save_merge`] unions the file's entries *as read at
//! save time* with the in-memory snapshot before writing, so processes
//! sharing one cache file sequentially enrich rather than clobber it.
//! Conflicts are benign by the determinism contract (both sides computed
//! the same bits); the in-memory value wins. The write goes to a
//! per-process temp file followed by an atomic rename, so readers never
//! observe a half-written cache. There is **no file locking**: two
//! processes saving *simultaneously* race read-merge-write, and the later
//! rename wins — entries only the earlier saver held are dropped and
//! simply re-solved (and re-persisted) by a later run. A lost entry costs
//! one redundant solve, never a wrong value.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use qaoa::InstanceOutcome;

use crate::cache::{Level1Cache, Level1Key};
use crate::wire::{self, WireError};

/// Version tag opening the cache-file header; bump alongside any format
/// change so stale files are discarded rather than misread. (`QCACHE2`
/// added the per-entry restarts count; `QCACHE1` files, which conflated
/// restart counts, are discarded and regenerated.)
pub const CACHE_VERSION: &str = "QCACHE2";

/// What [`load_into`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadStatus {
    /// No file at the path — a cold start.
    Missing,
    /// The file was valid; this many entries were pre-warmed.
    Loaded(usize),
    /// The file was unreadable, corrupt, or version-mismatched and was
    /// ignored wholesale (it will be regenerated by the next save).
    Discarded(String),
}

impl LoadStatus {
    /// One-line human summary for driver logs.
    #[must_use]
    pub fn summary(&self) -> String {
        match self {
            LoadStatus::Missing => "cold start (no cache file)".into(),
            LoadStatus::Loaded(n) => format!("pre-warmed {n} cached depth-1 entries"),
            LoadStatus::Discarded(why) => format!("cache file discarded ({why}); starting cold"),
        }
    }
}

/// Parses the full text of a cache file scoped to `master_seed`.
///
/// # Errors
///
/// Rejects a missing/mismatched/misseeded header or any malformed entry
/// line — the whole file is treated as untrustworthy (partial loads could
/// hide a truncation bug behind a silently smaller cache).
pub fn parse_entries(
    text: &str,
    master_seed: u64,
) -> Result<Vec<(Level1Key, InstanceOutcome)>, WireError> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let expected = format!("{CACHE_VERSION} seed={master_seed}");
    match lines.next() {
        Some(header) if header.trim() == expected => {}
        Some(other) => {
            return Err(WireError {
                message: format!(
                    "cache header `{}` is not `{expected}` (stale version or other seed)",
                    other.trim()
                ),
            })
        }
        None => {
            return Err(WireError {
                message: "cache file is empty".into(),
            })
        }
    }
    lines.map(wire::decode_entry).collect()
}

/// Pre-warms `cache` from the file at `path`, tolerating every failure
/// mode (see the module docs). Never touches the hit/miss counters.
pub fn load_into(cache: &Level1Cache, path: &Path, master_seed: u64) -> LoadStatus {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return LoadStatus::Missing,
        Err(e) => return LoadStatus::Discarded(e.to_string()),
    };
    match parse_entries(&text, master_seed) {
        Ok(entries) => {
            let n = entries.len();
            for (key, outcome) in entries {
                cache.insert(key, outcome);
            }
            LoadStatus::Loaded(n)
        }
        Err(e) => LoadStatus::Discarded(e.message),
    }
}

/// Writes `cache`'s finished entries to `path`, merged with whatever valid
/// entries the file already holds (in-memory values win), via a temp file
/// and atomic rename. Returns the number of entries written.
///
/// # Errors
///
/// Propagates I/O errors from the final write/rename (an unreadable or
/// corrupt *existing* file is silently replaced, per the failure policy).
pub fn save_merge(cache: &Level1Cache, path: &Path, master_seed: u64) -> std::io::Result<usize> {
    let mut merged: BTreeMap<Level1Key, InstanceOutcome> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        if let Ok(existing) = parse_entries(&text, master_seed) {
            merged.extend(existing);
        }
    }
    for (key, outcome) in cache.snapshot() {
        merged.insert(key, outcome);
    }

    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        writeln!(file, "{CACHE_VERSION} seed={master_seed}")?;
        for (key, outcome) in &merged {
            writeln!(file, "{}", wire::encode_entry(key, outcome))?;
        }
        file.flush()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(merged.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::generators;
    use optimize::Termination;
    use qaoa::canonical::graph_key;

    /// Cache key for `g` at the tests' default restarts count.
    fn k(g: &graphs::Graph) -> Level1Key {
        Level1Key::new(graph_key(g), 2)
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

    #[test]
    fn save_load_round_trip() {
        let path = temp_path("roundtrip");
        let cache = Level1Cache::new();
        cache.insert(k(&generators::cycle(5)), outcome(1.0));
        cache.insert(k(&generators::path(6)), outcome(2.0));
        assert_eq!(save_merge(&cache, &path, 2020).unwrap(), 2);

        let warm = Level1Cache::new();
        assert_eq!(load_into(&warm, &path, 2020), LoadStatus::Loaded(2));
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
            load_into(&cache, Path::new("/nonexistent/qcache.cache"), 2020),
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
            // QCACHE1 predates the per-entry restarts count: its entries
            // conflated restart counts, so the whole file is stale.
            (
                "stale",
                "QCACHE1 seed=2020\nQW1 ENTRY 3 0-1:3ff0000000000000 - 0 0 0 0 ftol\n",
            ),
            ("otherseed", "QCACHE2 seed=7\n"),
            ("empty", ""),
            ("truncated", "QCACHE2 seed=2020\nQW1 ENTRY 2 3 0-1:3ff00000"),
        ] {
            let path = temp_path(tag);
            std::fs::write(&path, text).unwrap();
            assert!(
                matches!(load_into(&cache, &path, 2020), LoadStatus::Discarded(_)),
                "{tag} must be discarded"
            );
            assert!(cache.is_empty(), "{tag} must not pollute the cache");
            std::fs::remove_file(&path).ok();
        }
    }

    /// A cache file whose second entry claims 10^14 nodes.
    fn huge_entry_file() -> String {
        let good = wire::encode_entry(&k(&generators::path(4)), &outcome(1.0));
        let huge = good.replacen("ENTRY 2 4 ", "ENTRY 2 100000000000000 ", 1);
        assert_ne!(good, huge);
        format!("QCACHE2 seed=2020\n{good}\n{huge}\n")
    }

    #[test]
    fn save_merge_drops_a_file_with_a_huge_entry() {
        let path = temp_path("huge_merge");
        std::fs::write(&path, huge_entry_file()).unwrap();
        let cache = Level1Cache::new();
        cache.insert(k(&generators::star(5)), outcome(3.0));
        assert_eq!(save_merge(&cache, &path, 2020).unwrap(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("100000000000000"), "{text}");
        let warm = Level1Cache::new();
        assert_eq!(load_into(&warm, &path, 2020), LoadStatus::Loaded(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_merge_unions_with_existing_file() {
        let path = temp_path("merge");
        let a = Level1Cache::new();
        a.insert(k(&generators::cycle(5)), outcome(1.0));
        save_merge(&a, &path, 2020).unwrap();
        // A second process with a different class merges, not clobbers.
        let b = Level1Cache::new();
        b.insert(k(&generators::star(5)), outcome(3.0));
        assert_eq!(save_merge(&b, &path, 2020).unwrap(), 2);
        let warm = Level1Cache::new();
        assert_eq!(load_into(&warm, &path, 2020), LoadStatus::Loaded(2));
        // A different seed refuses to merge the foreign entries and scopes
        // the rewritten file to itself.
        let c = Level1Cache::new();
        c.insert(k(&generators::path(3)), outcome(5.0));
        assert_eq!(save_merge(&c, &path, 7).unwrap(), 1);
        let warm = Level1Cache::new();
        assert!(matches!(
            load_into(&warm, &path, 2020),
            LoadStatus::Discarded(_)
        ));
        assert_eq!(load_into(&warm, &path, 7), LoadStatus::Loaded(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restart_variants_of_one_class_coexist_in_one_file() {
        // A run with --restarts 2 and a run with --restarts 3 share the
        // file: their entries for the same canonical class are distinct and
        // neither ever serves the other (the review's warm-run purity bug).
        let path = temp_path("restart_variants");
        let class = graph_key(&generators::cycle(5));
        let a = Level1Cache::new();
        a.insert(Level1Key::new(class.clone(), 2), outcome(2.0));
        save_merge(&a, &path, 2020).unwrap();
        let b = Level1Cache::new();
        b.insert(Level1Key::new(class.clone(), 3), outcome(3.0));
        assert_eq!(save_merge(&b, &path, 2020).unwrap(), 2);

        let warm = Level1Cache::new();
        assert_eq!(load_into(&warm, &path, 2020), LoadStatus::Loaded(2));
        for (restarts, tag) in [(2usize, 2.0f64), (3, 3.0)] {
            let (got, hit) = warm
                .get_or_solve(&Level1Key::new(class.clone(), restarts), || {
                    panic!("persisted variant must not re-solve")
                })
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
        assert_eq!(save_merge(&cache, &path, 2020).unwrap(), 1);
        let warm = Level1Cache::new();
        assert_eq!(load_into(&warm, &path, 2020), LoadStatus::Loaded(1));
        std::fs::remove_file(&path).ok();
    }
}

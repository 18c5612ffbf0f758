//! The one policy of every file of solved bits: the depth-1 cache
//! ([`crate::persist`]), the trained predictor ([`crate::model`]) and the
//! bench drivers' corpus TSV.
//!
//! * [`NUMERICS`] names the numerics that produced the bits: it follows
//!   the version in each [`header`] and sits in the corpus file name, so a
//!   numerics change bumps one constant and discards every older file.
//! * [`read`] never fails: a bad file is [`Load::Discarded`] whole, and the
//!   next save replaces it.
//! * [`write_atomic`] renames a temp file, unique per writer (process id
//!   and a process-wide counter), over the target.
//!
//! **No fsync.** A crash can leave a torn file, and every loader already
//! discards one: a `QMODEL` file needs its `END` count, a corpus TSV its
//! trailing newline and record count, and a `QCACHE` file is dropped whole
//! at a cut line (one cut at a line end holds only whole entries). A crash
//! costs a re-solve, never wrong bits.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The numerics version of every artifact of solved bits (`v3`: analytic
/// adjoint gradients).
pub const NUMERICS: &str = "v3";

/// What [`read`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Load<T> {
    /// No file at the path.
    Missing,
    /// The whole file parsed to this value.
    Loaded(T),
    /// The file was ignored, for this reason.
    Discarded(String),
}

/// Reads the artifact at `path` and parses its whole text with `parse`.
pub fn read<T>(path: &Path, parse: impl FnOnce(&str) -> Result<T, String>) -> Load<T> {
    match std::fs::read_to_string(path) {
        Ok(text) => match parse(&text) {
            Ok(value) => Load::Loaded(value),
            Err(why) => Load::Discarded(why),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Load::Missing,
        Err(e) => Load::Discarded(e.to_string()),
    }
}

/// The opening of an artifact header: `<version> numerics=<NUMERICS>`.
#[must_use]
pub fn header(version: &str) -> String {
    format!("{version} numerics={NUMERICS}")
}

/// Replaces the file at `path` with `contents` through a temp file unique
/// to this call. On failure `path` is left as it was.
///
/// # Errors
///
/// Propagates I/O errors of the write and the rename.
pub fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let tmp = temp_path(path);
    let written = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    written
}

/// A temp name next to `path`, unique per writer.
fn temp_path(path: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}.{n}", std::process::id()));
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("artifact_{}_{tag}", std::process::id()))
    }

    #[test]
    fn read_reports_missing_loaded_and_discarded() {
        let p = path("read");
        std::fs::remove_file(&p).ok();
        assert_eq!(read(&p, |t| Ok(t.len())), Load::Missing);
        write_atomic(&p, b"abc").unwrap();
        assert_eq!(read(&p, |t| Ok(t.len())), Load::Loaded(3));
        assert_eq!(
            read(&p, |_| Err::<usize, _>("bad".into())),
            Load::Discarded("bad".into())
        );
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn concurrent_writers_use_distinct_temp_files() {
        let p = path("race");
        let names: Vec<PathBuf> = (0..4).map(|_| temp_path(&p)).collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        std::thread::scope(|s| {
            for i in 0..4u8 {
                let p = &p;
                s.spawn(move || write_atomic(p, &[i; 4096]).unwrap());
            }
        });
        // Whichever rename came last, the file is one writer's bytes whole.
        let bytes = std::fs::read(&p).unwrap();
        assert_eq!(bytes.len(), 4096);
        assert!(bytes.iter().all(|&b| b == bytes[0]));
        std::fs::remove_file(&p).ok();
    }
}

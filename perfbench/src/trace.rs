//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start, an end, the span that caused it, and a group
//! id shared by the spans of one request or range. Spans are kept in
//! memory while the run lasts and written out once it ends. A disabled
//! tracer records nothing, so untraced runs pay only a branch.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Id of "no parent" and "no group".
pub const ROOT: u64 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub group: u64,
    pub name: String,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves a span id, so children can name their parent before it
    /// ends. Disabled tracers hand out [`ROOT`].
    pub fn open(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            ROOT
        }
    }

    /// Records a finished span under an id from [`Tracer::open`].
    pub fn close(&self, id: u64, name: &str, parent: u64, group: u64, start: Instant) {
        self.record(id, name, parent, group, start, Instant::now());
    }

    /// Records a span whose end was taken elsewhere.
    pub fn record(
        &self,
        id: u64,
        name: &str,
        parent: u64,
        group: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent,
            group,
            name: name.to_string(),
            start,
            end,
        };
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .push(span);
    }

    /// Runs `f` inside a span; `f` receives the span's id for its children.
    pub fn span<T>(&self, name: &str, parent: u64, group: u64, f: impl FnOnce(u64) -> T) -> T {
        let id = self.open();
        let start = Instant::now();
        let out = f(id);
        self.close(id, name, parent, group, start);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .clone()
    }

    /// Writes every span as tab-separated `id parent group name start_us
    /// end_us`, times relative to the tracer's creation.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tgroup\tname\tstart_us\tend_us")?;
        let micros = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        for s in self.spans() {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{:.3}\t{:.3}",
                s.id,
                s.parent,
                s.group,
                s.name,
                micros(s.start),
                micros(s.end)
            )?;
        }
        out.flush()
    }
}

/// Share of span `parent`'s duration covered by its direct children (the
/// complement of its self time).
pub fn child_coverage(spans: &[Span], parent: u64) -> f64 {
    let Some(root) = spans.iter().find(|s| s.id == parent) else {
        return 0.0;
    };
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == parent)
        .map(Span::seconds)
        .sum();
    children / root.seconds()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let value = tracer.span("work", ROOT, 7, |id| {
            assert_eq!(id, ROOT);
            42
        });
        assert_eq!(value, 42);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_cover_their_parent() {
        let tracer = Tracer::new(true);
        let root = tracer.span("root", ROOT, 0, |root| {
            tracer.span("a", root, 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            tracer.span("b", root, 2, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            root
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans.iter().filter(|s| s.name == "a").count(), 1);
        assert!(spans
            .iter()
            .filter(|s| s.parent == root)
            .all(|s| s.group > 0));
        let coverage = child_coverage(&spans, root);
        assert!(coverage > 0.9 && coverage <= 1.0, "coverage {coverage}");
    }
}

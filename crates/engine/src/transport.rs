//! Pluggable line transports for the streaming shard coordinator.
//!
//! [`crate::shard::run_streaming`] drives workers through the
//! [`ShardTransport`] trait: a full-duplex, line-oriented channel per
//! worker with incremental receive and worker-death detection. Two
//! implementations ship here:
//!
//! * [`PipeTransport`] — workers that read `QW1` lines from one OS pipe
//!   and write their answers to another. A worker is either an in-process
//!   thread running [`crate::server::serve`] ([`LoopbackTransport`], what
//!   tests and single-machine wire rehearsals use) or a spawned process,
//!   normally `qaoa-serve`, on its stdin/stdout ([`SubprocessTransport`]).
//!   Both kinds go through one reader thread, so loopback output meets the
//!   same 1 MiB line cap and UTF-8 rule as a spawned worker's. Worker exit,
//!   a closed pipe, a kill, or an output line over the cap or not UTF-8 all
//!   surface as [`TransportError::Dead`], which the coordinator answers by
//!   re-tasking the worker's range on a survivor.
//! * [`KillAfter`] / [`StallAfter`] — fault injectors wrapping any inner
//!   transport: deterministic worker death and silent stalls, used by the
//!   failover test-suite and `qaoa-shard --kill-worker`.
//!
//! The trait is deliberately clock-free: `recv_line` takes a wait budget
//! as a [`Duration`] and reports [`TransportError::Timeout`] when nothing
//! arrived, but only the coordinator (an allowed wall-clock module)
//! decides when accumulated silence becomes worker death.

use std::fmt;
use std::io::{BufRead, BufReader, LineWriter, Read, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::batch::{BatchConfig, Engine};
use crate::cache::Level1Cache;

/// Why a transport operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The worker is gone for good: its process exited, a pipe closed, its
    /// thread hung up, or it was already killed. Every later operation on
    /// the same worker fails the same way.
    Dead(String),
    /// No complete line arrived within the wait budget. The worker may
    /// simply still be computing — the coordinator decides when silence
    /// becomes death.
    Timeout,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Dead(message) => write!(f, "worker dead: {message}"),
            TransportError::Timeout => write!(f, "no line within the wait budget"),
        }
    }
}

impl std::error::Error for TransportError {}

/// A full-duplex, line-oriented channel to a fixed set of workers.
///
/// Workers are addressed `0..workers()`. Lines carry no trailing newline.
/// A worker that reports [`TransportError::Dead`] once is gone: the
/// coordinator never re-spawns it, it re-tasks the dead worker's work onto
/// survivors (safe because re-run ranges return bit-identical records).
pub trait ShardTransport {
    /// Number of worker slots (dead ones included).
    fn workers(&self) -> usize;

    /// Sends one line (newline appended by the transport) to a worker.
    ///
    /// # Errors
    ///
    /// [`TransportError::Dead`] when the worker cannot accept input.
    fn send_line(&mut self, worker: usize, line: &str) -> Result<(), TransportError>;

    /// Receives the next complete line from a worker, waiting at most
    /// roughly `wait` (implementations may overshoot while assembling a
    /// partially-arrived line).
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when no line arrived in time;
    /// [`TransportError::Dead`] when the worker hung up.
    fn recv_line(&mut self, worker: usize, wait: Duration) -> Result<String, TransportError>;

    /// Forcibly tears a worker down (kill the process, hang up the
    /// channel). Idempotent; a no-op for workers already gone.
    fn kill(&mut self, worker: usize);

    /// Gracefully shuts a worker down: signals end-of-input and waits for
    /// it to finish (fold caches, persist state, exit). Idempotent; a
    /// no-op for workers already gone.
    fn close(&mut self, worker: usize);
}

// --- worker slots ----------------------------------------------------------

/// The longest `QW1` line a worker may send, or a server may receive, in
/// bytes, newline excluded. `QW1` lines are a few hundred bytes; the cap
/// only exists so a runaway peer cannot grow the reader's memory without
/// limit. A longer worker line makes that worker [`TransportError::Dead`],
/// and its range is re-tasked; a longer request line is answered `ERR` by
/// the server (`server::serve`).
pub(crate) const MAX_LINE_BYTES: u64 = 1 << 20;

/// What a worker's reader thread hands the coordinator: a line, or why the
/// worker's output became unusable.
type LineReceiver = mpsc::Receiver<Result<String, String>>;

/// What runs behind a worker slot.
enum Process {
    /// A spawned worker process.
    Child(Child),
    /// An in-process [`crate::server::serve`] loop on its own thread.
    Thread(JoinHandle<()>),
}

/// One worker: the write end of its input pipe, the lines its reader
/// thread forwards from its output pipe, and the process behind both.
struct WorkerSlot {
    stdin: Option<Box<dyn Write + Send>>,
    lines: Option<LineReceiver>,
    process: Option<Process>,
    reader: Option<JoinHandle<()>>,
    /// Why the slot is unusable, once it is.
    fate: Option<String>,
}

impl WorkerSlot {
    /// A slot that never worked: every operation on it reports `fate`.
    fn dead(fate: String) -> Self {
        Self {
            stdin: None,
            lines: None,
            process: None,
            reader: None,
            fate: Some(fate),
        }
    }

    /// Starts the reader thread over `output` and assembles the slot; if
    /// the thread cannot start, `process` is torn down.
    fn attach<R: Read + Send + 'static>(
        stdin: Box<dyn Write + Send>,
        output: R,
        process: Process,
    ) -> std::io::Result<Self> {
        let mut slot = Self {
            stdin: Some(stdin),
            lines: None,
            process: Some(process),
            reader: None,
            fate: None,
        };
        let (lines, reader) = spawn_reader(output)
            .inspect_err(|_| slot.tear_down("reader thread failed to start"))?;
        slot.lines = Some(lines);
        slot.reader = Some(reader);
        Ok(slot)
    }

    /// Hangs up both pipes and stops the worker. Idempotent.
    ///
    /// A child is killed and reaped, and its reader joined (it sees end of
    /// input at once). A thread cannot be killed: with its input at end of
    /// input and its reader gone after the next line, it winds down on its
    /// own, so it and its reader are detached rather than joined — it may be
    /// mid-solve, and a kill must not block the coordinator.
    fn tear_down(&mut self, fate: &str) {
        self.stdin = None;
        self.lines = None;
        if let Some(Process::Child(mut child)) = self.process.take() {
            let _ = child.kill();
            let _ = child.wait(); // reap; no zombies
            if let Some(reader) = self.reader.take() {
                let _ = reader.join();
            }
        }
        self.reader = None;
        self.fate.get_or_insert_with(|| fate.to_string());
    }
}

/// The reader thread behind every worker slot: reads `output` through
/// [`read_capped_line`] and forwards each line until end of input. A line
/// over [`MAX_LINE_BYTES`] or not UTF-8 is forwarded as an `Err` and ends
/// the stream. The thread decouples pipe draining from the coordinator's
/// poll loop, so a worker never blocks on a full pipe while the
/// coordinator is busy elsewhere.
fn spawn_reader<R: Read + Send + 'static>(
    output: R,
) -> std::io::Result<(LineReceiver, JoinHandle<()>)> {
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::Builder::new().spawn(move || {
        let mut output = BufReader::new(output);
        while let Ok(Some(line)) = read_capped_line(&mut output) {
            let line = line.map_err(|bad| format!("worker sent {bad}"));
            let fatal = line.is_err();
            if tx.send(line).is_err() || fatal {
                break;
            }
        }
    })?;
    Ok((rx, reader))
}

/// Why [`read_capped_line`] refused a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BadLine {
    /// Longer than [`MAX_LINE_BYTES`]; the rest of it is still unread
    /// (see [`skip_line`]).
    TooLong,
    /// Not UTF-8; the whole line was consumed.
    NotUtf8,
}

impl fmt::Display for BadLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BadLine::TooLong => write!(f, "a line longer than {MAX_LINE_BYTES} bytes"),
            BadLine::NotUtf8 => write!(f, "a line that is not UTF-8"),
        }
    }
}

/// Reads one `\n`-terminated line (a trailing `\r` is dropped too), holding
/// at most [`MAX_LINE_BYTES`] + 1 bytes of it. `Ok(None)` at end of input,
/// `Ok(Some(Err))` for a line over the cap or not UTF-8.
///
/// # Errors
///
/// Any read error of `reader`.
pub(crate) fn read_capped_line<R: BufRead>(
    reader: &mut R,
) -> std::io::Result<Option<Result<String, BadLine>>> {
    let mut line = Vec::new();
    let mut capped = reader.take(MAX_LINE_BYTES + 1);
    if capped.read_until(b'\n', &mut line)? == 0 {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if capped.limit() == 0 {
        return Ok(Some(Err(BadLine::TooLong)));
    }
    Ok(Some(String::from_utf8(line).map_err(|_| BadLine::NotUtf8)))
}

/// Discards input through the next `\n`, or to end of input, one buffer
/// at a time without keeping any of it: the unread rest of a line that
/// [`read_capped_line`] refused as [`BadLine::TooLong`].
///
/// # Errors
///
/// Any read error of `reader`.
pub(crate) fn skip_line<R: BufRead>(reader: &mut R) -> std::io::Result<()> {
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(());
        }
        if let Some(end) = buf.iter().position(|&b| b == b'\n') {
            reader.consume(end + 1);
            return Ok(());
        }
        let len = buf.len();
        reader.consume(len);
    }
}

/// Starts one in-process worker: a fresh [`Engine`] with `threads` pool
/// workers serving `QW1` over two OS pipes until end of input, then a fold
/// into the shared cache. The fold also runs when serve aborts early
/// (coordinator hung up): depth-1 entries are pure functions of their key,
/// so folding a partial set is always sound.
fn start_thread_worker(
    threads: usize,
    master_seed: u64,
    shared: Option<Arc<Level1Cache>>,
) -> std::io::Result<WorkerSlot> {
    let (input, stdin) = std::io::pipe()?;
    let (output, stdout) = std::io::pipe()?;
    let worker = std::thread::Builder::new().spawn(move || {
        let engine = Engine::new(threads);
        if let Some(cache) = &shared {
            engine.cache().merge_from(cache);
        }
        let config = BatchConfig {
            master_seed,
            ..BatchConfig::default()
        };
        let _ = crate::server::serve(
            BufReader::new(input),
            LineWriter::new(stdout),
            &engine,
            &optimize::Lbfgsb::default(),
            &config,
        );
        if let Some(cache) = &shared {
            cache.merge_from(engine.cache());
        }
    })?;
    WorkerSlot::attach(Box::new(stdin), output, Process::Thread(worker))
}

fn spawn_worker(program: &str, args: &[String]) -> std::io::Result<WorkerSlot> {
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
        let _ = child.kill();
        let _ = child.wait();
        return Err(std::io::Error::new(
            std::io::ErrorKind::BrokenPipe,
            "child pipes not captured",
        ));
    };
    WorkerSlot::attach(Box::new(stdin), stdout, Process::Child(child))
}

/// The one [`ShardTransport`] over worker slots: each worker reads `QW1`
/// lines from a pipe and writes its answers to another, which a reader
/// thread drains through the 1 MiB line cap. Whether the worker is a
/// spawned process ([`SubprocessTransport`]) or an in-process thread
/// ([`LoopbackTransport`]) only changes how it is started and stopped.
///
/// Worker death — a crash, a kill, an exit, a closed pipe, an output line
/// over 1 MiB or not UTF-8 — surfaces as [`TransportError::Dead`] on the
/// next send or receive, which is what the coordinator's failover
/// re-tasking keys off. [`ShardTransport::close`] closes the worker's
/// input and waits for it to finish.
pub struct PipeTransport {
    slots: Vec<WorkerSlot>,
}

/// In-process workers: one [`crate::server::serve`] thread per slot over OS
/// pipes, each with a fresh [`Engine`] of `threads` pool workers, exactly
/// like one spawned `qaoa-serve` process. No process overhead; what tests
/// and single-machine wire rehearsals use.
pub type LoopbackTransport = PipeTransport;

/// Spawned worker processes speaking `QW1` over stdin/stdout (normally
/// `qaoa-serve`; stderr passes through). [`ShardTransport::close`] gives
/// workers started with `--cache-file` the chance to persist what they
/// solved.
pub type SubprocessTransport = PipeTransport;

impl PipeTransport {
    /// `workers` in-process serve workers, `threads` pool workers each, no
    /// shared cache (each worker still caches internally).
    #[must_use]
    pub fn new(workers: usize, threads: usize) -> Self {
        Self::with_cache(workers, threads, BatchConfig::default().master_seed, None)
    }

    /// [`PipeTransport::new`] plus a shared depth-1 cache: every worker
    /// pre-warms from `cache` at spawn and folds its entries back when it
    /// finishes (before [`ShardTransport::close`] returns), mirroring what
    /// per-worker `--cache-file`s plus a merge give spawned workers.
    /// `master_seed` must equal the corpus spec's seed for the worker-side
    /// fold to engage (the server only folds seed-matching sessions — see
    /// [`crate::server`]). A worker whose pipes or thread cannot be created
    /// is dead from the start.
    #[must_use]
    pub fn with_cache(
        workers: usize,
        threads: usize,
        master_seed: u64,
        cache: Option<Arc<Level1Cache>>,
    ) -> Self {
        let slots = (0..workers.max(1))
            .map(|_| {
                start_thread_worker(threads, master_seed, cache.clone())
                    .unwrap_or_else(|e| WorkerSlot::dead(format!("starting worker thread: {e}")))
            })
            .collect();
        Self { slots }
    }

    /// Spawns `workers` copies of `command` (argv form: `command[0]` is the
    /// program, the rest its arguments).
    ///
    /// # Errors
    ///
    /// [`TransportError::Dead`] when the command is empty or any spawn
    /// fails; workers spawned before the failure are killed and reaped.
    pub fn spawn(command: &[String], workers: usize) -> Result<Self, TransportError> {
        if command.is_empty() {
            return Err(TransportError::Dead("empty worker command".into()));
        }
        let commands: Vec<Vec<String>> = (0..workers.max(1)).map(|_| command.to_vec()).collect();
        Self::spawn_each(&commands)
    }

    /// Spawns one worker per command in `commands` (each in argv form) —
    /// the constructor for workers that need per-worker arguments, e.g.
    /// distinct `--cache-file` paths so each process persists its own
    /// depth-1 cache for the coordinator to merge.
    ///
    /// # Errors
    ///
    /// [`TransportError::Dead`] when `commands` is empty, any command is
    /// empty, or any spawn fails; workers spawned before the failure are
    /// killed and reaped.
    pub fn spawn_each(commands: &[Vec<String>]) -> Result<Self, TransportError> {
        if commands.is_empty() {
            return Err(TransportError::Dead("no worker commands".into()));
        }
        let mut slots: Vec<WorkerSlot> = Vec::with_capacity(commands.len());
        for (index, command) in commands.iter().enumerate() {
            let spawned = match command.split_first() {
                Some((program, args)) => spawn_worker(program, args),
                None => Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "empty worker command",
                )),
            };
            match spawned {
                Ok(slot) => slots.push(slot),
                Err(e) => {
                    for slot in &mut slots {
                        slot.tear_down("sibling spawn failed");
                    }
                    let program = command.first().map_or("<empty>", String::as_str);
                    return Err(TransportError::Dead(format!(
                        "spawning worker {index} ({program}): {e}"
                    )));
                }
            }
        }
        Ok(Self { slots })
    }

    fn slot(&mut self, worker: usize) -> Result<&mut WorkerSlot, TransportError> {
        let count = self.slots.len();
        self.slots.get_mut(worker).ok_or_else(|| {
            TransportError::Dead(format!("worker {worker} of {count} (no such slot)"))
        })
    }
}

impl ShardTransport for PipeTransport {
    fn workers(&self) -> usize {
        self.slots.len()
    }

    fn send_line(&mut self, worker: usize, line: &str) -> Result<(), TransportError> {
        let slot = self.slot(worker)?;
        if let Some(fate) = &slot.fate {
            return Err(TransportError::Dead(fate.clone()));
        }
        let Some(stdin) = &mut slot.stdin else {
            return Err(TransportError::Dead("input already closed".into()));
        };
        let wrote = writeln!(stdin, "{line}").and_then(|()| stdin.flush());
        if let Err(e) = wrote {
            let fate = format!("write to worker failed: {e}");
            slot.tear_down(&fate);
            return Err(TransportError::Dead(fate));
        }
        Ok(())
    }

    fn recv_line(&mut self, worker: usize, wait: Duration) -> Result<String, TransportError> {
        let slot = self.slot(worker)?;
        if let Some(fate) = &slot.fate {
            return Err(TransportError::Dead(fate.clone()));
        }
        let Some(lines) = &slot.lines else {
            return Err(TransportError::Dead("output already closed".into()));
        };
        match lines.recv_timeout(wait) {
            Ok(Ok(line)) => Ok(line),
            Ok(Err(fate)) => {
                slot.tear_down(&fate);
                Err(TransportError::Dead(fate))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // A trailing partial line from a dead worker is not a
                // line; it is discarded with the worker.
                let fate = "worker output closed".to_string();
                slot.tear_down(&fate);
                Err(TransportError::Dead(fate))
            }
        }
    }

    fn kill(&mut self, worker: usize) {
        if let Some(slot) = self.slots.get_mut(worker) {
            slot.tear_down("killed");
        }
    }

    fn close(&mut self, worker: usize) {
        if let Some(slot) = self.slots.get_mut(worker) {
            if slot.fate.is_some() {
                return;
            }
            slot.stdin = None; // end of input: the worker finishes up
            match slot.process.take() {
                Some(Process::Child(mut child)) => {
                    let _ = child.wait();
                }
                // The shared-cache fold completes before this returns.
                Some(Process::Thread(thread)) => {
                    let _ = thread.join();
                }
                None => {}
            }
            if let Some(reader) = slot.reader.take() {
                let _ = reader.join();
            }
            slot.lines = None;
            slot.fate = Some("closed".to_string());
        }
    }
}

impl Drop for PipeTransport {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            slot.tear_down("transport dropped");
        }
    }
}

// --- fault injection -------------------------------------------------------

/// Fault injector: lets `victim` deliver `after` lines, then kills it.
///
/// The kill is real — the inner worker is torn down — so everything
/// downstream (re-tasking, cache-file merging) sees an honest mid-range
/// death, not a simulation. Used by the failover tests and
/// `qaoa-shard --kill-worker`.
pub struct KillAfter<T: ShardTransport> {
    inner: T,
    victim: usize,
    after: usize,
    seen: usize,
}

impl<T: ShardTransport> KillAfter<T> {
    /// Kills `victim` once it has delivered `after` lines.
    pub fn new(inner: T, victim: usize, after: usize) -> Self {
        Self {
            inner,
            victim,
            after,
            seen: 0,
        }
    }
}

impl<T: ShardTransport> ShardTransport for KillAfter<T> {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn send_line(&mut self, worker: usize, line: &str) -> Result<(), TransportError> {
        self.inner.send_line(worker, line)
    }

    fn recv_line(&mut self, worker: usize, wait: Duration) -> Result<String, TransportError> {
        if worker == self.victim {
            if self.seen >= self.after {
                self.inner.kill(worker);
                return Err(TransportError::Dead(format!(
                    "fault injection: worker {worker} killed after {} lines",
                    self.seen
                )));
            }
            let line = self.inner.recv_line(worker, wait)?;
            self.seen += 1;
            return Ok(line);
        }
        self.inner.recv_line(worker, wait)
    }

    fn kill(&mut self, worker: usize) {
        self.inner.kill(worker);
    }

    fn close(&mut self, worker: usize) {
        self.inner.close(worker);
    }
}

/// Fault injector: lets `victim` deliver `after` lines, then goes silent —
/// every later receive waits out its budget and reports
/// [`TransportError::Timeout`], so the coordinator's liveness timeout is
/// what declares the worker dead. Exercises the timeout → kill → re-task
/// path end to end.
pub struct StallAfter<T: ShardTransport> {
    inner: T,
    victim: usize,
    after: usize,
    seen: usize,
}

impl<T: ShardTransport> StallAfter<T> {
    /// Stalls `victim` once it has delivered `after` lines.
    pub fn new(inner: T, victim: usize, after: usize) -> Self {
        Self {
            inner,
            victim,
            after,
            seen: 0,
        }
    }
}

impl<T: ShardTransport> ShardTransport for StallAfter<T> {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn send_line(&mut self, worker: usize, line: &str) -> Result<(), TransportError> {
        self.inner.send_line(worker, line)
    }

    fn recv_line(&mut self, worker: usize, wait: Duration) -> Result<String, TransportError> {
        if worker == self.victim && self.seen >= self.after {
            // Emulate silence honestly: consume the wait, deliver nothing.
            std::thread::sleep(wait);
            return Err(TransportError::Timeout);
        }
        let line = self.inner.recv_line(worker, wait)?;
        if worker == self.victim {
            self.seen += 1;
        }
        Ok(line)
    }

    fn kill(&mut self, worker: usize) {
        self.inner.kill(worker);
    }

    fn close(&mut self, worker: usize) {
        self.inner.close(worker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire;

    #[test]
    fn loopback_answers_a_predict_less_request_with_err() {
        let mut transport = LoopbackTransport::new(1, 1);
        transport.send_line(0, "QW1 PREDICT 0 1 2 4 0-1").unwrap();
        let line = transport.recv_line(0, Duration::from_secs(30)).unwrap();
        assert_eq!(wire::message_type(&line).unwrap(), "ERR");
        transport.close(0);
        assert!(matches!(
            transport.send_line(0, "x"),
            Err(TransportError::Dead(_))
        ));
    }

    #[test]
    fn loopback_recv_times_out_without_traffic() {
        let mut transport = LoopbackTransport::new(1, 1);
        assert_eq!(
            transport.recv_line(0, Duration::from_millis(10)),
            Err(TransportError::Timeout)
        );
    }

    #[test]
    fn killed_loopback_worker_reports_dead() {
        let mut transport = LoopbackTransport::new(2, 1);
        transport.kill(0);
        assert!(matches!(
            transport.recv_line(0, Duration::from_millis(10)),
            Err(TransportError::Dead(_))
        ));
        // The sibling is unaffected.
        transport.send_line(1, "QW1 RANGE 0 1").unwrap();
        let line = transport.recv_line(1, Duration::from_secs(30)).unwrap();
        assert_eq!(wire::message_type(&line).unwrap(), "ERR"); // RANGE before SHARD
    }

    #[test]
    fn out_of_range_worker_is_dead_not_panic() {
        let mut transport = LoopbackTransport::new(1, 1);
        assert!(matches!(
            transport.send_line(5, "x"),
            Err(TransportError::Dead(_))
        ));
    }

    #[test]
    fn empty_subprocess_command_is_rejected() {
        assert!(matches!(
            SubprocessTransport::spawn(&[], 2),
            Err(TransportError::Dead(_))
        ));
    }

    #[test]
    fn unspawnable_subprocess_command_is_dead() {
        let command = vec!["/nonexistent/qaoa-serve-definitely-missing".to_string()];
        assert!(matches!(
            SubprocessTransport::spawn(&command, 1),
            Err(TransportError::Dead(_))
        ));
    }

    #[test]
    fn capped_reader_takes_the_cap_and_refuses_one_byte_more() {
        let cap = usize::try_from(MAX_LINE_BYTES).unwrap();
        let mut input = vec![b'x'; cap];
        input.extend_from_slice(b"\nshort\r\n");
        input.extend(vec![b'y'; cap + 1]);
        input.push(b'\n');
        let mut reader = std::io::Cursor::new(input);
        let mut next = || read_capped_line(&mut reader).expect("in-memory read");
        assert_eq!(next(), Some(Ok("x".repeat(cap))));
        assert_eq!(next(), Some(Ok("short".into())));
        assert_eq!(next(), Some(Err(BadLine::TooLong)));

        let mut reader = std::io::Cursor::new(b"tail without newline".to_vec());
        let mut next = || read_capped_line(&mut reader).expect("in-memory read");
        assert_eq!(next(), Some(Ok("tail without newline".into())));
        assert_eq!(next(), None);
    }

    #[test]
    fn reader_forwards_good_lines_and_ends_at_the_first_bad_one() {
        let cap = usize::try_from(MAX_LINE_BYTES).unwrap();
        let mut input = b"QW1 RUN -\n\xff\xfe QW1\n".to_vec();
        input.extend(vec![b'z'; cap + 1]);
        input.push(b'\n');
        let (lines, reader) = spawn_reader(std::io::Cursor::new(input)).unwrap();
        reader.join().unwrap();
        let got: Vec<Result<String, String>> = lines.iter().collect();
        assert_eq!(got.len(), 2, "{got:?}");
        assert_eq!(got[0], Ok("QW1 RUN -".to_string()));
        assert!(got[1].as_ref().is_err_and(|fate| fate.contains("UTF-8")));
    }

    #[test]
    fn kill_after_injects_death_and_stall_after_injects_timeouts() {
        let inner = LoopbackTransport::new(1, 1);
        let mut faulty = KillAfter::new(inner, 0, 1);
        faulty.send_line(0, "bogus").unwrap();
        faulty.send_line(0, "bogus again").unwrap();
        // First line (an ERR) passes; the second receive kills the worker.
        let first = faulty.recv_line(0, Duration::from_secs(30)).unwrap();
        assert_eq!(wire::message_type(&first).unwrap(), "ERR");
        assert!(matches!(
            faulty.recv_line(0, Duration::from_secs(30)),
            Err(TransportError::Dead(_))
        ));

        let inner = LoopbackTransport::new(1, 1);
        let mut stalled = StallAfter::new(inner, 0, 0);
        stalled.send_line(0, "bogus").unwrap();
        assert_eq!(
            stalled.recv_line(0, Duration::from_millis(5)),
            Err(TransportError::Timeout)
        );
        assert_eq!(
            stalled.recv_line(0, Duration::from_millis(5)),
            Err(TransportError::Timeout)
        );
    }
}

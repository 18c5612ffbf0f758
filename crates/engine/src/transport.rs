//! Pluggable line transports for the streaming shard coordinator.
//!
//! [`crate::shard::run_streaming`] drives workers through the
//! [`ShardTransport`] trait: a full-duplex, line-oriented channel per
//! worker with incremental receive and worker-death detection. Three
//! implementations ship here:
//!
//! * [`LoopbackTransport`] — the reference implementation: one in-process
//!   thread per worker running [`crate::server::serve`] over in-memory
//!   channel pipes. Behaviorally identical to a subprocess (lines arrive
//!   incrementally, a killed worker hangs up mid-stream) without process
//!   overhead; what tests and single-machine wire rehearsals use.
//! * [`SubprocessTransport`] — the production transport: spawns real
//!   worker processes (normally `qaoa-serve`) and speaks `QW1` over their
//!   stdin/stdout. Worker exit, a closed pipe, a kill, or an output line
//!   over 1 MiB all surface as [`TransportError::Dead`], which the
//!   coordinator answers by re-tasking the worker's range on a survivor.
//! * [`KillAfter`] / [`StallAfter`] — fault injectors wrapping any inner
//!   transport: deterministic worker death and silent stalls, used by the
//!   failover test-suite and `qaoa-shard --kill-worker`.
//!
//! The trait is deliberately clock-free: `recv_line` takes a wait budget
//! as a [`Duration`] and reports [`TransportError::Timeout`] when nothing
//! arrived, but only the coordinator (an allowed wall-clock module)
//! decides when accumulated silence becomes worker death.

use std::collections::VecDeque;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
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

// --- loopback --------------------------------------------------------------

/// Byte chunks from a worker, reassembled into lines on the receive side.
type ChunkReceiver = mpsc::Receiver<Vec<u8>>;

struct LoopbackWorker {
    /// `None` once end-of-input was signalled (close) or the slot killed.
    input: Option<mpsc::Sender<String>>,
    output: Option<ChunkReceiver>,
    /// Complete lines already assembled but not yet handed out.
    pending: VecDeque<String>,
    /// Bytes of a line still missing its terminator.
    partial: Vec<u8>,
    handle: Option<JoinHandle<()>>,
    /// Why the slot is unusable, once it is.
    fate: Option<String>,
}

/// The reference [`ShardTransport`]: one in-process [`crate::server::serve`]
/// worker thread per slot, wired over in-memory channel pipes.
///
/// Each worker owns a fresh [`Engine`] with `threads` pool workers, exactly
/// like one spawned `qaoa-serve` process. With [`LoopbackTransport::with_cache`]
/// the workers additionally warm-start from (and fold back into) a shared
/// depth-1 cache, mirroring what per-worker `--cache-file`s plus a merge
/// give the subprocess transport.
pub struct LoopbackTransport {
    slots: Vec<LoopbackWorker>,
}

impl LoopbackTransport {
    /// `workers` in-process serve workers, `threads` pool workers each, no
    /// shared cache (each worker still caches internally).
    #[must_use]
    pub fn new(workers: usize, threads: usize) -> Self {
        Self::with_cache(workers, threads, BatchConfig::default().master_seed, None)
    }

    /// [`LoopbackTransport::new`] plus a shared depth-1 cache: every worker
    /// pre-warms from `cache` at spawn and folds its entries back when it
    /// finishes (on [`ShardTransport::close`]). `master_seed` must equal
    /// the corpus spec's seed for the worker-side fold to engage (the
    /// server only folds seed-matching sessions — see
    /// [`crate::server`]).
    #[must_use]
    pub fn with_cache(
        workers: usize,
        threads: usize,
        master_seed: u64,
        cache: Option<Arc<Level1Cache>>,
    ) -> Self {
        let slots = (0..workers.max(1))
            .map(|_| {
                let (input_tx, input_rx) = mpsc::channel::<String>();
                let (output_tx, output_rx) = mpsc::channel::<Vec<u8>>();
                let shared = cache.clone();
                let handle = std::thread::spawn(move || {
                    loopback_worker(threads, master_seed, shared, input_rx, output_tx);
                });
                LoopbackWorker {
                    input: Some(input_tx),
                    output: Some(output_rx),
                    pending: VecDeque::new(),
                    partial: Vec::new(),
                    handle: Some(handle),
                    fate: None,
                }
            })
            .collect();
        Self { slots }
    }

    fn slot(&mut self, worker: usize) -> Result<&mut LoopbackWorker, TransportError> {
        let count = self.slots.len();
        self.slots.get_mut(worker).ok_or_else(|| {
            TransportError::Dead(format!("worker {worker} of {count} (no such slot)"))
        })
    }
}

/// One worker thread: a fresh engine serving the channel-piped request
/// stream until end-of-input, then a fold into the shared cache. The fold
/// also runs when serve aborts early (coordinator hung up): depth-1 entries
/// are pure functions of their key, so folding a partial set is always
/// sound.
fn loopback_worker(
    threads: usize,
    master_seed: u64,
    shared: Option<Arc<Level1Cache>>,
    input: mpsc::Receiver<String>,
    output: mpsc::Sender<Vec<u8>>,
) {
    let engine = Engine::new(threads);
    if let Some(cache) = &shared {
        engine.cache().merge_from(cache);
    }
    let config = BatchConfig {
        master_seed,
        ..BatchConfig::default()
    };
    let reader = ChannelReader {
        rx: input,
        buf: Vec::new(),
        pos: 0,
    };
    let writer = ChannelWriter { tx: output };
    let _ = crate::server::serve(
        reader,
        writer,
        &engine,
        &optimize::Lbfgsb::default(),
        &config,
    );
    if let Some(cache) = &shared {
        cache.merge_from(engine.cache());
    }
}

/// Worker-side stdin stand-in: lines from an mpsc channel, exposed as
/// `BufRead`. A hung-up sender reads as end-of-file.
struct ChannelReader {
    rx: mpsc::Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ChannelReader {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.buf = line.into_bytes();
                    self.buf.push(b'\n');
                    self.pos = 0;
                }
                // Coordinator dropped the sender: end of input.
                Err(mpsc::RecvError) => {
                    self.buf.clear();
                    self.pos = 0;
                }
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.buf.len());
    }
}

/// Worker-side stdout stand-in: every write ships its bytes to the
/// coordinator immediately (the pipe itself never buffers, so worker
/// flush discipline only matters for real pipes).
struct ChannelWriter {
    tx: mpsc::Sender<Vec<u8>>,
}

impl Write for ChannelWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.tx.send(buf.to_vec()).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::BrokenPipe, "coordinator hung up")
        })?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl ShardTransport for LoopbackTransport {
    fn workers(&self) -> usize {
        self.slots.len()
    }

    fn send_line(&mut self, worker: usize, line: &str) -> Result<(), TransportError> {
        let slot = self.slot(worker)?;
        if let Some(fate) = &slot.fate {
            return Err(TransportError::Dead(fate.clone()));
        }
        let Some(input) = &slot.input else {
            return Err(TransportError::Dead("input already closed".into()));
        };
        if input.send(line.to_string()).is_err() {
            let fate = "worker thread hung up".to_string();
            slot.fate = Some(fate.clone());
            return Err(TransportError::Dead(fate));
        }
        Ok(())
    }

    fn recv_line(&mut self, worker: usize, wait: Duration) -> Result<String, TransportError> {
        let slot = self.slot(worker)?;
        loop {
            if let Some(line) = slot.pending.pop_front() {
                return Ok(line);
            }
            if let Some(fate) = &slot.fate {
                return Err(TransportError::Dead(fate.clone()));
            }
            let Some(output) = &slot.output else {
                return Err(TransportError::Dead("output already closed".into()));
            };
            match output.recv_timeout(wait) {
                Ok(chunk) => {
                    for byte in chunk {
                        if byte == b'\n' {
                            let line = String::from_utf8_lossy(&slot.partial).into_owned();
                            slot.partial.clear();
                            slot.pending.push_back(line);
                        } else {
                            slot.partial.push(byte);
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => return Err(TransportError::Timeout),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // A trailing partial line from a dead worker is not a
                    // line; it is discarded with the worker.
                    let fate = "worker hung up (end of stream)".to_string();
                    slot.fate = Some(fate.clone());
                    return Err(TransportError::Dead(fate));
                }
            }
        }
    }

    fn kill(&mut self, worker: usize) {
        if let Some(slot) = self.slots.get_mut(worker) {
            // Dropping both channel ends makes the worker's next read see
            // EOF and its next write fail, so the thread winds down on its
            // own; it is detached rather than joined because it may be
            // mid-solve and a kill must not block the coordinator.
            slot.input = None;
            slot.output = None;
            slot.handle = None;
            slot.pending.clear();
            slot.partial.clear();
            slot.fate.get_or_insert_with(|| "killed".to_string());
        }
    }

    fn close(&mut self, worker: usize) {
        if let Some(slot) = self.slots.get_mut(worker) {
            if slot.fate.is_some() {
                return;
            }
            slot.input = None; // end-of-input
            if let Some(handle) = slot.handle.take() {
                let _ = handle.join(); // cache fold completes before this returns
            }
            slot.output = None;
            slot.fate = Some("closed".to_string());
        }
    }
}

impl Drop for LoopbackTransport {
    fn drop(&mut self) {
        for worker in 0..self.slots.len() {
            self.kill(worker);
        }
    }
}

// --- subprocess ------------------------------------------------------------

/// The longest `QW1` line a spawned worker may send, or a server may
/// receive, in bytes, newline excluded. `QW1` lines are a few hundred
/// bytes; the cap only exists so a runaway peer cannot grow the reader's
/// memory without limit. A longer worker line makes that worker
/// [`TransportError::Dead`], and its range is re-tasked; a longer request
/// line is answered `ERR` by the server (`server::serve`).
pub(crate) const MAX_LINE_BYTES: u64 = 1 << 20;

/// What a subprocess reader thread hands the coordinator: a line, or why
/// the worker's output became unusable.
type LineReceiver = mpsc::Receiver<Result<String, String>>;

struct SubprocessWorker {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    lines: Option<LineReceiver>,
    reader: Option<JoinHandle<()>>,
    fate: Option<String>,
}

impl SubprocessWorker {
    /// Kills and reaps the child, hangs up the pipes. Idempotent.
    fn tear_down(&mut self, fate: &str) {
        self.stdin = None;
        self.lines = None;
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait(); // reap; no zombies
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join(); // EOF after kill, returns promptly
        }
        self.fate.get_or_insert_with(|| fate.to_string());
    }
}

/// The production [`ShardTransport`]: spawned worker processes speaking
/// `QW1` over stdin/stdout (normally `qaoa-serve`; stderr passes through).
///
/// Worker death — a crash, a kill, an exit, a closed pipe, an output line
/// over 1 MiB — surfaces as [`TransportError::Dead`] on the next send or
/// receive, which is what the coordinator's failover re-tasking keys off.
/// [`ShardTransport::close`] closes the worker's stdin and waits for a
/// clean exit, giving workers started with `--cache-file` the chance to
/// persist what they solved.
pub struct SubprocessTransport {
    slots: Vec<SubprocessWorker>,
}

impl SubprocessTransport {
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
        let mut slots: Vec<SubprocessWorker> = Vec::with_capacity(commands.len());
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

    fn slot(&mut self, worker: usize) -> Result<&mut SubprocessWorker, TransportError> {
        let count = self.slots.len();
        self.slots.get_mut(worker).ok_or_else(|| {
            TransportError::Dead(format!("worker {worker} of {count} (no such slot)"))
        })
    }
}

fn spawn_worker(program: &str, args: &[String]) -> std::io::Result<SubprocessWorker> {
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    let stdin = child.stdin.take();
    let stdout = child.stdout.take().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::BrokenPipe, "child stdout not captured")
    })?;
    let (tx, rx) = mpsc::channel();
    // One reader thread per child decouples pipe draining from the
    // coordinator's poll loop: the child never blocks on a full pipe while
    // the coordinator is busy elsewhere.
    let reader = std::thread::spawn(move || {
        let mut stdout = BufReader::new(stdout);
        while let Ok(Some(line)) = read_capped_line(&mut stdout) {
            let line = line.map_err(|bad| format!("worker sent {bad}"));
            let fatal = line.is_err();
            if tx.send(line).is_err() || fatal {
                break;
            }
        }
    });
    Ok(SubprocessWorker {
        child: Some(child),
        stdin,
        lines: Some(rx),
        reader: Some(reader),
        fate: None,
    })
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

impl ShardTransport for SubprocessTransport {
    fn workers(&self) -> usize {
        self.slots.len()
    }

    fn send_line(&mut self, worker: usize, line: &str) -> Result<(), TransportError> {
        let slot = self.slot(worker)?;
        if let Some(fate) = &slot.fate {
            return Err(TransportError::Dead(fate.clone()));
        }
        let Some(stdin) = &mut slot.stdin else {
            return Err(TransportError::Dead("stdin already closed".into()));
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
            return Err(TransportError::Dead("stdout already closed".into()));
        };
        match lines.recv_timeout(wait) {
            Ok(Ok(line)) => Ok(line),
            Ok(Err(fate)) => {
                slot.tear_down(&fate);
                Err(TransportError::Dead(fate))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let fate = "worker stdout closed".to_string();
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
            slot.stdin = None; // EOF: the worker finishes up and exits
            if let Some(mut child) = slot.child.take() {
                let _ = child.wait();
            }
            if let Some(reader) = slot.reader.take() {
                let _ = reader.join();
            }
            slot.lines = None;
            slot.fate = Some("closed".to_string());
        }
    }
}

impl Drop for SubprocessTransport {
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

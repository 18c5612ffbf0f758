//! Sharded corpus generation: split the §III-A ensemble over workers by
//! graph-index range, with a bit-parity guarantee and worker failover.
//!
//! Corpus generation scales past one process by handing each worker a
//! contiguous range of global graph indices over a live, streaming
//! transport. The pieces compose — [`crate::corpus::solve_range`]
//! seeds every cell from its *global* index, the `QW1` wire format moves
//! records bit-exactly, and [`crate::persist::save_merge`] unions cache
//! files — so both failover and streaming are pure bookkeeping:
//!
//! * [`ShardPlan`] — a validated partition of `0..n_graphs` into
//!   contiguous, non-overlapping, covering index ranges (empty and
//!   singleton ranges included),
//! * [`run_streaming`] — the live coordinator: an event loop over any
//!   [`ShardTransport`] that dispatches ranges to workers, streams-merges
//!   `RECORD` lines into the sink in global graph-index order with
//!   **bounded buffering**, and **re-tasks** a dead or timed-out worker's
//!   range onto a survivor,
//! * [`run_wire`] — [`run_streaming`] collecting into a
//!   [`ParameterDataset`], for callers that want the corpus in memory.
//!
//! [`run_streaming`] is the only coordinator. Where the workers run is the
//! transport's business ([`crate::transport`]):
//! [`crate::transport::LoopbackTransport`] runs serve workers on threads
//! over OS pipes (one loopback worker taking the ranges in order is the
//! single-process run), [`crate::transport::SubprocessTransport`] spawns
//! `qaoa-serve` worker processes; both are one pipe transport.
//!
//! # The bit-parity guarantee
//!
//! For a fixed corpus spec, **any** valid plan at **any** worker/thread
//! count merges to output bit-identical to the unsharded run:
//!
//! * every `(graph, depth ≥ 2)` cell draws from an RNG derived from the
//!   *global* graph index, never from shard-local position,
//! * every depth-1 cell is a pure function of
//!   `(master seed, canonical class, restarts)` — solved on the canonical
//!   representative, seeded from the class hash — so it does not matter
//!   *which* shard solves a class first,
//! * records are emitted in range order (= graph-index order), exactly the
//!   order the unsharded generator emits,
//! * per-shard caches union into one entry set equal to the unsharded
//!   run's, so a merged cache file ([`crate::persist::save_merge`]) is
//!   byte-identical too.
//!
//! # Failover re-tasking
//!
//! The same guarantee is what makes failover safe: a re-run range returns
//! **identical bytes**, so when a worker dies (transport reports
//! [`crate::transport::TransportError::Dead`]) or falls silent past
//! [`StreamOptions::timeout`], the coordinator kills it, pushes its
//! unfinished range back on the queue, and a survivor re-runs it. Records
//! the dead worker already streamed past the emit frontier are replayed by
//! the survivor and skipped by position — their `(graph, depth)`
//! coordinates are still validated, so a worker that disagrees with the
//! already-emitted prefix is a protocol error, not silent corruption. Dead
//! workers are never re-spawned, which naturally bounds retries: a range
//! can be re-tasked at most `workers - 1` times before
//! [`ShardError::Transport`] reports the fleet lost.
//!
//! # Streaming merge and the memory bound
//!
//! The coordinator never holds the corpus. Records for the **frontier**
//! range (the earliest not-fully-emitted range) stream straight to the
//! sink as they arrive; records for later in-flight ranges are buffered
//! only until the frontier catches up. Dispatch is throttled to a window
//! of [`StreamOptions::window_per_worker`] × workers ranges beyond the
//! frontier, so peak buffering is bounded by a constant number of
//! in-flight shard windows — independent of corpus size
//! ([`ShardReport::peak_buffered_records`] tracks the high-water mark, and
//! `tests/tests/failover.rs` asserts the bound).
//!
//! `tests/tests/shard.rs` pins the parity property down with a
//! mini-proptest over arbitrary partitions; `tests/tests/failover.rs`
//! does the same under injected worker death and stalls; CI diffs
//! `qaoa-shard` output (loopback and spawned subprocess workers, with and
//! without a kill) against the unsharded `table1` corpus byte-for-byte.

#![expect(
    clippy::disallowed_methods,
    reason = "wall-time accounting and worker liveness: ShardStats wall times and last-heard deadlines, never in results"
)]

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;
use std::time::{Duration, Instant};

use qaoa::datagen::{DataGenConfig, OptimalRecord, ParameterDataset};
use qaoa::QaoaError;

use crate::corpus;
use crate::transport::{ShardTransport, TransportError};
use crate::wire;

/// A failed shard plan, protocol exchange, worker fleet, or merge.
#[derive(Debug)]
pub enum ShardError {
    /// The plan is not a valid partition (or does not match the spec).
    Plan(String),
    /// A wire worker broke protocol (bad line, wrong/duplicate `DONE`,
    /// out-of-order records, or an in-band `ERR`). Protocol violations are
    /// never re-tasked: a worker that answers *wrong* (rather than not at
    /// all) would answer wrong again, and parity is already forfeit.
    Protocol {
        /// Index of the offending shard (range) within the plan.
        shard: usize,
        /// What went wrong.
        message: String,
    },
    /// The worker fleet failed underneath the coordinator: spawn failure,
    /// every worker lost, or a stray line after completion.
    Transport(String),
    /// The record sink (the caller's output writer) failed.
    Sink(String),
    /// The merged records did not assemble into a dataset.
    Solve(QaoaError),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Plan(message) => write!(f, "shard plan: {message}"),
            ShardError::Protocol { shard, message } => {
                write!(f, "shard {shard}: {message}")
            }
            ShardError::Transport(message) => write!(f, "shard transport: {message}"),
            ShardError::Sink(message) => write!(f, "shard sink: {message}"),
            ShardError::Solve(e) => write!(f, "shard solve: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<QaoaError> for ShardError {
    fn from(e: QaoaError) -> Self {
        ShardError::Solve(e)
    }
}

/// A validated partition of `0..n_graphs` into contiguous index ranges.
///
/// Invariants (enforced by both constructors): ranges are in ascending
/// order, non-overlapping, and cover `0..n_graphs` exactly — every global
/// graph index belongs to precisely one range. Empty ranges are legal
/// anywhere (a shard may simply have nothing to do), which is what lets
/// [`ShardPlan::split_even`] hand out more shards than graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    n_graphs: usize,
    ranges: Vec<Range<usize>>,
}

impl ShardPlan {
    /// Splits `0..n_graphs` into `shards` near-equal contiguous ranges
    /// (the first `n_graphs % shards` ranges hold one extra graph). A
    /// `shards` of 0 is treated as 1.
    #[must_use]
    pub fn split_even(n_graphs: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let base = n_graphs / shards;
        let extra = n_graphs % shards;
        let mut ranges = Vec::with_capacity(shards);
        let mut cursor = 0;
        for i in 0..shards {
            let len = base + usize::from(i < extra);
            ranges.push(cursor..cursor + len);
            cursor += len;
        }
        Self { n_graphs, ranges }
    }

    /// Validates a caller-supplied partition of `0..n_graphs`.
    ///
    /// # Errors
    ///
    /// Rejects inverted ranges, gaps, overlaps, and partitions that do not
    /// cover `0..n_graphs` exactly. An empty range list is valid only for
    /// an empty ensemble.
    pub fn from_ranges(n_graphs: usize, ranges: Vec<Range<usize>>) -> Result<Self, ShardError> {
        let mut cursor = 0;
        for (i, range) in ranges.iter().enumerate() {
            if range.start > range.end {
                return Err(ShardError::Plan(format!(
                    "range {i} ({}..{}) is inverted",
                    range.start, range.end
                )));
            }
            if range.start != cursor {
                return Err(ShardError::Plan(format!(
                    "range {i} starts at {} but the previous range ended at {cursor} \
                     (ranges must tile 0..{n_graphs} without gaps or overlaps)",
                    range.start
                )));
            }
            cursor = range.end;
        }
        if cursor != n_graphs {
            return Err(ShardError::Plan(format!(
                "ranges cover 0..{cursor} but the ensemble has {n_graphs} graphs"
            )));
        }
        Ok(Self { n_graphs, ranges })
    }

    /// The partitioned ranges, in ascending graph-index order.
    #[must_use]
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// Number of shards (ranges) in the plan.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.ranges.len()
    }

    /// Size of the ensemble this plan partitions.
    #[must_use]
    pub fn n_graphs(&self) -> usize {
        self.n_graphs
    }

    fn check_spec(&self, config: &DataGenConfig) -> Result<(), ShardError> {
        if self.n_graphs != config.n_graphs {
            return Err(ShardError::Plan(format!(
                "plan partitions {} graphs but the spec generates {}",
                self.n_graphs, config.n_graphs
            )));
        }
        Ok(())
    }
}

/// Accounting for one shard of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// The global graph-index range this shard covered.
    pub range: Range<usize>,
    /// `(graph, depth)` cells produced.
    pub cells: usize,
    /// Total function calls across the shard's records.
    pub function_calls: usize,
    /// Times this range was dispatched (1 + re-tasks after worker loss).
    pub attempts: usize,
}

/// Accounting for one sharded corpus run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Per-shard stats, in plan order.
    pub per_shard: Vec<ShardStats>,
    /// End-to-end coordinator wall-clock time.
    pub wall: Duration,
    /// Ranges re-tasked onto a survivor after their worker was lost.
    pub retasked: usize,
    /// Workers declared dead (transport failure or liveness timeout).
    pub lost_workers: usize,
    /// High-water mark of records buffered for not-yet-frontier ranges —
    /// the coordinator's peak memory beyond the one record in flight.
    /// Bounded by the dispatch window, never by corpus size.
    pub peak_buffered_records: usize,
}

impl ShardReport {
    /// Total `(graph, depth)` cells across all shards.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.per_shard.iter().map(|s| s.cells).sum()
    }

    /// Total function calls across all shards.
    #[must_use]
    pub fn function_calls(&self) -> usize {
        self.per_shard.iter().map(|s| s.function_calls).sum()
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{} shards / {} cells in {:.2?} ({} fn calls)",
            self.per_shard.len(),
            self.cells(),
            self.wall,
            self.function_calls(),
        );
        if self.lost_workers > 0 {
            line.push_str(&format!(
                "; lost {} worker(s), re-tasked {} range(s)",
                self.lost_workers, self.retasked
            ));
        }
        line
    }
}

/// Tuning knobs for [`run_streaming`].
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Continuous silence from a busy worker after which the coordinator
    /// declares it dead, kills it, and re-tasks its range.
    pub timeout: Duration,
    /// How many ranges beyond the emit frontier may be open (dispatched
    /// and possibly buffered) **per worker**; clamped to at least 1. This
    /// is the coordinator's memory bound: peak buffering never exceeds
    /// `window_per_worker × workers` ranges' worth of records.
    pub window_per_worker: usize,
}

impl Default for StreamOptions {
    fn default() -> Self {
        Self {
            timeout: Duration::from_secs(30),
            window_per_worker: 2,
        }
    }
}

/// How long one poll of a busy worker waits before the coordinator moves
/// on to the next. Small enough to keep every worker fed; the liveness
/// decision accumulates [`StreamOptions::timeout`] of silence on top.
const POLL_QUANTUM: Duration = Duration::from_millis(10);

/// Per-range progress in the coordinator's event loop.
struct RangeProgress {
    range: Range<usize>,
    /// Records already handed to the sink. Survives re-tasking: a
    /// survivor's replay of this prefix is coordinate-checked and skipped.
    emitted: usize,
    /// Records held for a not-yet-frontier range (current attempt only).
    buffered: Vec<OptimalRecord>,
    /// Records received in the current attempt (= position in the range's
    /// canonical record order).
    received: usize,
    /// Function-call sum over the current attempt's records.
    function_calls: usize,
    done: bool,
    /// Dispatch count (1 + re-tasks).
    attempts: usize,
}

enum WorkerState {
    Idle,
    /// Serving the range at this plan index.
    Busy(usize),
    /// Dead or closed; never dispatched to again.
    Gone,
}

/// The coordinator's view of one worker.
struct WorkerSlot {
    state: WorkerState,
    /// Whether this worker's `SHARD` session is open (sent once, lazily).
    session_open: bool,
    /// When the worker last delivered a line (or was last tasked).
    last_heard: Instant,
}

/// Runs a sharded corpus generation live over a [`ShardTransport`],
/// streaming merged records to `sink` in global graph-index order.
///
/// This is the coordinator event loop behind [`run_wire`] and every
/// `qaoa-shard` worker mode: it lazily opens a `SHARD` session per
/// worker, dispatches `RANGE`s within the frontier window, validates and
/// merges incoming `RECORD`/`DONE` lines, re-tasks ranges lost to worker
/// death or timeout, and closes (on success) or kills (on error) every
/// worker before returning. See the module docs for the failover and
/// memory-bound semantics.
///
/// The sink sees exactly the unsharded record sequence — bit-identical,
/// in order, each record exactly once — regardless of worker count,
/// scheduling, or injected faults.
///
/// # Errors
///
/// Rejects plan/spec mismatches ([`ShardError::Plan`]) and protocol
/// violations ([`ShardError::Protocol`]); reports a fleet with no
/// survivors as [`ShardError::Transport`] and a failing sink as
/// [`ShardError::Sink`].
pub fn run_streaming<T, S>(
    config: &DataGenConfig,
    plan: &ShardPlan,
    transport: &mut T,
    options: &StreamOptions,
    sink: &mut S,
) -> Result<ShardReport, ShardError>
where
    T: ShardTransport,
    S: FnMut(OptimalRecord) -> Result<(), String>,
{
    plan.check_spec(config)?;
    let outcome = Coordinator::new(config, plan, transport, options, sink).run();
    // Success: a graceful close lets workers fold/persist their caches.
    // Failure: kill what's left so no worker outlives its coordinator.
    // Both are idempotent no-ops on workers already gone.
    for worker in 0..transport.workers() {
        if outcome.is_ok() {
            transport.close(worker);
        } else {
            transport.kill(worker);
        }
    }
    outcome
}

/// The state of one [`run_streaming`] call.
struct Coordinator<'a, T, S> {
    transport: &'a mut T,
    sink: &'a mut S,
    timeout: Duration,
    max_depth: usize,
    shard_line: String,
    /// Ranges that may be open beyond the frontier (the memory bound).
    window: usize,
    ranges: Vec<RangeProgress>,
    /// Plan indices waiting for a worker, lowest first.
    pending: BTreeSet<usize>,
    workers: Vec<WorkerSlot>,
    /// The earliest range not yet fully emitted.
    frontier: usize,
    buffered_records: usize,
    peak_buffered: usize,
    retasked: usize,
    lost_workers: usize,
}

impl<'a, T, S> Coordinator<'a, T, S>
where
    T: ShardTransport,
    S: FnMut(OptimalRecord) -> Result<(), String>,
{
    fn new(
        config: &DataGenConfig,
        plan: &ShardPlan,
        transport: &'a mut T,
        options: &StreamOptions,
        sink: &'a mut S,
    ) -> Self {
        let n_workers = transport.workers();
        let ranges: Vec<RangeProgress> = plan
            .ranges()
            .iter()
            .map(|range| RangeProgress {
                range: range.clone(),
                emitted: 0,
                buffered: Vec::new(),
                received: 0,
                function_calls: 0,
                done: false,
                attempts: 0,
            })
            .collect();
        let now = Instant::now();
        Self {
            transport,
            sink,
            timeout: options.timeout,
            max_depth: config.max_depth,
            shard_line: wire::encode_shard(config),
            window: options
                .window_per_worker
                .max(1)
                .saturating_mul(n_workers.max(1)),
            pending: (0..ranges.len()).collect(),
            ranges,
            workers: (0..n_workers)
                .map(|_| WorkerSlot {
                    state: WorkerState::Idle,
                    session_open: false,
                    last_heard: now,
                })
                .collect(),
            frontier: 0,
            buffered_records: 0,
            peak_buffered: 0,
            retasked: 0,
            lost_workers: 0,
        }
    }

    fn run(mut self) -> Result<ShardReport, ShardError> {
        let start = Instant::now();
        while self.frontier < self.ranges.len() {
            self.dispatch();
            if self
                .workers
                .iter()
                .all(|w| matches!(w.state, WorkerState::Gone))
            {
                let unfinished = self.ranges.iter().filter(|r| !r.done).count();
                return Err(ShardError::Transport(format!(
                    "all {} workers lost with {unfinished} of {} ranges unfinished",
                    self.workers.len(),
                    self.ranges.len()
                )));
            }
            for worker in 0..self.workers.len() {
                self.poll(worker)?;
            }
        }

        // Every range is fully emitted. A surviving worker with more to say
        // broke protocol (e.g. a duplicate DONE) — check before closing.
        for worker in 0..self.workers.len() {
            if matches!(self.workers[worker].state, WorkerState::Gone) {
                continue;
            }
            if let Ok(line) = self.transport.recv_line(worker, Duration::ZERO) {
                return Err(ShardError::Transport(format!(
                    "worker {worker} sent an unexpected line after all ranges completed: {line}"
                )));
            }
        }

        let per_shard = self
            .ranges
            .iter()
            .map(|r| ShardStats {
                range: r.range.clone(),
                cells: r.received,
                function_calls: r.function_calls,
                attempts: r.attempts.max(1),
            })
            .collect();
        Ok(ShardReport {
            per_shard,
            wall: start.elapsed(),
            retasked: self.retasked,
            lost_workers: self.lost_workers,
            peak_buffered_records: self.peak_buffered,
        })
    }

    /// Hands the lowest pending ranges to idle workers, but never reaches
    /// more than `window` ranges past the frontier — that cap is the
    /// memory bound.
    fn dispatch(&mut self) {
        for worker in 0..self.workers.len() {
            if !matches!(self.workers[worker].state, WorkerState::Idle) {
                continue;
            }
            let Some(&next) = self.pending.first() else {
                break;
            };
            if next >= self.frontier.saturating_add(self.window) {
                break;
            }
            self.pending.remove(&next);
            let slot = &mut self.workers[worker];
            let opened = if slot.session_open {
                Ok(())
            } else {
                self.transport.send_line(worker, &self.shard_line)
            };
            let tasked = opened.and_then(|()| {
                slot.session_open = true;
                self.transport
                    .send_line(worker, &wire::encode_range(&self.ranges[next].range))
            });
            match tasked {
                Ok(()) => {
                    self.ranges[next].attempts += 1;
                    slot.state = WorkerState::Busy(next);
                    slot.last_heard = Instant::now();
                }
                Err(_) => {
                    // The worker died before taking the range: requeue it
                    // and retire the worker. Not a re-task — nothing ran.
                    self.pending.insert(next);
                    slot.state = WorkerState::Gone;
                    self.lost_workers += 1;
                    self.transport.kill(worker);
                }
            }
        }
    }

    /// Gives a busy worker one [`POLL_QUANTUM`] receive, then drains
    /// whatever else it already queued without waiting. Liveness is judged
    /// only when the quantum wait came back empty: an empty zero-wait
    /// drain just means the worker is caught up.
    fn poll(&mut self, worker: usize) -> Result<(), ShardError> {
        let mut wait = POLL_QUANTUM;
        while let WorkerState::Busy(shard) = self.workers[worker].state {
            let lost = match self.transport.recv_line(worker, wait) {
                Ok(line) => {
                    self.workers[worker].last_heard = Instant::now();
                    self.handle_line(&line, shard, worker)?;
                    wait = Duration::ZERO;
                    continue;
                }
                Err(TransportError::Timeout) => {
                    wait == POLL_QUANTUM
                        && self.workers[worker].last_heard.elapsed() >= self.timeout
                }
                Err(TransportError::Dead(_)) => true,
            };
            if lost {
                self.lose_worker(worker, shard);
            }
            break;
        }
        Ok(())
    }

    /// Retires a dead worker: its in-flight range loses the current
    /// attempt's partial state and goes back on the queue for a survivor.
    /// Already-emitted records keep their `emitted` watermark — the
    /// survivor's replay of that prefix is validated and skipped, never
    /// re-emitted.
    fn lose_worker(&mut self, worker: usize, shard: usize) {
        let progress = &mut self.ranges[shard];
        self.buffered_records -= progress.buffered.len();
        progress.buffered.clear();
        progress.received = 0;
        progress.function_calls = 0;
        self.pending.insert(shard);
        self.retasked += 1;
        self.workers[worker].state = WorkerState::Gone;
        self.lost_workers += 1;
        self.transport.kill(worker);
    }

    /// Validates and merges one line from the worker serving `shard`.
    ///
    /// Records must arrive in exact `(graph_id, depth)` order — graph-index
    /// major, depth minor, the order the unsharded generator emits — and
    /// the `DONE` marker must match the tasked range with consistent cell
    /// and function-call counts. Any disagreement is a hard
    /// [`ShardError::Protocol`].
    fn handle_line(&mut self, line: &str, shard: usize, worker: usize) -> Result<(), ShardError> {
        let fail = |message: String| ShardError::Protocol { shard, message };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(());
        }
        let max_depth = self.max_depth;
        match wire::message_type(line).map_err(|e| fail(e.to_string()))? {
            "RECORD" => {
                let record = wire::decode_record(line).map_err(|e| fail(e.to_string()))?;
                let progress = &mut self.ranges[shard];
                let cells = progress.range.len() * max_depth;
                if progress.received >= cells {
                    return Err(fail(format!(
                        "more than {cells} records for {}..{}",
                        progress.range.start, progress.range.end
                    )));
                }
                // Enforce the exact merge order up front: graph-index-major,
                // depth-minor — the order the unsharded generator emits.
                let expected_graph = progress.range.start + progress.received / max_depth;
                let expected_depth = 1 + progress.received % max_depth;
                if record.graph_id != expected_graph || record.depth != expected_depth {
                    return Err(fail(format!(
                        "record {} out of order: got (graph {}, depth {}), \
                         expected (graph {expected_graph}, depth {expected_depth})",
                        progress.received, record.graph_id, record.depth
                    )));
                }
                progress.function_calls = progress
                    .function_calls
                    .checked_add(record.function_calls)
                    .ok_or_else(|| fail("function calls overflow the range's sum".into()))?;
                if progress.received < progress.emitted {
                    // A re-tasked survivor replaying the already-emitted
                    // prefix: coordinates checked above, record dropped.
                } else if shard == self.frontier {
                    (self.sink)(record).map_err(ShardError::Sink)?;
                    progress.emitted += 1;
                } else {
                    progress.buffered.push(record);
                    self.buffered_records += 1;
                    self.peak_buffered = self.peak_buffered.max(self.buffered_records);
                }
                progress.received += 1;
                Ok(())
            }
            "DONE" => {
                let marker = wire::decode_done(line).map_err(|e| fail(e.to_string()))?;
                let progress = &mut self.ranges[shard];
                if marker.range != progress.range {
                    return Err(fail(format!(
                        "DONE for {}..{} but this shard was tasked {}..{}",
                        marker.range.start,
                        marker.range.end,
                        progress.range.start,
                        progress.range.end
                    )));
                }
                let cells = progress.range.len() * max_depth;
                if progress.received != cells {
                    return Err(fail(format!(
                        "DONE after {} of {cells} records",
                        progress.received
                    )));
                }
                if marker.cells != cells {
                    return Err(fail(format!(
                        "DONE reports {} cells but {cells} records arrived",
                        marker.cells
                    )));
                }
                if marker.function_calls != progress.function_calls {
                    return Err(fail(format!(
                        "DONE reports {} function calls but the records sum to {}",
                        marker.function_calls, progress.function_calls
                    )));
                }
                progress.done = true;
                self.workers[worker].state = WorkerState::Idle;
                self.advance_frontier()
            }
            "ERR" => Err(fail(format!("worker answered: {line}"))),
            other => Err(fail(format!(
                "unexpected {other} message in a shard stream"
            ))),
        }
    }

    /// Pushes the emit frontier forward: drains the (new) frontier range's
    /// buffered records to the sink, and steps past every range that is
    /// both done and fully emitted.
    fn advance_frontier(&mut self) -> Result<(), ShardError> {
        while let Some(progress) = self.ranges.get_mut(self.frontier) {
            if !progress.buffered.is_empty() {
                self.buffered_records -= progress.buffered.len();
                for record in progress.buffered.drain(..) {
                    (self.sink)(record).map_err(ShardError::Sink)?;
                    progress.emitted += 1;
                }
            }
            if progress.done && progress.emitted == progress.range.len() * self.max_depth {
                self.frontier += 1;
            } else {
                break;
            }
        }
        Ok(())
    }
}

/// Runs a sharded corpus generation over a [`ShardTransport`] and collects
/// the merged stream into a [`ParameterDataset`] — [`run_streaming`] with
/// an in-memory sink, for callers (tests, benches, small corpora) that
/// want the dataset whole.
///
/// Graphs never travel: coordinator and workers derive the identical
/// ensemble from the spec's seed, so the wire carries records only.
///
/// # Errors
///
/// Same contract as [`run_streaming`].
pub fn run_wire<T: ShardTransport>(
    config: &DataGenConfig,
    plan: &ShardPlan,
    transport: &mut T,
    options: &StreamOptions,
) -> Result<(ParameterDataset, ShardReport), ShardError> {
    let mut records = Vec::new();
    let report = run_streaming(config, plan, transport, options, &mut |record| {
        records.push(record);
        Ok(())
    })?;
    let dataset =
        ParameterDataset::from_parts(corpus::ensemble(config), records, config.max_depth)?;
    Ok((dataset, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LoopbackTransport;

    #[test]
    fn split_even_tiles_exactly() {
        for (n, k) in [(10, 3), (24, 4), (5, 1), (3, 7), (0, 2), (1, 1)] {
            let plan = ShardPlan::split_even(n, k);
            assert_eq!(plan.shards(), k.max(1));
            assert_eq!(plan.n_graphs(), n);
            // Re-validating the generated ranges proves the invariants.
            let revalidated = ShardPlan::from_ranges(n, plan.ranges().to_vec()).unwrap();
            assert_eq!(revalidated, plan);
            // Near-equal: sizes differ by at most one.
            let sizes: Vec<usize> = plan.ranges().iter().map(std::ops::Range::len).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "{n} over {k}: sizes {sizes:?}");
        }
        assert_eq!(
            ShardPlan::split_even(7, 0).ranges(),
            ShardPlan::split_even(7, 1).ranges(),
            "0 shards clamps to 1"
        );
    }

    #[test]
    fn from_ranges_accepts_empty_and_singleton_ranges() {
        let plan = ShardPlan::from_ranges(4, vec![0..0, 0..1, 1..1, 1..4, 4..4]).unwrap();
        assert_eq!(plan.shards(), 5);
        assert!(ShardPlan::from_ranges(0, vec![]).is_ok());
        assert!(ShardPlan::from_ranges(0, vec![0..0, 0..0]).is_ok());
    }

    #[test]
    #[expect(
        clippy::single_range_in_vec_init,
        reason = "single-range plans are the point"
    )]
    fn from_ranges_rejects_invalid_partitions() {
        // Gap, overlap, short cover, over-cover, inverted, empty-for-nonempty.
        assert!(ShardPlan::from_ranges(4, vec![0..1, 2..4]).is_err());
        assert!(ShardPlan::from_ranges(4, vec![0..2, 1..4]).is_err());
        assert!(ShardPlan::from_ranges(4, vec![0..3]).is_err());
        assert!(ShardPlan::from_ranges(4, vec![0..5]).is_err());
        #[expect(
            clippy::reversed_empty_ranges,
            reason = "an inverted range is the invalid input under test"
        )]
        let inverted = ShardPlan::from_ranges(4, vec![3..0, 0..4]);
        assert!(inverted.is_err());
        assert!(ShardPlan::from_ranges(4, vec![]).is_err());
        assert!(
            ShardPlan::from_ranges(4, vec![1..4]).is_err(),
            "must start at 0"
        );
    }

    #[test]
    fn plan_spec_mismatch_is_rejected() {
        let config = DataGenConfig {
            n_graphs: 3,
            ..DataGenConfig::quick()
        };
        let plan = ShardPlan::split_even(4, 2);
        let mut transport = LoopbackTransport::new(1, 1);
        assert!(matches!(
            run_wire(&config, &plan, &mut transport, &StreamOptions::default()),
            Err(ShardError::Plan(_))
        ));
    }

    #[test]
    fn empty_plan_completes_without_workers_doing_anything() {
        let config = DataGenConfig {
            n_graphs: 0,
            ..DataGenConfig::quick()
        };
        let plan = ShardPlan::from_ranges(0, vec![]).unwrap();
        let mut transport = LoopbackTransport::new(1, 1);
        let (dataset, report) =
            run_wire(&config, &plan, &mut transport, &StreamOptions::default()).unwrap();
        assert_eq!(dataset.records().len(), 0);
        assert_eq!(report.cells(), 0);
        assert_eq!(report.peak_buffered_records, 0);
    }
}

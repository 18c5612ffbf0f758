//! Timing decorators around the public `Optimizer` and `ShardTransport`
//! traits. They forward every call unchanged and note when it started and
//! ended, so the workloads see the layers from outside without any change
//! to the program.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use engine::{ShardTransport, TransportError};
use optimize::{Bounds, Objective, OptimizeError, OptimizeResult, Optimizer, Options};

/// One optimizer run: which optimizer, at which depth (`x0.len() / 2`),
/// when, and the calls it spent.
#[derive(Debug, Clone)]
pub struct OptCall {
    pub optimizer: &'static str,
    pub depth: usize,
    pub start: Instant,
    pub end: Instant,
    pub nfev: usize,
    pub njev: usize,
}

impl OptCall {
    pub fn seconds(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    /// Microseconds per objective call (values and gradients alike) of
    /// this run: the cost of one quantum-circuit call as the paper counts
    /// them.
    pub fn us_per_call(&self) -> f64 {
        self.seconds() * 1e6 / (self.nfev + self.njev).max(1) as f64
    }
}

/// Runs of every optimizer sharing the log, from every worker thread.
#[derive(Debug, Default)]
pub struct CallLog {
    calls: Mutex<Vec<OptCall>>,
}

impl CallLog {
    pub fn calls(&self) -> Vec<OptCall> {
        self.calls
            .lock()
            .expect("call log poisoned by a panicking optimizer")
            .clone()
    }

    fn push(&self, call: OptCall) {
        self.calls
            .lock()
            .expect("call log poisoned by a panicking optimizer")
            .push(call);
    }
}

/// Forwards to `inner` and logs each run that returns a result.
pub struct TimedOptimizer {
    inner: Box<dyn Optimizer + Send + Sync>,
    log: Arc<CallLog>,
}

impl TimedOptimizer {
    fn log(
        &self,
        x0: &[f64],
        start: Instant,
        result: Result<OptimizeResult, OptimizeError>,
    ) -> Result<OptimizeResult, OptimizeError> {
        let end = Instant::now();
        if let Ok(r) = &result {
            self.log.push(OptCall {
                optimizer: self.inner.name(),
                depth: x0.len() / 2,
                start,
                end,
                nfev: r.n_calls,
                njev: r.n_grad_calls,
            });
        }
        result
    }
}

impl Optimizer for TimedOptimizer {
    fn minimize(
        &self,
        f: &dyn Fn(&[f64]) -> f64,
        x0: &[f64],
        bounds: &Bounds,
        options: &Options,
    ) -> Result<OptimizeResult, OptimizeError> {
        let start = Instant::now();
        let result = self.inner.minimize(f, x0, bounds, options);
        self.log(x0, start, result)
    }

    fn minimize_objective(
        &self,
        f: &dyn Objective,
        x0: &[f64],
        bounds: &Bounds,
        options: &Options,
    ) -> Result<OptimizeResult, OptimizeError> {
        let start = Instant::now();
        let result = self.inner.minimize_objective(f, x0, bounds, options);
        self.log(x0, start, result)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Wraps each optimizer so its runs land in `log`.
pub fn timed(
    optimizers: Vec<Box<dyn Optimizer + Send + Sync>>,
    log: &Arc<CallLog>,
) -> Vec<Box<dyn Optimizer + Send + Sync>> {
    optimizers
        .into_iter()
        .map(|inner| {
            Box::new(TimedOptimizer {
                inner,
                log: Arc::clone(log),
            }) as Box<dyn Optimizer + Send + Sync>
        })
        .collect()
}

/// One shard range as the coordinator saw it: `RANGE` sent, its first
/// answer line received, its `DONE` received.
#[derive(Debug, Clone)]
pub struct RangeTiming {
    pub worker: usize,
    pub sent: Instant,
    pub first_line: Instant,
    pub done: Instant,
    pub records: usize,
}

impl RangeTiming {
    pub fn seconds(&self) -> f64 {
        self.done.duration_since(self.sent).as_secs_f64()
    }
}

/// A receive that returns within this found its line already waiting; a
/// worker unasked for this long was left for other work.
const READY: Duration = Duration::from_millis(1);

/// `RECORD` lines kept for the wire decode probe.
const SAMPLE_RECORD_LINES: usize = 256;

struct OpenRange {
    sent: Instant,
    first_line: Option<Instant>,
    records: usize,
}

/// Forwards to `inner` and times every range it carries.
pub struct TimedTransport<T: ShardTransport> {
    inner: T,
    open: Vec<Option<OpenRange>>,
    last_done: Vec<Option<Instant>>,
    last_recv: Vec<Option<Instant>>,
    /// Completed ranges in completion order.
    pub ranges: Vec<RangeTiming>,
    /// Seconds from a worker's `DONE` received to its next `RANGE` sent.
    pub dispatch_gaps: Vec<f64>,
    /// Receive calls that came back empty-handed.
    pub recv_timeouts: usize,
    /// Time spent inside receive calls, successful or not.
    pub recv_wait: Duration,
    /// Seconds a line may have sat unread: for each line that was already
    /// waiting when asked for, the time since the coordinator last asked
    /// that worker, when it had been polling elsewhere meanwhile.
    pub unread: Vec<f64>,
    /// The first `RECORD` lines received.
    pub record_lines: Vec<String>,
}

impl<T: ShardTransport> TimedTransport<T> {
    pub fn new(inner: T) -> Self {
        let workers = inner.workers();
        TimedTransport {
            inner,
            open: (0..workers).map(|_| None).collect(),
            last_done: vec![None; workers],
            last_recv: vec![None; workers],
            ranges: Vec::new(),
            dispatch_gaps: Vec::new(),
            recv_timeouts: 0,
            recv_wait: Duration::ZERO,
            unread: Vec::new(),
            record_lines: Vec::new(),
        }
    }
}

impl<T: ShardTransport> ShardTransport for TimedTransport<T> {
    fn workers(&self) -> usize {
        self.inner.workers()
    }

    fn send_line(&mut self, worker: usize, line: &str) -> Result<(), TransportError> {
        if line.starts_with("QW1 RANGE ") && worker < self.open.len() {
            let now = Instant::now();
            if let Some(done) = self.last_done[worker].take() {
                self.dispatch_gaps
                    .push(now.duration_since(done).as_secs_f64());
            }
            self.open[worker] = Some(OpenRange {
                sent: now,
                first_line: None,
                records: 0,
            });
        }
        self.inner.send_line(worker, line)
    }

    fn recv_line(&mut self, worker: usize, wait: Duration) -> Result<String, TransportError> {
        let start = Instant::now();
        let result = self.inner.recv_line(worker, wait);
        let now = Instant::now();
        self.recv_wait += now.duration_since(start);
        let previous = self
            .last_recv
            .get_mut(worker)
            .and_then(|last| last.replace(now));
        if let (Ok(_), Some(previous)) = (&result, previous) {
            let unwatched = start.duration_since(previous);
            if now.duration_since(start) < READY && unwatched >= READY {
                self.unread.push(unwatched.as_secs_f64());
            }
        }
        match &result {
            Ok(line) => {
                if let Some(Some(open)) = self.open.get_mut(worker) {
                    open.first_line.get_or_insert(now);
                    if line.starts_with("QW1 RECORD ") {
                        open.records += 1;
                        if self.record_lines.len() < SAMPLE_RECORD_LINES {
                            self.record_lines.push(line.clone());
                        }
                    } else if line.starts_with("QW1 DONE ") {
                        self.ranges.push(RangeTiming {
                            worker,
                            sent: open.sent,
                            first_line: open.first_line.unwrap_or(now),
                            done: now,
                            records: open.records,
                        });
                        self.open[worker] = None;
                        self.last_done[worker] = Some(now);
                    }
                }
            }
            Err(TransportError::Timeout) => self.recv_timeouts += 1,
            Err(TransportError::Dead(_)) => {
                if let Some(slot) = self.open.get_mut(worker) {
                    *slot = None;
                }
            }
        }
        result
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
    use engine::{LoopbackTransport, ShardPlan, StreamOptions};
    use qaoa::datagen::DataGenConfig;

    fn tiny_corpus() -> DataGenConfig {
        DataGenConfig {
            n_graphs: 6,
            n_nodes: 4,
            edge_probability: 0.6,
            max_depth: 2,
            restarts: 1,
            seed: 5,
            options: Default::default(),
            trend_preference_margin: 1e-3,
        }
    }

    #[test]
    fn transport_decorator_accounts_every_range() {
        let config = tiny_corpus();
        let plan = ShardPlan::split_even(config.n_graphs, 3);
        let mut timed = TimedTransport::new(LoopbackTransport::new(2, 1));
        let mut merged = Vec::new();
        let report = engine::shard::run_streaming(
            &config,
            &plan,
            &mut timed,
            &StreamOptions::default(),
            &mut |record| {
                merged.push(record);
                Ok(())
            },
        )
        .expect("loopback shard run");

        assert_eq!(merged.len(), 12);
        assert_eq!(report.cells(), 12);
        assert_eq!(timed.ranges.len(), 3, "one timing per range");
        assert_eq!(timed.ranges.iter().map(|r| r.records).sum::<usize>(), 12);
        for range in &timed.ranges {
            assert!(range.sent <= range.first_line && range.first_line <= range.done);
            assert_eq!(range.records, 4, "2 graphs x 2 depths per range");
        }
        // A worker's first range has no gap before it; every later one has.
        let mut workers: Vec<usize> = timed.ranges.iter().map(|r| r.worker).collect();
        workers.sort_unstable();
        workers.dedup();
        assert_eq!(timed.dispatch_gaps.len(), 3 - workers.len());
        assert!(timed.recv_wait > Duration::ZERO);
        assert!(timed.unread.iter().all(|&s| s >= READY.as_secs_f64()));
        assert_eq!(timed.record_lines.len(), 12);
        for line in &timed.record_lines {
            assert!(engine::wire::decode_record(line).is_ok());
        }
    }

    #[test]
    fn optimizer_decorator_logs_and_forwards() {
        let log = Arc::new(CallLog::default());
        let optimizers = timed(optimize::all_optimizers(), &log);
        let names: Vec<&str> = optimizers.iter().map(|o| o.name()).collect();
        assert_eq!(names, ["L-BFGS-B", "Nelder-Mead", "SLSQP", "COBYLA"]);
        let bounds = Bounds::uniform(2, -2.0, 2.0).expect("valid bounds");
        let f = |x: &[f64]| (x[0] - 0.5).powi(2) + (x[1] + 0.25).powi(2);
        let plain = optimize::all_optimizers()[0]
            .minimize(&f, &[1.0, 1.0], &bounds, &Options::default())
            .expect("plain run");
        let wrapped = optimizers[0]
            .minimize(&f, &[1.0, 1.0], &bounds, &Options::default())
            .expect("wrapped run");
        assert_eq!(plain.x, wrapped.x);
        assert_eq!(plain.n_calls, wrapped.n_calls);
        let calls = log.calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].optimizer, "L-BFGS-B");
        assert_eq!(calls[0].depth, 1);
        assert_eq!(calls[0].nfev, plain.n_calls);
    }
}

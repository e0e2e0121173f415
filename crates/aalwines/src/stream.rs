//! The multi-query driver: pipeline queries from an iterator through
//! parse → verify → emit on a pool of worker threads, with **bounded
//! in-flight memory** and a whole-run budget.
//!
//! The paper's case study verifies thousands of independent operator
//! queries per snapshot (6 000 on NORDUnet); the parallelism is across
//! queries. [`Session::verify_stream`](crate::session::Session::verify_stream)
//! feeds query texts (parsed lazily, on the feeder thread) and
//! [`Session::verify_batch`](crate::session::Session::verify_batch)
//! feeds parsed queries and collects the answers; both run the same
//! core. At most [`StreamOptions::window`] queries are in flight —
//! dispatched but not yet emitted — however long the input is. Answers are
//! emitted **in input order** through a caller-supplied callback as
//! they complete, interleaved with progress telemetry on a configurable
//! tick; a malformed line yields a per-query error answer instead of
//! aborting the run.
//!
//! The bound is enforced with a counting gate: the feeder acquires a
//! permit before dispatching a query into the pipeline, and the emitter
//! releases it only after the answer left through the callback. The
//! reorder buffer (answers completed out of order, waiting for an
//! earlier index) is therefore bounded by the same window. A
//! high-water mark is tracked and reported in [`StreamSummary`] so
//! tests can assert the bound held.
//!
//! A whole-run deadline or cancel token bounds the run as a whole:
//! queries whose turn comes after the budget is spent are answered
//! [`Outcome::Aborted`](crate::Outcome::Aborted) without running, the
//! run deadline is folded into every query's own budget, and every
//! query still gets exactly one answer — a blown budget degrades
//! answers, it never panics or drops slots.

use crate::engine::{Answer, Engine, EngineStats, VerifyOptions};
use crate::telemetry::{millis, BatchSummary, JsonObject, SummaryBuilder};
use pdaal::budget::{AbortReason, CancelToken};
use query::Query;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Options of a streaming run (`#[non_exhaustive]`; construct with
/// [`StreamOptions::new`]).
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct StreamOptions {
    /// Maximum queries in flight — dispatched but not yet emitted.
    /// Bounds the driver's memory independent of stream length.
    /// Default 256.
    pub window: usize,
    /// Emit [`StreamEvent::Progress`] at most this often (checked as
    /// answers are emitted). `None` disables progress telemetry.
    pub progress_interval: Option<Duration>,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            window: 256,
            progress_interval: None,
        }
    }
}

impl StreamOptions {
    /// Default options: a 256-query window, no progress telemetry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allow up to `window` queries in flight (minimum 1).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Emit progress telemetry at most every `interval`.
    pub fn with_progress_interval(mut self, interval: Duration) -> Self {
        self.progress_interval = Some(interval);
        self
    }
}

/// Live progress of a streaming run.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct StreamProgress {
    /// Answers emitted so far.
    pub emitted: usize,
    /// Parse errors among them.
    pub parse_errors: usize,
    /// Overall throughput so far (answers per second of wall time).
    pub queries_per_sec: f64,
    /// Median end-to-end per-query time so far, milliseconds.
    pub p50_millis: f64,
    /// 95th-percentile end-to-end per-query time so far, milliseconds.
    pub p95_millis: f64,
    /// Wall time since the stream started, milliseconds.
    pub elapsed_millis: f64,
    /// Queries currently in flight.
    pub in_flight: usize,
    /// Estimated resident heap bytes of the session's warm state
    /// (network + precomputation + answer cache) at this tick.
    pub bytes_resident: usize,
}

impl StreamProgress {
    /// Serialize the bare payload; wrap with
    /// [`envelope`](crate::telemetry::envelope)`("stream-progress", ..)`
    /// for an output surface.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.number("emitted", self.emitted as f64);
        o.number("parseErrors", self.parse_errors as f64);
        o.number("queriesPerSec", self.queries_per_sec);
        o.number("p50Millis", self.p50_millis);
        o.number("p95Millis", self.p95_millis);
        o.number("elapsedMillis", self.elapsed_millis);
        o.number("inFlight", self.in_flight as f64);
        o.number("bytesResident", self.bytes_resident as f64);
        o.finish()
    }
}

/// One event of a streaming run, delivered to the caller's callback on
/// the calling thread.
#[derive(Debug)]
pub enum StreamEvent<'a> {
    /// The answer to input line `index` (0-based, input order — events
    /// arrive with strictly increasing `index`).
    Answer {
        /// 0-based index of the query in the input stream.
        index: usize,
        /// The query text as read from the stream.
        text: &'a str,
        /// The verification answer; a malformed line yields an
        /// `Outcome::Error` answer with the parse error as message.
        answer: &'a Answer,
        /// Whether this answer records a parse error rather than a
        /// verification outcome (lets callers exit with a usage error
        /// instead of a verification-inconclusive code).
        parse_error: bool,
    },
    /// Periodic progress telemetry (see
    /// [`StreamOptions::progress_interval`]).
    Progress(&'a StreamProgress),
}

/// Aggregated result of a streaming run.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct StreamSummary {
    /// Batch-style aggregation over every emitted answer (parse-error
    /// answers count as `errors`).
    pub batch: BatchSummary,
    /// How many answers were parse errors.
    pub parse_errors: usize,
    /// Highest number of queries simultaneously in flight — never
    /// exceeds the configured [`StreamOptions::window`].
    pub peak_in_flight: usize,
    /// The configured window.
    pub window: usize,
    /// Wall time of the whole run, milliseconds.
    pub elapsed_millis: f64,
}

impl StreamSummary {
    /// Serialize the bare payload; wrap with
    /// [`envelope`](crate::telemetry::envelope)`("stream-summary", ..)`
    /// for an output surface.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.raw("batch", &self.batch.to_json());
        o.number("parseErrors", self.parse_errors as f64);
        o.number("peakInFlight", self.peak_in_flight as f64);
        o.number("window", self.window as f64);
        o.number("elapsedMillis", self.elapsed_millis);
        o.finish()
    }
}

/// The counting gate bounding in-flight queries, with a high-water
/// mark. `acquire` blocks while `current == limit`.
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    limit: usize,
}

struct GateState {
    current: usize,
    peak: usize,
}

impl Gate {
    fn new(limit: usize) -> Self {
        Gate {
            state: Mutex::new(GateState {
                current: 0,
                peak: 0,
            }),
            cv: Condvar::new(),
            limit,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        // A poisoned gate only means a sibling panicked mid-update; the
        // two counters are always internally consistent.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn acquire(&self) {
        let mut st = self.lock();
        while st.current >= self.limit {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        st.current += 1;
        st.peak = st.peak.max(st.current);
    }

    fn release(&self) {
        let mut st = self.lock();
        st.current = st.current.saturating_sub(1);
        drop(st);
        self.cv.notify_one();
    }

    fn current(&self) -> usize {
        self.lock().current
    }

    fn peak(&self) -> usize {
        self.lock().peak
    }
}

/// The whole-run budget of a batch or stream: worker threads, an
/// absolute deadline and a cancel token, all covering the run as a
/// whole. Filled by the session from its own configuration.
#[derive(Clone, Debug, Default)]
pub(crate) struct RunBudget {
    /// Worker threads (0 or 1 runs inline).
    pub(crate) threads: usize,
    /// Absolute deadline for the whole run.
    pub(crate) deadline: Option<Instant>,
    /// Cooperative cancellation for the whole run.
    pub(crate) cancel: Option<CancelToken>,
}

impl RunBudget {
    /// Why the run's budget is spent right now, if it is.
    fn exhausted(&self) -> Option<AbortReason> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(AbortReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(AbortReason::DeadlineExceeded);
        }
        None
    }

    /// Per-query options with the run budget folded in.
    fn fold_into(&self, opts: &VerifyOptions) -> VerifyOptions {
        let mut opts = opts.clone();
        if let Some(d) = self.deadline {
            opts = opts.with_deadline(d);
        }
        if opts.cancel.is_none() {
            opts.cancel = self.cancel.clone();
        }
        opts
    }
}

/// Best-effort extraction of a human-readable panic message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panicked (non-string payload)".to_string())
}

/// Answer one query of a run: `Aborted` without running once the run
/// budget is spent, otherwise `engine.verify` under `effective` (the
/// per-query options with the run budget folded in).
///
/// Panic isolation: a residual panic in one query (corrupt input an
/// engine cannot tolerate, or a genuine bug) becomes `Outcome::Error`
/// instead of poisoning the whole run.
fn answer_isolated(
    engine: &dyn Engine,
    q: &Query,
    effective: &VerifyOptions,
    budget: &RunBudget,
) -> Answer {
    if let Some(reason) = budget.exhausted() {
        return Answer::aborted(reason, EngineStats::new());
    }
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.verify(q, effective))) {
        Ok(answer) => answer,
        Err(payload) => Answer::error(format!(
            "engine '{}' panicked: {}",
            engine.name(),
            panic_message(payload.as_ref())
        )),
    }
}

/// An answer flowing back to the emitter.
struct Done {
    index: usize,
    text: String,
    answer: Answer,
    parse_error: bool,
}

/// Parse-error answer for a malformed input line.
fn parse_error_answer(err: &str) -> Answer {
    Answer::error(format!("parse error: {err}"))
}

/// The engine-parameterized core behind
/// [`Session::verify_stream`](crate::session::Session::verify_stream)
/// and [`Session::verify_batch`](crate::session::Session::verify_batch).
///
/// `queries` yields each query's text with its parse result; an `Err`
/// is answered as a parse error without running. The run is inline on
/// the calling thread when `budget.threads <= 1` or the input holds at
/// most one query (by its size hint); otherwise a feeder thread pulls
/// the input, up to `budget.threads` workers verify, and this thread
/// emits in input order. `bytes_resident` is sampled on each progress
/// tick (from the emitter thread — the caller's).
pub(crate) fn run_stream<I>(
    engine: &dyn Engine,
    queries: I,
    opts: &VerifyOptions,
    budget: &RunBudget,
    stream: &StreamOptions,
    bytes_resident: &dyn Fn() -> usize,
    emit: &mut dyn FnMut(StreamEvent<'_>),
) -> StreamSummary
where
    I: Iterator<Item = (String, Result<Query, String>)> + Send,
{
    let started = Instant::now();
    let effective = budget.fold_into(opts);
    let answer_one = |q: &Query| answer_isolated(engine, q, &effective, budget);

    let gate = Gate::new(stream.window);
    let mut acc = SummaryBuilder::new();
    let mut parse_errors = 0usize;
    let mut last_tick = started;

    // Emit one answer plus any due progress event, then retire its
    // permit; shared by the inline and the threaded paths (the emitter
    // is always the calling thread).
    let mut emit_answer = |done: Done| {
        acc.add(&done.answer);
        parse_errors += usize::from(done.parse_error);
        emit(StreamEvent::Answer {
            index: done.index,
            text: &done.text,
            answer: &done.answer,
            parse_error: done.parse_error,
        });
        if let Some(interval) = stream.progress_interval {
            if last_tick.elapsed() >= interval {
                last_tick = Instant::now();
                let elapsed = started.elapsed();
                let pct = acc.total_percentiles_so_far();
                let progress = StreamProgress {
                    emitted: acc.count(),
                    parse_errors,
                    queries_per_sec: acc.count() as f64 / elapsed.as_secs_f64().max(1e-9),
                    p50_millis: pct.p50,
                    p95_millis: pct.p95,
                    elapsed_millis: millis(elapsed),
                    in_flight: gate.current(),
                    bytes_resident: bytes_resident(),
                };
                emit(StreamEvent::Progress(&progress));
            }
        }
        gate.release();
    };

    let at_most = queries.size_hint().1.unwrap_or(usize::MAX);
    if budget.threads <= 1 || at_most <= 1 {
        // Inline: verify and emit one query at a time, spawning no
        // thread. In-flight is exactly one query; the gate still
        // records it so the summary's peak/window relation holds on
        // every path.
        for (index, (text, parsed)) in queries.enumerate() {
            gate.acquire();
            let (answer, parse_error) = match parsed {
                Ok(q) => (answer_one(&q), false),
                Err(e) => (parse_error_answer(&e), true),
            };
            emit_answer(Done {
                index,
                text,
                answer,
                parse_error,
            });
        }
    } else {
        // No more workers than queries, or than permits to keep busy.
        let workers = budget.threads.min(at_most).min(stream.window);
        // Work and completion channels. The work channel is bounded by
        // the window too, but the gate is what enforces the in-flight
        // budget: a permit is held from before a query is dispatched
        // until after its answer is emitted.
        let (work_tx, work_rx) = mpsc::sync_channel::<(usize, String, Query)>(stream.window);
        let work_rx = Mutex::new(work_rx);
        let (done_tx, done_rx) = mpsc::channel::<Done>();

        std::thread::scope(|scope| {
            // Feeder: pull queries (a lazily parsed input parses here),
            // acquire a permit, dispatch. Parse errors skip
            // verification and go straight to the emitter (still
            // holding a permit — they occupy the reorder buffer like
            // any other in-flight query).
            let feeder_done = done_tx.clone();
            let gate_ref = &gate;
            scope.spawn(move || {
                for (index, (text, parsed)) in queries.enumerate() {
                    gate_ref.acquire();
                    let done = match parsed {
                        Ok(q) => match work_tx.send((index, text, q)) {
                            Ok(()) => continue,
                            // All workers died; surface an error answer
                            // so the count still balances.
                            Err(mpsc::SendError((index, text, _))) => Done {
                                index,
                                text,
                                answer: Answer::error("stream workers unavailable".to_string()),
                                parse_error: false,
                            },
                        },
                        Err(e) => Done {
                            index,
                            text,
                            answer: parse_error_answer(&e),
                            parse_error: true,
                        },
                    };
                    let _ = feeder_done.send(done);
                }
                // Dropping work_tx (moved into this closure) closes the
                // work channel and winds the workers down.
            });

            // Workers: claim parsed queries, verify, report.
            for _ in 0..workers {
                let worker_done = done_tx.clone();
                let work_rx = &work_rx;
                let answer_one = &answer_one;
                scope.spawn(move || loop {
                    let job = {
                        let rx = work_rx.lock().unwrap_or_else(|p| p.into_inner());
                        rx.recv()
                    };
                    let Ok((index, text, q)) = job else {
                        break;
                    };
                    // Second isolation layer: a panic outside
                    // `answer_one`'s own catch would take the whole
                    // scope, and every sibling's answer, down.
                    let answer =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| answer_one(&q)))
                            .unwrap_or_else(|payload| {
                                Answer::error(format!(
                                    "stream worker panicked: {}",
                                    panic_message(payload.as_ref())
                                ))
                            });
                    if worker_done
                        .send(Done {
                            index,
                            text,
                            answer,
                            parse_error: false,
                        })
                        .is_err()
                    {
                        break;
                    }
                });
            }
            drop(done_tx);

            // Emitter (this thread): reorder to input order, emit,
            // release permits. The reorder buffer holds only in-flight
            // answers, so it is bounded by the window.
            let mut pending: BTreeMap<usize, Done> = BTreeMap::new();
            let mut next_emit = 0usize;
            while let Ok(done) = done_rx.recv() {
                pending.insert(done.index, done);
                while let Some(done) = pending.remove(&next_emit) {
                    next_emit += 1;
                    emit_answer(done);
                }
            }
            // All senders dropped: every fed query was either emitted
            // or lost to a worker crash; drain any stragglers that
            // arrived out of order after a gap was filled.
            for (_, done) in std::mem::take(&mut pending) {
                emit_answer(done);
            }
        });
    }

    StreamSummary {
        batch: acc.finish(),
        parse_errors,
        peak_in_flight: gate.peak(),
        window: stream.window,
        elapsed_millis: millis(started.elapsed()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Verifier;
    use crate::examples::{paper_network, PAPER_QUERIES};
    use crate::moped::MopedEngine;
    use crate::Outcome;
    use netmodel::Network;
    use query::parse_query;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn workers(threads: usize) -> RunBudget {
        RunBudget {
            threads,
            ..RunBudget::default()
        }
    }

    /// Run `lines` through the core with `engine`; returns every
    /// emitted `(index, answer, parse_error)` in emission order.
    fn run(
        engine: &dyn Engine,
        lines: &[&str],
        budget: &RunBudget,
        stream: &StreamOptions,
    ) -> (Vec<(usize, Answer, bool)>, StreamSummary) {
        let queries = lines.iter().map(|l| {
            let parsed = parse_query(l).map_err(|e| e.to_string());
            (l.to_string(), parsed)
        });
        let mut seen = Vec::new();
        let summary = run_stream(
            engine,
            queries,
            &VerifyOptions::default(),
            budget,
            stream,
            &|| 0,
            &mut |ev| {
                if let StreamEvent::Answer {
                    index,
                    answer,
                    parse_error,
                    ..
                } = ev
                {
                    seen.push((index, answer.clone(), parse_error));
                }
            },
        );
        (seen, summary)
    }

    /// As [`run`] on the paper network's dual engine, at `threads`.
    fn drive(
        lines: &[&str],
        threads: usize,
        stream: &StreamOptions,
    ) -> (Vec<(usize, Answer, bool)>, StreamSummary) {
        let net = paper_network();
        run(&Verifier::new(&net), lines, &workers(threads), stream)
    }

    /// Runs `f` with the panic hook silenced (for expected panics).
    fn quietly<R>(f: impl FnOnce() -> R) -> R {
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev_hook);
        out
    }

    #[test]
    fn stream_matches_batch_in_order() {
        let net = paper_network();
        let engine = Verifier::new(&net);
        let reference: Vec<String> = PAPER_QUERIES
            .iter()
            .map(|q| {
                let a = engine.verify(&parse_query(q).unwrap(), &VerifyOptions::default());
                format!("{:?}", a.outcome)
            })
            .collect();
        for threads in [1, 2, 4, 8] {
            let (seen, summary) = drive(&PAPER_QUERIES, threads, &StreamOptions::new());
            assert_eq!(seen.len(), PAPER_QUERIES.len());
            // Strictly increasing indices: the reorder buffer restored
            // input order regardless of completion order; each answer
            // equals verifying its query on its own.
            for (i, (index, answer, parse_error)) in seen.iter().enumerate() {
                assert_eq!(*index, i);
                assert!(!parse_error);
                let outcome = format!("{:?}", answer.outcome);
                assert_eq!(outcome, reference[i], "query {i} at {threads} threads");
            }
            assert_eq!(summary.batch.total, PAPER_QUERIES.len());
            assert_eq!(summary.parse_errors, 0);
            assert!(summary.peak_in_flight <= summary.window);
        }
    }

    #[test]
    fn malformed_lines_are_isolated() {
        for threads in [1, 4] {
            let lines = [
                PAPER_QUERIES[0],
                "this is not a query",
                PAPER_QUERIES[1],
                "<unterminated",
                PAPER_QUERIES[2],
            ];
            let (seen, summary) = drive(&lines, threads, &StreamOptions::new());
            assert_eq!(seen.len(), 5, "bad lines must not abort the stream");
            assert_eq!(summary.parse_errors, 2);
            assert_eq!(summary.batch.errors, 2);
            let flags: Vec<bool> = seen.iter().map(|(_, _, p)| *p).collect();
            assert_eq!(flags, [false, true, false, true, false]);
            assert!(format!("{:?}", seen[1].1.outcome).contains("parse error"));
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        for threads in [1, 4] {
            let (seen, summary) = drive(&[], threads, &StreamOptions::new());
            assert!(seen.is_empty());
            assert_eq!(summary.batch.total, 0);
            assert_eq!(summary.peak_in_flight, 0);
        }
        // An input of unknown length takes the threaded path even when
        // it turns out empty.
        let net = paper_network();
        let summary = run_stream(
            &Verifier::new(&net),
            std::iter::from_fn(|| None::<(String, Result<Query, String>)>),
            &VerifyOptions::default(),
            &workers(4),
            &StreamOptions::new(),
            &|| 0,
            &mut |_| panic!("an empty input emits nothing"),
        );
        assert_eq!(summary.batch.total, 0);
    }

    #[test]
    fn more_threads_than_queries_is_fine() {
        for threads in [1, 4, 32] {
            let (seen, _) = drive(&PAPER_QUERIES[..2], threads, &StreamOptions::new());
            assert_eq!(seen.len(), 2, "at {threads} threads");
        }
    }

    #[test]
    fn window_bounds_in_flight() {
        let lines: Vec<&str> = (0..64)
            .map(|i| PAPER_QUERIES[i % PAPER_QUERIES.len()])
            .collect();
        let stream = StreamOptions::new().with_window(4);
        let (seen, summary) = drive(&lines, 4, &stream);
        assert_eq!(seen.len(), 64);
        assert!(summary.peak_in_flight >= 1);
        assert!(
            summary.peak_in_flight <= 4,
            "peak in-flight {} exceeded window 4",
            summary.peak_in_flight
        );
    }

    #[test]
    fn progress_events_fire() {
        let net = paper_network();
        let engine = Verifier::new(&net);
        let mut progress = 0usize;
        let mut answers = 0usize;
        run_stream(
            &engine,
            (0..32).map(|i| {
                let text = PAPER_QUERIES[i % PAPER_QUERIES.len()];
                (text.to_string(), Ok(parse_query(text).unwrap()))
            }),
            &VerifyOptions::default(),
            &workers(2),
            &StreamOptions::new().with_progress_interval(Duration::ZERO),
            &|| 12345,
            &mut |ev| match ev {
                StreamEvent::Progress(p) => {
                    progress += 1;
                    assert_eq!(p.bytes_resident, 12345);
                    assert!(p.emitted >= 1);
                    let json = p.to_json();
                    assert!(json.contains("\"queriesPerSec\""));
                }
                StreamEvent::Answer { .. } => answers += 1,
            },
        );
        assert_eq!(answers, 32);
        assert!(progress >= 1, "a zero interval must tick at least once");
    }

    #[test]
    fn summary_json_shape() {
        let (_, summary) = drive(&PAPER_QUERIES[..1], 1, &StreamOptions::new());
        let json = summary.to_json();
        for key in [
            "\"batch\"",
            "\"parseErrors\"",
            "\"peakInFlight\"",
            "\"window\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(matches!(&summary.batch, BatchSummary { total: 1, .. }));
    }

    /// A cancel token that is already cancelled.
    fn cancelled() -> CancelToken {
        let token = CancelToken::new();
        token.cancel();
        token
    }

    /// Runs the paper queries at 1 and 4 threads under the `spent`
    /// budget and checks every slot answers `reason`, in input order,
    /// without running.
    fn assert_every_slot_aborts(spent: RunBudget, reason: AbortReason) {
        let net = paper_network();
        for threads in [1, 4] {
            let budget = RunBudget {
                threads,
                ..spent.clone()
            };
            let (seen, summary) = run(
                &Verifier::new(&net),
                &PAPER_QUERIES,
                &budget,
                &StreamOptions::new(),
            );
            assert_eq!(seen.len(), PAPER_QUERIES.len());
            assert_eq!(summary.batch.aborted, PAPER_QUERIES.len());
            for (i, (index, a, _)) in seen.iter().enumerate() {
                assert_eq!(*index, i);
                assert!(
                    matches!(a.outcome, Outcome::Aborted(r) if r == reason),
                    "slot {i} at {threads} threads: {:?}",
                    a.outcome
                );
            }
        }
    }

    #[test]
    fn cancelled_batch_answers_every_slot_in_order() {
        let cancel = Some(cancelled());
        assert_every_slot_aborts(
            RunBudget {
                cancel,
                ..RunBudget::default()
            },
            AbortReason::Cancelled,
        );
    }

    #[test]
    fn expired_batch_deadline_aborts_everything() {
        let deadline = Some(Instant::now() - Duration::from_millis(1));
        assert_every_slot_aborts(
            RunBudget {
                deadline,
                ..RunBudget::default()
            },
            AbortReason::DeadlineExceeded,
        );
    }

    #[test]
    fn aborted_when_budget_exhausted() {
        // A spent budget aborts every real query; a malformed line
        // still answers as the parse error it is.
        let net = paper_network();
        let lines = [PAPER_QUERIES[0], "this is not a query", PAPER_QUERIES[1]];
        for threads in [1, 4] {
            let budget = RunBudget {
                threads,
                deadline: None,
                cancel: Some(cancelled()),
            };
            let (seen, summary) = run(&Verifier::new(&net), &lines, &budget, &StreamOptions::new());
            let flags: Vec<bool> = seen.iter().map(|(_, _, p)| *p).collect();
            assert_eq!(flags, [false, true, false], "at {threads} threads");
            assert_eq!((summary.batch.aborted, summary.parse_errors), (2, 1));
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        // A long input through a tight window: threaded runs answer
        // exactly as the inline one, slot for slot.
        let lines: Vec<&str> = (0..24)
            .map(|i| PAPER_QUERIES[i % PAPER_QUERIES.len()])
            .collect();
        let stream = StreamOptions::new().with_window(3);
        let outcomes = |threads| -> Vec<String> {
            let (seen, _) = drive(&lines, threads, &stream);
            seen.iter()
                .map(|(_, a, _)| format!("{:?}", a.outcome))
                .collect()
        };
        let sequential = outcomes(1);
        assert_eq!(sequential.len(), lines.len());
        for threads in [2, 4, 8] {
            assert_eq!(outcomes(threads), sequential, "at {threads} threads");
        }
    }

    #[test]
    fn panicking_engine_is_isolated_per_query() {
        /// An engine whose every second call panics (tracked by a
        /// shared counter) to exercise the per-query panic isolation.
        struct FlakyEngine<'a> {
            inner: Verifier<'a>,
            calls: AtomicUsize,
        }
        impl Engine for FlakyEngine<'_> {
            fn name(&self) -> &'static str {
                "flaky"
            }
            fn network(&self) -> &Network {
                self.inner.network()
            }
            fn verify_compiled(&self, cq: &query::CompiledQuery, opts: &VerifyOptions) -> Answer {
                if self.calls.fetch_add(1, Ordering::Relaxed) % 2 == 1 {
                    panic!("injected engine failure");
                }
                self.inner.verify_compiled(cq, opts)
            }
        }

        let net = paper_network();
        for threads in [1, 4] {
            let engine = FlakyEngine {
                inner: Verifier::new(&net),
                calls: AtomicUsize::new(0),
            };
            let (seen, _) = quietly(|| {
                run(
                    &engine,
                    &PAPER_QUERIES,
                    &workers(threads),
                    &StreamOptions::new(),
                )
            });
            assert_eq!(seen.len(), PAPER_QUERIES.len());
            let errors: Vec<usize> = seen
                .iter()
                .filter(|(_, a, _)| matches!(a.outcome, Outcome::Error(_)))
                .map(|(i, _, _)| *i)
                .collect();
            if threads == 1 {
                assert_eq!(errors, vec![1, 3, 5], "odd calls panic, rest survive");
            } else {
                // Which query draws an odd call depends on scheduling;
                // how many do does not.
                assert_eq!(errors.len(), 3, "{errors:?}");
            }
            for (i, a, _) in &seen {
                if let Outcome::Error(msg) = &a.outcome {
                    assert!(msg.contains("injected engine failure"), "slot {i}: {msg}");
                    assert!(msg.contains("flaky"), "slot {i} names the engine: {msg}");
                } else {
                    assert!(
                        a.outcome.is_conclusive() || matches!(a.outcome, Outcome::Inconclusive),
                        "slot {i} should carry a real verdict"
                    );
                }
            }
        }
    }

    #[test]
    fn panicking_query_in_parallel_batch_degrades_only_its_slot() {
        /// Panics on a marker query (`k == 7`), regardless of which
        /// worker thread picks it up or in what order.
        struct MarkerPanicEngine<'a> {
            inner: Verifier<'a>,
        }
        impl Engine for MarkerPanicEngine<'_> {
            fn name(&self) -> &'static str {
                "marker"
            }
            fn network(&self) -> &Network {
                self.inner.network()
            }
            fn verify_compiled(&self, cq: &query::CompiledQuery, opts: &VerifyOptions) -> Answer {
                if cq.max_failures == 7 {
                    panic!("injected parallel engine failure");
                }
                self.inner.verify_compiled(cq, opts)
            }
        }

        let net = paper_network();
        let bad = 2usize;
        let mut lines = PAPER_QUERIES.to_vec();
        lines.insert(bad, "<ip> [.#v0] .* [v3#.] <ip> 7");
        let (reference, _) = drive(&lines, 1, &StreamOptions::new());
        for threads in [1, 4] {
            let engine = MarkerPanicEngine {
                inner: Verifier::new(&net),
            };
            let (seen, _) =
                quietly(|| run(&engine, &lines, &workers(threads), &StreamOptions::new()));
            assert_eq!(seen.len(), lines.len());
            for (i, ((_, a, _), (_, r, _))) in seen.iter().zip(&reference).enumerate() {
                if i == bad {
                    match &a.outcome {
                        Outcome::Error(msg) => {
                            assert!(msg.contains("injected parallel engine failure"), "{msg}");
                            assert!(msg.contains("marker"), "names the engine: {msg}");
                        }
                        other => panic!("slot {bad} should be Error, got {other:?}"),
                    }
                } else {
                    assert_eq!(
                        a.outcome.kind(),
                        r.outcome.kind(),
                        "sibling slot {i} must keep its verdict, in order"
                    );
                }
            }
        }
    }

    #[test]
    fn repeated_queries_in_batch_hit_shared_cache() {
        let half = PAPER_QUERIES.len();
        let lines: Vec<&str> = PAPER_QUERIES
            .iter()
            .chain(&PAPER_QUERIES)
            .copied()
            .collect();
        // A window of `half` dispatches the second copy of query `i`
        // only after the first copy was emitted, so it must hit.
        let stream = StreamOptions::new().with_window(half);
        for threads in [1, 4] {
            let (seen, _) = drive(&lines, threads, &stream);
            let hits: usize = seen.iter().map(|(_, a, _)| a.stats.cache_hits).sum();
            assert!(hits > 0, "second copies of each query must hit the cache");
            for i in 0..half {
                assert_eq!(
                    seen[i].1.outcome.kind(),
                    seen[i + half].1.outcome.kind(),
                    "cached duplicate of query {i} changed its verdict"
                );
            }
        }
    }

    #[test]
    fn moped_engine_dispatches_through_batch() {
        let net = paper_network();
        let (dual, _) = drive(&PAPER_QUERIES, 1, &StreamOptions::new());
        let (moped, _) = run(
            &MopedEngine::new(&net),
            &PAPER_QUERIES,
            &workers(4),
            &StreamOptions::new(),
        );
        assert_eq!(dual.len(), moped.len());
        for (i, ((_, a, _), (_, b, _))) in dual.iter().zip(&moped).enumerate() {
            assert_eq!(
                a.outcome.is_satisfied(),
                b.outcome.is_satisfied(),
                "engines disagree on query {i}"
            );
        }
    }
}

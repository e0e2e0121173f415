//! The streaming batch driver: pipeline query texts from an iterator
//! through parse → verify → emit with **bounded in-flight memory**.
//!
//! [`Session::verify_stream`](crate::session::Session::verify_stream)
//! is the entry point. Where [`Session::verify_batch`] materializes the
//! whole query slice and the whole answer vector,
//! the streaming driver holds at most
//! [`StreamOptions::window`] queries in flight — parsed but not yet
//! emitted — however long the input stream is. Answers are emitted
//! **in input order** through a caller-supplied callback as they
//! complete, interleaved with progress telemetry on a configurable
//! tick; a malformed line yields a per-query error answer instead of
//! aborting the run.
//!
//! The bound is enforced with a counting gate: the feeder acquires a
//! permit before parsing a line into the pipeline, and the emitter
//! releases it only after the answer left through the callback. The
//! reorder buffer (answers completed out of order, waiting for an
//! earlier index) is therefore bounded by the same window. A
//! high-water mark is tracked and reported in [`StreamSummary`] so
//! tests can assert the bound held.
//!
//! [`Session::verify_batch`]: crate::session::Session::verify_batch

use crate::batch::{answer_isolated, panic_message, BatchOptions};
use crate::engine::{Answer, Engine, VerifyOptions};
use crate::telemetry::{millis, BatchSummary, JsonObject, SummaryBuilder};
use query::parse_query;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Options of a streaming run (`#[non_exhaustive]`; construct with
/// [`StreamOptions::new`]).
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct StreamOptions {
    /// Maximum queries in flight — parsed but not yet emitted. Bounds
    /// the driver's memory independent of stream length. Default 256.
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

/// The engine-parameterized streaming core behind
/// [`Session::verify_stream`](crate::session::Session::verify_stream).
///
/// `bytes_resident` is sampled on each progress tick (from the emitter
/// thread — the caller's).
pub(crate) fn run_stream<I>(
    engine: &dyn Engine,
    lines: I,
    opts: &VerifyOptions,
    batch: &BatchOptions,
    stream: &StreamOptions,
    bytes_resident: &dyn Fn() -> usize,
    emit: &mut dyn FnMut(StreamEvent<'_>),
) -> StreamSummary
where
    I: Iterator<Item = String> + Send,
{
    let started = Instant::now();
    let effective = batch.fold_into(opts);
    let answer_one = |q: &query::Query| answer_isolated(engine, q, &effective, batch);

    let gate = Gate::new(stream.window);
    let mut acc = SummaryBuilder::new();
    let mut parse_errors = 0usize;
    let mut last_tick = started;

    // Emit one answer plus any due progress event; shared by both the
    // sequential and the threaded paths.
    let emit_answer = |done: Done,
                       acc: &mut SummaryBuilder,
                       parse_errors: &mut usize,
                       last_tick: &mut Instant,
                       in_flight_now: usize,
                       emit: &mut dyn FnMut(StreamEvent<'_>)| {
        acc.add(&done.answer);
        if done.parse_error {
            *parse_errors += 1;
        }
        emit(StreamEvent::Answer {
            index: done.index,
            text: &done.text,
            answer: &done.answer,
            parse_error: done.parse_error,
        });
        if let Some(interval) = stream.progress_interval {
            if last_tick.elapsed() >= interval {
                *last_tick = Instant::now();
                let elapsed = started.elapsed();
                let pct = acc.total_percentiles_so_far();
                let progress = StreamProgress {
                    emitted: acc.count(),
                    parse_errors: *parse_errors,
                    queries_per_sec: acc.count() as f64 / elapsed.as_secs_f64().max(1e-9),
                    p50_millis: pct.p50,
                    p95_millis: pct.p95,
                    elapsed_millis: millis(elapsed),
                    in_flight: in_flight_now,
                    bytes_resident: bytes_resident(),
                };
                emit(StreamEvent::Progress(&progress));
            }
        }
    };

    if batch.threads <= 1 {
        // Sequential: parse, verify, emit one line at a time. In-flight
        // is exactly one query; the gate still records it so the
        // summary's peak/window relation holds on every path.
        for (index, text) in lines.enumerate() {
            gate.acquire();
            let (answer, parse_error) = match parse_query(&text) {
                Ok(q) => (answer_one(&q), false),
                Err(e) => (parse_error_answer(&e.to_string()), true),
            };
            emit_answer(
                Done {
                    index,
                    text,
                    answer,
                    parse_error,
                },
                &mut acc,
                &mut parse_errors,
                &mut last_tick,
                gate.current(),
                emit,
            );
            gate.release();
        }
    } else {
        let workers = batch.threads;
        // Work and completion channels. The work channel is bounded by
        // the window too, but the gate is what enforces the in-flight
        // budget: a permit is held from before a line is parsed until
        // after its answer is emitted.
        let (work_tx, work_rx) = mpsc::sync_channel::<(usize, String, query::Query)>(stream.window);
        let work_rx = Mutex::new(work_rx);
        let (done_tx, done_rx) = mpsc::channel::<Done>();

        std::thread::scope(|scope| {
            // Feeder: pull lines, acquire a permit, parse, dispatch.
            // Parse errors skip verification and go straight to the
            // emitter (still holding a permit — they occupy the reorder
            // buffer like any other in-flight query).
            let feeder_done = done_tx.clone();
            let gate_ref = &gate;
            scope.spawn(move || {
                for (index, text) in lines.enumerate() {
                    gate_ref.acquire();
                    match parse_query(&text) {
                        Ok(q) => {
                            if work_tx.send((index, text, q)).is_err() {
                                // All workers died (every one poisoned);
                                // surface an error answer so the count
                                // still balances.
                                let _ = feeder_done.send(Done {
                                    index,
                                    text: String::new(),
                                    answer: Answer::error("stream workers unavailable".to_string()),
                                    parse_error: false,
                                });
                            }
                        }
                        Err(e) => {
                            let answer = parse_error_answer(&e.to_string());
                            let _ = feeder_done.send(Done {
                                index,
                                text,
                                answer,
                                parse_error: true,
                            });
                        }
                    }
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
                    // Second isolation layer, as in the batch driver: a
                    // panic outside `answer_one`'s own catch would take
                    // the whole scope down.
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
                    emit_answer(
                        done,
                        &mut acc,
                        &mut parse_errors,
                        &mut last_tick,
                        gate.current(),
                        emit,
                    );
                    gate.release();
                }
            }
            // All senders dropped: every fed query was either emitted
            // or lost to a worker crash; drain any stragglers that
            // arrived out of order after a gap was filled.
            for (_, done) in std::mem::take(&mut pending) {
                emit_answer(
                    done,
                    &mut acc,
                    &mut parse_errors,
                    &mut last_tick,
                    gate.current(),
                    emit,
                );
                gate.release();
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
    use crate::examples::paper_network;
    use crate::Outcome;

    const QUERIES: [&str; 6] = [
        "<ip> [.#v0] .* [v3#.] <ip> 0",
        "<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2",
        "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
        "<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
        "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
        "<ip> [.#v3] .* [v0#.] <ip> 2",
    ];

    fn drive(
        lines: Vec<String>,
        threads: usize,
        stream: &StreamOptions,
    ) -> (Vec<(usize, String, bool)>, StreamSummary) {
        let net = paper_network();
        let engine = Verifier::new(&net);
        let mut seen = Vec::new();
        let summary = run_stream(
            &engine,
            lines.into_iter(),
            &VerifyOptions::default(),
            &BatchOptions::new().with_threads(threads),
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
                    seen.push((index, format!("{:?}", answer.outcome), parse_error));
                }
            },
        );
        (seen, summary)
    }

    #[test]
    fn stream_matches_batch_in_order() {
        for threads in [1, 4] {
            let lines: Vec<String> = QUERIES.iter().map(|q| q.to_string()).collect();
            let (seen, summary) = drive(lines, threads, &StreamOptions::new());
            assert_eq!(seen.len(), QUERIES.len());
            // Strictly increasing indices: the reorder buffer restored
            // input order regardless of completion order.
            for (i, (index, _, parse_error)) in seen.iter().enumerate() {
                assert_eq!(*index, i);
                assert!(!parse_error);
            }
            // Same answers as the batch driver, query by query.
            let net = paper_network();
            let engine = Verifier::new(&net);
            let queries: Vec<query::Query> =
                QUERIES.iter().map(|q| parse_query(q).unwrap()).collect();
            let batch = crate::batch::run_batch(
                &engine,
                &queries,
                &VerifyOptions::default(),
                &BatchOptions::new().with_threads(1),
            );
            for (i, a) in batch.iter().enumerate() {
                assert_eq!(seen[i].1, format!("{:?}", a.outcome), "query {i}");
            }
            assert_eq!(summary.batch.total, QUERIES.len());
            assert_eq!(summary.parse_errors, 0);
            assert!(summary.peak_in_flight <= summary.window);
        }
    }

    #[test]
    fn malformed_lines_are_isolated() {
        for threads in [1, 4] {
            let lines = vec![
                QUERIES[0].to_string(),
                "this is not a query".to_string(),
                QUERIES[1].to_string(),
                "<unterminated".to_string(),
                QUERIES[2].to_string(),
            ];
            let (seen, summary) = drive(lines, threads, &StreamOptions::new());
            assert_eq!(seen.len(), 5, "bad lines must not abort the stream");
            assert_eq!(summary.parse_errors, 2);
            assert_eq!(summary.batch.errors, 2);
            let flags: Vec<bool> = seen.iter().map(|(_, _, p)| *p).collect();
            assert_eq!(flags, [false, true, false, true, false]);
            assert!(seen[1].1.contains("parse error"));
        }
    }

    #[test]
    fn window_bounds_in_flight() {
        let lines: Vec<String> = (0..64)
            .map(|i| QUERIES[i % QUERIES.len()].to_string())
            .collect();
        let stream = StreamOptions::new().with_window(4);
        let (seen, summary) = drive(lines, 4, &stream);
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
        let lines: Vec<String> = (0..32)
            .map(|i| QUERIES[i % QUERIES.len()].to_string())
            .collect();
        let net = paper_network();
        let engine = Verifier::new(&net);
        let mut progress = 0usize;
        let mut answers = 0usize;
        run_stream(
            &engine,
            lines.into_iter(),
            &VerifyOptions::default(),
            &BatchOptions::new().with_threads(2),
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
        let (_, summary) = drive(vec![QUERIES[0].to_string()], 1, &StreamOptions::new());
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

    #[test]
    fn aborted_when_budget_exhausted() {
        let net = paper_network();
        let engine = Verifier::new(&net);
        let cancel = pdaal::budget::CancelToken::new();
        cancel.cancel();
        let batch = BatchOptions::new().with_threads(1).with_cancel(cancel);
        let mut outcomes = Vec::new();
        let summary = run_stream(
            &engine,
            QUERIES.iter().map(|q| q.to_string()),
            &VerifyOptions::default(),
            &batch,
            &StreamOptions::new(),
            &|| 0,
            &mut |ev| {
                if let StreamEvent::Answer { answer, .. } = ev {
                    outcomes.push(matches!(answer.outcome, Outcome::Aborted(_)));
                }
            },
        );
        assert!(outcomes.iter().all(|b| *b), "all queries should abort");
        assert_eq!(summary.batch.aborted, QUERIES.len());
    }
}

//! Batch verification: answer many queries against one network in
//! parallel, with graceful degradation under a whole-batch budget.
//!
//! The paper's case study verifies thousands of operator queries per
//! snapshot (6 000 on NORDUnet); queries are independent, so this is
//! embarrassingly parallel. Workers pull indices from a shared atomic
//! counter — no per-query allocation of thread resources, deterministic
//! output order.
//!
//! A [`BatchOptions`] deadline or cancel token bounds the *whole batch*:
//! queries whose turn comes after the budget is spent are answered
//! [`Outcome::Aborted`](crate::Outcome::Aborted) immediately instead of
//! running, the batch deadline is folded into every query's own budget,
//! and the output always has exactly one [`Answer`] per query, in query
//! order — a blown budget degrades answers, it never panics or drops
//! slots.

use crate::engine::{Answer, Engine, EngineStats, VerifyOptions};
use pdaal::budget::{AbortReason, CancelToken};
use query::Query;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Best-effort extraction of a human-readable panic message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panicked (non-string payload)".to_string())
}

/// Drain the per-slot results into query order. A slot that was never
/// stored (its worker died between claiming the index and writing the
/// answer) or whose mutex is poisoned degrades to
/// [`Outcome::Error`](crate::Outcome::Error) for that query alone
/// instead of panicking away the whole batch.
fn collect_answers(results: Vec<Mutex<Option<Answer>>>) -> Vec<Answer> {
    results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| {
                    Answer::error(format!(
                        "query {i}: worker thread died before storing an answer"
                    ))
                })
        })
        .collect()
}

/// Options for a whole batch run (`#[non_exhaustive]`; construct with
/// [`BatchOptions::new`]).
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct BatchOptions {
    /// Worker threads (0 or 1 runs inline). Default 1.
    pub threads: usize,
    /// Absolute deadline for the whole batch.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation for the whole batch.
    pub cancel: Option<CancelToken>,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            threads: 1,
            deadline: None,
            cancel: None,
        }
    }
}

impl BatchOptions {
    /// Sequential, unbudgeted batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Use up to `threads` worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Abort the remainder of the batch at `deadline` (earlier of two
    /// calls wins).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(match self.deadline {
            Some(d) => d.min(deadline),
            None => deadline,
        });
        self
    }

    /// Give the whole batch `timeout` from the moment this builder call
    /// runs (the deadline is absolute, not per-run).
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Poll `cancel` between queries (and during each query's solve).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Why the batch budget is spent right now, if it is.
    pub(crate) fn exhausted(&self) -> Option<AbortReason> {
        if let Some(c) = &self.cancel {
            if c.is_cancelled() {
                return Some(AbortReason::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Some(AbortReason::DeadlineExceeded);
            }
        }
        None
    }

    /// Per-query options with the batch budget folded in.
    pub(crate) fn fold_into(&self, opts: &VerifyOptions) -> VerifyOptions {
        let mut opts = opts.clone();
        if let Some(d) = self.deadline {
            opts = opts.with_deadline(d);
        }
        if opts.cancel.is_none() {
            if let Some(c) = &self.cancel {
                opts = opts.with_cancel(c.clone());
            }
        }
        opts
    }
}

/// Answer one query of a batch or stream: `Aborted` without running once
/// the batch budget is spent, otherwise `engine.verify` under
/// `effective` (the per-query options with the batch budget folded in).
///
/// Panic isolation: a residual panic in one query (corrupt input an
/// engine cannot tolerate, or a genuine bug) becomes `Outcome::Error`
/// instead of poisoning the whole batch.
pub(crate) fn answer_isolated(
    engine: &dyn Engine,
    q: &Query,
    effective: &VerifyOptions,
    batch: &BatchOptions,
) -> Answer {
    if let Some(reason) = batch.exhausted() {
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

/// Verify `queries` with `engine` under per-query options `opts` and
/// whole-batch options `batch`. Returns exactly one [`Answer`] per
/// query, in query order; queries reached after the batch budget is
/// spent answer `Aborted` without running.
///
/// This is the crate-internal engine-parameterized core behind
/// [`Session::verify_batch`](crate::session::Session::verify_batch).
pub(crate) fn run_batch(
    engine: &dyn Engine,
    queries: &[Query],
    opts: &VerifyOptions,
    batch: &BatchOptions,
) -> Vec<Answer> {
    let effective = batch.fold_into(opts);
    let answer_one = |q: &Query| answer_isolated(engine, q, &effective, batch);

    if batch.threads <= 1 || queries.len() <= 1 {
        return queries.iter().map(answer_one).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Answer>>> =
        (0..queries.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..batch.threads.min(queries.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= queries.len() {
                    break;
                }
                // Second isolation layer around the whole claim→store
                // path: `answer_one` catches engine panics, but a panic
                // anywhere else in this body would escape into
                // `thread::scope`, re-raise in the caller, and drop
                // every sibling's answer with it.
                let answer = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    answer_one(&queries[i])
                }))
                .unwrap_or_else(|payload| {
                    Answer::error(format!(
                        "batch worker panicked: {}",
                        panic_message(payload.as_ref())
                    ))
                });
                // A sibling's panic while holding this slot poisons the
                // mutex, not the data; store through the poison.
                match results[i].lock() {
                    Ok(mut slot) => *slot = Some(answer),
                    Err(poisoned) => *poisoned.into_inner() = Some(answer),
                }
            });
        }
    });
    collect_answers(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::paper_network;
    use crate::{Outcome, Verifier};
    use netmodel::Network;
    use query::parse_query;

    fn queries() -> Vec<Query> {
        [
            "<ip> [.#v0] .* [v3#.] <ip> 0",
            "<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2",
            "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
            "<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
            "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
            "<ip> [.#v3] .* [v0#.] <ip> 2",
        ]
        .iter()
        .map(|q| parse_query(q).unwrap())
        .collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let net = paper_network();
        let qs = queries();
        let opts = VerifyOptions::default();
        let sequential = run_batch(
            &Verifier::new(&net),
            &qs,
            &opts,
            &BatchOptions::new().with_threads(1),
        );
        for threads in [2, 4, 8] {
            let parallel = run_batch(
                &Verifier::new(&net),
                &qs,
                &opts,
                &BatchOptions::new().with_threads(threads),
            );
            assert_eq!(sequential.len(), parallel.len());
            for (i, (a, b)) in sequential.iter().zip(&parallel).enumerate() {
                assert_eq!(
                    a.outcome.is_satisfied(),
                    b.outcome.is_satisfied(),
                    "query {i} differs at {threads} threads"
                );
                assert_eq!(
                    matches!(a.outcome, Outcome::Unsatisfied),
                    matches!(b.outcome, Outcome::Unsatisfied),
                );
            }
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let net = paper_network();
        assert!(run_batch(
            &Verifier::new(&net),
            &[],
            &VerifyOptions::default(),
            &BatchOptions::new().with_threads(4),
        )
        .is_empty());
    }

    #[test]
    fn more_threads_than_queries_is_fine() {
        let net = paper_network();
        let qs = queries();
        let out = run_batch(
            &Verifier::new(&net),
            &qs[..2],
            &VerifyOptions::default(),
            &BatchOptions::new().with_threads(32),
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn cancelled_batch_answers_every_slot_in_order() {
        let net = paper_network();
        let qs = queries();
        let token = CancelToken::new();
        token.cancel();
        for threads in [1, 4] {
            let out = run_batch(
                &Verifier::new(&net),
                &qs,
                &VerifyOptions::new(),
                &BatchOptions::new()
                    .with_threads(threads)
                    .with_cancel(token.clone()),
            );
            assert_eq!(out.len(), qs.len());
            for (i, a) in out.iter().enumerate() {
                assert!(
                    matches!(a.outcome, Outcome::Aborted(AbortReason::Cancelled)),
                    "slot {i} not aborted at {threads} threads: {:?}",
                    a.outcome
                );
            }
        }
    }

    #[test]
    fn expired_batch_deadline_aborts_everything() {
        let net = paper_network();
        let qs = queries();
        let out = run_batch(
            &Verifier::new(&net),
            &qs,
            &VerifyOptions::new(),
            &BatchOptions::new()
                .with_threads(2)
                .with_deadline(Instant::now() - Duration::from_millis(1)),
        );
        assert_eq!(out.len(), qs.len());
        assert!(out
            .iter()
            .all(|a| matches!(a.outcome, Outcome::Aborted(AbortReason::DeadlineExceeded))));
    }

    #[test]
    fn panicking_engine_is_isolated_per_query() {
        /// An engine that panics on every odd query index (tracked by a
        /// shared counter) to exercise the batch panic isolation.
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
        let qs = queries();
        let engine = FlakyEngine {
            inner: Verifier::new(&net),
            calls: AtomicUsize::new(0),
        };
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
        let out = run_batch(&engine, &qs, &VerifyOptions::new(), &BatchOptions::new());
        std::panic::set_hook(prev_hook);
        assert_eq!(out.len(), qs.len());
        let errors: Vec<usize> = out
            .iter()
            .enumerate()
            .filter(|(_, a)| matches!(a.outcome, Outcome::Error(_)))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(errors, vec![1, 3, 5], "odd queries panic, rest survive");
        for (i, a) in out.iter().enumerate() {
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
        let mut qs = queries();
        let bad = 2usize;
        qs.insert(bad, parse_query("<ip> [.#v0] .* [v3#.] <ip> 7").unwrap());
        let reference = run_batch(
            &Verifier::new(&net),
            &qs,
            &VerifyOptions::default(),
            &BatchOptions::new().with_threads(1),
        );
        let engine = MarkerPanicEngine {
            inner: Verifier::new(&net),
        };
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence expected panics
        let out = run_batch(
            &engine,
            &qs,
            &VerifyOptions::new(),
            &BatchOptions::new().with_threads(4),
        );
        std::panic::set_hook(prev_hook);
        assert_eq!(out.len(), qs.len());
        for (i, (a, r)) in out.iter().zip(&reference).enumerate() {
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

    #[test]
    fn collection_degrades_missing_and_poisoned_slots() {
        let ok = Mutex::new(Some(Answer::new(Outcome::Unsatisfied, EngineStats::new())));
        let missing = Mutex::new(None);
        let poisoned = Mutex::new(Some(Answer::new(Outcome::Inconclusive, EngineStats::new())));
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = poisoned.lock().unwrap();
            panic!("poison the slot mutex");
        }));
        std::panic::set_hook(prev_hook);
        assert!(poisoned.is_poisoned());

        let out = collect_answers(vec![ok, missing, poisoned]);
        assert_eq!(out.len(), 3);
        assert!(matches!(out[0].outcome, Outcome::Unsatisfied));
        match &out[1].outcome {
            Outcome::Error(msg) => assert!(msg.contains("query 1"), "{msg}"),
            other => panic!("missing slot should be Error, got {other:?}"),
        }
        assert!(
            matches!(out[2].outcome, Outcome::Inconclusive),
            "a poisoned slot still yields its stored answer"
        );
    }

    #[test]
    fn repeated_queries_in_batch_hit_shared_cache() {
        let net = paper_network();
        let mut qs = queries();
        let half = qs.len();
        qs.extend(qs.clone());
        let out = run_batch(
            &Verifier::new(&net),
            &qs,
            &VerifyOptions::default(),
            &BatchOptions::new().with_threads(1),
        );
        let hits: usize = out.iter().map(|a| a.stats.cache_hits).sum();
        assert!(hits > 0, "second copies of each query must hit the cache");
        for i in 0..half {
            assert_eq!(
                format!("{:?}", out[i].outcome.kind()),
                format!("{:?}", out[i + half].outcome.kind()),
                "cached duplicate of query {i} changed its verdict"
            );
        }
    }

    #[test]
    fn moped_engine_dispatches_through_batch() {
        use crate::moped::MopedEngine;
        let net = paper_network();
        let qs = queries();
        let dual = run_batch(
            &Verifier::new(&net),
            &qs,
            &VerifyOptions::new(),
            &BatchOptions::new(),
        );
        let moped = run_batch(
            &MopedEngine::new(&net),
            &qs,
            &VerifyOptions::new(),
            &BatchOptions::new().with_threads(4),
        );
        assert_eq!(dual.len(), moped.len());
        for (i, (a, b)) in dual.iter().zip(&moped).enumerate() {
            assert_eq!(
                a.outcome.is_satisfied(),
                b.outcome.is_satisfied(),
                "engines disagree on query {i}"
            );
        }
    }
}

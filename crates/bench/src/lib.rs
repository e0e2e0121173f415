//! # aalwines-bench — the reproduction's benchmark harness
//!
//! One binary per paper artefact:
//!
//! * `table1` — regenerates Table 1 (six operator queries on the
//!   NORDUnet-like network; columns Moped / Dual / Failures-weighted),
//! * `figure4` — regenerates Figure 4 (cactus plot over Zoo-like
//!   networks; sorted per-instance verification times for the three
//!   engines, plus inconclusive-rate accounting),
//!
//! plus micro-benchmarks for the engine internals (saturation,
//! reductions on/off, weight-domain overhead, budget checking).
//!
//! All harness code uses wall-clock timing of the same code paths the
//! library exposes publicly; workloads are seeded and deterministic.

use aalwines::{
    Answer, AtomicQuantity, Engine as _, MopedEngine, Outcome, Verifier, VerifyOptions, WeightSpec,
};
use query::parse_query;
use std::time::{Duration, Instant};
use topogen::lsp::Dataplane;

/// Which engine configuration to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// The Moped-style baseline backend.
    Moped,
    /// AalWiNes' unweighted dual engine.
    Dual,
    /// AalWiNes' weighted engine minimizing `Failures`.
    WeightedFailures,
}

impl Engine {
    /// Column label as in the paper.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Moped => "Moped",
            Engine::Dual => "Dual",
            Engine::WeightedFailures => "Failures",
        }
    }

    /// All three engines in paper column order.
    pub fn all() -> [Engine; 3] {
        [Engine::Moped, Engine::Dual, Engine::WeightedFailures]
    }
}

/// Result of one timed verification.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Wall-clock time of the full pipeline (compile → construct →
    /// reduce → solve → validate).
    pub time: Duration,
    /// The engine's answer.
    pub answer: Answer,
}

/// Time one query on one engine, optionally under a per-query deadline.
pub fn run_one_with_timeout(
    dp: &Dataplane,
    query_text: &str,
    engine: Engine,
    timeout: Option<Duration>,
) -> Measurement {
    let q = parse_query(query_text).unwrap_or_else(|e| panic!("{query_text}: {e}"));
    let mut opts = VerifyOptions::new();
    if let Some(t) = timeout {
        opts = opts.with_timeout(t);
    }
    let t0 = Instant::now();
    let answer = match engine {
        Engine::Moped => MopedEngine::new(&dp.net).verify(&q, &opts),
        Engine::Dual => Verifier::new(&dp.net).verify(&q, &opts),
        Engine::WeightedFailures => Verifier::new(&dp.net).verify(
            &q,
            &opts.with_weights(WeightSpec::single(AtomicQuantity::Failures)),
        ),
    };
    Measurement {
        time: t0.elapsed(),
        answer,
    }
}

/// Time one query on one engine.
pub fn run_one(dp: &Dataplane, query_text: &str, engine: Engine) -> Measurement {
    run_one_with_timeout(dp, query_text, engine, None)
}

/// Render an outcome as a short cell.
pub fn outcome_cell(o: &Outcome) -> &'static str {
    match o {
        Outcome::Satisfied(_) => "sat",
        Outcome::Unsatisfied => "unsat",
        Outcome::Inconclusive => "inconcl",
        Outcome::Aborted(_) => "abort",
        Outcome::Error(_) => "error",
    }
}

/// Format a duration in seconds with paper-style precision.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

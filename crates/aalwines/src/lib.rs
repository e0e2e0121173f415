//! # aalwines — fast and quantitative what-if analysis for MPLS networks
//!
//! This crate is the core of a from-scratch Rust reproduction of
//! *AalWiNes: A Fast and Quantitative What-If Analysis Tool for MPLS
//! Networks* (CoNEXT 2020). Given an MPLS data plane
//! ([`netmodel::Network`]), a reachability query
//! ([`query::Query`], `<a> b <c> k`), and optionally a vector of linear
//! expressions over atomic trace quantities, it decides query
//! satisfiability under up to `k` link failures and produces a
//! (minimum-weight) witness trace.
//!
//! ## Pipeline (paper Section 4.2)
//!
//! 1. [`construction`] compiles network × query into a weighted pushdown
//!    system by **over-approximation**: a backup forwarding rule of local
//!    priority `j` is admitted whenever the links of all higher-priority
//!    groups (≤ `k` of them) *could* have failed at that router.
//! 2. [`pdaal::reduction`] prunes rules via top-of-stack analysis.
//! 3. `post*` saturation + shortest-path extraction answer reachability;
//!    an unsatisfied over-approximation is a conclusive **no**.
//! 4. A candidate witness is lifted back to a network trace and checked
//!    for **feasibility** (is there a concrete failure set of size ≤ `k`
//!    making it valid?). Feasible ⇒ conclusive **yes** with witness.
//! 5. Otherwise the **under-approximation** (a global failure counter in
//!    the control state, double-counting on loops) runs; a witness there
//!    is also a conclusive yes, else the answer is *inconclusive*.
//!
//! ## Engines
//!
//! * [`engine::Verifier`] — the dual over/under engine, unweighted
//!   (`Dual` in the paper's Table 1) or weighted by any
//!   [`quantities::WeightSpec`] (`Failures` column).
//! * [`moped`] — a baseline that mimics how the paper used the Moped
//!   model checker: the same dual flow, but every saturation round-trips
//!   the PDS through text, expands symbolic filters and runs classic
//!   unweighted `post*`, with no shortest-trace guidance.
//!
//! ## Precompute once, remember answers
//!
//! The workload is many what-if queries against *one* dataplane, so the
//! query-independent part of the construction — canonicalized operation
//! chains, per-group `needed(j)` failure counts, label kind tables — is
//! precomputed once per network ([`construction::NetworkPrecomp`]) and
//! shared across queries, both approximation phases, and batch worker
//! threads. On top of that, a bounded LRU [`cache::AnswerCache`] memoises
//! decided answers keyed on the parsed query, so re-verifying a query
//! skips the whole pipeline. See [`Verifier::with_cache_size`] /
//! [`Verifier::without_cache`].
//!
//! ## Budgets and telemetry
//!
//! Every verification can carry a resource budget — a wall-clock
//! deadline, a saturation-transition cap, and/or a cooperative
//! [`CancelToken`] — via the [`VerifyOptions`] builders; a blown budget
//! surfaces as [`Outcome::Aborted`] instead of an unbounded run.
//! Per-query [`EngineStats`] and batch-level
//! [`telemetry::BatchSummary`] serialize to JSON (hand-rolled,
//! serde-free) for machine consumption.
//!
//! ## Example
//!
//! ```
//! use aalwines::{Engine, Verifier, VerifyOptions, Outcome};
//! use query::parse_query;
//! use std::time::Duration;
//!
//! // The paper's running example network (Figure 1).
//! let net = aalwines::examples::paper_network();
//! let q = parse_query("<ip> [.#v0] .* [v3#.] <ip> 0").unwrap();
//! let verifier = Verifier::new(&net);
//! let opts = VerifyOptions::new().with_timeout(Duration::from_secs(5));
//! let answer = verifier.verify(&q, &opts);
//! assert!(matches!(answer.outcome, Outcome::Satisfied(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod construction;
pub mod engine;
pub mod examples;
pub mod lift;
pub mod moped;
pub mod quantities;
pub mod session;
pub mod stream;
pub mod telemetry;

pub use cache::{AnswerCache, CacheKey, Footprint, InvalidationReport, DEFAULT_CACHE_SIZE};
pub use construction::NetworkPrecomp;
pub use engine::{
    quick_decide, Answer, Engine, EngineStats, Outcome, QuickReason, Verifier, VerifyOptions,
    Witness,
};
pub use moped::MopedEngine;
pub use pdaal::budget::{AbortReason, Budget, CancelToken};
pub use quantities::{AtomicQuantity, LinearExpr, WeightSpec, WeightSpecError};
pub use session::{Backend, Delta, DeltaReport, Session, SessionBuilder, SessionStats};
pub use stream::{StreamEvent, StreamOptions, StreamProgress, StreamSummary};
pub use telemetry::{BatchSummary, PressureState, SummaryBuilder};

//! A resident verification session: one loaded dataplane plus its warm
//! state (precomputation, answer cache, watched queries), with
//! **incremental re-verification** after dataplane deltas.
//!
//! A bare [`Verifier`] is a cold start per network value: validation,
//! precomputation, and the answer cache all live and die with
//! the borrow. A [`Session`] inverts that — it *owns* the network and
//! keeps the expensive query-independent state resident across calls,
//! which is what a long-lived service (the `aalwinesd` daemon, the GUI
//! bridge) actually needs:
//!
//! * [`Session::verify`] / [`Session::verify_batch`] reuse the shared
//!   [`NetworkPrecomp`] and [`AnswerCache`] without re-validating
//!   the network per call.
//! * [`Session::apply_delta`] mutates the routing table in place
//!   (rule add/remove, priority change, link down/up) and then
//!   invalidates **only** the cached answers whose [`Footprint`]
//!   intersects the links the delta touched. Everything else stays
//!   warm, byte-identical, and keeps answering as cache hits.
//! * Watched queries ([`Session::watch`]) are re-verified after every
//!   delta; answers that changed come back in the [`DeltaReport`] so a
//!   service can push them to subscribers.
//!
//! ## Why footprints are sound
//!
//! The construction reads the routing table exclusively through the
//! per-link key lists of links it *visits* as real control states, and
//! an answer's footprint is exactly that visit set, united over the
//! phases that ran. Query compilation and the quick-decide pre-pass
//! depend only on topology and labels, which a [`Delta`] never changes
//! (a link-down is modelled as removing the rules forwarding over the
//! link, not as deleting the link). A routing delta at links outside an
//! answer's footprint therefore cannot change the pushdown systems a
//! recomputation would build; reduction, saturation and the shortest
//! accepted path are deterministic functions of those; and lifting the
//! witness and its feasibility check read routing groups only at links
//! *on the trace*, every one of which is a visited control state. So
//! retaining the cached answer is not a heuristic, it is exact.

use crate::cache::{AnswerCache, Footprint};
use crate::construction::NetworkPrecomp;
use crate::engine::{Answer, Engine, EngineStats, Verifier, VerifyOptions};
use crate::moped::MopedEngine;
use crate::stream::{run_stream, RunBudget, StreamEvent, StreamOptions, StreamSummary};
use crate::telemetry::JsonObject;
use dplint::{transition, LintFinding, LintReport};
use netmodel::{LabelId, LinkId, Network, RoutingEntry};
use pdaal::budget::CancelToken;
use query::{parse_query, CompiledQuery, Query};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which verification engine a [`Session`] dispatches to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Backend {
    /// The dual over/under approximation engine ([`Verifier`]).
    #[default]
    Dual,
    /// The Moped-style baseline ([`MopedEngine`]); ignores weights and
    /// the answer cache.
    Moped,
}

impl Backend {
    /// Stable lower-case name (used in JSON output and CLI flags).
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Dual => "dual",
            Backend::Moped => "moped",
        }
    }
}

/// One dataplane change a [`Session`] can apply incrementally.
///
/// Deltas mutate only the routing function `τ`; topology and label
/// universe are immutable for the lifetime of a session (that is what
/// keeps parsed queries valid as cache keys across deltas).
#[derive(Clone, Debug)]
pub enum Delta {
    /// Add one forwarding entry at `(in_link, label)` with the given
    /// 1-based priority.
    AddRule {
        /// Incoming link of the rule's key.
        in_link: LinkId,
        /// Top-of-stack label of the rule's key.
        label: LabelId,
        /// 1-based priority (1 = primary).
        priority: usize,
        /// The forwarding alternative to add.
        entry: RoutingEntry,
    },
    /// Remove one forwarding entry equal to `entry` from the group at
    /// `priority` of `(in_link, label)`.
    RemoveRule {
        /// Incoming link of the rule's key.
        in_link: LinkId,
        /// Top-of-stack label of the rule's key.
        label: LabelId,
        /// 1-based priority the entry currently sits at.
        priority: usize,
        /// The forwarding alternative to remove (matched exactly).
        entry: RoutingEntry,
    },
    /// Move the whole traffic-engineering group of `(in_link, label)`
    /// from priority `from` to priority `to` (re-ranking a failover).
    SetPriority {
        /// Incoming link of the rule's key.
        in_link: LinkId,
        /// Top-of-stack label of the rule's key.
        label: LabelId,
        /// Current 1-based priority of the group.
        from: usize,
        /// New 1-based priority.
        to: usize,
    },
    /// Take a link out of service: every rule forwarding *over* it is
    /// stashed and removed. The topology keeps the link (so compiled
    /// queries stay valid); only forwarding across it stops.
    LinkDown(LinkId),
    /// Restore a link previously taken down by [`Delta::LinkDown`],
    /// re-adding the stashed rules at their original priorities.
    LinkUp(LinkId),
}

impl Delta {
    /// Stable lower-case verb for JSON output.
    pub fn kind(&self) -> &'static str {
        match self {
            Delta::AddRule { .. } => "add-rule",
            Delta::RemoveRule { .. } => "remove-rule",
            Delta::SetPriority { .. } => "set-priority",
            Delta::LinkDown(_) => "link-down",
            Delta::LinkUp(_) => "link-up",
        }
    }

    /// Serialize in canonical **dense-index** form: the exact shape the
    /// `aalwinesd` wire protocol accepts for its `delta` verb, so a
    /// journaled delta replays through the same parser that admitted
    /// it. Indices are stable for the lifetime of a session because
    /// deltas never mutate topology or the label universe.
    pub fn to_json(&self) -> String {
        fn ops_json(entry: &RoutingEntry) -> String {
            let rendered: Vec<String> = entry
                .ops
                .iter()
                .map(|op| match op {
                    netmodel::Op::Pop => "\"pop\"".to_string(),
                    netmodel::Op::Swap(l) => format!("{{\"swap\":{}}}", l.index()),
                    netmodel::Op::Push(l) => format!("{{\"push\":{}}}", l.index()),
                })
                .collect();
            format!("[{}]", rendered.join(","))
        }
        let mut o = JsonObject::new();
        o.string("kind", self.kind());
        match self {
            Delta::AddRule {
                in_link,
                label,
                priority,
                entry,
            }
            | Delta::RemoveRule {
                in_link,
                label,
                priority,
                entry,
            } => {
                o.number("inLink", in_link.index() as f64);
                o.number("label", label.index() as f64);
                o.number("priority", *priority as f64);
                o.number("out", entry.out.index() as f64);
                o.raw("ops", &ops_json(entry));
            }
            Delta::SetPriority {
                in_link,
                label,
                from,
                to,
            } => {
                o.number("inLink", in_link.index() as f64);
                o.number("label", label.index() as f64);
                o.number("from", *from as f64);
                o.number("to", *to as f64);
            }
            Delta::LinkDown(link) | Delta::LinkUp(link) => {
                o.number("link", link.index() as f64);
            }
        }
        o.finish()
    }
}

/// A watched query whose answer changed under a delta.
#[derive(Clone, Debug)]
pub struct ChangedAnswer {
    /// Index of the watched query (as returned by [`Session::watch`]).
    pub index: usize,
    /// The watched query's original text.
    pub query: String,
    /// The fresh post-delta answer.
    pub answer: Answer,
}

/// How the lint report changed with a delta (present only when
/// [`Session::lint`] has been called at least once — lint state is
/// lazy).
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct LintUpdate {
    /// Base-report findings that appeared with this delta.
    pub added: Vec<LintFinding>,
    /// Base-report findings that disappeared with this delta.
    pub removed: Vec<LintFinding>,
    /// Delta-native findings (`DP016`/`DP017`/`QL004`).
    pub delta_findings: Vec<LintFinding>,
}

impl LintUpdate {
    /// Findings added plus findings removed.
    pub fn changed(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

/// What [`Session::apply_delta`] did: whether the dataplane actually
/// changed, the cache-invalidation split, and which watched answers
/// flipped.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct DeltaReport {
    /// Whether the delta changed the routing table at all. `false`
    /// (e.g. removing a rule that does not exist, downing an already
    /// downed link) means nothing else in the report happened.
    pub applied: bool,
    /// Why an [`Delta::AddRule`] was rejected, if it was.
    pub error: Option<String>,
    /// Distinct links whose key lists changed (the invalidation probe).
    pub touched_links: usize,
    /// Cached answers dropped because their footprint intersects the
    /// touched links.
    pub invalidated: usize,
    /// Cached answers retained (footprint disjoint from the delta) —
    /// these keep answering as cache hits, provably unchanged.
    pub retained: usize,
    /// Watched queries recomputed after the delta — those whose cached
    /// answer the delta evicted (every watched query, without a cache).
    /// Watched queries answered from the cache are not counted.
    pub reverified: usize,
    /// Watched queries whose answer changed, with the new answer.
    pub changed: Vec<ChangedAnswer>,
    /// How the lint report changed, when one is resident (see
    /// [`Session::lint`]).
    pub lint: Option<LintUpdate>,
}

impl DeltaReport {
    /// Serialize the countable part as one JSON object (the `changed`
    /// answers need network context to render and are serialized by the
    /// caller). The lint counter is always present — zero when no
    /// lint report is resident — so consumers never branch on key
    /// presence.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.boolean("applied", self.applied);
        match &self.error {
            Some(e) => o.string("error", e),
            None => o.null("error"),
        }
        o.number("touchedLinks", self.touched_links as f64);
        o.number("invalidated", self.invalidated as f64);
        o.number("retained", self.retained as f64);
        o.number("reverified", self.reverified as f64);
        o.number("changed", self.changed.len() as f64);
        let lint = self.lint.as_ref();
        o.number("lintChanged", lint.map_or(0, LintUpdate::changed) as f64);
        o.finish()
    }
}

/// A point-in-time snapshot of a session's resident state, for the
/// `stats` verb and `--stats` output.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct SessionStats {
    /// Engine backend name ("dual" / "moped").
    pub backend: &'static str,
    /// Worker threads of [`Session::verify_batch`] and
    /// [`Session::verify_stream`].
    pub threads: usize,
    /// Queries answered since the session opened (single + batch).
    pub queries: usize,
    /// Deltas that actually changed the dataplane.
    pub deltas_applied: usize,
    /// Cached answers invalidated across all deltas.
    pub invalidated_total: usize,
    /// Cached answers retained across all deltas.
    pub retained_total: usize,
    /// Currently cached answers.
    pub cache_entries: usize,
    /// Answer-cache capacity (0 when caching is disabled).
    pub cache_capacity: usize,
    /// Estimated resident heap of precomputation + cache, in bytes.
    pub bytes_resident: usize,
    /// Watched queries registered via [`Session::watch`].
    pub watched: usize,
    /// Answer-cache entries shed under memory pressure via
    /// [`Session::shed_cache_to`], cumulative.
    pub shed_entries_total: usize,
    /// Links currently taken down by [`Delta::LinkDown`].
    pub downed_links: usize,
    /// Validation issues in the current dataplane.
    pub validation_issues: usize,
    /// Routing rules in the current dataplane.
    pub rules: usize,
    /// Total milliseconds spent linting (the first lint plus one
    /// re-lint per delta) since the session opened.
    pub lint_millis: f64,
}

impl SessionStats {
    /// Serialize as one JSON object (the payload of a `"session-stats"`
    /// envelope).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.string("backend", self.backend);
        o.number("threads", self.threads as f64);
        o.number("queries", self.queries as f64);
        o.number("deltasApplied", self.deltas_applied as f64);
        o.number("invalidatedTotal", self.invalidated_total as f64);
        o.number("retainedTotal", self.retained_total as f64);
        o.number("cacheEntries", self.cache_entries as f64);
        o.number("cacheCapacity", self.cache_capacity as f64);
        o.number("bytesResident", self.bytes_resident as f64);
        o.number("watched", self.watched as f64);
        o.number("shedEntriesTotal", self.shed_entries_total as f64);
        o.number("downedLinks", self.downed_links as f64);
        o.number("validationIssues", self.validation_issues as f64);
        o.number("rules", self.rules as f64);
        o.number("lintMillis", self.lint_millis);
        o.finish()
    }
}

/// What [`Session::lint`] returned: the full (byte-identical-to-cold)
/// report plus the telemetry of producing it.
#[derive(Clone, Debug)]
pub struct LintOutcome {
    /// The current lint report for the resident dataplane.
    pub report: LintReport,
    /// Telemetry: `lint_millis` is the cost of *this* call (a cold
    /// lint on first use, near-zero afterwards).
    pub stats: EngineStats,
}

/// Configuration for a [`Session`] (entry point:
/// [`Session::builder`]).
#[derive(Clone, Debug)]
pub struct SessionBuilder {
    threads: usize,
    cache_size: usize,
    backend: Backend,
    opts: VerifyOptions,
    batch_timeout: Option<Duration>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            threads: 1,
            cache_size: crate::cache::DEFAULT_CACHE_SIZE,
            backend: Backend::Dual,
            opts: VerifyOptions::new(),
            batch_timeout: None,
        }
    }
}

impl SessionBuilder {
    /// Default configuration: dual engine, one worker thread, default
    /// cache size, no budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker threads for [`Session::verify_batch`] and
    /// [`Session::verify_stream`] (0 or 1 runs inline).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Give every query this much wall-clock time from the moment its
    /// verification starts.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.opts = self.opts.with_timeout(timeout);
        self
    }

    /// Poll `cancel` during every verification (and between the queries
    /// of a batch or stream run).
    pub fn cancel(mut self, cancel: CancelToken) -> Self {
        self.opts = self.opts.with_cancel(cancel);
        self
    }

    /// Give each [`Session::verify_batch`] or [`Session::verify_stream`]
    /// call this much wall-clock time as a whole (measured from the
    /// start of that call);
    /// queries whose turn comes after it expires answer `Aborted`
    /// without running.
    pub fn batch_timeout(mut self, timeout: Duration) -> Self {
        self.batch_timeout = Some(timeout);
        self
    }

    /// Answer-cache capacity in entries; 0 disables caching (and with
    /// it incremental retention — every delta then recomputes from
    /// scratch).
    pub fn cache_size(mut self, capacity: usize) -> Self {
        self.cache_size = capacity;
        self
    }

    /// Which engine answers queries.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Replace the per-query options wholesale (weights, transition
    /// budget, ...). Budget builders called earlier
    /// on this builder are overwritten.
    pub fn verify_options(mut self, opts: VerifyOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Open a session owning `net`: validates once, precomputes once,
    /// and keeps both resident.
    pub fn open(self, net: Network) -> Session {
        let validation_issues = net.validate().len();
        let precomp = Arc::new(NetworkPrecomp::new(&net));
        let cache = (self.cache_size > 0).then(|| Arc::new(AnswerCache::new(self.cache_size)));
        Session {
            net,
            precomp,
            cache,
            validation_issues,
            backend: self.backend,
            opts: self.opts,
            threads: self.threads,
            batch_timeout: self.batch_timeout,
            watched: Vec::new(),
            downed: Vec::new(),
            queries: AtomicUsize::new(0),
            deltas_applied: 0,
            invalidated_total: 0,
            retained_total: 0,
            shed_total: AtomicUsize::new(0),
            lint: None,
            lint_relinted: Vec::new(),
            lint_millis: 0.0,
        }
    }
}

/// One stashed rule of a downed link: `(in_link, label, priority,
/// entry)`, exactly as [`Network::entries_over`] reports it.
type StashedRule = (LinkId, LabelId, usize, RoutingEntry);

/// A link taken down by [`Delta::LinkDown`].
struct Downed {
    link: LinkId,
    /// The rules [`Delta::LinkUp`] restores.
    stash: Vec<StashedRule>,
    /// Keys whose rules changed while the link was down: a restored
    /// rule at one of them may now be shadowed (`DP017`).
    changed_meanwhile: HashSet<(LinkId, LabelId)>,
}

/// A watched query: re-verified after every delta so changed answers
/// can be pushed.
struct Watched {
    text: String,
    query: Query,
    /// Canonical signature of the last answer's outcome (witness
    /// included), used to detect changes.
    last_signature: String,
    /// Once lint is resident: the compiled query and whether it is
    /// start-dead on the current table — the `QL004` baseline.
    start_dead: Option<(CompiledQuery, bool)>,
}

impl Watched {
    fn note_start_dead(&mut self, net: &Network) {
        let compiled = query::compile(&self.query, net);
        let dead = transition::query_starts_dead(net, &compiled);
        self.start_dead = Some((compiled, dead));
    }
}

/// A resident verification session. See the [module docs](self).
pub struct Session {
    net: Network,
    precomp: Arc<NetworkPrecomp>,
    cache: Option<Arc<AnswerCache>>,
    validation_issues: usize,
    backend: Backend,
    opts: VerifyOptions,
    threads: usize,
    batch_timeout: Option<Duration>,
    watched: Vec<Watched>,
    /// Links taken down, in the order they went down.
    downed: Vec<Downed>,
    queries: AtomicUsize,
    deltas_applied: usize,
    invalidated_total: usize,
    retained_total: usize,
    /// Cache entries shed under memory pressure (atomic so shedding can
    /// run behind a shared reference, e.g. under a service's read lock).
    shed_total: AtomicUsize,
    /// The resident lint report: built by the first [`Session::lint`]
    /// call and re-linted cold by every [`Session::apply_delta`] from
    /// then on.
    lint: Option<LintReport>,
    /// The routing keys the last re-lint analysed.
    lint_relinted: Vec<(LinkId, LabelId)>,
    /// Total milliseconds spent linting.
    lint_millis: f64,
}

/// Canonical signature of an answer for change detection: the outcome
/// (verdict + witness trace) without timing noise.
fn outcome_signature(answer: &Answer) -> String {
    format!("{:?}", answer.outcome)
}

impl Session {
    /// Start configuring a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// A session over `net` with default configuration.
    pub fn open(net: Network) -> Self {
        SessionBuilder::new().open(net)
    }

    /// The dataplane this session verifies against. Mutate it only
    /// through [`Session::apply_delta`] — out-of-band mutation would
    /// desynchronize the resident precomputation and cache.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The per-query options every verification runs under.
    pub fn options(&self) -> &VerifyOptions {
        &self.opts
    }

    /// Run `f` with the configured engine over the current warm state.
    fn with_engine<R>(&self, f: impl FnOnce(&dyn Engine) -> R) -> R {
        match self.backend {
            Backend::Dual => f(&Verifier::from_parts(
                &self.net,
                Arc::clone(&self.precomp),
                self.cache.clone(),
                self.validation_issues,
            )),
            Backend::Moped => f(&MopedEngine::from_parts(
                &self.net,
                Arc::clone(&self.precomp),
                self.validation_issues,
            )),
        }
    }

    /// Verify one parsed query against the resident dataplane.
    pub fn verify(&self, q: &Query) -> Answer {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.with_engine(|e| e.verify(q, &self.opts))
    }

    /// Parse and verify one query text.
    pub fn verify_text(&self, text: &str) -> Result<Answer, String> {
        let q = parse_query(text).map_err(|e| e.to_string())?;
        Ok(self.verify(&q))
    }

    /// Verify a batch of queries (exactly one answer per query, in
    /// order) using the session's worker threads: a collect over the
    /// same driver as [`Session::verify_stream`].
    pub fn verify_batch(&self, queries: &[Query]) -> Vec<Answer> {
        let mut answers = Vec::with_capacity(queries.len());
        let parsed = queries.iter().map(|q| (String::new(), Ok(q.clone())));
        self.run(parsed, &StreamOptions::new(), &mut |ev| {
            if let StreamEvent::Answer { answer, .. } = ev {
                answers.push(answer.clone());
            }
        });
        answers
    }

    /// Stream query texts through parse → verify → emit with bounded
    /// in-flight memory.
    ///
    /// Unlike [`Session::verify_batch`], neither the input nor the
    /// answers are ever materialized as a whole: at most
    /// [`StreamOptions::window`] queries are in flight, and each answer
    /// is handed to `emit` **in input order** as soon as it (and every
    /// earlier answer) completes. A line that fails to parse produces a
    /// per-query error answer (flagged `parse_error`) instead of
    /// aborting the run. When a progress interval is configured,
    /// [`StreamEvent::Progress`] events are interleaved with live
    /// throughput, latency-so-far percentiles, and a resident-bytes
    /// estimate. Uses the session's worker threads, per-query options,
    /// batch timeout, and cancel token, exactly like `verify_batch`.
    pub fn verify_stream<I>(
        &self,
        lines: I,
        stream: &StreamOptions,
        emit: &mut dyn FnMut(StreamEvent<'_>),
    ) -> StreamSummary
    where
        I: Iterator<Item = String> + Send,
    {
        // Lazy: each line is parsed as the driver pulls it.
        let parsed = lines.map(|text| {
            let q = parse_query(&text).map_err(|e| e.to_string());
            (text, q)
        });
        self.run(parsed, stream, emit)
    }

    /// The one multi-query path: run `queries` through the driver under
    /// the session's worker threads, per-query options, batch timeout
    /// (counted from this call) and cancel token.
    fn run<I>(
        &self,
        queries: I,
        stream: &StreamOptions,
        emit: &mut dyn FnMut(StreamEvent<'_>),
    ) -> StreamSummary
    where
        I: Iterator<Item = (String, Result<Query, String>)> + Send,
    {
        let budget = RunBudget {
            threads: self.threads,
            deadline: self.batch_timeout.map(|t| Instant::now() + t),
            // The session's cancel token also skips queries that have
            // not started yet.
            cancel: self.opts.cancel.clone(),
        };
        let bytes = || self.net.bytes_resident() + self.bytes_resident();
        let summary =
            self.with_engine(|e| run_stream(e, queries, &self.opts, &budget, stream, &bytes, emit));
        self.queries
            .fetch_add(summary.batch.total, Ordering::Relaxed);
        summary
    }

    /// Register a query for re-verification after every delta. Verifies
    /// it immediately (priming the cache) and returns the watch index
    /// plus the current answer.
    pub fn watch(&mut self, text: &str) -> Result<(usize, Answer), String> {
        let query = parse_query(text).map_err(|e| e.to_string())?;
        let answer = self.verify(&query);
        let mut watched = Watched {
            text: text.to_string(),
            query,
            last_signature: outcome_signature(&answer),
            start_dead: None,
        };
        if self.lint.is_some() {
            // Record the QL004 start-dead baseline at watch time, so
            // the lint only ever reports a *delta-caused* transition.
            watched.note_start_dead(&self.net);
        }
        self.watched.push(watched);
        Ok((self.watched.len() - 1, answer))
    }

    /// Texts of the currently watched queries, in watch-index order.
    pub fn watched_queries(&self) -> Vec<&str> {
        self.watched.iter().map(|w| w.text.as_str()).collect()
    }

    /// Links currently out of service ([`Delta::LinkDown`] without a
    /// matching [`Delta::LinkUp`] yet), in the order they went down.
    pub fn downed_links(&self) -> Vec<LinkId> {
        self.downed.iter().map(|d| d.link).collect()
    }

    /// Estimated resident heap bytes of the session's warm state
    /// (precomputation plus answer cache).
    pub fn bytes_resident(&self) -> usize {
        let mut bytes = self.precomp.bytes_resident();
        if let Some(cache) = &self.cache {
            bytes += cache.bytes_resident();
        }
        bytes
    }

    /// Graceful degradation under memory pressure: shed
    /// least-recently-used cached answers until
    /// [`Session::bytes_resident`] fits inside `max_bytes`. The
    /// precomputation itself is not sheddable (it is required for every
    /// future verification), so the cache gets whatever budget remains
    /// after it — possibly zero, emptying the cache. Returns how many
    /// entries were shed; callers that still exceed `max_bytes`
    /// afterwards must degrade further themselves (e.g. refuse new
    /// subscriptions).
    pub fn shed_cache_to(&self, max_bytes: usize) -> usize {
        let Some(cache) = &self.cache else { return 0 };
        let cache_budget = max_bytes.saturating_sub(self.precomp.bytes_resident());
        let shed = cache.shed_to_bytes(cache_budget);
        self.shed_total.fetch_add(shed, Ordering::Relaxed);
        shed
    }

    /// Lint the resident dataplane. The first call runs
    /// `dplint::lint_network` (and records every already-watched
    /// query's `QL004` baseline); from then on [`Session::apply_delta`]
    /// re-lints after every delta, so repeat calls are near-free. The
    /// returned report is the one a cold `dplint::lint_network` run on
    /// the current network produces.
    pub fn lint(&mut self) -> LintOutcome {
        let start = Instant::now();
        if self.lint.is_none() {
            for w in &mut self.watched {
                w.note_start_dead(&self.net);
            }
        }
        let net = &self.net;
        let report = self
            .lint
            .get_or_insert_with(|| dplint::lint_network(net))
            .clone();
        let mut stats = EngineStats::new();
        stats.lint_millis = crate::telemetry::millis(start.elapsed());
        self.lint_millis += stats.lint_millis;
        LintOutcome { report, stats }
    }

    /// Whether [`Session::lint`] has built the resident lint report yet.
    pub fn lint_resident(&self) -> bool {
        self.lint.is_some()
    }

    /// The routing keys the most recent delta's re-lint analysed, when
    /// a lint report is resident: every key of the table, since each
    /// re-lint is cold. Empty before the first delta.
    pub fn lint_last_relinted(&self) -> Option<&[(LinkId, LabelId)]> {
        self.lint.as_ref().map(|_| self.lint_relinted.as_slice())
    }

    /// Apply one dataplane delta incrementally: mutate the routing
    /// table, rebuild the query-independent precomputation, drop only
    /// the cached answers whose footprint intersects the touched
    /// links, re-verify watched queries, and (when a lint report is
    /// resident) re-lint the table and diff the two reports.
    pub fn apply_delta(&mut self, delta: &Delta) -> DeltaReport {
        let mut report = DeltaReport::default();
        let mut touched = Footprint::new();
        // `DP017` findings of a link-up, checked against the restored
        // table.
        let mut stale_restores = Vec::new();

        let changed_key = match delta {
            Delta::AddRule {
                in_link,
                label,
                priority,
                entry,
            } => match self
                .net
                .try_add_rule(*in_link, *label, *priority, entry.clone())
            {
                Ok(()) => Some((*in_link, *label)),
                Err(issue) => {
                    report.error = Some(issue.to_string());
                    None
                }
            },
            Delta::RemoveRule {
                in_link,
                label,
                priority,
                entry,
            } => self
                .net
                .remove_entry(*in_link, *label, *priority, entry)
                .then_some((*in_link, *label)),
            Delta::SetPriority {
                in_link,
                label,
                from,
                to,
            } => self
                .net
                .move_group(*in_link, *label, *from, *to)
                .then_some((*in_link, *label)),
            Delta::LinkDown(link) => {
                if self.downed.iter().any(|d| d.link == *link) {
                    report.error = Some(format!(
                        "link {} is already down",
                        self.net.topology.link_name(*link)
                    ));
                    return report;
                }
                let stash = self.net.entries_over(*link);
                for (in_link, label, priority, entry) in &stash {
                    self.net.remove_entry(*in_link, *label, *priority, entry);
                    touched.insert(*in_link);
                }
                // Stash even an empty hit list: the link is now "down"
                // and a later LinkUp must find it.
                report.applied = true;
                self.downed.push(Downed {
                    link: *link,
                    stash,
                    changed_meanwhile: HashSet::new(),
                });
                None
            }
            Delta::LinkUp(link) => {
                let Some(pos) = self.downed.iter().position(|d| d.link == *link) else {
                    // Restoring a link that was never taken down is a
                    // client mistake, not a silent success: say so.
                    report.error = Some(format!(
                        "link {} is not down; nothing to restore",
                        self.net.topology.link_name(*link)
                    ));
                    return report;
                };
                let downed = self.downed.remove(pos);
                let suspects: Vec<_> = downed
                    .stash
                    .iter()
                    .filter(|r| downed.changed_meanwhile.contains(&(r.0, r.1)))
                    .map(|r| ((r.0, r.1), r.2, r.3.out))
                    .collect();
                for (in_link, label, priority, entry) in downed.stash {
                    // The stashed rules were well-formed when removed and
                    // topology is immutable, so unchecked re-insertion at
                    // the original priority is exact.
                    self.net.add_rule_unchecked(in_link, label, priority, entry);
                    touched.insert(in_link);
                }
                stale_restores.extend(suspects.into_iter().filter_map(|(key, priority, out)| {
                    transition::stale_restore_shadow(&self.net, *link, key, priority, out)
                }));
                report.applied = true;
                None
            }
        };
        if let Some(key) = changed_key {
            touched.insert(key.0);
            report.applied = true;
            for downed in &mut self.downed {
                downed.changed_meanwhile.insert(key);
            }
        }

        if !report.applied {
            return report;
        }

        report.touched_links = touched.len();
        // The precomp's per-link key lists mirror the routing table, so
        // it is rebuilt wholesale (it is cheap relative to construction)
        // while the cache is pruned surgically by footprint.
        self.precomp = Arc::new(NetworkPrecomp::new(&self.net));
        self.validation_issues = self.net.validate().len();
        if let Some(cache) = &self.cache {
            let inv = cache.invalidate_intersecting(&touched);
            report.invalidated = inv.invalidated;
            report.retained = inv.retained;
        }
        self.deltas_applied += 1;
        self.invalidated_total += report.invalidated;
        self.retained_total += report.retained;

        // Re-verify watched queries against the new dataplane; entries
        // the delta could not have affected answer straight from cache
        // and are not counted as re-verified.
        for i in 0..self.watched.len() {
            let answer = self.verify(&self.watched[i].query);
            // Not `cache_misses`: the Moped baseline computes without
            // setting it.
            report.reverified += usize::from(answer.stats.cache_hits == 0);
            let signature = outcome_signature(&answer);
            if signature != self.watched[i].last_signature {
                self.watched[i].last_signature = signature;
                report.changed.push(ChangedAnswer {
                    index: i,
                    query: self.watched[i].text.clone(),
                    answer,
                });
            }
        }

        // Re-lint when a lint report is resident (lazy: sessions that
        // never lint pay nothing), and derive the transition lints from
        // the diff and the delta.
        if let Some(before) = &self.lint {
            let start = Instant::now();
            let after = dplint::lint_network(&self.net);
            let (added, removed) = before.diff(&after);
            let mut delta_findings = stale_restores;
            delta_findings.extend(transition::delta_blackholes(&added));
            for w in &mut self.watched {
                if let Some((compiled, was_dead)) = &mut w.start_dead {
                    let dead = transition::query_starts_dead(&self.net, compiled);
                    if dead && !*was_dead {
                        delta_findings.push(transition::dead_after_delta(&w.text));
                    }
                    *was_dead = dead;
                }
            }
            self.lint = Some(after);
            self.lint_relinted.clear();
            self.lint_relinted.extend(self.net.routing_keys());
            self.lint_millis += crate::telemetry::millis(start.elapsed());
            report.lint = Some(LintUpdate {
                added,
                removed,
                delta_findings,
            });
        }
        report
    }

    /// Snapshot the session's resident-state counters.
    pub fn stats(&self) -> SessionStats {
        let mut s = SessionStats {
            backend: self.backend.as_str(),
            threads: self.threads,
            queries: self.queries.load(Ordering::Relaxed),
            deltas_applied: self.deltas_applied,
            invalidated_total: self.invalidated_total,
            retained_total: self.retained_total,
            watched: self.watched.len(),
            shed_entries_total: self.shed_total.load(Ordering::Relaxed),
            downed_links: self.downed.len(),
            validation_issues: self.validation_issues,
            rules: self.net.num_rules(),
            bytes_resident: self.precomp.bytes_resident(),
            lint_millis: self.lint_millis,
            ..SessionStats::default()
        };
        if let Some(cache) = &self.cache {
            s.cache_entries = cache.len();
            s.cache_capacity = cache.capacity();
            s.bytes_resident += cache.bytes_resident();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples::{paper_network, PAPER_QUERIES};
    use crate::Outcome;
    use dplint::LintRule;
    use netmodel::Op;

    fn demo_queries() -> &'static [&'static str] {
        &PAPER_QUERIES[..3]
    }

    #[test]
    fn session_answers_match_cold_verifier() {
        let net = paper_network();
        let session = Session::open(net.clone());
        for text in demo_queries() {
            let q = parse_query(text).unwrap();
            let cold = Verifier::new(&net).verify(&q, &VerifyOptions::new());
            let warm = session.verify(&q);
            assert_eq!(outcome_signature(&cold), outcome_signature(&warm), "{text}");
        }
    }

    #[test]
    fn batch_runs_through_session_threads() {
        let net = paper_network();
        let session = Session::builder().threads(4).open(net);
        let qs: Vec<Query> = demo_queries()
            .iter()
            .map(|t| parse_query(t).unwrap())
            .collect();
        let answers = session.verify_batch(&qs);
        assert_eq!(answers.len(), qs.len());
        assert_eq!(session.stats().queries, qs.len());
    }

    #[test]
    fn unapplied_delta_changes_nothing() {
        let mut session = Session::open(paper_network());
        let (_, _) = session.watch(demo_queries()[0]).unwrap();
        let before = session.stats();
        // Removing a rule that does not exist applies nothing.
        let report = session.apply_delta(&Delta::RemoveRule {
            in_link: LinkId(0),
            label: LabelId(0),
            priority: 99,
            entry: RoutingEntry {
                out: LinkId(0),
                ops: vec![Op::Pop].into(),
            },
        });
        assert!(!report.applied);
        assert_eq!(report.invalidated, 0);
        assert!(report.changed.is_empty());
        assert_eq!(session.stats().deltas_applied, before.deltas_applied);
    }

    #[test]
    fn link_down_then_up_restores_the_table() {
        let mut session = Session::open(paper_network());
        let rules_before = session.network().num_rules();
        let link = LinkId(2);
        let down = session.apply_delta(&Delta::LinkDown(link));
        assert!(down.applied);
        assert!(session.network().num_rules() <= rules_before);
        // Downing again is a no-op.
        assert!(!session.apply_delta(&Delta::LinkDown(link)).applied);
        let up = session.apply_delta(&Delta::LinkUp(link));
        assert!(up.applied);
        assert_eq!(session.network().num_rules(), rules_before);
        // Upping again is a no-op.
        assert!(!session.apply_delta(&Delta::LinkUp(link)).applied);
    }

    #[test]
    fn watch_pushes_changed_answers() {
        let mut session = Session::open(paper_network());
        let (idx, first) = session.watch(demo_queries()[0]).unwrap();
        assert_eq!(idx, 0);
        assert!(matches!(first.outcome, Outcome::Satisfied(_)));
        // Sever the dataplane completely: every link goes down, so the
        // reachability query must flip away from its old witness.
        let links = session.network().topology.num_links();
        let mut flipped = false;
        for l in 0..links {
            let report = session.apply_delta(&Delta::LinkDown(LinkId(l)));
            if report.changed.iter().any(|c| c.index == idx) {
                flipped = true;
            }
        }
        assert!(flipped, "tearing down every link must change the answer");
    }

    #[test]
    fn stats_track_resident_state() {
        let session = Session::open(paper_network());
        let q = parse_query(demo_queries()[0]).unwrap();
        session.verify(&q);
        let s = session.stats();
        assert_eq!(s.backend, "dual");
        assert_eq!(s.queries, 1);
        assert!(s.cache_capacity > 0);
        assert!(s.cache_entries > 0, "the verify must have filled the cache");
        assert!(s.bytes_resident > 0);
        assert!(s.rules > 0);
        let json = s.to_json();
        assert!(json.contains("\"bytesResident\":"));
        assert!(json.contains("\"backend\":\"dual\""));
    }

    #[test]
    fn link_up_on_a_live_link_reports_an_error() {
        let mut session = Session::open(paper_network());
        let report = session.apply_delta(&Delta::LinkUp(LinkId(3)));
        assert!(!report.applied);
        // The report serializes the explanation too.
        assert!(report_to_json_has_error(&report));
        let error = report
            .error
            .expect("LinkUp on a live link must explain itself");
        assert!(error.contains("not down"), "{error}");

        // Downing twice also explains instead of silently no-opping.
        assert!(session.apply_delta(&Delta::LinkDown(LinkId(3))).applied);
        let again = session.apply_delta(&Delta::LinkDown(LinkId(3)));
        assert!(!again.applied);
        assert!(again
            .error
            .expect("double down explains")
            .contains("already down"));
        assert_eq!(session.downed_links(), vec![LinkId(3)]);
    }

    fn report_to_json_has_error(report: &DeltaReport) -> bool {
        let json = report.to_json();
        json.contains("\"error\":\"") && json.contains("\"applied\":false")
    }

    #[test]
    fn delta_to_json_is_canonical_index_form() {
        let add = Delta::AddRule {
            in_link: LinkId(1),
            label: LabelId(2),
            priority: 1,
            entry: RoutingEntry {
                out: LinkId(3),
                ops: vec![Op::Pop, Op::Swap(LabelId(4)), Op::Push(LabelId(5))].into(),
            },
        };
        assert_eq!(
            add.to_json(),
            r#"{"kind":"add-rule","inLink":1,"label":2,"priority":1,"out":3,"ops":["pop",{"swap":4},{"push":5}]}"#
        );
        assert_eq!(
            Delta::LinkDown(LinkId(7)).to_json(),
            r#"{"kind":"link-down","link":7}"#
        );
        assert_eq!(
            Delta::SetPriority {
                in_link: LinkId(0),
                label: LabelId(1),
                from: 2,
                to: 1
            }
            .to_json(),
            r#"{"kind":"set-priority","inLink":0,"label":1,"from":2,"to":1}"#
        );
    }

    #[test]
    fn shed_cache_to_degrades_gracefully() {
        let session = Session::open(paper_network());
        for text in demo_queries() {
            let q = parse_query(text).unwrap();
            session.verify(&q);
        }
        let warm = session.stats();
        assert!(warm.cache_entries > 0);

        // A generous budget sheds nothing.
        assert_eq!(session.shed_cache_to(usize::MAX), 0);

        // An impossible budget (smaller than the precomp itself) empties
        // the cache but leaves the session able to answer.
        let shed = session.shed_cache_to(1);
        assert_eq!(shed, warm.cache_entries);
        let after = session.stats();
        assert_eq!(after.cache_entries, 0);
        assert_eq!(after.shed_entries_total, shed);
        assert!(after.bytes_resident < warm.bytes_resident);
        let q = parse_query(demo_queries()[0]).unwrap();
        assert!(session.verify(&q).outcome.is_satisfied());
        assert!(after.to_json().contains("\"shedEntriesTotal\":"));
    }

    #[test]
    fn moped_backend_dispatches() {
        let session = Session::builder()
            .backend(Backend::Moped)
            .open(paper_network());
        let q = parse_query(demo_queries()[0]).unwrap();
        let a = session.verify(&q);
        assert!(a.outcome.is_satisfied());
        assert_eq!(session.stats().backend, "moped");
    }

    /// v0 -e0-> v1 -e1-> v2 -e2-> v3, plus v1 -e3-> v2 and v2 -e4-> v1.
    fn diamond() -> (netmodel::Topology, Vec<LinkId>) {
        let mut t = netmodel::Topology::new();
        let v0 = t.add_router("v0", None);
        let v1 = t.add_router("v1", None);
        let v2 = t.add_router("v2", None);
        let v3 = t.add_router("v3", None);
        let e0 = t.add_link(v0, "a", v1, "b", 1);
        let e1 = t.add_link(v1, "c", v2, "d", 1);
        let e2 = t.add_link(v2, "e", v3, "f", 1);
        let e3 = t.add_link(v1, "g", v2, "h", 1);
        let e4 = t.add_link(v2, "i", v1, "j", 1);
        (t, vec![e0, e1, e2, e3, e4])
    }

    fn entry(out: LinkId, ops: Vec<Op>) -> RoutingEntry {
        RoutingEntry {
            out,
            ops: ops.into(),
        }
    }

    /// A session over `net` with its lint report resident.
    fn linted(net: Network) -> Session {
        let mut session = Session::open(net);
        session.lint();
        session
    }

    /// Apply `delta` and return how the lint report changed.
    fn lint_delta(session: &mut Session, delta: Delta) -> LintUpdate {
        let report = session.apply_delta(&delta);
        assert!(report.applied, "{:?}", report.error);
        report.lint.expect("a resident lint report re-lints")
    }

    fn assert_matches_cold(session: &mut Session) {
        assert_eq!(
            session.lint().report.to_json(),
            dplint::lint_network(session.network()).to_json(),
            "resident report diverged from a cold run"
        );
    }

    #[test]
    fn cold_build_matches_lint_network() {
        let mut session = linted(paper_network());
        assert_matches_cold(&mut session);
        assert_eq!(session.lint_last_relinted(), Some(&[][..]));
    }

    #[test]
    fn rule_change_introducing_blackhole_fires_dp016() {
        let (t, e) = diamond();
        let mut labels = netmodel::LabelTable::new();
        let s1 = labels.mpls_bos("s1");
        let s2 = labels.mpls_bos("s2");
        let s3 = labels.mpls_bos("s3");
        let mut net = Network::new(t, labels);
        net.add_rule(e[0], s1, 1, entry(e[1], vec![Op::Swap(s2)]));
        net.add_rule(e[1], s2, 1, entry(e[2], vec![Op::Pop]));
        let mut session = linted(net);
        assert!(session.lint().report.is_clean());

        // Retarget v1's rule to swap to s3, which v2 does not match:
        // the second delta manufactures a blackhole.
        lint_delta(
            &mut session,
            Delta::RemoveRule {
                in_link: e[0],
                label: s1,
                priority: 1,
                entry: entry(e[1], vec![Op::Swap(s2)]),
            },
        );
        let o1 = lint_delta(
            &mut session,
            Delta::AddRule {
                in_link: e[0],
                label: s1,
                priority: 1,
                entry: entry(e[1], vec![Op::Swap(s3)]),
            },
        );
        assert_matches_cold(&mut session);
        assert!(session.lint().report.has_rule(LintRule::Blackhole));
        assert!(
            o1.delta_findings
                .iter()
                .any(|f| f.rule == LintRule::DeltaBlackhole),
            "{:?}",
            o1.delta_findings
        );
        assert_eq!(o1.added.len(), 1);
    }

    #[test]
    fn link_down_up_cycle_stays_cold_identical() {
        let (t, e) = diamond();
        let mut labels = netmodel::LabelTable::new();
        let s1 = labels.mpls_bos("s1");
        let mut net = Network::new(t, labels);
        net.add_rule(e[0], s1, 1, entry(e[1], vec![Op::Swap(s1)]));
        net.add_rule(e[0], s1, 2, entry(e[3], vec![Op::Swap(s1)]));
        net.add_rule(e[1], s1, 1, entry(e[2], vec![Op::Pop]));
        net.add_rule(e[3], s1, 1, entry(e[2], vec![Op::Pop]));
        let mut session = linted(net);

        // Take e1 down: stash the primary at (e0, s1).
        lint_delta(&mut session, Delta::LinkDown(e[1]));
        assert_matches_cold(&mut session);

        // Restore.
        let o = lint_delta(&mut session, Delta::LinkUp(e[1]));
        assert_matches_cold(&mut session);
        // Nothing was added meanwhile, so no DP017.
        assert!(o.delta_findings.is_empty(), "{:?}", o.delta_findings);
    }

    #[test]
    fn stale_restore_shadow_fires_dp017() {
        let (t, e) = diamond();
        let mut labels = netmodel::LabelTable::new();
        let s1 = labels.mpls_bos("s1");
        let mut net = Network::new(t, labels);
        // Priority-2 backup over e1; primary over e3.
        net.add_rule(e[0], s1, 1, entry(e[3], vec![Op::Swap(s1)]));
        net.add_rule(e[0], s1, 2, entry(e[1], vec![Op::Swap(s1)]));
        net.add_rule(e[1], s1, 1, entry(e[2], vec![Op::Pop]));
        net.add_rule(e[3], s1, 1, entry(e[2], vec![Op::Pop]));
        let mut session = linted(net);

        // e1 goes down: only rules with out == e1 (the backup) are
        // stashed.
        lint_delta(&mut session, Delta::LinkDown(e[1]));

        // Meanwhile a new priority-1 rule at (e0, s1) forwards over e1,
        // shadowing the backup the link-up will restore.
        lint_delta(
            &mut session,
            Delta::AddRule {
                in_link: e[0],
                label: s1,
                priority: 1,
                entry: entry(e[1], vec![Op::Swap(s1)]),
            },
        );
        assert_matches_cold(&mut session);

        let o = lint_delta(&mut session, Delta::LinkUp(e[1]));
        assert_matches_cold(&mut session);
        assert!(
            o.delta_findings
                .iter()
                .any(|f| f.rule == LintRule::StaleRestoreShadow),
            "{:?}",
            o.delta_findings
        );
    }

    #[test]
    fn watched_query_death_fires_ql004_once() {
        let (t, e) = diamond();
        let mut labels = netmodel::LabelTable::new();
        let s1 = labels.mpls_bos("s1");
        let mut net = Network::new(t, labels);
        net.add_rule(e[0], s1, 1, entry(e[1], vec![Op::Swap(s1)]));
        net.add_rule(e[1], s1, 1, entry(e[2], vec![Op::Pop]));
        let mut session = linted(net);

        // A two-hop path through v1: needs a first forwarding step.
        session
            .watch("<s1> [.#v1] .* [v2#.] <s1> 0")
            .expect("query parses");

        // Removing (e0, s1)'s only rule kills every first step the
        // path constraint allows.
        let o = lint_delta(
            &mut session,
            Delta::RemoveRule {
                in_link: e[0],
                label: s1,
                priority: 1,
                entry: entry(e[1], vec![Op::Swap(s1)]),
            },
        );
        assert_matches_cold(&mut session);
        assert!(
            o.delta_findings
                .iter()
                .any(|f| f.rule == LintRule::DeadAfterDelta),
            "{:?}",
            o.delta_findings
        );

        // Already dead: no repeat finding on the next delta.
        let o2 = lint_delta(
            &mut session,
            Delta::RemoveRule {
                in_link: e[1],
                label: s1,
                priority: 1,
                entry: entry(e[2], vec![Op::Pop]),
            },
        );
        assert!(
            !o2.delta_findings
                .iter()
                .any(|f| f.rule == LintRule::DeadAfterDelta),
            "{:?}",
            o2.delta_findings
        );
    }
}

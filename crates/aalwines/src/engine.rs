//! The dual over/under-approximation verification engine
//! (paper Section 4.2), with deadline-aware, cancellable runs and
//! machine-readable telemetry.

use crate::cache::{ConstructionCache, DEFAULT_CACHE_SIZE};
use crate::construction::{self, ApproxMode, Construction, NetworkPrecomp};
use crate::lift::{lift_run, trace_pairs};
use crate::quantities::{StepMeasure, WeightSpec};
use crate::telemetry::{self, JsonObject};
use netmodel::{feasible_failures, LinkId, Network, Trace};
use pdaal::budget::{AbortReason, Budget, CancelToken};
use pdaal::poststar::post_star_budgeted;
use pdaal::reduction::reduce;
use pdaal::shortest::shortest_accepted_budgeted;
use pdaal::witness::reconstruct_run;
use pdaal::{MinTotal, MinVector, Pds, StateId, Unweighted, Weight};
use query::{compile, CompiledQuery, Query};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options controlling a verification run.
///
/// Construct with [`VerifyOptions::new`] and the `with_*` builders; the
/// struct is `#[non_exhaustive]` so new knobs can be added without
/// breaking callers.
///
/// ```
/// use aalwines::{VerifyOptions, WeightSpec, AtomicQuantity};
/// use std::time::Duration;
///
/// let opts = VerifyOptions::new()
///     .with_weights(WeightSpec::single(AtomicQuantity::Failures))
///     .with_timeout(Duration::from_millis(500))
///     .with_transition_budget(1_000_000);
/// ```
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct VerifyOptions {
    /// Minimize witness traces by this weight specification
    /// (lexicographic vector of linear expressions). `None` runs the
    /// unweighted `Dual` engine.
    pub weights: Option<WeightSpec>,
    /// Apply the static reductions before solving (on by default; turning
    /// them off exists for the ablation benchmarks).
    pub no_reduction: bool,
    /// Absolute wall-clock deadline for each verification.
    pub deadline: Option<Instant>,
    /// Per-query time allowance, measured from the start of each
    /// verification (combines with `deadline`: the earlier bound wins).
    pub timeout: Option<Duration>,
    /// Cap on saturation transitions per verification.
    pub max_transitions: Option<usize>,
    /// Cooperative cancellation token polled during solving.
    pub cancel: Option<CancelToken>,
}

impl VerifyOptions {
    /// Default options: unweighted, reductions on, no budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Minimize witnesses by `spec`.
    pub fn with_weights(mut self, spec: WeightSpec) -> Self {
        self.weights = Some(spec);
        self
    }

    /// Disable the static reductions (ablation benchmarks only).
    pub fn without_reduction(mut self) -> Self {
        self.no_reduction = true;
        self
    }

    /// Abort any verification still running at `deadline` with
    /// [`Outcome::Aborted`]. If a deadline is already set, the earlier
    /// one wins.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(match self.deadline {
            Some(d) => d.min(deadline),
            None => deadline,
        });
        self
    }

    /// Give each query `timeout` of wall-clock time from the moment its
    /// verification starts. If a timeout is already set, the smaller one
    /// wins.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(match self.timeout {
            Some(t) => t.min(timeout),
            None => timeout,
        });
        self
    }

    /// Abort once the saturated automaton exceeds `max` transitions.
    pub fn with_transition_budget(mut self, max: usize) -> Self {
        self.max_transitions = Some(match self.max_transitions {
            Some(m) => m.min(max),
            None => max,
        });
        self
    }

    /// Poll `cancel` during solving; a cancelled token aborts the run.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    // Frozen caller: `aalbench/src/workloads.rs` calls this with `1`.
    // The next `benchmark` PR drops the call and this forward.
    #[doc(hidden)]
    pub fn with_saturation_threads(self, _n: usize) -> Self {
        self
    }

    /// The [`Budget`] in effect for a verification starting now.
    pub fn budget(&self) -> Budget {
        let mut b = Budget::new();
        if let Some(d) = self.deadline {
            b = b.with_deadline(d);
        }
        if let Some(t) = self.timeout {
            b = b.with_timeout(t);
        }
        if let Some(m) = self.max_transitions {
            b = b.with_max_transitions(m);
        }
        if let Some(c) = &self.cancel {
            b = b.with_cancel(c.clone());
        }
        b
    }
}

/// Why the quick-decide pre-pass answered a query without building a
/// pushdown system.
///
/// All three reasons witness an *empty regular language* in the compiled
/// query, which makes the query unsatisfiable regardless of the network's
/// forwarding behaviour — e.g. a label atom naming a label the network
/// does not have, or a link atom matching no link. The paper notes most
/// operator queries on stale snapshots are decided this way before any
/// saturation runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QuickReason {
    /// The initial-header constraint `a` (after valid-header
    /// intersection) accepts no header.
    EmptyInitial,
    /// The final-header constraint `c` accepts no header.
    EmptyFinal,
    /// The path constraint `b` accepts no link sequence.
    EmptyPath,
}

impl QuickReason {
    /// A stable lower-case identifier (used in JSON output).
    pub fn as_str(self) -> &'static str {
        match self {
            QuickReason::EmptyInitial => "empty-initial",
            QuickReason::EmptyFinal => "empty-final",
            QuickReason::EmptyPath => "empty-path",
        }
    }
}

/// The quick-decide pre-pass: statically decide a compiled query without
/// constructing a pushdown system, where possible.
///
/// Returns `Some(reason)` when one of the query's three automata has an
/// empty language over the network's label/link universe — a conclusive
/// **no** (the over-approximation would necessarily come back empty).
/// Returns `None` when the full analysis is needed. O(automaton size);
/// never wrong, only incomplete.
pub fn quick_decide(cq: &CompiledQuery, net: &Network) -> Option<QuickReason> {
    let n_labels = net.labels.len() as u32;
    if cq.initial.language_empty(n_labels) {
        return Some(QuickReason::EmptyInitial);
    }
    if cq.path.language_empty() {
        return Some(QuickReason::EmptyPath);
    }
    if cq.final_.language_empty(n_labels) {
        return Some(QuickReason::EmptyFinal);
    }
    None
}

/// A satisfied query's witness.
#[derive(Clone, Debug)]
pub struct Witness {
    /// The witness trace.
    pub trace: Trace,
    /// A minimal failure set making the trace valid.
    pub failed_links: HashSet<LinkId>,
    /// The weight vector of the trace, when running weighted.
    pub weight: Option<Vec<u64>>,
}

/// The verification verdict.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// A witness trace exists (conclusive yes).
    Satisfied(Box<Witness>),
    /// No trace exists even in the over-approximation (conclusive no).
    Unsatisfied,
    /// Over-approximation satisfied, under-approximation not — the
    /// polynomial analysis cannot decide (paper: 0.13–0.57 % of queries).
    Inconclusive,
    /// The verification exceeded its [`Budget`] (deadline, transition
    /// cap, or cancellation) before reaching a verdict.
    Aborted(AbortReason),
    /// The engine panicked or otherwise failed; the message describes
    /// the failure. Produced by the batch runner's panic isolation so a
    /// single poisoned query cannot take down a whole batch.
    Error(String),
}

impl Outcome {
    /// Whether the outcome is `Satisfied`.
    pub fn is_satisfied(&self) -> bool {
        matches!(self, Outcome::Satisfied(_))
    }

    /// Whether the outcome is a definite verdict (`Satisfied` or
    /// `Unsatisfied`).
    pub fn is_conclusive(&self) -> bool {
        matches!(self, Outcome::Satisfied(_) | Outcome::Unsatisfied)
    }

    /// A stable lower-case identifier (used in JSON output).
    pub fn kind(&self) -> &'static str {
        match self {
            Outcome::Satisfied(_) => "satisfied",
            Outcome::Unsatisfied => "unsatisfied",
            Outcome::Inconclusive => "inconclusive",
            Outcome::Aborted(_) => "aborted",
            Outcome::Error(_) => "error",
        }
    }
}

/// Statistics and phase timings of one verification — machine-readable
/// run telemetry (`#[non_exhaustive]`; construct with
/// [`EngineStats::new`]).
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct EngineStats {
    /// Rules in the over-approximating PDS before reduction.
    pub rules_over: usize,
    /// Rules removed by the static reductions.
    pub rules_removed: usize,
    /// Rules in the under-approximating PDS (if it ran).
    pub rules_under: usize,
    /// Transitions in the saturated over-approximation automaton.
    pub sat_transitions: usize,
    /// Worklist pops across all saturation phases of this verification.
    pub worklist_pops: usize,
    /// Mid-states allocated across all saturation phases.
    pub mid_states: usize,
    /// Worklist re-queues avoided by the on-worklist dedup flag across
    /// all saturation phases (each one is a pop that never happened).
    pub worklist_requeues_avoided: usize,
    /// Peak bytes resident in saturation worklists (queued transition
    /// ids plus the on-worklist dedup flags), maximized over every
    /// saturation phase of this verification.
    pub peak_worklist_bytes: usize,
    /// How many times the under-approximation ran (0 or 1 per query).
    pub under_runs: usize,
    /// Issues [`Network::validate`] reported for the engine's network at
    /// construction time (0 for a well-formed network).
    pub validation_issues: usize,
    /// Set when the quick-decide pre-pass answered the query without
    /// building a PDS; `None` when the full analysis ran.
    pub quick_decided: Option<QuickReason>,
    /// Why the verification aborted, if it did.
    pub aborted: Option<AbortReason>,
    /// Construction-cache hits of this verification (0–2: one possible
    /// per approximation phase; always 0 with the cache disabled).
    pub cache_hits: usize,
    /// Construction-cache misses of this verification (phases that had
    /// to compile; with the cache disabled every phase counts here).
    pub cache_misses: usize,
    /// Estimated resident heap bytes of the answering engine's warm
    /// state — the shared network precomputation plus every artifact in
    /// the construction cache — measured when this answer was produced.
    /// 0 for engines without warm state (e.g. the Moped baseline).
    pub bytes_resident: usize,
    /// Milliseconds spent producing the lint report behind this stats
    /// object (cold lint build or incremental re-lint). 0 for plain
    /// verification answers — only `Session::lint` outcomes fill it.
    pub lint_millis: f64,
    /// Cumulative per-key lint artifacts the owning session reused
    /// across deltas instead of recomputing. 0 outside lint outcomes.
    pub lint_incremental_hits: usize,
    /// Time spent building PDSs (cache hits contribute nothing).
    pub t_construct: Duration,
    /// Time spent in the static reductions.
    pub t_reduce: Duration,
    /// Time spent saturating + extracting (both phases).
    pub t_solve: Duration,
    /// Construction time of the over-approximation phase.
    pub t_construct_over: Duration,
    /// Construction time of the under-approximation phase.
    pub t_construct_under: Duration,
    /// Reduction time of the over-approximation phase.
    pub t_reduce_over: Duration,
    /// Reduction time of the under-approximation phase.
    pub t_reduce_under: Duration,
    /// Solve (saturate + extract) time of the over-approximation phase.
    pub t_solve_over: Duration,
    /// Solve (saturate + extract) time of the under-approximation phase.
    pub t_solve_under: Duration,
    /// One-time network precomputation cost of the answering engine
    /// (paid once per `Verifier`, reported identically by every answer —
    /// like `validation_issues`).
    pub t_precomp: Duration,
    /// End-to-end time of the verification.
    pub t_total: Duration,
}

impl EngineStats {
    /// Fresh, all-zero statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the under-approximation had to run.
    pub fn used_under(&self) -> bool {
        self.under_runs > 0
    }

    /// Serialize as one JSON object (hand-rolled, serde-free).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.number("rulesOver", self.rules_over as f64);
        o.number("rulesRemoved", self.rules_removed as f64);
        o.number("rulesUnder", self.rules_under as f64);
        o.number("satTransitions", self.sat_transitions as f64);
        o.number("worklistPops", self.worklist_pops as f64);
        o.number("midStates", self.mid_states as f64);
        o.number(
            "worklistRequeuesAvoided",
            self.worklist_requeues_avoided as f64,
        );
        o.number("peakWorklistBytes", self.peak_worklist_bytes as f64);
        o.number(
            "worklistBytesPerRule",
            self.peak_worklist_bytes as f64 / self.rules_over.max(1) as f64,
        );
        o.number("underRuns", self.under_runs as f64);
        o.number("validationIssues", self.validation_issues as f64);
        match self.quick_decided {
            Some(reason) => o.string("quickDecided", reason.as_str()),
            None => o.null("quickDecided"),
        }
        match self.aborted {
            Some(reason) => o.string("aborted", reason.as_str()),
            None => o.null("aborted"),
        }
        o.number("cacheHits", self.cache_hits as f64);
        o.number("cacheMisses", self.cache_misses as f64);
        o.number("bytesResident", self.bytes_resident as f64);
        o.number("lintMillis", self.lint_millis);
        o.number("lintIncrementalHits", self.lint_incremental_hits as f64);
        o.number("constructMillis", telemetry::millis(self.t_construct));
        o.number("reduceMillis", telemetry::millis(self.t_reduce));
        o.number("solveMillis", telemetry::millis(self.t_solve));
        o.number(
            "constructOverMillis",
            telemetry::millis(self.t_construct_over),
        );
        o.number(
            "constructUnderMillis",
            telemetry::millis(self.t_construct_under),
        );
        o.number("reduceOverMillis", telemetry::millis(self.t_reduce_over));
        o.number("reduceUnderMillis", telemetry::millis(self.t_reduce_under));
        o.number("solveOverMillis", telemetry::millis(self.t_solve_over));
        o.number("solveUnderMillis", telemetry::millis(self.t_solve_under));
        o.number("precompMillis", telemetry::millis(self.t_precomp));
        o.number("totalMillis", telemetry::millis(self.t_total));
        o.finish()
    }
}

/// The result of verifying one query (`#[non_exhaustive]`; construct
/// with [`Answer::new`]).
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct Answer {
    /// The verdict.
    pub outcome: Outcome,
    /// Solver statistics.
    pub stats: EngineStats,
}

impl Answer {
    /// Pack an outcome with its statistics.
    pub fn new(outcome: Outcome, stats: EngineStats) -> Self {
        Answer { outcome, stats }
    }

    /// An aborted answer carrying (possibly partial) statistics.
    pub fn aborted(reason: AbortReason, mut stats: EngineStats) -> Self {
        stats.aborted = Some(reason);
        Answer {
            outcome: Outcome::Aborted(reason),
            stats,
        }
    }

    /// An error answer (engine failure or caught panic) with empty
    /// statistics.
    pub fn error(message: impl Into<String>) -> Self {
        Answer {
            outcome: Outcome::Error(message.into()),
            stats: EngineStats::new(),
        }
    }
}

/// A verification backend: anything that can answer a compiled query
/// against its network. Implemented by the dual-approximation
/// [`Verifier`] and the [`MopedEngine`](crate::moped::MopedEngine)
/// baseline; the CLI and [`Session`](crate::session::Session) dispatch
/// through `&dyn Engine`.
pub trait Engine: Sync {
    /// A short stable name for telemetry ("dual", "moped").
    fn name(&self) -> &'static str;

    /// The network this engine verifies against.
    fn network(&self) -> &Network;

    /// Verify an already-compiled query.
    fn verify_compiled(&self, cq: &CompiledQuery, opts: &VerifyOptions) -> Answer;

    /// Verify a parsed query (compiles, then calls
    /// [`verify_compiled`](Engine::verify_compiled)).
    fn verify(&self, q: &Query, opts: &VerifyOptions) -> Answer {
        let cq = compile(q, self.network());
        self.verify_compiled(&cq, opts)
    }
}

/// Result of a single approximation phase.
enum Phase {
    /// The approximation accepts no configuration: conclusive "no" when
    /// it is the over-approximation.
    Empty,
    /// A feasible witness within the failure budget.
    Witness(Box<Witness>),
    /// A configuration was reachable but no feasible witness could be
    /// extracted from the minimal accepting path.
    Infeasible,
    /// The budget ran out mid-phase.
    Aborted(AbortReason),
}

/// One compiled, reduced per-(query, mode, weight-domain) artifact:
/// everything that depends only on the inputs baked into the cache
/// fingerprint, ready for saturation. Cached by [`Verifier`] so repeated
/// queries skip construction *and* reduction entirely.
struct CompiledPhase<W: Weight> {
    cons: Construction<W>,
    /// The PDS saturation actually runs on (reduced unless the options
    /// disabled reductions — the toggle is part of the fingerprint).
    solve_pds: Pds<W>,
    rules_removed: usize,
    t_construct: Duration,
    t_reduce: Duration,
}

/// Compile one phase under a budget: the construction polls per
/// worklist state, and the reduction — a handful of linear passes, much
/// shorter than the construction feeding it — is guarded by one
/// boundary poll, bounding the abort delay by a single reduction.
fn compile_phase<W: Weight>(
    pre: &NetworkPrecomp,
    cq: &CompiledQuery,
    mode: ApproxMode,
    no_reduction: bool,
    weigh: &dyn Fn(&StepMeasure) -> W,
    budget: &Budget,
) -> Result<CompiledPhase<W>, AbortReason> {
    let t0 = Instant::now();
    let cons: Construction<W> = construction::build_with_budget(pre, cq, mode, weigh, budget)?;
    let t_construct = t0.elapsed();
    budget.checker().tick(0)?;
    let t0 = Instant::now();
    let (solve_pds, rules_removed) = if no_reduction {
        (cons.pds.clone(), 0)
    } else {
        reduce(&cons.pds, &cons.initial, &cons.finals)
    };
    let t_reduce = t0.elapsed();
    Ok(CompiledPhase {
        cons,
        solve_pds,
        rules_removed,
        t_construct,
        t_reduce,
    })
}

/// Render a [`pdaal::SymFilter`] with its symbol set *sorted*: the sets
/// are `HashSet`s whose iteration (and so `Debug`) order differs between
/// instances, and the query NFAs are recompiled per verification, so an
/// unsorted rendering would never produce two equal fingerprints.
fn fingerprint_filter(f: &pdaal::SymFilter, out: &mut String) {
    use std::fmt::Write as _;
    let (tag, set) = match f {
        pdaal::SymFilter::Any => {
            out.push('*');
            return;
        }
        pdaal::SymFilter::In(set) => ('+', set),
        pdaal::SymFilter::NotIn(set) => ('-', set),
    };
    let mut syms: Vec<u32> = set.iter().map(|s| s.0).collect();
    syms.sort_unstable();
    let _ = write!(out, "{tag}{syms:?}");
}

/// Canonical rendering of a [`pdaal::StackNfa`]: states, initial and
/// final sets, and the edge list in insertion order with sorted filters.
fn fingerprint_nfa(nfa: &pdaal::StackNfa, out: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(out, "s{}i{:?}f[", nfa.num_states(), nfa.initial_states());
    for s in 0..nfa.num_states() {
        if nfa.is_final(s) {
            let _ = write!(out, "{s},");
        }
    }
    out.push(']');
    for e in nfa.edges() {
        let _ = write!(out, "({}-", e.from);
        fingerprint_filter(&e.filter, out);
        let _ = write!(out, "-{})", e.to);
    }
}

/// A full fingerprint of everything query-specific that shapes a
/// compiled artifact: the three compiled automata, the failure budget
/// `k`, the weight specification, and the reduction toggle. Not a lossy
/// hash — a complete canonical rendering — so distinct queries can never
/// alias a cache slot. The stack NFAs are rendered with sorted filter
/// sets (their `Debug` would leak `HashSet` iteration order and break
/// key equality); the link NFA is bitset-based and renders canonically
/// via `Debug`. The approximation mode and the weight domain's `TypeId`
/// are appended by the cache lookup itself.
pub fn query_fingerprint(cq: &CompiledQuery, opts: &VerifyOptions) -> String {
    use std::fmt::Write as _;
    let mut fp = String::new();
    fp.push_str("i=");
    fingerprint_nfa(&cq.initial, &mut fp);
    let _ = write!(fp, ";p={:?};f=", cq.path);
    fingerprint_nfa(&cq.final_, &mut fp);
    let _ = write!(
        fp,
        ";k={};w={:?};nr={}",
        cq.max_failures, opts.weights, opts.no_reduction
    );
    fp
}

/// Run one approximation phase with weight domain `W`: obtain the
/// compiled artifact (through the construction cache when one is
/// attached), then saturate and extract via [`solve_phase`].
#[allow(clippy::too_many_arguments)]
fn run_phase<W: Weight + Send + Sync + 'static>(
    net: &Network,
    pre: &NetworkPrecomp,
    cache: Option<(&ConstructionCache, &str)>,
    cq: &CompiledQuery,
    mode: ApproxMode,
    opts: &VerifyOptions,
    budget: &Budget,
    weigh: &dyn Fn(&StepMeasure) -> W,
    weight_vec: &dyn Fn(&W) -> Option<Vec<u64>>,
    stats: &mut EngineStats,
) -> Phase {
    // The compiled artifact records the links its construction visited
    // (its dependency footprint) and an estimated size, so a later
    // dataplane delta can evict exactly the affected entries and the
    // cache can report `bytesResident`.
    let compile = || compile_phase(pre, cq, mode, opts.no_reduction, weigh, budget);
    let compile_tracked = || {
        let phase = compile()?;
        let footprint = phase.cons.footprint();
        let bytes = phase.cons.approx_bytes()
            + phase.solve_pds.approx_bytes()
            + std::mem::size_of::<CompiledPhase<W>>();
        Ok((phase, Some(footprint), bytes))
    };
    let built = match cache {
        Some((cache, fingerprint)) => {
            cache.try_get_or_build_tracked(&format!("{mode:?};{fingerprint}"), compile_tracked)
        }
        None => compile().map(|phase| (Arc::new(phase), false)),
    };
    let (phase, hit) = match built {
        Ok(out) => out,
        // A deadline or cancellation fired mid-compile; nothing was
        // cached and no compile time is attributed.
        Err(reason) => return Phase::Aborted(reason),
    };
    if hit {
        stats.cache_hits += 1;
    } else {
        stats.cache_misses += 1;
        // Compile time is attributed to the query that paid it; a hit
        // adds nothing to the construct/reduce timings.
        stats.t_construct += phase.t_construct;
        stats.t_reduce += phase.t_reduce;
        match mode {
            ApproxMode::Over => {
                stats.t_construct_over += phase.t_construct;
                stats.t_reduce_over += phase.t_reduce;
            }
            ApproxMode::Under => {
                stats.t_construct_under += phase.t_construct;
                stats.t_reduce_under += phase.t_reduce;
            }
        }
    }
    if mode == ApproxMode::Over {
        stats.rules_over = phase.cons.pds.num_rules();
        stats.rules_removed = phase.rules_removed;
    } else {
        stats.rules_under = phase.cons.pds.num_rules();
    }
    solve_phase(net, &phase, cq, mode, budget, weight_vec, stats)
}

/// Saturate a compiled artifact and extract a witness — the second half
/// of [`run_phase`].
fn solve_phase<W: Weight>(
    net: &Network,
    phase: &CompiledPhase<W>,
    cq: &CompiledQuery,
    mode: ApproxMode,
    budget: &Budget,
    weight_vec: &dyn Fn(&W) -> Option<Vec<u64>>,
    stats: &mut EngineStats,
) -> Phase {
    // Poll at the phase boundary too: a construction-cache hit skips
    // the budget-polled compile entirely, so this may be the first
    // check since the budget was last consulted.
    if let Err(reason) = budget.checker().tick(0) {
        return Phase::Aborted(reason);
    }

    let add_solve = |stats: &mut EngineStats, d: Duration| {
        stats.t_solve += d;
        match mode {
            ApproxMode::Over => stats.t_solve_over += d,
            ApproxMode::Under => stats.t_solve_under += d,
        }
    };
    let add_sat = |stats: &mut EngineStats, s: &pdaal::SaturationStats| {
        stats.worklist_pops += s.worklist_pops;
        stats.mid_states += s.mid_states;
        stats.worklist_requeues_avoided += s.worklist_requeues_avoided;
        stats.peak_worklist_bytes = stats.peak_worklist_bytes.max(s.peak_worklist_bytes);
        if mode == ApproxMode::Over {
            stats.sat_transitions = s.transitions;
        }
    };

    let cons = &phase.cons;
    let pds = &phase.solve_pds;
    let t0 = Instant::now();
    let saturated = post_star_budgeted(pds, &cons.initial, budget);
    let (sat, sstats) = match saturated {
        Ok(ok) => ok,
        Err(abort) => {
            add_sat(stats, &abort.stats);
            add_solve(stats, t0.elapsed());
            return Phase::Aborted(abort.reason);
        }
    };
    add_sat(stats, &sstats);
    let starts: Vec<(StateId, W)> = cons.finals.iter().map(|s| (*s, W::one())).collect();
    let found = match shortest_accepted_budgeted(&sat, &starts, &cq.final_, budget) {
        Ok(found) => found,
        Err(reason) => {
            add_solve(stats, t0.elapsed());
            return Phase::Aborted(reason);
        }
    };
    add_solve(stats, t0.elapsed());

    let Some(path) = found else {
        return Phase::Empty;
    };
    let witness = reconstruct_run(pds, &sat, &path.transitions, &path.word)
        .ok()
        .and_then(|run| lift_run(net, pds, &cons.meta, &run).ok())
        .and_then(|trace| {
            feasible_failures(net, &trace_pairs(&trace)).map(|failed| (trace, failed))
        })
        .filter(|(_, failed)| failed.len() as u32 <= cq.max_failures);
    match witness {
        Some((trace, failed)) => Phase::Witness(Box::new(Witness {
            trace,
            failed_links: failed,
            weight: weight_vec(&path.weight),
        })),
        None => Phase::Infeasible,
    }
}

/// The AalWiNes verification engine bound to a network.
///
/// Construction is compile-once / verify-many: `new` precomputes the
/// network-level [`NetworkPrecomp`] (shared between both approximation
/// phases, all queries, and all batch worker threads) and attaches a
/// bounded LRU [`ConstructionCache`] of per-query compiled artifacts, on
/// by default with [`DEFAULT_CACHE_SIZE`] slots.
pub struct Verifier<'a> {
    net: &'a Network,
    validation_issues: usize,
    precomp: Arc<NetworkPrecomp>,
    cache: Option<Arc<ConstructionCache>>,
}

impl<'a> Verifier<'a> {
    /// A verifier for `net`. Runs [`Network::validate`] once so every
    /// answer's [`EngineStats::validation_issues`] reports how clean the
    /// network was, and precomputes the query-independent construction
    /// tables.
    pub fn new(net: &'a Network) -> Self {
        Verifier {
            net,
            validation_issues: net.validate().len(),
            precomp: Arc::new(NetworkPrecomp::new(net)),
            cache: Some(Arc::new(ConstructionCache::new(DEFAULT_CACHE_SIZE))),
        }
    }

    /// Like [`Verifier::new`], but reuse an already-built precomp of the
    /// *same* network value instead of computing a fresh one.
    pub fn with_shared_precomp(net: &'a Network, precomp: Arc<NetworkPrecomp>) -> Self {
        Verifier {
            net,
            validation_issues: net.validate().len(),
            precomp,
            cache: Some(Arc::new(ConstructionCache::new(DEFAULT_CACHE_SIZE))),
        }
    }

    /// Assemble a verifier from already-held warm state without paying
    /// `Network::validate` or any precomputation: the resident
    /// [`Session`](crate::session::Session) keeps precomp, cache, and
    /// validation count alive across calls and rebuilds a borrow-scoped
    /// `Verifier` per request.
    pub(crate) fn from_parts(
        net: &'a Network,
        precomp: Arc<NetworkPrecomp>,
        cache: Option<Arc<ConstructionCache>>,
        validation_issues: usize,
    ) -> Self {
        Verifier {
            net,
            validation_issues,
            precomp,
            cache,
        }
    }

    /// Current resident heap estimate: query-independent precomputation
    /// plus whatever the construction cache holds right now.
    fn resident_bytes(&self) -> usize {
        self.precomp.bytes_resident()
            + self
                .cache
                .as_deref()
                .map_or(0, |cache| cache.bytes_resident())
    }

    /// Disable the per-query artifact cache. The shared network precomp
    /// is kept — it is always sound to reuse for one `Network` value.
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Use a per-query artifact cache with `capacity` slots; `0`
    /// disables the cache.
    pub fn with_cache_size(mut self, capacity: usize) -> Self {
        self.cache = if capacity == 0 {
            None
        } else {
            Some(Arc::new(ConstructionCache::new(capacity)))
        };
        self
    }

    /// The network-level precomputation backing this verifier (cheap to
    /// clone; shareable with other verifiers of the same network).
    pub fn precomp(&self) -> Arc<NetworkPrecomp> {
        Arc::clone(&self.precomp)
    }

    /// Number of compiled artifacts currently cached (0 when the cache
    /// is disabled).
    pub fn cached_artifacts(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.len())
    }

    /// The dual over/under flow with concrete weight domains `WO`/`WU`:
    /// over-approximation, budget re-check, under-approximation.
    #[allow(clippy::too_many_arguments)]
    fn verify_dual<WO, WU>(
        &self,
        cq: &CompiledQuery,
        opts: &VerifyOptions,
        budget: &Budget,
        cache: Option<(&ConstructionCache, &str)>,
        weigh_over: &dyn Fn(&StepMeasure) -> WO,
        wv_over: &dyn Fn(&WO) -> Option<Vec<u64>>,
        weigh_under: &dyn Fn(&StepMeasure) -> WU,
        wv_under: &dyn Fn(&WU) -> Option<Vec<u64>>,
        stats: &mut EngineStats,
    ) -> Outcome
    where
        WO: Weight + Send + Sync + 'static,
        WU: Weight + Send + Sync + 'static,
    {
        // ---- over-approximation --------------------------------------
        let over = run_phase::<WO>(
            self.net,
            &self.precomp,
            cache,
            cq,
            ApproxMode::Over,
            opts,
            budget,
            weigh_over,
            wv_over,
            stats,
        );
        match over {
            Phase::Empty => return Outcome::Unsatisfied,
            Phase::Witness(w) => return Outcome::Satisfied(w),
            Phase::Aborted(reason) => return Outcome::Aborted(reason),
            Phase::Infeasible => {}
        }

        // Re-check the budget before paying the under-phase construction
        // cost: the over phase may have spent the whole allowance, and
        // its own checks fire only inside the saturation worklists — an
        // expired deadline would otherwise still build the full under
        // PDS first.
        if let Err(reason) = budget.checker().tick(0) {
            return Outcome::Aborted(reason);
        }

        // ---- under-approximation -------------------------------------
        // The unweighted engine still guides the under-approximating
        // search by failure count: among the traces the global counter
        // admits, the failure-minimal one is the most likely to pass the
        // concrete feasibility check (e.g. a 0-failure primary trace is
        // feasible by construction). The weighted engine minimizes the
        // user's specification instead, as the paper prescribes.
        stats.under_runs += 1;
        let under = run_phase::<WU>(
            self.net,
            &self.precomp,
            cache,
            cq,
            ApproxMode::Under,
            opts,
            budget,
            weigh_under,
            wv_under,
            stats,
        );
        match under {
            Phase::Witness(w) => Outcome::Satisfied(w),
            Phase::Aborted(reason) => Outcome::Aborted(reason),
            _ => Outcome::Inconclusive,
        }
    }
}

impl Engine for Verifier<'_> {
    fn name(&self) -> &'static str {
        "dual"
    }

    fn network(&self) -> &Network {
        self.net
    }

    fn verify_compiled(&self, cq: &CompiledQuery, opts: &VerifyOptions) -> Answer {
        let t_start = Instant::now();
        let mut stats = EngineStats::new();
        stats.validation_issues = self.validation_issues;
        stats.t_precomp = self.precomp.build_time();
        // Sampled again on every return path: the construction cache may
        // have grown (or evicted) during this very call.
        stats.bytes_resident = self.resident_bytes();

        // ---- quick-decide pre-pass -----------------------------------
        // An empty header or path language means no configuration can be
        // accepted; the over-approximation would come back empty, so
        // answer the conclusive "no" without constructing any PDS.
        if let Some(reason) = quick_decide(cq, self.net) {
            stats.quick_decided = Some(reason);
            stats.t_total = t_start.elapsed();
            return Answer::new(Outcome::Unsatisfied, stats);
        }

        let budget = opts.budget();
        let fingerprint = self
            .cache
            .as_deref()
            .map(|cache| (cache, query_fingerprint(cq, opts)));
        let cache = fingerprint.as_ref().map(|(c, fp)| (*c, fp.as_str()));

        let outcome = match &opts.weights {
            None => self.verify_dual::<Unweighted, MinTotal>(
                cq,
                opts,
                &budget,
                cache,
                &|_| Unweighted,
                &|_| None,
                &|m| MinTotal(m.failures),
                &|_| None,
                &mut stats,
            ),
            Some(spec) => {
                let spec_over = spec.clone();
                let spec_under = spec.clone();
                self.verify_dual::<MinVector, MinVector>(
                    cq,
                    opts,
                    &budget,
                    cache,
                    &move |m| spec_over.weigh(m),
                    &|w| Some(w.0.clone()),
                    &move |m| spec_under.weigh(m),
                    &|w| Some(w.0.clone()),
                    &mut stats,
                )
            }
        };
        stats.bytes_resident = self.resident_bytes();
        stats.t_total = t_start.elapsed();
        if let Outcome::Aborted(reason) = outcome {
            return Answer::aborted(reason, stats);
        }
        Answer::new(outcome, stats)
    }
}

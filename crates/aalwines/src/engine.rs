//! The dual over/under-approximation verification engine
//! (paper Section 4.2), with deadline-aware, cancellable runs and
//! machine-readable telemetry.

use crate::cache::{AnswerCache, Footprint, DEFAULT_CACHE_SIZE};
use crate::construction::{self, ApproxMode, Construction, NetworkPrecomp};
use crate::lift::{lift_run, trace_pairs};
use crate::quantities::{StepMeasure, WeightSpec};
use crate::telemetry::{self, JsonObject};
use netmodel::{feasible_failures, LinkId, Network, Trace};
use pdaal::budget::{AbortReason, Budget, CancelToken, SaturationAbort};
use pdaal::poststar::{post_star_budgeted, SaturationStats};
use pdaal::reduction::reduce;
use pdaal::shortest::shortest_accepted_budgeted;
use pdaal::witness::reconstruct_run;
use pdaal::{MinTotal, MinVector, PAutomaton, Pds, StateId, Unweighted, Weight};
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
    /// Default options: unweighted, no budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Minimize witnesses by `spec`.
    pub fn with_weights(mut self, spec: WeightSpec) -> Self {
        self.weights = Some(spec);
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
    /// 1 when this answer was served from the answer cache (its
    /// structural counters are then those of the computation that
    /// filled the entry, its phase timings zero), else 0.
    pub cache_hits: usize,
    /// 1 when the dual engine computed this answer (with or without a
    /// cache attached), 0 on a cache hit.
    pub cache_misses: usize,
    /// Estimated resident heap bytes of the answering engine's warm
    /// state — the shared network precomputation plus every entry of
    /// the answer cache — measured when this answer was produced.
    /// 0 for engines without warm state (e.g. the Moped baseline).
    pub bytes_resident: usize,
    /// Milliseconds spent producing the lint report behind this stats
    /// object. 0 for plain verification answers — only `Session::lint`
    /// outcomes fill it.
    pub lint_millis: f64,
    /// Time spent building PDSs.
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

    /// What a later cache hit on this answer reports: the structural
    /// counters of the computation, one hit, and no time spent.
    fn as_cache_hit(&self) -> EngineStats {
        EngineStats {
            rules_over: self.rules_over,
            rules_removed: self.rules_removed,
            rules_under: self.rules_under,
            sat_transitions: self.sat_transitions,
            worklist_pops: self.worklist_pops,
            mid_states: self.mid_states,
            worklist_requeues_avoided: self.worklist_requeues_avoided,
            peak_worklist_bytes: self.peak_worklist_bytes,
            under_runs: self.under_runs,
            quick_decided: self.quick_decided,
            cache_hits: 1,
            ..EngineStats::new()
        }
    }

    fn add_phase_times(&mut self, mode: ApproxMode, t: &PhaseTimes) {
        self.t_construct += t.construct;
        self.t_reduce += t.reduce;
        self.t_solve += t.solve;
        match mode {
            ApproxMode::Over => {
                self.t_construct_over += t.construct;
                self.t_reduce_over += t.reduce;
                self.t_solve_over += t.solve;
            }
            ApproxMode::Under => {
                self.t_construct_under += t.construct;
                self.t_reduce_under += t.reduce;
                self.t_solve_under += t.solve;
            }
        }
    }

    fn add_saturation(&mut self, mode: ApproxMode, s: &SaturationStats) {
        self.worklist_pops += s.worklist_pops;
        self.mid_states += s.mid_states;
        self.worklist_requeues_avoided += s.worklist_requeues_avoided;
        self.peak_worklist_bytes = self.peak_worklist_bytes.max(s.peak_worklist_bytes);
        if mode == ApproxMode::Over {
            self.sat_transitions = s.transitions;
        }
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

/// Wall time of the three timed steps of one approximation phase.
#[derive(Default)]
struct PhaseTimes {
    construct: Duration,
    reduce: Duration,
    solve: Duration,
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

/// What an engine plugs into one approximation phase with weight domain
/// `W`. The saturation step is the one place the backends differ: the
/// dual engine runs the indexed, budgeted `post*`; the Moped baseline
/// round-trips the PDS through text, expands filters and runs the
/// classic algorithm.
pub(crate) struct PhaseSpec<'a, W: Weight> {
    /// Rule weight of one forwarding step.
    pub weigh: &'a dyn Fn(&StepMeasure) -> W,
    /// The witness weight to report, if the domain carries one.
    pub weight_vec: &'a dyn Fn(&W) -> Option<Vec<u64>>,
    /// `(PDS to solve, initial automaton, budget)` → saturated automaton.
    pub saturate: &'a Saturate<W>,
}

type Saturate<W> = dyn Fn(
    &Pds<W>,
    &PAutomaton<W>,
    &Budget,
) -> Result<(PAutomaton<W>, SaturationStats), SaturationAbort>;

/// The dual over/under flow of Section 4.2 over one compiled query —
/// shared by every backend.
pub(crate) struct DualFlow<'a> {
    pub net: &'a Network,
    pub pre: &'a NetworkPrecomp,
    pub cq: &'a CompiledQuery,
    pub budget: &'a Budget,
}

impl DualFlow<'_> {
    /// Over-approximation, budget re-check, under-approximation. Every
    /// link either phase's construction visited is added to `footprint`.
    pub(crate) fn run<WO: Weight, WU: Weight>(
        &self,
        over: &PhaseSpec<WO>,
        under: &PhaseSpec<WU>,
        stats: &mut EngineStats,
        footprint: &mut Footprint,
    ) -> Outcome {
        match self.phase(ApproxMode::Over, over, stats, footprint) {
            Phase::Empty => return Outcome::Unsatisfied,
            Phase::Witness(w) => return Outcome::Satisfied(w),
            Phase::Aborted(reason) => return Outcome::Aborted(reason),
            Phase::Infeasible => {}
        }

        // Re-check the budget before paying the under-phase construction
        // cost: the over phase may have spent the whole allowance.
        if let Err(reason) = self.budget.checker().tick(0) {
            return Outcome::Aborted(reason);
        }

        stats.under_runs += 1;
        match self.phase(ApproxMode::Under, under, stats, footprint) {
            Phase::Witness(w) => Outcome::Satisfied(w),
            Phase::Aborted(reason) => Outcome::Aborted(reason),
            _ => Outcome::Inconclusive,
        }
    }

    /// One approximation phase, straight through: build → reduce → drop
    /// the unreduced PDS → saturate → shortest accepted path → lift and
    /// check feasibility. Nothing built here outlives the call.
    fn phase<W: Weight>(
        &self,
        mode: ApproxMode,
        spec: &PhaseSpec<W>,
        stats: &mut EngineStats,
        footprint: &mut Footprint,
    ) -> Phase {
        let mut times = PhaseTimes::default();
        let phase = self.phase_steps(mode, spec, stats, footprint, &mut times);
        stats.add_phase_times(mode, &times);
        phase
    }

    fn phase_steps<W: Weight>(
        &self,
        mode: ApproxMode,
        spec: &PhaseSpec<W>,
        stats: &mut EngineStats,
        footprint: &mut Footprint,
        times: &mut PhaseTimes,
    ) -> Phase {
        // The construction polls the budget per worklist state.
        let t0 = Instant::now();
        let built =
            construction::build_with_budget(self.pre, self.cq, mode, spec.weigh, self.budget);
        times.construct = t0.elapsed();
        let cons = match built {
            Ok(cons) => cons,
            Err(reason) => return Phase::Aborted(reason),
        };
        footprint.union_with(&cons.footprint());
        let Construction {
            pds: unreduced,
            initial,
            finals,
            meta,
        } = cons;
        match mode {
            ApproxMode::Over => stats.rules_over = unreduced.num_rules(),
            ApproxMode::Under => stats.rules_under = unreduced.num_rules(),
        }

        // The reduction — a handful of linear passes, much shorter than
        // the construction feeding it — is guarded by one boundary poll,
        // bounding the abort delay by a single reduction.
        if let Err(reason) = self.budget.checker().tick(0) {
            return Phase::Aborted(reason);
        }
        let t0 = Instant::now();
        let (pds, removed) = reduce(&unreduced, &initial, &finals);
        drop(unreduced);
        times.reduce = t0.elapsed();
        if mode == ApproxMode::Over {
            stats.rules_removed = removed;
        }

        let t0 = Instant::now();
        let saturated = (spec.saturate)(&pds, &initial, self.budget);
        let (sat, sat_stats) = match saturated {
            Ok(ok) => ok,
            Err(abort) => {
                stats.add_saturation(mode, &abort.stats);
                times.solve = t0.elapsed();
                return Phase::Aborted(abort.reason);
            }
        };
        stats.add_saturation(mode, &sat_stats);
        let starts: Vec<(StateId, W)> = finals.iter().map(|s| (*s, W::one())).collect();
        let found = shortest_accepted_budgeted(&sat, &starts, &self.cq.final_, self.budget);
        times.solve = t0.elapsed();
        let path = match found {
            Ok(Some(path)) => path,
            Ok(None) => return Phase::Empty,
            Err(reason) => return Phase::Aborted(reason),
        };

        let witness = reconstruct_run(&pds, &sat, &path.transitions, &path.word)
            .ok()
            .and_then(|run| lift_run(self.net, &pds, &meta, &run).ok())
            .and_then(|trace| {
                feasible_failures(self.net, &trace_pairs(&trace)).map(|failed| (trace, failed))
            })
            .filter(|(_, failed)| failed.len() as u32 <= self.cq.max_failures);
        match witness {
            Some((trace, failed)) => Phase::Witness(Box::new(Witness {
                trace,
                failed_links: failed,
                weight: (spec.weight_vec)(&path.weight),
            })),
            None => Phase::Infeasible,
        }
    }
}

/// The AalWiNes verification engine bound to a network.
///
/// `new` precomputes the network-level [`NetworkPrecomp`] (shared between
/// both approximation phases, all queries, and all batch worker threads)
/// and attaches a bounded LRU [`AnswerCache`] of decided answers, on by
/// default with [`DEFAULT_CACHE_SIZE`] entries: [`Engine::verify`]
/// answers a repeated query from it before compiling anything.
pub struct Verifier<'a> {
    net: &'a Network,
    validation_issues: usize,
    precomp: Arc<NetworkPrecomp>,
    cache: Option<Arc<AnswerCache>>,
}

impl<'a> Verifier<'a> {
    /// A verifier for `net`. Runs [`Network::validate`] once so every
    /// answer's [`EngineStats::validation_issues`] reports how clean the
    /// network was, and precomputes the query-independent construction
    /// tables.
    pub fn new(net: &'a Network) -> Self {
        Self::with_shared_precomp(net, Arc::new(NetworkPrecomp::new(net)))
    }

    /// Like [`Verifier::new`], but reuse an already-built precomp of the
    /// *same* network value instead of computing a fresh one.
    pub fn with_shared_precomp(net: &'a Network, precomp: Arc<NetworkPrecomp>) -> Self {
        Verifier {
            net,
            validation_issues: net.validate().len(),
            precomp,
            cache: Some(Arc::new(AnswerCache::new(DEFAULT_CACHE_SIZE))),
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
        cache: Option<Arc<AnswerCache>>,
        validation_issues: usize,
    ) -> Self {
        Verifier {
            net,
            validation_issues,
            precomp,
            cache,
        }
    }

    /// Disable the answer cache. The shared network precomp is kept — it
    /// is always sound to reuse for one `Network` value.
    pub fn without_cache(mut self) -> Self {
        self.cache = None;
        self
    }

    /// Cache up to `capacity` decided answers; `0` disables the cache.
    pub fn with_cache_size(mut self, capacity: usize) -> Self {
        self.cache = (capacity > 0).then(|| Arc::new(AnswerCache::new(capacity)));
        self
    }

    /// The network-level precomputation backing this verifier (cheap to
    /// clone; shareable with other verifiers of the same network).
    pub fn precomp(&self) -> Arc<NetworkPrecomp> {
        Arc::clone(&self.precomp)
    }

    /// Fill in what an answer reports about *this* engine right now
    /// rather than about the computation behind it — identical for a
    /// computed answer and a cache hit.
    fn stamp(&self, stats: &mut EngineStats, t_start: Instant) {
        stats.validation_issues = self.validation_issues;
        stats.t_precomp = self.precomp.build_time();
        stats.bytes_resident = self.precomp.bytes_resident()
            + self.cache.as_deref().map_or(0, AnswerCache::bytes_resident);
        stats.t_total = t_start.elapsed();
    }

    /// Compute the answer from scratch, with the union of the links the
    /// phases that ran read (empty when quick-decide answered).
    fn compute(&self, cq: &CompiledQuery, opts: &VerifyOptions) -> (Answer, Footprint) {
        let mut stats = EngineStats::new();
        stats.cache_misses = 1;
        let mut footprint = Footprint::new();

        // ---- quick-decide pre-pass -----------------------------------
        // An empty header or path language means no configuration can be
        // accepted; the over-approximation would come back empty, so
        // answer the conclusive "no" without constructing any PDS.
        if let Some(reason) = quick_decide(cq, self.net) {
            stats.quick_decided = Some(reason);
            return (Answer::new(Outcome::Unsatisfied, stats), footprint);
        }

        let budget = opts.budget();
        let flow = DualFlow {
            net: self.net,
            pre: &self.precomp,
            cq,
            budget: &budget,
        };
        let outcome = match &opts.weights {
            // The unweighted engine still guides the under-approximating
            // search by failure count: among the traces the global
            // counter admits, the failure-minimal one is the most likely
            // to pass the concrete feasibility check (e.g. a 0-failure
            // primary trace is feasible by construction).
            None => flow.run(
                &PhaseSpec {
                    weigh: &|_| Unweighted,
                    weight_vec: &|_| None,
                    saturate: &post_star_budgeted,
                },
                &PhaseSpec {
                    weigh: &|m| MinTotal(m.failures),
                    weight_vec: &|_| None,
                    saturate: &post_star_budgeted,
                },
                &mut stats,
                &mut footprint,
            ),
            // The weighted engine minimizes the user's specification in
            // both phases, as the paper prescribes.
            Some(spec) => {
                let weighted = PhaseSpec {
                    weigh: &|m| spec.weigh(m),
                    weight_vec: &|w: &MinVector| Some(w.0.clone()),
                    saturate: &post_star_budgeted,
                };
                flow.run(&weighted, &weighted, &mut stats, &mut footprint)
            }
        };
        let answer = match outcome {
            Outcome::Aborted(reason) => Answer::aborted(reason, stats),
            outcome => Answer::new(outcome, stats),
        };
        (answer, footprint)
    }
}

impl Engine for Verifier<'_> {
    fn name(&self) -> &'static str {
        "dual"
    }

    fn network(&self) -> &Network {
        self.net
    }

    /// Always computes: a compiled query carries no key to look up.
    fn verify_compiled(&self, cq: &CompiledQuery, opts: &VerifyOptions) -> Answer {
        let t_start = Instant::now();
        let (mut answer, _) = self.compute(cq, opts);
        self.stamp(&mut answer.stats, t_start);
        answer
    }

    /// Answer from the cache when `q` was decided before under the same
    /// weight specification — before compiling the query, and without
    /// consulting `opts`' budget: a decided answer does not become less
    /// true under a tighter deadline. Otherwise compile, compute, and
    /// remember the answer if it is decided.
    fn verify(&self, q: &Query, opts: &VerifyOptions) -> Answer {
        let Some(cache) = self.cache.as_deref() else {
            return self.verify_compiled(&compile(q, self.net), opts);
        };
        let t_start = Instant::now();
        let key = (q.clone(), opts.weights.clone());
        let mut answer = match cache.get(&key) {
            Some(hit) => hit,
            None => {
                let (answer, footprint) = self.compute(&compile(q, self.net), opts);
                let hit = Answer::new(answer.outcome.clone(), answer.stats.as_cache_hit());
                cache.insert(key, hit, footprint);
                answer
            }
        };
        self.stamp(&mut answer.stats, t_start);
        answer
    }
}

//! Compilation of (network × query) into a weighted pushdown system.
//!
//! ## Encoding
//!
//! * **Stack** — the packet header: stack symbols are exactly the
//!   network's labels (`SymbolId(i)` ↔ `LabelId(i)`).
//! * **Control state** — a pair of (state of the path-constraint NFA `b`,
//!   link the packet is currently on), plus — in the under-approximating
//!   variant — the accumulated failure count. Multi-operation forwarding
//!   entries additionally introduce anonymous *chain states*.
//! * **Rules** — one normal-form rule (or a short chain) per forwarding
//!   entry whose traffic-engineering group can be active within the
//!   failure budget.
//!
//! ## Failure semantics
//!
//! Using a group of priority `j` requires all links of groups `1..j` to
//! have failed at that router — `needed(j) = |E(O₁) ∪ … ∪ E(O_{j−1})|`
//! local failures.
//!
//! * [`ApproxMode::Over`] admits an entry iff `needed(j) ≤ k` — "up to
//!   `k` links can fail *at any router*", which over-approximates the
//!   global budget (paper Section 4.2).
//! * [`ApproxMode::Under`] threads a global counter `f` through the
//!   control state and admits the entry iff `f + needed(j) ≤ k`; loops
//!   re-count the same failed link, hence an under-approximation.
//!
//! ## Operation chains
//!
//! A forwarding entry applies a *sequence* of MPLS operations; PDS rules
//! rewrite at most two symbols. Sequences are first canonicalized to
//! "remove the top `1+d` symbols, then push `x₁…xₘ`" and then emitted as
//! a minimal chain: the common failover pattern `swap(x)∘push(y)` becomes
//! a *single* push rule. Only sequences that inspect symbols strictly
//! below the consumed top (`d ≥ 1`, e.g. `pop∘swap`) require a per-symbol
//! fan-out, which is bounded by kind-validity of headers.

use crate::quantities::StepMeasure;
use netmodel::{LabelId, LabelKind, LinkId, Network, Op};
use pdaal::budget::{AbortReason, Budget};
use pdaal::{PAutomaton, Pds, RuleOp, StateId, SymbolId, TLabel, Weight};
use query::{CompiledQuery, LinkNfa};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Over- or under-approximation of the failure semantics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ApproxMode {
    /// Per-router failure budget (may admit traces needing more than `k`
    /// global failures).
    Over,
    /// Global failure counter in the control state (may double-count on
    /// loops).
    Under,
}

/// Metadata for one PDS control state.
#[derive(Clone, Copy, Debug)]
pub enum StateMeta {
    /// A "real" state: the packet is on `link`, the path NFA is in `qb`,
    /// and (under-approximation only) `failures` have been consumed.
    Real {
        /// Current link.
        link: LinkId,
        /// Path-NFA state.
        qb: u32,
        /// Accumulated failure count (always 0 in over-approximation).
        failures: u32,
    },
    /// An anonymous intermediate state inside an operation chain.
    Chain,
}

/// The result of compiling a network and query into a PDS.
pub struct Construction<W: Weight> {
    /// The pushdown system.
    pub pds: Pds<W>,
    /// P-automaton accepting the initial configurations
    /// `<(q₁,e₁), h>` with `h ∈ L(a)`, weighted with the measure of
    /// traversing `e₁`.
    pub initial: PAutomaton<W>,
    /// Control states whose path-NFA component is accepting; witnesses
    /// must end in one of these.
    pub finals: Vec<StateId>,
    /// Per-state metadata (indexed by `StateId`).
    pub meta: Vec<StateMeta>,
}

impl<W: Weight> Construction<W> {
    /// The link-dependency footprint of this construction: every link a
    /// real control state sits on — exactly the links whose routing keys
    /// [`build_with`]'s state exploration read. A dataplane delta that
    /// touches none of these links cannot change this construction
    /// (label table and topology are fixed for a construction's
    /// lifetime), hence not the answer computed from it — which is what
    /// makes footprint-based cache invalidation sound; see
    /// [`crate::cache::Footprint`].
    pub fn footprint(&self) -> crate::cache::Footprint {
        crate::cache::Footprint::from_links(self.meta.iter().filter_map(|m| match m {
            StateMeta::Real { link, .. } => Some(*link),
            StateMeta::Chain => None,
        }))
    }
}

/// Rule tag encoding: `0` marks an intermediate chain rule; `link.0 + 1`
/// marks the rule completing a forwarding step onto `link`.
pub fn tag_for_link(link: LinkId) -> u64 {
    link.0 as u64 + 1
}

/// Decode a rule tag back into the completed-step link, if any.
pub fn link_of_tag(tag: u64) -> Option<LinkId> {
    if tag == 0 {
        None
    } else {
        Some(LinkId((tag - 1) as u32))
    }
}

/// Canonical form of an operation sequence applied to a known top label
/// `ℓ`: remove the top `1 + extra_pops` symbols, then push `pushed`
/// (bottom-to-top order, so the last element becomes the new top).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CanonicalOps {
    /// Symbols removed below the consumed top.
    pub extra_pops: usize,
    /// Replacement symbols, bottom-to-top.
    pub pushed: Vec<LabelId>,
}

/// Canonicalize `ops` as applied to top label `top`.
pub fn canonicalize(top: LabelId, ops: &[Op]) -> CanonicalOps {
    let mut extra_pops = 0usize;
    let mut pushed: Vec<LabelId> = vec![top];
    for op in ops {
        match *op {
            Op::Swap(x) => {
                if let Some(last) = pushed.last_mut() {
                    *last = x;
                } else {
                    extra_pops += 1;
                    pushed.push(x);
                }
            }
            Op::Push(x) => pushed.push(x),
            Op::Pop => {
                if pushed.pop().is_none() {
                    extra_pops += 1;
                }
            }
        }
    }
    CanonicalOps { extra_pops, pushed }
}

/// Net label-stack growth of an operation sequence (the per-step
/// `Tunnels` contribution): `max(0, |pushed| − (1 + extra_pops))`.
pub fn net_growth(c: &CanonicalOps) -> u64 {
    (c.pushed.len() as u64).saturating_sub(1 + c.extra_pops as u64)
}

/// Which label kinds may legally occur directly below a label of kind
/// `k` in a valid header.
fn kinds_below(k: LabelKind) -> &'static [LabelKind] {
    match k {
        LabelKind::Mpls => &[LabelKind::Mpls, LabelKind::MplsBos],
        LabelKind::MplsBos => &[LabelKind::Ip],
        LabelKind::Ip => &[],
    }
}

/// One pre-canonicalized forwarding alternative of a TE group: a routing
/// entry that already passed the kind-validity pre-check, with its
/// operation sequence canonicalized and its per-step measure computed.
#[derive(Clone, Debug)]
pub struct PrecompEntry {
    /// The link the entry forwards onto.
    pub out: LinkId,
    /// Canonical form of the entry's operation sequence.
    pub canon: CanonicalOps,
    /// Step measure of taking this entry (its `failures` component is
    /// the owning group's `needed(j)` count).
    pub measure: StepMeasure,
}

/// One traffic-engineering group of a routing key, with its `needed(j)`
/// failure count resolved and inert entries already dropped.
#[derive(Clone, Debug)]
pub struct PrecompGroup {
    /// `needed(j) = |E(O₁) ∪ … ∪ E(O_{j−1})|`: how many local link
    /// failures activate this group.
    pub needed: u32,
    /// Usable entries of the group (entries whose own link must have
    /// failed, or whose ops cannot apply to any valid header topped by
    /// the key's label, are filtered out here, once).
    pub entries: Vec<PrecompEntry>,
}

/// All TE groups of one `(in-link, label)` routing key, priority order.
#[derive(Clone, Debug)]
pub struct PrecompKey {
    /// The top-of-stack label the key matches.
    pub label: LabelId,
    /// The key's groups by priority.
    pub groups: Vec<PrecompGroup>,
}

fn kind_slot(k: LabelKind) -> usize {
    match k {
        LabelKind::Mpls => 0,
        LabelKind::MplsBos => 1,
        LabelKind::Ip => 2,
    }
}

/// The query-independent part of the network → PDS compilation, computed
/// once per [`Network`] and shared (via `Arc`) across queries, both
/// [`ApproxMode`] phases, and batch worker threads.
///
/// Holds the canonicalized per-entry operation chains, the per-group
/// `needed(j)` failure counts, the per-link start measures, and the
/// label kind tables that [`build_with`] and `emit_chain` would
/// otherwise recompute for every single query.
///
/// Invalidation is by construction: a precomp is built from one
/// `Network` value and never mutated, so a changed network means a new
/// precomp (and a new `Verifier`).
pub struct NetworkPrecomp {
    n_symbols: u32,
    keys_of_link: HashMap<LinkId, Vec<PrecompKey>>,
    labels_of_kind: [Vec<LabelId>; 3],
    label_kind: Vec<LabelKind>,
    start_measure: Vec<StepMeasure>,
    build_time: Duration,
    /// Memoized [`NetworkPrecomp::bytes_resident`] estimate. The tables
    /// are immutable after construction, and deep-walking them per call
    /// showed up as a per-query regression (`resident_bytes` runs up to
    /// three times per verification).
    bytes_resident: usize,
}

impl NetworkPrecomp {
    /// Precompute the network-level construction tables for `net`.
    ///
    /// Tolerates unvalidated networks: routing keys or entries naming
    /// out-of-range links/labels (possible after fault injection via
    /// `add_rule_unchecked`) are dropped instead of panicking — they
    /// could never label a real packet or complete a forwarding step.
    pub fn new(net: &Network) -> Self {
        let t0 = Instant::now();
        let num_links = net.topology.num_links();
        let num_labels = net.labels.len();
        let label_kind: Vec<LabelKind> = (0..num_labels)
            .map(|i| net.labels.kind(LabelId(i as u32)))
            .collect();
        let labels_of_kind = [
            net.labels.of_kind(LabelKind::Mpls).collect(),
            net.labels.of_kind(LabelKind::MplsBos).collect(),
            net.labels.of_kind(LabelKind::Ip).collect(),
        ];
        let start_measure: Vec<StepMeasure> = (0..num_links)
            .map(|i| {
                let link = LinkId(i);
                StepMeasure {
                    links: 1,
                    hops: u64::from(!net.topology.is_self_loop(link)),
                    distance: net.topology.link(link).distance,
                    failures: 0,
                    tunnels: 0,
                }
            })
            .collect();
        let label_ok = |l: LabelId| l.index() < num_labels;
        let mut keys_of_link: HashMap<LinkId, Vec<PrecompKey>> = HashMap::new();
        for (link, label) in net.routing_keys() {
            if !label_ok(label) || link.index() >= num_links as usize {
                continue;
            }
            let mut blocked: Vec<LinkId> = Vec::new();
            let mut groups: Vec<PrecompGroup> = Vec::new();
            for group in net.groups(link, label) {
                let needed = blocked.len() as u32;
                let mut entries: Vec<PrecompEntry> = Vec::new();
                for entry in group {
                    let ids_ok = entry.out.index() < num_links as usize
                        && entry.ops.iter().all(|op| match *op {
                            Op::Swap(x) | Op::Push(x) => label_ok(x),
                            Op::Pop => true,
                        });
                    // The entry's own link being required-failed makes
                    // the entry inert; an op sequence undefined on every
                    // valid header topped by `label` (partial rewrite)
                    // likewise.
                    if !ids_ok
                        || blocked.contains(&entry.out)
                        || !ops_may_apply(net, label, &entry.ops)
                    {
                        continue;
                    }
                    let canon = canonicalize(label, &entry.ops);
                    let measure = StepMeasure {
                        links: 1,
                        hops: u64::from(!net.topology.is_self_loop(entry.out)),
                        distance: net.topology.link(entry.out).distance,
                        failures: needed as u64,
                        tunnels: net_growth(&canon),
                    };
                    entries.push(PrecompEntry {
                        out: entry.out,
                        canon,
                        measure,
                    });
                }
                groups.push(PrecompGroup { needed, entries });
                for entry in group {
                    if !blocked.contains(&entry.out) {
                        blocked.push(entry.out);
                    }
                }
            }
            keys_of_link
                .entry(link)
                .or_default()
                .push(PrecompKey { label, groups });
        }
        // The routing table is a `HashMap`: sort each link's keys, or
        // their order — hence PDS rule order and which equal-weight
        // witness is found — differs between processes.
        for keys in keys_of_link.values_mut() {
            keys.sort_unstable_by_key(|k| k.label);
        }
        let mut precomp = NetworkPrecomp {
            n_symbols: num_labels as u32,
            keys_of_link,
            labels_of_kind,
            label_kind,
            start_measure,
            build_time: Duration::ZERO,
            bytes_resident: 0,
        };
        precomp.bytes_resident = precomp.measure_bytes_resident();
        precomp.build_time = t0.elapsed();
        precomp
    }

    /// Number of stack symbols (= network labels).
    pub fn num_symbols(&self) -> u32 {
        self.n_symbols
    }

    /// The precompiled routing keys of `link` (empty when none).
    pub fn keys(&self, link: LinkId) -> &[PrecompKey] {
        self.keys_of_link.get(&link).map_or(&[], Vec::as_slice)
    }

    /// All labels of kind `k`, in id order.
    pub fn labels_of_kind(&self, k: LabelKind) -> &[LabelId] {
        &self.labels_of_kind[kind_slot(k)]
    }

    /// The kind of label `l`.
    pub fn kind(&self, l: LabelId) -> LabelKind {
        self.label_kind[l.index()]
    }

    /// The measure of a packet first appearing on `link`.
    pub fn start_measure(&self, link: LinkId) -> &StepMeasure {
        &self.start_measure[link.index()]
    }

    /// How long the precomputation took (reported as `precompMillis`).
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Estimated resident heap bytes of the precomputed tables
    /// (capacity-based; feeds the `bytesResident` telemetry counter).
    /// Memoized at construction time — the tables never change.
    pub fn bytes_resident(&self) -> usize {
        self.bytes_resident
    }

    /// The deep capacity walk behind [`NetworkPrecomp::bytes_resident`],
    /// run once in [`NetworkPrecomp::new`].
    fn measure_bytes_resident(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = size_of::<Self>();
        bytes +=
            self.keys_of_link.capacity() * (size_of::<LinkId>() + size_of::<Vec<PrecompKey>>());
        for keys in self.keys_of_link.values() {
            bytes += keys.capacity() * size_of::<PrecompKey>();
            for key in keys {
                bytes += key.groups.capacity() * size_of::<PrecompGroup>();
                for group in &key.groups {
                    bytes += group.entries.capacity() * size_of::<PrecompEntry>();
                    bytes += group
                        .entries
                        .iter()
                        .map(|e| e.canon.pushed.capacity() * size_of::<LabelId>())
                        .sum::<usize>();
                }
            }
        }
        bytes += self
            .labels_of_kind
            .iter()
            .map(|v| v.capacity() * size_of::<LabelId>())
            .sum::<usize>();
        bytes += self.label_kind.capacity() * size_of::<LabelKind>();
        bytes += self.start_measure.capacity() * size_of::<StepMeasure>();
        bytes
    }
}

/// Build the PDS for `net` and compiled query `cq`.
///
/// Convenience wrapper that runs [`NetworkPrecomp::new`] and forwards to
/// [`build_with`]. Callers verifying many queries against one network
/// should build the precomp once and share it instead.
pub fn build<W: Weight>(
    net: &Network,
    cq: &CompiledQuery,
    mode: ApproxMode,
    weigh: &dyn Fn(&StepMeasure) -> W,
) -> Construction<W> {
    build_with(&NetworkPrecomp::new(net), cq, mode, weigh)
}

/// Build the PDS for compiled query `cq` over a precompiled network.
///
/// `weigh` maps each forwarding step's [`StepMeasure`] to a semiring
/// weight; pass `|_| Unweighted` for plain reachability.
pub fn build_with<W: Weight>(
    pre: &NetworkPrecomp,
    cq: &CompiledQuery,
    mode: ApproxMode,
    weigh: &dyn Fn(&StepMeasure) -> W,
) -> Construction<W> {
    match build_with_budget(pre, cq, mode, weigh, &Budget::unlimited()) {
        Ok(cons) => cons,
        Err(reason) => unreachable!("unlimited budget aborted construction: {reason:?}"),
    }
}

/// Like [`build_with`], but polls `budget` once per worklist state so a
/// deadline or cancellation aborts mid-construction instead of after it.
///
/// The construction's own work is never counted against a transition
/// budget (the polls pass `0` transitions); only the wall clock and
/// cancellation tokens can abort here, so an unlimited budget makes this
/// infallible and [`build_with`] relies on that.
pub fn build_with_budget<W: Weight>(
    pre: &NetworkPrecomp,
    cq: &CompiledQuery,
    mode: ApproxMode,
    weigh: &dyn Fn(&StepMeasure) -> W,
    budget: &Budget,
) -> Result<Construction<W>, AbortReason> {
    let mut checker = budget.checker();
    let n_symbols = pre.num_symbols();
    let k = cq.max_failures;
    let path: &LinkNfa = &cq.path;

    let mut pds: Pds<W> = Pds::new(0, n_symbols);
    let mut meta: Vec<StateMeta> = Vec::new();
    let mut finals: Vec<StateId> = Vec::new();

    // (qb, link, failures) -> state
    let mut state_of: HashMap<(u32, u32, u32), StateId> = HashMap::new();
    let mut worklist: Vec<StateId> = Vec::new();

    macro_rules! real_state {
        ($qb:expr, $link:expr, $f:expr) => {{
            let key = ($qb, $link.0, $f);
            match state_of.get(&key) {
                Some(&s) => s,
                None => {
                    let s = pds.add_state();
                    meta.push(StateMeta::Real {
                        link: $link,
                        qb: $qb,
                        failures: $f,
                    });
                    if path.is_final($qb) {
                        finals.push(s);
                    }
                    state_of.insert(key, s);
                    worklist.push(s);
                    s
                }
            }
        }};
    }

    // Start states: packets may "appear" on any link matched by a first
    // edge of the path NFA.
    let mut starts: Vec<StateId> = Vec::new();
    for &q0 in path.initial_states() {
        for edge in path.edges_from(q0) {
            for link in edge.links.iter() {
                let s = real_state!(edge.to, link, 0u32);
                if !starts.contains(&s) {
                    starts.push(s);
                }
            }
        }
    }

    while let Some(state) = worklist.pop() {
        checker.tick(0)?;
        let StateMeta::Real {
            link: e,
            qb,
            failures: f,
        } = meta[state.index()]
        else {
            continue;
        };
        for key in pre.keys(e) {
            let label = key.label;
            for group in &key.groups {
                let needed = group.needed;
                let admissible = match mode {
                    ApproxMode::Over => needed <= k,
                    ApproxMode::Under => f + needed <= k,
                };
                if !admissible {
                    continue;
                }
                let nf = match mode {
                    ApproxMode::Over => 0,
                    ApproxMode::Under => f + needed,
                };
                for entry in &group.entries {
                    let w = weigh(&entry.measure);
                    for pe in path.edges_from(qb) {
                        if !pe.links.contains(entry.out) {
                            continue;
                        }
                        let target = real_state!(pe.to, entry.out, nf);
                        emit_chain(
                            pre,
                            &mut pds,
                            &mut meta,
                            state,
                            label,
                            target,
                            &entry.canon,
                            w.clone(),
                            entry.out,
                        );
                    }
                }
            }
        }
    }

    // Build the initial automaton: shared tail mirroring the `a` NFA,
    // entered from every start state with that start's traversal weight.
    let mut initial: PAutomaton<W> = PAutomaton::new(&pds);
    let a = &cq.initial;
    let tail: Vec<pdaal::AutState> = (0..a.num_states()).map(|_| initial.add_state()).collect();
    for s in 0..a.num_states() {
        if a.is_final(s) {
            initial.set_final(tail[s as usize]);
        }
    }
    // Interning filters once per NFA edge.
    let mut edge_labels: Vec<(u32, TLabel, u32)> = Vec::new();
    for e in a.edges() {
        // A one-member filter (a set, or a class minus all but one label)
        // is a concrete symbol.
        let lbl = match e.filter.single() {
            Some(sym) => TLabel::Sym(sym),
            None => TLabel::Filter(initial.add_filter(e.filter.clone())),
        };
        edge_labels.push((e.from, lbl, e.to));
    }
    for &(u, lbl, v) in &edge_labels {
        initial.insert_or_combine(
            tail[u as usize],
            lbl,
            tail[v as usize],
            W::one(),
            pdaal::Provenance::Initial,
        );
    }
    for &sp in &starts {
        let StateMeta::Real { link, .. } = meta[sp.index()] else {
            unreachable!("starts are real states")
        };
        let w0 = weigh(pre.start_measure(link));
        for &a0 in a.initial_states() {
            debug_assert!(
                !a.is_final(a0),
                "valid-header languages never contain the empty header"
            );
            for &(u, lbl, v) in &edge_labels {
                if u == a0 {
                    initial.insert_or_combine(
                        pdaal::AutState(sp.0),
                        lbl,
                        tail[v as usize],
                        w0.clone(),
                        pdaal::Provenance::Initial,
                    );
                }
            }
        }
    }

    Ok(Construction {
        pds,
        initial,
        finals,
        meta,
    })
}

/// Cheap syntactic pre-check that an op sequence can be defined on *some*
/// valid header topped by `top`. Must never reject a sequence that is
/// defined on some header (false negatives would lose witnesses); it may
/// accept sequences that turn out undefined on the concrete header — the
/// trace feasibility check catches those.
///
/// The abstraction tracks only the *known* prefix of the stack (labels
/// written by the ops themselves plus the consumed top); pops below the
/// known prefix are treated permissively.
fn ops_may_apply(net: &Network, top: LabelId, ops: &[Op]) -> bool {
    let mut prefix: Vec<LabelKind> = vec![net.labels.kind(top)];
    for op in ops {
        match *op {
            Op::Swap(x) => {
                if prefix.is_empty() {
                    prefix.push(net.labels.kind(x));
                } else {
                    prefix[0] = net.labels.kind(x);
                }
            }
            Op::Push(x) => prefix.insert(0, net.labels.kind(x)),
            Op::Pop => {
                if prefix.is_empty() {
                    // Popping an unknown symbol: fine unless it is the IP
                    // label, which we cannot know here — permissive.
                } else {
                    if prefix[0] == LabelKind::Ip {
                        return false;
                    }
                    prefix.remove(0);
                }
            }
        }
    }
    // Local kind-validity of the known prefix (adjacent pairs, top-down):
    for w in prefix.windows(2) {
        let ok = matches!(
            (w[0], w[1]),
            (LabelKind::Mpls, LabelKind::Mpls)
                | (LabelKind::Mpls, LabelKind::MplsBos)
                | (LabelKind::MplsBos, LabelKind::Ip)
        );
        if !ok {
            return false;
        }
    }
    // An IP label can only sit at the very bottom.
    if let Some(pos) = prefix.iter().position(|k| *k == LabelKind::Ip) {
        if pos != prefix.len() - 1 {
            return false;
        }
    }
    true
}

/// Emit the rule chain realizing `canon` from `(from, top)` to `target`,
/// tagging the final rule with the traversed link and placing `weight` on
/// the first rule.
#[allow(clippy::too_many_arguments)]
fn emit_chain<W: Weight>(
    pre: &NetworkPrecomp,
    pds: &mut Pds<W>,
    meta: &mut Vec<StateMeta>,
    from: StateId,
    top: LabelId,
    target: StateId,
    canon: &CanonicalOps,
    weight: W,
    link: LinkId,
) {
    let sym = |l: LabelId| SymbolId(l.0);
    let tag = tag_for_link(link);
    let d = canon.extra_pops;
    let m = canon.pushed.len();

    let chain_state = |pds: &mut Pds<W>, meta: &mut Vec<StateMeta>| -> StateId {
        let s = pds.add_state();
        meta.push(StateMeta::Chain);
        s
    };

    if d == 0 {
        match m {
            0 => {
                pds.add_rule(from, sym(top), target, RuleOp::Pop, weight, tag);
            }
            1 => {
                pds.add_rule(
                    from,
                    sym(top),
                    target,
                    RuleOp::Swap(sym(canon.pushed[0])),
                    weight,
                    tag,
                );
            }
            _ => {
                // Replace top with x₁…xₘ (xₘ on top): push m−1 times.
                let mut cur = from;
                let mut cur_top = sym(top);
                for i in 1..m {
                    let below = sym(canon.pushed[i - 1]);
                    let above = sym(canon.pushed[i]);
                    let (next, w, t) = if i == m - 1 {
                        (target, if i == 1 { weight.clone() } else { W::one() }, tag)
                    } else {
                        let cs = chain_state(pds, meta);
                        (cs, if i == 1 { weight.clone() } else { W::one() }, 0)
                    };
                    pds.add_rule(cur, cur_top, next, RuleOp::Push(above, below), w, t);
                    cur = next;
                    cur_top = above;
                }
            }
        }
        return;
    }

    // d >= 1: the canonical form removes 1+d symbols and then pushes
    // x₁…xₘ. Realization:
    //   1. pop the known top,
    //   2. pop the next d−1 symbols (fan-out over the kinds valid at
    //      each depth, per the header discipline),
    //   3. remove the final symbol: as a pop (m = 0, targets `target`)
    //      or fused with the first push as a swap to x₁,
    //   4. push x₂…xₘ on now-known tops.
    let mut depth_kinds: Vec<Vec<LabelKind>> = vec![vec![pre.kind(top)]];
    for i in 0..d {
        let mut next: Vec<LabelKind> = Vec::new();
        for k in &depth_kinds[i] {
            for nk in kinds_below(*k) {
                if !next.contains(nk) {
                    next.push(*nk);
                }
            }
        }
        depth_kinds.push(next);
    }

    // Step 1: pop the known top (carries the step weight).
    let mut cur = chain_state(pds, meta);
    pds.add_rule(from, sym(top), cur, RuleOp::Pop, weight, 0);

    // Step 2: pops at depths 1..d-1.
    for kinds in depth_kinds.iter().take(d).skip(1) {
        let next = chain_state(pds, meta);
        for k in kinds {
            for &l in pre.labels_of_kind(*k) {
                pds.add_rule(cur, sym(l), next, RuleOp::Pop, W::one(), 0);
            }
        }
        cur = next;
    }

    // Step 3: remove the symbol at depth d.
    let final_kinds = &depth_kinds[d];
    if m == 0 {
        for k in final_kinds {
            for &l in pre.labels_of_kind(*k) {
                pds.add_rule(cur, sym(l), target, RuleOp::Pop, W::one(), tag);
            }
        }
        return;
    }
    let first = sym(canon.pushed[0]);
    let after_swap = if m == 1 {
        target
    } else {
        chain_state(pds, meta)
    };
    for k in final_kinds {
        for &l in pre.labels_of_kind(*k) {
            pds.add_rule(
                cur,
                sym(l),
                after_swap,
                RuleOp::Swap(first),
                W::one(),
                if m == 1 { tag } else { 0 },
            );
        }
    }

    // Step 4: push x₂…xₘ on known tops.
    let mut cur = after_swap;
    let mut cur_top = first;
    for i in 1..m {
        let above = sym(canon.pushed[i]);
        let is_last = i == m - 1;
        let next = if is_last {
            target
        } else {
            chain_state(pds, meta)
        };
        pds.add_rule(
            cur,
            cur_top,
            next,
            RuleOp::Push(above, cur_top),
            W::one(),
            if is_last { tag } else { 0 },
        );
        cur = next;
        cur_top = above;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::LabelTable;

    fn label_table() -> (LabelTable, LabelId, LabelId, LabelId, LabelId) {
        let mut t = LabelTable::new();
        let m = t.mpls("30");
        let m2 = t.mpls("31");
        let s = t.mpls_bos("s20");
        let ip = t.ip("ip1");
        (t, m, m2, s, ip)
    }

    #[test]
    fn canonicalize_identity() {
        let (_t, m, ..) = label_table();
        let c = canonicalize(m, &[]);
        assert_eq!(
            c,
            CanonicalOps {
                extra_pops: 0,
                pushed: vec![m]
            }
        );
        assert_eq!(net_growth(&c), 0);
    }

    #[test]
    fn canonicalize_swap_push_is_single_level() {
        // swap(s21)∘push(30): replace top with [s21, 30] — no deep pops.
        let (_t, m, _m2, s, _ip) = label_table();
        let c = canonicalize(s, &[Op::Swap(s), Op::Push(m)]);
        assert_eq!(c.extra_pops, 0);
        assert_eq!(c.pushed, vec![s, m]);
        assert_eq!(net_growth(&c), 1);
    }

    #[test]
    fn canonicalize_pop() {
        let (_t, m, ..) = label_table();
        let c = canonicalize(m, &[Op::Pop]);
        assert_eq!(
            c,
            CanonicalOps {
                extra_pops: 0,
                pushed: vec![]
            }
        );
        assert_eq!(net_growth(&c), 0);
    }

    #[test]
    fn canonicalize_pop_swap_needs_deep_rewrite() {
        // pop∘swap(x): removes the top TWO symbols, pushes x.
        let (_t, m, m2, ..) = label_table();
        let c = canonicalize(m, &[Op::Pop, Op::Swap(m2)]);
        assert_eq!(c.extra_pops, 1);
        assert_eq!(c.pushed, vec![m2]);
    }

    #[test]
    fn canonicalize_pop_push_is_swap() {
        // pop∘push(x) ≡ swap(x): remove top, push x — depth stays 0? No:
        // pop removes ℓ (pushed becomes []), push(x) appends: pushed=[x],
        // extra_pops=0 — exactly a swap.
        let (_t, m, m2, ..) = label_table();
        let c = canonicalize(m, &[Op::Pop, Op::Push(m2)]);
        assert_eq!(
            c,
            CanonicalOps {
                extra_pops: 0,
                pushed: vec![m2]
            }
        );
    }

    #[test]
    fn canonicalize_push_pop_is_identity() {
        let (_t, m, m2, ..) = label_table();
        let c = canonicalize(m, &[Op::Push(m2), Op::Pop]);
        assert_eq!(
            c,
            CanonicalOps {
                extra_pops: 0,
                pushed: vec![m]
            }
        );
    }

    #[test]
    fn canonicalize_paper_example() {
        // pop ∘ swap(s21) ∘ push(31) on top 30: remove top two, push
        // [s21, 31].
        let mut t = LabelTable::new();
        let m30 = t.mpls("30");
        let m31 = t.mpls("31");
        let s21 = t.mpls_bos("s21");
        let c = canonicalize(m30, &[Op::Pop, Op::Swap(s21), Op::Push(m31)]);
        assert_eq!(c.extra_pops, 1);
        assert_eq!(c.pushed, vec![s21, m31]);
        assert_eq!(net_growth(&c), 0);
    }

    #[test]
    fn tags_round_trip() {
        assert_eq!(link_of_tag(0), None);
        assert_eq!(link_of_tag(tag_for_link(LinkId(7))), Some(LinkId(7)));
    }

    #[test]
    fn precomp_build_matches_direct_build() {
        use crate::examples::paper_network;
        use pdaal::MinTotal;
        let net = paper_network();
        let pre = NetworkPrecomp::new(&net);
        for text in [
            "<ip> [.#v0] .* [v3#.] <ip> 2",
            "<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
        ] {
            let q = query::parse_query(text).unwrap();
            let cq = query::compile(&q, &net);
            for mode in [ApproxMode::Over, ApproxMode::Under] {
                let fresh = build(&net, &cq, mode, &|m| MinTotal(m.failures));
                let shared = build_with(&pre, &cq, mode, &|m| MinTotal(m.failures));
                assert_eq!(fresh.pds.num_states(), shared.pds.num_states());
                assert_eq!(fresh.pds.num_rules(), shared.pds.num_rules());
                assert_eq!(fresh.finals, shared.finals);
            }
        }
    }

    #[test]
    fn one_member_classes_intern_as_symbols() {
        use crate::examples::paper_network;
        use pdaal::Unweighted;
        let net = paper_network();
        let pre = NetworkPrecomp::new(&net);
        let sym = |name: &str| SymbolId(net.labels.get(name).unwrap().0);
        // `ip` is a one-label class here, and `[^30]` leaves one MPLS
        // label; both read as concrete symbols, the BOS class as a filter.
        let q = query::parse_query("<[^30] .> [.#v0] .* <ip> 0").unwrap();
        let cq = query::compile(&q, &net);
        let cons = build_with(&pre, &cq, ApproxMode::Over, &|_| Unweighted);
        let labels: Vec<TLabel> = cons.initial.transitions().iter().map(|t| t.label).collect();
        assert!(labels.contains(&TLabel::Sym(sym("31"))));
        assert!(labels.contains(&TLabel::Sym(sym("ip1"))));
        assert!(labels.iter().any(|l| matches!(l, TLabel::Filter(_))));
        for f in cons.initial.filters() {
            assert_ne!(f.member_count(), Some(1), "{f:?} should be a symbol");
        }
    }

    #[test]
    fn precomp_tolerates_out_of_range_rule_ids() {
        use crate::examples::paper_network;
        use netmodel::routing::RoutingEntry;
        let mut net = paper_network();
        // Corrupt the table the way fault injection can: a key and an
        // entry referencing links/labels outside the universe.
        net.add_rule_unchecked(
            LinkId(9999),
            LabelId(0),
            1,
            RoutingEntry {
                out: LinkId(0),
                ops: vec![].into(),
            },
        );
        net.add_rule_unchecked(
            LinkId(0),
            LabelId(9999),
            1,
            RoutingEntry {
                out: LinkId(9999),
                ops: vec![Op::Swap(LabelId(9999))].into(),
            },
        );
        let pre = NetworkPrecomp::new(&net);
        assert!(pre.keys(LinkId(9999)).is_empty());
        assert!(pre
            .keys(LinkId(0))
            .iter()
            .all(|k| k.label.index() < net.labels.len()));
    }

    #[test]
    fn kinds_below_follow_header_validity() {
        assert_eq!(
            kinds_below(LabelKind::Mpls),
            &[LabelKind::Mpls, LabelKind::MplsBos]
        );
        assert_eq!(kinds_below(LabelKind::MplsBos), &[LabelKind::Ip]);
        assert!(kinds_below(LabelKind::Ip).is_empty());
    }
}

//! P-automata: weighted NFAs over stack symbols representing regular sets
//! of pushdown configurations.
//!
//! A configuration `<p, γ₁…γₙ>` of a [`Pds`](crate::Pds) is *accepted* by a
//! P-automaton iff the word `γ₁…γₙ` (top of stack first) is accepted when
//! starting from the automaton state corresponding to control state `p`.
//! The first `Pds::num_states()` automaton states are identified with the
//! PDS control states; further states (acceptance structure and the
//! mid-states introduced by `post*`) are allocated on top.
//!
//! ## Symbolic transitions
//!
//! Besides concrete symbol labels, *input* transitions may carry a
//! [`SymFilter`] — a predicate over symbols. This is what lets AalWiNes
//! describe initial-header languages like `mpls* smpls ip` without
//! enumerating tens of thousands of labels: one filter edge stands for
//! the whole class. Saturation-derived transitions are always concrete;
//! filter edges only appear in the input automaton and in ε-composed
//! copies of input edges.
//!
//! Transitions carry a semiring weight and a [`Provenance`] record: how the
//! transition was derived during saturation. Provenance is the raw
//! material for [witness reconstruction](crate::witness).

use crate::fxhash::FxHashMap;
use crate::nfa::SymFilter;
use crate::pds::{Pds, RuleId, StateId, SymbolId};
use crate::semiring::Weight;

/// A state of a P-automaton. States `0..pds.num_states()` coincide with
/// the PDS control states.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AutState(pub u32);

impl AutState {
    /// The dense index of this state.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<StateId> for AutState {
    fn from(s: StateId) -> Self {
        AutState(s.0)
    }
}

/// Identifies a transition within its [`PAutomaton`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TransId(pub u32);

impl TransId {
    /// The dense index of this transition.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies an interned [`SymFilter`] within its [`PAutomaton`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FilterId(pub u32);

/// What a transition reads.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TLabel {
    /// Reads nothing (ε).
    Eps,
    /// Reads exactly one concrete symbol.
    Sym(SymbolId),
    /// Reads any one symbol matching the interned filter.
    Filter(FilterId),
}

impl TLabel {
    /// Whether this label reads a symbol (i.e. is not ε).
    pub fn reads(&self) -> bool {
        !matches!(self, TLabel::Eps)
    }
}

/// How a transition came to exist (and, in the weighted case, how its
/// currently-best weight is derived). Used to rebuild witness runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Provenance {
    /// Present in the input automaton.
    Initial,
    /// `post*`: an ε-transition `(p', ε, q)` created by a pop rule from
    /// transition `(p, γ, q)`.
    Pop {
        /// The pop rule that fired.
        rule: RuleId,
        /// The transition `(p, γ, q)` it fired on.
        from: TransId,
    },
    /// `post*`: `(p', γ', q)` created by a swap rule from `(p, γ, q)`.
    Swap {
        /// The swap rule that fired.
        rule: RuleId,
        /// The transition `(p, γ, q)` it fired on.
        from: TransId,
    },
    /// `post*`: the entry transition `(p', γ₁, m)` into the mid-state of a
    /// push rule.
    PushEntry {
        /// The push rule owning the mid-state.
        rule: RuleId,
    },
    /// `post*`: the continuation `(m, γ₂, q)` out of a push rule's
    /// mid-state, derived from `(p, γ, q)`.
    PushRest {
        /// The push rule that fired.
        rule: RuleId,
        /// The transition `(p, γ, q)` it fired on.
        from: TransId,
    },
    /// `post*`: `(q'', l, q')` obtained by composing an ε-transition
    /// `(q'', ε, m)` with `(m, l, q')`.
    Combine {
        /// The ε-transition.
        eps: TransId,
        /// The non-ε transition it was composed with.
        next: TransId,
    },
}

/// A weighted transition `(from, label, to)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transition<W> {
    /// Source state.
    pub from: AutState,
    /// What the transition reads.
    pub label: TLabel,
    /// Target state.
    pub to: AutState,
    /// Currently-best semiring weight of this transition.
    pub weight: W,
    /// Derivation of the currently-best weight.
    pub prov: Provenance,
}

/// Pack a `(label, to)` pair into one integer key for the per-state
/// transition index. The label occupies the high 32 bits (ε = 0,
/// `Sym(s)` = `1 + s`, `Filter(f)` = `2³¹ + 1 + f`), the target state the
/// low 32.
#[inline]
fn pack_key(label: TLabel, to: AutState) -> u64 {
    let code: u64 = match label {
        TLabel::Eps => 0,
        TLabel::Sym(s) => {
            debug_assert!(s.0 < 0x8000_0000, "symbol id exceeds index encoding");
            1 + s.0 as u64
        }
        TLabel::Filter(f) => {
            debug_assert!(f.0 < 0x7FFF_FFFF, "filter id exceeds index encoding");
            0x8000_0001 + f.0 as u64
        }
    };
    (code << 32) | to.0 as u64
}

/// Sorted-array size beyond which a state's transition index spills to an
/// Fx-hashed map. Most automaton states keep a handful of out-transitions
/// where a binary search over one cache line beats any hashing; the few
/// dense hub states get O(1) lookups instead of O(degree) inserts.
const SPILL_AT: usize = 32;

/// Per-state index from packed `(label, to)` keys to transition ids.
#[derive(Clone, Debug)]
enum OutIndex {
    /// Sorted by key; binary-searched. Used while the state stays sparse.
    Sorted(Vec<(u64, TransId)>),
    /// Fx-hashed; used once the state grows past [`SPILL_AT`].
    Hashed(FxHashMap<u64, TransId>),
}

impl OutIndex {
    fn new() -> Self {
        OutIndex::Sorted(Vec::new())
    }

    #[inline]
    fn get(&self, key: u64) -> Option<TransId> {
        match self {
            OutIndex::Sorted(v) => v
                .binary_search_by_key(&key, |&(k, _)| k)
                .ok()
                .map(|i| v[i].1),
            OutIndex::Hashed(m) => m.get(&key).copied(),
        }
    }

    /// Insert a key known to be absent.
    #[inline]
    fn insert_new(&mut self, key: u64, id: TransId) {
        match self {
            OutIndex::Sorted(v) => {
                if v.len() >= SPILL_AT {
                    let mut m: FxHashMap<u64, TransId> = FxHashMap::default();
                    m.reserve(v.len() + 1);
                    m.extend(v.drain(..));
                    m.insert(key, id);
                    *self = OutIndex::Hashed(m);
                    return;
                }
                let i = match v.binary_search_by_key(&key, |&(k, _)| k) {
                    Ok(_) => unreachable!("insert_new called with present key"),
                    Err(i) => i,
                };
                v.insert(i, (key, id));
            }
            OutIndex::Hashed(m) => {
                let prev = m.insert(key, id);
                debug_assert!(prev.is_none(), "insert_new called with present key");
            }
        }
    }
}

/// A weighted P-automaton over the stack alphabet of a [`Pds`].
#[derive(Clone, Debug)]
pub struct PAutomaton<W> {
    n_pds_states: u32,
    n_symbols: u32,
    n_states: u32,
    transitions: Vec<Transition<W>>,
    filters: Vec<SymFilter>,
    index: Vec<OutIndex>,
    out: Vec<Vec<TransId>>,
    finals: Vec<bool>,
}

impl<W: Weight> PAutomaton<W> {
    /// An automaton with one state per control state of `pds` and no
    /// transitions or final states yet.
    pub fn new<V>(pds: &Pds<V>) -> Self
    where
        V: Weight,
    {
        Self::with_sizes(pds.num_states(), pds.num_symbols())
    }

    /// As [`PAutomaton::new`] but with explicit dimensions.
    pub fn with_sizes(n_pds_states: u32, n_symbols: u32) -> Self {
        PAutomaton {
            n_pds_states,
            n_symbols,
            n_states: n_pds_states,
            transitions: Vec::new(),
            filters: Vec::new(),
            index: (0..n_pds_states).map(|_| OutIndex::new()).collect(),
            out: vec![Vec::new(); n_pds_states as usize],
            finals: vec![false; n_pds_states as usize],
        }
    }

    /// Number of automaton states (including PDS control states).
    pub fn num_states(&self) -> u32 {
        self.n_states
    }

    /// Number of PDS control states shared with the automaton.
    pub fn num_pds_states(&self) -> u32 {
        self.n_pds_states
    }

    /// Size of the stack alphabet.
    pub fn num_symbols(&self) -> u32 {
        self.n_symbols
    }

    /// Whether `s` is a PDS control state (as opposed to an acceptance or
    /// mid-state).
    pub fn is_pds_state(&self, s: AutState) -> bool {
        s.0 < self.n_pds_states
    }

    /// Allocate a fresh non-control state.
    pub fn add_state(&mut self) -> AutState {
        let id = AutState(self.n_states);
        self.n_states += 1;
        self.out.push(Vec::new());
        self.index.push(OutIndex::new());
        self.finals.push(false);
        id
    }

    /// Intern a symbol filter for use on filter transitions.
    pub fn add_filter(&mut self, f: SymFilter) -> FilterId {
        let id = FilterId(self.filters.len() as u32);
        self.filters.push(f);
        id
    }

    /// The interned filter.
    pub fn filter(&self, id: FilterId) -> &SymFilter {
        &self.filters[id.0 as usize]
    }

    /// All interned filters, in [`FilterId`] order.
    pub fn filters(&self) -> &[SymFilter] {
        &self.filters
    }

    /// Whether `label` can read the concrete symbol `sym`.
    pub fn label_matches(&self, label: TLabel, sym: SymbolId) -> bool {
        match label {
            TLabel::Eps => false,
            TLabel::Sym(s) => s == sym,
            TLabel::Filter(f) => self.filters[f.0 as usize].matches(sym),
        }
    }

    /// Mark `s` as accepting.
    pub fn set_final(&mut self, s: AutState) {
        self.finals[s.index()] = true;
    }

    /// Whether `s` is accepting.
    pub fn is_final(&self, s: AutState) -> bool {
        self.finals[s.index()]
    }

    /// All accepting states.
    pub fn final_states(&self) -> impl Iterator<Item = AutState> + '_ {
        self.finals
            .iter()
            .enumerate()
            .filter(|(_, f)| **f)
            .map(|(i, _)| AutState(i as u32))
    }

    /// Add an input transition reading a concrete symbol (provenance
    /// [`Provenance::Initial`]). If the transition exists, weights are
    /// combined.
    pub fn add_edge(&mut self, from: AutState, sym: SymbolId, to: AutState, weight: W) -> TransId {
        self.insert_or_combine(from, TLabel::Sym(sym), to, weight, Provenance::Initial)
            .0
    }

    /// Add an input transition reading any symbol matched by an interned
    /// filter.
    pub fn add_filter_edge(
        &mut self,
        from: AutState,
        filter: FilterId,
        to: AutState,
        weight: W,
    ) -> TransId {
        self.insert_or_combine(
            from,
            TLabel::Filter(filter),
            to,
            weight,
            Provenance::Initial,
        )
        .0
    }

    /// Insert a transition or combine its weight with an existing one.
    ///
    /// Returns the transition id and whether the stored weight strictly
    /// improved (which is also true for brand-new transitions). Provenance
    /// is replaced only on strict improvement, so it always describes the
    /// derivation of the currently-best weight.
    pub fn insert_or_combine(
        &mut self,
        from: AutState,
        label: TLabel,
        to: AutState,
        weight: W,
        prov: Provenance,
    ) -> (TransId, bool) {
        debug_assert!(from.0 < self.n_states && to.0 < self.n_states);
        let key = pack_key(label, to);
        match self.index[from.index()].get(key) {
            Some(id) => {
                let t = &mut self.transitions[id.index()];
                if weight < t.weight {
                    t.weight = weight;
                    t.prov = prov;
                    (id, true)
                } else {
                    (id, false)
                }
            }
            None => {
                let id = TransId(self.transitions.len() as u32);
                self.transitions.push(Transition {
                    from,
                    label,
                    to,
                    weight,
                    prov,
                });
                self.index[from.index()].insert_new(key, id);
                self.out[from.index()].push(id);
                (id, true)
            }
        }
    }

    /// The transition with the given id.
    pub fn transition(&self, id: TransId) -> &Transition<W> {
        &self.transitions[id.index()]
    }

    /// All transitions.
    pub fn transitions(&self) -> &[Transition<W>] {
        &self.transitions
    }

    /// Ids of transitions leaving `s` (ε and non-ε).
    pub fn out_of(&self, s: AutState) -> &[TransId] {
        &self.out[s.index()]
    }

    /// Look up a transition id by its endpoints and label.
    pub fn find(&self, from: AutState, label: TLabel, to: AutState) -> Option<TransId> {
        if from.0 >= self.n_states {
            return None;
        }
        self.index[from.index()].get(pack_key(label, to))
    }

    /// Whether the configuration `<p, word>` is accepted (ignoring weights).
    pub fn accepts(&self, p: StateId, word: &[SymbolId]) -> bool {
        self.accept_weight(p, word).is_some()
    }

    /// The best weight with which `<p, word>` is accepted, or `None` if it
    /// is not accepted.
    ///
    /// This walks the (state, position) product graph with a Dijkstra-style
    /// search so that ε-transitions and weight combination are handled
    /// uniformly. Intended for tests and small queries; the solver pipeline
    /// uses [`crate::shortest`] for regular *sets* of stack words.
    pub fn accept_weight(&self, p: StateId, word: &[SymbolId]) -> Option<W> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        #[derive(PartialEq, Eq)]
        struct Item<W: Ord>(W, u32, usize);
        impl<W: Ord> Ord for Item<W> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                (&self.0, self.1, self.2).cmp(&(&other.0, other.1, other.2))
            }
        }
        impl<W: Ord> PartialOrd for Item<W> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        let start = AutState(p.0);
        if start.0 >= self.n_states {
            return None;
        }
        let mut best: FxHashMap<(u32, usize), W> = FxHashMap::default();
        let mut heap = BinaryHeap::new();
        best.insert((start.0, 0), W::one());
        heap.push(Reverse(Item(W::one(), start.0, 0)));
        while let Some(Reverse(Item(w, s, pos))) = heap.pop() {
            if best.get(&(s, pos)).is_none_or(|b| *b < w) {
                continue;
            }
            if pos == word.len() && self.finals[s as usize] {
                return Some(w);
            }
            for &tid in self.out_of(AutState(s)) {
                let t = &self.transitions[tid.index()];
                let (npos, ok) = match t.label {
                    TLabel::Eps => (pos, true),
                    lbl => (
                        pos + 1,
                        pos < word.len() && self.label_matches(lbl, word[pos]),
                    ),
                };
                if !ok {
                    continue;
                }
                let nw = w.extend(&t.weight);
                let key = (t.to.0, npos);
                let better = best.get(&key).is_none_or(|b| nw < *b);
                if better {
                    best.insert(key, nw.clone());
                    heap.push(Reverse(Item(nw, t.to.0, npos)));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{MinTotal, Unweighted};

    fn sym(i: u32) -> SymbolId {
        SymbolId(i)
    }

    #[test]
    fn simple_acceptance() {
        let mut a = PAutomaton::<Unweighted>::with_sizes(2, 3);
        let q = a.add_state();
        let f = a.add_state();
        a.set_final(f);
        a.add_edge(AutState(0), sym(0), q, Unweighted);
        a.add_edge(q, sym(1), f, Unweighted);
        assert!(a.accepts(StateId(0), &[sym(0), sym(1)]));
        assert!(!a.accepts(StateId(0), &[sym(0)]));
        assert!(!a.accepts(StateId(1), &[sym(0), sym(1)]));
        assert!(!a.accepts(StateId(0), &[sym(0), sym(1), sym(1)]));
    }

    #[test]
    fn empty_word_accepted_at_final_state() {
        let mut a = PAutomaton::<Unweighted>::with_sizes(1, 1);
        a.set_final(AutState(0));
        assert!(a.accepts(StateId(0), &[]));
    }

    #[test]
    fn epsilon_transitions_are_free_moves() {
        let mut a = PAutomaton::<MinTotal>::with_sizes(1, 2);
        let q = a.add_state();
        let f = a.add_state();
        a.set_final(f);
        a.insert_or_combine(
            AutState(0),
            TLabel::Sym(sym(0)),
            q,
            MinTotal(2),
            Provenance::Initial,
        );
        a.insert_or_combine(q, TLabel::Eps, f, MinTotal(3), Provenance::Initial);
        assert_eq!(a.accept_weight(StateId(0), &[sym(0)]), Some(MinTotal(5)));
    }

    #[test]
    fn weight_combines_to_minimum() {
        let mut a = PAutomaton::<MinTotal>::with_sizes(1, 1);
        let f = a.add_state();
        a.set_final(f);
        let (id, improved) = a.insert_or_combine(
            AutState(0),
            TLabel::Sym(sym(0)),
            f,
            MinTotal(9),
            Provenance::Initial,
        );
        assert!(improved);
        let (id2, improved2) = a.insert_or_combine(
            AutState(0),
            TLabel::Sym(sym(0)),
            f,
            MinTotal(4),
            Provenance::Initial,
        );
        assert_eq!(id, id2);
        assert!(improved2);
        let (_, improved3) = a.insert_or_combine(
            AutState(0),
            TLabel::Sym(sym(0)),
            f,
            MinTotal(7),
            Provenance::Initial,
        );
        assert!(!improved3);
        assert_eq!(a.accept_weight(StateId(0), &[sym(0)]), Some(MinTotal(4)));
    }

    #[test]
    fn parallel_paths_take_minimum() {
        let mut a = PAutomaton::<MinTotal>::with_sizes(1, 2);
        let q1 = a.add_state();
        let q2 = a.add_state();
        let f = a.add_state();
        a.set_final(f);
        a.insert_or_combine(
            AutState(0),
            TLabel::Sym(sym(0)),
            q1,
            MinTotal(1),
            Provenance::Initial,
        );
        a.insert_or_combine(
            q1,
            TLabel::Sym(sym(1)),
            f,
            MinTotal(10),
            Provenance::Initial,
        );
        a.insert_or_combine(
            AutState(0),
            TLabel::Sym(sym(0)),
            q2,
            MinTotal(5),
            Provenance::Initial,
        );
        a.insert_or_combine(q2, TLabel::Sym(sym(1)), f, MinTotal(1), Provenance::Initial);
        assert_eq!(
            a.accept_weight(StateId(0), &[sym(0), sym(1)]),
            Some(MinTotal(6))
        );
    }

    #[test]
    fn filter_edges_accept_symbol_classes() {
        use crate::nfa::SymFilter;
        let mut a = PAutomaton::<Unweighted>::with_sizes(1, 10);
        let f = a.add_state();
        a.set_final(f);
        let evens = a.add_filter(SymFilter::In((0..10).step_by(2).map(SymbolId).collect()));
        a.add_filter_edge(AutState(0), evens, f, Unweighted);
        assert!(a.accepts(StateId(0), &[sym(4)]));
        assert!(!a.accepts(StateId(0), &[sym(5)]));
    }

    #[test]
    fn dense_state_spills_to_hash_and_stays_correct() {
        // Push well past SPILL_AT distinct transitions out of one state;
        // lookups must stay exact through the sorted→hashed transition.
        let mut a = PAutomaton::<MinTotal>::with_sizes(1, 256);
        let mut targets = Vec::new();
        for _ in 0..128 {
            targets.push(a.add_state());
        }
        let mut ids = Vec::new();
        for (i, &t) in targets.iter().enumerate() {
            let (id, fresh) = a.insert_or_combine(
                AutState(0),
                TLabel::Sym(sym((255 - i) as u32)),
                t,
                MinTotal(i as u64),
                Provenance::Initial,
            );
            assert!(fresh);
            ids.push(id);
        }
        for (i, &t) in targets.iter().enumerate() {
            assert_eq!(
                a.find(AutState(0), TLabel::Sym(sym((255 - i) as u32)), t),
                Some(ids[i])
            );
            // Wrong target or label must miss.
            assert_eq!(
                a.find(AutState(0), TLabel::Sym(sym((255 - i) as u32)), AutState(0)),
                None
            );
        }
        assert_eq!(a.out_of(AutState(0)).len(), 128);
        // Re-insert with a worse weight: same id, no improvement.
        let (id0, improved) = a.insert_or_combine(
            AutState(0),
            TLabel::Sym(sym(255)),
            targets[0],
            MinTotal(999),
            Provenance::Initial,
        );
        assert_eq!(id0, ids[0]);
        assert!(!improved);
    }

    #[test]
    fn eps_sym_and_filter_labels_do_not_collide() {
        // Sym(0), Eps, and Filter(0) to the same target must be three
        // distinct transitions under the packed-key encoding.
        use crate::nfa::SymFilter;
        let mut a = PAutomaton::<Unweighted>::with_sizes(1, 4);
        let q = a.add_state();
        let f = a.add_filter(SymFilter::Any);
        let (t1, _) = a.insert_or_combine(
            AutState(0),
            TLabel::Sym(sym(0)),
            q,
            Unweighted,
            Provenance::Initial,
        );
        let (t2, _) =
            a.insert_or_combine(AutState(0), TLabel::Eps, q, Unweighted, Provenance::Initial);
        let (t3, _) = a.insert_or_combine(
            AutState(0),
            TLabel::Filter(f),
            q,
            Unweighted,
            Provenance::Initial,
        );
        assert_ne!(t1, t2);
        assert_ne!(t2, t3);
        assert_ne!(t1, t3);
        assert_eq!(a.find(AutState(0), TLabel::Eps, q), Some(t2));
        assert_eq!(a.find(AutState(0), TLabel::Filter(f), q), Some(t3));
    }

    #[test]
    fn filter_any_matches_everything() {
        use crate::nfa::SymFilter;
        let mut a = PAutomaton::<Unweighted>::with_sizes(1, 100);
        let f = a.add_state();
        a.set_final(f);
        let any = a.add_filter(SymFilter::Any);
        a.add_filter_edge(AutState(0), any, f, Unweighted);
        for i in [0, 42, 99] {
            assert!(a.accepts(StateId(0), &[sym(i)]));
        }
        assert!(!a.accepts(StateId(0), &[]));
    }
}

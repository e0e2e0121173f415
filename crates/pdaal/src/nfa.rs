//! ε-free NFAs over stack symbols, used to describe regular sets of stack
//! words (AalWiNes' initial- and final-header constraints `a` and `c`).
//!
//! Edges are labeled with a [`SymFilter`] rather than a single symbol so
//! that the large label alphabets of MPLS networks (`ip`, `mpls`, `smpls`,
//! complemented sets) stay compact: one edge can match thousands of
//! symbols without materializing them.
//!
//! ## Symbolic filters
//!
//! Every explicit symbol set is a [`SymbolSet`]: sorted, duplicate-free,
//! read-only and shared by reference count, so cloning a filter never
//! copies its members. A client that owns a symbol *class* (AalWiNes:
//! all labels of one kind) builds it once and hands out clones; a filter
//! over a class minus a few members ([`SymFilter::InExcept`]) keeps the
//! class shared and stores only the small exception set. Nothing here
//! knows what a class means — membership is a binary search.

use crate::pds::SymbolId;
use std::collections::HashSet;
use std::sync::Arc;

/// A sorted, duplicate-free, shared, read-only set of symbols.
///
/// Cloning shares the members. Built either from any symbol iterator
/// (`collect()` sorts and deduplicates) or from an already sorted,
/// shared id slice ([`SymbolSet::from_sorted_ids`]) — the form a client
/// caches per symbol class so every filter over that class shares one
/// allocation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SymbolSet(Arc<[u32]>);

impl SymbolSet {
    /// The empty set.
    pub fn empty() -> Self {
        SymbolSet(Arc::from([]))
    }

    /// Wrap an already sorted, duplicate-free slice of symbol indices
    /// without copying it.
    pub fn from_sorted_ids(ids: Arc<[u32]>) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "symbol ids must be strictly increasing"
        );
        SymbolSet(ids)
    }

    /// Whether `sym` is a member.
    #[inline]
    pub fn contains(&self, sym: SymbolId) -> bool {
        self.0.binary_search(&sym.0).is_ok()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Members in ascending order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = SymbolId> + ExactSizeIterator + '_ {
        self.0.iter().map(|&i| SymbolId(i))
    }

    /// Whether both sets share one allocation (a cheap identity test for
    /// clients that hand out clones of cached classes).
    pub fn ptr_eq(&self, other: &SymbolSet) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl FromIterator<SymbolId> for SymbolSet {
    fn from_iter<I: IntoIterator<Item = SymbolId>>(iter: I) -> Self {
        let mut ids: Vec<u32> = iter.into_iter().map(|s| s.0).collect();
        ids.sort_unstable();
        ids.dedup();
        SymbolSet(ids.into())
    }
}

/// A predicate over stack symbols carried by an NFA edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SymFilter {
    /// Matches every symbol.
    Any,
    /// Matches exactly the members of the set — an explicit set or a
    /// shared class.
    In(SymbolSet),
    /// Matches everything but the members of the set.
    NotIn(SymbolSet),
    /// Matches the members of the first set (a shared class) that are not
    /// in the second (a small exception set, kept a subset of the class).
    InExcept(SymbolSet, SymbolSet),
}

impl SymFilter {
    /// Whether the filter matches `sym`.
    #[inline]
    pub fn matches(&self, sym: SymbolId) -> bool {
        match self {
            SymFilter::Any => true,
            SymFilter::In(set) => set.contains(sym),
            SymFilter::NotIn(set) => !set.contains(sym),
            SymFilter::InExcept(class, except) => class.contains(sym) && !except.contains(sym),
        }
    }

    /// A filter matching a single symbol.
    pub fn one(sym: SymbolId) -> Self {
        SymFilter::In([sym].into_iter().collect())
    }

    /// A filter matching no symbol at all (the empty set).
    pub fn none() -> Self {
        SymFilter::In(SymbolSet::empty())
    }

    /// The members of an `In`/`InExcept` filter in ascending order, or
    /// `None` for the complemented forms (whose members are "the rest of
    /// the universe").
    pub fn members(&self) -> Option<impl Iterator<Item = SymbolId> + '_> {
        let (set, except) = match self {
            SymFilter::In(set) => (set, None),
            SymFilter::InExcept(class, except) => (class, Some(except)),
            SymFilter::Any | SymFilter::NotIn(_) => return None,
        };
        Some(
            set.iter()
                .filter(move |&s| except.is_none_or(|x| !x.contains(s))),
        )
    }

    /// How many symbols an `In`/`InExcept` filter matches (`None` for
    /// the complemented forms). O(1): the exception set of `InExcept` is
    /// a subset of its class.
    pub fn member_count(&self) -> Option<usize> {
        match self {
            SymFilter::In(set) => Some(set.len()),
            SymFilter::InExcept(class, except) => Some(class.len() - except.len()),
            SymFilter::Any | SymFilter::NotIn(_) => None,
        }
    }

    /// The one symbol the filter matches, if it is an `In`/`InExcept`
    /// filter with exactly one member.
    pub fn single(&self) -> Option<SymbolId> {
        if self.member_count() != Some(1) {
            return None;
        }
        self.members()?.next()
    }

    /// Whether the filter matches at least one symbol of a universe of
    /// `n_symbols` dense symbols (`0..n_symbols`).
    ///
    /// `In` sets may contain out-of-universe symbols (e.g. filters built
    /// against a different network); those do not count as satisfiable.
    pub fn is_satisfiable(&self, n_symbols: u32) -> bool {
        match self {
            SymFilter::Any => n_symbols > 0,
            SymFilter::NotIn(set) => {
                (set.iter().take_while(|s| s.0 < n_symbols).count() as u32) < n_symbols
            }
            _ => self
                .members()
                .and_then(|mut m| m.next())
                .is_some_and(|s| s.0 < n_symbols),
        }
    }

    /// Pick the *smallest* symbol matched by both `self` and `other`,
    /// given the size of the symbol universe. Returns `None` iff the
    /// intersection is empty.
    ///
    /// Used when an accepting path traverses a filter edge: the path must
    /// commit to a concrete symbol to report a concrete stack word.
    /// Always the minimum, never "any": the query NFA is rebuilt per
    /// verification, and a witness header must not depend on how a set
    /// happens to be stored.
    pub fn pick_common(&self, other: &SymFilter, n_symbols: u32) -> Option<SymbolId> {
        let first_in = |members: &mut dyn Iterator<Item = SymbolId>, other: &SymFilter| {
            members
                .take_while(|s| s.0 < n_symbols)
                .find(|&s| other.matches(s))
        };
        if let Some(mut members) = self.members() {
            return first_in(&mut members, other);
        }
        if let Some(mut members) = other.members() {
            return first_in(&mut members, self);
        }
        (0..n_symbols)
            .map(SymbolId)
            .find(|&s| self.matches(s) && other.matches(s))
    }
}

/// An edge of a [`StackNfa`].
#[derive(Clone, Debug)]
pub struct NfaEdge {
    /// Source state.
    pub from: u32,
    /// Symbol predicate.
    pub filter: SymFilter,
    /// Target state.
    pub to: u32,
}

/// An ε-free NFA over stack symbols. States are dense `u32` indices.
#[derive(Clone, Debug, Default)]
pub struct StackNfa {
    n_states: u32,
    edges: Vec<NfaEdge>,
    /// `out[s]` → indices into `edges`.
    out: Vec<Vec<u32>>,
    initial: Vec<u32>,
    finals: Vec<bool>,
}

impl StackNfa {
    /// An NFA with `n_states` states and no edges.
    pub fn new(n_states: u32) -> Self {
        StackNfa {
            n_states,
            edges: Vec::new(),
            out: vec![Vec::new(); n_states as usize],
            initial: Vec::new(),
            finals: vec![false; n_states as usize],
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> u32 {
        self.n_states
    }

    /// Allocate a fresh state.
    pub fn add_state(&mut self) -> u32 {
        let id = self.n_states;
        self.n_states += 1;
        self.out.push(Vec::new());
        self.finals.push(false);
        id
    }

    /// Add an edge `from --filter--> to`.
    pub fn add_edge(&mut self, from: u32, filter: SymFilter, to: u32) {
        let idx = self.edges.len() as u32;
        self.edges.push(NfaEdge { from, filter, to });
        self.out[from as usize].push(idx);
    }

    /// Mark a state as initial.
    pub fn add_initial(&mut self, s: u32) {
        if !self.initial.contains(&s) {
            self.initial.push(s);
        }
    }

    /// Mark a state as final.
    pub fn set_final(&mut self, s: u32) {
        self.finals[s as usize] = true;
    }

    /// The initial states.
    pub fn initial_states(&self) -> &[u32] {
        &self.initial
    }

    /// Whether `s` is final.
    pub fn is_final(&self, s: u32) -> bool {
        self.finals[s as usize]
    }

    /// All edges.
    pub fn edges(&self) -> &[NfaEdge] {
        &self.edges
    }

    /// Edges leaving `s`.
    pub fn edges_from(&self, s: u32) -> impl Iterator<Item = &NfaEdge> + '_ {
        self.out[s as usize]
            .iter()
            .map(move |&i| &self.edges[i as usize])
    }

    /// Whether the NFA accepts `word`.
    pub fn accepts(&self, word: &[SymbolId]) -> bool {
        let mut cur: HashSet<u32> = self.initial.iter().copied().collect();
        for &sym in word {
            let mut next = HashSet::new();
            for &s in &cur {
                for e in self.edges_from(s) {
                    if e.filter.matches(sym) {
                        next.insert(e.to);
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            cur = next;
        }
        cur.iter().any(|&s| self.is_final(s))
    }

    /// Whether the accepted language is empty over a universe of
    /// `n_symbols` dense symbols.
    ///
    /// Sound and complete for ε-free NFAs: the language is non-empty iff
    /// some final state is reachable from an initial state through edges
    /// whose filters each match at least one symbol of the universe
    /// (each edge consumes one symbol independently, so any such path
    /// spells a concrete accepted word).
    pub fn language_empty(&self, n_symbols: u32) -> bool {
        let mut seen = vec![false; self.n_states as usize];
        let mut stack: Vec<u32> = Vec::new();
        for &s in &self.initial {
            if !seen[s as usize] {
                seen[s as usize] = true;
                stack.push(s);
            }
        }
        while let Some(s) = stack.pop() {
            if self.is_final(s) {
                return false;
            }
            for e in self.edges_from(s) {
                if !seen[e.to as usize] && e.filter.is_satisfiable(n_symbols) {
                    seen[e.to as usize] = true;
                    stack.push(e.to);
                }
            }
        }
        true
    }

    /// An NFA accepting exactly the single word `word`.
    pub fn single_word(word: &[SymbolId]) -> Self {
        let mut nfa = StackNfa::new(word.len() as u32 + 1);
        nfa.add_initial(0);
        for (i, &sym) in word.iter().enumerate() {
            nfa.add_edge(i as u32, SymFilter::one(sym), i as u32 + 1);
        }
        nfa.set_final(word.len() as u32);
        nfa
    }

    /// An NFA accepting every word (including the empty word).
    pub fn universal() -> Self {
        let mut nfa = StackNfa::new(1);
        nfa.add_initial(0);
        nfa.set_final(0);
        nfa.add_edge(0, SymFilter::Any, 0);
        nfa
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> SymbolId {
        SymbolId(i)
    }

    #[test]
    fn filters_match_as_expected() {
        let class: SymbolSet = [s(1), s(2), s(3)].into_iter().collect();
        let except = SymFilter::InExcept(class, [s(2)].into_iter().collect());
        assert!(except.matches(s(1)) && except.matches(s(3)));
        assert!(!except.matches(s(2)) && !except.matches(s(4)));
        assert!(SymFilter::Any.matches(s(3)));
        assert!(SymFilter::one(s(3)).matches(s(3)));
        assert!(!SymFilter::one(s(3)).matches(s(4)));
        let not = SymFilter::NotIn([s(1)].into_iter().collect());
        assert!(not.matches(s(0)));
        assert!(!not.matches(s(1)));
        assert!(!SymFilter::none().matches(s(0)));
    }

    /// A random subset of `0..n`.
    fn random_set(rng: &mut detrand::DetRng, n: u32, p: f64) -> SymbolSet {
        (0..n).filter(|_| rng.gen_bool(p)).map(s).collect()
    }

    #[test]
    fn symbol_sets_sort_dedup_and_share() {
        let set: SymbolSet = [s(5), s(1), s(5), s(3)].into_iter().collect();
        assert_eq!(set.iter().collect::<Vec<_>>(), [s(1), s(3), s(5)]);
        assert!(set.contains(s(3)) && !set.contains(s(4)));
        let shared = SymbolSet::from_sorted_ids(Arc::from([1u32, 3, 5]));
        assert_eq!(shared, set, "equality is by members");
        assert!(!shared.ptr_eq(&set));
        assert!(shared.ptr_eq(&shared.clone()), "clones share members");
    }

    #[test]
    fn symbolic_forms_agree_with_their_explicit_expansion() {
        let mut rng = detrand::DetRng::seed_from_u64(0x5e7);
        for round in 0..200 {
            let n = rng.gen_range(0..40u32);
            let class = random_set(&mut rng, n + 5, 0.6);
            let except: SymbolSet = class.iter().filter(|_| rng.gen_bool(0.3)).collect();
            let other = random_set(&mut rng, n + 5, 0.5);
            let forms = [
                SymFilter::Any,
                SymFilter::In(class.clone()),
                SymFilter::NotIn(class.clone()),
                SymFilter::InExcept(class.clone(), except.clone()),
            ];
            for f in &forms {
                // The explicit set the form stands for, over `0..n`
                // (members of `class` may lie beyond the universe).
                let explicit: SymbolSet = (0..n).map(s).filter(|&x| f.matches(x)).collect();
                let expanded = SymFilter::In(explicit.clone());
                for x in (0..n + 5).map(s) {
                    let inside = x.0 < n;
                    assert_eq!(
                        f.matches(x) && inside,
                        expanded.matches(x),
                        "round {round}: {f:?} at {x:?}"
                    );
                }
                assert_eq!(
                    f.is_satisfiable(n),
                    !explicit.is_empty(),
                    "round {round}: {f:?} over {n}"
                );
                for g in [
                    SymFilter::In(other.clone()),
                    SymFilter::NotIn(other.clone()),
                ] {
                    let want = (0..n).map(s).find(|&x| f.matches(x) && g.matches(x));
                    assert_eq!(f.pick_common(&g, n), want, "round {round}: {f:?} ∩ {g:?}");
                    assert_eq!(g.pick_common(f, n), want, "round {round}: {g:?} ∩ {f:?}");
                }
                if let Some(count) = f.member_count() {
                    let members: Vec<SymbolId> = f.members().expect("counted").collect();
                    assert_eq!(members.len(), count);
                    assert!(members.windows(2).all(|w| w[0] < w[1]), "ascending");
                    assert_eq!(f.single(), (count == 1).then(|| members[0]));
                }
            }
        }
    }

    #[test]
    fn pick_common_is_the_minimum() {
        let class: SymbolSet = [s(9), s(2), s(7), s(4)].into_iter().collect();
        let minus_two = SymFilter::InExcept(class.clone(), [s(2)].into_iter().collect());
        let not_four = SymFilter::NotIn([s(4)].into_iter().collect());
        assert_eq!(minus_two.pick_common(&not_four, 10), Some(s(7)));
        assert_eq!(not_four.pick_common(&minus_two, 10), Some(s(7)));
        assert_eq!(
            SymFilter::In(class).pick_common(&SymFilter::Any, 10),
            Some(s(2))
        );
        assert_eq!(minus_two.pick_common(&SymFilter::Any, 7), Some(s(4)));
        assert_eq!(minus_two.pick_common(&SymFilter::one(s(2)), 10), None);
    }

    #[test]
    fn single_word_accepts_only_that_word() {
        let nfa = StackNfa::single_word(&[s(1), s(2)]);
        assert!(nfa.accepts(&[s(1), s(2)]));
        assert!(!nfa.accepts(&[s(1)]));
        assert!(!nfa.accepts(&[s(2), s(1)]));
        assert!(!nfa.accepts(&[]));
    }

    #[test]
    fn universal_accepts_everything() {
        let nfa = StackNfa::universal();
        assert!(nfa.accepts(&[]));
        assert!(nfa.accepts(&[s(0), s(5), s(9)]));
    }

    #[test]
    fn filter_satisfiability_respects_universe() {
        assert!(SymFilter::Any.is_satisfiable(1));
        assert!(!SymFilter::Any.is_satisfiable(0));
        assert!(!SymFilter::none().is_satisfiable(10));
        // An `In` member outside the universe does not help.
        assert!(!SymFilter::one(s(9)).is_satisfiable(5));
        assert!(SymFilter::one(s(4)).is_satisfiable(5));
        // `NotIn` covering the whole universe is unsatisfiable.
        let all: SymFilter = SymFilter::NotIn([s(0), s(1)].into_iter().collect());
        assert!(!all.is_satisfiable(2));
        assert!(all.is_satisfiable(3));
    }

    #[test]
    fn language_emptiness() {
        // Accepting the empty word: non-empty language.
        let mut nfa = StackNfa::new(1);
        nfa.add_initial(0);
        nfa.set_final(0);
        assert!(!nfa.language_empty(0));

        // Reachable final through a satisfiable edge.
        let word = StackNfa::single_word(&[s(1)]);
        assert!(!word.language_empty(2));
        // ... but empty when the symbol is outside the universe.
        assert!(word.language_empty(1));

        // A final state only reachable through an unsatisfiable filter.
        let mut dead = StackNfa::new(2);
        dead.add_initial(0);
        dead.add_edge(0, SymFilter::none(), 1);
        dead.set_final(1);
        assert!(dead.language_empty(10));

        // No final state at all.
        let mut no_final = StackNfa::new(2);
        no_final.add_initial(0);
        no_final.add_edge(0, SymFilter::Any, 1);
        assert!(no_final.language_empty(10));
    }

    #[test]
    fn nondeterminism_is_respected() {
        // Two edges on the same symbol; only one leads to acceptance.
        let mut nfa = StackNfa::new(3);
        nfa.add_initial(0);
        nfa.add_edge(0, SymFilter::one(s(0)), 1);
        nfa.add_edge(0, SymFilter::one(s(0)), 2);
        nfa.set_final(2);
        assert!(nfa.accepts(&[s(0)]));
        assert!(!nfa.accepts(&[s(0), s(0)]));
    }
}

//! Extraction of a minimum-weight accepted configuration from a saturated
//! P-automaton, constrained by a regular set of stack words.
//!
//! After `post*`, the query "is some configuration `<p, w>` with
//! `p ∈ starts` and `w ∈ L(nfa)` reachable, and with which minimal weight?"
//! reduces to a shortest-path problem on the product of the saturated
//! automaton and the [`StackNfa`]: Dijkstra works because all weight
//! domains are totally ordered with monotone `extend`.
//!
//! Both the automaton (filter transitions) and the NFA (filter edges)
//! may be symbolic; every step of the returned path commits to a concrete
//! symbol from the intersection of the two predicates, so the reported
//! stack word is concrete.

use crate::budget::{AbortReason, Budget};
use crate::fxhash::FxHashMap;
use crate::nfa::StackNfa;
use crate::pautomaton::{AutState, PAutomaton, TLabel, TransId};
use crate::pds::{StateId, SymbolId};
use crate::semiring::Weight;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A minimum-weight accepting path through the saturated automaton.
#[derive(Clone, Debug)]
pub struct AcceptedPath<W> {
    /// The PDS control state the accepted configuration lives in.
    pub start: StateId,
    /// The automaton transitions along the path (ε-transitions included).
    pub transitions: Vec<TransId>,
    /// The concrete stack word read by the path (one symbol per reading
    /// transition).
    pub word: Vec<SymbolId>,
    /// The total weight of the path.
    pub weight: W,
}

#[derive(PartialEq, Eq)]
struct HeapItem<W: Ord>(W, u64);

impl<W: Ord> Ord for HeapItem<W> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (&self.0, self.1).cmp(&(&other.0, other.1))
    }
}

impl<W: Ord> PartialOrd for HeapItem<W> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Find a minimum-weight configuration `<p, w>` accepted by `aut` with
/// `p` drawn from `starts` (each with a weight offset, e.g. the weight of
/// reaching that control state in an encompassing encoding) and
/// `w ∈ L(nfa)`.
///
/// Returns `None` iff no such configuration is accepted. The `nfa` must be
/// ε-free (as produced by [`StackNfa`]'s constructors and the query
/// compiler).
pub fn shortest_accepted<W: Weight>(
    aut: &PAutomaton<W>,
    starts: &[(StateId, W)],
    nfa: &StackNfa,
) -> Option<AcceptedPath<W>> {
    shortest_accepted_budgeted(aut, starts, nfa, &Budget::unlimited())
        .expect("unlimited budget cannot abort")
}

/// As [`shortest_accepted`] but stopping early once `budget` is
/// exhausted (wall clock / cancellation; the transition cap does not
/// apply to the search, which materializes no transitions).
pub fn shortest_accepted_budgeted<W: Weight>(
    aut: &PAutomaton<W>,
    starts: &[(StateId, W)],
    nfa: &StackNfa,
    budget: &Budget,
) -> Result<Option<AcceptedPath<W>>, AbortReason> {
    let mut checker = budget.checker();
    let n_nfa = nfa.num_states() as u64;
    let node = |s: AutState, n: u32| -> u64 { s.0 as u64 * n_nfa + n as u64 };
    let n_symbols = aut.num_symbols();

    // Product nodes are packed integers — Fx-hashed (trusted keys, see
    // crate::fxhash).
    let mut best: FxHashMap<u64, W> = FxHashMap::default();
    // Predecessor: node -> (prev node, transition, concrete symbol read).
    let mut pred: FxHashMap<u64, (u64, TransId, Option<SymbolId>)> = FxHashMap::default();
    let mut origin: FxHashMap<u64, StateId> = FxHashMap::default();
    let mut heap: BinaryHeap<Reverse<HeapItem<W>>> = BinaryHeap::new();

    for (p, w0) in starts {
        let s = AutState(p.0);
        if s.0 >= aut.num_states() {
            continue;
        }
        for &n0 in nfa.initial_states() {
            let key = node(s, n0);
            let better = best.get(&key).is_none_or(|b| *w0 < *b);
            if better {
                best.insert(key, w0.clone());
                origin.insert(key, *p);
                heap.push(Reverse(HeapItem(w0.clone(), key)));
            }
        }
    }

    let goal: Option<u64> = loop {
        let Some(Reverse(HeapItem(w, key))) = heap.pop() else {
            break None;
        };
        checker.tick(0)?;
        if best.get(&key).is_none_or(|b| *b < w) {
            continue; // stale entry
        }
        let s = AutState((key / n_nfa) as u32);
        let n = (key % n_nfa) as u32;
        if aut.is_final(s) && nfa.is_final(n) {
            break Some(key);
        }
        for &tid in aut.out_of(s) {
            let t = aut.transition(tid);
            let nw = w.extend(&t.weight);
            match t.label {
                TLabel::Eps => {
                    // ε: automaton moves, NFA stays.
                    let nk = node(t.to, n);
                    if best.get(&nk).is_none_or(|b| nw < *b) {
                        best.insert(nk, nw.clone());
                        pred.insert(nk, (key, tid, None));
                        heap.push(Reverse(HeapItem(nw, nk)));
                    }
                }
                TLabel::Sym(sym) => {
                    for e in nfa.edges_from(n) {
                        if !e.filter.matches(sym) {
                            continue;
                        }
                        let nk = node(t.to, e.to);
                        if best.get(&nk).is_none_or(|b| nw < *b) {
                            best.insert(nk, nw.clone());
                            pred.insert(nk, (key, tid, Some(sym)));
                            heap.push(Reverse(HeapItem(nw.clone(), nk)));
                        }
                    }
                }
                TLabel::Filter(fid) => {
                    let filter = aut.filter(fid);
                    for e in nfa.edges_from(n) {
                        let Some(sym) = filter.pick_common(&e.filter, n_symbols) else {
                            continue;
                        };
                        let nk = node(t.to, e.to);
                        if best.get(&nk).is_none_or(|b| nw < *b) {
                            best.insert(nk, nw.clone());
                            pred.insert(nk, (key, tid, Some(sym)));
                            heap.push(Reverse(HeapItem(nw.clone(), nk)));
                        }
                    }
                }
            }
        }
    };

    let Some(goal) = goal else {
        return Ok(None);
    };
    // Walk predecessors back to a start node.
    let mut rev: Vec<(TransId, Option<SymbolId>)> = Vec::new();
    let mut cur = goal;
    while let Some(&(prev, tid, sym)) = pred.get(&cur) {
        rev.push((tid, sym));
        cur = prev;
    }
    rev.reverse();
    let start = *origin
        .get(&cur)
        .expect("path reconstruction reached a non-start node without predecessor");
    let word: Vec<SymbolId> = rev.iter().filter_map(|&(_, s)| s).collect();
    let transitions: Vec<TransId> = rev.iter().map(|&(t, _)| t).collect();
    let weight = best.remove(&goal).expect("goal weight present");
    Ok(Some(AcceptedPath {
        start,
        transitions,
        word,
        weight,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::SymFilter;
    use crate::pautomaton::Provenance;
    use crate::semiring::MinTotal;

    fn sym(i: u32) -> SymbolId {
        SymbolId(i)
    }

    /// Automaton: state 0 (PDS p0) --a(w=2)--> f, state 1 (PDS p1) --a(w=1)--> f.
    fn two_start_automaton() -> PAutomaton<MinTotal> {
        let mut a = PAutomaton::<MinTotal>::with_sizes(2, 2);
        let f = a.add_state();
        a.set_final(f);
        a.insert_or_combine(
            AutState(0),
            TLabel::Sym(sym(0)),
            f,
            MinTotal(2),
            Provenance::Initial,
        );
        a.insert_or_combine(
            AutState(1),
            TLabel::Sym(sym(0)),
            f,
            MinTotal(1),
            Provenance::Initial,
        );
        a
    }

    #[test]
    fn picks_cheapest_start() {
        let aut = two_start_automaton();
        let nfa = StackNfa::single_word(&[sym(0)]);
        let starts = [(StateId(0), MinTotal(0)), (StateId(1), MinTotal(0))];
        let p = shortest_accepted(&aut, &starts, &nfa).expect("accepted");
        assert_eq!(p.start, StateId(1));
        assert_eq!(p.weight, MinTotal(1));
        assert_eq!(p.word, vec![sym(0)]);
    }

    #[test]
    fn start_offsets_influence_choice() {
        let aut = two_start_automaton();
        let nfa = StackNfa::single_word(&[sym(0)]);
        let starts = [(StateId(0), MinTotal(0)), (StateId(1), MinTotal(10))];
        let p = shortest_accepted(&aut, &starts, &nfa).expect("accepted");
        assert_eq!(p.start, StateId(0));
        assert_eq!(p.weight, MinTotal(2));
    }

    #[test]
    fn nfa_constrains_word() {
        let aut = two_start_automaton();
        let nfa = StackNfa::single_word(&[sym(1)]);
        let starts = [(StateId(0), MinTotal(0)), (StateId(1), MinTotal(0))];
        assert!(shortest_accepted(&aut, &starts, &nfa).is_none());
    }

    #[test]
    fn epsilon_transitions_traversed() {
        let mut a = PAutomaton::<MinTotal>::with_sizes(1, 1);
        let q = a.add_state();
        let f = a.add_state();
        a.set_final(f);
        a.insert_or_combine(
            AutState(0),
            TLabel::Eps,
            q,
            MinTotal(3),
            Provenance::Initial,
        );
        a.insert_or_combine(q, TLabel::Sym(sym(0)), f, MinTotal(4), Provenance::Initial);
        let nfa = StackNfa::universal();
        let p = shortest_accepted(&a, &[(StateId(0), MinTotal(0))], &nfa).expect("accepted");
        assert_eq!(p.weight, MinTotal(7));
        assert_eq!(p.word, vec![sym(0)]);
        assert_eq!(p.transitions.len(), 2);
    }

    #[test]
    fn filter_edges_respected() {
        let mut a = PAutomaton::<MinTotal>::with_sizes(1, 3);
        let f = a.add_state();
        a.set_final(f);
        a.insert_or_combine(
            AutState(0),
            TLabel::Sym(sym(2)),
            f,
            MinTotal(1),
            Provenance::Initial,
        );
        let mut nfa = StackNfa::new(2);
        nfa.add_initial(0);
        nfa.add_edge(0, SymFilter::NotIn([sym(2)].into_iter().collect()), 1);
        nfa.set_final(1);
        assert!(shortest_accepted(&a, &[(StateId(0), MinTotal(0))], &nfa).is_none());
    }

    #[test]
    fn filter_transition_commits_to_common_symbol() {
        // Automaton edge matches {1,2}; NFA edge matches {2,3}: the
        // reported word must be the concrete common symbol 2.
        let mut a = PAutomaton::<MinTotal>::with_sizes(1, 5);
        let f = a.add_state();
        a.set_final(f);
        let fid = a.add_filter(SymFilter::In([sym(1), sym(2)].into_iter().collect()));
        a.add_filter_edge(AutState(0), fid, f, MinTotal(1));
        let mut nfa = StackNfa::new(2);
        nfa.add_initial(0);
        nfa.add_edge(0, SymFilter::In([sym(2), sym(3)].into_iter().collect()), 1);
        nfa.set_final(1);
        let p = shortest_accepted(&a, &[(StateId(0), MinTotal(0))], &nfa).expect("accepted");
        assert_eq!(p.word, vec![sym(2)]);
    }

    #[test]
    fn budgeted_search_respects_expired_deadline() {
        use std::time::{Duration, Instant};
        let aut = two_start_automaton();
        let nfa = StackNfa::single_word(&[sym(0)]);
        let starts = [(StateId(0), MinTotal(0))];
        let budget = Budget::new().with_deadline(Instant::now() - Duration::from_millis(1));
        let err = shortest_accepted_budgeted(&aut, &starts, &nfa, &budget)
            .expect_err("expired deadline must abort the search");
        assert_eq!(err, AbortReason::DeadlineExceeded);
    }

    #[test]
    fn disjoint_filters_do_not_accept() {
        let mut a = PAutomaton::<MinTotal>::with_sizes(1, 5);
        let f = a.add_state();
        a.set_final(f);
        let fid = a.add_filter(SymFilter::In([sym(1)].into_iter().collect()));
        a.add_filter_edge(AutState(0), fid, f, MinTotal(1));
        let mut nfa = StackNfa::new(2);
        nfa.add_initial(0);
        nfa.add_edge(0, SymFilter::In([sym(2)].into_iter().collect()), 1);
        nfa.set_final(1);
        assert!(shortest_accepted(&a, &[(StateId(0), MinTotal(0))], &nfa).is_none());
    }
}

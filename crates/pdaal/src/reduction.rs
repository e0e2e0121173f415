//! Static reductions on pushdown systems.
//!
//! AalWiNes constructs its PDS by over-approximation and then shrinks it
//! with "a series of reductions based on static analysis that
//! over-approximates the possible top-of-stack symbols in every given
//! control state" before handing it to the solver. This module implements
//! two such passes:
//!
//! 1. **Forward top-of-stack analysis** ([`forward_heads`]): a fixed point
//!    over pairs `(state, top-symbol)` reachable from the heads of the
//!    initial configurations, together with a per-state over-approximation
//!    of the symbols that may occur *anywhere below* the top (needed to
//!    resolve what a pop exposes). Rules whose left-hand side head is
//!    unreachable can never fire and are dropped.
//! 2. **Backward state usefulness** ([`coreachable_states`]): control
//!    states from which no accepting control state is reachable in the
//!    rule graph are useless; rules targeting them are dropped.
//!
//! Both are over-approximations, so pruning with them preserves the exact
//! reachability relation and all run weights.

use crate::pautomaton::{PAutomaton, TLabel};
use crate::pds::{Pds, RuleId, RuleOp, StateId, SymbolId};
use crate::semiring::Weight;
use std::collections::{HashSet, VecDeque};

/// A possibly-universal set of stack symbols.
///
/// Filter edges in the initial automaton can stand for huge symbol
/// classes; materializing them per state would defeat the sparseness this
/// analysis needs. Large or complemented filters collapse to `All`
/// (a sound over-approximation).
#[derive(Clone, Debug)]
pub enum SymSet {
    /// Every symbol.
    All,
    /// Exactly the listed symbols.
    Set(HashSet<SymbolId>),
}

impl SymSet {
    fn empty() -> Self {
        SymSet::Set(HashSet::new())
    }

    fn contains(&self, g: SymbolId) -> bool {
        match self {
            SymSet::All => true,
            SymSet::Set(s) => s.contains(&g),
        }
    }

    /// Insert with a size cap: sets larger than `cap` collapse to `All`
    /// (a sound over-approximation that keeps the fixed point cheap on
    /// operator-scale label universes).
    fn insert_capped(&mut self, g: SymbolId, cap: usize) -> Grow {
        match self {
            SymSet::All => Grow::No,
            SymSet::Set(s) => {
                if s.insert(g) {
                    if s.len() > cap {
                        *self = SymSet::All;
                        Grow::All
                    } else {
                        Grow::Yes
                    }
                } else {
                    Grow::No
                }
            }
        }
    }

    /// Make universal.
    fn set_all(&mut self) -> Grow {
        match self {
            SymSet::All => Grow::No,
            SymSet::Set(_) => {
                *self = SymSet::All;
                Grow::All
            }
        }
    }
}

/// Outcome of a set mutation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Grow {
    /// Nothing changed.
    No,
    /// The set gained at least one element.
    Yes,
    /// The set collapsed to `All` (implies `Yes`).
    All,
}

impl Grow {
    fn grew(self) -> bool {
        !matches!(self, Grow::No)
    }
}

/// Union `src` into `dst` under a cap; the two indices must differ.
fn union_capped(sets: &mut [SymSet], src: usize, dst: usize, cap: usize) -> Grow {
    debug_assert_ne!(src, dst);
    let (a, b) = if src < dst {
        let (l, r) = sets.split_at_mut(dst);
        (&l[src], &mut r[0])
    } else {
        let (l, r) = sets.split_at_mut(src);
        (&r[0], &mut l[dst])
    };
    match a {
        SymSet::All => b.set_all(),
        SymSet::Set(items) => {
            if matches!(b, SymSet::All) {
                return Grow::No;
            }
            let mut grow = Grow::No;
            for &g in items.iter() {
                match b.insert_capped(g, cap) {
                    Grow::No => {}
                    Grow::Yes => {
                        if grow == Grow::No {
                            grow = Grow::Yes;
                        }
                    }
                    Grow::All => return Grow::All,
                }
            }
            grow
        }
    }
}

/// Size caps: beyond these the analysis stops tracking exact sets. Tops
/// get a generous cap (they drive rule pruning); below-sets a tight one
/// (they only feed pop handling and dominate the fixed point's cost).
const TOS_CAP: usize = 4096;
const BELOW_CAP: usize = 128;

/// Result of the forward top-of-stack analysis. All sets are sparse
/// (or collapsed to "all"): AalWiNes pairs very large state spaces with
/// very large alphabets, and reachable heads are a thin slice of the
/// product.
pub struct ForwardHeads {
    tos: Vec<SymSet>,
}

impl ForwardHeads {
    /// Whether `(state, sym)` may be a reachable head (i.e. `sym` on top
    /// of the stack while in `state`).
    pub fn head_reachable(&self, s: StateId, g: SymbolId) -> bool {
        self.tos[s.index()].contains(g)
    }
}

/// Threshold above which a filter's member set is approximated by
/// [`SymSet::All`] during seeding. Complemented filters (`Any`, `NotIn`)
/// always seed as `All`.
const FILTER_COLLAPSE: usize = 256;

/// A worklist item: a single freshly-reachable head, or "every head of
/// this state is (now) reachable".
#[derive(Clone, Copy, Debug)]
enum HeadItem {
    One(StateId, SymbolId),
    AllOf(StateId),
}

/// Compute the forward top-of-stack analysis of `pds` starting from the
/// configurations accepted by `initial`.
///
/// Seeds: for every transition `(p, l, q)` of `initial` with `p` a PDS
/// state, the symbols `l` can read enter `TOS(p)`; every symbol readable
/// strictly later on a path of `initial` from `q` is placed in
/// `BELOW(p)`.
pub fn forward_heads<W: Weight>(pds: &Pds<W>, initial: &PAutomaton<W>) -> ForwardHeads {
    let ns = pds.num_states() as usize;
    let mut tos: Vec<SymSet> = (0..ns).map(|_| SymSet::empty()).collect();
    let mut heads_of: Vec<Vec<SymbolId>> = vec![Vec::new(); ns];
    let mut below: Vec<SymSet> = (0..ns).map(|_| SymSet::empty()).collect();
    let mut work: VecDeque<HeadItem> = VecDeque::new();
    let mut below_dirty: VecDeque<StateId> = VecDeque::new();
    let mut dirty_flag: Vec<bool> = vec![false; ns];

    // What can a transition label read?
    let label_syms = |l: TLabel| -> Option<SymSet> {
        match l {
            TLabel::Eps => None,
            TLabel::Sym(g) => Some(SymSet::Set([g].into_iter().collect())),
            TLabel::Filter(fid) => {
                let filter = initial.filter(fid);
                Some(match (filter.member_count(), filter.members()) {
                    (Some(n), Some(members)) if n <= FILTER_COLLAPSE => {
                        SymSet::Set(members.collect())
                    }
                    _ => SymSet::All,
                })
            }
        }
    };

    // Seed from the initial automaton. First compute, per automaton
    // state, the set of symbols readable on some path from it (the
    // "suffix alphabet"), by a reverse fixed point.
    let n_aut = initial.num_states() as usize;
    let mut suffix: Vec<SymSet> = (0..n_aut).map(|_| SymSet::empty()).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for t in initial.transitions() {
            let Some(reads) = label_syms(t.label) else {
                continue;
            };
            let (fi, ti) = (t.from.index(), t.to.index());
            match &reads {
                SymSet::All => changed |= suffix[fi].set_all().grew(),
                SymSet::Set(items) => {
                    for &g in items {
                        changed |= suffix[fi].insert_capped(g, BELOW_CAP).grew();
                    }
                }
            }
            if fi != ti {
                changed |= union_capped(&mut suffix, ti, fi, BELOW_CAP).grew();
            }
        }
    }

    // Insert a head, maintaining the per-state index and worklist.
    macro_rules! add_head {
        ($p:expr, $g:expr) => {{
            match tos[$p.index()].insert_capped($g, TOS_CAP) {
                Grow::No => {}
                Grow::Yes => {
                    heads_of[$p.index()].push($g);
                    work.push_back(HeadItem::One($p, $g));
                }
                Grow::All => work.push_back(HeadItem::AllOf($p)),
            }
        }};
    }
    macro_rules! add_all_heads {
        ($p:expr) => {{
            if tos[$p.index()].set_all().grew() {
                work.push_back(HeadItem::AllOf($p));
            }
        }};
    }

    for t in initial.transitions() {
        let Some(reads) = label_syms(t.label) else {
            continue;
        };
        if !initial.is_pds_state(t.from) {
            continue;
        }
        let p = StateId(t.from.0);
        match &reads {
            SymSet::All => add_all_heads!(p),
            SymSet::Set(items) => {
                for &g in items.clone().iter() {
                    add_head!(p, g);
                }
            }
        }
        // BELOW(p) gains the suffix alphabet of the transition's target.
        let suf = std::mem::replace(&mut suffix[t.to.index()], SymSet::empty());
        let grew = match &suf {
            SymSet::All => below[p.index()].set_all().grew(),
            SymSet::Set(items) => {
                let mut grew = false;
                for &g in items {
                    grew |= below[p.index()].insert_capped(g, BELOW_CAP).grew();
                }
                grew
            }
        };
        suffix[t.to.index()] = suf;
        if grew && !dirty_flag[p.index()] {
            dirty_flag[p.index()] = true;
            below_dirty.push_back(p);
        }
    }

    // Fixed point. Processing a head (p, γ) fires every rule with that
    // left-hand side; AllOf(p) fires every rule from p (each rule's own
    // symbol is in TOS(p) = All by definition).
    loop {
        if let Some(item) = work.pop_front() {
            let (p, rids): (StateId, &[RuleId]) = match item {
                HeadItem::One(p, g) => (p, pds.rules_for(p, g)),
                HeadItem::AllOf(p) => (p, pds.rules_of_state(p)),
            };
            for &rid in rids {
                let r = pds.rule(rid);
                let extra = match r.op {
                    RuleOp::Swap(g2) => {
                        add_head!(r.to, g2);
                        None
                    }
                    RuleOp::Push(g1, g2) => {
                        add_head!(r.to, g1);
                        Some(g2)
                    }
                    RuleOp::Pop => {
                        // The exposed symbol is anything in BELOW(p).
                        match below[p.index()].clone() {
                            SymSet::All => add_all_heads!(r.to),
                            SymSet::Set(items) => {
                                for g2 in items {
                                    add_head!(r.to, g2);
                                }
                            }
                        }
                        None
                    }
                };
                // Flow BELOW(p) (plus any symbol buried by a push) onward.
                let mut grew = if p != r.to {
                    union_capped(&mut below, p.index(), r.to.index(), BELOW_CAP).grew()
                } else {
                    false
                };
                if let Some(g) = extra {
                    grew |= below[r.to.index()].insert_capped(g, BELOW_CAP).grew();
                }
                if grew && !dirty_flag[r.to.index()] {
                    dirty_flag[r.to.index()] = true;
                    below_dirty.push_back(r.to);
                }
            }
        } else if let Some(p) = below_dirty.pop_front() {
            dirty_flag[p.index()] = false;
            // BELOW(p) grew: re-fire every reachable head of p so pop
            // rules see the enlarged below-set, and flow it onward.
            match &tos[p.index()] {
                SymSet::All => work.push_back(HeadItem::AllOf(p)),
                SymSet::Set(_) => {
                    for &g in &heads_of[p.index()] {
                        work.push_back(HeadItem::One(p, g));
                    }
                }
            }
        } else {
            break;
        }
    }

    ForwardHeads { tos }
}

/// Control states that can reach some state in `accepting` in the rule
/// graph (ignoring stack contents — an over-approximation).
pub fn coreachable_states<W: Weight>(pds: &Pds<W>, accepting: &[StateId]) -> Vec<bool> {
    let n = pds.num_states() as usize;
    // Reverse adjacency.
    let mut radj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for r in pds.rules() {
        radj[r.to.index()].push(r.from.0);
    }
    let mut seen = vec![false; n];
    let mut work: VecDeque<u32> = VecDeque::new();
    for &a in accepting {
        if !seen[a.index()] {
            seen[a.index()] = true;
            work.push_back(a.0);
        }
    }
    while let Some(s) = work.pop_front() {
        for &p in &radj[s as usize] {
            if !seen[p as usize] {
                seen[p as usize] = true;
                work.push_back(p);
            }
        }
    }
    seen
}

/// Apply both reductions: drop rules whose head is not forward-reachable
/// and rules whose target state cannot reach an accepting state.
///
/// Returns the reduced PDS and the number of rules removed.
pub fn reduce<W: Weight>(
    pds: &Pds<W>,
    initial: &PAutomaton<W>,
    accepting: &[StateId],
) -> (Pds<W>, usize) {
    let heads = forward_heads(pds, initial);
    let co = coreachable_states(pds, accepting);
    let before = pds.num_rules();
    let reduced = pds.filter_rules(|r| heads.head_reachable(r.from, r.sym) && co[r.to.index()]);
    let removed = before - reduced.num_rules();
    (reduced, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pautomaton::AutState;
    use crate::poststar::post_star;
    use crate::semiring::Unweighted;

    fn sym(i: u32) -> SymbolId {
        SymbolId(i)
    }
    fn st(i: u32) -> StateId {
        StateId(i)
    }

    fn single_init(pds: &Pds<Unweighted>, p: StateId, word: &[SymbolId]) -> PAutomaton<Unweighted> {
        let mut a = PAutomaton::new(pds);
        let mut prev = AutState(p.0);
        for &s in word {
            let next = a.add_state();
            a.add_edge(prev, s, next, Unweighted);
            prev = next;
        }
        a.set_final(prev);
        a
    }

    #[test]
    fn unreachable_head_rules_are_dropped() {
        let mut pds = Pds::<Unweighted>::new(3, 3);
        let (a, b, c) = (sym(0), sym(1), sym(2));
        pds.add_rule(st(0), a, st(1), RuleOp::Swap(b), Unweighted, 0);
        // Never fires: symbol c never on top at p0.
        pds.add_rule(st(0), c, st(2), RuleOp::Swap(b), Unweighted, 1);
        let init = single_init(&pds, st(0), &[a]);
        let heads = forward_heads(&pds, &init);
        assert!(heads.head_reachable(st(0), a));
        assert!(heads.head_reachable(st(1), b));
        assert!(!heads.head_reachable(st(0), c));
        let (reduced, removed) = reduce(&pds, &init, &[st(0), st(1), st(2)]);
        assert_eq!(removed, 1);
        assert_eq!(reduced.num_rules(), 1);
    }

    #[test]
    fn pop_exposes_below_symbols() {
        let mut pds = Pds::<Unweighted>::new(2, 2);
        let (a, b) = (sym(0), sym(1));
        pds.add_rule(st(0), a, st(1), RuleOp::Pop, Unweighted, 0);
        // Fires only after the pop exposed b.
        pds.add_rule(st(1), b, st(1), RuleOp::Swap(b), Unweighted, 1);
        let init = single_init(&pds, st(0), &[a, b]);
        let heads = forward_heads(&pds, &init);
        assert!(heads.head_reachable(st(1), b));
        let (_, removed) = reduce(&pds, &init, &[st(0), st(1)]);
        assert_eq!(removed, 0);
    }

    #[test]
    fn pushed_below_symbol_tracked() {
        // push (b, c) at p0 puts c below; pop at p1 exposes c.
        let mut pds = Pds::<Unweighted>::new(3, 3);
        let (a, b, c) = (sym(0), sym(1), sym(2));
        pds.add_rule(st(0), a, st(1), RuleOp::Push(b, c), Unweighted, 0);
        pds.add_rule(st(1), b, st(2), RuleOp::Pop, Unweighted, 1);
        pds.add_rule(st(2), c, st(2), RuleOp::Swap(c), Unweighted, 2);
        let init = single_init(&pds, st(0), &[a]);
        let heads = forward_heads(&pds, &init);
        assert!(heads.head_reachable(st(2), c));
    }

    #[test]
    fn filter_seeds_are_exact_up_to_the_collapse_threshold() {
        use crate::nfa::{SymFilter, SymbolSet};
        let n = 2 * FILTER_COLLAPSE as u32 + 8;
        let pds = Pds::<Unweighted>::new(1, n);
        // `first_n(k)` shares its members the way a client's class does.
        let first_n = |k: u32| SymbolSet::from_sorted_ids((0..k).collect());
        let outside = sym(n - 1);
        let cap = FILTER_COLLAPSE as u32;
        let cases = [
            (SymFilter::In(first_n(cap)), true),
            (SymFilter::In(first_n(cap + 1)), false),
            (
                SymFilter::InExcept(first_n(cap + 2), [sym(0), sym(1)].into_iter().collect()),
                true,
            ),
            (
                SymFilter::InExcept(first_n(cap + 2), [sym(0)].into_iter().collect()),
                false,
            ),
            (SymFilter::NotIn(first_n(1)), false),
            (SymFilter::Any, false),
        ];
        for (filter, exact) in cases {
            let mut init = PAutomaton::new(&pds);
            let f = init.add_state();
            init.set_final(f);
            let fid = init.add_filter(filter.clone());
            init.add_filter_edge(AutState(0), fid, f, Unweighted);
            let heads = forward_heads(&pds, &init);
            let members: Vec<SymbolId> = match filter.members() {
                Some(m) => m.collect(),
                None => Vec::new(),
            };
            for &g in &members {
                assert!(heads.head_reachable(st(0), g), "{filter:?} seeds {g:?}");
            }
            // An exact seed holds members only; `All` holds everything.
            assert_eq!(
                heads.head_reachable(st(0), outside),
                !exact,
                "{} members",
                members.len()
            );
            if let SymFilter::InExcept(_, except) = &filter {
                for g in except.iter() {
                    assert_eq!(heads.head_reachable(st(0), g), !exact, "excluded {g:?}");
                }
            }
        }
    }

    #[test]
    fn useless_target_states_pruned() {
        let mut pds = Pds::<Unweighted>::new(3, 1);
        let a = sym(0);
        pds.add_rule(st(0), a, st(1), RuleOp::Swap(a), Unweighted, 0);
        pds.add_rule(st(0), a, st(2), RuleOp::Swap(a), Unweighted, 1);
        // Only p1 is accepting; p2 is a dead end.
        let co = coreachable_states(&pds, &[st(1)]);
        assert!(co[0] && co[1] && !co[2]);
        let init = single_init(&pds, st(0), &[a]);
        let (reduced, removed) = reduce(&pds, &init, &[st(1)]);
        assert_eq!(removed, 1);
        assert_eq!(reduced.num_rules(), 1);
    }

    #[test]
    fn reduction_preserves_reachability() {
        // Randomized-ish small PDS: compare post* acceptance before/after
        // reduction on a set of probe configurations.
        let mut pds = Pds::<Unweighted>::new(4, 3);
        let (a, b, c) = (sym(0), sym(1), sym(2));
        pds.add_rule(st(0), a, st(1), RuleOp::Push(b, a), Unweighted, 0);
        pds.add_rule(st(1), b, st(2), RuleOp::Swap(c), Unweighted, 1);
        pds.add_rule(st(2), c, st(3), RuleOp::Pop, Unweighted, 2);
        pds.add_rule(st(3), a, st(0), RuleOp::Swap(a), Unweighted, 3);
        pds.add_rule(st(2), b, st(0), RuleOp::Swap(a), Unweighted, 4); // dead head
        let init = single_init(&pds, st(0), &[a]);
        let (reduced, _) = reduce(&pds, &init, &[st(0), st(1), st(2), st(3)]);

        let sat_full = post_star(&pds, &init);
        let sat_red = post_star(&reduced, &single_init(&reduced, st(0), &[a]));
        let probes: Vec<(StateId, Vec<SymbolId>)> = vec![
            (st(0), vec![a]),
            (st(1), vec![b, a]),
            (st(2), vec![c, a]),
            (st(3), vec![a]),
            (st(0), vec![b, a]),
            (st(2), vec![b, a]),
        ];
        for (p, w) in probes {
            assert_eq!(
                sat_full.accepts(p, &w),
                sat_red.accepts(p, &w),
                "reduction changed reachability of <{p:?}, {w:?}>"
            );
        }
    }
}

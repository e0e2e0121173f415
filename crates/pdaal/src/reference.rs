//! Frozen reference implementation of `post*` saturation.
//!
//! This module preserves, verbatim in structure and cost profile, the
//! *pre-optimization* saturation code path: a SipHash-keyed
//! `(from, label, to) → TransId` triple map, rule indexes rebuilt from
//! scratch on every call, an un-deduplicated worklist, and per-pop
//! `to_vec()`/`clone()` snapshots. It exists for two reasons:
//!
//! 1. **Differential testing** — the dense-index implementation in
//!    [`crate::poststar`] must produce the same language, the same
//!    weights, and replayable witnesses. The harness in
//!    `tests/differential.rs` checks it against this module on hundreds
//!    of randomized systems.
//! 2. **Honest benchmarking** — `aalwines-bench` measures the speedup of
//!    the dense path against this module *in the same process and build*,
//!    so the before/after numbers in `BENCH_saturation.json` are
//!    reproducible from a single checkout.
//!
//! Do not "fix" or optimize this module; its value is that it stays
//! slow in exactly the ways the seed implementation was.

use crate::nfa::SymFilter;
use crate::pautomaton::{AutState, FilterId, PAutomaton, Provenance, TLabel, TransId, Transition};
use crate::pds::{Pds, RuleId, RuleOp, StateId, SymbolId};
use crate::poststar::SaturationStats;
use crate::semiring::Weight;
use std::collections::{HashMap, VecDeque};

/// A P-automaton with the original SipHash triple-map transition index.
///
/// Functionally equivalent to [`PAutomaton`]; only the index layout (and
/// thus the lookup cost) differs. Convert with
/// [`RefAutomaton::from_pautomaton`] / [`RefAutomaton::into_pautomaton`]
/// — both directions preserve [`TransId`]s, so provenance records remain
/// valid across the conversion.
pub struct RefAutomaton<W> {
    n_pds_states: u32,
    n_symbols: u32,
    n_states: u32,
    transitions: Vec<Transition<W>>,
    filters: Vec<SymFilter>,
    index: HashMap<(AutState, TLabel, AutState), TransId>,
    out: Vec<Vec<TransId>>,
    finals: Vec<bool>,
}

impl<W: Weight> RefAutomaton<W> {
    /// Copy a [`PAutomaton`] into the reference representation,
    /// preserving transition ids (transitions are re-indexed in id
    /// order; every triple is unique, so ids coincide).
    pub fn from_pautomaton(a: &PAutomaton<W>) -> Self {
        let mut r = RefAutomaton {
            n_pds_states: a.num_pds_states(),
            n_symbols: a.num_symbols(),
            n_states: a.num_states(),
            transitions: Vec::with_capacity(a.transitions().len()),
            filters: a.filters().to_vec(),
            index: HashMap::new(),
            out: vec![Vec::new(); a.num_states() as usize],
            finals: vec![false; a.num_states() as usize],
        };
        for f in a.final_states() {
            r.finals[f.index()] = true;
        }
        for t in a.transitions() {
            let id = TransId(r.transitions.len() as u32);
            r.index.insert((t.from, t.label, t.to), id);
            r.out[t.from.index()].push(id);
            r.transitions.push(t.clone());
        }
        r
    }

    /// Convert back into a dense-indexed [`PAutomaton`], preserving
    /// transition ids and provenance.
    pub fn into_pautomaton(self) -> PAutomaton<W> {
        let mut a = PAutomaton::with_sizes(self.n_pds_states, self.n_symbols);
        for f in &self.filters {
            a.add_filter(f.clone());
        }
        while a.num_states() < self.n_states {
            a.add_state();
        }
        for (i, fin) in self.finals.iter().enumerate() {
            if *fin {
                a.set_final(AutState(i as u32));
            }
        }
        for (i, t) in self.transitions.iter().enumerate() {
            let (id, fresh) = a.insert_or_combine(t.from, t.label, t.to, t.weight.clone(), t.prov);
            debug_assert!(fresh, "reference transitions have unique triples");
            debug_assert_eq!(id.index(), i, "conversion must preserve transition ids");
        }
        a
    }

    /// Number of automaton states.
    pub fn num_states(&self) -> u32 {
        self.n_states
    }

    /// All transitions, in creation order.
    pub fn transitions(&self) -> &[Transition<W>] {
        &self.transitions
    }

    fn is_pds_state(&self, s: AutState) -> bool {
        s.0 < self.n_pds_states
    }

    fn add_state(&mut self) -> AutState {
        let id = AutState(self.n_states);
        self.n_states += 1;
        self.out.push(Vec::new());
        self.finals.push(false);
        id
    }

    fn filter(&self, id: FilterId) -> &SymFilter {
        &self.filters[id.0 as usize]
    }

    fn transition(&self, id: TransId) -> &Transition<W> {
        &self.transitions[id.index()]
    }

    fn out_of(&self, s: AutState) -> &[TransId] {
        &self.out[s.index()]
    }

    /// The seed `insert_or_combine`: SipHash triple-map lookup, combine
    /// on hit, append on miss. Returns the id and whether the stored
    /// weight strictly improved.
    fn insert_or_combine(
        &mut self,
        from: AutState,
        label: TLabel,
        to: AutState,
        weight: W,
        prov: Provenance,
    ) -> (TransId, bool) {
        match self.index.get(&(from, label, to)) {
            Some(&id) => {
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
                self.index.insert((from, label, to), id);
                self.out[from.index()].push(id);
                (id, true)
            }
        }
    }
}

/// Seed-fidelity `post*`. Same fixpoint as
/// [`post_star`](crate::poststar::post_star); pre-optimization data
/// layout and allocation behavior.
pub fn post_star_ref<W: Weight>(
    pds: &Pds<W>,
    initial: &PAutomaton<W>,
) -> (RefAutomaton<W>, SaturationStats) {
    for t in initial.transitions() {
        assert!(t.label.reads(), "post*: input automaton must be ε-free");
        assert!(
            !initial.is_pds_state(t.to),
            "post*: input automaton must not have transitions into PDS states"
        );
    }

    let mut aut = RefAutomaton::from_pautomaton(initial);
    let mut stats = SaturationStats::default();

    // Per-call rule indexes, rebuilt from scratch (the seed behavior the
    // construction-time indexes of `Pds` now replace).
    let mut by_head: HashMap<(StateId, SymbolId), Vec<RuleId>> = HashMap::new();
    let mut rules_of_state: HashMap<StateId, Vec<RuleId>> = HashMap::new();
    for (i, r) in pds.rules().iter().enumerate() {
        let rid = RuleId(i as u32);
        by_head.entry((r.from, r.sym)).or_default().push(rid);
        rules_of_state.entry(r.from).or_default().push(rid);
    }

    let mut mid: HashMap<(StateId, SymbolId), AutState> = HashMap::new();
    let mut eps_into: HashMap<AutState, Vec<TransId>> = HashMap::new();
    let mut worklist: VecDeque<TransId> =
        (0..aut.transitions().len() as u32).map(TransId).collect();

    macro_rules! upd {
        ($from:expr, $label:expr, $to:expr, $w:expr, $prov:expr) => {{
            let label: TLabel = $label;
            let to: AutState = $to;
            let (tid, improved) = aut.insert_or_combine($from, label, to, $w, $prov);
            if improved {
                if !label.reads() {
                    let list = eps_into.entry(to).or_default();
                    if !list.contains(&tid) {
                        list.push(tid);
                    }
                }
                worklist.push_back(tid);
            }
        }};
    }

    macro_rules! fire {
        ($rid:expr, $tid:expr, $to:expr, $d:expr) => {{
            let rule = pds.rule($rid);
            let w = rule.weight.extend(&$d);
            match rule.op {
                RuleOp::Pop => {
                    upd!(
                        AutState(rule.to.0),
                        TLabel::Eps,
                        $to,
                        w,
                        Provenance::Pop {
                            rule: $rid,
                            from: $tid
                        }
                    );
                }
                RuleOp::Swap(g2) => {
                    upd!(
                        AutState(rule.to.0),
                        TLabel::Sym(g2),
                        $to,
                        w,
                        Provenance::Swap {
                            rule: $rid,
                            from: $tid
                        }
                    );
                }
                RuleOp::Push(g1, g2) => {
                    let m = *mid.entry((rule.to, g1)).or_insert_with(|| {
                        stats.mid_states += 1;
                        aut.add_state()
                    });
                    upd!(
                        AutState(rule.to.0),
                        TLabel::Sym(g1),
                        m,
                        W::one(),
                        Provenance::PushEntry { rule: $rid }
                    );
                    upd!(
                        m,
                        TLabel::Sym(g2),
                        $to,
                        w,
                        Provenance::PushRest {
                            rule: $rid,
                            from: $tid
                        }
                    );
                }
            }
        }};
    }

    while let Some(tid) = worklist.pop_front() {
        stats.worklist_pops += 1;
        let (from, label, to, d) = {
            let t = aut.transition(tid);
            (t.from, t.label, t.to, t.weight.clone())
        };
        match label {
            TLabel::Eps => {
                let succs: Vec<TransId> = aut.out_of(to).to_vec();
                for t2id in succs {
                    let (l2, to2, d2) = {
                        let t2 = aut.transition(t2id);
                        (t2.label, t2.to, t2.weight.clone())
                    };
                    if !l2.reads() {
                        continue;
                    }
                    let w = d.extend(&d2);
                    upd!(
                        from,
                        l2,
                        to2,
                        w,
                        Provenance::Combine {
                            eps: tid,
                            next: t2id
                        }
                    );
                }
            }
            _ if aut.is_pds_state(from) => {
                let p = StateId(from.0);
                match label {
                    TLabel::Sym(gamma) => {
                        if let Some(rules) = by_head.get(&(p, gamma)) {
                            for &rid in rules {
                                fire!(rid, tid, to, d);
                            }
                        }
                    }
                    TLabel::Filter(f) => {
                        if let Some(rules) = rules_of_state.get(&p) {
                            for &rid in rules {
                                let sym = pds.rule(rid).sym;
                                if aut.filter(f).matches(sym) {
                                    fire!(rid, tid, to, d);
                                }
                            }
                        }
                    }
                    TLabel::Eps => unreachable!("handled above"),
                }
            }
            _ => {
                if let Some(eps) = eps_into.get(&from) {
                    let eps: Vec<TransId> = eps.clone();
                    for e in eps {
                        let (esrc, ew) = {
                            let et = aut.transition(e);
                            (et.from, et.weight.clone())
                        };
                        let w = ew.extend(&d);
                        upd!(
                            esrc,
                            label,
                            to,
                            w,
                            Provenance::Combine { eps: e, next: tid }
                        );
                    }
                }
            }
        }
    }

    stats.transitions = aut.transitions().len();
    (aut, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{MinTotal, Unweighted};

    fn sym(i: u32) -> SymbolId {
        SymbolId(i)
    }
    fn st(i: u32) -> StateId {
        StateId(i)
    }

    fn single_config<W: Weight>(pds: &Pds<W>, p: StateId, word: &[SymbolId]) -> PAutomaton<W> {
        let mut a = PAutomaton::new(pds);
        let mut prev = AutState(p.0);
        for &s in word {
            let next = a.add_state();
            a.add_edge(prev, s, next, W::one());
            prev = next;
        }
        a.set_final(prev);
        a
    }

    #[test]
    fn reference_poststar_matches_dense_on_classic() {
        let mut pds = Pds::<Unweighted>::new(3, 3);
        let (a, b, c) = (sym(0), sym(1), sym(2));
        pds.add_rule(st(0), a, st(1), RuleOp::Push(b, a), Unweighted, 0);
        pds.add_rule(st(1), b, st(2), RuleOp::Swap(c), Unweighted, 1);
        pds.add_rule(st(2), c, st(0), RuleOp::Pop, Unweighted, 2);
        pds.add_rule(st(0), a, st(0), RuleOp::Pop, Unweighted, 3);
        let init = single_config(&pds, st(0), &[a]);
        let (r, _) = post_star_ref(&pds, &init);
        let sat = r.into_pautomaton();
        assert!(sat.accepts(st(1), &[b, a]));
        assert!(sat.accepts(st(2), &[c, a]));
        assert!(sat.accepts(st(0), &[]));
        assert!(!sat.accepts(st(1), &[a]));
    }

    #[test]
    fn roundtrip_conversion_preserves_ids_and_provenance() {
        let mut pds = Pds::<MinTotal>::new(2, 2);
        let (a, b) = (sym(0), sym(1));
        pds.add_rule(st(0), a, st(1), RuleOp::Push(b, a), MinTotal(1), 0);
        pds.add_rule(st(1), b, st(0), RuleOp::Pop, MinTotal(1), 1);
        let init = single_config(&pds, st(0), &[a]);
        let (r, _) = post_star_ref(&pds, &init);
        let n = r.transitions().len();
        let kept: Vec<_> = r
            .transitions()
            .iter()
            .map(|t| (t.from, t.label, t.to, t.weight, t.prov))
            .collect();
        let p = r.into_pautomaton();
        assert_eq!(p.transitions().len(), n);
        for (i, (from, label, to, w, prov)) in kept.into_iter().enumerate() {
            let t = p.transition(TransId(i as u32));
            assert_eq!((t.from, t.label, t.to), (from, label, to));
            assert_eq!(t.weight, w);
            assert_eq!(t.prov, prov);
        }
    }
}

//! Reconstruction of concrete witness runs from saturation provenance.
//!
//! A successful `post*` query tells us *that* some target configuration is
//! reachable; AalWiNes additionally needs the *run* — the sequence of PDS
//! rules — so it can lift it back to an MPLS network trace. Every
//! transition of the saturated automaton records how its currently-best
//! weight was derived ([`Provenance`]); unwinding these records backwards
//! from an accepting path yields a run, following Schwoon's witness
//! generation scheme.
//!
//! Because the automaton may contain *filter* transitions (symbol-class
//! edges), the unwinding threads a concrete stack word alongside the
//! transition path: each reverse rule application rewrites the word
//! prefix (a swap restores the consumed symbol, a pop re-inserts it, a
//! push collapses the two pushed symbols back into the consumed one).
//! When the unwinding reaches input transitions, the word *is* the
//! initial stack — concrete even where the path reads filter edges.
//!
//! The central invariant making the unwinding terminate is that provenance
//! is only ever replaced on a *strict* weight improvement, so provenance
//! edges always point to derivations that were at least as cheap at
//! recording time; chains cannot cycle. A generous step limit guards
//! against violations of that invariant (which would indicate a bug, not a
//! property of the input).
//!
//! This invariant lives entirely in
//! [`PAutomaton::insert_or_combine`](crate::pautomaton::PAutomaton::insert_or_combine)
//! and is independent of how transitions are *indexed*: the dense
//! per-state adjacency index and the worklist dedup of the saturation
//! procedures change lookup cost and pop order, never which weight wins
//! or which provenance is recorded for it (see DESIGN.md "Saturation
//! data layout"). The differential harness replays witnesses from both
//! the dense and the [reference](crate::reference) saturation paths to
//! pin this down.

use crate::pautomaton::{PAutomaton, Provenance, TransId};
use crate::pds::{Pds, RuleId, RuleOp, StateId, SymbolId};
use crate::semiring::Weight;

/// Errors during witness reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessError {
    /// The unwinding exceeded the safety step limit — indicates corrupted
    /// provenance (an internal invariant violation).
    StepLimit,
    /// The accepting path was malformed (e.g. a push mid-state entry not
    /// followed by a mid-state continuation).
    MalformedPath(&'static str),
}

impl std::fmt::Display for WitnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WitnessError::StepLimit => write!(f, "witness unwinding exceeded step limit"),
            WitnessError::MalformedPath(m) => write!(f, "malformed accepting path: {m}"),
        }
    }
}

impl std::error::Error for WitnessError {}

/// A reconstructed run of the PDS.
#[derive(Debug, Clone)]
pub struct Run {
    /// Control state of the initial configuration.
    pub start_state: StateId,
    /// Stack of the initial configuration (top first).
    pub start_stack: Vec<SymbolId>,
    /// The rules fired, in execution order.
    pub rules: Vec<RuleId>,
}

const STEP_LIMIT: usize = 10_000_000;

/// Reconstruct a run from an accepting path of a `post*`-saturated
/// automaton.
///
/// `path` and `word` come from [`crate::shortest::shortest_accepted`]:
/// the transition sequence accepting the target configuration and the
/// concrete stack word it reads (one symbol per reading transition).
/// Returns the initial configuration the run starts from and the rules in
/// execution order.
pub fn reconstruct_run<W: Weight>(
    pds: &Pds<W>,
    aut: &PAutomaton<W>,
    path: &[TransId],
    word: &[SymbolId],
) -> Result<Run, WitnessError> {
    let n_reads = path
        .iter()
        .filter(|&&t| aut.transition(t).label.reads())
        .count();
    if n_reads != word.len() {
        return Err(WitnessError::MalformedPath(
            "word length does not match number of reading transitions",
        ));
    }

    let mut path: Vec<TransId> = path.to_vec();
    let mut word: Vec<SymbolId> = word.to_vec();
    let mut rules_rev: Vec<RuleId> = Vec::new();
    let mut steps = 0usize;

    loop {
        steps += 1;
        if steps > STEP_LIMIT {
            return Err(WitnessError::StepLimit);
        }
        let Some(&head) = path.first() else {
            return Err(WitnessError::MalformedPath(
                "empty accepting path cannot be unwound without a start state",
            ));
        };
        let t = aut.transition(head);
        match t.prov {
            Provenance::Initial => {
                // Heads of derivations always sit at the front; once the
                // front is an input transition the whole remaining path is
                // from the input automaton (see module docs of poststar).
                let start_state = StateId(t.from.0);
                rules_rev.reverse();
                return Ok(Run {
                    start_state,
                    start_stack: word,
                    rules: rules_rev,
                });
            }
            Provenance::Swap { rule, from } => {
                // head reads word[0] (the swapped-in symbol); the
                // predecessor transition read the rule's consumed symbol.
                rules_rev.push(rule);
                path[0] = from;
                word[0] = pds.rule(rule).sym;
            }
            Provenance::Pop { rule, from } => {
                // head is (p', ε, q): reads nothing; predecessor read the
                // popped symbol.
                rules_rev.push(rule);
                path[0] = from;
                word.insert(0, pds.rule(rule).sym);
            }
            Provenance::PushEntry { .. } => {
                // (p, γ₁, m) must be followed by (m, γ₂, q) whose
                // provenance names the push rule and the source transition.
                let Some(&second) = path.get(1) else {
                    return Err(WitnessError::MalformedPath(
                        "push entry transition at end of path",
                    ));
                };
                let t2 = aut.transition(second);
                match t2.prov {
                    Provenance::PushRest { rule, from } => {
                        debug_assert!(matches!(pds.rule(rule).op, RuleOp::Push(..)));
                        rules_rev.push(rule);
                        path.splice(0..2, [from]);
                        word.splice(0..2, [pds.rule(rule).sym]);
                    }
                    _ => {
                        return Err(WitnessError::MalformedPath(
                            "push entry not followed by push continuation",
                        ))
                    }
                }
            }
            Provenance::PushRest { .. } => {
                return Err(WitnessError::MalformedPath(
                    "push continuation at head of path",
                ))
            }
            Provenance::Combine { eps, next } => {
                // Same symbols read (ε reads nothing, next reads word[0]).
                path.splice(0..1, [eps, next]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::{StackNfa, SymFilter};
    use crate::pautomaton::AutState;
    use crate::poststar::post_star;
    use crate::semiring::{MinTotal, Unweighted};
    use crate::shortest::shortest_accepted;

    fn sym(i: u32) -> SymbolId {
        SymbolId(i)
    }
    fn st(i: u32) -> StateId {
        StateId(i)
    }

    /// Execute a run on the PDS and return the final configuration.
    fn execute<W: Weight>(
        pds: &Pds<W>,
        start: StateId,
        stack: &[SymbolId],
        rules: &[RuleId],
    ) -> Option<(StateId, Vec<SymbolId>)> {
        let mut state = start;
        let mut stk: Vec<SymbolId> = stack.to_vec(); // top at index 0
        for &rid in rules {
            let r = pds.rule(rid);
            if r.from != state || stk.first() != Some(&r.sym) {
                return None;
            }
            state = r.to;
            match r.op {
                RuleOp::Pop => {
                    stk.remove(0);
                }
                RuleOp::Swap(g) => stk[0] = g,
                RuleOp::Push(g1, g2) => {
                    stk[0] = g2;
                    stk.insert(0, g1);
                }
            }
        }
        Some((state, stk))
    }

    fn initial_single<W: Weight>(pds: &Pds<W>, p: StateId, word: &[SymbolId]) -> PAutomaton<W> {
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
    fn poststar_witness_executes() {
        let mut pds = Pds::<Unweighted>::new(3, 3);
        let (a, b, c) = (sym(0), sym(1), sym(2));
        pds.add_rule(st(0), a, st(1), RuleOp::Push(b, a), Unweighted, 0);
        pds.add_rule(st(1), b, st(2), RuleOp::Swap(c), Unweighted, 1);
        pds.add_rule(st(2), c, st(0), RuleOp::Pop, Unweighted, 2);

        let init = initial_single(&pds, st(0), &[a]);
        let sat = post_star(&pds, &init);

        let nfa = StackNfa::single_word(&[c, a]);
        let p = shortest_accepted(&sat, &[(st(2), Unweighted)], &nfa).expect("reachable");
        let run = reconstruct_run(&pds, &sat, &p.transitions, &p.word).expect("witness");
        assert_eq!(run.start_state, st(0));
        assert_eq!(run.start_stack, vec![a]);
        let (fs, fstk) =
            execute(&pds, run.start_state, &run.start_stack, &run.rules).expect("run executes");
        assert_eq!(fs, st(2));
        assert_eq!(fstk, vec![c, a]);
    }

    #[test]
    fn poststar_witness_through_pop() {
        let mut pds = Pds::<Unweighted>::new(3, 3);
        let (a, b, c) = (sym(0), sym(1), sym(2));
        pds.add_rule(st(0), a, st(1), RuleOp::Push(b, a), Unweighted, 0);
        pds.add_rule(st(1), b, st(2), RuleOp::Pop, Unweighted, 1);
        pds.add_rule(st(2), a, st(2), RuleOp::Swap(c), Unweighted, 2);

        let init = initial_single(&pds, st(0), &[a]);
        let sat = post_star(&pds, &init);
        let nfa = StackNfa::single_word(&[c]);
        let p = shortest_accepted(&sat, &[(st(2), Unweighted)], &nfa).expect("reachable");
        let run = reconstruct_run(&pds, &sat, &p.transitions, &p.word).expect("witness");
        let (fs, fstk) = execute(&pds, run.start_state, &run.start_stack, &run.rules).unwrap();
        assert_eq!(fs, st(2));
        assert_eq!(fstk, vec![c]);
        assert_eq!(run.rules.len(), 3);
    }

    #[test]
    fn weighted_witness_is_minimal() {
        let mut pds = Pds::<MinTotal>::new(3, 3);
        let (a, b, g) = (sym(0), sym(1), sym(2));
        let _exp = pds.add_rule(st(0), a, st(2), RuleOp::Swap(g), MinTotal(10), 0);
        let r1 = pds.add_rule(st(0), a, st(1), RuleOp::Swap(b), MinTotal(1), 1);
        let r2 = pds.add_rule(st(1), b, st(2), RuleOp::Swap(g), MinTotal(1), 2);

        let init = initial_single(&pds, st(0), &[a]);
        let sat = post_star(&pds, &init);
        let nfa = StackNfa::single_word(&[g]);
        let p = shortest_accepted(&sat, &[(st(2), MinTotal(0))], &nfa).expect("reachable");
        assert_eq!(p.weight, MinTotal(2));
        let run = reconstruct_run(&pds, &sat, &p.transitions, &p.word).expect("witness");
        assert_eq!(run.rules, vec![r1, r2]);
    }

    #[test]
    fn witness_through_filter_start_is_concrete() {
        // Initial configs: <p0, X y> for any X in {a, b} via a filter
        // edge. Rule <p0, b> -> <p1, swap c>. The witness start stack
        // must be the concrete [b, y].
        let mut pds = Pds::<Unweighted>::new(2, 4);
        let (a, b, c, y) = (sym(0), sym(1), sym(2), sym(3));
        pds.add_rule(st(0), b, st(1), RuleOp::Swap(c), Unweighted, 0);

        let mut init = PAutomaton::<Unweighted>::new(&pds);
        let q = init.add_state();
        let f = init.add_state();
        init.set_final(f);
        let fid = init.add_filter(SymFilter::In([a, b].into_iter().collect()));
        init.add_filter_edge(AutState(0), fid, q, Unweighted);
        init.add_edge(q, y, f, Unweighted);

        let sat = post_star(&pds, &init);
        let nfa = StackNfa::single_word(&[c, y]);
        let p = shortest_accepted(&sat, &[(st(1), Unweighted)], &nfa).expect("reachable");
        let run = reconstruct_run(&pds, &sat, &p.transitions, &p.word).expect("witness");
        assert_eq!(run.start_state, st(0));
        assert_eq!(run.start_stack, vec![b, y]);
        let (fs, fstk) = execute(&pds, run.start_state, &run.start_stack, &run.rules).unwrap();
        assert_eq!(fs, st(1));
        assert_eq!(fstk, vec![c, y]);
    }
}

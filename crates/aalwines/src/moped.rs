//! The Moped baseline engine.
//!
//! The paper compares AalWiNes' own solver against the Moped pushdown
//! model checker used as a drop-in backend inside the same pipeline
//! (construction → reductions → solver → trace validation). Moped is
//! closed-world for us, so this module models the *structural* costs of
//! that backend honestly instead of calling it:
//!
//! 1. **No symbolic labels** — Moped's input format has no wildcard/class
//!    edges, so the initial automaton's filter transitions are expanded
//!    into one concrete transition per matching label
//!    ([`expand_filters`]). On class-heavy header constraints (`ip`,
//!    `smpls`…) this is the dominating cost, and it is exactly the cost
//!    the original tool pays when translating for Moped.
//! 2. **External-process boundary** — the PDS and automaton are
//!    serialized to Moped's text format and parsed back
//!    ([`serialize_pds`]/[`parse_pds`]), as the real pipeline writes
//!    `.pds` files and forks the checker for every query.
//! 3. The solver itself is classic unweighted `post*` (which is also what
//!    Moped implements); no weighted search is available — matching the
//!    paper's note that Moped cannot handle weighted pushdown automata.
//!
//! The dual over/under refinement and trace validation are shared with
//! the main engine, mirroring Figure 3 where the engines are
//! interchangeable backends.

use crate::cache::Footprint;
use crate::construction::NetworkPrecomp;
use crate::engine::{Answer, DualFlow, Engine, EngineStats, Outcome, PhaseSpec, VerifyOptions};
use netmodel::Network;
use pdaal::pautomaton::Provenance;
use pdaal::poststar::SaturationStats;
use pdaal::{AutState, PAutomaton, Pds, RuleOp, StateId, SymbolId, TLabel, TransId, Unweighted};
use query::{CompiledQuery, Query};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Expand filter transitions into concrete per-symbol transitions, as
/// required by Moped's explicit input format.
pub fn expand_filters(aut: &PAutomaton<Unweighted>) -> PAutomaton<Unweighted> {
    let mut out = PAutomaton::with_sizes(aut.num_pds_states(), aut.num_symbols());
    while out.num_states() < aut.num_states() {
        out.add_state();
    }
    for s in 0..aut.num_states() {
        let s = pdaal::AutState(s);
        if aut.is_final(s) {
            out.set_final(s);
        }
    }
    for t in aut.transitions() {
        match t.label {
            TLabel::Sym(sym) => {
                out.add_edge(t.from, sym, t.to, Unweighted);
            }
            TLabel::Filter(fid) => {
                let filter = aut.filter(fid);
                for i in 0..aut.num_symbols() {
                    let sym = SymbolId(i);
                    if filter.matches(sym) {
                        out.add_edge(t.from, sym, t.to, Unweighted);
                    }
                }
            }
            TLabel::Eps => panic!("initial automata are ε-free"),
        }
    }
    out
}

/// Serialize a PDS in (a tagged superset of) Moped's `.pds` text format:
/// one line `(p) <g> --> (q) <w> # tag` per rule.
pub fn serialize_pds(pds: &Pds<Unweighted>) -> String {
    let mut out = String::with_capacity(pds.num_rules() * 32);
    out.push_str(&format!(
        "# states {} symbols {}\n",
        pds.num_states(),
        pds.num_symbols()
    ));
    for r in pds.rules() {
        let rhs = match r.op {
            RuleOp::Pop => String::new(),
            RuleOp::Swap(g) => format!("g{}", g.0),
            RuleOp::Push(g1, g2) => format!("g{} g{}", g1.0, g2.0),
        };
        out.push_str(&format!(
            "(p{}) <g{}> --> (p{}) <{}> # {}\n",
            r.from.0, r.sym.0, r.to.0, rhs, r.tag
        ));
    }
    out
}

/// Parse the output of [`serialize_pds`] back into a PDS, modelling the
/// checker's input parsing.
pub fn parse_pds(text: &str) -> Pds<Unweighted> {
    let mut lines = text.lines();
    let header = lines.next().expect("header line");
    let mut parts = header.split_whitespace();
    assert_eq!(parts.next(), Some("#"));
    assert_eq!(parts.next(), Some("states"));
    let n_states: u32 = parts.next().unwrap().parse().unwrap();
    assert_eq!(parts.next(), Some("symbols"));
    let n_symbols: u32 = parts.next().unwrap().parse().unwrap();
    let mut pds = Pds::new(n_states, n_symbols);

    let state = |tok: &str| -> StateId {
        StateId(
            tok.trim_start_matches("(p")
                .trim_end_matches(')')
                .parse()
                .expect("state token"),
        )
    };
    let symbol = |tok: &str| -> SymbolId {
        SymbolId(
            tok.trim_start_matches("<g")
                .trim_start_matches('g')
                .trim_end_matches('>')
                .parse()
                .expect("symbol token"),
        )
    };
    for line in lines {
        let (rule_part, tag_part) = line.split_once(" # ").expect("tag suffix");
        let tag: u64 = tag_part.parse().expect("tag");
        let (lhs, rhs) = rule_part.split_once(" --> ").expect("arrow");
        let mut l = lhs.split_whitespace();
        let from = state(l.next().unwrap());
        let sym = symbol(l.next().unwrap());
        let mut r = rhs.split_whitespace();
        let to = state(r.next().unwrap());
        let rest: Vec<&str> = rhs
            .split_once('<')
            .unwrap()
            .1
            .trim_end_matches('>')
            .split_whitespace()
            .collect();
        let _ = r;
        let op = match rest.len() {
            0 => RuleOp::Pop,
            1 => RuleOp::Swap(symbol(rest[0])),
            2 => RuleOp::Push(symbol(rest[0]), symbol(rest[1])),
            n => panic!("rule writes {n} symbols"),
        };
        pds.add_rule(from, sym, to, op, Unweighted, tag);
    }
    pds
}

/// Classic (textbook) unweighted `post*` saturation, as published by
/// Schwoon and as implemented by general-purpose checkers like Moped:
/// correct, but without the incremental ε-target index the AalWiNes
/// engine maintains — ε-composition scans the global ε-transition list,
/// which is where the baseline loses ground on large instances.
///
/// Input must be filter-free (use [`expand_filters`] first).
pub fn classic_post_star(
    pds: &Pds<Unweighted>,
    initial: &PAutomaton<Unweighted>,
) -> PAutomaton<Unweighted> {
    for t in initial.transitions() {
        assert!(
            matches!(t.label, TLabel::Sym(_)),
            "classic post*: expanded, ε-free input required"
        );
        assert!(!initial.is_pds_state(t.to));
    }
    let mut aut = initial.clone();
    let mut mid: std::collections::HashMap<(StateId, SymbolId), AutState> =
        std::collections::HashMap::new();
    // The global ε list — scanned linearly, per the published algorithm.
    let mut eps_list: Vec<TransId> = Vec::new();
    let mut worklist: VecDeque<TransId> = (0..initial.transitions().len() as u32)
        .map(TransId)
        .collect();

    while let Some(tid) = worklist.pop_front() {
        let (from, label, to) = {
            let t = aut.transition(tid);
            (t.from, t.label, t.to)
        };
        match label {
            TLabel::Sym(gamma) => {
                if aut.is_pds_state(from) {
                    let p = StateId(from.0);
                    for &rid in pds.rules_for(p, gamma) {
                        let rule = pds.rule(rid);
                        match rule.op {
                            RuleOp::Pop => {
                                let (e, fresh) = aut.insert_or_combine(
                                    AutState(rule.to.0),
                                    TLabel::Eps,
                                    to,
                                    Unweighted,
                                    Provenance::Pop {
                                        rule: rid,
                                        from: tid,
                                    },
                                );
                                if fresh {
                                    eps_list.push(e);
                                    worklist.push_back(e);
                                }
                            }
                            RuleOp::Swap(g2) => {
                                let (e, fresh) = aut.insert_or_combine(
                                    AutState(rule.to.0),
                                    TLabel::Sym(g2),
                                    to,
                                    Unweighted,
                                    Provenance::Swap {
                                        rule: rid,
                                        from: tid,
                                    },
                                );
                                if fresh {
                                    worklist.push_back(e);
                                }
                            }
                            RuleOp::Push(g1, g2) => {
                                let m =
                                    *mid.entry((rule.to, g1)).or_insert_with(|| aut.add_state());
                                let (e1, fresh1) = aut.insert_or_combine(
                                    AutState(rule.to.0),
                                    TLabel::Sym(g1),
                                    m,
                                    Unweighted,
                                    Provenance::PushEntry { rule: rid },
                                );
                                if fresh1 {
                                    worklist.push_back(e1);
                                }
                                let (e2, fresh2) = aut.insert_or_combine(
                                    m,
                                    TLabel::Sym(g2),
                                    to,
                                    Unweighted,
                                    Provenance::PushRest {
                                        rule: rid,
                                        from: tid,
                                    },
                                );
                                if fresh2 {
                                    worklist.push_back(e2);
                                }
                            }
                        }
                    }
                } else {
                    // Scan the whole ε list for predecessors of `from`.
                    for &e in eps_list.iter() {
                        let (esrc, etgt) = {
                            let et = aut.transition(e);
                            (et.from, et.to)
                        };
                        if etgt != from {
                            continue;
                        }
                        let (t2, fresh) = aut.insert_or_combine(
                            esrc,
                            TLabel::Sym(gamma),
                            to,
                            Unweighted,
                            Provenance::Combine { eps: e, next: tid },
                        );
                        if fresh {
                            worklist.push_back(t2);
                        }
                    }
                }
            }
            TLabel::Eps => {
                let succs: Vec<TransId> = aut.out_of(to).to_vec();
                for t2id in succs {
                    let (l2, to2) = {
                        let t2 = aut.transition(t2id);
                        (t2.label, t2.to)
                    };
                    let TLabel::Sym(g2) = l2 else { continue };
                    let (t3, fresh) = aut.insert_or_combine(
                        from,
                        TLabel::Sym(g2),
                        to2,
                        Unweighted,
                        Provenance::Combine {
                            eps: tid,
                            next: t2id,
                        },
                    );
                    if fresh {
                        worklist.push_back(t3);
                    }
                }
            }
            TLabel::Filter(_) => unreachable!("checked above"),
        }
    }
    aut
}

/// Verify a query with the Moped-style backend (unweighted only).
pub fn verify_moped(net: &Network, q: &Query) -> Answer {
    MopedEngine::new(net).verify(q, &VerifyOptions::new())
}

/// The Moped-style baseline as an [`Engine`], so the CLI and
/// [`Session`](crate::session::Session) can dispatch over backends
/// uniformly.
///
/// The dual flow, construction, reduction, shortest-trace search and
/// trace validation are the dual engine's own (and poll the budget where
/// it does); only the saturation step differs, and it is deliberately
/// left as-is — it is the baseline being measured — so deadlines and
/// cancellation are not polled inside it and transition budgets are not
/// enforced. Weight specifications are ignored; the baseline is
/// unweighted.
pub struct MopedEngine<'a> {
    net: &'a Network,
    validation_issues: usize,
    /// Query-independent construction tables, built once per engine and
    /// shared by both approximation phases of every query. Building a
    /// fresh precomp inside each phase was the `engine/moped` bench
    /// regression: two full-network precomputations per query.
    precomp: Arc<NetworkPrecomp>,
}

impl<'a> MopedEngine<'a> {
    /// A Moped-style engine for `net`. Runs [`Network::validate`] and
    /// [`NetworkPrecomp::new`] once so every query reuses them.
    pub fn new(net: &'a Network) -> Self {
        MopedEngine {
            net,
            validation_issues: net.validate().len(),
            precomp: Arc::new(NetworkPrecomp::new(net)),
        }
    }

    /// Assemble from warm state without re-running validation or
    /// precomputation (used by the resident
    /// [`Session`](crate::session::Session), which keeps both across
    /// calls).
    pub(crate) fn from_parts(
        net: &'a Network,
        precomp: Arc<NetworkPrecomp>,
        validation_issues: usize,
    ) -> Self {
        MopedEngine {
            net,
            validation_issues,
            precomp,
        }
    }
}

impl Engine for MopedEngine<'_> {
    fn name(&self) -> &'static str {
        "moped"
    }

    fn network(&self) -> &Network {
        self.net
    }

    fn verify_compiled(&self, cq: &CompiledQuery, opts: &VerifyOptions) -> Answer {
        let t_start = Instant::now();
        let mut stats = EngineStats::new();
        stats.validation_issues = self.validation_issues;
        let budget = opts.budget();
        let flow = DualFlow {
            net: self.net,
            pre: &self.precomp,
            cq,
            budget: &budget,
        };
        // The Moped boundary: file round-trip + explicit expansion + the
        // classic (unindexed) saturation; unguided in both phases.
        let spec = PhaseSpec {
            weigh: &|_| Unweighted,
            weight_vec: &|_| None,
            saturate: &|pds, initial, _| {
                let pds = parse_pds(&serialize_pds(pds));
                let sat = classic_post_star(&pds, &expand_filters(initial));
                let stats = SaturationStats {
                    transitions: sat.transitions().len(),
                    ..SaturationStats::default()
                };
                Ok((sat, stats))
            },
        };
        let outcome = flow.run(&spec, &spec, &mut stats, &mut Footprint::new());
        stats.t_total = t_start.elapsed();
        match outcome {
            Outcome::Aborted(reason) => Answer::aborted(reason, stats),
            outcome => Answer::new(outcome, stats),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdaal::Weight;

    #[test]
    fn pds_serialization_round_trips() {
        let mut pds = Pds::<Unweighted>::new(3, 4);
        pds.add_rule(
            StateId(0),
            SymbolId(1),
            StateId(2),
            RuleOp::Pop,
            Unweighted,
            5,
        );
        pds.add_rule(
            StateId(1),
            SymbolId(0),
            StateId(0),
            RuleOp::Swap(SymbolId(3)),
            Unweighted,
            0,
        );
        pds.add_rule(
            StateId(2),
            SymbolId(2),
            StateId(1),
            RuleOp::Push(SymbolId(1), SymbolId(2)),
            Unweighted,
            9,
        );
        let parsed = parse_pds(&serialize_pds(&pds));
        assert_eq!(parsed.num_states(), 3);
        assert_eq!(parsed.num_symbols(), 4);
        assert_eq!(parsed.num_rules(), 3);
        for (a, b) in pds.rules().iter().zip(parsed.rules()) {
            assert_eq!(a.from, b.from);
            assert_eq!(a.sym, b.sym);
            assert_eq!(a.to, b.to);
            assert_eq!(a.op, b.op);
            assert_eq!(a.tag, b.tag);
        }
    }

    #[test]
    fn classic_poststar_agrees_with_optimized() {
        use detrand::DetRng;
        use pdaal::poststar::post_star;
        let mut rng = DetRng::seed_from_u64(99);
        for round in 0..30 {
            let (ns, nsym) = (4u32, 4u32);
            let mut pds = Pds::<Unweighted>::new(ns, nsym);
            for _ in 0..rng.gen_range(2u32..12) {
                let op = match rng.gen_range(0u32..3) {
                    0 => RuleOp::Pop,
                    1 => RuleOp::Swap(SymbolId(rng.gen_range(0..nsym))),
                    _ => RuleOp::Push(
                        SymbolId(rng.gen_range(0..nsym)),
                        SymbolId(rng.gen_range(0..nsym)),
                    ),
                };
                pds.add_rule(
                    StateId(rng.gen_range(0..ns)),
                    SymbolId(rng.gen_range(0..nsym)),
                    StateId(rng.gen_range(0..ns)),
                    op,
                    Unweighted,
                    0,
                );
            }
            let mut init = PAutomaton::<Unweighted>::new(&pds);
            let q = init.add_state();
            let f = init.add_state();
            init.set_final(f);
            init.add_edge(pdaal::AutState(0), SymbolId(0), q, Unweighted);
            init.add_edge(q, SymbolId(1), f, Unweighted);

            let fast = post_star(&pds, &init);
            let slow = classic_post_star(&pds, &init);
            // Compare acceptance on all configurations with stacks ≤ 3.
            for p in 0..ns {
                for w in words(nsym, 3) {
                    assert_eq!(
                        fast.accepts(StateId(p), &w),
                        slow.accepts(StateId(p), &w),
                        "round {round}: engines disagree on <p{p}, {w:?}>"
                    );
                }
            }
        }

        fn words(nsym: u32, max: usize) -> Vec<Vec<SymbolId>> {
            let mut out: Vec<Vec<SymbolId>> = vec![vec![]];
            let mut frontier: Vec<Vec<SymbolId>> = vec![vec![]];
            for _ in 0..max {
                let mut next = Vec::new();
                for w in &frontier {
                    for s in 0..nsym {
                        let mut v = w.clone();
                        v.push(SymbolId(s));
                        next.push(v);
                    }
                }
                out.extend(next.iter().cloned());
                frontier = next;
            }
            out
        }
    }

    #[test]
    fn filter_expansion_is_concrete_and_equivalent() {
        use pdaal::{AutState, SymFilter};
        let mut aut = PAutomaton::<Unweighted>::with_sizes(1, 6);
        let f = aut.add_state();
        aut.set_final(f);
        let evens = aut.add_filter(SymFilter::In((0..6).step_by(2).map(SymbolId).collect()));
        aut.add_filter_edge(AutState(0), evens, f, Unweighted::one());
        let exp = expand_filters(&aut);
        assert_eq!(exp.transitions().len(), 3);
        for t in exp.transitions() {
            assert!(matches!(t.label, TLabel::Sym(_)));
        }
        for i in 0..6 {
            assert_eq!(
                aut.accepts(StateId(0), &[SymbolId(i)]),
                exp.accepts(StateId(0), &[SymbolId(i)])
            );
        }
    }
}

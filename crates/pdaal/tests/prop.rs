//! Randomized differential tests for the pdaal saturation engines.
//!
//! Strategy: generate small random pushdown systems with a seeded
//! deterministic RNG, compute reachability by brute-force breadth-first
//! exploration of the (bounded-stack) configuration graph, and compare
//! against `post*` saturation and the witness reconstruction.
//!
//! The campaigns are deterministic (fixed seeds) and hermetic; building
//! with `--features slow-tests` multiplies the number of cases.

use detrand::DetRng;
use pdaal::poststar::post_star;
use pdaal::shortest::shortest_accepted;
use pdaal::witness::reconstruct_run;
use pdaal::{
    AutState, MinTotal, PAutomaton, Pds, RuleOp, StackNfa, StateId, SymbolId, Unweighted, Weight,
};
use std::collections::{HashMap, HashSet, VecDeque};

const MAX_STACK: usize = 6;

/// Cases per property: more under `--features slow-tests`.
fn cases(base: u64) -> u64 {
    if cfg!(feature = "slow-tests") {
        base * 8
    } else {
        base
    }
}

#[derive(Debug, Clone)]
struct RawRule {
    from: u32,
    sym: u32,
    to: u32,
    op: u8,
    arg1: u32,
    arg2: u32,
    weight: u64,
}

fn gen_rules(rng: &mut DetRng, n_states: u32, n_syms: u32, min: usize, max: usize) -> Vec<RawRule> {
    let n = rng.gen_range(min..max);
    (0..n)
        .map(|_| RawRule {
            from: rng.gen_range(0..n_states),
            sym: rng.gen_range(0..n_syms),
            to: rng.gen_range(0..n_states),
            op: rng.gen_range(0..3u32) as u8,
            arg1: rng.gen_range(0..n_syms),
            arg2: rng.gen_range(0..n_syms),
            weight: rng.gen_range(0..5u64),
        })
        .collect()
}

fn gen_stack(rng: &mut DetRng, n_syms: u32, min: usize, max: usize) -> Vec<u32> {
    let n = rng.gen_range(min..max);
    (0..n).map(|_| rng.gen_range(0..n_syms)).collect()
}

fn build_pds<W: Weight>(
    raw: &[RawRule],
    n_states: u32,
    n_syms: u32,
    mk: impl Fn(u64) -> W,
) -> Pds<W> {
    let mut pds = Pds::new(n_states, n_syms);
    for r in raw {
        let op = match r.op {
            0 => RuleOp::Pop,
            1 => RuleOp::Swap(SymbolId(r.arg1)),
            _ => RuleOp::Push(SymbolId(r.arg1), SymbolId(r.arg2)),
        };
        pds.add_rule(
            StateId(r.from),
            SymbolId(r.sym),
            StateId(r.to),
            op,
            mk(r.weight),
            0,
        );
    }
    pds
}

/// Brute-force: all configurations reachable from (p0, stack0) with stack
/// height bounded by MAX_STACK. Returns map config -> min weight.
fn brute_force<W: Weight>(pds: &Pds<W>, start: (u32, Vec<u32>)) -> HashMap<(u32, Vec<u32>), W> {
    brute_force_depth(pds, start, MAX_STACK)
}

fn initial_automaton<W: Weight>(pds: &Pds<W>, p: u32, stack: &[u32]) -> PAutomaton<W> {
    let mut a = PAutomaton::new(pds);
    let mut prev = AutState(p);
    for &s in stack {
        let next = a.add_state();
        a.add_edge(prev, SymbolId(s), next, W::one());
        prev = next;
    }
    a.set_final(prev);
    a
}

/// post* acceptance coincides with brute-force reachability for all
/// configurations the bounded exploration can see, and post* never
/// misses one of them.
#[test]
fn poststar_sound_and_complete_on_bounded() {
    let mut rng = DetRng::seed_from_u64(0x5EED_0001);
    for case in 0..cases(64) {
        let raw = gen_rules(&mut rng, 3, 3, 1, 8);
        let start_stack = gen_stack(&mut rng, 3, 1, 3);
        let pds = build_pds::<Unweighted>(&raw, 3, 3, |_| Unweighted);
        let init = initial_automaton(&pds, 0, &start_stack);
        let sat = post_star(&pds, &init);
        let reach = brute_force::<Unweighted>(&pds, (0, start_stack.clone()));

        // Completeness: everything brute force reaches is accepted.
        for (p, stk) in reach.keys() {
            let word: Vec<SymbolId> = stk.iter().map(|&s| SymbolId(s)).collect();
            assert!(
                sat.accepts(StateId(*p), &word),
                "case {case}: post* missed reachable <{p}, {stk:?}>"
            );
        }
        // Soundness on short stacks: anything post* accepts must be
        // reachable — verify with a deeper brute force before declaring
        // failure, since the optimal run may pass through tall stacks.
        for p in 0..3u32 {
            for stk in enumerate_stacks(3, 2) {
                let word: Vec<SymbolId> = stk.iter().map(|&s| SymbolId(s)).collect();
                if sat.accepts(StateId(p), &word) && !reach.contains_key(&(p, stk.clone())) {
                    let deep = brute_force_depth::<Unweighted>(&pds, (0, start_stack.clone()), 12);
                    assert!(
                        deep.contains_key(&(p, stk.clone())),
                        "case {case}: post* accepts unreachable <{p}, {stk:?}>"
                    );
                }
            }
        }
    }
}

/// Weighted post*: the weight reported for each bounded-reachable
/// configuration is never worse than the brute-force minimum.
#[test]
fn weighted_poststar_matches_bruteforce_min() {
    let mut rng = DetRng::seed_from_u64(0x5EED_0003);
    for case in 0..cases(64) {
        let raw = gen_rules(&mut rng, 3, 3, 1, 8);
        let start_stack = gen_stack(&mut rng, 3, 1, 3);
        let pds = build_pds::<MinTotal>(&raw, 3, 3, MinTotal);
        let init = initial_automaton(&pds, 0, &start_stack);
        let sat = post_star(&pds, &init);
        let reach = brute_force::<MinTotal>(&pds, (0, start_stack.clone()));
        for ((p, stk), w) in &reach {
            let word: Vec<SymbolId> = stk.iter().map(|&s| SymbolId(s)).collect();
            let got = sat.accept_weight(StateId(*p), &word);
            assert!(got.is_some(), "case {case}: post* missed <{p}, {stk:?}>");
            let got = got.unwrap();
            // post* considers *all* runs, including ones leaving the
            // brute-force bound, so it may be strictly better.
            assert!(
                got <= *w,
                "case {case}: post* weight {got:?} worse than brute force {w:?}"
            );
        }
    }
}

/// Witness reconstruction yields a run that actually executes and
/// ends at the queried configuration.
#[test]
fn witnesses_execute() {
    let mut rng = DetRng::seed_from_u64(0x5EED_0004);
    for case in 0..cases(64) {
        let raw = gen_rules(&mut rng, 3, 3, 1, 8);
        let start_stack = gen_stack(&mut rng, 3, 1, 3);
        let pds = build_pds::<MinTotal>(&raw, 3, 3, MinTotal);
        let init = initial_automaton(&pds, 0, &start_stack);
        let sat = post_star(&pds, &init);
        let reach = brute_force::<MinTotal>(&pds, (0, start_stack.clone()));
        for (p, stk) in reach.keys().take(12) {
            let word: Vec<SymbolId> = stk.iter().map(|&s| SymbolId(s)).collect();
            let nfa = StackNfa::single_word(&word);
            let path = shortest_accepted(&sat, &[(StateId(*p), MinTotal(0))], &nfa)
                .unwrap_or_else(|| panic!("case {case}: accepted config not found"));
            let run = reconstruct_run(&pds, &sat, &path.transitions, &path.word).expect("witness");
            // Execute.
            let mut state = run.start_state;
            let mut cur: Vec<SymbolId> = run.start_stack.clone();
            for rid in &run.rules {
                let r = pds.rule(*rid);
                assert_eq!(r.from, state, "case {case}");
                assert_eq!(Some(&r.sym), cur.first(), "case {case}");
                state = r.to;
                match r.op {
                    RuleOp::Pop => {
                        cur.remove(0);
                    }
                    RuleOp::Swap(g) => cur[0] = g,
                    RuleOp::Push(g1, g2) => {
                        cur[0] = g2;
                        cur.insert(0, g1);
                    }
                }
            }
            assert_eq!(state, StateId(*p), "case {case}");
            assert_eq!(&cur, &word, "case {case}");
            // The initial configuration must be one the initial automaton
            // accepts (here: exactly the seeded configuration).
            assert_eq!(run.start_state, StateId(0), "case {case}");
            let ss: Vec<u32> = run.start_stack.iter().map(|s| s.0).collect();
            assert_eq!(&ss, &start_stack, "case {case}");
        }
    }
}

/// The reductions must preserve post* acceptance, including when the
/// initial automaton uses symbolic filter edges.
#[test]
fn reduction_preserves_poststar_with_filters() {
    use pdaal::reduction::reduce;
    use pdaal::SymFilter;
    let mut rng = DetRng::seed_from_u64(0x5EED_0006);
    for case in 0..cases(48) {
        let raw = gen_rules(&mut rng, 3, 3, 1, 10);
        let n_filter = rng.gen_range(1..3usize);
        let filter_syms: HashSet<u32> = (0..n_filter).map(|_| rng.gen_range(0..3u32)).collect();
        let tail = gen_stack(&mut rng, 3, 0, 2);

        let pds = build_pds::<Unweighted>(&raw, 3, 3, |_| Unweighted);
        // Initial automaton: <p0, F tail> where F is a filter class.
        let mut aut = PAutomaton::<Unweighted>::new(&pds);
        let mut prev = AutState(0);
        let next = aut.add_state();
        let fid = aut.add_filter(SymFilter::In(
            filter_syms.iter().map(|&s| SymbolId(s)).collect(),
        ));
        aut.add_filter_edge(prev, fid, next, Unweighted);
        prev = next;
        for &s in &tail {
            let nx = aut.add_state();
            aut.add_edge(prev, SymbolId(s), nx, Unweighted);
            prev = nx;
        }
        aut.set_final(prev);

        let accepting: Vec<StateId> = (0..3).map(StateId).collect();
        let (reduced, _) = reduce(&pds, &aut, &accepting);
        let sat_full = post_star(&pds, &aut);
        let sat_red = post_star(&reduced, &aut);
        for p in 0..3u32 {
            for stk in enumerate_stacks(3, 3) {
                let word: Vec<SymbolId> = stk.iter().map(|&s| SymbolId(s)).collect();
                assert_eq!(
                    sat_full.accepts(StateId(p), &word),
                    sat_red.accepts(StateId(p), &word),
                    "case {case}: reduction changed <{p}, {stk:?}>"
                );
            }
        }
    }
}

/// `shortest_accepted` with a single-word NFA agrees with the
/// automaton's own `accept_weight`.
#[test]
fn shortest_accepted_agrees_with_accept_weight() {
    let mut rng = DetRng::seed_from_u64(0x5EED_0007);
    for case in 0..cases(48) {
        let raw = gen_rules(&mut rng, 3, 3, 1, 8);
        let start_stack = gen_stack(&mut rng, 3, 1, 3);
        let probe_p = rng.gen_range(0..3u32);
        let probe_stack = gen_stack(&mut rng, 3, 0, 3);

        let pds = build_pds::<MinTotal>(&raw, 3, 3, MinTotal);
        let init = initial_automaton(&pds, 0, &start_stack);
        let sat = post_star(&pds, &init);
        let word: Vec<SymbolId> = probe_stack.iter().map(|&s| SymbolId(s)).collect();
        let direct = sat.accept_weight(StateId(probe_p), &word);
        let nfa = StackNfa::single_word(&word);
        let via_search =
            shortest_accepted(&sat, &[(StateId(probe_p), MinTotal(0))], &nfa).map(|p| p.weight);
        assert_eq!(direct, via_search, "case {case}");
    }
}

fn enumerate_stacks(n_syms: u32, max_len: usize) -> Vec<Vec<u32>> {
    let mut out = vec![vec![]];
    let mut frontier: Vec<Vec<u32>> = vec![vec![]];
    for _ in 0..max_len {
        let mut next = Vec::new();
        for stk in &frontier {
            for s in 0..n_syms {
                let mut n = stk.clone();
                n.push(s);
                next.push(n);
            }
        }
        out.extend(next.iter().cloned());
        frontier = next;
    }
    out
}

/// Brute force with a custom stack bound.
fn brute_force_depth<W: Weight>(
    pds: &Pds<W>,
    start: (u32, Vec<u32>),
    max_stack: usize,
) -> HashMap<(u32, Vec<u32>), W> {
    let mut best: HashMap<(u32, Vec<u32>), W> = HashMap::new();
    let mut work: VecDeque<(u32, Vec<u32>)> = VecDeque::new();
    best.insert(start.clone(), W::one());
    work.push_back(start);
    while let Some((p, stk)) = work.pop_front() {
        let d = best[&(p, stk.clone())].clone();
        if let Some(&top) = stk.first() {
            for &rid in pds.rules_for(StateId(p), SymbolId(top)) {
                let r = pds.rule(rid);
                let mut nstk = stk.clone();
                match r.op {
                    RuleOp::Pop => {
                        nstk.remove(0);
                    }
                    RuleOp::Swap(g) => nstk[0] = g.0,
                    RuleOp::Push(g1, g2) => {
                        nstk[0] = g2.0;
                        nstk.insert(0, g1.0);
                    }
                }
                if nstk.len() > max_stack {
                    continue;
                }
                let nw = d.extend(&r.weight);
                let key = (r.to.0, nstk);
                let better = best.get(&key).is_none_or(|b| nw < *b);
                if better {
                    best.insert(key.clone(), nw);
                    work.push_back(key);
                }
            }
        }
    }
    best
}

//! Network-level differential tests: the dense-index `post*` against the
//! frozen seed-fidelity reference, on *real* constructions.
//!
//! The pdaal-level harness (`crates/pdaal/tests/differential.rs`) covers
//! random pushdown systems; this one exercises the PDSs the AalWiNes
//! construction layer actually emits — filter transitions for
//! `mpls* smpls ip` header languages, operation chains, failure budgets —
//! over three network sources:
//!
//! 1. the paper's example network with its six Figure-4 queries,
//! 2. chaos-mutated (and repaired) variants of it,
//! 3. a Zoo-like topology from `topogen` with generated queries.
//!
//! For every instance, dense and reference saturation must produce the
//! same canonical transition set, the same shortest accepted weight, and
//! the dense worklist must not pop more than the reference.

use aalwines::construction::{build, build_with, ApproxMode, Construction, NetworkPrecomp};
use aalwines::examples::paper_network;
use aalwines::{AtomicQuantity, Engine, Outcome, Verifier, VerifyOptions, WeightSpec};
use chaos::{mutate, paper_queries, MutationKind};
use detrand::DetRng;
use netmodel::routing::Network;
use pdaal::poststar::post_star_with_stats;
use pdaal::reference::post_star_ref;
use pdaal::shortest::shortest_accepted;
use pdaal::{MinTotal, PAutomaton, Pds, StateId, TLabel, Weight};
use query::{compile, parse_query, Query};
use topogen::lsp::{build_mpls_dataplane, LspConfig};
use topogen::zoo::{zoo_like, ZooConfig};

fn canon<W: Weight>(aut: &PAutomaton<W>) -> Vec<(u32, u8, u32, u32, W)> {
    let mut v: Vec<(u32, u8, u32, u32, W)> = aut
        .transitions()
        .iter()
        .map(|t| {
            let (tag, val) = match t.label {
                TLabel::Eps => (0u8, 0u32),
                TLabel::Sym(s) => (1, s.0),
                TLabel::Filter(f) => (2, f.0),
            };
            (t.from.0, tag, val, t.to.0, t.weight.clone())
        })
        .collect();
    v.sort();
    v
}

/// Saturate one construction both ways and compare everything observable.
fn check_construction(cons: &Construction<MinTotal>, cq_final: &pdaal::StackNfa, what: &str) {
    let (dense, dstats) = post_star_with_stats(&cons.pds, &cons.initial);
    let (refr, rstats) = post_star_ref(&cons.pds, &cons.initial);
    let refr = refr.into_pautomaton();

    assert_eq!(
        canon(&dense),
        canon(&refr),
        "{what}: saturated transition sets diverge"
    );
    assert_eq!(dstats.transitions, rstats.transitions, "{what}");
    assert_eq!(dstats.mid_states, rstats.mid_states, "{what}");
    assert!(
        dstats.worklist_pops <= rstats.worklist_pops,
        "{what}: dedup increased pops ({} > {})",
        dstats.worklist_pops,
        rstats.worklist_pops
    );

    let starts: Vec<(StateId, MinTotal)> =
        cons.finals.iter().map(|s| (*s, MinTotal::one())).collect();
    let wd = shortest_accepted(&dense, &starts, cq_final).map(|p| p.weight);
    let wr = shortest_accepted(&refr, &starts, cq_final).map(|p| p.weight);
    assert_eq!(wd, wr, "{what}: shortest accepted weights diverge");
}

fn check_network(net: &Network, queries: &[Query], what: &str) {
    for (qi, q) in queries.iter().enumerate() {
        let cq = compile(q, net);
        for mode in [ApproxMode::Over, ApproxMode::Under] {
            let cons = build(net, &cq, mode, &|_| MinTotal(1));
            check_construction(&cons, &cq.final_, &format!("{what} q{qi} {mode:?}"));
        }
    }
}

#[test]
fn paper_network_differential() {
    let net = paper_network();
    let queries = paper_queries();
    check_network(&net, &queries, "paper");
}

#[test]
fn chaos_mutants_differential() {
    let base = paper_network();
    let queries = paper_queries();
    let mut rng = DetRng::seed_from_u64(0xC0FF_EE01);
    let mut checked = 0usize;
    let mut attempts = 0usize;
    while checked < 12 && attempts < 200 {
        attempts += 1;
        let kind = *rng.choose(&MutationKind::ALL);
        let Some(mut net) = mutate(&base, kind, &mut rng) else {
            continue;
        };
        // Corrupting mutations may leave the network invalid; repair it
        // the same way the chaos harness does before verification.
        net.repair();
        // Rotate through the query set.
        let q = &queries[checked % queries.len()];
        check_network(
            &net,
            std::slice::from_ref(q),
            &format!("mutant#{checked} {}", kind.as_str()),
        );
        checked += 1;
    }
    assert!(checked >= 12, "only {checked} mutants checked");
}

// ---------------------------------------------------------------------------
// Compile-once / verify-many differentials: the shared [`NetworkPrecomp`]
// and the answer cache must be invisible — byte-identical
// PDS constructions and identical answers versus a fresh build every time.
// ---------------------------------------------------------------------------

/// Order-preserving dump of a PDS rule sequence as Debug strings. Rule
/// order is compared, not just the rule *set*: a shared-precomp build
/// must emit the same rules in the same order as a fresh one, because
/// saturation and witness extraction observe rule ids.
fn rule_dump<W: Weight + std::fmt::Debug>(pds: &Pds<W>) -> Vec<String> {
    pds.rules().iter().map(|r| format!("{r:?}")).collect()
}

/// Assert two constructions are observably identical.
fn assert_same_construction(a: &Construction<MinTotal>, b: &Construction<MinTotal>, what: &str) {
    assert_eq!(
        a.pds.num_states(),
        b.pds.num_states(),
        "{what}: state counts diverge"
    );
    assert_eq!(
        rule_dump(&a.pds),
        rule_dump(&b.pds),
        "{what}: rule sequences diverge"
    );
    assert_eq!(a.finals, b.finals, "{what}: final states diverge");
    assert_eq!(
        canon(&a.initial),
        canon(&b.initial),
        "{what}: initial automata diverge"
    );
}

/// A canonical rendering of an outcome for equality checks. A witness's
/// `failed_links` is a `HashSet`, whose Debug iteration order differs
/// between instances, so the links are sorted first; everything else in
/// an [`Outcome`] renders deterministically.
fn outcome_repr(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Satisfied(w) => {
            let mut links: Vec<usize> = w.failed_links.iter().map(|l| l.index()).collect();
            links.sort_unstable();
            format!(
                "Satisfied(trace={:?}, failed={links:?}, weight={:?})",
                w.trace, w.weight
            )
        }
        other => format!("{other:?}"),
    }
}

/// Fixed-seed random queries over the paper network's routers (v0–v3),
/// varying endpoints, header constraints, mid patterns, and the failure
/// budget `k`.
fn random_paper_queries(n: usize, seed: u64) -> Vec<Query> {
    let mut rng = DetRng::seed_from_u64(seed);
    let routers = ["v0", "v1", "v2", "v3"];
    let headers = ["<ip>", "<smpls ip>", "<smpls? ip>", "<mpls* smpls ip>"];
    let mids = [".*", ". .*", "[^v2#.]*", ".* ."];
    let mut out = Vec::with_capacity(n);
    let mut attempts = 0usize;
    while out.len() < n && attempts < n * 20 {
        attempts += 1;
        let a = *rng.choose(&routers);
        let b = *rng.choose(&routers);
        let head = *rng.choose(&headers);
        let tail = *rng.choose(&headers);
        let mid = *rng.choose(&mids);
        let k = rng.gen_range(0..4u32);
        let text = format!("{head} [.#{a}] {mid} [{b}#.] {tail} {k}");
        if let Ok(q) = parse_query(&text) {
            out.push(q);
        }
    }
    assert_eq!(out.len(), n, "query generator produced too few queries");
    out
}

#[test]
fn shared_precomp_matches_fresh_build_on_paper_network() {
    let net = paper_network();
    let pre = NetworkPrecomp::new(&net);
    let mut queries = paper_queries();
    queries.extend(random_paper_queries(20, 0x5EED_0001));
    for (qi, q) in queries.iter().enumerate() {
        let cq = compile(q, &net);
        for mode in [ApproxMode::Over, ApproxMode::Under] {
            let fresh = build(&net, &cq, mode, &|_| MinTotal(1));
            let shared = build_with(&pre, &cq, mode, &|_| MinTotal(1));
            assert_same_construction(&fresh, &shared, &format!("paper q{qi} {mode:?}"));
        }
    }
}

#[test]
fn shared_precomp_matches_fresh_build_on_chaos_mutants() {
    let base = paper_network();
    let queries = paper_queries();
    let mut rng = DetRng::seed_from_u64(0x5EED_0002);
    let mut checked = 0usize;
    let mut attempts = 0usize;
    while checked < 100 && attempts < 2000 {
        attempts += 1;
        let kind = *rng.choose(&MutationKind::ALL);
        let Some(mut net) = mutate(&base, kind, &mut rng) else {
            continue;
        };
        net.repair();
        let pre = NetworkPrecomp::new(&net);
        let q = &queries[checked % queries.len()];
        let cq = compile(q, &net);
        let mode = if checked.is_multiple_of(2) {
            ApproxMode::Over
        } else {
            ApproxMode::Under
        };
        let fresh = build(&net, &cq, mode, &|_| MinTotal(1));
        let shared = build_with(&pre, &cq, mode, &|_| MinTotal(1));
        assert_same_construction(
            &fresh,
            &shared,
            &format!("mutant#{checked} {}", kind.as_str()),
        );
        checked += 1;
    }
    assert!(checked >= 100, "only {checked} mutants checked");
}

#[test]
fn cached_verifier_answers_match_uncached() {
    let net = paper_network();
    let mut queries = paper_queries();
    queries.extend(random_paper_queries(12, 0x5EED_0003));
    let weighted = VerifyOptions::new().with_weights(WeightSpec::single(AtomicQuantity::Hops));
    for (oi, opts) in [VerifyOptions::new(), weighted].iter().enumerate() {
        let cached = Verifier::new(&net).with_cache_size(256);
        let uncached = Verifier::new(&net).without_cache();
        for (qi, q) in queries.iter().enumerate() {
            // Twice against the caching engine: the first run populates
            // the cache, the second is answered from it.
            let first = cached.verify(q, opts);
            let second = cached.verify(q, opts);
            let fresh = uncached.verify(q, opts);
            assert_eq!(
                outcome_repr(&first.outcome),
                outcome_repr(&fresh.outcome),
                "opts#{oi} q{qi}: cache-miss answer diverges from uncached"
            );
            assert_eq!(
                outcome_repr(&second.outcome),
                outcome_repr(&fresh.outcome),
                "opts#{oi} q{qi}: cache-hit answer diverges from uncached"
            );
        }
    }
}

#[test]
fn repeated_query_is_a_pure_cache_hit() {
    let net = paper_network();
    let verifier = Verifier::new(&net);
    let opts = VerifyOptions::new();
    // A query the quick-decide pre-pass cannot answer, so the full
    // pipeline (and hence the cache) is exercised.
    let q = parse_query("<ip> [.#v0] .* [v3#.] <ip> 2").expect("query parses");
    let first = verifier.verify(&q, &opts);
    assert!(
        first.stats.quick_decided.is_none(),
        "query must exercise the full pipeline"
    );
    assert_eq!(first.stats.cache_hits, 0, "first run cannot hit");
    assert!(first.stats.cache_misses > 0, "first run must compile");
    let second = verifier.verify(&q, &opts);
    assert_eq!(
        second.stats.cache_misses, 0,
        "second run must not recompile"
    );
    assert!(
        second.stats.cache_hits >= 1,
        "second run must hit the cache"
    );
    assert_eq!(
        outcome_repr(&first.outcome),
        outcome_repr(&second.outcome),
        "cache hit changed the outcome"
    );
}

#[test]
fn aborted_answers_are_never_cached_and_decided_ones_outlive_budgets() {
    let net = paper_network();
    let q = parse_query("<ip> [.#v0] .* [v3#.] <ip> 2").expect("query parses");
    let starved = VerifyOptions::new().with_transition_budget(1);

    // Aborted first: the next unbudgeted call must compute and decide.
    let verifier = Verifier::new(&net);
    let aborted = verifier.verify(&q, &starved);
    assert!(
        matches!(aborted.outcome, Outcome::Aborted(_)),
        "{:?}",
        aborted.outcome
    );
    let decided = verifier.verify(&q, &VerifyOptions::new());
    assert_eq!(
        decided.stats.cache_hits, 0,
        "an abort was served from cache"
    );
    assert!(decided.stats.cache_misses >= 1);
    assert!(decided.outcome.is_conclusive(), "{:?}", decided.outcome);

    // Decided first: the budget is not part of the key, and a decided
    // answer stays true under a tighter one, so the starved call hits.
    let again = verifier.verify(&q, &starved);
    assert_eq!((again.stats.cache_hits, again.stats.cache_misses), (1, 0));
    assert_eq!(outcome_repr(&again.outcome), outcome_repr(&decided.outcome));
}

#[test]
fn cache_keys_separate_k_weights_and_reduction() {
    let net = paper_network();
    let cached = Verifier::new(&net);
    let uncached = Verifier::new(&net).without_cache();
    let weighted = VerifyOptions::new()
        .with_weights(WeightSpec::parse("Failures, Hops").expect("weight spec parses"));
    let variants = [
        ("<ip> [.#v0] .* [v3#.] <ip> 0", VerifyOptions::new()),
        ("<ip> [.#v0] .* [v3#.] <ip> 1", VerifyOptions::new()),
        ("<ip> [.#v0] .* [v3#.] <ip> 0", weighted),
    ];
    // One query text, three keys: every first call computes (an aliased
    // key would be served the previous variant's answer as a hit) and
    // agrees with the cache-less engine under the same options.
    for (i, (text, opts)) in variants.iter().enumerate() {
        let q = parse_query(text).expect("query parses");
        let first = cached.verify(&q, opts);
        assert_eq!(
            first.stats.cache_hits, 0,
            "variant {i} aliased an earlier key"
        );
        assert!(first.stats.cache_misses >= 1, "variant {i}");
        assert_eq!(
            outcome_repr(&first.outcome),
            outcome_repr(&uncached.verify(&q, opts).outcome),
            "variant {i}"
        );
    }
    for (i, (text, opts)) in variants.iter().enumerate() {
        let q = parse_query(text).expect("query parses");
        let second = cached.verify(&q, opts);
        assert_eq!(
            (second.stats.cache_hits, second.stats.cache_misses),
            (1, 0),
            "variant {i} must be served from its own entry"
        );
    }
}

#[test]
fn zoo_like_network_differential() {
    let topo = zoo_like(&ZooConfig {
        routers: 24,
        avg_degree: 3.0,
        seed: 0xD1FF,
    });
    let dp = build_mpls_dataplane(
        topo,
        &LspConfig {
            edge_routers: 6,
            max_pairs: 24,
            protect: true,
            service_chains: 20,
            seed: 0xD1FE,
        },
    );
    let queries: Vec<Query> = topogen::queries::figure4_queries(&dp, 4, 0xD1FD)
        .iter()
        .map(|q| parse_query(q).expect("generated queries parse"))
        .collect();
    check_network(&dp.net, &queries, "zoo");
}

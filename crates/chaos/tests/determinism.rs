//! Repeatability suite: the same dataplane held in two independent
//! `Network` values must verify to **byte-identical** answers (verdict,
//! witness trace with its headers, failed-link set, weight vector) and
//! identical non-timing statistics (rule/transition/pop/mid-state
//! counters, peak worklist bytes, cache hit/miss counters,
//! resident-byte estimates), cold and warm.
//!
//! The routing table is a `HashMap`; every instance draws its own hash
//! seed, so two values with equal contents iterate in different orders —
//! the in-process stand-in for "two processes". Anything between the
//! table and the answer that leaks that order (PDS rule order, which
//! equal-weight witness is found, `satisfied` vs `inconclusive`) fails
//! here — on the paper network, on weighted queries, on a generated
//! Zoo-like dataplane (the case large enough that an order leak moves
//! the counters), on the failover-loop network that forces the
//! under-approximation, and on chaos-mutated dataplanes from three
//! independent seeds.

use aalwines::examples::paper_network;
use aalwines::{AtomicQuantity, Engine, EngineStats, Outcome, Verifier, VerifyOptions, WeightSpec};
use chaos::{mutate, paper_queries, MutationKind};
use detrand::DetRng;
use netmodel::{LabelTable, Network, Op, RoutingEntry, Topology};
use query::{parse_query, Query};
use topogen::lsp::{build_mpls_dataplane, LspConfig};
use topogen::queries::figure4_queries;
use topogen::zoo::{zoo_like, ZooConfig};

/// Canonical rendering of an outcome: witness trace (headers included),
/// sorted failed links, weight vector. `failed_links` is a `HashSet`
/// whose iteration order differs between instances, so it is sorted;
/// everything else renders deterministically.
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

/// Every non-timing stats field. `bytes_resident` is deliberately
/// included: it depends on the answer cache's exact contents.
fn stats_repr(s: &EngineStats) -> String {
    format!(
        "rulesOver={} rulesRemoved={} rulesUnder={} satTransitions={} \
         worklistPops={} midStates={} requeuesAvoided={} peakWorklistBytes={} \
         underRuns={} validationIssues={} quickDecided={:?} aborted={:?} \
         cacheHits={} cacheMisses={} bytesResident={}",
        s.rules_over,
        s.rules_removed,
        s.rules_under,
        s.sat_transitions,
        s.worklist_pops,
        s.mid_states,
        s.worklist_requeues_avoided,
        s.peak_worklist_bytes,
        s.under_runs,
        s.validation_issues,
        s.quick_decided,
        s.aborted,
        s.cache_hits,
        s.cache_misses,
        s.bytes_resident,
    )
}

/// `net` rebuilt rule by rule into a fresh `Network`: equal contents,
/// its own routing `HashMap` and therefore its own hash seed.
fn rebuilt(net: &Network) -> Network {
    let mut keys: Vec<_> = net.routing_keys().collect();
    keys.sort_unstable();
    let mut out = Network::new(net.topology.clone(), net.labels.clone());
    for (link, label) in keys {
        for (gi, group) in net.groups(link, label).iter().enumerate() {
            for entry in group {
                out.add_rule_unchecked(link, label, gi + 1, entry.clone());
            }
        }
    }
    out
}

/// Run the whole query sequence (twice, so the second pass answers from
/// a warm cache) through one fresh verifier and return the canonical
/// transcript.
fn transcript(net: &Network, queries: &[Query], opts: &VerifyOptions) -> Vec<String> {
    let verifier = Verifier::new(net);
    let mut out = Vec::with_capacity(queries.len() * 2);
    for _ in 0..2 {
        for q in queries {
            let a = verifier.verify(q, opts);
            out.push(format!(
                "{} | {}",
                outcome_repr(&a.outcome),
                stats_repr(&a.stats)
            ));
        }
    }
    out
}

/// Independent rebuilds compared against each case's first transcript.
const TWINS: usize = 3;

/// Assert that `TWINS` independent rebuilds of `net` all produce the
/// transcript of the first; returns that transcript.
fn assert_repeats(
    net: &Network,
    queries: &[Query],
    opts: &VerifyOptions,
    what: &str,
) -> Vec<String> {
    let baseline = transcript(&rebuilt(net), queries, opts);
    for twin in 1..=TWINS {
        assert_eq!(
            transcript(&rebuilt(net), queries, opts),
            baseline,
            "{what} twin {twin}: transcript differs between two Network values of one dataplane"
        );
    }
    baseline
}

#[test]
fn paper_network_answers_repeat_across_network_instances() {
    let net = paper_network();
    let queries = paper_queries();
    let weighted = VerifyOptions::new().with_weights(WeightSpec::single(AtomicQuantity::Hops));
    for (oi, opts) in [VerifyOptions::new(), weighted].iter().enumerate() {
        let baseline = assert_repeats(&net, &queries, opts, &format!("opts#{oi}"));
        // The corpus must actually exercise the warm-cache path.
        assert!(
            baseline.iter().any(|l| !l.contains("cacheHits=0")),
            "opts#{oi}: corpus never hit the answer cache"
        );
    }
}

/// The paper network has a handful of keys per link, too few for key
/// order to move any counter; a few hundred generated rules are enough
/// (on the unsorted precomp `peakWorklistBytes` differed between twins).
#[test]
fn generated_zoo_answers_repeat_across_network_instances() {
    let topo = zoo_like(&ZooConfig {
        routers: 24,
        avg_degree: 3.0,
        seed: 0xBEEF01,
    });
    let dp = build_mpls_dataplane(
        topo,
        &LspConfig {
            edge_routers: 6,
            max_pairs: 24,
            protect: true,
            service_chains: 20,
            seed: 0xBEEF02,
        },
    );
    let queries: Vec<Query> = figure4_queries(&dp, 4, 0xBEEF03)
        .iter()
        .map(|q| parse_query(q).expect("generated queries parse"))
        .collect();
    let weighted = VerifyOptions::new().with_weights(WeightSpec::single(AtomicQuantity::Hops));
    for (oi, opts) in [VerifyOptions::new(), weighted].iter().enumerate() {
        assert_repeats(&dp.net, &queries, opts, &format!("zoo opts#{oi}"));
    }
}

/// A network whose only trace matching the query below is a failover
/// loop: at `f0` the backup (priority-2) route to `f2` protects the
/// primary link `f0 → f1`, yet the trace returns to `f0` and traverses
/// exactly that link afterwards.
///
/// The over-approximation counts failures globally, so it accepts the
/// loop with one failure — but `feasible_failures` rejects the witness
/// (a link cannot be both failed and traversed), producing
/// `Phase::Infeasible` and forcing the under-approximation to run.
fn failover_loop() -> (Network, Vec<Query>) {
    let mut t = Topology::new();
    let xin = t.add_router("x_in", None);
    let f0 = t.add_router("f0", None);
    let f1 = t.add_router("f1", None);
    let f2 = t.add_router("f2", None);
    let xout = t.add_router("x_out", None);
    let li = t.add_link(xin, "o0", f0, "i0", 1);
    let lp = t.add_link(f0, "o1", f1, "i1", 1);
    let lb = t.add_link(f0, "o2", f2, "i2", 1);
    let lr = t.add_link(f2, "o3", f0, "i3", 1);
    let lo = t.add_link(f1, "o4", xout, "i4", 1);

    let mut labels = LabelTable::new();
    let s = labels.mpls_bos("s50");
    let u = labels.mpls_bos("s51");
    let v = labels.mpls_bos("s52");
    labels.ip("ip9"); // headers must bottom out in an IP label

    let mut net = Network::new(t, labels);
    let rule = |out, ops: Vec<Op>| RoutingEntry {
        out,
        ops: ops.into(),
    };
    // f0: primary straight to f1, backup detours via f2.
    net.add_rule(li, s, 1, rule(lp, vec![Op::Swap(u)]));
    net.add_rule(li, s, 2, rule(lb, vec![Op::Swap(s)]));
    // f2 bounces back to f0 ...
    net.add_rule(lb, s, 1, rule(lr, vec![Op::Swap(v)]));
    // ... which forwards over the very link the backup protects.
    net.add_rule(lr, v, 1, rule(lp, vec![Op::Swap(u)]));
    // f1 egresses.
    net.add_rule(lp, u, 1, rule(lo, vec![Op::Swap(u)]));
    assert!(net.validate().is_empty());

    // Reaching `f2` is only possible through the backup route, so the
    // minimal accepting over-path is the infeasible failover loop.
    let queries = ["<s50 ip9> [.#f0] [.#f2] .* [f1#.] <s51 ip9> 1"]
        .iter()
        .map(|q| parse_query(q).expect("failover query parses"))
        .collect();
    (net, queries)
}

/// The corpus entry that actually runs the under phase: answers and
/// non-timing stats (including the under-phase saturation counters)
/// repeat, unweighted and weighted.
#[test]
fn under_phase_repeats_across_network_instances() {
    let (net, queries) = failover_loop();
    let weighted = VerifyOptions::new().with_weights(WeightSpec::single(AtomicQuantity::Hops));
    for (oi, opts) in [VerifyOptions::new(), weighted].iter().enumerate() {
        let baseline = assert_repeats(&net, &queries, opts, &format!("opts#{oi}"));
        assert!(
            baseline.iter().all(|l| !l.contains("underRuns=0")),
            "opts#{oi}: the failover loop must run the under-approximation\n{baseline:#?}"
        );
    }
}

#[test]
fn chaos_mutants_repeat_across_network_instances() {
    let base = paper_network();
    let queries = paper_queries();
    for seed in [0x5EED_D001u64, 0x5EED_D002, 0x5EED_D003] {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut checked = 0usize;
        let mut attempts = 0usize;
        while checked < 4 && attempts < 200 {
            attempts += 1;
            let kind = *rng.choose(&MutationKind::ALL);
            let Some(mut net) = mutate(&base, kind, &mut rng) else {
                continue;
            };
            net.repair();
            let what = format!("seed {seed:#x} mutant#{checked} ({})", kind.as_str());
            assert_repeats(&net, &queries, &VerifyOptions::new(), &what);
            checked += 1;
        }
        assert!(
            checked >= 4,
            "seed {seed:#x}: only {checked} mutants checked"
        );
    }
}

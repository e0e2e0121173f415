//! End-to-end verification of the paper's running example (Figure 1):
//! the queries φ₀…φ₄ of Figure 1d, witness traces, the minimum-witness
//! example of Section 3, and engine agreement (Dual vs Moped-baseline vs
//! weighted).

use aalwines::construction::{build_with, ApproxMode, NetworkPrecomp};
use aalwines::examples::{paper_network, paper_network_with_map, PAPER_QUERIES};
use aalwines::moped::verify_moped;
use aalwines::{AtomicQuantity, Engine, LinearExpr, Outcome, Verifier, VerifyOptions, WeightSpec};
use pdaal::poststar::post_star;
use pdaal::reduction::reduce;
use pdaal::{shortest_accepted, Unweighted};
use query::{compile, parse_query};

fn verify(net: &netmodel::Network, q: &str) -> aalwines::Answer {
    let q = parse_query(q).expect("query parses");
    Verifier::new(net).verify(&q, &VerifyOptions::default())
}

fn verify_weighted(net: &netmodel::Network, q: &str, spec: WeightSpec) -> aalwines::Answer {
    let q = parse_query(q).expect("query parses");
    Verifier::new(net).verify(&q, &VerifyOptions::new().with_weights(spec))
}

const PHI0: &str = PAPER_QUERIES[0];
const PHI1: &str = PAPER_QUERIES[1];
const PHI2: &str = PAPER_QUERIES[2];
const PHI3: &str = PAPER_QUERIES[3];
const PHI4: &str = PAPER_QUERIES[4];

#[test]
fn phi0_satisfied_without_failures() {
    let net = paper_network();
    let ans = verify(&net, PHI0);
    let Outcome::Satisfied(w) = ans.outcome else {
        panic!("φ0 must be satisfied, got {:?}", ans.outcome);
    };
    // Witness must be one of σ0/σ1: 4 links, no failures.
    assert_eq!(w.trace.links(), 4);
    assert!(w.failed_links.is_empty());
    assert!(w.trace.is_valid(&net, &w.failed_links));
}

#[test]
fn phi1_avoids_v2_v3_link() {
    let (net, map) = paper_network_with_map();
    let ans = verify(&net, PHI1);
    let Outcome::Satisfied(w) = ans.outcome else {
        panic!("φ1 must be satisfied, got {:?}", ans.outcome);
    };
    // e4 is the (only) v2->v3 link; the witness must not traverse it.
    let e4 = map.links[4];
    assert!(w.trace.steps.iter().all(|s| s.link != e4));
    assert!(w.trace.is_valid(&net, &w.failed_links));
    assert!(w.failed_links.len() <= 2);
}

#[test]
fn phi2_service_path_exists() {
    let net = paper_network();
    let ans = verify(&net, PHI2);
    let Outcome::Satisfied(w) = ans.outcome else {
        panic!("φ2 must be satisfied, got {:?}", ans.outcome);
    };
    // σ3: 5 links, no failures, enters with s40, leaves with s44 on ip.
    assert_eq!(w.trace.links(), 5);
    assert!(w.failed_links.is_empty());
    let first = &w.trace.steps[0];
    assert_eq!(net.labels.name(first.header.top().unwrap()), "s40");
    let last = w.trace.steps.last().unwrap();
    assert_eq!(net.labels.name(last.header.top().unwrap()), "s44");
}

#[test]
fn phi3_no_label_leak() {
    // Transparency: no trace may leak an extra MPLS label on top of the
    // service label, even with one failure.
    let net = paper_network();
    let ans = verify(&net, PHI3);
    assert!(
        matches!(ans.outcome, Outcome::Unsatisfied),
        "φ3 must be conclusively unsatisfied, got {:?}",
        ans.outcome
    );
}

#[test]
fn phi4_satisfied_with_one_failure() {
    let net = paper_network();
    let ans = verify(&net, PHI4);
    let Outcome::Satisfied(w) = ans.outcome else {
        panic!("φ4 must be satisfied, got {:?}", ans.outcome);
    };
    assert_eq!(w.trace.links(), 5, "witnesses are σ2 or σ3 (5 links)");
    assert!(w.trace.is_valid(&net, &w.failed_links));
}

#[test]
fn phi4_with_zero_failures_only_sigma3() {
    // Paper: "In case of no link failures, the query is satisfied only by
    // the trace σ3" — the s40 service path.
    let net = paper_network();
    let q = "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 0";
    let ans = verify(&net, q);
    let Outcome::Satisfied(w) = ans.outcome else {
        panic!("φ4(k=0) must be satisfied, got {:?}", ans.outcome);
    };
    assert!(w.failed_links.is_empty());
    let first = &w.trace.steps[0];
    assert_eq!(net.labels.name(first.header.top().unwrap()), "s40");
}

#[test]
fn minimum_witness_selects_sigma3() {
    // Section 3: minimizing (Hops, Failures + 3·Tunnels) over φ4's
    // witnesses: σ2 → (5, 7), σ3 → (5, 0); σ3 must win.
    let net = paper_network();
    let spec = WeightSpec::lexicographic(vec![
        LinearExpr::atom(AtomicQuantity::Hops),
        LinearExpr::atom(AtomicQuantity::Failures).plus(3, AtomicQuantity::Tunnels),
    ]);
    let ans = verify_weighted(&net, PHI4, spec);
    let Outcome::Satisfied(w) = ans.outcome else {
        panic!("φ4 must be satisfied, got {:?}", ans.outcome);
    };
    assert_eq!(w.weight.as_deref(), Some(&[5, 0][..]), "σ3's weight vector");
    // σ3 is the s40 service path.
    let first = &w.trace.steps[0];
    assert_eq!(net.labels.name(first.header.top().unwrap()), "s40");
    assert_eq!(w.trace.tunnels(), 0);
    assert!(w.failed_links.is_empty());
}

#[test]
fn weighted_failures_witness_minimizes_failures() {
    let net = paper_network();
    let ans = verify_weighted(&net, PHI4, WeightSpec::single(AtomicQuantity::Failures));
    let Outcome::Satisfied(w) = ans.outcome else {
        panic!("φ4 must be satisfied, got {:?}", ans.outcome);
    };
    // σ3 needs zero failures, so the minimal Failures witness has none.
    assert_eq!(w.weight.as_deref(), Some(&[0][..]));
    assert!(w.failed_links.is_empty());
}

#[test]
fn moped_baseline_agrees_on_all_paper_queries() {
    let net = paper_network();
    for q in [PHI0, PHI1, PHI2, PHI3, PHI4] {
        let dual = verify(&net, q);
        let parsed = parse_query(q).unwrap();
        let moped = verify_moped(&net, &parsed);
        assert_eq!(
            dual.outcome.is_satisfied(),
            moped.outcome.is_satisfied(),
            "engines disagree on {q}"
        );
        assert_eq!(
            matches!(dual.outcome, Outcome::Unsatisfied),
            matches!(moped.outcome, Outcome::Unsatisfied),
            "engines disagree on conclusive-no for {q}"
        );
    }
}

#[test]
fn weighted_engine_agrees_on_satisfiability() {
    let net = paper_network();
    for q in [PHI0, PHI1, PHI2, PHI3, PHI4] {
        let dual = verify(&net, q);
        let weighted = verify_weighted(&net, q, WeightSpec::single(AtomicQuantity::Failures));
        assert_eq!(
            dual.outcome.is_satisfied(),
            weighted.outcome.is_satisfied(),
            "weighted engine disagrees on {q}"
        );
    }
}

#[test]
fn reduction_does_not_change_outcomes() {
    // Both approximations of every paper query: the reduced PDS accepts
    // a configuration of the query's final language iff the unreduced
    // one does, and the reductions bite on every over-approximation.
    let net = paper_network();
    let pre = NetworkPrecomp::new(&net);
    for q in [PHI0, PHI1, PHI2, PHI3, PHI4] {
        let cq = compile(&parse_query(q).unwrap(), &net);
        for mode in [ApproxMode::Over, ApproxMode::Under] {
            let cons = build_with(&pre, &cq, mode, &|_| Unweighted);
            let (reduced, n) = reduce(&cons.pds, &cons.initial, &cons.finals);
            if mode == ApproxMode::Over {
                assert!(
                    n > 0 || cons.pds.num_rules() == 0,
                    "reductions should bite on {q}"
                );
            }
            let starts: Vec<_> = cons.finals.iter().map(|s| (*s, Unweighted)).collect();
            let accepts = |pds| {
                let sat = post_star(pds, &cons.initial);
                shortest_accepted(&sat, &starts, &cq.final_).is_some()
            };
            assert_eq!(
                accepts(&cons.pds),
                accepts(&reduced),
                "reduction changed the {mode:?} outcome of {q}"
            );
        }
    }
}

#[test]
fn unreachable_pair_is_unsatisfied() {
    // No forwarding rules route from v3 back to v0.
    let net = paper_network();
    let ans = verify(&net, PAPER_QUERIES[5]);
    assert!(matches!(ans.outcome, Outcome::Unsatisfied));
}

#[test]
fn witness_weights_match_trace_quantities() {
    // Cross-check: the weight vector reported by the engine equals the
    // quantities evaluated on the returned trace.
    let net = paper_network();
    let spec = WeightSpec::lexicographic(vec![
        LinearExpr::atom(AtomicQuantity::Links),
        LinearExpr::atom(AtomicQuantity::Tunnels),
    ]);
    for q in [PHI0, PHI2, PHI4] {
        let ans = verify_weighted(&net, q, spec.clone());
        let Outcome::Satisfied(w) = ans.outcome else {
            panic!("{q} must be satisfied");
        };
        let weight = w.weight.expect("weighted run");
        assert_eq!(weight[0], w.trace.links(), "Links mismatch on {q}");
        assert_eq!(weight[1], w.trace.tunnels(), "Tunnels mismatch on {q}");
    }
}

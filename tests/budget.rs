//! End-to-end budget and telemetry tests: a blown budget surfaces as
//! `Outcome::Aborted` promptly (instead of an unbounded run), batches
//! degrade gracefully, and the JSON telemetry is valid JSON.

use aalwines::{
    AbortReason, CancelToken, Engine, Outcome, SessionBuilder, Verifier, VerifyOptions,
};
use query::parse_query;
use std::time::{Duration, Instant};
use topogen::lsp::{build_mpls_dataplane, Dataplane, LspConfig};
use topogen::zoo::{zoo_like, ZooConfig};

/// A Zoo-like network large enough that the waypoint query below takes
/// well over 100 ms end to end.
fn explosive_dataplane() -> Dataplane {
    let topo = zoo_like(&ZooConfig {
        routers: 150,
        avg_degree: 3.5,
        seed: 0xABCD,
    });
    build_mpls_dataplane(
        topo,
        &LspConfig {
            edge_routers: 20,
            max_pairs: 400,
            protect: true,
            service_chains: 900,
            seed: 7,
        },
    )
}

/// An 8-waypoint `k = 3` reachability query through the edge routers.
fn explosive_query(dp: &Dataplane) -> String {
    let name = |i: usize| dp.net.topology.router(dp.edge_routers[i]).name.clone();
    let w: Vec<String> = (0..8).map(name).collect();
    format!(
        "<.*> [.#{}] .* [.#{}] .* [.#{}] .* [.#{}] .* [.#{}] .* [.#{}] .* [.#{}] .* [.#{}] <.*> 3",
        w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]
    )
}

#[test]
fn deadline_aborts_explosive_query_promptly() {
    let dp = explosive_dataplane();
    let q = parse_query(&explosive_query(&dp)).unwrap();
    let verifier = Verifier::new(&dp.net);

    let t0 = Instant::now();
    let unbounded = verifier.verify(&q, &VerifyOptions::new());
    let unbounded_elapsed = t0.elapsed();
    assert!(
        unbounded.outcome.is_satisfied(),
        "unbounded verdict changed: {:?}",
        unbounded.outcome
    );

    // On a cold engine: `verifier` would serve its decided answer from
    // the cache, which deliberately ignores a tighter later deadline.
    let deadline = Duration::from_millis(100);
    let cold = Verifier::new(&dp.net);
    let t1 = Instant::now();
    let bounded = cold.verify(&q, &VerifyOptions::new().with_timeout(deadline));
    let elapsed = t1.elapsed();
    assert!(
        matches!(
            bounded.outcome,
            Outcome::Aborted(AbortReason::DeadlineExceeded)
        ),
        "expected a deadline abort, got {:?} (unbounded took {unbounded_elapsed:?})",
        bounded.outcome
    );
    assert_eq!(bounded.stats.aborted, Some(AbortReason::DeadlineExceeded));
    // Abort latency: within 2x the deadline, except that an abort can
    // be delayed by the one un-instrumented step (a reduction pass —
    // construction polls its budget per worklist state) straddling it —
    // relevant only in slow unoptimized builds, hence the alternative
    // bound of half the unbounded runtime.
    let bound = (2 * deadline).max(unbounded_elapsed / 2);
    assert!(
        elapsed < bound,
        "abort took {elapsed:?}, over the {bound:?} latency bound"
    );
}

#[test]
fn transition_budget_aborts_instead_of_hanging() {
    let dp = explosive_dataplane();
    let q = parse_query(&explosive_query(&dp)).unwrap();
    let ans =
        Verifier::new(&dp.net).verify(&q, &VerifyOptions::new().with_transition_budget(2_000));
    assert!(
        matches!(
            ans.outcome,
            Outcome::Aborted(AbortReason::TransitionBudgetExceeded)
        ),
        "expected a transition-budget abort, got {:?}",
        ans.outcome
    );
    assert!(
        ans.stats.sat_transitions > 2_000,
        "abort must record the transition count that blew the cap"
    );
}

#[test]
fn cancelled_batch_preserves_order_and_answers_every_slot() {
    let dp = explosive_dataplane();
    let name = |i: usize| dp.net.topology.router(dp.edge_routers[i]).name.clone();
    let texts: Vec<String> = (1..6)
        .map(|i| format!("<ip> [.#{}] .* [.#{}] <ip> 1", name(0), name(i)))
        .collect();
    let queries: Vec<_> = texts.iter().map(|t| parse_query(t).unwrap()).collect();

    let token = CancelToken::new();
    token.cancel();
    let session = SessionBuilder::new().threads(4).cancel(token).open(dp.net);
    let answers = session.verify_batch(&queries);
    assert_eq!(answers.len(), queries.len(), "one answer per query slot");
    for (i, a) in answers.iter().enumerate() {
        assert!(
            matches!(a.outcome, Outcome::Aborted(AbortReason::Cancelled)),
            "slot {i}: {:?}",
            a.outcome
        );
    }
}

#[test]
fn stats_json_round_trips_through_the_parser() {
    let net = aalwines::examples::paper_network();
    let q = parse_query("<ip> [.#v0] .* [v3#.] <ip> 0").unwrap();
    let answers = aalwines::Session::open(net).verify_batch(&[q]);

    let stats_json = answers[0].stats.to_json();
    let parsed = formats::json::parse(&stats_json).expect("EngineStats::to_json is valid JSON");
    for key in [
        "rulesOver",
        "rulesRemoved",
        "satTransitions",
        "worklistPops",
        "underRuns",
        "totalMillis",
    ] {
        assert!(parsed.get(key).is_some(), "missing stats key {key}");
    }
    assert!(
        parsed.get("aborted").is_some(),
        "aborted key present (null)"
    );

    let mut builder = aalwines::SummaryBuilder::new();
    for a in &answers {
        builder.add(a);
    }
    let summary = builder.finish();
    let summary_json = summary.to_json();
    let parsed = formats::json::parse(&summary_json).expect("BatchSummary::to_json is valid JSON");
    assert_eq!(
        parsed.get("total").and_then(formats::json::Value::as_f64),
        Some(1.0)
    );
    assert_eq!(
        parsed
            .get("satisfied")
            .and_then(formats::json::Value::as_f64),
        Some(1.0)
    );
    for key in ["constructMillis", "solveMillis", "totalMillis"] {
        let pct = parsed.get(key).expect(key);
        assert!(pct.get("p50").is_some() && pct.get("p95").is_some() && pct.get("max").is_some());
    }
}

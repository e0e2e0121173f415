//! Benchmarks for the full verification pipeline and its design-choice
//! ablations on a Zoo-like network:
//!
//! * the Dual engine vs the Moped-style baseline,
//! * the weighted engine's overhead per quantity,
//! * the Moped filter-expansion cost in isolation.
//!
//! Plain harness (no external bench framework): each case is timed with
//! `Instant` over a fixed number of iterations after a warmup pass.
//!
//! With `--json` (after `--`), additionally writes `BENCH_pipeline.json`
//! at the workspace root: the same cases, with "before" numbers recorded
//! once on this machine at the pre-dense-index seed commit so the
//! end-to-end pipeline can be checked for regressions. The commit hash
//! for the "after" run comes from the `BENCH_COMMIT` env var. Format
//! documented in DESIGN.md.

use aalwines::moped::{expand_filters, MopedEngine};
use aalwines::telemetry::JsonObject;
use aalwines::{AtomicQuantity, Engine, Outcome, Verifier, VerifyOptions, WeightSpec};
use pdaal::Unweighted;
use query::{compile, parse_query};
use std::collections::HashSet;
use std::time::Instant;
use topogen::lsp::{build_mpls_dataplane, Dataplane, LspConfig};
use topogen::zoo::{zoo_like, ZooConfig};

fn workload() -> (Dataplane, Vec<query::Query>) {
    let topo = zoo_like(&ZooConfig {
        routers: 40,
        avg_degree: 3.0,
        seed: 0xBE,
    });
    let dp = build_mpls_dataplane(
        topo,
        &LspConfig {
            edge_routers: 8,
            max_pairs: 56,
            protect: true,
            service_chains: 60,
            seed: 0xBF,
        },
    );
    let queries = topogen::queries::figure4_queries(&dp, 6, 0xC0)
        .iter()
        .map(|q| parse_query(q).expect("generated queries parse"))
        .collect();
    (dp, queries)
}

/// Time `f` over `iters` individually sampled iterations (after one
/// warmup call); returns the *median* seconds per iteration and prints
/// a row. Median, not mean: these cases run for single-digit
/// milliseconds, where one scheduler hiccup on a shared machine can
/// shift a 10-iteration mean by 2x.
fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = samples.len() / 2;
    let per_iter = if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    };
    println!(
        "{name:<44} {:>12.3} ms/iter median  ({iters} iters)",
        per_iter * 1e3
    );
    per_iter
}

/// A larger query set for the batch-cache cases: ≥32 *distinct* queries
/// over the same dataplane (`figure4_queries` samples with replacement,
/// so generate extra and deduplicate).
fn batch_workload() -> (Dataplane, Vec<query::Query>) {
    let (dp, _) = workload();
    let mut seen = HashSet::new();
    let queries: Vec<query::Query> = topogen::queries::figure4_queries(&dp, 96, 0xC1)
        .into_iter()
        .filter(|q| seen.insert(q.clone()))
        .take(36)
        .map(|q| parse_query(&q).expect("generated queries parse"))
        .collect();
    assert!(
        queries.len() >= 32,
        "batch workload needs >=32 distinct queries, got {}",
        queries.len()
    );
    (dp, queries)
}

/// Canonical rendering of an outcome for identity checks: a witness's
/// `failed_links` set has no stable Debug order, so sort it first.
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

/// Answer every query on `verifier`, returning canonical outcome
/// renderings and the total answer-cache hits observed.
fn batch_outcomes(verifier: &Verifier<'_>, queries: &[query::Query]) -> (Vec<String>, usize) {
    let mut hits = 0usize;
    let reprs = queries
        .iter()
        .map(|q| {
            let a = verifier.verify(q, &VerifyOptions::new());
            hits += a.stats.cache_hits;
            outcome_repr(&a.outcome)
        })
        .collect();
    (reprs, hits)
}

/// The batch-cache identity tripwire: a cold caching engine and a warm
/// one must answer every query identically to a cache-free engine, and
/// the warm pass must actually hit the cache. Returns the warm hit
/// count (for reporting).
fn batch_cache_smoke(dp: &Dataplane, queries: &[query::Query]) -> usize {
    let uncached: Vec<String> = queries
        .iter()
        .map(|q| {
            let v = Verifier::new(&dp.net).without_cache();
            outcome_repr(&v.verify(q, &VerifyOptions::new()).outcome)
        })
        .collect();
    let cached = Verifier::new(&dp.net).with_cache_size(256);
    let (cold, _) = batch_outcomes(&cached, queries);
    let (warm, warm_hits) = batch_outcomes(&cached, queries);
    for (i, (u, c)) in uncached.iter().zip(cold.iter()).enumerate() {
        if u != c {
            eprintln!("q{i} uncached: {u}");
            eprintln!("q{i} cold    : {c}");
        }
    }
    assert_eq!(uncached, cold, "cold cached batch diverges from uncached");
    assert_eq!(uncached, warm, "warm cached batch diverges from uncached");
    assert!(warm_hits > 0, "warm batch never hit the answer cache");
    println!(
        "batch-cache smoke: {} queries, outcomes identical, {warm_hits} warm cache hits",
        queries.len()
    );
    warm_hits
}

/// Per-case means in ms/iter measured on this machine at the seed
/// commit (98e631e), i.e. before the dense-index saturation rework.
/// Kept as data, not re-measured: the seed implementation of the full
/// pipeline no longer exists in-tree, only its saturation core does
/// (as `pdaal::reference`).
const SEED_BASELINE_MS: &[(&str, f64)] = &[
    ("engine/dual", 6.306),
    ("engine/moped", 10.084),
    ("engine/weighted_Failures", 7.274),
    ("engine/weighted_Hops", 6.793),
    ("engine/weighted_Distance", 6.223),
    ("engine/weighted_Tunnels", 6.811),
    ("moped/filter_expansion", 1.399),
];

fn write_json(results: &[(String, f64)]) {
    let objs: Vec<String> = results
        .iter()
        .map(|(name, per_iter)| {
            let mut o = JsonObject::new();
            o.string("name", name);
            let after_ms = per_iter * 1e3;
            o.number("afterMedianMs", after_ms);
            match SEED_BASELINE_MS.iter().find(|(n, _)| n == name) {
                Some((_, before_ms)) => {
                    // Seed baselines are 10-iter means (the harness at
                    // that commit had no median), so the ratio is an
                    // approximate regression signal, not a gate.
                    o.string("baseline", "seed");
                    o.number("beforeMeanMs", *before_ms);
                    o.number("ratio", after_ms / before_ms);
                }
                // Cases that postdate the seed commit have nothing to
                // regress against; say so explicitly instead of leaving
                // a bare null that reads like a measurement failure.
                None => o.string("baseline", "none"),
            }
            o.finish()
        })
        .collect();
    let mut root = JsonObject::new();
    root.string("schema", "aalwines-bench/pipeline/v1");
    root.string(
        "commit",
        &std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    );
    root.string("beforeCommit", "98e631e");
    root.raw("cases", &format!("[{}]", objs.join(",")));
    let json = root.finish();
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(out, format!("{json}\n")).expect("write BENCH_pipeline.json");
    println!("wrote {out}");
}

fn write_batch_json(
    queries: usize,
    uncached_s: f64,
    shared_s: f64,
    cached_s: f64,
    outcomes_identical: bool,
) {
    let mut root = JsonObject::new();
    root.string("schema", "aalwines-bench/batch/v1");
    root.string(
        "commit",
        &std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    );
    root.number("queries", queries as f64);
    root.number("uncachedMedianMs", uncached_s * 1e3);
    root.number("sharedPrecompMedianMs", shared_s * 1e3);
    root.number("cachedMedianMs", cached_s * 1e3);
    root.number("speedup", uncached_s / cached_s);
    root.boolean("outcomesIdentical", outcomes_identical);
    let json = root.finish();
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json");
    std::fs::write(out, format!("{json}\n")).expect("write BENCH_batch.json");
    println!("wrote {out}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json_mode = args.iter().any(|a| a == "--json");
    if args.iter().any(|a| a == "--smoke") {
        // CI tripwire: only the (fast) batch-cache identity check.
        let (dp, batch_queries) = batch_workload();
        batch_cache_smoke(&dp, &batch_queries);
        return;
    }
    // More samples for the committed artifact; the interactive table
    // keeps the historical 10-iteration cadence.
    let iters = if json_mode { 30 } else { 10 };
    let mut results: Vec<(String, f64)> = Vec::new();
    let mut record = |name: &str, per_iter: f64| results.push((name.to_string(), per_iter));

    let (dp, queries) = workload();
    // Cache off for the engine cases: they measure the full
    // compile+solve pipeline per query, comparable to the seed
    // baselines. Caching gets its own cases below.
    let verifier = Verifier::new(&dp.net).without_cache();

    println!("== engines ==");
    record(
        "engine/dual",
        bench("engine/dual", iters, || {
            for q in &queries {
                verifier.verify(q, &VerifyOptions::new());
            }
        }),
    );
    // Hoist engine construction like the dual case above hoists its
    // Verifier: per-iteration work is compile + verify, not the
    // query-independent validation/precomputation.
    let moped = MopedEngine::new(&dp.net);
    record(
        "engine/moped",
        bench("engine/moped", iters, || {
            for q in &queries {
                let cq = compile(q, &dp.net);
                moped.verify_compiled(&cq, &VerifyOptions::new());
            }
        }),
    );
    for quantity in [
        AtomicQuantity::Failures,
        AtomicQuantity::Hops,
        AtomicQuantity::Distance,
        AtomicQuantity::Tunnels,
    ] {
        let opts = VerifyOptions::new().with_weights(WeightSpec::single(quantity));
        let name = format!("engine/weighted_{quantity}");
        record(
            &name,
            bench(&name, iters, || {
                for q in &queries {
                    verifier.verify(q, &opts);
                }
            }),
        );
    }

    println!("== moped filter expansion ==");
    // Build the initial automaton once per query; measure only the
    // symbolic→explicit expansion that the Moped boundary requires.
    let automata: Vec<pdaal::PAutomaton<Unweighted>> = queries
        .iter()
        .map(|q| {
            let cq = compile(q, &dp.net);
            aalwines::construction::build(
                &dp.net,
                &cq,
                aalwines::construction::ApproxMode::Over,
                &|_| Unweighted,
            )
            .initial
        })
        .collect();
    record(
        "moped/filter_expansion",
        bench("moped/filter_expansion", iters, || {
            for aut in &automata {
                expand_filters(aut);
            }
        }),
    );

    println!("== batch answer cache ==");
    let (bdp, batch_queries) = batch_workload();
    // Identity first (untimed): cached answers must match uncached ones
    // exactly; panics if they don't, so `outcomesIdentical` below is
    // only ever written as true.
    batch_cache_smoke(&bdp, &batch_queries);
    let batch_iters = if json_mode { 9 } else { 5 };
    // A fresh engine per batch recomputes the network precomp and
    // verifies every query from scratch.
    let uncached_s = bench("batch/uncached", batch_iters, || {
        let v = Verifier::new(&bdp.net).without_cache();
        for q in &batch_queries {
            v.verify(q, &VerifyOptions::new());
        }
    });
    record("batch/uncached", uncached_s);
    // Ablation: shared precomp, but no answer cache.
    let shared = Verifier::new(&bdp.net).without_cache();
    let shared_s = bench("batch/shared-precomp", batch_iters, || {
        for q in &batch_queries {
            shared.verify(q, &VerifyOptions::new());
        }
    });
    record("batch/shared-precomp", shared_s);
    // Full caching, warmed: every query is a pure cache hit.
    let cached = Verifier::new(&bdp.net).with_cache_size(256);
    let cached_s = bench("batch/cached", batch_iters, || {
        for q in &batch_queries {
            cached.verify(q, &VerifyOptions::new());
        }
    });
    record("batch/cached", cached_s);
    println!(
        "batch cache speedup: {:.2}x over uncached ({} distinct queries)",
        uncached_s / cached_s,
        batch_queries.len()
    );

    if json_mode {
        write_json(&results);
        write_batch_json(batch_queries.len(), uncached_s, shared_s, cached_s, true);
    }
}

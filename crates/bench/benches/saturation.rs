//! Micro-benchmarks for the pdaal `post*` saturation engine: rule-count
//! scaling, the overhead of the weight domains (unweighted / scalar
//! min-plus / lexicographic vectors), the overhead of budget checks in
//! the worklist loop (acceptance bar < 2%), and — since the dense-index
//! rework — a head-to-head against the frozen seed-fidelity
//! implementation in `pdaal::reference`.
//!
//! Plain harness (no external bench framework): each case is timed with
//! `Instant` over a fixed number of iterations after a warmup pass.
//!
//! Modes (pass after `--`, e.g. `cargo bench -p aalwines-bench --bench
//! saturation -- --json`):
//!
//! * default       — print the micro-benchmark table to stdout.
//! * `--json`      — run the before/after workloads (paper network,
//!   Zoo-like network, synthetic k=2 dual construction) and write
//!   `BENCH_saturation.json`; the commit hash is taken from the
//!   `BENCH_COMMIT` env var. Format documented in DESIGN.md.
//! * `--smoke`     — one small paper-network case, dense vs reference;
//!   exits non-zero only on a panic or a miscount. Used by CI as a
//!   regression tripwire, not a timing gate.

use aalwines::construction::{build, ApproxMode, Construction};
use aalwines::examples::paper_network;
use aalwines::telemetry::JsonObject;
use chaos::paper_queries;
use detrand::DetRng;
use pdaal::budget::Budget;
use pdaal::poststar::{post_star, post_star_budgeted, post_star_with_stats, SaturationStats};
use pdaal::reference::post_star_ref;
use pdaal::{
    AutState, MinTotal, MinVector, PAutomaton, Pds, RuleOp, StateId, SymbolId, Unweighted, Weight,
};
use query::compile;
use std::time::Instant;
use topogen::lsp::{build_mpls_dataplane, LspConfig};
use topogen::zoo::{zoo_like, ZooConfig};

/// A random sparse PDS shaped like the verification workloads: mostly
/// swaps, some pushes/pops, ~4 rules per (state, symbol) head.
fn random_pds<W: Weight>(
    states: u32,
    symbols: u32,
    rules: usize,
    seed: u64,
    mk: impl Fn(u64) -> W,
) -> Pds<W> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut pds = Pds::new(states, symbols);
    for i in 0..rules {
        let from = StateId(rng.gen_range(0..states));
        let sym = SymbolId(rng.gen_range(0..symbols));
        let to = StateId(rng.gen_range(0..states));
        let op = match rng.gen_range(0u32..10) {
            0 | 1 => RuleOp::Pop,
            2 | 3 => RuleOp::Push(
                SymbolId(rng.gen_range(0..symbols)),
                SymbolId(rng.gen_range(0..symbols)),
            ),
            _ => RuleOp::Swap(SymbolId(rng.gen_range(0..symbols))),
        };
        pds.add_rule(from, sym, to, op, mk(i as u64 % 7), i as u64);
    }
    pds
}

fn single_config<W: Weight>(pds: &Pds<W>, word_len: usize) -> PAutomaton<W> {
    let mut aut = PAutomaton::new(pds);
    let mut prev = AutState(0);
    for i in 0..word_len {
        let next = aut.add_state();
        aut.add_edge(
            prev,
            SymbolId((i as u32) % pds.num_symbols()),
            next,
            W::one(),
        );
        prev = next;
    }
    aut.set_final(prev);
    aut
}

/// Time `f` over `iters` iterations (after one warmup call); returns
/// mean seconds per iteration and prints a row.
fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    let per_iter = start.elapsed().as_secs_f64() / iters as f64;
    println!(
        "{name:<44} {:>12.3} ms/iter  ({iters} iters)",
        per_iter * 1e3
    );
    per_iter
}

/// Median nanoseconds per iteration over `iters` individually timed
/// runs (after one warmup call). Medians, not means: a single scheduler
/// hiccup should not decide a before/after comparison.
fn median_ns<R>(iters: u32, mut f: impl FnMut() -> R) -> f64 {
    std::hint::black_box(f());
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

// ---------------------------------------------------------------------------
// Before/after workloads (--json / --smoke)
// ---------------------------------------------------------------------------

/// One before/after workload: a batch of constructions saturated with
/// `post*` per iteration.
struct Workload {
    name: &'static str,
    /// (pds, initial) pairs saturated with post* each iteration.
    post: Vec<Construction<MinTotal>>,
    iters: u32,
}

fn paper_workload(iters: u32) -> Workload {
    let net = paper_network();
    let post = paper_queries()
        .iter()
        .map(|q| {
            let cq = compile(q, &net);
            build(&net, &cq, ApproxMode::Over, &|_| MinTotal(1))
        })
        .collect();
    Workload {
        name: "paper_network",
        post,
        iters,
    }
}

fn zoo_workload(iters: u32) -> Workload {
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
    let post = topogen::queries::figure4_queries(&dp, 4, 0xBEEF03)
        .iter()
        .map(|q| {
            let q = query::parse_query(q).expect("generated queries parse");
            let cq = compile(&q, &dp.net);
            build(&dp.net, &cq, ApproxMode::Over, &|_| MinTotal(1))
        })
        .collect();
    Workload {
        name: "zoo_like",
        post,
        iters,
    }
}

/// Synthetic dual run: a generated network whose queries are forced to
/// failure budget k = 2, each built under BOTH the over- and the
/// under-approximation (the two halves of the dual engine).
fn synthetic_k2_dual_workload(iters: u32) -> Workload {
    let topo = zoo_like(&ZooConfig {
        routers: 16,
        avg_degree: 3.0,
        seed: 0xD001,
    });
    let dp = build_mpls_dataplane(
        topo,
        &LspConfig {
            edge_routers: 5,
            max_pairs: 16,
            protect: true,
            service_chains: 12,
            seed: 0xD002,
        },
    );
    let mut post = Vec::new();
    for q in topogen::queries::figure4_queries(&dp, 3, 0xD003) {
        let q = query::parse_query(&q).expect("generated queries parse");
        let mut cq = compile(&q, &dp.net);
        cq.max_failures = 2;
        for mode in [ApproxMode::Over, ApproxMode::Under] {
            post.push(build(&dp.net, &cq, mode, &|_| MinTotal(1)));
        }
    }
    Workload {
        name: "synthetic_k2_dual",
        post,
        iters,
    }
}

/// Run one workload batch with the dense implementation; returns summed
/// stats across the batch.
fn run_dense(w: &Workload) -> SaturationStats {
    let mut total = SaturationStats::default();
    for c in &w.post {
        let (_, s) = post_star_with_stats(&c.pds, &c.initial);
        total.transitions += s.transitions;
        total.worklist_pops += s.worklist_pops;
        total.mid_states += s.mid_states;
        total.worklist_requeues_avoided += s.worklist_requeues_avoided;
    }
    total
}

/// Same batch through the frozen seed-fidelity reference.
fn run_reference(w: &Workload) -> SaturationStats {
    let mut total = SaturationStats::default();
    for c in &w.post {
        let (_, s) = post_star_ref(&c.pds, &c.initial);
        total.transitions += s.transitions;
        total.worklist_pops += s.worklist_pops;
        total.mid_states += s.mid_states;
    }
    total
}

/// Measure one workload both ways and render its JSON object. Also
/// cross-checks the two implementations so a benchmark run doubles as a
/// correctness probe; a miscount aborts the whole bench.
fn measure_workload(w: &Workload) -> String {
    let dense = run_dense(w);
    let reference = run_reference(w);
    assert_eq!(
        dense.transitions, reference.transitions,
        "{}: dense and reference disagree on saturated size",
        w.name
    );
    assert_eq!(dense.mid_states, reference.mid_states, "{}", w.name);
    assert!(
        dense.worklist_pops <= reference.worklist_pops,
        "{}: dense popped more than the reference ({} > {})",
        w.name,
        dense.worklist_pops,
        reference.worklist_pops
    );

    let before = median_ns(w.iters, || run_reference(w));
    let after = median_ns(w.iters, || run_dense(w));
    let speedup = before / after;
    println!(
        "{:<24} before {:>10.0} ns  after {:>10.0} ns  speedup {:.2}x  pops {} -> {}",
        w.name, before, after, speedup, reference.worklist_pops, dense.worklist_pops
    );

    let mut o = JsonObject::new();
    o.string("name", w.name);
    o.number("constructions", w.post.len() as f64);
    o.number("iters", w.iters as f64);
    o.number("beforeMedianNs", before);
    o.number("afterMedianNs", after);
    o.number("speedup", speedup);
    o.number("transitions", dense.transitions as f64);
    o.number("midStates", dense.mid_states as f64);
    o.number("worklistPopsBefore", reference.worklist_pops as f64);
    o.number("worklistPopsAfter", dense.worklist_pops as f64);
    o.number(
        "worklistRequeuesAvoided",
        dense.worklist_requeues_avoided as f64,
    );
    o.finish()
}

fn json_main() {
    let workloads = [
        paper_workload(40),
        zoo_workload(20),
        synthetic_k2_dual_workload(20),
    ];
    println!("== before/after (reference vs dense), median over N iters ==");
    let objs: Vec<String> = workloads.iter().map(measure_workload).collect();

    let mut root = JsonObject::new();
    root.string("schema", "aalwines-bench/saturation/v3");
    root.string(
        "commit",
        &std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    );
    root.string(
        "before",
        "pdaal::reference (frozen seed-fidelity implementation)",
    );
    root.string("after", "pdaal::poststar (dense-index)");
    // Recorded so numbers from different hosts are comparable.
    root.number(
        "hostCores",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    root.raw("workloads", &format!("[{}]", objs.join(",")));
    let json = root.finish();
    // Benches run with the package as cwd; anchor the artifact at the
    // workspace root where the acceptance tooling looks for it.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_saturation.json");
    std::fs::write(out, format!("{json}\n")).expect("write BENCH_saturation.json");
    println!("wrote {out}");
}

/// CI tripwire: one small paper-network case, dense vs reference. Exits
/// non-zero only on a panic or a miscount — never on timing, so a slow
/// shared runner cannot flake the build.
fn smoke_main() {
    let net = paper_network();
    let queries = paper_queries();
    let mut checked = 0usize;
    for q in queries.iter().take(2) {
        let cq = compile(q, &net);
        let cons = build(&net, &cq, ApproxMode::Over, &|_| MinTotal(1));
        let (_, d) = post_star_with_stats(&cons.pds, &cons.initial);
        let (_, r) = post_star_ref(&cons.pds, &cons.initial);
        if d.transitions != r.transitions || d.mid_states != r.mid_states {
            eprintln!(
                "smoke FAIL: dense {}t/{}m vs reference {}t/{}m",
                d.transitions, d.mid_states, r.transitions, r.mid_states
            );
            std::process::exit(1);
        }
        if d.worklist_pops > r.worklist_pops {
            eprintln!(
                "smoke FAIL: dense popped more than reference ({} > {})",
                d.worklist_pops, r.worklist_pops
            );
            std::process::exit(1);
        }
        checked += 1;
    }
    println!("smoke OK: {checked} cases, dense == reference");
}

fn default_main() {
    // Rule counts stay below ~13k on 200 states / 50 symbols: past that
    // density the random PDS saturates the complete automaton and a
    // single post* jumps from sub-millisecond to minutes.
    println!("== poststar/rules scaling ==");
    for &rules in &[1_000usize, 5_000, 12_000] {
        let pds = random_pds(200, 50, rules, 42, |_| Unweighted);
        let init = single_config(&pds, 3);
        bench(&format!("poststar/rules/{rules}"), 100, || {
            post_star(&pds, &init)
        });
    }

    println!("== dense vs frozen reference ==");
    let pds = random_pds(200, 50, 5_000, 43, MinTotal);
    let init = single_config(&pds, 3);
    bench("reference/post_star", 100, || post_star_ref(&pds, &init));
    bench("dense/post_star", 100, || post_star_with_stats(&pds, &init));

    println!("== weight domains ==");
    let unweighted = random_pds(200, 50, 5_000, 44, |_| Unweighted);
    let scalar = random_pds(200, 50, 5_000, 44, MinTotal);
    let vector = random_pds(200, 50, 5_000, 44, |w| MinVector(vec![w, w % 3, w % 5]));
    let i0 = single_config(&unweighted, 3);
    let i1 = single_config(&scalar, 3);
    let i2 = single_config(&vector, 3);
    bench("weights/unweighted", 100, || post_star(&unweighted, &i0));
    bench("weights/min_total", 100, || post_star(&scalar, &i1));
    bench("weights/min_vector3", 100, || post_star(&vector, &i2));

    println!("== budget-check overhead (acceptance: < 2%) ==");
    // Seed 42 matches the scaling section: near the density cliff the
    // saturated size is seed-sensitive, and this seed is known-moderate.
    let pds = random_pds(200, 50, 12_000, 42, |_| Unweighted);
    let init = single_config(&pds, 3);
    // Best-of-3 interleaved rounds so scheduler noise cannot fake (or
    // mask) a sub-2% delta; the generous budget never fires, so the
    // budgeted run pays only the per-tick check.
    let mut plain = f64::INFINITY;
    let mut budgeted = f64::INFINITY;
    for round in 0..3 {
        plain = plain.min(bench(
            &format!("budget/unbudgeted (round {round})"),
            500,
            || post_star(&pds, &init),
        ));
        budgeted = budgeted.min(bench(
            &format!("budget/budgeted-generous (round {round})"),
            500,
            || post_star_budgeted(&pds, &init, &Budget::new().with_max_transitions(usize::MAX)),
        ));
    }
    let overhead = (budgeted - plain) / plain * 100.0;
    println!("budget overhead: {overhead:+.2}% (best-of-3, acceptance < 2%)");
}

fn main() {
    let mode = std::env::args().nth(1);
    match mode.as_deref() {
        Some("--json") => json_main(),
        Some("--smoke") => smoke_main(),
        _ => default_main(),
    }
}

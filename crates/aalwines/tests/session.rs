//! Acceptance tests for the resident [`Session`] and its incremental
//! re-verification: footprint-disjoint deltas must keep cached answers
//! byte-identical, and incremental post-delta answers must equal cold
//! re-verification under randomized delta storms.

use aalwines::examples::{paper_network_with_map, PAPER_QUERIES};
use aalwines::lift::trace_pairs;
use aalwines::{Delta, Engine, Outcome, Session, Verifier, VerifyOptions};
use detrand::DetRng;
use netmodel::{feasible_failures, LabelTable, LinkId, Network, Op, RoutingEntry, Topology};
use query::{parse_query, Query};

/// Two disjoint islands in one dataplane. Island A (`a0 → a1`) and
/// island B (`b0 → b1`) have no links or rules in common, so a query
/// confined to island A has a footprint disjoint from every island-B
/// link.
fn two_islands() -> (Network, [LinkId; 3], [LinkId; 3]) {
    let mut t = Topology::new();
    let ain = t.add_router("a_in", None);
    let a0 = t.add_router("a0", None);
    let a1 = t.add_router("a1", None);
    let aout = t.add_router("a_out", None);
    let bin = t.add_router("b_in", None);
    let b0 = t.add_router("b0", None);
    let b1 = t.add_router("b1", None);
    let bout = t.add_router("b_out", None);

    let f0 = t.add_link(ain, "o0", a0, "i0", 1);
    let f1 = t.add_link(a0, "o1", a1, "i1", 1);
    let f2 = t.add_link(a1, "o2", aout, "i2", 1);
    let g0 = t.add_link(bin, "o0", b0, "i0", 1);
    let g1 = t.add_link(b0, "o1", b1, "i1", 1);
    let g2 = t.add_link(b1, "o2", bout, "i2", 1);

    let mut labels = LabelTable::new();
    let sa = labels.mpls_bos("sa");
    let sb = labels.mpls_bos("sb");
    let ip = labels.ip("ip1");

    let mut net = Network::new(t, labels);
    let rule = |out: LinkId, ops: Vec<Op>| RoutingEntry {
        out,
        ops: ops.into(),
    };
    net.add_rule(f0, ip, 1, rule(f1, vec![Op::Push(sa)]));
    net.add_rule(f1, sa, 1, rule(f2, vec![Op::Pop]));
    net.add_rule(g0, ip, 1, rule(g1, vec![Op::Push(sb)]));
    net.add_rule(g1, sb, 1, rule(g2, vec![Op::Pop]));
    assert!(net.validate().is_empty());
    (net, [f0, f1, f2], [g0, g1, g2])
}

fn signature(answer: &aalwines::Answer) -> String {
    format!("{:?}", answer.outcome)
}

#[test]
fn footprint_disjoint_deltas_keep_cached_answers_byte_identical() {
    let (net, _a_links, [g0, g1, _g2]) = two_islands();
    let mut session = Session::open(net);
    let q = parse_query("<ip> [.#a0] .* [a1#.] <ip> 0").unwrap();

    let first = session.verify(&q);
    assert!(first.outcome.is_satisfied(), "island A path must verify");
    assert!(first.stats.cache_misses > 0, "cold call must miss");
    let baseline = signature(&first);
    let cached = session.stats().cache_entries;
    assert!(cached > 0);

    // A storm of island-B deltas: every one must retain every cached
    // answer (the island-A query's footprint cannot contain a B link)
    // and leave the answer byte-identical — served entirely from cache.
    let sb = session.network().labels.get("sb").unwrap();
    let ip = session.network().labels.get("ip1").unwrap();
    let b_deltas = vec![
        Delta::AddRule {
            in_link: g0,
            label: ip,
            priority: 2,
            entry: RoutingEntry {
                out: g1,
                ops: vec![Op::Push(sb)].into(),
            },
        },
        Delta::SetPriority {
            in_link: g0,
            label: ip,
            from: 2,
            to: 3,
        },
        Delta::LinkDown(g1),
        Delta::LinkUp(g1),
        Delta::RemoveRule {
            in_link: g0,
            label: ip,
            priority: 3,
            entry: RoutingEntry {
                out: g1,
                ops: vec![Op::Push(sb)].into(),
            },
        },
    ];
    for delta in &b_deltas {
        let report = session.apply_delta(delta);
        assert!(report.applied, "{delta:?}");
        assert_eq!(
            report.invalidated, 0,
            "disjoint delta invalidated: {delta:?}"
        );
        assert_eq!(report.retained, cached, "{delta:?}");

        let again = session.verify(&q);
        assert_eq!(again.stats.cache_misses, 0, "{delta:?} forced a rebuild");
        assert!(again.stats.cache_hits > 0, "{delta:?} must hit the cache");
        assert_eq!(signature(&again), baseline, "{delta:?} changed the answer");
    }

    // Control: a delta *inside* the footprint must invalidate.
    let report = session.apply_delta(&Delta::LinkDown(_a_links[1]));
    assert!(report.applied);
    assert!(
        report.invalidated > 0,
        "a footprint-intersecting delta must invalidate"
    );
    let after = session.verify(&q);
    assert_ne!(
        signature(&after),
        baseline,
        "severing the island-A path must change the answer"
    );
}

#[test]
fn reverified_counts_only_recomputed_watches() {
    let (net, [_f0, f1, _f2], [_g0, g1, _g2]) = two_islands();
    let mut session = Session::open(net);
    session.watch("<ip> [.#a0] .* [a1#.] <ip> 0").unwrap();
    session.watch("<ip> [.#a0] .* <ip> 1").unwrap();

    // Narrow: an island-B delta evicts no watched answer, so every watch
    // is answered from cache and nothing counts as re-verified.
    let report = session.apply_delta(&Delta::LinkDown(g1));
    assert!(report.applied);
    assert_eq!(report.invalidated, 0);
    assert_eq!(report.reverified, 0, "every watch answered from cache");

    // Broader: with an island-B watch too, restoring the link evicts and
    // recomputes that watch alone ...
    session.watch("<ip> [.#b0] .* [b1#.] <ip> 0").unwrap();
    let report = session.apply_delta(&Delta::LinkUp(g1));
    assert!(report.applied);
    assert_eq!(report.reverified, 1, "only the island-B watch recomputed");

    // ... and downing the island-A core link evicts both island-A ones.
    let report = session.apply_delta(&Delta::LinkDown(f1));
    assert!(report.applied);
    assert_eq!(report.reverified, 2, "both island-A watches recomputed");
    assert!(
        !report.changed.is_empty(),
        "severing island A changes answers"
    );
}

/// Draw one applicable random delta against the current dataplane.
fn random_delta(net: &Network, rng: &mut DetRng) -> Delta {
    // Flatten the current rules so Remove/SetPriority target real keys
    // (in key order: the table's own iteration order differs per run).
    let mut keys: Vec<_> = net.routing_keys().collect();
    keys.sort_unstable();
    let mut rules: Vec<(LinkId, netmodel::LabelId, usize, RoutingEntry)> = Vec::new();
    for (in_link, label) in keys {
        for (gi, group) in net.groups(in_link, label).iter().enumerate() {
            for entry in group {
                rules.push((in_link, label, gi + 1, entry.clone()));
            }
        }
    }
    let links = net.topology.num_links();
    // Rule-targeting arms degrade to link flaps on a rule-less network.
    match rng.gen_range(0..5usize) {
        0 if !rules.is_empty() => {
            let (in_link, label, priority, entry) = rules[rng.gen_range(0..rules.len())].clone();
            Delta::RemoveRule {
                in_link,
                label,
                priority,
                entry,
            }
        }
        1 if !rules.is_empty() => {
            // Duplicate an existing rule at a backup priority: always
            // well-formed (same key, same adjacency).
            let (in_link, label, _, entry) = rules[rng.gen_range(0..rules.len())].clone();
            Delta::AddRule {
                in_link,
                label,
                priority: rng.gen_range(1..4usize),
                entry,
            }
        }
        2 if !rules.is_empty() => {
            let (in_link, label, priority, _) = rules[rng.gen_range(0..rules.len())].clone();
            Delta::SetPriority {
                in_link,
                label,
                from: priority,
                to: rng.gen_range(1..4usize),
            }
        }
        3 => Delta::LinkDown(LinkId(rng.gen_range(0..links as usize) as u32)),
        _ => Delta::LinkUp(LinkId(rng.gen_range(0..links as usize) as u32)),
    }
}

#[test]
fn incremental_answers_equal_cold_reverification_under_delta_storm() {
    let (net, _map) = paper_network_with_map();
    let mut session = Session::open(net);
    let queries: Vec<Query> = PAPER_QUERIES
        .iter()
        .map(|q| parse_query(q).unwrap())
        .collect();

    let mut rng = DetRng::seed_from_u64(0xA41);
    let mut applied = 0usize;
    let mut replayed_hits = 0usize;
    for step in 0..100 {
        let delta = random_delta(session.network(), &mut rng);
        let report = session.apply_delta(&delta);
        if report.applied {
            applied += 1;
        }
        // Every incremental answer (possibly served from a retained
        // cache entry) must equal a cold engine on a fresh copy of the
        // mutated dataplane — witness and all.
        let cold_net = session.network().clone();
        let cold_engine = Verifier::new(&cold_net).without_cache();
        for q in &queries {
            let warm = session.verify(q);
            let cold = cold_engine.verify(q, &VerifyOptions::new());
            assert_eq!(
                signature(&warm),
                signature(&cold),
                "step {step} ({:?}): incremental diverged from cold rebuild",
                delta.kind()
            );
            // A witness served from an entry that survived the delta
            // must still replay on the *post-delta* dataplane within the
            // failure bound — it would not if its footprint under-covered.
            if let (true, Outcome::Satisfied(w)) = (warm.stats.cache_hits > 0, &warm.outcome) {
                replayed_hits += 1;
                let failed = feasible_failures(session.network(), &trace_pairs(&w.trace))
                    .unwrap_or_else(|| panic!("step {step}: retained witness does not replay"));
                assert!(failed.len() as u32 <= q.max_failures, "step {step}");
            }
        }
    }
    assert!(
        replayed_hits > 0,
        "the storm never served a retained witness"
    );
    assert!(
        applied > 50,
        "the storm should mostly apply ({applied}/100)"
    );
    let stats = session.stats();
    assert_eq!(stats.deltas_applied, applied);
    assert!(stats.invalidated_total + stats.retained_total > 0);
}

/// The invariant of the resident lint report: after *every* delta of a
/// 200-step randomized storm, it must be byte-identical to a cold
/// `dplint` run on the mutated network. Three fixed seeds keep the storm deterministic while
/// covering different delta interleavings.
#[test]
fn incremental_lint_is_byte_identical_under_delta_storms() {
    for seed in [0x51A7u64, 0xBEE5, 0x1D10] {
        let (net, _map) = paper_network_with_map();
        let mut session = Session::open(net);
        // Prime the resident lint state before the storm begins.
        let primed = session.lint();
        assert_eq!(
            primed.report.to_json(),
            dplint::lint_network(session.network()).to_json(),
            "seed {seed:#x}: cold prime diverged"
        );

        let mut rng = DetRng::seed_from_u64(seed);
        let mut applied = 0usize;
        for step in 0..200 {
            let delta = random_delta(session.network(), &mut rng);
            let report = session.apply_delta(&delta);
            if report.applied {
                applied += 1;
                assert!(report.lint.is_some(), "applied delta must re-lint");
            }
            let warm = session.lint().report.to_json();
            let cold = dplint::lint_network(session.network()).to_json();
            assert_eq!(
                warm,
                cold,
                "seed {seed:#x} step {step} ({:?}): resident lint diverged from cold",
                delta.kind()
            );
        }
        assert!(
            applied > 50,
            "seed {seed:#x}: the storm should mostly apply ({applied}/200)"
        );
    }
}

//! # chaos — deterministic fault injection for the verification stack
//!
//! Operators feed AalWiNes messy inputs: truncated route tables,
//! dangling interfaces, inconsistent TE-groups. This crate perturbs a
//! well-formed [`Network`] with seeded, reproducible mutations
//! ([`MutationKind`]) and then checks that the whole pipeline stays
//! honest on every mutant (metamorphic testing in the spirit of the
//! differential self-checks McNetKAT-style verifiers use):
//!
//! * **ingestion** — [`Network::validate`] must flag every broken
//!   mutant with a typed issue, and [`Network::repair`] must leave a
//!   network with no `Error`-severity issues;
//! * **approximation soundness** — the over-approximation's answers
//!   must contain the under-approximation's: no engine may answer
//!   `Satisfied` while another answers `Unsatisfied` on the same
//!   instance (a satisfied under-approximation with an empty
//!   over-approximation would break containment);
//! * **engine agreement** — the dual [`Verifier`](aalwines::Verifier)
//!   and the [`MopedEngine`](aalwines::MopedEngine) baseline must agree
//!   on every decided instance;
//! * **witness feasibility** — every `Satisfied` answer's witness trace
//!   must replay through `netmodel`'s semantics
//!   ([`Trace::is_valid`](netmodel::Trace::is_valid)) under its failure
//!   set, with at most `k` failures;
//! * **panic freedom** — no query on any mutant may panic the process;
//!   residual panics are isolated by the batch runner and counted as
//!   violations here.
//!
//! Everything is driven by a [`DetRng`] seed, so a failing mutant is
//! reproducible bit-for-bit from the `(seed, index)` pair in its
//! violation message. Run the suite with `cargo test -p chaos`, or from
//! the CLI with `aalwines --demo --chaos-seed 1`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use aalwines::telemetry::JsonObject;
use aalwines::{Backend, Outcome, Session, SessionBuilder};
use detrand::DetRng;
use netmodel::{LabelId, LinkId, Network, Op, RoutingEntry, Severity, Topology};
use query::{parse_query, Query};

/// The kinds of faults the mutator can inject.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MutationKind {
    /// Remove a link from the topology (and every rule referencing it).
    DropLink,
    /// Add a parallel copy of an existing link.
    DuplicateLink,
    /// Point one forwarding entry at a random — possibly non-adjacent or
    /// nonexistent — outgoing link.
    CorruptNextHop,
    /// Randomly permute the priority order of one rule's TE-groups.
    ShufflePriorities,
    /// Drop a suffix of the routing table's rule keys.
    TruncateTable,
    /// Splice a label id outside the label table into one entry.
    SpliceBogusLabel,
    /// Remove a single forwarding entry.
    DropRule,
}

impl MutationKind {
    /// Every mutation kind, in a fixed order (indexable by the RNG).
    pub const ALL: [MutationKind; 7] = [
        MutationKind::DropLink,
        MutationKind::DuplicateLink,
        MutationKind::CorruptNextHop,
        MutationKind::ShufflePriorities,
        MutationKind::TruncateTable,
        MutationKind::SpliceBogusLabel,
        MutationKind::DropRule,
    ];

    /// A stable lower-case identifier (used in JSON output).
    pub fn as_str(self) -> &'static str {
        match self {
            MutationKind::DropLink => "drop-link",
            MutationKind::DuplicateLink => "duplicate-link",
            MutationKind::CorruptNextHop => "corrupt-next-hop",
            MutationKind::ShufflePriorities => "shuffle-priorities",
            MutationKind::TruncateTable => "truncate-table",
            MutationKind::SpliceBogusLabel => "splice-bogus-label",
            MutationKind::DropRule => "drop-rule",
        }
    }
}

/// One flattened forwarding rule: `(incoming link, label, priority,
/// entry)`. The flat form makes the routing table easy to perturb and
/// rebuild.
type FlatRule = (LinkId, LabelId, usize, RoutingEntry);

/// The routing table as a deterministically ordered list of flat rules
/// (the `HashMap` iteration order must not leak into seeded mutations).
fn flat_rules(net: &Network) -> Vec<FlatRule> {
    let mut keys: Vec<_> = net.routing_keys().collect();
    keys.sort_by_key(|(l, lab)| (l.index(), lab.index()));
    let mut rules = Vec::new();
    for (l, lab) in keys {
        for (gi, group) in net.groups(l, lab).iter().enumerate() {
            for entry in group {
                rules.push((l, lab, gi + 1, entry.clone()));
            }
        }
    }
    rules
}

/// Rebuild a network over `base`'s topology and labels from flat rules,
/// without well-formedness checks (mutants are allowed to be broken).
fn rebuild(base: &Network, rules: &[FlatRule]) -> Network {
    let mut net = Network::new(base.topology.clone(), base.labels.clone());
    for (l, lab, prio, entry) in rules {
        net.add_rule_unchecked(*l, *lab, *prio, entry.clone());
    }
    net
}

/// Apply one seeded mutation to `base`. Returns `None` when the
/// mutation is not applicable (e.g. dropping a link from a linkless
/// network).
pub fn mutate(base: &Network, kind: MutationKind, rng: &mut DetRng) -> Option<Network> {
    let num_links = base.topology.num_links() as usize;
    let rules = flat_rules(base);
    match kind {
        MutationKind::DropLink => {
            if num_links == 0 {
                return None;
            }
            let victim = rng.gen_range(0..num_links);
            // Dense link ids force a full rebuild: ids after the victim
            // shift down by one.
            let mut topo = Topology::new();
            for r in base.topology.routers() {
                let router = base.topology.router(r);
                topo.add_router(&router.name, router.coord);
            }
            let mut remap: Vec<Option<LinkId>> = Vec::with_capacity(num_links);
            for l in base.topology.links() {
                if l.index() == victim {
                    remap.push(None);
                    continue;
                }
                let link = base.topology.link(l);
                remap.push(Some(topo.add_link(
                    link.src,
                    &link.src_if,
                    link.dst,
                    &link.dst_if,
                    link.distance,
                )));
            }
            let mut net = Network::new(topo, base.labels.clone());
            for (l, lab, prio, entry) in rules {
                let (Some(new_in), Some(new_out)) = (remap[l.index()], remap[entry.out.index()])
                else {
                    continue; // rule referenced the dropped link
                };
                net.add_rule_unchecked(
                    new_in,
                    lab,
                    prio,
                    RoutingEntry {
                        out: new_out,
                        ops: entry.ops,
                    },
                );
            }
            Some(net)
        }
        MutationKind::DuplicateLink => {
            if num_links == 0 {
                return None;
            }
            let mut net = base.clone();
            let link = base
                .topology
                .link(LinkId(rng.gen_range(0..num_links) as u32));
            let (src, dst, distance) = (link.src, link.dst, link.distance);
            let (src_if, dst_if) = (
                format!("{}~dup", link.src_if),
                format!("{}~dup", link.dst_if),
            );
            net.topology.add_link(src, &src_if, dst, &dst_if, distance);
            Some(net)
        }
        MutationKind::CorruptNextHop => {
            if rules.is_empty() {
                return None;
            }
            let mut rules = rules;
            let i = rng.gen_range(0..rules.len());
            // +2 head-room so the corrupt id can point past the topology.
            rules[i].3.out = LinkId(rng.gen_range(0..num_links + 2) as u32);
            Some(rebuild(base, &rules))
        }
        MutationKind::ShufflePriorities => {
            let mut keys: Vec<_> = base.routing_keys().collect();
            keys.sort_by_key(|(l, lab)| (l.index(), lab.index()));
            keys.retain(|&(l, lab)| base.groups(l, lab).len() >= 2);
            if keys.is_empty() {
                return None;
            }
            let &(l, lab) = rng.choose(&keys);
            let mut order: Vec<usize> = (0..base.groups(l, lab).len()).collect();
            rng.shuffle(&mut order);
            let rules: Vec<FlatRule> = flat_rules(base)
                .into_iter()
                .map(|(rl, rlab, prio, entry)| {
                    if (rl, rlab) == (l, lab) {
                        (rl, rlab, order[prio - 1] + 1, entry)
                    } else {
                        (rl, rlab, prio, entry)
                    }
                })
                .collect();
            Some(rebuild(base, &rules))
        }
        MutationKind::TruncateTable => {
            let mut keys: Vec<_> = base.routing_keys().collect();
            if keys.is_empty() {
                return None;
            }
            keys.sort_by_key(|(l, lab)| (l.index(), lab.index()));
            let keep = rng.gen_range(0..keys.len());
            let kept: std::collections::HashSet<_> = keys[..keep].iter().copied().collect();
            let rules: Vec<FlatRule> = flat_rules(base)
                .into_iter()
                .filter(|&(l, lab, _, _)| kept.contains(&(l, lab)))
                .collect();
            Some(rebuild(base, &rules))
        }
        MutationKind::SpliceBogusLabel => {
            if rules.is_empty() {
                return None;
            }
            let mut rules = rules;
            let i = rng.gen_range(0..rules.len());
            let bogus = LabelId((base.labels.len() + rng.gen_range(1..10usize)) as u32);
            if rng.gen_bool(0.5) {
                rules[i].1 = bogus; // corrupt the key label
            } else {
                rules[i].3.ops.push(Op::Push(bogus)); // corrupt an op
            }
            Some(rebuild(base, &rules))
        }
        MutationKind::DropRule => {
            if rules.is_empty() {
                return None;
            }
            let mut rules = rules;
            let i = rng.gen_range(0..rules.len());
            rules.remove(i);
            Some(rebuild(base, &rules))
        }
    }
}

/// Options for a chaos campaign (`#[non_exhaustive]`; construct with
/// [`ChaosOptions::new`]).
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub struct ChaosOptions {
    /// RNG seed; equal seeds reproduce the campaign bit-for-bit.
    pub seed: u64,
    /// Number of mutants to generate.
    pub mutants: usize,
    /// Queries checked per mutant (rotating through the query list).
    pub queries_per_mutant: usize,
}

impl ChaosOptions {
    /// A campaign with the given seed and mutant count, checking two
    /// queries per mutant.
    pub fn new(seed: u64, mutants: usize) -> Self {
        ChaosOptions {
            seed,
            mutants,
            queries_per_mutant: 2,
        }
    }
}

/// The outcome of a chaos campaign.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct ChaosReport {
    /// Mutants generated (a mutation kind can be inapplicable; such
    /// draws are skipped and not counted here).
    pub mutants: usize,
    /// Mutants per mutation kind, indexed like [`MutationKind::ALL`].
    pub per_kind: [usize; MutationKind::ALL.len()],
    /// Mutants that validated clean and ran unmodified.
    pub clean: usize,
    /// Mutants with `Error`-severity issues that [`Network::repair`]
    /// made verifiable.
    pub repaired: usize,
    /// Mutants still broken after repair, rejected without running.
    pub rejected: usize,
    /// Engine verifications executed (each query runs on both engines).
    pub verifications: usize,
    /// Instances both engines decided (agreement was checkable).
    pub decided_pairs: usize,
    /// `Satisfied` witnesses replayed through `netmodel::sim`.
    pub witnesses_replayed: usize,
    /// Engine panics isolated by the batch runner (each is also a
    /// violation — the stack must not panic on validated input).
    pub engine_errors: usize,
    /// Human-readable invariant violations; empty on a sound stack.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// Whether the campaign found no violations.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Serialize as one JSON object (hand-rolled, serde-free).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.number("mutants", self.mutants as f64);
        let mut kinds = JsonObject::new();
        for (k, n) in MutationKind::ALL.iter().zip(self.per_kind) {
            kinds.number(k.as_str(), n as f64);
        }
        o.raw("perKind", &kinds.finish());
        o.number("clean", self.clean as f64);
        o.number("repaired", self.repaired as f64);
        o.number("rejected", self.rejected as f64);
        o.number("verifications", self.verifications as f64);
        o.number("decidedPairs", self.decided_pairs as f64);
        o.number("witnessesReplayed", self.witnesses_replayed as f64);
        o.number("engineErrors", self.engine_errors as f64);
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| aalwines::telemetry::json_escape(v))
            .collect();
        o.raw("violations", &format!("[{}]", violations.join(",")));
        o.finish()
    }
}

/// The paper's six running-example queries
/// ([`PAPER_QUERIES`](aalwines::examples::PAPER_QUERIES)), parsed: the
/// default workload for chaos campaigns on
/// [`paper_network`](aalwines::examples::paper_network). A unit test
/// pins all six, so a query that stops parsing fails it instead of
/// shrinking every campaign.
pub fn paper_queries() -> Vec<Query> {
    aalwines::examples::PAPER_QUERIES
        .iter()
        .filter_map(|q| parse_query(q).ok())
        .collect()
}

/// Check one mutant against one query on both engine sessions (which
/// share the mutant's dataplane), appending any invariant violations to
/// the report. The batch path is used even for one query because it
/// isolates engine panics into [`Outcome::Error`].
fn check_one(dual: &Session, moped: &Session, q: &Query, label: &str, report: &mut ChaosReport) {
    let net = dual.network();
    let queries = std::slice::from_ref(q);
    let a = dual.verify_batch(queries).remove(0);
    let b = moped.verify_batch(queries).remove(0);
    report.verifications += 2;

    for (engine, answer) in [("dual", &a), ("moped", &b)] {
        match &answer.outcome {
            Outcome::Error(msg) => {
                report.engine_errors += 1;
                report
                    .violations
                    .push(format!("{label}: engine {engine} panicked: {msg}"));
            }
            Outcome::Satisfied(w) => {
                report.witnesses_replayed += 1;
                if w.failed_links.len() as u32 > q.max_failures {
                    report.violations.push(format!(
                        "{label}: {engine} witness needs {} failures > k={}",
                        w.failed_links.len(),
                        q.max_failures
                    ));
                }
                if !w.trace.is_valid(net, &w.failed_links) {
                    report.violations.push(format!(
                        "{label}: {engine} witness does not replay through netmodel::sim"
                    ));
                }
            }
            _ => {}
        }
    }

    // Decided instances: the dual engine and the Moped baseline must
    // agree. This subsumes over ⊇ under containment across engines: a
    // `Satisfied` (witness exists, so the under-approximation is
    // non-empty) paired with an `Unsatisfied` (over-approximation
    // empty) would place an under-approximation answer outside the
    // over-approximation.
    if a.outcome.is_conclusive() && b.outcome.is_conclusive() {
        report.decided_pairs += 1;
        if a.outcome.is_satisfied() != b.outcome.is_satisfied() {
            report.violations.push(format!(
                "{label}: engines disagree (dual={}, moped={})",
                a.outcome.kind(),
                b.outcome.kind()
            ));
        }
    }
}

/// Run a chaos campaign: generate `opts.mutants` seeded mutants of
/// `base`, validate/repair each, and check the metamorphic invariants
/// against `queries` (rotating `opts.queries_per_mutant` per mutant).
pub fn run_chaos(base: &Network, queries: &[Query], opts: &ChaosOptions) -> ChaosReport {
    let mut rng = DetRng::seed_from_u64(opts.seed);
    let mut report = ChaosReport::default();
    if queries.is_empty() {
        report
            .violations
            .push("chaos campaign needs at least one query".to_string());
        return report;
    }
    let mut generated = 0usize;
    let mut draws = 0usize;
    // Inapplicable mutations are skipped; the draw cap only guards
    // degenerate bases (no links, no rules) from spinning forever.
    while generated < opts.mutants && draws < opts.mutants * 4 {
        draws += 1;
        let kind_idx = rng.gen_range(0..MutationKind::ALL.len());
        let kind = MutationKind::ALL[kind_idx];
        let Some(mut net) = mutate(base, kind, &mut rng) else {
            continue;
        };
        let label = format!("seed={} mutant#{} {}", opts.seed, generated, kind.as_str());
        generated += 1;
        report.mutants += 1;
        report.per_kind[kind_idx] += 1;

        let has_errors = net.validate().iter().any(|i| i.severity == Severity::Error);
        if has_errors {
            net.repair();
            if net.validate().iter().any(|i| i.severity == Severity::Error) {
                report.rejected += 1;
                report
                    .violations
                    .push(format!("{label}: repair left error-severity issues"));
                continue;
            }
            report.repaired += 1;
        } else {
            report.clean += 1;
        }

        // One resident session per engine per mutant: validation and
        // precomputation run once and are shared across the mutant's
        // queries instead of once per (mutant, query) pair.
        let dual = SessionBuilder::new().open(net.clone());
        let moped = SessionBuilder::new().backend(Backend::Moped).open(net);
        let start = generated % queries.len();
        for j in 0..opts.queries_per_mutant.min(queries.len()) {
            let q = &queries[(start + j) % queries.len()];
            check_one(&dual, &moped, q, &label, &mut report);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use aalwines::examples::paper_network;

    #[test]
    fn every_mutation_kind_applies_to_the_paper_network() {
        let base = paper_network();
        let mut rng = DetRng::seed_from_u64(7);
        for kind in MutationKind::ALL {
            assert!(
                mutate(&base, kind, &mut rng).is_some(),
                "{} not applicable",
                kind.as_str()
            );
        }
    }

    #[test]
    fn corrupt_mutants_are_flagged_and_repairable() {
        let base = paper_network();
        let mut rng = DetRng::seed_from_u64(11);
        let mut saw_error = false;
        for _ in 0..50 {
            let Some(mut net) = mutate(&base, MutationKind::SpliceBogusLabel, &mut rng) else {
                continue;
            };
            let issues = net.validate();
            assert!(
                issues.iter().any(|i| i.severity == Severity::Error),
                "a bogus label must be an error"
            );
            saw_error = true;
            net.repair();
            assert!(net.validate().iter().all(|i| i.severity != Severity::Error));
        }
        assert!(saw_error);
    }

    #[test]
    fn mutations_are_deterministic() {
        let base = paper_network();
        for kind in MutationKind::ALL {
            let a = mutate(&base, kind, &mut DetRng::seed_from_u64(3)).map(|n| flat_rules(&n));
            let b = mutate(&base, kind, &mut DetRng::seed_from_u64(3)).map(|n| flat_rules(&n));
            assert_eq!(a, b, "{} not deterministic", kind.as_str());
        }
    }

    #[test]
    fn paper_queries_all_parse() {
        assert_eq!(paper_queries().len(), 6);
    }

    #[test]
    fn small_campaign_is_clean_and_reproducible() {
        let base = paper_network();
        let queries = paper_queries();
        let opts = ChaosOptions::new(0xC0FFEE, 40);
        let r1 = run_chaos(&base, &queries, &opts);
        assert!(r1.ok(), "violations: {:?}", r1.violations);
        assert_eq!(r1.mutants, 40);
        let r2 = run_chaos(&base, &queries, &opts);
        assert_eq!(r1.to_json(), r2.to_json());
    }

    #[test]
    fn report_json_is_parseable_shape() {
        let base = paper_network();
        let queries = paper_queries();
        let r = run_chaos(&base, &queries, &ChaosOptions::new(5, 10));
        let json = r.to_json();
        // The report is a bare payload; the "kind" lives in the versioned
        // envelope its printers wrap around it.
        assert!(!json.contains(r#""kind""#));
        assert!(json.contains(r#""perKind""#));
        assert!(json.contains(r#""violations":[]"#));
    }
}

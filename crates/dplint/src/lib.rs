//! # dplint — static dataplane & query analysis for AalWiNes networks
//!
//! AalWiNes answers what-if queries by compiling network × query into a
//! weighted pushdown system, but many operator mistakes are statically
//! decidable from the routing tables alone. This crate is the
//! "compiler warnings" pass over a [`Network`] and
//! its queries: a set of flow- and priority-aware analyses producing
//! typed [`LintFinding`]s with stable codes (`DP…` for dataplane rules,
//! `QL…` for query lints).
//!
//! ## Dataplane analyses
//!
//! * **Well-formedness mirror** (`DP001`–`DP004`): the typed issues of
//!   [`Network::validate`](netmodel::Network::validate) — unknown
//!   labels, out-of-range links, non-adjacent rules, empty priority
//!   groups — re-reported under stable lint codes.
//! * **Out-label blackholes** (`DP010`): a rule whose operations
//!   provably rewrite the top of the header to an MPLS label that the
//!   downstream router has no rule for. The out-label is computed by
//!   abstract interpretation of the operation sequence (see below);
//!   only *definite* blackholes are reported.
//! * **Shadowed rules** (`DP011`): under TE-group priority dominance a
//!   group is only consulted once every link of every higher-priority
//!   group has failed — so a backup entry forwarding over a link that
//!   already appears in a higher-priority group can never forward.
//! * **Zero-failure forwarding loops** (`DP012`): strongly connected
//!   components of the label-abstracted forwarding graph whose nodes
//!   are routing keys `(link, label)` and whose edges follow the
//!   highest-priority group under zero failures.
//! * **Label-partition violations** (`DP013`): MPLS operations applied
//!   to `L_IP` headers and vice versa — swapping or popping a bare IP
//!   header, or swap/push targeting an IP label.
//! * **Shared-fate protection** (`DP014`): a rule with ≥ 2 priority
//!   levels whose alternatives all forward over one single link — a
//!   single failure defeats the protection entirely.
//! * **Empty table** (`DP015`): a network with no forwarding rules at
//!   all.
//!
//! ## Conservatism
//!
//! Every analysis is deliberately under-approximate: a finding is only
//! emitted when the defect is *certain* from the table alone, so a
//! well-formed dataplane (the paper's running example, `topogen`'s
//! Topology-Zoo-style constructions) lints clean. The price is that
//! defects hidden behind a `pop` (which makes the top of the header
//! statically unknown) or behind routers that left the MPLS domain are
//! not reported.
//!
//! ## Query lints
//!
//! Label/link regex atoms that resolve to empty sets on the given
//! network (`QL001`/`QL002`) and whole queries whose initial-, path- or
//! final-automaton accepts the empty language (`QL003`) — the same
//! emptiness check the engine's quick-decide pre-pass uses to answer
//! vacuous queries without building a pushdown system.
//!
//! ## Incremental re-linting
//!
//! [`incremental::LintState`] keeps the per-key analysis artifacts
//! resident behind link-granular footprints, so a dataplane delta
//! re-lints only the keys it can affect while staying byte-identical
//! to a cold [`lint_network`] run (see the module docs for the
//! footprint model). It also powers three delta-native lints batch
//! analysis cannot express: `DP016` (delta-induced blackhole), `DP017`
//! (stale-restore shadow), and `QL004` (watched query start-dead after
//! a delta).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod dataplane;
pub mod incremental;
mod querylint;
mod report;

pub use dataplane::lint_network;
pub use incremental::{LintDelta, LintDeltaOutcome, LintState, RestoredRule};
pub use querylint::{lint_queries, lint_query};
pub use report::{registry_markdown, LintFinding, LintReport, LintRule, RegistryEntry, REGISTRY};

pub use netmodel::Severity;

use netmodel::Network;
use query::Query;

/// Run every analysis: the dataplane lints over `net` plus the query
/// lints for each of `queries`. Findings are sorted by code, then
/// location, so reports are deterministic and diffable.
pub fn lint_all(net: &Network, queries: &[Query]) -> LintReport {
    let mut report = lint_network(net);
    report.merge(lint_queries(net, queries));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use query::parse_query;

    #[test]
    fn lint_all_merges_network_and_query_findings() {
        let net = aalwines::examples::paper_network();
        let queries = vec![
            parse_query("<ip> .* <ip> 0").expect("query"),
            parse_query("<nosuch> .* <ip> 0").expect("query"),
        ];
        let report = lint_all(&net, &queries);
        // The paper network itself is clean; only the second query's
        // unknown label is flagged (as an empty atom and as vacuous).
        assert!(report
            .findings
            .iter()
            .all(|f| f.rule.code().starts_with("QL")));
        assert!(report.has_rule(LintRule::EmptyLabelAtom));
        assert!(report.has_rule(LintRule::VacuousQuery));
    }
}

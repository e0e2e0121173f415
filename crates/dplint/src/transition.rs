//! Transition lints: findings about what one dataplane delta changed,
//! rather than about the table it left behind. A resident session
//! re-lints the mutated table cold with [`crate::lint_network`], diffs
//! the two reports ([`crate::LintReport::diff`]) and derives these from
//! that diff and the delta. They are reported beside the base report,
//! never inside it.
//!
//! - `DP016` — a delta turned a previously-clean out-label into a
//!   blackhole (a `DP010` present after the delta but not before).
//! - `DP017` — a link-up restored a stashed rule that is now shadowed
//!   by a higher-priority rule added while the link was down.
//! - `QL004` — a watched query became *start-dead* after a delta: all
//!   accepted paths need a first forwarding step, but no link the path
//!   constraint allows first carries any routing key anymore.

use crate::report::{LintFinding, LintRule};
use netmodel::{LabelId, LinkId, Network};
use query::CompiledQuery;

/// `DP016` for every `DP010` among the findings a delta `added`.
pub fn delta_blackholes(added: &[LintFinding]) -> impl Iterator<Item = LintFinding> + '_ {
    added
        .iter()
        .filter(|f| f.rule == LintRule::Blackhole)
        .map(|f| {
            LintFinding::new(
                LintRule::DeltaBlackhole,
                f.location.clone(),
                format!("delta introduced a blackhole: {}", f.explanation),
            )
        })
}

/// `DP017` for one rule that a link-up of `link` put back at
/// `(in_link, label)`, priority `priority`, forwarding over `out`, if
/// the *post-restore* table shadows it: mirroring `DP011`, a strictly
/// earlier priority group already uses the same out-link. Callers pass
/// only rules whose key changed while `link` was down.
pub fn stale_restore_shadow(
    net: &Network,
    link: LinkId,
    (in_link, label): (LinkId, LabelId),
    priority: usize,
    out: LinkId,
) -> Option<LintFinding> {
    let groups = net.groups(in_link, label);
    let upto = priority.saturating_sub(1).min(groups.len());
    if !groups[..upto].iter().flatten().any(|e| e.out == out) {
        return None;
    }
    Some(LintFinding::new(
        LintRule::StaleRestoreShadow,
        format!(
            "rule ({}, {}) prio {priority}",
            net.topology.link_name(in_link),
            net.labels.name(label)
        ),
        format!(
            "restored by link-up of {} but shadowed by a higher-priority \
             rule added while the link was down",
            net.topology.link_name(link)
        ),
    ))
}

/// `QL004` for the watched query `name`, which a delta just made
/// start-dead (see [`query_starts_dead`]).
pub fn dead_after_delta(name: &str) -> LintFinding {
    LintFinding::new(
        LintRule::DeadAfterDelta,
        format!("watched query {name}"),
        "after this delta no link the path constraint allows first carries \
         any routing key; every satisfying path is gone",
    )
}

/// Whether a compiled query is *start-dead*: its path constraint
/// accepts no trace of length 0 or 1 (so every satisfying run must
/// take a first forwarding step), yet no link an initial path-NFA edge
/// allows carries any routing key — no packet can take that step.
///
/// Unlike `QL003` vacuity (a property of the query and the static
/// topology alone), start-deadness depends on which routing keys
/// exist, so deltas flip it; `QL004` reports the false→true
/// transition for watched queries.
pub fn query_starts_dead(net: &Network, cq: &CompiledQuery) -> bool {
    let nfa = &cq.path;
    for &s in nfa.initial_states() {
        if nfa.is_final(s) {
            // The empty trace satisfies the path constraint.
            return false;
        }
        for e in nfa.edges_from(s) {
            if nfa.is_final(e.to) {
                // A length-1 trace (arrival only, no forwarding
                // decision required) can satisfy it.
                return false;
            }
        }
    }
    // Every accepted trace needs ≥ 1 forwarding step, which needs a
    // routing key on its first link.
    for (link, _) in net.routing_keys() {
        for &s in nfa.initial_states() {
            if nfa.edges_from(s).any(|e| e.links.contains(link)) {
                return false;
            }
        }
    }
    true
}

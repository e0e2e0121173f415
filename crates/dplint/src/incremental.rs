//! Incremental, delta-aware re-linting: a resident [`LintState`] that
//! caches per-key analysis artifacts behind link-granular *footprints*
//! and recomputes only the keys a delta can actually affect.
//!
//! # Equivalence guarantee
//!
//! The hard invariant is that [`LintState::report`] after any sequence
//! of [`LintState::apply_delta`] calls is **byte-identical** to a cold
//! [`crate::lint_network`] run on the mutated network. Two design
//! choices carry the proof:
//!
//! 1. The per-key analyses are the *same functions* the cold pass runs
//!    ([`dataplane::flow_key`], [`dataplane::prio_key`],
//!    [`dataplane::loop_edges_key`], [`dataplane::loop_findings_from_adj`],
//!    [`dataplane::well_formedness`]) — there is no reimplementation
//!    that could drift. A cached key's findings equal what the cold
//!    pass would compute iff nothing the function *consults* changed.
//! 2. The footprint over-approximates everything a key's analyses
//!    consult outside its own rules (see below), so any key whose
//!    cached findings could differ is invalidated and recomputed.
//!
//! Cheap network-global passes (the well-formedness mirror of
//! `Network::validate` and the `DP015` empty-table check) are re-run
//! from scratch on every delta; caching them would buy nothing and
//! cost a second correctness argument.
//!
//! # The footprint model
//!
//! For a routing key `K = (in_link, label)`, the analyses consult:
//!
//! - `K`'s own groups/entries (flow, priority, and loop-edge passes);
//! - for each sane entry `e`: whether `(e.out, out_top)` is a routing
//!   key (blackhole check) — which changes only when rules keyed at
//!   `e.out` change;
//! - for each sane entry `e`: whether the router `dst(e.out)` has any
//!   rules at all (the egress carve-out) — which changes only when
//!   rules keyed at *some link into* `dst(e.out)` change;
//! - the topology and label table, which deltas never mutate.
//!
//! Hence `footprint(K) = {K.in_link} ∪ ⋃_{sane e} links_into(dst(e.out))`
//! (note `e.out ∈ links_into(dst(e.out))`), stored as a link bitset. A
//! delta is reduced to the set of links whose keyed rules changed
//! (`touched`); `K` is invalidated iff `footprint(K) ∩ touched ≠ ∅`.
//! Invalidation uses the footprint cached *before* the delta: if `K`'s
//! own rules changed then `K.in_link ∈ touched` forces recomputation
//! anyway, and otherwise the footprint is unchanged.
//!
//! The loop pass caches *raw* successor pairs `(out_link, out_label)`
//! per key and re-runs the (cheap, global) Tarjan assembly against the
//! current key index on every delta — so a key-set change far away
//! never stales a cached adjacency list.
//!
//! # Delta-native lints
//!
//! On top of the resident state live three lints a batch analyzer
//! cannot express, reported out-of-band in
//! [`LintDeltaOutcome::delta_findings`] (they describe the *transition*
//! and are deliberately not part of the byte-identical base report):
//!
//! - `DP016` — a delta turned a previously-clean out-label into a
//!   blackhole (a `DP010` present after the delta but not before).
//! - `DP017` — a link-up restored a stashed rule that is now shadowed
//!   by a higher-priority rule added while the link was down.
//! - `QL004` — a watched query became *start-dead* after a delta: all
//!   accepted paths need a first forwarding step, but no link the path
//!   constraint allows first carries any routing key anymore.

use crate::dataplane::{self, Ctx};
use crate::report::{LintFinding, LintReport, LintRule};
use netmodel::{Footprint, LabelId, LinkId, Network};
use query::CompiledQuery;
use std::collections::{HashMap, HashSet};

/// Cached per-key artifacts: the findings of the flow and priority
/// passes, the raw loop-graph successors, and the footprint governing
/// when all three must be recomputed.
struct KeyArtifacts {
    footprint: Footprint,
    flow: Vec<LintFinding>,
    prio: Vec<LintFinding>,
    loop_edges: Vec<(LinkId, LabelId)>,
}

/// A watched query with its start-dead baseline (for `QL004`).
struct WatchedQuery {
    name: String,
    compiled: CompiledQuery,
    dead: bool,
}

/// The dplint-side description of a network mutation. The session
/// layer (which owns the richer `Delta` type — `aalwines` depends on
/// this crate, not the other way around) lowers each applied delta to
/// one of these *after* mutating the network.
#[derive(Clone, Debug)]
pub enum LintDelta {
    /// The rules of key `(link, label)` changed in place: a rule was
    /// added, removed, or re-prioritized.
    RuleChange {
        /// The key's in-link.
        link: LinkId,
        /// The key's label.
        label: LabelId,
    },
    /// A link went down and every rule forwarding *over* it was
    /// removed (stashed by the session layer).
    LinkDown {
        /// The downed link.
        link: LinkId,
        /// In-links of the keys that lost entries.
        touched: Vec<LinkId>,
    },
    /// A link came back and its stashed rules were restored.
    LinkUp {
        /// The restored link.
        link: LinkId,
        /// The rules that were put back.
        restored: Vec<RestoredRule>,
    },
}

/// One rule re-inserted by a link-up, as the session layer restored it.
#[derive(Clone, Debug)]
pub struct RestoredRule {
    /// The key's in-link.
    pub link: LinkId,
    /// The key's label.
    pub label: LabelId,
    /// 1-based priority group the rule went back into.
    pub priority: usize,
    /// The out-link it forwards over (the restored link).
    pub out: LinkId,
}

/// What one [`LintState::apply_delta`] recomputed and how the report
/// changed.
#[derive(Clone, Debug, Default)]
pub struct LintDeltaOutcome {
    /// Cached keys whose footprint intersected the delta (recomputed).
    pub invalidated: usize,
    /// Cached keys reused untouched.
    pub retained: usize,
    /// Findings present now but not before the delta.
    pub added: Vec<LintFinding>,
    /// Findings present before the delta but not now.
    pub removed: Vec<LintFinding>,
    /// Delta-native findings (`DP016`/`DP017`/`QL004`) describing the
    /// transition itself; not part of the base report.
    pub delta_findings: Vec<LintFinding>,
}

impl LintDeltaOutcome {
    /// Number of base-report findings that changed (added + removed).
    pub fn changed(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

/// Resident lint state: cached per-key artifacts, the current report,
/// watched-query baselines, and the link-down bookkeeping behind
/// `DP017`.
pub struct LintState {
    artifacts: HashMap<(LinkId, LabelId), KeyArtifacts>,
    report: LintReport,
    /// For each currently-downed link: the keys that received a
    /// `RuleChange` while it was down (the "added meanwhile" set
    /// `DP017` checks restored rules against).
    meanwhile: HashMap<LinkId, HashSet<(LinkId, LabelId)>>,
    watched: Vec<WatchedQuery>,
    hits: usize,
    recomputes: usize,
    last_relinted: Vec<(LinkId, LabelId)>,
}

impl LintState {
    /// Cold-build the resident state: compute artifacts for every
    /// routing key and assemble the initial report.
    pub fn new(net: &Network) -> Self {
        let ctx = Ctx::new(net);
        let mut state = LintState {
            artifacts: HashMap::with_capacity(ctx.keys.len()),
            report: LintReport::new(),
            meanwhile: HashMap::new(),
            watched: Vec::new(),
            hits: 0,
            recomputes: 0,
            last_relinted: Vec::new(),
        };
        for &key in &ctx.keys {
            state.artifacts.insert(key, compute_key(&ctx, key));
            state.recomputes += 1;
        }
        state.report = state.assemble(&ctx);
        state
    }

    /// The current full report — byte-identical to
    /// [`crate::lint_network`] on the current network.
    pub fn report(&self) -> &LintReport {
        &self.report
    }

    /// Cumulative count of cached keys reused across deltas (the
    /// `lintIncrementalHits` telemetry counter).
    pub fn incremental_hits(&self) -> usize {
        self.hits
    }

    /// Cumulative count of per-key recomputations (including the cold
    /// build).
    pub fn recomputes(&self) -> usize {
        self.recomputes
    }

    /// The keys recomputed by the most recent [`LintState::apply_delta`]
    /// (sorted by key index). Empty after the cold build.
    pub fn last_relinted(&self) -> &[(LinkId, LabelId)] {
        &self.last_relinted
    }

    /// Register a watched query under `name` and record its start-dead
    /// baseline *now*, so `QL004` fires only on a later false→true
    /// transition. Re-watching an existing name resets the baseline.
    pub fn note_watched(&mut self, net: &Network, name: &str, compiled: CompiledQuery) {
        let dead = query_starts_dead(net, &compiled);
        if let Some(w) = self.watched.iter_mut().find(|w| w.name == name) {
            w.compiled = compiled;
            w.dead = dead;
        } else {
            self.watched.push(WatchedQuery {
                name: name.to_string(),
                compiled,
                dead,
            });
        }
    }

    /// Re-lint after `net` was mutated according to `delta`: invalidate
    /// exactly the footprint-intersecting keys, recompute them with the
    /// cold pass's own per-key functions, reassemble the report, and
    /// derive the delta-native findings.
    pub fn apply_delta(&mut self, net: &Network, delta: &LintDelta) -> LintDeltaOutcome {
        let ctx = Ctx::new(net);
        let mut outcome = LintDeltaOutcome::default();

        // 1. Reduce the delta to the set of links whose keyed rules
        //    changed, and keep the DP017 bookkeeping current.
        let mut touched = Footprint::new();
        match delta {
            LintDelta::RuleChange { link, label } => {
                touched.insert(*link);
                for keys in self.meanwhile.values_mut() {
                    keys.insert((*link, *label));
                }
            }
            LintDelta::LinkDown { link, touched: t } => {
                for &l in t {
                    touched.insert(l);
                }
                self.meanwhile.entry(*link).or_default();
            }
            LintDelta::LinkUp { link, restored } => {
                for r in restored {
                    touched.insert(r.link);
                }
                let meanwhile = self.meanwhile.remove(link).unwrap_or_default();
                for r in restored {
                    if !meanwhile.contains(&(r.link, r.label)) {
                        continue;
                    }
                    // Shadow check against the *post-restore* table,
                    // mirroring DP011: shadowed iff a strictly earlier
                    // priority group already uses the same out-link.
                    let groups = ctx.net.groups(r.link, r.label);
                    let upto = r.priority.saturating_sub(1).min(groups.len());
                    let shadowed = groups[..upto].iter().flatten().any(|e| e.out == r.out);
                    if shadowed {
                        outcome.delta_findings.push(LintFinding::new(
                            LintRule::StaleRestoreShadow,
                            format!("rule {} prio {}", ctx.key_loc(r.link, r.label), r.priority),
                            format!(
                                "restored by link-up of {} but shadowed by a higher-priority \
                                 rule added while the link was down",
                                ctx.net.topology.link_name(*link)
                            ),
                        ));
                    }
                }
            }
        }

        // 2. Invalidate: drop keys that no longer exist, and cached
        //    keys whose footprint intersects the touched links.
        self.artifacts.retain(|key, art| {
            if !ctx.key_set.contains(key) || art.footprint.intersects(&touched) {
                outcome.invalidated += 1;
                false
            } else {
                true
            }
        });

        // 3. Recompute exactly the missing keys.
        self.last_relinted.clear();
        for &key in &ctx.keys {
            if let std::collections::hash_map::Entry::Vacant(slot) = self.artifacts.entry(key) {
                slot.insert(compute_key(&ctx, key));
                self.recomputes += 1;
                self.last_relinted.push(key);
            }
        }
        outcome.retained = self.artifacts.len() - self.last_relinted.len();
        self.hits += outcome.retained;

        // 4. Reassemble and diff against the previous report.
        let new_report = self.assemble(&ctx);
        diff_sorted(
            &self.report.findings,
            &new_report.findings,
            &mut outcome.removed,
            &mut outcome.added,
        );
        self.report = new_report;

        // 5. DP016: blackholes this delta introduced.
        for f in &outcome.added {
            if f.rule == LintRule::Blackhole {
                outcome.delta_findings.push(LintFinding::new(
                    LintRule::DeltaBlackhole,
                    f.location.clone(),
                    format!("delta introduced a blackhole: {}", f.explanation),
                ));
            }
        }

        // 6. QL004: watched queries that just became start-dead.
        for w in &mut self.watched {
            let dead = query_starts_dead(net, &w.compiled);
            if dead && !w.dead {
                outcome.delta_findings.push(LintFinding::new(
                    LintRule::DeadAfterDelta,
                    format!("watched query {}", w.name),
                    "after this delta no link the path constraint allows first carries \
                     any routing key; every satisfying path is gone"
                        .to_string(),
                ));
            }
            w.dead = dead;
        }

        outcome
    }

    /// Assemble the full report from cached artifacts, in exactly the
    /// pass order of [`crate::lint_network`]: `DP015`, well-formedness,
    /// flow findings per key, priority findings per key, then the
    /// global loop assembly — followed by the same final sort.
    fn assemble(&self, ctx: &Ctx) -> LintReport {
        let mut report = LintReport::new();
        if ctx.net.num_rules() == 0 {
            report.push(LintFinding::new(
                LintRule::EmptyTable,
                "routing table",
                "the network has no forwarding rules at all",
            ));
        }
        dataplane::well_formedness(ctx, &mut report);
        for key in &ctx.keys {
            if let Some(art) = self.artifacts.get(key) {
                for f in &art.flow {
                    report.push(f.clone());
                }
            }
        }
        for key in &ctx.keys {
            if let Some(art) = self.artifacts.get(key) {
                for f in &art.prio {
                    report.push(f.clone());
                }
            }
        }
        let index_of: HashMap<(LinkId, LabelId), usize> =
            ctx.keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); ctx.keys.len()];
        for (i, key) in ctx.keys.iter().enumerate() {
            if let Some(art) = self.artifacts.get(key) {
                for &(out, out_top) in &art.loop_edges {
                    if let Some(&j) = index_of.get(&(out, out_top)) {
                        adj[i].push(j);
                    }
                }
            }
        }
        dataplane::loop_findings_from_adj(ctx, &adj, &mut report);
        report.sort();
        report
    }
}

/// Run the shared per-key analyses and derive the footprint.
fn compute_key(ctx: &Ctx, key: (LinkId, LabelId)) -> KeyArtifacts {
    let (in_link, label) = key;
    let mut footprint = Footprint::from_links([in_link]);
    for group in ctx.net.groups(in_link, label) {
        for entry in group {
            if !ctx.entry_sane(in_link, label, entry) {
                continue;
            }
            for &l in ctx.net.topology.links_into(ctx.net.topology.dst(entry.out)) {
                footprint.insert(l);
            }
        }
    }
    KeyArtifacts {
        footprint,
        flow: dataplane::flow_key(ctx, in_link, label),
        prio: dataplane::prio_key(ctx, in_link, label),
        loop_edges: dataplane::loop_edges_key(ctx, in_link, label),
    }
}

/// Multiset diff of two reports sorted by [`LintReport::sort`]'s key:
/// a merge walk collecting findings only in `old` into `removed` and
/// only in `new` into `added`.
fn diff_sorted(
    old: &[LintFinding],
    new: &[LintFinding],
    removed: &mut Vec<LintFinding>,
    added: &mut Vec<LintFinding>,
) {
    let key = |f: &LintFinding| (f.rule.code(), f.location.clone(), f.explanation.clone());
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match key(&old[i]).cmp(&key(&new[j])) {
            std::cmp::Ordering::Less => {
                removed.push(old[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(new[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    removed.extend_from_slice(&old[i..]);
    added.extend_from_slice(&new[j..]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_network;
    use netmodel::{LabelTable, Op, RoutingEntry, Topology};
    use query::parse_query;

    /// v0 -e0-> v1 -e1-> v2 -e2-> v3, plus v1 -e3-> v2 and v2 -e4-> v1.
    fn diamond() -> (Topology, Vec<LinkId>) {
        let mut t = Topology::new();
        let v0 = t.add_router("v0", None);
        let v1 = t.add_router("v1", None);
        let v2 = t.add_router("v2", None);
        let v3 = t.add_router("v3", None);
        let e0 = t.add_link(v0, "a", v1, "b", 1);
        let e1 = t.add_link(v1, "c", v2, "d", 1);
        let e2 = t.add_link(v2, "e", v3, "f", 1);
        let e3 = t.add_link(v1, "g", v2, "h", 1);
        let e4 = t.add_link(v2, "i", v1, "j", 1);
        (t, vec![e0, e1, e2, e3, e4])
    }

    fn entry(out: LinkId, ops: Vec<Op>) -> RoutingEntry {
        RoutingEntry {
            out,
            ops: ops.into(),
        }
    }

    fn assert_matches_cold(state: &LintState, net: &Network) {
        assert_eq!(
            state.report().to_json(),
            lint_network(net).to_json(),
            "incremental report diverged from a cold run"
        );
    }

    #[test]
    fn cold_build_matches_lint_network() {
        let net = aalwines::examples::paper_network();
        let state = LintState::new(&net);
        assert_matches_cold(&state, &net);
        assert!(state.last_relinted().is_empty());
    }

    #[test]
    fn rule_change_introducing_blackhole_fires_dp016() {
        let (t, e) = diamond();
        let mut labels = LabelTable::new();
        let s1 = labels.mpls_bos("s1");
        let s2 = labels.mpls_bos("s2");
        let s3 = labels.mpls_bos("s3");
        let mut net = Network::new(t, labels);
        net.add_rule(e[0], s1, 1, entry(e[1], vec![Op::Swap(s2)]));
        net.add_rule(e[1], s2, 1, entry(e[2], vec![Op::Pop]));
        let mut state = LintState::new(&net);
        assert!(state.report().is_clean());

        // Retarget v1's rule to swap to s3, which v2 does not match:
        // the delta manufactures a blackhole.
        net.remove_entry(e[0], s1, 1, &entry(e[1], vec![Op::Swap(s2)]));
        net.add_rule(e[0], s1, 1, entry(e[1], vec![Op::Swap(s3)]));
        // Two mutations, one lowered delta each; apply both.
        let o1 = state.apply_delta(
            &net,
            &LintDelta::RuleChange {
                link: e[0],
                label: s1,
            },
        );
        assert_matches_cold(&state, &net);
        assert!(state.report().has_rule(LintRule::Blackhole));
        assert!(
            o1.delta_findings
                .iter()
                .any(|f| f.rule == LintRule::DeltaBlackhole),
            "{:?}",
            o1.delta_findings
        );
        assert_eq!(o1.added.len(), 1);
    }

    #[test]
    fn untouched_keys_are_retained() {
        let (t, e) = diamond();
        let mut labels = LabelTable::new();
        let s1 = labels.mpls_bos("s1");
        let s2 = labels.mpls_bos("s2");
        let mut net = Network::new(t, labels);
        // Two independent keys: (e0, s1) forwards over e1; (e2, s2) is
        // keyed downstream of v2 and unrelated to e0's footprint.
        net.add_rule(e[0], s1, 1, entry(e[1], vec![Op::Swap(s1)]));
        net.add_rule(e[1], s1, 1, entry(e[2], vec![Op::Pop]));
        let mut state = LintState::new(&net);

        // A new rule keyed at e4 touches only e4. (e0, s1)'s footprint
        // is {e0} ∪ links_into(v2) = {e0, e1, e3} and (e1, s1)'s is
        // {e1} ∪ links_into(v3) = {e1, e2}; both stay cached.
        net.add_rule(e[4], s2, 1, entry(e[1], vec![Op::Pop]));
        let before = state.incremental_hits();
        let o = state.apply_delta(
            &net,
            &LintDelta::RuleChange {
                link: e[4],
                label: s2,
            },
        );
        assert_matches_cold(&state, &net);
        assert_eq!(state.last_relinted(), &[(e[4], s2)]);
        assert_eq!(o.retained, 2);
        assert_eq!(state.incremental_hits(), before + 2);
    }

    #[test]
    fn link_down_up_cycle_stays_cold_identical() {
        let (t, e) = diamond();
        let mut labels = LabelTable::new();
        let s1 = labels.mpls_bos("s1");
        let mut net = Network::new(t, labels);
        net.add_rule(e[0], s1, 1, entry(e[1], vec![Op::Swap(s1)]));
        net.add_rule(e[0], s1, 2, entry(e[3], vec![Op::Swap(s1)]));
        net.add_rule(e[1], s1, 1, entry(e[2], vec![Op::Pop]));
        net.add_rule(e[3], s1, 1, entry(e[2], vec![Op::Pop]));
        let mut state = LintState::new(&net);

        // Take e1 down: stash the primary at (e0, s1).
        let stashed = net.entries_over(e[1]);
        let mut touched = Vec::new();
        for (l, lab, prio, ent) in &stashed {
            net.remove_entry(*l, *lab, *prio, ent);
            touched.push(*l);
        }
        state.apply_delta(
            &net,
            &LintDelta::LinkDown {
                link: e[1],
                touched,
            },
        );
        assert_matches_cold(&state, &net);

        // Restore.
        let mut restored = Vec::new();
        for (l, lab, prio, ent) in stashed {
            restored.push(RestoredRule {
                link: l,
                label: lab,
                priority: prio,
                out: ent.out,
            });
            net.add_rule_unchecked(l, lab, prio, ent);
        }
        let o = state.apply_delta(
            &net,
            &LintDelta::LinkUp {
                link: e[1],
                restored,
            },
        );
        assert_matches_cold(&state, &net);
        // Nothing was added meanwhile, so no DP017.
        assert!(o.delta_findings.is_empty(), "{:?}", o.delta_findings);
    }

    #[test]
    fn stale_restore_shadow_fires_dp017() {
        let (t, e) = diamond();
        let mut labels = LabelTable::new();
        let s1 = labels.mpls_bos("s1");
        let mut net = Network::new(t, labels);
        // Priority-2 backup over e1; primary over e3.
        net.add_rule(e[0], s1, 1, entry(e[3], vec![Op::Swap(s1)]));
        net.add_rule(e[0], s1, 2, entry(e[1], vec![Op::Swap(s1)]));
        net.add_rule(e[1], s1, 1, entry(e[2], vec![Op::Pop]));
        net.add_rule(e[3], s1, 1, entry(e[2], vec![Op::Pop]));
        let mut state = LintState::new(&net);

        // e1 goes down: the backup (prio 2, out e1) and v1's rule over
        // e2... only rules with out == e1 are stashed.
        let stashed = net.entries_over(e[1]);
        let mut touched = Vec::new();
        for (l, lab, prio, ent) in &stashed {
            net.remove_entry(*l, *lab, *prio, ent);
            touched.push(*l);
        }
        state.apply_delta(
            &net,
            &LintDelta::LinkDown {
                link: e[1],
                touched,
            },
        );

        // Meanwhile an operator repoints the *primary* group at e1's
        // key to also use e1's out-link... no: add a new priority-1
        // rule at (e0, s1) that forwards over e1's future restore
        // target. The restored backup forwards over e1; shadow it by
        // adding a prio-1 rule over e1 while it is down.
        net.add_rule_unchecked(e[0], s1, 1, entry(e[1], vec![Op::Swap(s1)]));
        state.apply_delta(
            &net,
            &LintDelta::RuleChange {
                link: e[0],
                label: s1,
            },
        );
        assert_matches_cold(&state, &net);

        let mut restored = Vec::new();
        for (l, lab, prio, ent) in stashed {
            restored.push(RestoredRule {
                link: l,
                label: lab,
                priority: prio,
                out: ent.out,
            });
            net.add_rule_unchecked(l, lab, prio, ent);
        }
        let o = state.apply_delta(
            &net,
            &LintDelta::LinkUp {
                link: e[1],
                restored,
            },
        );
        assert_matches_cold(&state, &net);
        assert!(
            o.delta_findings
                .iter()
                .any(|f| f.rule == LintRule::StaleRestoreShadow),
            "{:?}",
            o.delta_findings
        );
    }

    #[test]
    fn watched_query_death_fires_ql004_once() {
        let (t, e) = diamond();
        let mut labels = LabelTable::new();
        let s1 = labels.mpls_bos("s1");
        let mut net = Network::new(t, labels);
        net.add_rule(e[0], s1, 1, entry(e[1], vec![Op::Swap(s1)]));
        net.add_rule(e[1], s1, 1, entry(e[2], vec![Op::Pop]));
        let mut state = LintState::new(&net);

        // A two-hop path through v1: needs a first forwarding step.
        let q = parse_query("<s1> [.#v1] .* [v2#.] <s1> 0").expect("query parses");
        let cq = query::compile(&q, &net);
        state.note_watched(&net, "q0", cq);

        // Removing (e0, s1)'s only rule kills every first step the
        // path constraint allows.
        net.remove_entry(e[0], s1, 1, &entry(e[1], vec![Op::Swap(s1)]));
        let o = state.apply_delta(
            &net,
            &LintDelta::RuleChange {
                link: e[0],
                label: s1,
            },
        );
        assert_matches_cold(&state, &net);
        assert!(
            o.delta_findings
                .iter()
                .any(|f| f.rule == LintRule::DeadAfterDelta),
            "{:?}",
            o.delta_findings
        );

        // Already dead: no repeat finding on the next delta.
        net.remove_entry(e[1], s1, 1, &entry(e[2], vec![Op::Pop]));
        let o2 = state.apply_delta(
            &net,
            &LintDelta::RuleChange {
                link: e[1],
                label: s1,
            },
        );
        assert!(
            !o2.delta_findings
                .iter()
                .any(|f| f.rule == LintRule::DeadAfterDelta),
            "{:?}",
            o2.delta_findings
        );
    }
}

//! The dataplane analyses: abstract interpretation of operation
//! sequences, blackhole/shadowing/loop/partition/shared-fate checks.

use crate::report::{LintFinding, LintReport, LintRule};
use netmodel::{LabelId, LabelKind, LinkId, Network, Op, Severity, TeGroup};
use pdaal::fxhash::FxHashMap;

/// Abstract value of the top of the header after some operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AbsTop {
    /// The top is exactly this label.
    Known(LabelId),
    /// The top is *some* label whose kind is in this set (bitmask of
    /// `K_IP`/`K_MPLS`/`K_BOS`); arises below a `pop`, where the table
    /// does not say which concrete label is uncovered.
    Kinds(u8),
    /// Tracking lost (possible stack underflow on an already-uncertain
    /// top). No further checks are made.
    Unknown,
}

const K_IP: u8 = 1;
const K_MPLS: u8 = 2;
const K_BOS: u8 = 4;

/// What one abstract run of an operation sequence concluded.
struct AbsResult {
    /// The definite top label after all operations, when the analysis
    /// could track it exactly.
    out_top: Option<LabelId>,
    /// Definite label-partition violations, as `(severity, message)`.
    violations: Vec<(Severity, String)>,
}

/// Abstractly interpret `ops` on a header whose top is the rule's key
/// label `key`. The valid-header shape `L_M* L_M⊥ L_IP` (Definition 1)
/// justifies the `pop` cases: below a bottom-of-stack label sits the IP
/// header; below a plain MPLS label sits another MPLS label.
///
/// Only *definite* violations are recorded: once the top becomes
/// uncertain the analysis stays silent rather than guess. The
/// "pop-then-tunnel" pattern of local protection (a plain bypass label
/// pushed directly onto an exposed IP header) is deliberately allowed —
/// the paper's fast-failover construction produces it.
fn interpret(net: &Network, key: LabelId, ops: &[Op]) -> AbsResult {
    let mut top = AbsTop::Known(key);
    let mut violations = Vec::new();
    for op in ops {
        match *op {
            Op::Push(l) => {
                if net.labels.kind(l) == LabelKind::Ip {
                    violations.push((
                        Severity::Error,
                        format!("push of IP label {}", net.labels.name(l)),
                    ));
                }
                top = AbsTop::Known(l);
            }
            Op::Swap(l) => {
                if net.labels.kind(l) == LabelKind::Ip {
                    violations.push((
                        Severity::Error,
                        format!("swap targets IP label {}", net.labels.name(l)),
                    ));
                }
                match top {
                    AbsTop::Known(t) if net.labels.kind(t) == LabelKind::Ip => {
                        violations.push((
                            Severity::Error,
                            format!(
                                "swap applied to bare IP header {} (only push may start a tunnel)",
                                net.labels.name(t)
                            ),
                        ));
                    }
                    AbsTop::Known(t) => {
                        let (tk, lk) = (net.labels.kind(t), net.labels.kind(l));
                        let bos_change = (tk == LabelKind::MplsBos && lk == LabelKind::Mpls)
                            || (tk == LabelKind::Mpls && lk == LabelKind::MplsBos);
                        if bos_change {
                            violations.push((
                                Severity::Warning,
                                format!(
                                    "swap {} -> {} changes bottom-of-stack kind",
                                    net.labels.name(t),
                                    net.labels.name(l)
                                ),
                            ));
                        }
                    }
                    AbsTop::Kinds(k) if k == K_IP => {
                        violations.push((
                            Severity::Error,
                            "swap applied to a header known to be bare IP".to_string(),
                        ));
                    }
                    _ => {}
                }
                top = AbsTop::Known(l);
            }
            Op::Pop => {
                top = match top {
                    AbsTop::Known(t) => match net.labels.kind(t) {
                        LabelKind::Ip => {
                            violations.push((
                                Severity::Error,
                                format!("pop applied to bare IP header {}", net.labels.name(t)),
                            ));
                            AbsTop::Unknown
                        }
                        LabelKind::MplsBos => AbsTop::Kinds(K_IP),
                        LabelKind::Mpls => AbsTop::Kinds(K_MPLS | K_BOS),
                    },
                    AbsTop::Kinds(k) => {
                        if k == K_IP {
                            violations.push((
                                Severity::Error,
                                "pop applied to a header known to be bare IP".to_string(),
                            ));
                            AbsTop::Unknown
                        } else {
                            let mut below = 0u8;
                            if k & K_MPLS != 0 {
                                below |= K_MPLS | K_BOS;
                            }
                            if k & K_BOS != 0 {
                                below |= K_IP;
                            }
                            if k & K_IP != 0 {
                                // Underflow possible but not certain.
                                below = 0;
                            }
                            if below == 0 {
                                AbsTop::Unknown
                            } else {
                                AbsTop::Kinds(below)
                            }
                        }
                    }
                    AbsTop::Unknown => AbsTop::Unknown,
                };
            }
        }
    }
    AbsResult {
        out_top: match top {
            AbsTop::Known(l) => Some(l),
            _ => None,
        },
        violations,
    }
}

/// Per-network context shared by the analyses: range checks and
/// pre-computed key/router indexes.
struct Ctx<'a> {
    net: &'a Network,
    n_links: usize,
    n_labels: usize,
    /// All routing keys with their priority groups, sorted by
    /// `(link, label)` index for deterministic reports.
    keys: Vec<((LinkId, LabelId), &'a [TeGroup])>,
    /// Position of each routing key in `keys`: the node index of the
    /// loop graph, and the key-existence probe of the blackhole check.
    index_of: FxHashMap<(LinkId, LabelId), usize>,
    /// Whether a router has at least one (in-range) routing key — i.e.
    /// participates in MPLS forwarding. Routers without any rules are
    /// treated as egress points of the MPLS domain (the paper's
    /// external stub routers), not blackholes.
    router_has_rules: Vec<bool>,
}

impl<'a> Ctx<'a> {
    fn new(net: &'a Network) -> Self {
        let n_links = net.topology.num_links() as usize;
        let n_labels = net.labels.len();
        let mut keys: Vec<_> = net
            .routing_keys()
            .map(|(l, lab)| ((l, lab), net.groups(l, lab)))
            .collect();
        keys.sort_unstable_by_key(|((l, lab), _)| (l.index(), lab.index()));
        let index_of = keys.iter().enumerate().map(|(i, &(k, _))| (k, i)).collect();
        let mut router_has_rules = vec![false; net.topology.num_routers() as usize];
        for &((l, _), _) in &keys {
            if l.index() < n_links {
                router_has_rules[net.topology.dst(l).index()] = true;
            }
        }
        Ctx {
            net,
            n_links,
            n_labels,
            keys,
            index_of,
            router_has_rules,
        }
    }

    fn link_ok(&self, l: LinkId) -> bool {
        l.index() < self.n_links
    }

    fn label_ok(&self, l: LabelId) -> bool {
        l.index() < self.n_labels
    }

    /// Whether the rule is fully in-range and adjacent — i.e. passes
    /// the well-formedness mirror. Flow analyses skip anything else to
    /// avoid cascading findings off already-reported corruption.
    fn entry_sane(&self, in_link: LinkId, label: LabelId, entry: &netmodel::RoutingEntry) -> bool {
        self.link_ok(in_link)
            && self.label_ok(label)
            && self.link_ok(entry.out)
            && self.net.topology.dst(in_link) == self.net.topology.src(entry.out)
            && entry.ops.iter().all(|op| match *op {
                Op::Swap(l) | Op::Push(l) => self.label_ok(l),
                Op::Pop => true,
            })
    }

    fn key_loc(&self, in_link: LinkId, label: LabelId) -> String {
        let link = if self.link_ok(in_link) {
            self.net.topology.link_name(in_link)
        } else {
            format!("link#{}", in_link.index())
        };
        let label = if self.label_ok(label) {
            self.net.labels.name(label).to_string()
        } else {
            format!("label#{}", label.index())
        };
        format!("({link}, {label})")
    }
}

/// Mirror [`Network::validate`]'s typed issues under stable lint codes.
fn well_formedness(ctx: &Ctx, report: &mut LintReport) {
    for issue in ctx.net.validate() {
        let rule = match issue.kind {
            netmodel::IssueKind::UnknownLabel => LintRule::UnknownLabel,
            netmodel::IssueKind::LinkOutOfRange => LintRule::LinkOutOfRange,
            netmodel::IssueKind::NonAdjacentRule => LintRule::NonAdjacentRule,
            netmodel::IssueKind::EmptyGroup => LintRule::EmptyGroup,
            _ => continue,
        };
        let mut finding = LintFinding::new(rule, issue.location, "rejected by table validation");
        finding.severity = issue.severity;
        report.push(finding);
    }
}

/// Blackholes (`DP010`) and partition violations (`DP013`), one
/// abstract pass per sane rule entry. The same pass collects the edges
/// of the zero-failure forwarding graph for [`loop_check`]: for each
/// key, the sane entries of its highest-priority non-empty group whose
/// out-label is statically known, pointing at the key they forward
/// into (when that key exists). Returns that adjacency, indexed like
/// `ctx.keys`.
fn flow_checks(ctx: &Ctx, report: &mut LintReport) -> Vec<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); ctx.keys.len()];
    for (i, &((in_link, label), groups)) in ctx.keys.iter().enumerate() {
        let first = groups.iter().position(|g| !g.is_empty());
        for (gi, group) in groups.iter().enumerate() {
            // Built only when a finding needs it: a clean table never
            // pays for the string.
            let loc = || format!("rule {} prio {}", ctx.key_loc(in_link, label), gi + 1);
            for entry in group {
                if !ctx.entry_sane(in_link, label, entry) {
                    continue;
                }
                let result = interpret(ctx.net, label, &entry.ops);
                for (severity, message) in result.violations {
                    let mut finding =
                        LintFinding::new(LintRule::PartitionViolation, loc(), message);
                    finding.severity = severity;
                    report.push(finding);
                }
                let Some(out_top) = result.out_top else {
                    continue;
                };
                let target = ctx.index_of.get(&(entry.out, out_top));
                if Some(gi) == first {
                    adj[i].extend(target);
                }
                if ctx.net.labels.kind(out_top) == LabelKind::Ip {
                    // Bare IP headers leave the MPLS lint's scope (IP
                    // routing may deliver them anywhere).
                    continue;
                }
                let downstream = ctx.net.topology.dst(entry.out);
                if ctx.router_has_rules[downstream.index()] && target.is_none() {
                    report.push(LintFinding::new(
                        LintRule::Blackhole,
                        loc(),
                        format!(
                            "forwards label {} over {} but {} has no rule for it",
                            ctx.net.labels.name(out_top),
                            ctx.net.topology.link_name(entry.out),
                            ctx.net.topology.router(downstream).name
                        ),
                    ));
                }
            }
        }
    }
    adj
}

/// Shadowed rules (`DP011`) and shared-fate protection (`DP014`) under
/// TE-group priority dominance.
fn priority_checks(ctx: &Ctx, report: &mut LintReport) {
    for &((in_link, label), groups) in &ctx.keys {
        if groups.len() < 2 {
            // One priority level: nothing to shadow, no protection.
            continue;
        }
        let non_empty = groups.iter().filter(|g| !g.is_empty()).count();

        // Shared fate: ≥ 2 priority levels that all forward over one
        // single link — protection that one failure defeats.
        let mut outs = groups
            .iter()
            .flatten()
            .map(|e| e.out)
            .filter(|&o| ctx.link_ok(o));
        let shared = outs.next().filter(|&out| outs.all(|o| o == out));
        if let (true, Some(out)) = (non_empty >= 2, shared) {
            report.push(LintFinding::new(
                LintRule::SharedFate,
                format!("rule {}", ctx.key_loc(in_link, label)),
                format!(
                    "all {non_empty} priority levels forward over {}; one failure defeats the protection",
                    ctx.net.topology.link_name(out)
                ),
            ));
            // The backups are also shadowed by definition; the
            // shared-fate finding subsumes those, so skip DP011 here.
            continue;
        }

        for (gi, group) in groups.iter().enumerate() {
            for entry in group {
                let earlier = || groups[..gi].iter().flatten().any(|e| e.out == entry.out);
                if ctx.link_ok(entry.out) && earlier() {
                    report.push(LintFinding::new(
                        LintRule::ShadowedRule,
                        format!("rule {} prio {}", ctx.key_loc(in_link, label), gi + 1),
                        format!(
                            "forwards over {} which a higher-priority group already uses; \
                             this group is only consulted once that link failed",
                            ctx.net.topology.link_name(entry.out)
                        ),
                    ));
                }
            }
        }
    }
}

/// Zero-failure forwarding loops (`DP012`): SCCs of the forwarding
/// graph whose nodes are routing keys and whose edges follow the
/// highest-priority non-empty group with a statically known out-label
/// (`adj`, as [`flow_checks`] collected it).
/// Edges are only added when the out-label is definite, so reported
/// loops are real zero-failure loops (no false positives); loops hidden
/// behind a `pop` are not reported.
fn loop_check(ctx: &Ctx, adj: &[Vec<usize>], report: &mut LintReport) {
    // Iterative Tarjan SCC (the keys of big tables overflow a recursive
    // walk).
    let n = ctx.keys.len();
    let mut ids = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_id = 0usize;
    // The components with a cycle: more than one key, or one key with a
    // self-edge.
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut call: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if ids[root] != usize::MAX {
            continue;
        }
        call.push((root, 0));
        while let Some(frame) = call.len().checked_sub(1) {
            let (v, ei) = call[frame];
            if ids[v] == usize::MAX {
                ids[v] = next_id;
                low[v] = next_id;
                next_id += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if ei < adj[v].len() {
                call[frame].1 = ei + 1;
                let w = adj[v][ei];
                if ids[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(ids[w]);
                }
            } else {
                if low[v] == ids[v] {
                    // v roots a component: itself and every key above
                    // it on the stack.
                    let pos = stack.iter().rposition(|&w| w == v).unwrap_or(0);
                    if stack.len() - pos > 1 || adj[v].contains(&v) {
                        let mut comp = stack[pos..].to_vec();
                        comp.sort_unstable();
                        sccs.push(comp);
                    }
                    for w in stack.drain(pos..) {
                        on_stack[w] = false;
                    }
                }
                call.pop();
                if let Some(&(u, _)) = call.last() {
                    low[u] = low[u].min(low[v]);
                }
            }
        }
    }

    for comp in sccs {
        let mut names: Vec<String> = comp
            .iter()
            .map(|&i| {
                let (in_link, label) = ctx.keys[i].0;
                ctx.key_loc(in_link, label)
            })
            .collect();
        names.sort();
        const SHOW: usize = 4;
        let shown = names
            .iter()
            .take(SHOW)
            .cloned()
            .collect::<Vec<_>>()
            .join(" -> ");
        let suffix = if names.len() > SHOW {
            format!(" -> … ({} keys total)", names.len())
        } else {
            String::new()
        };
        report.push(LintFinding::new(
            LintRule::ForwardingLoop,
            format!("cycle {shown}{suffix}"),
            "packets forward in a loop with zero failed links".to_string(),
        ));
    }
}

/// Run every dataplane analysis over `net`. Findings come back sorted
/// by code, then location.
pub fn lint_network(net: &Network) -> LintReport {
    let ctx = Ctx::new(net);
    let mut report = LintReport::new();
    if net.num_rules() == 0 {
        report.push(LintFinding::new(
            LintRule::EmptyTable,
            "routing table",
            "the network has no forwarding rules at all",
        ));
    }
    well_formedness(&ctx, &mut report);
    let adj = flow_checks(&ctx, &mut report);
    priority_checks(&ctx, &mut report);
    loop_check(&ctx, &adj, &mut report);
    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::{LabelTable, RoutingEntry, Topology};

    /// v0 -e0-> v1 -e1-> v2 -e2-> v3, plus v1 -e3-> v2 (parallel) and
    /// v2 -e4-> v1 (back edge).
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

    #[test]
    fn paper_network_lints_clean() {
        let report = lint_network(&aalwines::examples::paper_network());
        assert!(report.is_clean(), "unexpected findings:\n{report}");
    }

    #[test]
    fn empty_network_flags_empty_table() {
        let (t, _) = diamond();
        let net = Network::new(t, LabelTable::new());
        let report = lint_network(&net);
        assert!(report.has_rule(LintRule::EmptyTable));
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.exit_code(), 2);
    }

    #[test]
    fn blackhole_detected_for_dangling_out_label() {
        let (t, e) = diamond();
        let mut labels = LabelTable::new();
        let s1 = labels.mpls_bos("s1");
        let s2 = labels.mpls_bos("s2");
        let s3 = labels.mpls_bos("s3");
        let mut net = Network::new(t, labels);
        // v1 swaps s1 -> s2 towards v2, but v2 only matches s3: s2
        // arrives at a router with rules and dies.
        net.add_rule(e[0], s1, 1, entry(e[1], vec![Op::Swap(s2)]));
        net.add_rule(e[1], s3, 1, entry(e[2], vec![Op::Pop]));
        let report = lint_network(&net);
        assert!(report.has_rule(LintRule::Blackhole), "{report}");
        assert_eq!(report.errors(), 1);
        let f = &report.findings[0];
        assert!(f.location.contains("s1"), "location names the rule: {f}");
        assert!(f.explanation.contains("s2"), "explanation names the label");
    }

    #[test]
    fn egress_to_ruleless_router_is_not_a_blackhole() {
        let (t, e) = diamond();
        let mut labels = LabelTable::new();
        let s1 = labels.mpls_bos("s1");
        let s2 = labels.mpls_bos("s2");
        let mut net = Network::new(t, labels);
        // v2 has no rules at all: it is an egress point, s2 is
        // delivered, not blackholed.
        net.add_rule(e[0], s1, 1, entry(e[1], vec![Op::Swap(s2)]));
        let report = lint_network(&net);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn shadowed_backup_flagged() {
        let (t, e) = diamond();
        let mut labels = LabelTable::new();
        let s1 = labels.mpls_bos("s1");
        let mut net = Network::new(t, labels);
        // Primary over e1 and e3; "backup" over e3 again — the backup
        // group is only consulted when e1 AND e3 failed, so it can
        // never forward.
        net.add_rule(e[0], s1, 1, entry(e[1], vec![]));
        net.add_rule(e[0], s1, 1, entry(e[3], vec![]));
        net.add_rule(e[0], s1, 2, entry(e[3], vec![]));
        let report = lint_network(&net);
        assert!(report.has_rule(LintRule::ShadowedRule), "{report}");
        assert!(!report.has_rule(LintRule::SharedFate));
    }

    #[test]
    fn shared_fate_subsumes_shadowing() {
        let (t, e) = diamond();
        let mut labels = LabelTable::new();
        let s1 = labels.mpls_bos("s1");
        let mut net = Network::new(t, labels);
        // Both priority levels forward over e1: zero added resilience.
        net.add_rule(e[0], s1, 1, entry(e[1], vec![]));
        net.add_rule(e[0], s1, 2, entry(e[1], vec![]));
        let report = lint_network(&net);
        assert!(report.has_rule(LintRule::SharedFate), "{report}");
        assert!(!report.has_rule(LintRule::ShadowedRule));
        assert_eq!(report.exit_code(), 2);
    }

    #[test]
    fn zero_failure_loop_detected() {
        let (t, e) = diamond();
        let mut labels = LabelTable::new();
        let s1 = labels.mpls_bos("s1");
        let s2 = labels.mpls_bos("s2");
        let mut net = Network::new(t, labels);
        // v1 -s1-> v2 -s2-> v1 -s1-> … : a two-key swap loop.
        net.add_rule(e[1], s2, 1, entry(e[4], vec![Op::Swap(s1)]));
        net.add_rule(e[4], s1, 1, entry(e[1], vec![Op::Swap(s2)]));
        let report = lint_network(&net);
        assert!(report.has_rule(LintRule::ForwardingLoop), "{report}");
        let f = report
            .findings
            .iter()
            .find(|f| f.rule == LintRule::ForwardingLoop)
            .expect("loop finding");
        assert!(f.location.contains("s1") && f.location.contains("s2"));
    }

    #[test]
    fn backup_loop_not_reported_under_zero_failures() {
        let (t, e) = diamond();
        let mut labels = LabelTable::new();
        let s1 = labels.mpls_bos("s1");
        let s2 = labels.mpls_bos("s2");
        let s3 = labels.mpls_bos("s3");
        let mut net = Network::new(t, labels);
        // The looping entries sit in priority-2 groups: with zero
        // failures only the primaries forward, so no loop is flagged.
        net.add_rule(e[1], s2, 1, entry(e[2], vec![Op::Swap(s3)]));
        net.add_rule(e[1], s2, 2, entry(e[4], vec![Op::Swap(s1)]));
        net.add_rule(e[4], s1, 1, entry(e[1], vec![Op::Swap(s2)]));
        let report = lint_network(&net);
        assert!(!report.has_rule(LintRule::ForwardingLoop), "{report}");
    }

    #[test]
    fn partition_violations_detected() {
        let (t, e) = diamond();
        let mut labels = LabelTable::new();
        let ip = labels.ip("ip1");
        let s1 = labels.mpls_bos("s1");
        let mut net = Network::new(t, labels);
        // Swapping a bare IP header, and swapping towards an IP label.
        net.add_rule(e[0], ip, 1, entry(e[1], vec![Op::Swap(s1)]));
        net.add_rule(e[1], s1, 1, entry(e[2], vec![Op::Swap(ip)]));
        let report = lint_network(&net);
        let partition: Vec<_> = report
            .findings
            .iter()
            .filter(|f| f.rule == LintRule::PartitionViolation)
            .collect();
        assert_eq!(partition.len(), 2, "{report}");
        assert!(partition.iter().all(|f| f.severity == Severity::Error));
    }

    #[test]
    fn pop_of_ip_header_is_a_partition_violation() {
        let (t, e) = diamond();
        let mut labels = LabelTable::new();
        let ip = labels.ip("ip1");
        let mut net = Network::new(t, labels);
        net.add_rule(e[0], ip, 1, entry(e[1], vec![Op::Pop]));
        let report = lint_network(&net);
        assert!(report.has_rule(LintRule::PartitionViolation), "{report}");
    }

    #[test]
    fn corrupt_tables_mirror_validation_issues() {
        let (t, e) = diamond();
        let mut labels = LabelTable::new();
        let s1 = labels.mpls_bos("s1");
        let mut net = Network::new(t, labels);
        net.add_rule_unchecked(e[0], s1, 1, entry(LinkId(99), vec![]));
        net.add_rule_unchecked(e[0], LabelId(42), 1, entry(e[1], vec![]));
        net.add_rule_unchecked(e[1], s1, 1, entry(e[0], vec![])); // non-adjacent
        let report = lint_network(&net);
        assert!(report.has_rule(LintRule::LinkOutOfRange));
        assert!(report.has_rule(LintRule::UnknownLabel));
        assert!(report.has_rule(LintRule::NonAdjacentRule));
        assert_eq!(report.exit_code(), 1);
        // No cascading flow findings off the corrupt entries.
        assert!(!report.has_rule(LintRule::Blackhole));
    }

    #[test]
    fn pop_hides_the_out_label_conservatively() {
        let (t, e) = diamond();
        let mut labels = LabelTable::new();
        let m = labels.mpls("m");
        let s1 = labels.mpls_bos("s1");
        let mut net = Network::new(t, labels);
        // After popping the plain label the exposed bottom-of-stack
        // label is unknown: even though v2 has rules and might not
        // match, no blackhole is claimed.
        net.add_rule(e[0], m, 1, entry(e[1], vec![Op::Pop]));
        net.add_rule(e[1], s1, 1, entry(e[2], vec![Op::Pop]));
        let report = lint_network(&net);
        assert!(report.is_clean(), "{report}");
    }
}

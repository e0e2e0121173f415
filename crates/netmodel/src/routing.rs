//! MPLS networks: topology + label table + routing table `τ`
//! (Definition 2).
//!
//! The routing table maps `(incoming link, top label)` to a
//! priority-ordered sequence of *traffic-engineering groups*. Each group
//! is a set of `(outgoing link, operation sequence)` pairs; a router
//! nondeterministically forwards over any *active* link of the
//! highest-priority group that has one (Section 2.4). Lower group index
//! means higher priority, matching `O₁ O₂ … Oₙ` in the paper.

use crate::label::{LabelId, LabelTable};
use crate::topology::{LinkId, Topology};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// A single MPLS stack operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// Replace the top label.
    Swap(LabelId),
    /// Push a new top label.
    Push(LabelId),
    /// Remove the top label.
    Pop,
}

/// Sequences of up to this many operations are stored inline in the
/// [`RoutingEntry`] itself, with no heap allocation at all.
pub const OPSEQ_INLINE: usize = 3;

#[derive(Clone)]
enum OpSeqRepr {
    /// The common case: MPLS dataplanes overwhelmingly use 0–2
    /// operations per rule (swap, pop, swap+push for protection), so
    /// they fit in the entry without touching the allocator.
    Inline { len: u8, ops: [Op; OPSEQ_INLINE] },
    /// Longer sequences spill to a shared, immutable allocation.
    /// [`Network`] interns these so identical sequences across a
    /// million-rule table share one block.
    Heap(Arc<[Op]>),
}

/// A compact, immutable-by-default operation sequence.
///
/// Behaves like `&[Op]` (it derefs to a slice and iterates), compares
/// and hashes by content regardless of representation, and clones in
/// O(1) for heap-resident sequences (an `Arc` bump). Build one with
/// `vec![…].into()`, `.collect()`, or [`OpSeq::new`] + [`OpSeq::push`].
#[derive(Clone)]
pub struct OpSeq(OpSeqRepr);

impl OpSeq {
    /// The empty sequence (no allocation).
    pub const fn new() -> Self {
        OpSeq(OpSeqRepr::Inline {
            len: 0,
            ops: [Op::Pop; OPSEQ_INLINE],
        })
    }

    /// The operations as a slice.
    pub fn as_slice(&self) -> &[Op] {
        match &self.0 {
            OpSeqRepr::Inline { len, ops } => &ops[..*len as usize],
            OpSeqRepr::Heap(arc) => arc,
        }
    }

    /// Append one operation, spilling from the inline representation to
    /// a fresh heap block when it grows past [`OPSEQ_INLINE`]. A spilled
    /// (or shared) sequence is copied first, so pushing never mutates
    /// other clones.
    pub fn push(&mut self, op: Op) {
        match &mut self.0 {
            OpSeqRepr::Inline { len, ops } if (*len as usize) < OPSEQ_INLINE => {
                ops[*len as usize] = op;
                *len += 1;
            }
            _ => {
                let mut v = self.as_slice().to_vec();
                v.push(op);
                self.0 = OpSeqRepr::Heap(v.into());
            }
        }
    }

    /// Whether the sequence lives in a shared heap block, and if so its
    /// allocation identity and length — used to count shared blocks
    /// once in [`Network::bytes_resident`].
    fn heap_block(&self) -> Option<(*const Op, usize)> {
        match &self.0 {
            OpSeqRepr::Inline { .. } => None,
            OpSeqRepr::Heap(arc) => Some((arc.as_ptr(), arc.len())),
        }
    }

    /// Replace a heap-resident sequence with the pooled copy of the
    /// same content (inserting it if new), so duplicates share one
    /// allocation. Inline sequences are already allocation-free.
    fn intern(&mut self, pool: &mut HashSet<Arc<[Op]>>) {
        if let OpSeqRepr::Heap(arc) = &mut self.0 {
            match pool.get(&arc[..]) {
                Some(existing) => *arc = Arc::clone(existing),
                None => {
                    pool.insert(Arc::clone(arc));
                }
            }
        }
    }
}

impl Default for OpSeq {
    fn default() -> Self {
        OpSeq::new()
    }
}

impl std::ops::Deref for OpSeq {
    type Target = [Op];
    fn deref(&self) -> &[Op] {
        self.as_slice()
    }
}

impl PartialEq for OpSeq {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for OpSeq {}

impl std::hash::Hash for OpSeq {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl fmt::Debug for OpSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl From<Vec<Op>> for OpSeq {
    fn from(v: Vec<Op>) -> Self {
        OpSeq::from(v.as_slice())
    }
}

impl From<&[Op]> for OpSeq {
    fn from(s: &[Op]) -> Self {
        if s.len() <= OPSEQ_INLINE {
            let mut ops = [Op::Pop; OPSEQ_INLINE];
            ops[..s.len()].copy_from_slice(s);
            OpSeq(OpSeqRepr::Inline {
                len: s.len() as u8,
                ops,
            })
        } else {
            OpSeq(OpSeqRepr::Heap(s.into()))
        }
    }
}

impl<const N: usize> From<[Op; N]> for OpSeq {
    fn from(a: [Op; N]) -> Self {
        OpSeq::from(a.as_slice())
    }
}

impl FromIterator<Op> for OpSeq {
    fn from_iter<I: IntoIterator<Item = Op>>(iter: I) -> Self {
        iter.into_iter().collect::<Vec<_>>().into()
    }
}

impl<'a> IntoIterator for &'a OpSeq {
    type Item = &'a Op;
    type IntoIter = std::slice::Iter<'a, Op>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// One forwarding alternative: send over `out` applying `ops`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RoutingEntry {
    /// Outgoing link (must leave the router the incoming link enters).
    pub out: LinkId,
    /// Header operations applied while forwarding.
    pub ops: OpSeq,
}

impl RoutingEntry {
    /// Convenience constructor accepting anything convertible to an
    /// [`OpSeq`] (a `Vec<Op>`, a slice, an array).
    pub fn new(out: LinkId, ops: impl Into<OpSeq>) -> Self {
        RoutingEntry {
            out,
            ops: ops.into(),
        }
    }
}

/// A traffic-engineering group: a set of equally preferred alternatives.
pub type TeGroup = Vec<RoutingEntry>;

/// How serious a [`ValidationIssue`] is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Benign inconsistency the engines tolerate (e.g. an empty
    /// priority group shadowed by a later one).
    Warning,
    /// A well-formedness violation that can make verification results
    /// meaningless or crash the engine (dangling links, unknown labels).
    Error,
}

/// The category of a [`ValidationIssue`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[non_exhaustive]
pub enum IssueKind {
    /// A rule is keyed on, or an operation references, a label id that
    /// is not interned in the network's label table.
    UnknownLabel,
    /// A rule references a link id outside the topology.
    LinkOutOfRange,
    /// A forwarding entry's outgoing link does not leave the router the
    /// incoming link enters (Definition 2's `t(e) = s(e_j)`).
    NonAdjacentRule,
    /// An empty priority group shadowed by a non-empty lower-priority
    /// one (harmless, but usually a sign of a truncated table).
    EmptyGroup,
}

impl IssueKind {
    /// A stable lower-case identifier (used in JSON output).
    pub fn as_str(self) -> &'static str {
        match self {
            IssueKind::UnknownLabel => "unknown-label",
            IssueKind::LinkOutOfRange => "link-out-of-range",
            IssueKind::NonAdjacentRule => "non-adjacent-rule",
            IssueKind::EmptyGroup => "empty-group",
        }
    }
}

/// One problem found by [`Network::validate`]: what is wrong
/// (`kind`), how bad it is (`severity`), and where (`location`, a
/// human-readable rendering of the offending rule).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ValidationIssue {
    /// How serious the issue is.
    pub severity: Severity,
    /// The category of the issue.
    pub kind: IssueKind,
    /// Where the issue was found (rule key, link, label …).
    pub location: String,
}

impl fmt::Display for ValidationIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{sev}[{}]: {}", self.kind.as_str(), self.location)
    }
}

/// What [`Network::repair`] changed, for telemetry.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RepairReport {
    /// `(link, label)` keys dropped entirely (unknown label,
    /// out-of-range incoming link, or no surviving entries).
    pub dropped_keys: usize,
    /// Individual forwarding entries dropped (dangling or non-adjacent
    /// outgoing link, ops referencing unknown labels).
    pub dropped_entries: usize,
    /// Empty priority groups removed (priorities clamped down).
    pub removed_groups: usize,
}

impl RepairReport {
    /// Whether the repair pass changed nothing.
    pub fn is_clean(&self) -> bool {
        self.dropped_keys == 0 && self.dropped_entries == 0 && self.removed_groups == 0
    }
}

/// An MPLS network: topology, labels, and the routing function `τ`.
#[derive(Clone, Debug, Default)]
pub struct Network {
    /// The underlying multigraph.
    pub topology: Topology,
    /// The label universe.
    pub labels: LabelTable,
    table: HashMap<(LinkId, LabelId), Vec<TeGroup>>,
    /// Interning pool for heap-resident op sequences: every sequence
    /// longer than [`OPSEQ_INLINE`] inserted through the `add_rule`
    /// family is deduplicated here so a million-rule table with a few
    /// thousand distinct tunnel programs allocates each once. Entries
    /// removed from the table may linger in the pool (one small block
    /// each) until the network is dropped; that slack is invisible to
    /// equality and accounted for by [`Network::bytes_resident`] only
    /// while still referenced from the table.
    ops_pool: HashSet<Arc<[Op]>>,
}

impl Network {
    /// A network over the given topology and labels, with an empty
    /// routing table.
    pub fn new(topology: Topology, labels: LabelTable) -> Self {
        Network {
            topology,
            labels,
            table: HashMap::new(),
            ops_pool: HashSet::new(),
        }
    }

    /// Insert an entry at `priority`, interning any heap-resident op
    /// sequence through the pool first. All `add_rule` variants funnel
    /// through here.
    fn insert_entry(
        &mut self,
        in_link: LinkId,
        label: LabelId,
        priority: usize,
        mut entry: RoutingEntry,
    ) {
        entry.ops.intern(&mut self.ops_pool);
        let groups = self.table.entry((in_link, label)).or_default();
        if groups.len() < priority {
            groups.resize(priority, TeGroup::new());
        }
        groups[priority - 1].push(entry);
    }

    /// Add a forwarding rule: packets arriving on `in_link` with top
    /// label `label` may be forwarded over `entry.out` applying
    /// `entry.ops`, at the given `priority` (1 = highest, matching the
    /// paper's tables).
    ///
    /// # Panics
    /// If `entry.out` does not leave the router that `in_link` enters
    /// (the well-formedness condition `t(e) = s(e_j)` of Definition 2).
    pub fn add_rule(
        &mut self,
        in_link: LinkId,
        label: LabelId,
        priority: usize,
        entry: RoutingEntry,
    ) {
        assert!(priority >= 1, "priorities are 1-based");
        assert_eq!(
            self.topology.dst(in_link),
            self.topology.src(entry.out),
            "outgoing link must leave the router the incoming link enters"
        );
        self.insert_entry(in_link, label, priority, entry);
    }

    /// Fallible variant of [`Network::add_rule`]: returns a typed
    /// [`ValidationIssue`] instead of panicking when the rule is
    /// ill-formed (bad priority, out-of-range links, non-adjacent
    /// outgoing link, or unknown labels).
    pub fn try_add_rule(
        &mut self,
        in_link: LinkId,
        label: LabelId,
        priority: usize,
        entry: RoutingEntry,
    ) -> Result<(), ValidationIssue> {
        let issue = |kind, location: String| ValidationIssue {
            severity: Severity::Error,
            kind,
            location,
        };
        if priority == 0 {
            return Err(issue(
                IssueKind::EmptyGroup,
                "priorities are 1-based; got 0".to_string(),
            ));
        }
        if in_link.index() >= self.topology.num_links() as usize {
            return Err(issue(
                IssueKind::LinkOutOfRange,
                format!("incoming link id {} out of range", in_link.index()),
            ));
        }
        if entry.out.index() >= self.topology.num_links() as usize {
            return Err(issue(
                IssueKind::LinkOutOfRange,
                format!("outgoing link id {} out of range", entry.out.index()),
            ));
        }
        if label.index() >= self.labels.len() {
            return Err(issue(
                IssueKind::UnknownLabel,
                format!("rule keyed on unknown label id {}", label.index()),
            ));
        }
        for op in &entry.ops {
            if let Op::Swap(l) | Op::Push(l) = op {
                if l.index() >= self.labels.len() {
                    return Err(issue(
                        IssueKind::UnknownLabel,
                        format!("operation references unknown label id {}", l.index()),
                    ));
                }
            }
        }
        if self.topology.dst(in_link) != self.topology.src(entry.out) {
            return Err(issue(
                IssueKind::NonAdjacentRule,
                format!(
                    "rule forwards from {} over non-adjacent {}",
                    self.topology.link_name(in_link),
                    self.topology.link_name(entry.out),
                ),
            ));
        }
        self.add_rule(in_link, label, priority, entry);
        Ok(())
    }

    /// Insert a rule **without any well-formedness checks**.
    ///
    /// This exists for fault injection (the chaos harness deliberately
    /// creates corrupt tables that [`Network::validate`] and
    /// [`Network::repair`] must catch) and for format loaders that
    /// validate in bulk afterwards. Regular construction should use
    /// [`Network::add_rule`] or [`Network::try_add_rule`].
    pub fn add_rule_unchecked(
        &mut self,
        in_link: LinkId,
        label: LabelId,
        priority: usize,
        entry: RoutingEntry,
    ) {
        let priority = priority.max(1);
        self.insert_entry(in_link, label, priority, entry);
    }

    /// Remove one forwarding entry equal to `entry` from the group at
    /// `priority` of key `(in_link, label)`. Returns whether an entry was
    /// removed. Trailing empty groups are pruned and a key left without
    /// any entries is dropped, so removal keeps the table in the same
    /// canonical shape [`Network::repair`] produces.
    pub fn remove_entry(
        &mut self,
        in_link: LinkId,
        label: LabelId,
        priority: usize,
        entry: &RoutingEntry,
    ) -> bool {
        let Some(groups) = self.table.get_mut(&(in_link, label)) else {
            return false;
        };
        let Some(group) = priority.checked_sub(1).and_then(|i| groups.get_mut(i)) else {
            return false;
        };
        let Some(pos) = group.iter().position(|e| e == entry) else {
            return false;
        };
        group.remove(pos);
        while groups.last().is_some_and(Vec::is_empty) {
            groups.pop();
        }
        if groups.iter().all(Vec::is_empty) {
            self.table.remove(&(in_link, label));
        }
        true
    }

    /// Move the whole traffic-engineering group of key `(in_link,
    /// label)` from priority `from` to priority `to`, merging with any
    /// entries already at `to`. Returns whether anything moved. This is
    /// the "priority change" dataplane delta: re-ranking a failover
    /// alternative without touching its entries.
    pub fn move_group(&mut self, in_link: LinkId, label: LabelId, from: usize, to: usize) -> bool {
        if from == 0 || to == 0 || from == to {
            return false;
        }
        let Some(groups) = self.table.get_mut(&(in_link, label)) else {
            return false;
        };
        let Some(src) = from.checked_sub(1).and_then(|i| groups.get_mut(i)) else {
            return false;
        };
        if src.is_empty() {
            return false;
        }
        let moved = std::mem::take(src);
        if groups.len() < to {
            groups.resize(to, TeGroup::new());
        }
        groups[to - 1].extend(moved);
        while groups.last().is_some_and(Vec::is_empty) {
            groups.pop();
        }
        true
    }

    /// All rules forwarding *over* `out`, flattened as
    /// `(in_link, label, priority, entry)` in a deterministic order.
    /// This is the blast radius of a link-down delta: exactly the
    /// entries that stop forwarding when `out` is taken out of service.
    pub fn entries_over(&self, out: LinkId) -> Vec<(LinkId, LabelId, usize, RoutingEntry)> {
        let mut hits = Vec::new();
        for ((in_link, label), groups) in &self.table {
            for (gi, group) in groups.iter().enumerate() {
                for entry in group {
                    if entry.out == out {
                        hits.push((*in_link, *label, gi + 1, entry.clone()));
                    }
                }
            }
        }
        hits.sort_by(|a, b| {
            (a.0.index(), a.1.index(), a.2, a.3.out.index()).cmp(&(
                b.0.index(),
                b.1.index(),
                b.2,
                b.3.out.index(),
            ))
        });
        hits
    }

    /// The full priority-ordered group sequence `τ(e, ℓ)`; empty slice if
    /// no rule exists.
    pub fn groups(&self, in_link: LinkId, label: LabelId) -> &[TeGroup] {
        self.table
            .get(&(in_link, label))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Iterate over all `(in_link, label)` keys with routing entries.
    pub fn routing_keys(&self) -> impl Iterator<Item = (LinkId, LabelId)> + '_ {
        self.table.keys().copied()
    }

    /// Total number of forwarding rules (entries across all groups), the
    /// measure the paper reports for NORDUnet (>250k).
    pub fn num_rules(&self) -> usize {
        self.table
            .values()
            .map(|gs| gs.iter().map(|g| g.len()).sum::<usize>())
            .sum()
    }

    /// Estimated heap bytes held by the routing table: hash-map
    /// capacity, group/entry vectors, and spilled op sequences (each
    /// shared block counted once, however many entries reference it).
    /// Inline op sequences cost nothing beyond the entry itself, which
    /// is what keeps a million-rule scale-tier load in budget. The
    /// topology and label table are accounted separately by
    /// [`Topology::bytes_resident`] and [`LabelTable::bytes_resident`].
    pub fn bytes_resident(&self) -> usize {
        use std::mem::size_of;
        // Hash-map buckets: key + value + control byte per slot.
        let mut bytes = self.table.capacity()
            * (size_of::<(LinkId, LabelId)>() + size_of::<Vec<TeGroup>>() + 1);
        let mut seen_blocks: HashSet<*const Op> = HashSet::new();
        for groups in self.table.values() {
            bytes += groups.capacity() * size_of::<TeGroup>();
            for group in groups {
                bytes += group.capacity() * size_of::<RoutingEntry>();
                for entry in group {
                    if let Some((ptr, len)) = entry.ops.heap_block() {
                        if seen_blocks.insert(ptr) {
                            // Arc header (strong + weak counts) plus payload.
                            bytes += 2 * size_of::<usize>() + len * size_of::<Op>();
                        }
                    }
                }
            }
        }
        bytes
    }

    /// A printable name for a link id that may be out of range (the
    /// panicking [`Topology::link_name`] must not see corrupt ids).
    fn safe_link_name(&self, link: LinkId) -> String {
        if link.index() < self.topology.num_links() as usize {
            self.topology.link_name(link)
        } else {
            format!("link#{}", link.index())
        }
    }

    /// A printable name for a label id that may be out of range.
    fn safe_label_name(&self, label: LabelId) -> String {
        if label.index() < self.labels.len() {
            self.labels.name(label).to_string()
        } else {
            format!("label#{}", label.index())
        }
    }

    /// Validate internal consistency; returns typed issues.
    ///
    /// `Error`-severity issues (out-of-range links, unknown labels,
    /// non-adjacent rules) can crash or mislead the engines;
    /// `Warning`-severity issues (empty shadowed priority groups) are
    /// tolerated. All index accesses are range-guarded, so this is safe
    /// to call on arbitrarily corrupt tables — e.g. ones produced by
    /// fault injection via [`Network::add_rule_unchecked`].
    pub fn validate(&self) -> Vec<ValidationIssue> {
        let mut problems = Vec::new();
        // Locations are rendered here, i.e. only for checks that failed:
        // a clean table formats nothing.
        let mut push = |severity, kind, location: fmt::Arguments<'_>| {
            problems.push(ValidationIssue {
                severity,
                kind,
                location: location.to_string(),
            })
        };
        for ((in_link, label), groups) in &self.table {
            let key_loc = fmt::from_fn(|f| {
                let (link, label) = (self.safe_link_name(*in_link), self.safe_label_name(*label));
                write!(f, "({link}, {label})")
            });
            if label.index() >= self.labels.len() {
                push(
                    Severity::Error,
                    IssueKind::UnknownLabel,
                    format_args!("rule {key_loc} keyed on unknown label id {}", label.index()),
                );
            }
            let in_ok = in_link.index() < self.topology.num_links() as usize;
            if !in_ok {
                push(
                    Severity::Error,
                    IssueKind::LinkOutOfRange,
                    format_args!(
                        "rule {key_loc} keyed on out-of-range link id {}",
                        in_link.index()
                    ),
                );
            }
            for (gi, group) in groups.iter().enumerate() {
                if group.is_empty() && gi + 1 != groups.len() {
                    push(
                        Severity::Warning,
                        IssueKind::EmptyGroup,
                        format_args!("empty priority group {} for {key_loc}", gi + 1),
                    );
                }
                for entry in group {
                    if entry.out.index() >= self.topology.num_links() as usize {
                        push(
                            Severity::Error,
                            IssueKind::LinkOutOfRange,
                            format_args!(
                                "rule {key_loc} forwards over out-of-range link id {}",
                                entry.out.index()
                            ),
                        );
                    } else if in_ok && self.topology.dst(*in_link) != self.topology.src(entry.out) {
                        push(
                            Severity::Error,
                            IssueKind::NonAdjacentRule,
                            format_args!(
                                "rule {key_loc} forwards over non-adjacent {}",
                                self.safe_link_name(entry.out)
                            ),
                        );
                    }
                    for op in &entry.ops {
                        if let Op::Swap(l) | Op::Push(l) = op {
                            if l.index() >= self.labels.len() {
                                push(
                                    Severity::Error,
                                    IssueKind::UnknownLabel,
                                    format_args!(
                                        "rule {key_loc} operation references unknown label id {}",
                                        l.index()
                                    ),
                                );
                            }
                        }
                    }
                }
            }
        }
        problems
    }

    /// Opt-in repair: drop everything [`Network::validate`] flags as
    /// `Error` severity and tidy up `Warning`-level noise, leaving a
    /// network on which `validate()` reports no `Error` issues.
    ///
    /// Concretely: keys with an unknown label or out-of-range incoming
    /// link are dropped wholesale; entries with a dangling, non-adjacent
    /// outgoing link or ops referencing unknown labels are dropped;
    /// empty priority groups are removed (clamping lower priorities up);
    /// keys left without any entries are dropped.
    pub fn repair(&mut self) -> RepairReport {
        let mut report = RepairReport::default();
        let num_links = self.topology.num_links() as usize;
        let num_labels = self.labels.len();
        let topo = &self.topology;
        self.table.retain(|(in_link, label), groups| {
            if label.index() >= num_labels || in_link.index() >= num_links {
                report.dropped_keys += 1;
                return false;
            }
            let enters = topo.dst(*in_link);
            for group in groups.iter_mut() {
                let before = group.len();
                group.retain(|entry| {
                    entry.out.index() < num_links
                        && topo.src(entry.out) == enters
                        && entry.ops.iter().all(|op| match op {
                            Op::Swap(l) | Op::Push(l) => l.index() < num_labels,
                            Op::Pop => true,
                        })
                });
                report.dropped_entries += before - group.len();
            }
            let before_groups = groups.len();
            groups.retain(|g| !g.is_empty());
            report.removed_groups += before_groups - groups.len();
            if groups.is_empty() {
                report.dropped_keys += 1;
                return false;
            }
            true
        });
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::LabelTable;

    fn line_topology() -> (Topology, Vec<LinkId>) {
        // v0 -e0-> v1 -e1-> v2, plus v1 -e2-> v2 (parallel)
        let mut t = Topology::new();
        let v0 = t.add_router("v0", None);
        let v1 = t.add_router("v1", None);
        let v2 = t.add_router("v2", None);
        let e0 = t.add_link(v0, "i0", v1, "i1", 1);
        let e1 = t.add_link(v1, "i2", v2, "i3", 1);
        let e2 = t.add_link(v1, "i4", v2, "i5", 1);
        (t, vec![e0, e1, e2])
    }

    #[test]
    fn rules_group_by_priority() {
        let (t, e) = line_topology();
        let mut labels = LabelTable::new();
        let ip = labels.ip("ip1");
        let mut net = Network::new(t, labels);
        net.add_rule(
            e[0],
            ip,
            1,
            RoutingEntry {
                out: e[1],
                ops: vec![].into(),
            },
        );
        net.add_rule(
            e[0],
            ip,
            2,
            RoutingEntry {
                out: e[2],
                ops: vec![].into(),
            },
        );
        let groups = net.groups(e[0], ip);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0][0].out, e[1]);
        assert_eq!(groups[1][0].out, e[2]);
        assert_eq!(net.num_rules(), 2);
        assert!(net.validate().is_empty());
    }

    #[test]
    fn same_priority_entries_share_group() {
        let (t, e) = line_topology();
        let mut labels = LabelTable::new();
        let ip = labels.ip("ip1");
        let mut net = Network::new(t, labels);
        for out in [e[1], e[2]] {
            net.add_rule(
                e[0],
                ip,
                1,
                RoutingEntry {
                    out,
                    ops: vec![].into(),
                },
            );
        }
        assert_eq!(net.groups(e[0], ip).len(), 1);
        assert_eq!(net.groups(e[0], ip)[0].len(), 2);
    }

    #[test]
    #[should_panic(expected = "outgoing link must leave")]
    fn non_adjacent_rule_rejected() {
        let (t, e) = line_topology();
        let mut labels = LabelTable::new();
        let ip = labels.ip("ip1");
        let mut net = Network::new(t, labels);
        // e1 enters v2; e0 leaves v0 — not adjacent.
        net.add_rule(
            e[1],
            ip,
            1,
            RoutingEntry {
                out: e[0],
                ops: vec![].into(),
            },
        );
    }

    #[test]
    fn missing_rule_yields_empty_groups() {
        let (t, e) = line_topology();
        let mut labels = LabelTable::new();
        let ip = labels.ip("ip1");
        let net = Network::new(t, labels);
        assert!(net.groups(e[0], ip).is_empty());
    }

    #[test]
    fn try_add_rule_reports_typed_issues() {
        let (t, e) = line_topology();
        let mut labels = LabelTable::new();
        let ip = labels.ip("ip1");
        let mut net = Network::new(t, labels);
        // Non-adjacent: e1 enters v2 but e0 leaves v0.
        let err = net
            .try_add_rule(
                e[1],
                ip,
                1,
                RoutingEntry {
                    out: e[0],
                    ops: vec![].into(),
                },
            )
            .unwrap_err();
        assert_eq!(err.kind, IssueKind::NonAdjacentRule);
        assert_eq!(err.severity, Severity::Error);
        // Out-of-range link id.
        let err = net
            .try_add_rule(
                LinkId(99),
                ip,
                1,
                RoutingEntry {
                    out: e[1],
                    ops: vec![].into(),
                },
            )
            .unwrap_err();
        assert_eq!(err.kind, IssueKind::LinkOutOfRange);
        // Unknown label in an op.
        let err = net
            .try_add_rule(
                e[0],
                ip,
                1,
                RoutingEntry {
                    out: e[1],
                    ops: vec![Op::Swap(LabelId(42))].into(),
                },
            )
            .unwrap_err();
        assert_eq!(err.kind, IssueKind::UnknownLabel);
        // A valid rule still goes through.
        assert!(net
            .try_add_rule(
                e[0],
                ip,
                1,
                RoutingEntry {
                    out: e[1],
                    ops: vec![].into(),
                },
            )
            .is_ok());
        assert_eq!(net.num_rules(), 1);
    }

    #[test]
    fn validate_survives_corrupt_tables() {
        let (t, e) = line_topology();
        let mut labels = LabelTable::new();
        let ip = labels.ip("ip1");
        let mut net = Network::new(t, labels);
        // Corrupt state only add_rule_unchecked can create.
        net.add_rule_unchecked(
            LinkId(77),
            ip,
            1,
            RoutingEntry {
                out: e[1],
                ops: vec![].into(),
            },
        );
        net.add_rule_unchecked(
            e[0],
            LabelId(99),
            1,
            RoutingEntry {
                out: e[1],
                ops: vec![].into(),
            },
        );
        net.add_rule_unchecked(
            e[0],
            ip,
            2,
            RoutingEntry {
                out: LinkId(88),
                ops: vec![Op::Push(LabelId(55))].into(),
            },
        );
        net.add_rule_unchecked(
            e[1],
            ip,
            1,
            RoutingEntry {
                out: e[0],
                ops: vec![].into(),
            },
        );
        let issues = net.validate();
        assert!(issues.iter().any(|i| i.kind == IssueKind::LinkOutOfRange));
        assert!(issues.iter().any(|i| i.kind == IssueKind::UnknownLabel));
        assert!(issues.iter().any(|i| i.kind == IssueKind::EmptyGroup));
        assert!(issues.iter().all(|i| !i.location.is_empty()));
        // Golden: one issue per reporting site, exact text (the table is
        // a HashMap, so compare in location order).
        use IssueKind::*;
        use Severity::*;
        let mut got: Vec<(Severity, IssueKind, &str)> = issues
            .iter()
            .map(|i| (i.severity, i.kind, i.location.as_str()))
            .collect();
        got.sort_by_key(|t| t.2);
        let want = [
            (
                Warning,
                EmptyGroup,
                "empty priority group 1 for (v0.i0->v1.i1, ip1)",
            ),
            (
                Error,
                LinkOutOfRange,
                "rule (link#77, ip1) keyed on out-of-range link id 77",
            ),
            (
                Error,
                LinkOutOfRange,
                "rule (v0.i0->v1.i1, ip1) forwards over out-of-range link id 88",
            ),
            (
                Error,
                UnknownLabel,
                "rule (v0.i0->v1.i1, ip1) operation references unknown label id 55",
            ),
            (
                Error,
                UnknownLabel,
                "rule (v0.i0->v1.i1, label#99) keyed on unknown label id 99",
            ),
            (
                Error,
                NonAdjacentRule,
                "rule (v1.i2->v2.i3, ip1) forwards over non-adjacent v0.i0->v1.i1",
            ),
        ];
        assert_eq!(got, want);
        // Display renders severity + kind + location.
        let rendered = issues[0].to_string();
        assert!(rendered.contains('['));
    }

    #[test]
    fn remove_entry_prunes_empty_keys_and_groups() {
        let (t, e) = line_topology();
        let mut labels = LabelTable::new();
        let ip = labels.ip("ip1");
        let mut net = Network::new(t, labels);
        let first = RoutingEntry {
            out: e[1],
            ops: vec![].into(),
        };
        let backup = RoutingEntry {
            out: e[2],
            ops: vec![].into(),
        };
        net.add_rule(e[0], ip, 1, first.clone());
        net.add_rule(e[0], ip, 2, backup.clone());
        // Removing a non-existent entry is a no-op.
        assert!(!net.remove_entry(e[0], ip, 1, &backup));
        assert!(!net.remove_entry(e[0], ip, 9, &first));
        assert_eq!(net.num_rules(), 2);
        // Removing the backup prunes its now-empty trailing group.
        assert!(net.remove_entry(e[0], ip, 2, &backup));
        assert_eq!(net.groups(e[0], ip).len(), 1);
        // Removing the last entry drops the key entirely.
        assert!(net.remove_entry(e[0], ip, 1, &first));
        assert!(net.groups(e[0], ip).is_empty());
        assert_eq!(net.routing_keys().count(), 0);
    }

    #[test]
    fn move_group_rebalances_priorities() {
        let (t, e) = line_topology();
        let mut labels = LabelTable::new();
        let ip = labels.ip("ip1");
        let mut net = Network::new(t, labels);
        net.add_rule(
            e[0],
            ip,
            1,
            RoutingEntry {
                out: e[1],
                ops: vec![].into(),
            },
        );
        net.add_rule(
            e[0],
            ip,
            2,
            RoutingEntry {
                out: e[2],
                ops: vec![].into(),
            },
        );
        // Promote the backup group to priority 1 (merging).
        assert!(net.move_group(e[0], ip, 2, 1));
        let groups = net.groups(e[0], ip);
        assert_eq!(groups.len(), 1, "emptied trailing group is pruned");
        assert_eq!(groups[0].len(), 2);
        // Degenerate moves are no-ops.
        assert!(!net.move_group(e[0], ip, 1, 1));
        assert!(!net.move_group(e[0], ip, 5, 1));
        assert!(!net.move_group(e[0], ip, 0, 1));
    }

    #[test]
    fn entries_over_reports_link_blast_radius() {
        let (t, e) = line_topology();
        let mut labels = LabelTable::new();
        let ip = labels.ip("ip1");
        let mut net = Network::new(t, labels);
        net.add_rule(
            e[0],
            ip,
            1,
            RoutingEntry {
                out: e[1],
                ops: vec![].into(),
            },
        );
        net.add_rule(
            e[0],
            ip,
            2,
            RoutingEntry {
                out: e[2],
                ops: vec![].into(),
            },
        );
        let over = net.entries_over(e[2]);
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].0, e[0]);
        assert_eq!(over[0].2, 2);
        assert!(net.entries_over(e[0]).is_empty());
    }

    #[test]
    fn opseq_inline_and_spill() {
        let mut s = OpSeq::new();
        assert!(s.is_empty());
        assert!(s.heap_block().is_none());
        for i in 0..OPSEQ_INLINE {
            s.push(Op::Push(LabelId(i as u32)));
            assert!(s.heap_block().is_none(), "still inline at {}", i + 1);
        }
        s.push(Op::Pop);
        assert!(s.heap_block().is_some(), "spilled past OPSEQ_INLINE");
        assert_eq!(s.len(), OPSEQ_INLINE + 1);
        assert_eq!(s.last(), Some(&Op::Pop));
        // Content equality and hashing are representation-independent.
        let long: Vec<Op> = s.iter().copied().collect();
        let heap: OpSeq = long.clone().into();
        assert_eq!(s, heap);
        let mut set = HashSet::new();
        set.insert(s.clone());
        assert!(set.contains(&heap));
        // Pushing onto a shared heap sequence copies, not mutates.
        let before = heap.clone();
        let mut grown = heap.clone();
        grown.push(Op::Pop);
        assert_eq!(heap, before);
        assert_ne!(grown, before);
        // Round-trips through slices and iterators.
        assert_eq!(OpSeq::from(&long[..]), heap);
        assert_eq!(long.iter().copied().collect::<OpSeq>(), heap);
        assert_eq!(OpSeq::from([Op::Pop]).as_slice(), &[Op::Pop]);
    }

    #[test]
    fn network_interns_spilled_sequences() {
        let (t, e) = line_topology();
        let mut labels = LabelTable::new();
        let ip = labels.ip("ip1");
        let long = vec![Op::Push(ip), Op::Push(ip), Op::Push(ip), Op::Push(ip)];
        let mut net = Network::new(t, labels);
        for out in [e[1], e[2]] {
            net.add_rule(e[0], ip, 1, RoutingEntry::new(out, long.clone()));
        }
        // Both entries share one pooled allocation.
        let blocks: HashSet<_> = net.groups(e[0], ip)[0]
            .iter()
            .map(|entry| entry.ops.heap_block().expect("spilled").0)
            .collect();
        assert_eq!(blocks.len(), 1, "identical long sequences share a block");
        assert_eq!(net.ops_pool.len(), 1);
        // bytes_resident counts the shared block once and is non-trivial.
        let with_pool = net.bytes_resident();
        assert!(with_pool > 0);
        let mut inline_net = net.clone();
        inline_net.add_rule(e[0], ip, 2, RoutingEntry::new(e[1], vec![Op::Pop]));
        assert!(inline_net.bytes_resident() >= with_pool);
    }

    #[test]
    fn repair_removes_all_error_issues() {
        let (t, e) = line_topology();
        let mut labels = LabelTable::new();
        let ip = labels.ip("ip1");
        let mut net = Network::new(t, labels);
        net.add_rule(
            e[0],
            ip,
            1,
            RoutingEntry {
                out: e[1],
                ops: vec![].into(),
            },
        );
        net.add_rule_unchecked(
            LinkId(77),
            ip,
            1,
            RoutingEntry {
                out: e[1],
                ops: vec![].into(),
            },
        );
        net.add_rule_unchecked(
            e[0],
            ip,
            3,
            RoutingEntry {
                out: LinkId(88),
                ops: vec![].into(),
            },
        );
        let report = net.repair();
        assert!(!report.is_clean());
        assert_eq!(report.dropped_keys, 1);
        assert_eq!(report.dropped_entries, 1);
        assert!(report.removed_groups >= 1);
        assert!(net.validate().iter().all(|i| i.severity != Severity::Error));
        // The valid rule survived.
        assert_eq!(net.num_rules(), 1);
        assert_eq!(net.groups(e[0], ip)[0][0].out, e[1]);
        // A second repair is a no-op.
        assert!(net.repair().is_clean());
    }
}

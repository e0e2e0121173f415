//! Typed lint findings and the report container.

use formats::json::JsonObject;
use netmodel::Severity;
use std::cmp::Ordering;
use std::fmt;

/// Every lint rule, with a stable code. `DP…` codes analyze the
/// dataplane (routing tables), `QL…` codes analyze queries.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LintRule {
    /// `DP001` — a rule is keyed on, or an operation references, a
    /// label id outside the label table.
    UnknownLabel,
    /// `DP002` — a rule references a link id outside the topology.
    LinkOutOfRange,
    /// `DP003` — a rule's outgoing link does not leave the router its
    /// incoming link enters.
    NonAdjacentRule,
    /// `DP004` — an empty priority group shadowed by a later one.
    EmptyGroup,
    /// `DP010` — a rule provably rewrites the header top to an MPLS
    /// label no downstream rule matches.
    Blackhole,
    /// `DP011` — a backup entry forwards over a link that already
    /// appears in a higher-priority group, so it can never forward.
    ShadowedRule,
    /// `DP012` — a zero-failure forwarding loop (an SCC of the
    /// label-abstracted forwarding graph).
    ForwardingLoop,
    /// `DP013` — an MPLS operation applied to an `L_IP` header or
    /// targeting an `L_IP` label.
    PartitionViolation,
    /// `DP014` — all priority levels of a protected rule forward over
    /// one single link, so one failure defeats the protection.
    SharedFate,
    /// `DP015` — the routing table has no rules at all.
    EmptyTable,
    /// `QL001` — a label atom of a query resolves to the empty set.
    EmptyLabelAtom,
    /// `QL002` — a link atom of a query resolves to the empty set.
    EmptyLinkAtom,
    /// `QL003` — a query automaton accepts the empty language, so the
    /// query is vacuously unsatisfiable.
    VacuousQuery,
    /// `DP016` — a dataplane delta turned a previously clean out-label
    /// into a blackhole (delta-native: only a diff of the reports
    /// before and after the delta tells a pre-existing blackhole from
    /// one the delta introduced).
    DeltaBlackhole,
    /// `DP017` — a `LinkUp` restored stashed rules that are now
    /// shadowed by higher-priority rules added while the link was down.
    StaleRestoreShadow,
    /// `QL004` — a watched query that previously could start a trace
    /// became dead after a delta: every accepted path needs a
    /// forwarding step, and no first-edge link has any routing key
    /// left.
    DeadAfterDelta,
}

impl LintRule {
    /// Every rule, in code order. Keep in sync with the enum (the
    /// `code` match below is exhaustive, so adding a variant forces an
    /// edit here too; the registry self-test then asserts agreement).
    pub const ALL: &'static [LintRule] = &[
        LintRule::UnknownLabel,
        LintRule::LinkOutOfRange,
        LintRule::NonAdjacentRule,
        LintRule::EmptyGroup,
        LintRule::Blackhole,
        LintRule::ShadowedRule,
        LintRule::ForwardingLoop,
        LintRule::PartitionViolation,
        LintRule::SharedFate,
        LintRule::EmptyTable,
        LintRule::DeltaBlackhole,
        LintRule::StaleRestoreShadow,
        LintRule::EmptyLabelAtom,
        LintRule::EmptyLinkAtom,
        LintRule::VacuousQuery,
        LintRule::DeadAfterDelta,
    ];

    /// The stable code (`DP010`, `QL003`, …) used in reports and CI
    /// baselines.
    pub fn code(self) -> &'static str {
        match self {
            LintRule::UnknownLabel => "DP001",
            LintRule::LinkOutOfRange => "DP002",
            LintRule::NonAdjacentRule => "DP003",
            LintRule::EmptyGroup => "DP004",
            LintRule::Blackhole => "DP010",
            LintRule::ShadowedRule => "DP011",
            LintRule::ForwardingLoop => "DP012",
            LintRule::PartitionViolation => "DP013",
            LintRule::SharedFate => "DP014",
            LintRule::EmptyTable => "DP015",
            LintRule::EmptyLabelAtom => "QL001",
            LintRule::EmptyLinkAtom => "QL002",
            LintRule::VacuousQuery => "QL003",
            LintRule::DeltaBlackhole => "DP016",
            LintRule::StaleRestoreShadow => "DP017",
            LintRule::DeadAfterDelta => "QL004",
        }
    }

    /// A stable lower-case name, matching the codes one-to-one.
    pub fn name(self) -> &'static str {
        match self {
            LintRule::UnknownLabel => "unknown-label",
            LintRule::LinkOutOfRange => "link-out-of-range",
            LintRule::NonAdjacentRule => "non-adjacent-rule",
            LintRule::EmptyGroup => "empty-group",
            LintRule::Blackhole => "blackhole",
            LintRule::ShadowedRule => "shadowed-rule",
            LintRule::ForwardingLoop => "forwarding-loop",
            LintRule::PartitionViolation => "partition-violation",
            LintRule::SharedFate => "shared-fate",
            LintRule::EmptyTable => "empty-table",
            LintRule::EmptyLabelAtom => "empty-label-atom",
            LintRule::EmptyLinkAtom => "empty-link-atom",
            LintRule::VacuousQuery => "vacuous-query",
            LintRule::DeltaBlackhole => "delta-blackhole",
            LintRule::StaleRestoreShadow => "stale-restore-shadow",
            LintRule::DeadAfterDelta => "dead-after-delta",
        }
    }

    /// The severity findings of this rule carry.
    pub fn severity(self) -> Severity {
        match self {
            LintRule::UnknownLabel
            | LintRule::LinkOutOfRange
            | LintRule::NonAdjacentRule
            | LintRule::Blackhole
            | LintRule::ForwardingLoop
            | LintRule::PartitionViolation
            | LintRule::DeltaBlackhole => Severity::Error,
            LintRule::EmptyGroup
            | LintRule::ShadowedRule
            | LintRule::SharedFate
            | LintRule::EmptyTable
            | LintRule::EmptyLabelAtom
            | LintRule::EmptyLinkAtom
            | LintRule::VacuousQuery
            | LintRule::StaleRestoreShadow
            | LintRule::DeadAfterDelta => Severity::Warning,
        }
    }
}

/// One row of the lint-code registry: the rule, its stable code and
/// severity, and the PR that introduced it.
#[derive(Clone, Copy, Debug)]
pub struct RegistryEntry {
    /// The rule.
    pub rule: LintRule,
    /// Its stable code (must equal [`LintRule::code`]).
    pub code: &'static str,
    /// Its default severity (must equal [`LintRule::severity`]).
    pub severity: Severity,
    /// The PR that introduced the rule (provenance for the docs).
    pub since_pr: u32,
}

/// The registry of every lint rule ever shipped: one `{code, severity,
/// since-PR}` row per [`LintRule`] constructor. The self-test in this
/// module asserts it is complete and consistent with
/// [`LintRule::code`]/[`LintRule::severity`], and the README lint-code
/// table is generated from it (see [`registry_markdown`]), so codes and
/// severities can never silently drift.
pub const REGISTRY: &[RegistryEntry] = &[
    RegistryEntry {
        rule: LintRule::UnknownLabel,
        code: "DP001",
        severity: Severity::Error,
        since_pr: 3,
    },
    RegistryEntry {
        rule: LintRule::LinkOutOfRange,
        code: "DP002",
        severity: Severity::Error,
        since_pr: 3,
    },
    RegistryEntry {
        rule: LintRule::NonAdjacentRule,
        code: "DP003",
        severity: Severity::Error,
        since_pr: 3,
    },
    RegistryEntry {
        rule: LintRule::EmptyGroup,
        code: "DP004",
        severity: Severity::Warning,
        since_pr: 3,
    },
    RegistryEntry {
        rule: LintRule::Blackhole,
        code: "DP010",
        severity: Severity::Error,
        since_pr: 3,
    },
    RegistryEntry {
        rule: LintRule::ShadowedRule,
        code: "DP011",
        severity: Severity::Warning,
        since_pr: 3,
    },
    RegistryEntry {
        rule: LintRule::ForwardingLoop,
        code: "DP012",
        severity: Severity::Error,
        since_pr: 3,
    },
    RegistryEntry {
        rule: LintRule::PartitionViolation,
        code: "DP013",
        severity: Severity::Error,
        since_pr: 3,
    },
    RegistryEntry {
        rule: LintRule::SharedFate,
        code: "DP014",
        severity: Severity::Warning,
        since_pr: 3,
    },
    RegistryEntry {
        rule: LintRule::EmptyTable,
        code: "DP015",
        severity: Severity::Warning,
        since_pr: 3,
    },
    RegistryEntry {
        rule: LintRule::DeltaBlackhole,
        code: "DP016",
        severity: Severity::Error,
        since_pr: 8,
    },
    RegistryEntry {
        rule: LintRule::StaleRestoreShadow,
        code: "DP017",
        severity: Severity::Warning,
        since_pr: 8,
    },
    RegistryEntry {
        rule: LintRule::EmptyLabelAtom,
        code: "QL001",
        severity: Severity::Warning,
        since_pr: 3,
    },
    RegistryEntry {
        rule: LintRule::EmptyLinkAtom,
        code: "QL002",
        severity: Severity::Warning,
        since_pr: 3,
    },
    RegistryEntry {
        rule: LintRule::VacuousQuery,
        code: "QL003",
        severity: Severity::Warning,
        since_pr: 3,
    },
    RegistryEntry {
        rule: LintRule::DeadAfterDelta,
        code: "QL004",
        severity: Severity::Warning,
        since_pr: 8,
    },
];

/// Render the registry as the markdown table embedded in the README
/// ("generated from the registry": the docs test asserts the README
/// contains exactly this text).
pub fn registry_markdown() -> String {
    let mut out = String::from("| Code | Name | Severity | Since |\n|---|---|---|---|\n");
    for e in REGISTRY {
        let sev = match e.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        out.push_str(&format!(
            "| `{}` | {} | {} | PR {} |\n",
            e.code,
            e.rule.name(),
            sev,
            e.since_pr
        ));
    }
    out
}

/// One finding: which rule fired, how serious it is, where, and why.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LintFinding {
    /// The lint rule that fired.
    pub rule: LintRule,
    /// How serious the finding is (normally [`LintRule::severity`]).
    pub severity: Severity,
    /// Where the defect is (rule key, query atom, …).
    pub location: String,
    /// Why this is a defect, in one sentence.
    pub explanation: String,
}

impl LintFinding {
    /// A finding for `rule` with its default severity.
    pub fn new(
        rule: LintRule,
        location: impl Into<String>,
        explanation: impl Into<String>,
    ) -> Self {
        LintFinding {
            rule,
            severity: rule.severity(),
            location: location.into(),
            explanation: explanation.into(),
        }
    }
}

impl LintFinding {
    /// Serialize this one finding as a JSON object (the element shape
    /// of [`LintReport::to_json`]'s `findings` array, also used by the
    /// daemon's `lint-update` pushes).
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.string("code", self.rule.code());
        o.string("rule", self.rule.name());
        o.string(
            "severity",
            match self.severity {
                Severity::Warning => "warning",
                Severity::Error => "error",
            },
        );
        o.string("location", &self.location);
        o.string("explanation", &self.explanation);
        o.finish()
    }
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(
            f,
            "{sev} {}[{}] {}: {}",
            self.rule.code(),
            self.rule.name(),
            self.location,
            self.explanation
        )
    }
}

/// A set of findings, kept sorted (by code, then location, then
/// explanation) so reports are deterministic and diffable.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// The findings, in sorted order.
    pub findings: Vec<LintFinding>,
}

impl LintReport {
    /// An empty report.
    pub fn new() -> Self {
        LintReport::default()
    }

    /// Add a finding (re-sorts lazily on access via [`LintReport::merge`]
    /// — callers building reports push then sort once).
    pub(crate) fn push(&mut self, finding: LintFinding) {
        self.findings.push(finding);
    }

    /// Restore the sorted order after pushes.
    pub(crate) fn sort(&mut self) {
        self.findings.sort_by(|a, b| sort_key(a).cmp(&sort_key(b)));
    }

    /// Fold another report into this one, keeping the sorted order.
    pub fn merge(&mut self, other: LintReport) {
        self.findings.extend(other.findings);
        self.sort();
    }

    /// Multiset diff against a `newer` report, both in sorted order:
    /// `(added, removed)` — the findings only in `newer`, and those only
    /// in `self`.
    pub fn diff(&self, newer: &LintReport) -> (Vec<LintFinding>, Vec<LintFinding>) {
        let (old, new) = (&self.findings, &newer.findings);
        let (mut added, mut removed) = (Vec::new(), Vec::new());
        let (mut i, mut j) = (0, 0);
        while i < old.len() && j < new.len() {
            match sort_key(&old[i]).cmp(&sort_key(&new[j])) {
                Ordering::Less => {
                    removed.push(old[i].clone());
                    i += 1;
                }
                Ordering::Greater => {
                    added.push(new[j].clone());
                    j += 1;
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        removed.extend_from_slice(&old[i..]);
        added.extend_from_slice(&new[j..]);
        (added, removed)
    }

    /// Whether no lint fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of `Error`-severity findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Number of `Warning`-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count()
    }

    /// The most severe finding, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// Whether any finding of `rule` is present.
    pub fn has_rule(&self, rule: LintRule) -> bool {
        self.findings.iter().any(|f| f.rule == rule)
    }

    /// The exit code the CLI maps this report to: `0` clean, `2`
    /// warnings only, `1` at least one error.
    pub fn exit_code(&self) -> i32 {
        match self.max_severity() {
            None => 0,
            Some(Severity::Warning) => 2,
            Some(Severity::Error) => 1,
        }
    }

    /// Serialize as one JSON object (hand-rolled, serde-free, matching
    /// the repo's other telemetry emitters).
    pub fn to_json(&self) -> String {
        let mut arr = String::from("[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                arr.push(',');
            }
            arr.push_str(&f.to_json());
        }
        arr.push(']');
        let mut o = JsonObject::new();
        o.number("errors", self.errors() as f64);
        o.number("warnings", self.warnings() as f64);
        o.raw("findings", &arr);
        o.finish()
    }
}

/// The report order: code, then location, then explanation.
fn sort_key(f: &LintFinding) -> (&'static str, &str, &str) {
    (f.rule.code(), &f.location, &f.explanation)
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s)",
            self.errors(),
            self.warnings()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_rule_and_never_drifts() {
        // One registry row per rule, no more, no less.
        assert_eq!(REGISTRY.len(), LintRule::ALL.len());
        let mut seen_rules = std::collections::HashSet::new();
        let mut seen_codes = std::collections::HashSet::new();
        for e in REGISTRY {
            // The registry row must agree with the constructors in
            // dataplane.rs/querylint.rs (which call `LintFinding::new`,
            // which uses `LintRule::severity`).
            assert_eq!(e.rule.code(), e.code, "code drift for {:?}", e.rule);
            assert_eq!(
                e.rule.severity(),
                e.severity,
                "severity drift for {}",
                e.code
            );
            assert!(!e.rule.name().is_empty());
            assert!(e.since_pr >= 3, "dplint itself shipped in PR 3");
            assert!(seen_rules.insert(e.rule), "duplicate rule {:?}", e.rule);
            assert!(seen_codes.insert(e.code), "duplicate code {}", e.code);
        }
        for rule in LintRule::ALL {
            assert!(seen_rules.contains(rule), "{rule:?} missing from REGISTRY");
        }
        // Codes are unique and the table renders one row per rule.
        let md = registry_markdown();
        assert_eq!(md.lines().count(), REGISTRY.len() + 2);
        for e in REGISTRY {
            assert!(md.contains(&format!("| `{}` |", e.code)));
        }
    }

    #[test]
    fn codes_names_and_severities_are_stable() {
        // Spot-check the stable codes the golden files and CI baselines
        // rely on (full coverage lives in the registry self-test).
        assert_eq!(LintRule::UnknownLabel.code(), "DP001");
        assert_eq!(LintRule::Blackhole.code(), "DP010");
        assert_eq!(LintRule::EmptyTable.code(), "DP015");
        assert_eq!(LintRule::DeltaBlackhole.code(), "DP016");
        assert_eq!(LintRule::StaleRestoreShadow.code(), "DP017");
        assert_eq!(LintRule::VacuousQuery.code(), "QL003");
        assert_eq!(LintRule::DeadAfterDelta.code(), "QL004");
        assert_eq!(LintRule::DeltaBlackhole.severity(), Severity::Error);
        assert_eq!(LintRule::StaleRestoreShadow.severity(), Severity::Warning);
        assert_eq!(LintRule::DeadAfterDelta.severity(), Severity::Warning);
    }

    #[test]
    fn report_sorts_counts_and_serializes() {
        let mut r = LintReport::new();
        r.push(LintFinding::new(LintRule::EmptyTable, "table", "no rules"));
        r.push(LintFinding::new(LintRule::Blackhole, "(e1, s2)", "dangles"));
        r.sort();
        assert_eq!(r.findings[0].rule, LintRule::Blackhole, "DP010 < DP015");
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
        assert_eq!(r.max_severity(), Some(Severity::Error));
        assert_eq!(r.exit_code(), 1);
        let json = r.to_json();
        // Bare payload: the "kind" lives in the versioned envelope the
        // CLI wraps around it.
        assert!(!json.contains("\"kind\""));
        assert!(json.contains("\"code\":\"DP010\""));
        let text = r.to_string();
        assert!(text.contains("error DP010[blackhole]"));
        assert!(text.ends_with("1 error(s), 1 warning(s)"));
    }

    #[test]
    fn exit_codes_follow_severity() {
        let mut clean = LintReport::new();
        assert_eq!(clean.exit_code(), 0);
        clean.push(LintFinding::new(LintRule::SharedFate, "x", "y"));
        assert_eq!(clean.exit_code(), 2);
    }
}

//! Machine-readable run telemetry: a tiny hand-rolled JSON writer
//! (serde-free) plus batch-level aggregation of per-query statistics.

use crate::engine::Answer;
use std::time::Duration;

// The JSON writer primitives live in `formats::json` (they are also
// used by crates, like `dplint`, that sit *below* this one in the
// dependency graph); re-exported here so existing
// `aalwines::telemetry::JsonObject` users keep compiling unchanged.
pub use formats::json::{json_escape, JsonObject};

/// A duration in fractional milliseconds (the unit of all timing fields
/// in the JSON output).
pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Version of the JSON envelope emitted by every machine-readable
/// output surface (CLI `--json`/`--stats`/`--lint-json`, chaos reports,
/// and the `aalwinesd` wire protocol). Bump when the envelope shape —
/// not a payload — changes incompatibly.
pub const SCHEMA_VERSION: u32 = 1;

/// Wrap an already-serialized JSON payload in the versioned envelope
/// shared by every output surface:
///
/// ```json
/// {"schemaVersion":1,"kind":"<kind>","payload":<payload>}
/// ```
///
/// `kind` names the payload shape (`"answer"`, `"batch-summary"`,
/// `"lint-report"`, ...); consumers dispatch on it instead of sniffing
/// payload fields.
pub fn envelope(kind: &str, payload: &str) -> String {
    let mut o = JsonObject::new();
    o.number("schemaVersion", SCHEMA_VERSION as f64);
    o.string("kind", kind);
    o.raw("payload", payload);
    o.finish()
}

/// Degradation level of a resident service under memory pressure, as
/// reported by `aalwinesd`'s `health` verb and [`SessionStats`]
/// consumers. Order matters: each level strictly degrades further.
///
/// [`SessionStats`]: crate::session::SessionStats
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureState {
    /// Resident bytes within budget; nothing was shed.
    #[default]
    Normal,
    /// The budget was exceeded and cached answers were shed to get back
    /// under it; service continues at full function but with a colder
    /// cache.
    Shedding,
    /// Even an empty cache exceeds the budget: new subscriptions are
    /// refused until resident bytes fall back under it.
    Refusing,
}

impl PressureState {
    /// Stable lower-case name for JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            PressureState::Normal => "normal",
            PressureState::Shedding => "shedding",
            PressureState::Refusing => "refusing",
        }
    }

    /// Compact encoding for lock-free storage in an atomic.
    pub fn as_u8(self) -> u8 {
        match self {
            PressureState::Normal => 0,
            PressureState::Shedding => 1,
            PressureState::Refusing => 2,
        }
    }

    /// Inverse of [`PressureState::as_u8`]; unknown values decode as
    /// the most degraded state rather than silently healthy.
    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => PressureState::Normal,
            1 => PressureState::Shedding,
            _ => PressureState::Refusing,
        }
    }
}

/// Nearest-rank percentiles of a sample, in milliseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Percentiles {
    /// Median (50th percentile).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl Percentiles {
    /// Nearest-rank percentiles of `samples` (need not be sorted).
    /// All-zero for an empty sample.
    pub fn of(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return Percentiles::default();
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("telemetry samples are finite"));
        let rank = |q: usize| -> f64 {
            // Nearest-rank: the smallest value with at least q% of the
            // sample at or below it.
            let n = sorted.len();
            let idx = (q * n).div_ceil(100).max(1) - 1;
            sorted[idx]
        };
        Percentiles {
            p50: rank(50),
            p95: rank(95),
            max: *sorted.last().expect("non-empty"),
        }
    }

    fn to_json(self) -> String {
        let mut o = JsonObject::new();
        o.number("p50", self.p50);
        o.number("p95", self.p95);
        o.number("max", self.max);
        o.finish()
    }
}

/// Aggregated telemetry of a batch of verifications.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct BatchSummary {
    /// Number of queries in the batch.
    pub total: usize,
    /// Queries answered `Satisfied`.
    pub satisfied: usize,
    /// Queries answered `Unsatisfied`.
    pub unsatisfied: usize,
    /// Queries answered `Inconclusive`.
    pub inconclusive: usize,
    /// Queries that exceeded their budget.
    pub aborted: usize,
    /// Queries whose engine failed (isolated panics).
    pub errors: usize,
    /// Total under-approximation runs across the batch.
    pub under_runs: usize,
    /// Queries answered by the quick-decide pre-pass (no PDS built).
    pub quick_decided: usize,
    /// Answers served from the answer cache, summed across the batch.
    pub cache_hits: usize,
    /// Answers the dual engine computed, summed across the batch.
    pub cache_misses: usize,
    /// One-time network precomputation cost in milliseconds (maximum
    /// across the batch; every answer from one engine reports the same
    /// per-engine cost, like `validation_issues`).
    pub precomp_millis: f64,
    /// Network validation issues observed by the answering engines
    /// (maximum across the batch; every answer from one engine reports
    /// the same network-level count).
    pub validation_issues: usize,
    /// Construction-time distribution (milliseconds).
    pub t_construct: Percentiles,
    /// Reduction-time distribution (milliseconds).
    pub t_reduce: Percentiles,
    /// Solve-time distribution (milliseconds).
    pub t_solve: Percentiles,
    /// End-to-end-time distribution (milliseconds).
    pub t_total: Percentiles,
}

/// Incremental [`BatchSummary`] accumulation: feed answers one at a
/// time (the streaming driver never materializes the full answer
/// vector) and [`finish`](SummaryBuilder::finish) when done. Per-answer
/// state is four `f64` timing samples — the answers themselves,
/// witness traces included, are dropped after [`add`](SummaryBuilder::add).
#[derive(Clone, Debug, Default)]
pub struct SummaryBuilder {
    summary: BatchSummary,
    construct: Vec<f64>,
    reduce: Vec<f64>,
    solve: Vec<f64>,
    total: Vec<f64>,
}

impl SummaryBuilder {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one answer into the summary.
    pub fn add(&mut self, a: &Answer) {
        use crate::engine::Outcome;
        let s = &mut self.summary;
        s.total += 1;
        match &a.outcome {
            Outcome::Satisfied(_) => s.satisfied += 1,
            Outcome::Unsatisfied => s.unsatisfied += 1,
            Outcome::Inconclusive => s.inconclusive += 1,
            Outcome::Aborted(_) => s.aborted += 1,
            Outcome::Error(_) => s.errors += 1,
        }
        s.under_runs += a.stats.under_runs;
        if a.stats.quick_decided.is_some() {
            s.quick_decided += 1;
        }
        s.cache_hits += a.stats.cache_hits;
        s.cache_misses += a.stats.cache_misses;
        s.precomp_millis = s.precomp_millis.max(millis(a.stats.t_precomp));
        s.validation_issues = s.validation_issues.max(a.stats.validation_issues);
        self.construct.push(millis(a.stats.t_construct));
        self.reduce.push(millis(a.stats.t_reduce));
        self.solve.push(millis(a.stats.t_solve));
        self.total.push(millis(a.stats.t_total));
    }

    /// Answers folded in so far.
    pub fn count(&self) -> usize {
        self.summary.total
    }

    /// End-to-end-time percentiles of what has been folded in so far —
    /// the "p50/p95 so far" of streaming progress telemetry. O(n log n)
    /// in the answers so far; call it on a time-gated tick, not per
    /// answer.
    pub fn total_percentiles_so_far(&self) -> Percentiles {
        Percentiles::of(&self.total)
    }

    /// The finished summary.
    pub fn finish(mut self) -> BatchSummary {
        self.summary.t_construct = Percentiles::of(&self.construct);
        self.summary.t_reduce = Percentiles::of(&self.reduce);
        self.summary.t_solve = Percentiles::of(&self.solve);
        self.summary.t_total = Percentiles::of(&self.total);
        self.summary
    }
}

impl BatchSummary {
    /// Serialize the bare payload as one JSON object (hand-rolled,
    /// serde-free). Callers emitting to an output surface should wrap
    /// it via [`envelope`]`("batch-summary", ..)`.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.number("total", self.total as f64);
        o.number("satisfied", self.satisfied as f64);
        o.number("unsatisfied", self.unsatisfied as f64);
        o.number("inconclusive", self.inconclusive as f64);
        o.number("aborted", self.aborted as f64);
        o.number("errors", self.errors as f64);
        o.number("underRuns", self.under_runs as f64);
        o.number("quickDecided", self.quick_decided as f64);
        o.number("cacheHits", self.cache_hits as f64);
        o.number("cacheMisses", self.cache_misses as f64);
        o.number("precompMillis", self.precomp_millis);
        o.number("validationIssues", self.validation_issues as f64);
        o.raw("constructMillis", &self.t_construct.to_json());
        o.raw("reduceMillis", &self.t_reduce.to_json());
        o.raw("solveMillis", &self.t_solve.to_json());
        o.raw("totalMillis", &self.t_total.to_json());
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Answer, EngineStats, Outcome};
    use pdaal::budget::AbortReason;

    #[test]
    fn percentiles_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let p = Percentiles::of(&samples);
        assert_eq!(p.p50, 50.0);
        assert_eq!(p.p95, 95.0);
        assert_eq!(p.max, 100.0);

        let one = Percentiles::of(&[7.0]);
        assert_eq!(one.p50, 7.0);
        assert_eq!(one.p95, 7.0);
        assert_eq!(one.max, 7.0);

        assert_eq!(Percentiles::of(&[]), Percentiles::default());
    }

    #[test]
    fn summary_counts_outcomes() {
        let answers = vec![
            Answer::new(Outcome::Unsatisfied, EngineStats::new()),
            Answer::new(Outcome::Inconclusive, {
                let mut s = EngineStats::new();
                s.under_runs = 1;
                s
            }),
            Answer::aborted(AbortReason::DeadlineExceeded, EngineStats::new()),
        ];
        let mut b = SummaryBuilder::new();
        for a in &answers {
            b.add(a);
        }
        let s = b.finish();
        assert_eq!(s.total, 3);
        assert_eq!(s.unsatisfied, 1);
        assert_eq!(s.inconclusive, 1);
        assert_eq!(s.aborted, 1);
        assert_eq!(s.satisfied, 0);
        assert_eq!(s.under_runs, 1);
        let json = s.to_json();
        assert!(json.contains(r#""aborted":1"#));

        let wrapped = envelope("batch-summary", &json);
        assert!(wrapped.starts_with(r#"{"schemaVersion":1,"kind":"batch-summary","payload":{"#));
        assert!(wrapped.ends_with("}}"));
    }

    #[test]
    fn pressure_state_round_trips_and_orders() {
        for s in [
            PressureState::Normal,
            PressureState::Shedding,
            PressureState::Refusing,
        ] {
            assert_eq!(PressureState::from_u8(s.as_u8()), s);
        }
        assert_eq!(PressureState::from_u8(77), PressureState::Refusing);
        assert!(PressureState::Normal < PressureState::Shedding);
        assert!(PressureState::Shedding < PressureState::Refusing);
        assert_eq!(PressureState::default().as_str(), "normal");
    }

    #[test]
    fn envelope_wraps_payload_with_version() {
        assert_eq!(
            envelope("answer", r#"{"ok":true}"#),
            r#"{"schemaVersion":1,"kind":"answer","payload":{"ok":true}}"#
        );
    }
}

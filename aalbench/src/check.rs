//! Output checking: frozen known answers, witness replay, and the
//! cross-engine (Moped baseline) agreement check.

use crate::workloads::{Step, Unit, Workload};
use aalwines::{Answer, Backend, Outcome, Session};
use netmodel::Network;
use std::path::PathBuf;

/// One slot's verdict as a TSV row: `slot, kind, k, weight, query`.
/// Witness traces are left out on purpose: equal-weight traces may differ.
pub fn verdict_row(slot: usize, answer: &Answer, k: u32, query: &str) -> String {
    let weight = match &answer.outcome {
        Outcome::Satisfied(w) => w
            .weight
            .as_ref()
            .map(|v| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",")),
        _ => None,
    };
    format!(
        "{slot}\t{}\t{k}\t{}\t{query}",
        answer.outcome.kind(),
        weight.as_deref().unwrap_or("-")
    )
}

pub fn expected_path(workload: Workload, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{}.seed{seed}.tsv", workload.name()))
}

/// The frozen rows for `(workload, seed)`, if that seed was frozen.
pub fn load_expected(workload: Workload, seed: u64) -> Option<Vec<String>> {
    let text = std::fs::read_to_string(expected_path(workload, seed)).ok()?;
    Some(text.lines().map(str::to_string).collect())
}

/// A `Satisfied` answer must come with a trace that is valid on `net`
/// under its reported failure set, and that set must fit the query's `k`.
pub fn witness_replays(net: &Network, answer: &Answer, k: u32) -> bool {
    match &answer.outcome {
        Outcome::Satisfied(w) => {
            w.failed_links.len() as u32 <= k && w.trace.is_valid(net, &w.failed_links)
        }
        _ => true,
    }
}

/// Verdict kinds of the Moped baseline for the same script (deltas
/// included), `None` where a slot is skipped. With `every_slot` unset only
/// path-anchored queries and the first unanchored one of each unit are
/// run: Moped needs ~100x Dual's time on an unanchored query, which a
/// half-minute run cannot afford for every slot; `freeze` runs them all.
pub fn moped_kinds(
    units: &[Unit],
    nets: &[Network],
    every_slot: bool,
) -> Vec<Option<&'static str>> {
    let mut kinds = Vec::new();
    for (unit, net) in units.iter().zip(nets) {
        let mut session = Session::builder().backend(Backend::Moped).open(net.clone());
        let mut unanchored_seen = false;
        for step in &unit.steps {
            match step {
                Step::Delta(delta) => {
                    session.apply_delta(delta);
                }
                Step::Query(text) => {
                    let anchored = text.contains('#');
                    let run = every_slot || anchored || !unanchored_seen;
                    unanchored_seen |= !anchored;
                    kinds.push(run.then(|| {
                        session
                            .verify_text(text)
                            .expect("generated queries parse")
                            .outcome
                            .kind()
                    }));
                }
            }
        }
    }
    kinds
}

/// Two verdict kinds for one query agree when either is undecided or both
/// say the same. `satisfied` against `inconclusive` is a difference in
/// precision, not a wrong answer — and one the engine really shows between
/// processes, because its tie-breaking follows `HashMap` iteration order.
pub fn verdicts_agree(a: &str, b: &str) -> bool {
    let decided = |k: &str| k == "satisfied" || k == "unsatisfied";
    !(decided(a) && decided(b)) || a == b
}

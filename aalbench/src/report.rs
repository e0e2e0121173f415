//! Printing a run, and judging sets of runs (`repeat`, `compare`).

use crate::measure::quartiles;
use crate::run::RunResult;
use crate::spec::{EndToEnd, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::fmt::Write as _;

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`. Values are written with all their digits.
pub fn result_line(result: &RunResult) -> String {
    let metrics = if result.end_to_end.is_empty() {
        &result.per_layer
    } else {
        &result.end_to_end
    };
    let mut body = String::new();
    for (i, (name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        // `+ 0.0` turns the -0.0 an empty sum yields into 0.
        let value = if value.is_finite() { *value + 0.0 } else { 0.0 };
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        result.correct, result.attempted, result.failed
    )
}

/// Human-readable report, then the result line last.
pub fn print(result: &RunResult) {
    println!(
        "workload: {}  seed: {}  verdict_check: \"{}\"",
        result.workload.name(),
        result.seed,
        result.verdict_check
    );
    println!(
        "samples: {} set-up reps, {} passes, {} slots ({} beyond p90)",
        result.setup_reps, result.passes, result.slots, result.beyond_p90
    );
    for note in &result.notes {
        println!("{note}");
    }
    for (name, value) in result.end_to_end.iter().chain(&result.per_layer) {
        println!("{name:<32} {value:>16.4} {}", unit_of(name));
    }
    println!("{}", result_line(result));
}

/// `(workload, metric) -> values`, one per run, read from the result
/// lines of a set of runs (`workload<TAB>result line` per line).
pub type RunSet = BTreeMap<(String, String), Vec<f64>>;

pub fn parse_run_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let (workload, json) = line
            .split_once('\t')
            .ok_or_else(|| format!("not `workload<TAB>result`: {line}"))?;
        let value = formats::json::parse(json).map_err(|e| format!("{e}: {json}"))?;
        for m in &END_TO_END {
            let v = value
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|m| m.get("value"))
                .and_then(formats::json::Value::as_f64)
                .ok_or_else(|| format!("no metric {} in: {json}", m.name))?;
            set.entry((workload.to_string(), m.name.to_string()))
                .or_default()
                .push(v);
        }
    }
    Ok(set)
}

/// By how much of A's median B's median is worse (negative: better).
fn worse_by(m: &EndToEnd, a: f64, b: f64) -> f64 {
    if m.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// One row per workload x metric: both medians with quartiles, the ratio
/// with its base, and the verdict. Returns the table and whether any
/// median got worse by more than its bound.
pub fn compare(a: &RunSet, b: &RunSet) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<15} {:<15} {:>11} {:>8} {:>11} {:>8} {:>18} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "B/A (base A)", "bound"
    );
    for w in WORKLOADS {
        for m in &END_TO_END {
            let key = (w.name().to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (a1, am, a3) = quartiles(va);
            let (b1, bm, b3) = quartiles(vb);
            let spread = ((a3 - a1) / am).max((b3 - b1) / bm);
            let worse = worse_by(m, am, bm);
            let better_than = |x: f64, y: f64| if m.higher_is_better { x > y } else { x < y };
            let all_better = vb.iter().all(|x| va.iter().all(|y| better_than(*x, *y)));
            let verdict = if worse > m.bound {
                regressed = true;
                "REGRESSED"
            } else if spread > m.bound && !all_better {
                "unresolved"
            } else if worse < -m.bound {
                "improved"
            } else {
                "unchanged"
            };
            let _ = writeln!(
                out,
                "{:<15} {:<15} {:>11.4} {:>7.1}% {:>11.4} {:>7.1}% {:>8.3} of {:<7.4} {:>5.1}%  {verdict}",
                w.name(),
                m.name,
                am,
                100.0 * (a3 - a1) / am,
                bm,
                100.0 * (b3 - b1) / bm,
                bm / am,
                am,
                100.0 * m.bound,
            );
        }
    }
    (out, regressed)
}

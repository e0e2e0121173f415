//! The benchmark's contract in one place: metric names, units, directions
//! and bounds. `aalbench manifest` prints `BENCHMARK.json` from these
//! tables, and `repeat`/`compare` judge runs by the same bounds.

use crate::workloads::WORKLOADS;

/// How long one driver run measures.
pub const RUN_SECONDS: u32 = 16;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

// Bounds. On the 2-vCPU shared host this was written on, ten runs of
// *identical* work spread (q3 - q1) / median by 4-17 % on every timing: the
// host drifts between a fast and a ~20 % slower state, each lasting seconds
// to minutes, which no statistic over the passes of one run removes (median,
// lower quartile and minimum were compared; the median is the steadiest).
// So the timings carry the largest bound the contract allows; the README
// has the measured spread table. `peak_rss_mb` differs between seeds by up
// to 12 % on the smallest workload, `decided_share` by up to 5.6 %.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "verdicts_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "verdict_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "verdict_p90_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "decided_share",
        unit: "share",
        higher_is_better: true,
        bound: 0.2,
    },
];

/// `(name, unit, higher_is_better)` of every per-layer metric, in the
/// order of the README's interaction table.
pub const PER_LAYER: [(&str, &str, bool); 42] = [
    ("formats.parse_ms", "ms", false),
    ("formats.bytes_in", "bytes", false),
    ("formats.rules_per_s", "1/s", true),
    ("netmodel.validate_ms", "ms", false),
    ("netmodel.rules", "count", false),
    ("netmodel.bytes_resident", "bytes", false),
    ("precomp.build_ms", "ms", false),
    ("precomp.bytes_resident", "bytes", false),
    ("dplint.cold_lint_ms", "ms", false),
    ("dplint.relinted_keys", "count", false),
    ("query.parse_us", "us", false),
    ("query.compile_ms", "ms", false),
    ("query.nfa_states", "count", false),
    ("construction.over_ms", "ms", false),
    ("construction.under_ms", "ms", false),
    ("construction.rules", "count", false),
    ("construction.states", "count", false),
    ("reduction.ms", "ms", false),
    ("reduction.removed_share", "share", true),
    ("poststar.ms", "ms", false),
    ("poststar.transitions", "count", false),
    ("poststar.pops", "count", false),
    ("poststar.peak_worklist_bytes", "bytes", false),
    ("shortest.ms", "ms", false),
    ("lift.ms", "ms", false),
    ("lift.infeasible_share", "share", false),
    ("under.runs_share", "share", false),
    ("cache.hit_share", "share", true),
    ("cache.hit_ms", "ms", false),
    ("cache.bytes_resident", "bytes", false),
    ("cache.invalidated_per_delta", "count", false),
    ("cache.retained_per_delta", "count", true),
    ("session.open_ms", "ms", false),
    ("session.delta_ms", "ms", false),
    ("session.reverified_per_delta", "count", false),
    ("stream.speedup_vs_seq", "x", true),
    ("stream.queue_wait_ms", "ms", false),
    ("stream.peak_in_flight", "count", false),
    ("telemetry.emit_us", "us", false),
    ("proc.cpu_ms_per_verdict", "ms", false),
    ("trace.coverage", "share", true),
    ("trace.overhead_share", "share", false),
];

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, higher)| {
            format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better(*higher)
            )
        })
        .collect();
    format!(
        r#"{{
  "command": ["cargo", "run", "--release", "--quiet", "--offline", "--manifest-path", "aalbench/Cargo.toml", "--"],
  "paths": ["aalbench"],
  "run_seconds": {RUN_SECONDS},
  "workloads": [
    {}
  ],
  "end_to_end": [
    {}
  ],
  "per_layer": [
    {}
  ]
}}
"#,
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

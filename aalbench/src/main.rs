//! `aalbench` — the repo benchmark: four seeded closed-loop workloads, six
//! end-to-end metrics, and (traced) per-layer attribution from ingest to
//! JSON out. See README.md beside this package.
//!
//! ```text
//! aalbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//! aalbench --smoke [--workload <name>]                                2 s, 2 passes, check pass on
//! aalbench freeze | selftest | manifest
//! aalbench repeat [--sets 2] [--runs 5] [--seconds s]
//! aalbench compare <A.tsv> <B.tsv>
//! ```

mod check;
mod measure;
mod replay;
mod report;
mod run;
mod spec;
mod trace;
mod workloads;

use run::{execute, RunConfig, RunResult};
use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

/// Seeds whose known answers are frozen under `expected/`.
const FROZEN_SEEDS: [u64; 2] = [1, 2];

fn flag<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match flag(args, key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{key} takes a number, got `{v}`")),
    }
}

fn workload_arg(args: &[String]) -> Result<Option<Workload>, String> {
    flag(args, "--workload")
        .map(|name| Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`")))
        .transpose()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("freeze") => freeze(),
        Some("selftest") => selftest(),
        Some("manifest") => {
            print!("{}", spec::manifest());
            Ok(true)
        }
        Some("repeat") => repeat(&args),
        Some("compare") => compare(&args),
        _ if args.iter().any(|a| a == "--smoke") => smoke(&args),
        _ => single_run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("aalbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn single_run(args: &[String]) -> Result<bool, String> {
    let workload = workload_arg(args)?.ok_or("--workload <name> is required")?;
    let seed = parsed(args, "--seed", 1u64)?;
    let seconds = parsed(args, "--seconds", f64::from(spec::RUN_SECONDS))?;
    let trace = parsed(args, "--trace", 0u8)? != 0;
    let result = execute(&RunConfig::new(workload, seed, seconds, trace));
    report::print(&result);
    Ok(result.correct)
}

fn smoke(args: &[String]) -> Result<bool, String> {
    let seed = parsed(args, "--seed", 1u64)?;
    let only = workload_arg(args)?;
    let mut ok = true;
    for workload in WORKLOADS
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        let result = execute(&RunConfig::quick(workload, seed, 2.0, false));
        report::print(&result);
        ok &= result.correct;
    }
    Ok(ok)
}

/// Freeze the known answers of the frozen seeds. Refuses to write a file
/// unless Moped agrees with Dual on every slot's decided verdict and every
/// `Satisfied` witness replays (both are part of `correct`).
fn freeze() -> Result<bool, String> {
    for workload in WORKLOADS {
        for seed in FROZEN_SEEDS {
            let path = check::expected_path(workload, seed);
            // An existing file would be compared against; freeze from scratch.
            let _ = std::fs::remove_file(&path);
            let result = execute(&RunConfig {
                moped_every_slot: true,
                ..RunConfig::quick(workload, seed, 1.0, false)
            });
            if !result.correct {
                for note in &result.notes {
                    eprintln!("{note}");
                }
                return Err(format!(
                    "{} seed {seed}: {} of {} slot runs failed the cross-engine or replay check; nothing written",
                    workload.name(),
                    result.failed,
                    result.attempted
                ));
            }
            let dir = path.parent().expect("expected/ has a parent");
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            std::fs::write(&path, result.rows.join("\n") + "\n")
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("froze {} rows to {}", result.rows.len(), path.display());
        }
    }
    Ok(true)
}

/// The counts that depend only on the inputs — if the engine is
/// deterministic. On seed code it is not quite (see `selftest`).
const EXACT_COUNTS: [&str; 5] = [
    "construction.rules",
    "poststar.transitions",
    "poststar.pops",
    "cache.hit_share",
    "cache.invalidated_per_delta",
];

fn layer(result: &RunResult, name: &str) -> f64 {
    result
        .per_layer
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

fn query_of(row: &str) -> &str {
    row.rsplit('\t').next().unwrap_or_default()
}

/// Two 3 s traced runs per workload with one seed, and the inputs of
/// another seed. Fails on what the benchmark controls: the inputs, the
/// checks, the span coverage, and each workload bypassing what it claims
/// to. What the engine should repeat exactly but on seed code does not —
/// a few verdicts flip between satisfied and inconclusive with `HashMap`
/// order, and the counts follow — is reported as `differs`, not failed.
fn selftest() -> Result<bool, String> {
    let mut failures = 0;
    let mut ensure = |ok: bool, what: String| {
        println!("{} {what}", if ok { "ok     " } else { "FAIL   " });
        failures += usize::from(!ok);
    };
    let repeats = |same: bool, what: String| {
        println!("{} {what}", if same { "repeats" } else { "differs" });
    };
    let committed = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    );
    if let Ok(committed) = committed {
        ensure(
            committed == spec::manifest(),
            "BENCHMARK.json equals `aalbench manifest`".to_string(),
        );
    }
    for workload in WORKLOADS {
        let name = workload.name();
        let traced = |seed| execute(&RunConfig::quick(workload, seed, 3.0, true));
        let (a, b, other) = (traced(1), traced(1), workloads::generate(workload, 3));
        ensure(a.correct && b.correct, format!("{name}: both runs correct"));
        let queries = |r: &RunResult| {
            r.rows
                .iter()
                .map(|row| query_of(row).to_string())
                .collect::<Vec<_>>()
        };
        ensure(
            queries(&a) == queries(&b),
            format!("{name}: one seed, one slot list"),
        );
        let other_queries: Vec<&str> = other.iter().flat_map(workloads::Unit::slot_texts).collect();
        ensure(
            queries(&a) != other_queries,
            format!("{name}: another seed changes the queries"),
        );
        repeats(a.rows == b.rows, format!("{name}: verdict rows"));
        for count in EXACT_COUNTS {
            let (x, y) = (layer(&a, count), layer(&b, count));
            repeats(x == y, format!("{name}: {count} ({x} vs {y})"));
        }
        let coverage = layer(&a, "trace.coverage");
        ensure(
            (0.85..=1.15).contains(&coverage),
            format!("{name}: trace.coverage {coverage:.3} within 0.85-1.15"),
        );
        ensure(
            a.slots >= 120 && a.beyond_p90 >= 10,
            format!("{name}: {} slots, {} beyond p90", a.slots, a.beyond_p90),
        );
        let hit_share = layer(&a, "cache.hit_share");
        let cold = matches!(workload, Workload::OperatorAudit | Workload::ZooSweep);
        ensure(
            (hit_share == 0.0) == cold,
            format!("{name}: cache.hit_share {hit_share:.3}"),
        );
        ensure(
            (layer(&a, "formats.parse_ms") > 0.0) == cold,
            format!("{name}: formats.* only where text is ingested"),
        );
        for (metric, owner) in [
            ("session.delta_ms", Workload::ResidentChurn),
            ("stream.speedup_vs_seq", Workload::StreamScale),
        ] {
            ensure(
                (layer(&a, metric) > 0.0) == (workload == owner),
                format!("{name}: {metric} only on its workload"),
            );
        }
    }
    println!("{failures} checks failed");
    Ok(failures == 0)
}

/// Run one workload in a child process (peak RSS is per process) and
/// return its result line.
fn child_run(workload: Workload, seed: u64, seconds: f64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload.name(), "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    if !output.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {last}",
            workload.name(),
            output.status
        ));
    }
    Ok(last)
}

/// `--sets` sets of `--runs` runs of every workload, the sets interleaved
/// and the workload order alternating; run `i` of every set uses seed
/// `i + 1`. Fails when two sets' medians differ by more than a bound.
fn repeat(args: &[String]) -> Result<bool, String> {
    let sets = parsed(args, "--sets", 2usize)?;
    let runs = parsed(args, "--runs", 5usize)?;
    let seconds = parsed(args, "--seconds", f64::from(spec::RUN_SECONDS))?;
    let mut lines = vec![String::new(); sets];
    for run in 0..runs {
        let mut order = WORKLOADS.to_vec();
        if run % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            for set in 0..sets {
                // Alternate which set goes first.
                let set = if run % 2 == 1 { sets - 1 - set } else { set };
                let line = child_run(workload, run as u64 + 1, seconds)?;
                eprintln!(
                    "set {} run {} {}: {line}",
                    set + 1,
                    run + 1,
                    workload.name()
                );
                lines[set] += &format!("{}\t{line}\n", workload.name());
            }
        }
    }
    let dir = std::path::Path::new("target").join("aalbench");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut parsed_sets = Vec::new();
    for (i, text) in lines.iter().enumerate() {
        let path = dir.join(format!("repeat.set{}.tsv", i + 1));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("set {} written to {}", i + 1, path.display());
        parsed_sets.push(report::parse_run_set(text)?);
    }
    let mut ok = true;
    for b in 1..sets {
        let (table, regressed) = report::compare(&parsed_sets[0], &parsed_sets[b]);
        println!("set 1 (A) against set {} (B):\n{table}", b + 1);
        // Same code on both sides: a drift either way is noise beyond the bound.
        let (_, reverse) = report::compare(&parsed_sets[b], &parsed_sets[0]);
        ok &= !regressed && !reverse;
    }
    Ok(ok)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [_, a, b] = args else {
        return Err("usage: aalbench compare <A.tsv> <B.tsv>".to_string());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| report::parse_run_set(&text))
    };
    let (table, regressed) = report::compare(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(!regressed)
}

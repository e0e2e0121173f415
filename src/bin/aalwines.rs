//! The `aalwines` command-line tool: load a data-plane snapshot in the
//! vendor-agnostic Appendix-A formats and verify queries against it.
//!
//! ```text
//! aalwines --topology topo.xml --routing route.xml [--locations loc.json] \
//!          [--weight "Hops, Failures + 3*Tunnels"] [--engine moped] \
//!          --query '<ip> [.#v0] .* [v3#.] <ip> 0'
//!
//! aalwines --isis mapping.txt ...      # ingest per-router IS-IS dumps instead
//! aalwines --isis mapping.txt --write-topology topo.xml --write-routing route.xml
//!                                      # convert to the vendor-agnostic format
//! aalwines --demo                      # the paper's running example
//! aalwines ... --stdin                 # one query per line from stdin
//! aalwines ... --lint                  # static analysis instead of verification
//! ```
//!
//! Exit code 0: all queries conclusive; 2: at least one inconclusive;
//! 1: usage or input error. With `--lint`/`--lint-json`: 0 clean,
//! 2 warnings only, 1 at least one error.

use aalwines::examples::PAPER_QUERIES;
use aalwines::telemetry::envelope;
use aalwines::{
    Answer, Backend, BatchSummary, Outcome, SessionBuilder, StreamEvent, StreamOptions,
    VerifyOptions, WeightSpec,
};
use netmodel::Network;
use query::parse_query;
use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// `println!` for everything the run prints to stdout, except that a
/// reader that went away (`aalwines … | head -1`) ends the run quietly
/// with status 1 instead of a panic.
macro_rules! outln {
    ($($arg:tt)*) => {
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(1);
        }
    };
}

fn usage() -> ! {
    eprintln!(
        "usage: aalwines (--demo | --isis mapping.txt | --topology topo.xml --routing route.xml)\n\
         \x20        [--locations loc.json] (--query '<a> b <c> k' ... | --stdin)\n\
         \x20        [--weight 'expr, expr, ...'] [--engine dual|moped]\n\
         \x20        [--deadline-ms N] [--batch-deadline-ms N] [--max-transitions N]\n\
         \x20        [--threads N] [--cache-size N]\n\
         \x20        [--window N] [--progress-ms N]\n\
         \x20        [--stats] [--json] [--repair]\n\
         \x20        [--write-topology out.xml] [--write-routing out.xml]\n\
         \x20        [--lint | --lint-json]\n\
         \n\
         --demo without --query/--stdin runs the paper's six benchmark queries."
    );
    std::process::exit(1)
}

fn report(net: &Network, text: &str, answer: &Answer, show_stats: bool) -> bool {
    let conclusive = match &answer.outcome {
        Outcome::Satisfied(w) => {
            outln!("{text}");
            outln!("  SATISFIED");
            outln!("  witness: {}", w.trace.display(net));
            if !w.failed_links.is_empty() {
                let mut names: Vec<String> = w
                    .failed_links
                    .iter()
                    .map(|&l| net.topology.link_name(l))
                    .collect();
                names.sort();
                outln!("  failed links: {}", names.join(", "));
            }
            if let Some(weight) = &w.weight {
                outln!("  weight: {weight:?}");
            }
            true
        }
        Outcome::Unsatisfied => {
            outln!("{text}\n  UNSATISFIED");
            true
        }
        Outcome::Inconclusive => {
            outln!("{text}\n  INCONCLUSIVE");
            false
        }
        Outcome::Aborted(reason) => {
            outln!("{text}\n  ABORTED ({reason})");
            false
        }
        Outcome::Error(msg) => {
            outln!("{text}\n  ERROR ({msg})");
            false
        }
    };
    if show_stats {
        outln!("  stats: {}", answer.stats.to_json());
    }
    conclusive
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let value = |key: &str| {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let values = |key: &str| -> Vec<String> {
        args.iter()
            .enumerate()
            .filter(|(_, a)| *a == key)
            .filter_map(|(i, _)| args.get(i + 1).cloned())
            .collect()
    };

    let lint_mode = has("--lint") || has("--lint-json");

    // ---- load the network ------------------------------------------------
    let net: Network = if has("--demo") {
        aalwines::examples::paper_network()
    } else if let Some(gml_path) = value("--gml") {
        // A Topology Zoo GML file carries no routing; synthesize the
        // paper's evaluation data plane on top (LSPs between edge
        // routers + fast-failover tunnels along shortest paths).
        let text = match std::fs::read_to_string(&gml_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {gml_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let topo = match topogen::topology_from_gml(&text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{gml_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let n = topo.num_routers();
        let parse_n = |key: &str, default: usize| {
            value(key)
                .map(|v| v.parse().unwrap_or(default))
                .unwrap_or(default)
        };
        let dp = topogen::build_mpls_dataplane(
            topo,
            &topogen::LspConfig {
                edge_routers: parse_n("--edge-routers", (n as usize / 4).clamp(2, 24)),
                max_pairs: parse_n("--max-pairs", 300),
                protect: !has("--no-protection"),
                service_chains: parse_n("--service-chains", 2 * n as usize),
                seed: parse_n("--seed", 1) as u64,
            },
        );
        eprintln!(
            "synthesized LSPs on {gml_path}: edge routers {:?}",
            dp.edge_routers
                .iter()
                .map(|&r| dp.net.topology.router(r).name.clone())
                .collect::<Vec<_>>()
        );
        dp.net
    } else if let Some(mapping_path) = value("--isis") {
        let mapping = match std::fs::read_to_string(&mapping_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {mapping_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let base = std::path::Path::new(&mapping_path)
            .parent()
            .map(|p| p.to_path_buf())
            .unwrap_or_default();
        match formats::network_from_isis(&mapping, &|p| {
            std::fs::read_to_string(base.join(p)).map_err(|e| format!("{p}: {e}"))
        }) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("{mapping_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let (Some(tp), Some(rp)) = (value("--topology"), value("--routing")) else {
            usage()
        };
        let topo_text = match std::fs::read_to_string(&tp) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {tp}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let route_text = match std::fs::read_to_string(&rp) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {rp}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let loc_text = match value("--locations") {
            None => None,
            Some(lp) => match std::fs::read_to_string(&lp) {
                Ok(t) => Some(t),
                Err(e) => {
                    eprintln!("cannot read {lp}: {e}");
                    return ExitCode::FAILURE;
                }
            },
        };
        // The unified load path: every parse failure is a typed
        // LoadError with a byte offset where one exists. Lint mode
        // skips the validation gate — a semantically broken network is
        // exactly what the linter is for.
        let loaded = if lint_mode && !has("--repair") {
            aalwines_suite::load_dataplane_unchecked(&topo_text, &route_text, loc_text.as_deref())
        } else {
            aalwines_suite::load_dataplane(
                &topo_text,
                &route_text,
                loc_text.as_deref(),
                has("--repair"),
            )
        };
        match loaded {
            Ok(n) => n,
            Err(e) => {
                eprintln!("cannot load {tp} + {rp}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let mut net = net;
    let problems = net.validate();
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("  {p}");
        }
        let errors = problems
            .iter()
            .filter(|p| p.severity == netmodel::Severity::Error)
            .count();
        if has("--repair") {
            let report = net.repair();
            eprintln!(
                "repaired network: dropped {} rule keys, {} entries; removed {} empty groups",
                report.dropped_keys, report.dropped_entries, report.removed_groups
            );
        } else if errors > 0 && !lint_mode {
            // The linter reports these same defects itself (DP001–DP004),
            // so lint mode keeps going on an invalid network.
            eprintln!("invalid network: {errors} error(s) (re-run with --repair to drop them)");
            return ExitCode::FAILURE;
        }
    }
    let net = net;
    eprintln!(
        "loaded network: {} routers, {} links, {} rules, {} labels",
        net.topology.num_routers(),
        net.topology.num_links(),
        net.num_rules(),
        net.labels.len()
    );

    // ---- lint mode --------------------------------------------------------
    // `--lint` / `--lint-json` run the static analyzer instead of the
    // verifier: dataplane lints over the loaded network plus query
    // lints for any `--query`/`--stdin` queries. Exit 0 when clean,
    // 2 with warnings only, 1 with at least one error.
    if lint_mode {
        let mut lint_queries = Vec::new();
        let mut texts = values("--query");
        if has("--stdin") {
            let io_error = Arc::new(Mutex::new(None));
            texts.extend(stdin_queries(Arc::clone(&io_error)));
            let read_error = io_error.lock().unwrap().take();
            if let Some(e) = read_error {
                eprintln!("cannot read stdin: {e}");
                return ExitCode::FAILURE;
            }
        }
        for text in &texts {
            match parse_query(text) {
                Ok(q) => lint_queries.push(q),
                Err(e) => {
                    eprintln!("{text}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let report = dplint::lint_all(&net, &lint_queries);
        if has("--lint-json") {
            outln!("{}", envelope("lint-report", &report.to_json()));
        } else {
            outln!("{report}");
        }
        return ExitCode::from(report.exit_code() as u8);
    }

    // ---- conversion mode (paper Appendix A.1) -------------------------
    let mut converted = false;
    if let Some(path) = value("--write-topology") {
        if let Err(e) = std::fs::write(&path, formats::write_topology(&net.topology)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
        converted = true;
    }
    if let Some(path) = value("--write-routing") {
        if let Err(e) = std::fs::write(&path, formats::write_routes(&net)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
        converted = true;
    }
    if converted && values("--query").is_empty() && !has("--stdin") {
        return ExitCode::SUCCESS;
    }

    // ---- options ----------------------------------------------------------
    let weights = match value("--weight").map(|w| WeightSpec::parse(&w)) {
        Some(Ok(spec)) => Some(spec),
        Some(Err(e)) => {
            eprintln!("--weight: {e}");
            return ExitCode::FAILURE;
        }
        None => None,
    };
    let engine_name = value("--engine").unwrap_or_else(|| "dual".into());
    if engine_name == "moped" && weights.is_some() {
        eprintln!("the moped engine cannot handle weighted queries (as in the paper)");
        return ExitCode::FAILURE;
    }
    let parse_millis = |key: &str| -> Result<Option<Duration>, ExitCode> {
        match value(key) {
            None => Ok(None),
            Some(v) => match v.parse::<u64>() {
                Ok(ms) => Ok(Some(Duration::from_millis(ms))),
                Err(_) => {
                    eprintln!("{key}: expected milliseconds, got {v:?}");
                    Err(ExitCode::FAILURE)
                }
            },
        }
    };
    let mut opts = VerifyOptions::new();
    if let Some(w) = weights {
        opts = opts.with_weights(w);
    }
    match parse_millis("--deadline-ms") {
        Ok(Some(t)) => opts = opts.with_timeout(t),
        Ok(None) => {}
        Err(code) => return code,
    }
    if let Some(v) = value("--max-transitions") {
        match v.parse::<usize>() {
            Ok(max) => opts = opts.with_transition_budget(max),
            Err(_) => {
                eprintln!("--max-transitions: expected a count, got {v:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut builder = SessionBuilder::new();
    if let Some(v) = value("--threads") {
        match v.parse::<usize>() {
            Ok(n) => builder = builder.threads(n),
            Err(_) => {
                eprintln!("--threads: expected a count, got {v:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    match parse_millis("--batch-deadline-ms") {
        Ok(Some(t)) => builder = builder.batch_timeout(t),
        Ok(None) => {}
        Err(code) => return code,
    }
    let show_stats = has("--stats");
    let json_output = has("--json");

    // Answer cache (dual engine only; Moped has no cache).
    if let Some(v) = value("--cache-size") {
        match v.parse::<usize>() {
            Ok(n) => builder = builder.cache_size(n),
            Err(_) => {
                eprintln!("--cache-size: expected a count (0 disables the cache), got {v:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    match engine_name.as_str() {
        "dual" => {}
        "moped" => builder = builder.backend(Backend::Moped),
        other => {
            eprintln!("unknown engine {other:?} (use dual or moped)");
            return ExitCode::FAILURE;
        }
    }

    // ---- verification -----------------------------------------------------
    // Every run streams its queries through the bounded-window driver:
    // the `--query` texts (or, for `--demo` with neither `--query` nor
    // `--stdin`, the paper's six queries), then with `--stdin` one query
    // per line of stdin. Answers print in input order as they complete;
    // a malformed stdin line yields a per-query error answer instead of
    // aborting the run. `--window` bounds in-flight queries;
    // `--progress-ms` emits live telemetry envelopes on stderr.
    let from_stdin = has("--stdin");
    let mut texts = values("--query");
    if !from_stdin {
        if texts.is_empty() {
            if !has("--demo") {
                usage()
            }
            texts = PAPER_QUERIES.iter().map(|q| q.to_string()).collect();
        }
        // A `--query` run checks every text before any answer prints;
        // next to `--stdin` they stream like stdin lines instead.
        for text in &texts {
            if let Err(e) = parse_query(text) {
                eprintln!("{text}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut stream_opts = StreamOptions::new();
    if let Some(v) = value("--window") {
        match v.parse::<usize>() {
            Ok(n) => stream_opts = stream_opts.with_window(n),
            Err(_) => {
                eprintln!("--window: expected a count, got {v:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    match parse_millis("--progress-ms") {
        Ok(Some(t)) => stream_opts = stream_opts.with_progress_interval(t),
        Ok(None) => {}
        Err(code) => return code,
    }

    // One resident session owns the network, precomputation, and
    // cache; every query of the run reuses them.
    let session = builder.verify_options(opts).open(net);
    let net = session.network();

    // A read error mid-stream ends the input; remember it so the run
    // still exits 1 (the feeder thread owns the iterator, hence the
    // shared slot).
    let io_error = Arc::new(Mutex::new(None));
    let stdin_lines = from_stdin.then(|| stdin_queries(Arc::clone(&io_error)));
    let lines = texts.into_iter().chain(stdin_lines.into_iter().flatten());

    let mut all_conclusive = true;
    let summary = session.verify_stream(lines, &stream_opts, &mut |ev| match ev {
        StreamEvent::Answer { text, answer, .. } => {
            if json_output {
                outln!(
                    "{}",
                    envelope(
                        "answer",
                        &aalwines_suite::gui::answer_to_json(net, text, answer).to_json()
                    )
                );
                all_conclusive &= answer.outcome.is_conclusive();
            } else {
                all_conclusive &= report(net, text, answer, show_stats);
            }
        }
        StreamEvent::Progress(p) => {
            eprintln!("{}", envelope("stream-progress", &p.to_json()));
        }
    });
    if json_output && from_stdin {
        outln!("{}", envelope("stream-summary", &summary.to_json()));
    } else if json_output {
        outln!("{}", envelope("batch-summary", &summary.batch.to_json()));
    } else if show_stats {
        print_summary(&summary.batch);
    }
    if let Some(e) = io_error.lock().unwrap().take() {
        eprintln!("cannot read stdin: {e}");
        return ExitCode::FAILURE;
    }
    if summary.parse_errors > 0 {
        eprintln!(
            "{} quer{} failed to parse",
            summary.parse_errors,
            if summary.parse_errors == 1 {
                "y"
            } else {
                "ies"
            }
        );
        return ExitCode::FAILURE;
    }
    if all_conclusive {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// The query lines of stdin: trimmed, with blank lines and `#`
/// comments skipped. A read error ends the lines and is left in `error`.
fn stdin_queries(error: Arc<Mutex<Option<String>>>) -> impl Iterator<Item = String> + Send {
    BufReader::new(std::io::stdin())
        .lines()
        .map_while(move |line| {
            line.map_err(|e| *error.lock().unwrap() = Some(e.to_string()))
                .ok()
        })
        .map(|l| l.trim().to_string())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
}

fn print_summary(summary: &BatchSummary) {
    outln!(
        "summary: {} queries — {} satisfied, {} unsatisfied, {} inconclusive, {} aborted, \
         {} errors; solve p50 {:.3} ms, p95 {:.3} ms, max {:.3} ms",
        summary.total,
        summary.satisfied,
        summary.unsatisfied,
        summary.inconclusive,
        summary.aborted,
        summary.errors,
        summary.t_solve.p50,
        summary.t_solve.p95,
        summary.t_solve.max
    );
}

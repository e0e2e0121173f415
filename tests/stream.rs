//! End-to-end coverage of the multi-query driver: the CLI `--stdin`
//! path (per-line error isolation, ordering, exit codes, a reader that
//! closes stdout early), `--query` and `--stdin` runs printing the same
//! answers, the bounded-window guarantee on a 100k-query synthetic
//! stream, and a streamed-vs-batch differential.

use aalwines::examples::PAPER_QUERIES;
use aalwines::{Outcome, SessionBuilder, StreamEvent, StreamOptions, Witness};
use formats::json::Value;
use query::parse_query;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run the `aalwines` binary with `args`, feeding `stdin`; returns
/// (exit code, stdout, stderr).
fn run_cli(args: &[&str], stdin: &str) -> (i32, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_aalwines"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn aalwines");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("wait aalwines");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn cli_stdin_isolates_bad_lines_and_preserves_order() {
    let stdin = format!(
        "{}\nthis is garbage\n# a comment\n\n{}\nalso ] not a query\n{}\n",
        PAPER_QUERIES[0], PAPER_QUERIES[5], PAPER_QUERIES[2]
    );
    let (code, stdout, stderr) = run_cli(&["--demo", "--stdin", "--json"], &stdin);

    // Two bad lines: the whole run exits 1 (input error), but every
    // line — good and bad — still got its own answer, in input order.
    assert_eq!(code, 1, "parse errors must exit non-zero\nstderr: {stderr}");
    assert!(stderr.contains("2 queries failed to parse"), "{stderr}");

    let answers: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("\"kind\":\"answer\""))
        .collect();
    assert_eq!(
        answers.len(),
        5,
        "one answer per non-comment line\n{stdout}"
    );
    let expect = [
        (PAPER_QUERIES[0], false),
        ("this is garbage", true),
        (PAPER_QUERIES[5], false),
        ("also ] not a query", true),
        (PAPER_QUERIES[2], false),
    ];
    for (line, (query, is_error)) in answers.iter().zip(expect) {
        assert!(
            line.contains(&format!("\"query\":\"{query}\"")),
            "order violated: expected {query} in {line}"
        );
        assert_eq!(
            line.contains("\"result\":\"error\""),
            is_error,
            "wrong error flag for {query}: {line}"
        );
    }
    let summary = stdout
        .lines()
        .find(|l| l.contains("\"kind\":\"stream-summary\""))
        .expect("stream summary envelope");
    assert!(summary.contains("\"parseErrors\":2"), "{summary}");
}

#[test]
fn cli_stdin_all_good_exits_by_conclusiveness() {
    let stdin = format!("{}\n{}\n", PAPER_QUERIES[0], PAPER_QUERIES[5]);
    let (code, stdout, _) = run_cli(&["--demo", "--stdin", "--json"], &stdin);
    assert_eq!(code, 0, "conclusive answers exit 0\n{stdout}");
}

/// The `answer` payloads of a `--json` run with their `stats` (timing)
/// removed, plus the kind of the last envelope.
fn answers_without_stats(stdout: &str) -> (Vec<String>, String) {
    let mut answers = Vec::new();
    let mut last_kind = String::new();
    for line in stdout.lines() {
        let envelope = formats::json::parse(line).expect("every stdout line is an envelope");
        last_kind = envelope
            .get("kind")
            .and_then(Value::as_str)
            .unwrap()
            .to_string();
        if last_kind == "answer" {
            let Some(Value::Object(mut payload)) = envelope.get("payload").cloned() else {
                panic!("answer payload is an object: {line}");
            };
            payload.remove("stats");
            answers.push(Value::Object(payload).to_json());
        }
    }
    (answers, last_kind)
}

#[test]
fn cli_query_and_stdin_runs_print_identical_answers() {
    // The same six queries, once as the `--demo` default workload and
    // once piped through `--stdin`, take one path through the driver
    // and the printer; only the closing summary kind differs.
    let (code, batch_out, stderr) = run_cli(&["--demo", "--json"], "");
    assert_eq!(code, 0, "{stderr}");
    let (stream_code, stream_out, stderr) =
        run_cli(&["--demo", "--stdin", "--json"], &PAPER_QUERIES.join("\n"));
    assert_eq!(stream_code, 0, "{stderr}");

    let (batch, batch_kind) = answers_without_stats(&batch_out);
    let (streamed, stream_kind) = answers_without_stats(&stream_out);
    assert_eq!(batch.len(), PAPER_QUERIES.len());
    assert_eq!(batch, streamed);
    assert_eq!(batch_kind, "batch-summary");
    assert_eq!(stream_kind, "stream-summary");
}

#[test]
fn cli_bad_query_exits_1_before_any_answer() {
    let (code, stdout, stderr) = run_cli(
        &[
            "--demo",
            "--json",
            "--query",
            PAPER_QUERIES[0],
            "--query",
            "<ip> [#v0 <ip> 0",
        ],
        "",
    );
    assert_eq!(code, 1, "a malformed --query is a usage error\n{stderr}");
    assert!(stdout.is_empty(), "no answer may print: {stdout}");
    assert!(stderr.contains("<ip> [#v0 <ip> 0: "), "{stderr}");
}

#[test]
fn cli_cache_flags_conflict_is_usage_error() {
    // Both orders: the old behavior silently kept whichever flag came
    // last, so check the conflict is order-independent now.
    for args in [
        &["--demo", "--no-cache", "--cache-size", "4"][..],
        &["--demo", "--cache-size", "4", "--no-cache"][..],
    ] {
        let mut with_query = args.to_vec();
        with_query.extend(["--query", PAPER_QUERIES[0]]);
        let (code, _, stderr) = run_cli(&with_query, "");
        assert_eq!(code, 1, "conflict must be a usage error: {args:?}");
        assert!(
            stderr.contains("--no-cache conflicts with --cache-size"),
            "{stderr}"
        );
    }
}

#[test]
fn cli_exits_when_stdout_closes_mid_stream() {
    // `aalwines ... | head -1`: once the reader is gone, printing the
    // next answer fails while the window is full; the run must end on
    // its own with a failure status instead of hanging.
    let mut child = Command::new(env!("CARGO_BIN_EXE_aalwines"))
        .args(["--demo", "--stdin", "--threads", "2", "--window", "4"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn aalwines");
    let mut stdin = child.stdin.take().unwrap();
    let feeder = std::thread::spawn(move || {
        for _ in 0..2000 {
            if writeln!(stdin, "{}", PAPER_QUERIES[0]).is_err() {
                break; // the CLI exited and closed its end
            }
        }
    });
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).expect("read the first answer");
    assert_eq!(first.trim_end(), PAPER_QUERIES[0]);
    drop(stdout);

    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll aalwines") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("aalwines still running 20 s after its stdout closed");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        !status.success(),
        "a lost stdout must fail the run: {status}"
    );
    feeder.join().unwrap();
}

#[test]
fn bounded_window_on_100k_query_stream() {
    // 100k query texts cycling the demo suite: long enough that any
    // collect-the-stream implementation would be obvious, cheap enough
    // (answer-cache hits after the first six) to run in-tier.
    let net = aalwines::examples::paper_network();
    let session = SessionBuilder::new().threads(4).open(net);
    const N: usize = 100_000;
    const WINDOW: usize = 8;
    let lines = (0..N).map(|i| PAPER_QUERIES[i % PAPER_QUERIES.len()].to_string());

    let mut next = 0usize;
    let stream = StreamOptions::new().with_window(WINDOW);
    let summary = session.verify_stream(lines, &stream, &mut |ev| {
        if let StreamEvent::Answer { index, .. } = ev {
            assert_eq!(index, next, "answers must arrive in input order");
            next += 1;
        }
    });
    assert_eq!(next, N);
    assert_eq!(summary.batch.total, N);
    assert_eq!(summary.parse_errors, 0);
    assert!(
        summary.peak_in_flight <= WINDOW,
        "in-flight peak {} exceeded the configured window {WINDOW}",
        summary.peak_in_flight
    );
    assert!(summary.peak_in_flight >= 1);
}

/// Canonical answer rendering with timing stats stripped: outcome,
/// witness trace, sorted failed-link set, weight.
fn canonical(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Satisfied(w) => {
            let Witness {
                trace,
                failed_links,
                weight,
            } = w.as_ref();
            let mut links: Vec<usize> = failed_links.iter().map(|l| l.index()).collect();
            links.sort_unstable();
            format!("Satisfied(trace={trace:?}, failed={links:?}, weight={weight:?})")
        }
        other => format!("{other:?}"),
    }
}

#[test]
fn streamed_answers_match_batch_answers() {
    // 1k-query differential: texts streamed (parsed on the feeder
    // thread) must answer exactly what pre-parsed queries collected by
    // `verify_batch` answer, query for query, modulo timing.
    let topo = topogen::zoo_like(&topogen::ZooConfig {
        routers: 24,
        avg_degree: 3.0,
        seed: 0xD1FF,
    });
    let dp = topogen::build_mpls_dataplane(
        topo,
        &topogen::LspConfig {
            edge_routers: 6,
            max_pairs: 30,
            protect: true,
            service_chains: 40,
            seed: 0xD1FE,
        },
    );
    let texts = topogen::queries::figure4_queries(&dp, 1000, 0xD1FD);
    let parsed: Vec<query::Query> = texts
        .iter()
        .map(|t| parse_query(t).expect("generated queries parse"))
        .collect();

    let batch_session = SessionBuilder::new().threads(2).open(dp.net.clone());
    let batch: Vec<String> = batch_session
        .verify_batch(&parsed)
        .iter()
        .map(|a| canonical(&a.outcome))
        .collect();

    let stream_session = SessionBuilder::new().threads(2).open(dp.net.clone());
    let mut streamed = Vec::with_capacity(texts.len());
    stream_session.verify_stream(
        texts.iter().cloned(),
        &StreamOptions::new().with_window(16),
        &mut |ev| {
            if let StreamEvent::Answer { answer, .. } = ev {
                streamed.push(canonical(&answer.outcome));
            }
        },
    );
    assert_eq!(streamed.len(), batch.len());
    for (i, (s, b)) in streamed.iter().zip(&batch).enumerate() {
        assert_eq!(s, b, "query {i} ({})", texts[i]);
    }
}

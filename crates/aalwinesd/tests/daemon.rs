//! End-to-end exercise of `aalwinesd` over a real Unix domain socket:
//! concurrent clients sharing one warm session, footprint-scoped delta
//! invalidation (asserted via the report counters), changed-answer
//! pushes to subscribers, and incremental answers matching a cold
//! rebuild of the mutated dataplane.

use aalwinesd::{Daemon, DaemonConfig};
use formats::json::{parse as parse_json, Value};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

const DEMO_QUERIES: [&str; 4] = [
    "<ip> [.#v0] .* [v3#.] <ip> 0",
    "<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2",
    "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
    "<ip> [.#v3] .* [v0#.] <ip> 2",
];

struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    /// Unsolicited `update` payloads received while waiting for
    /// responses.
    updates: Vec<Value>,
}

impl Client {
    fn connect(path: &Path) -> Client {
        let stream = UnixStream::connect(path).expect("connect");
        let writer = stream.try_clone().expect("clone");
        Client {
            reader: BufReader::new(stream),
            writer,
            updates: Vec::new(),
        }
    }

    /// Send a request and return the payload of the response envelope,
    /// asserting its kind. `update` pushes arriving first are stashed.
    fn roundtrip(&mut self, request: &str, want_kind: &str) -> Value {
        writeln!(self.writer, "{request}").expect("send");
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("recv");
            assert!(!line.is_empty(), "connection closed during {request}");
            let envelope = parse_json(line.trim_end()).expect("envelope JSON");
            assert_eq!(
                envelope.get("schemaVersion").and_then(Value::as_f64),
                Some(1.0),
                "unversioned envelope: {line}"
            );
            let kind = envelope.get("kind").and_then(Value::as_str).unwrap();
            let payload = envelope.get("payload").cloned().unwrap();
            if kind == "update" {
                self.updates.push(payload);
                continue;
            }
            assert_eq!(kind, want_kind, "{request} answered {line}");
            return payload;
        }
    }
}

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("aalwinesd-test-{}-{tag}.sock", std::process::id()))
}

fn start(tag: &str) -> (Daemon, PathBuf, std::thread::JoinHandle<()>) {
    let path = socket_path(tag);
    let daemon = Daemon::new(DaemonConfig {
        threads: 2,
        ..DaemonConfig::default()
    });
    daemon.preload(aalwines::examples::paper_network());
    let server = {
        let daemon = daemon.clone();
        let path = path.clone();
        std::thread::spawn(move || daemon.serve(&path).expect("serve"))
    };
    for _ in 0..400 {
        if path.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(path.exists(), "daemon never bound {}", path.display());
    (daemon, path, server)
}

fn result_of(payload: &Value) -> String {
    payload
        .get("result")
        .and_then(Value::as_str)
        .expect("answer payload has a result")
        .to_string()
}

#[test]
fn concurrent_clients_deltas_and_pushes_end_to_end() {
    let (_daemon, path, server) = start("e2e");

    // ---- two concurrent clients fan queries at the warm session -----
    let workers: Vec<_> = (0..2)
        .map(|w| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&path);
                let mut results = Vec::new();
                for q in DEMO_QUERIES {
                    let payload =
                        c.roundtrip(&format!(r#"{{"verb":"query","query":"{q}"}}"#), "answer");
                    results.push((w, q, result_of(&payload)));
                }
                results
            })
        })
        .collect();
    let mut results = Vec::new();
    for w in workers {
        results.extend(w.join().expect("worker"));
    }
    // Both clients saw the same verdict per query.
    for q in DEMO_QUERIES {
        let verdicts: Vec<&String> = results
            .iter()
            .filter(|(_, text, _)| *text == q)
            .map(|(_, _, v)| v)
            .collect();
        assert_eq!(verdicts.len(), 2);
        assert_eq!(verdicts[0], verdicts[1], "{q}");
    }

    let mut a = Client::connect(&path);
    let stats = a.roundtrip(r#"{"verb":"stats"}"#, "session-stats");
    let cached = stats
        .get("cacheEntries")
        .and_then(Value::as_f64)
        .expect("cacheEntries") as usize;
    assert!(cached > 0, "session must be warm after the query fan-out");
    assert!(
        stats
            .get("bytesResident")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            > 0.0
    );

    // ---- subscribe, then a delta that changes the answer ------------
    let q0 = DEMO_QUERIES[0];
    let sub = a.roundtrip(
        &format!(r#"{{"verb":"subscribe","query":"{q0}"}}"#),
        "subscribed",
    );
    assert_eq!(
        result_of(sub.get("answer").expect("initial answer")),
        "satisfied"
    );

    // Take down e7 (v3 -> x_out, index 7): the egress of every
    // satisfied demo path, so q0 must flip and a push must arrive.
    let report = a.roundtrip(
        r#"{"verb":"delta","delta":{"kind":"link-down","link":7}}"#,
        "delta-report",
    );
    let counters = report.get("report").expect("report");
    assert_eq!(counters.get("applied"), Some(&Value::Bool(true)));
    let invalidated = counters.get("invalidated").and_then(Value::as_f64).unwrap() as usize;
    let retained = counters.get("retained").and_then(Value::as_f64).unwrap() as usize;
    // Invalidation is exact: every cached answer is either dropped
    // (footprint intersects the delta) or retained — never recomputed "to
    // be safe".
    assert_eq!(
        invalidated + retained,
        cached,
        "counters must partition the warm cache"
    );
    assert!(invalidated > 0, "downing the egress must invalidate");

    // The push arrived on the subscriber's connection (it may precede
    // the delta-report; roundtrip stashes it either way — poll one more
    // response if needed).
    if a.updates.is_empty() {
        a.roundtrip(r#"{"verb":"stats"}"#, "session-stats");
    }
    assert!(!a.updates.is_empty(), "subscriber got no update push");
    let update = &a.updates[0];
    assert_eq!(update.get("query").and_then(Value::as_str), Some(q0));
    assert_ne!(
        result_of(update.get("answer").expect("pushed answer")),
        "satisfied",
        "severed egress cannot stay satisfied"
    );

    // ---- incremental answers equal a cold rebuild -------------------
    // Rebuild the mutated dataplane independently and compare verdicts.
    let mut cold_session = aalwines::Session::open(aalwines::examples::paper_network());
    cold_session.apply_delta(&aalwines::Delta::LinkDown(netmodel::LinkId(7)));
    let cold_net = cold_session.network().clone();
    for q in DEMO_QUERIES {
        let warm = a.roundtrip(&format!(r#"{{"verb":"query","query":"{q}"}}"#), "answer");
        let parsed = query::parse_query(q).unwrap();
        let cold = aalwines::Engine::verify(
            &aalwines::Verifier::new(&cold_net),
            &parsed,
            &aalwines::VerifyOptions::new(),
        );
        let cold_result = match &cold.outcome {
            aalwines::Outcome::Satisfied(_) => "satisfied",
            aalwines::Outcome::Unsatisfied => "unsatisfied",
            aalwines::Outcome::Inconclusive => "inconclusive",
            aalwines::Outcome::Aborted(_) => "aborted",
            aalwines::Outcome::Error(_) => "error",
        };
        assert_eq!(result_of(&warm), cold_result, "{q}");
    }

    // ---- shutdown ---------------------------------------------------
    a.roundtrip(r#"{"verb":"shutdown"}"#, "bye");
    server.join().expect("server thread");
    assert!(!path.exists(), "socket file must be cleaned up");
}

#[test]
fn link_up_restores_subscribed_answer() {
    let (_daemon, path, server) = start("restore");
    let mut c = Client::connect(&path);
    let q0 = DEMO_QUERIES[0];
    let sub = c.roundtrip(
        &format!(r#"{{"verb":"subscribe","query":"{q0}"}}"#),
        "subscribed",
    );
    assert_eq!(result_of(sub.get("answer").unwrap()), "satisfied");

    c.roundtrip(
        r#"{"verb":"delta","delta":{"kind":"link-down","link":7}}"#,
        "delta-report",
    );
    let up = c.roundtrip(
        r#"{"verb":"delta","delta":{"kind":"link-up","link":7}}"#,
        "delta-report",
    );
    assert_eq!(
        up.get("report").and_then(|r| r.get("applied")),
        Some(&Value::Bool(true))
    );
    // Down then up flips the answer twice; the latest push must be
    // satisfied again.
    assert!(c.updates.len() >= 2, "expected pushes for both flips");
    let last = c.updates.last().unwrap();
    assert_eq!(result_of(last.get("answer").unwrap()), "satisfied");

    c.roundtrip(r#"{"verb":"shutdown"}"#, "bye");
    server.join().expect("server thread");
}

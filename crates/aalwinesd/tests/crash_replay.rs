//! The crash-replay property, exercised against the real binary:
//! `kill -9` a journaled daemon at a random point in a delta storm,
//! restart it over the same journal, and the restarted daemon must
//! answer every probe query **byte-identically** (modulo volatile
//! timing stats) to a cold rebuild of the exact operation prefix the
//! journal preserved — with `health` reporting a clean replay.
//!
//! The storm is blasted without waiting for acknowledgements, so the
//! SIGKILL genuinely races the append path: the journal may end in a
//! torn record, and the preserved prefix is discovered from the
//! journal itself (it is the single source of truth), not assumed.

use aalwinesd::{Daemon, DaemonConfig, Journal, JournalOp};
use detrand::DetRng;
use formats::json::{parse as parse_json, Value};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const PROBES: [&str; 3] = [
    "<ip> [.#v0] .* [v3#.] <ip> 0",
    "<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2",
    "<ip> [.#v3] .* [v0#.] <ip> 2",
];

fn temp(tag: &str, ext: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "aalwinesd-crash-{}-{tag}.{ext}",
        std::process::id()
    ))
}

/// A spawned daemon, killed and reaped when dropped: a failing assertion
/// unwinds through the drop, so no `aalwinesd` outlives the test.
struct DaemonProcess(Child);

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn spawn_daemon(socket: &Path, journal: &Path) -> DaemonProcess {
    let child = Command::new(env!("CARGO_BIN_EXE_aalwinesd"))
        .arg("--socket")
        .arg(socket)
        .arg("--journal")
        .arg(journal)
        .arg("--demo")
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    DaemonProcess(child)
}

fn connect_with_backoff(path: &Path) -> UnixStream {
    let start = Instant::now();
    let mut delay = Duration::from_millis(10);
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return s,
            Err(e) => {
                assert!(
                    start.elapsed() < Duration::from_secs(20),
                    "daemon never came up on {}: {e}",
                    path.display()
                );
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(250));
            }
        }
    }
}

/// Send `request` and return the first non-`update` payload.
fn roundtrip(reader: &mut BufReader<UnixStream>, writer: &mut UnixStream, request: &str) -> Value {
    writeln!(writer, "{request}").expect("send");
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        assert!(!line.is_empty(), "connection closed during {request}");
        let envelope = parse_json(line.trim_end()).expect("envelope JSON");
        if envelope.get("kind").and_then(Value::as_str) == Some("update") {
            continue;
        }
        return envelope.get("payload").cloned().unwrap();
    }
}

/// Answer payload with the volatile timing `stats` removed; everything
/// left is deterministic, so equality means byte-identical rendering.
fn stripped_answer(reader: &mut BufReader<UnixStream>, writer: &mut UnixStream, q: &str) -> String {
    let mut payload = roundtrip(
        reader,
        writer,
        &format!(r#"{{"verb":"query","query":"{q}"}}"#),
    );
    if let Value::Object(o) = &mut payload {
        o.remove("stats");
    }
    payload.to_json()
}

/// One seeded crash-replay round. Returns the number of delta records
/// the journal preserved (so the caller can check the storm was long
/// enough to be interesting).
fn crash_round(seed: u64) -> usize {
    let tag = format!("s{seed}");
    let socket = temp(&tag, "sock");
    let journal = temp(&tag, "journal");
    let journal_copy = temp(&tag, "journal-copy");
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_file(&journal);

    let mut rng = DetRng::seed_from_u64(seed);
    let mut child = spawn_daemon(&socket, &journal);
    let stream = connect_with_backoff(&socket);
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    roundtrip(
        &mut reader,
        &mut writer,
        &format!(r#"{{"verb":"subscribe","query":"{}"}}"#, PROBES[0]),
    );

    // ---- the storm: ≥50 deltas, no waiting for acks ------------------
    let links = aalwines::examples::paper_network().topology.num_links();
    let steps = rng.gen_range(50usize..120);
    for _ in 0..steps {
        let link = rng.gen_range(0u64..links as u64);
        let kind = if rng.gen_bool(0.4) {
            "link-up"
        } else {
            "link-down"
        };
        let req = format!(r#"{{"verb":"delta","delta":{{"kind":"{kind}","link":{link}}}}}"#);
        if writeln!(writer, "{req}").is_err() {
            break; // the daemon died under us mid-storm: fine, kill below
        }
    }
    let _ = writer.flush();
    // Crash at a random point while the daemon drains the storm.
    std::thread::sleep(Duration::from_millis(rng.gen_range(0u64..80)));
    child.0.kill().expect("kill -9");
    child.0.wait().expect("wait");
    let _ = std::fs::remove_file(&socket);
    // The client's old connection died with the daemon: it drains what
    // was answered before the kill and then ends; it never stalls.
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let drained = reader.read_to_end(&mut Vec::new());
    assert!(
        !matches!(&drained, Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)),
        "seed {seed}: the killed daemon's connection stayed open"
    );
    drop(reader);

    // ---- what did the journal actually preserve? ---------------------
    // A pristine copy for the cold rebuild, taken before anything else
    // reopens (and appends to) the original.
    std::fs::copy(&journal, &journal_copy).expect("copy journal");
    let (_, replay) = Journal::open(&journal_copy).expect("open journal copy");
    assert!(
        replay.clean,
        "a SIGKILL tear must replay clean (dropped {} records)",
        replay.dropped_records
    );
    let delta_records = replay
        .ops
        .iter()
        .filter(|op| matches!(op, JournalOp::Delta { .. }))
        .count();

    // ---- restart over the journal vs. cold rebuild of the prefix -----
    let mut child2 = spawn_daemon(&socket, &journal);
    let stream = connect_with_backoff(&socket);
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    let cold = Daemon::with_journal(DaemonConfig::default(), &journal_copy).expect("cold rebuild");
    assert!(cold.is_loaded(), "journal must preserve the load record");
    let cold_peer = aalwinesd::peer_of(Vec::new());

    for q in PROBES {
        let warm = stripped_answer(&mut reader, &mut writer, q);
        let mut cold_payload =
            parse_json(&cold.handle(&format!(r#"{{"verb":"query","query":"{q}"}}"#), &cold_peer))
                .unwrap()
                .get("payload")
                .cloned()
                .unwrap();
        if let Value::Object(o) = &mut cold_payload {
            o.remove("stats");
        }
        assert_eq!(
            warm,
            cold_payload.to_json(),
            "seed {seed}: replayed answer for {q} diverged from the cold rebuild"
        );
    }
    // A reconnected client re-issues its subscription.
    let resubscribed = roundtrip(
        &mut reader,
        &mut writer,
        &format!(r#"{{"verb":"subscribe","query":"{}"}}"#, PROBES[0]),
    );
    assert!(
        resubscribed.get("answer").is_some(),
        "seed {seed}: {}",
        resubscribed.to_json()
    );

    // ---- health must agree the replay was clean ----------------------
    let health = roundtrip(&mut reader, &mut writer, r#"{"verb":"health"}"#);
    let replay_health = health.get("replay").expect("health.replay");
    assert_eq!(
        replay_health.get("clean"),
        Some(&Value::Bool(true)),
        "seed {seed}: {}",
        health.to_json()
    );
    assert_eq!(
        replay_health.get("records").and_then(Value::as_f64),
        Some(replay.records as f64)
    );
    assert_eq!(
        health.get("journal").and_then(|j| j.get("enabled")),
        Some(&Value::Bool(true)),
        "seed {seed}: the restarted daemon must keep journaling: {}",
        health.to_json()
    );

    roundtrip(&mut reader, &mut writer, r#"{"verb":"shutdown"}"#);
    let _ = child2.0.wait();
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&journal_copy);
    delta_records
}

#[test]
fn killed_daemon_replays_byte_identically_to_a_cold_rebuild() {
    let mut preserved = 0;
    for seed in [7, 1848, 900913] {
        preserved += crash_round(seed);
    }
    // Across the seeds the kill must have landed after real work: if no
    // deltas ever reached the journal the property was tested vacuously.
    assert!(
        preserved >= 50,
        "storms preserved only {preserved} delta records in total"
    );
}

//! Operator-scale batch verification: stream a policy suite of hundreds
//! of queries against a snapshot through the bounded-window driver and
//! print a compliance report — the workflow behind the paper's "6,000
//! queries, 8 inconclusive" case study.
//!
//! Unlike a collect-then-report batch, the stream holds at most
//! `window` queries in flight however long the suite is, emits each
//! answer in input order as it completes, and ticks progress telemetry
//! while running — the same driver every `aalwines` verification run
//! uses.
//!
//! ```text
//! cargo run --release --example operator_batch [-- <threads>]
//! ```

use aalwines::{Outcome, SessionBuilder, StreamEvent, StreamOptions};
use std::time::{Duration, Instant};
use topogen::queries::figure4_queries;
use topogen::{build_mpls_dataplane, zoo_like, LspConfig, ZooConfig};

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });

    let topo = zoo_like(&ZooConfig {
        routers: 64,
        avg_degree: 3.1,
        seed: 0xBA7C4,
    });
    let dp = build_mpls_dataplane(
        topo,
        &LspConfig {
            edge_routers: 12,
            max_pairs: 132,
            protect: true,
            service_chains: 200,
            seed: 0xBA7C5,
        },
    );
    println!(
        "snapshot: {} routers / {} links / {} rules / {} labels \
         ({:.1} MiB resident)",
        dp.net.topology.num_routers(),
        dp.net.topology.num_links(),
        dp.net.num_rules(),
        dp.net.labels.len(),
        dp.net.bytes_resident() as f64 / (1024.0 * 1024.0)
    );

    let texts = figure4_queries(&dp, 280, 0xC0FFEE);
    println!(
        "policy suite: {} queries, {} worker threads\n",
        texts.len(),
        threads
    );

    let t0 = Instant::now();
    let session = SessionBuilder::new().threads(threads).open(dp.net.clone());
    let stream = StreamOptions::new()
        .with_window(64)
        .with_progress_interval(Duration::from_millis(500));

    let mut sat = 0;
    let mut unsat = 0;
    let mut inconclusive = Vec::new();
    let summary = session.verify_stream(texts.iter().cloned(), &stream, &mut |ev| match ev {
        StreamEvent::Answer {
            text,
            answer,
            parse_error,
            ..
        } => {
            assert!(!parse_error, "generated queries parse");
            match answer.outcome {
                Outcome::Satisfied(_) => sat += 1,
                Outcome::Unsatisfied => unsat += 1,
                Outcome::Inconclusive => inconclusive.push(text.to_string()),
                Outcome::Aborted(reason) => panic!("unbudgeted batch aborted: {reason}"),
                Outcome::Error(ref msg) => panic!("engine error: {msg}"),
            }
        }
        StreamEvent::Progress(p) => {
            println!(
                "  … {} answered, {:.0} queries/s, p95 {:.2} ms, {} in flight",
                p.emitted, p.queries_per_sec, p.p95_millis, p.in_flight
            );
        }
    });
    let elapsed = t0.elapsed();

    println!(
        "verified {} queries in {:.2}s ({:.1} queries/s, peak {} of {} in flight)",
        summary.batch.total,
        elapsed.as_secs_f64(),
        summary.batch.total as f64 / elapsed.as_secs_f64(),
        summary.peak_in_flight,
        summary.window
    );
    println!("  satisfied:    {sat}");
    println!("  unsatisfied:  {unsat}");
    println!(
        "  inconclusive: {} ({:.2} %)   [paper: 8/6000 = 0.13 %]",
        inconclusive.len(),
        100.0 * inconclusive.len() as f64 / summary.batch.total as f64
    );
    for q in inconclusive.iter().take(5) {
        println!("    needs deeper analysis: {q}");
    }

    // Sequential re-run of a sample to show the speedup honestly: both
    // runs get a fresh session (cold cache) so only the thread count
    // differs.
    let sample: Vec<String> = texts.iter().take(40).cloned().collect();
    let quiet = StreamOptions::new();
    let t1 = Instant::now();
    SessionBuilder::new().open(dp.net.clone()).verify_stream(
        sample.iter().cloned(),
        &quiet,
        &mut |_| {},
    );
    let seq = t1.elapsed();
    let t2 = Instant::now();
    SessionBuilder::new()
        .threads(threads)
        .open(dp.net.clone())
        .verify_stream(sample.iter().cloned(), &quiet, &mut |_| {});
    let par = t2.elapsed();
    println!(
        "\nsample of {}: sequential {:.2}s vs {} threads {:.2}s ({:.1}x)",
        sample.len(),
        seq.as_secs_f64(),
        threads,
        par.as_secs_f64(),
        seq.as_secs_f64() / par.as_secs_f64().max(1e-9)
    );
}

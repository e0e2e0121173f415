//! Quickstart: verify the paper's running example (Figure 1).
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Loads the five-router MPLS network of the paper, runs the queries
//! φ₀…φ₄ of Figure 1d, and prints each verdict with its witness trace —
//! ending with the Section-3 minimum-witness query that prefers the
//! tunnel-free service path σ₃ over the failover path σ₂.

use aalwines::examples::{paper_network, PAPER_QUERIES};
use aalwines::{AtomicQuantity, Engine, LinearExpr, Outcome, Verifier, VerifyOptions, WeightSpec};
use query::parse_query;

fn main() {
    let net = paper_network();
    println!(
        "Loaded the running example: {} routers, {} links, {} forwarding rules\n",
        net.topology.num_routers(),
        net.topology.num_links(),
        net.num_rules()
    );

    // φ0…φ4 of Figure 1d.
    let verifier = Verifier::new(&net);
    for (i, text) in PAPER_QUERIES[..5].iter().enumerate() {
        let q = parse_query(text).expect("query parses");
        let answer = verifier.verify(&q, &VerifyOptions::default());
        print!("φ{i} = {text}\n  → ");
        match answer.outcome {
            Outcome::Satisfied(w) => {
                println!("SATISFIED");
                println!("    witness: {}", w.trace.display(&net));
                if w.failed_links.is_empty() {
                    println!("    (no failed links required)");
                } else {
                    let names: Vec<String> = w
                        .failed_links
                        .iter()
                        .map(|&l| net.topology.link_name(l))
                        .collect();
                    println!("    failed links: {}", names.join(", "));
                }
            }
            Outcome::Unsatisfied => println!("UNSATISFIED (conclusive: no such trace exists)"),
            Outcome::Inconclusive => println!("INCONCLUSIVE"),
            Outcome::Aborted(reason) => println!("ABORTED ({reason})"),
            Outcome::Error(ref msg) => println!("ERROR ({msg})"),
        }
        println!();
    }

    // Section 3: minimize (Hops, Failures + 3·Tunnels) over φ4's witnesses.
    println!("Minimum witness for φ4 under (Hops, Failures + 3·Tunnels):");
    let spec = WeightSpec::lexicographic(vec![
        LinearExpr::atom(AtomicQuantity::Hops),
        LinearExpr::atom(AtomicQuantity::Failures).plus(3, AtomicQuantity::Tunnels),
    ]);
    let q = parse_query(PAPER_QUERIES[4]).unwrap();
    let answer = verifier.verify(&q, &VerifyOptions::new().with_weights(spec.clone()));
    match answer.outcome {
        Outcome::Satisfied(w) => {
            println!("  weight {spec} = {:?}", w.weight.as_deref().unwrap_or(&[]));
            println!("  trace: {}", w.trace.display(&net));
            println!("  (the paper: σ3 with weight (5, 0) beats σ2 with (5, 7))");
        }
        other => println!("  unexpected outcome {other:?}"),
    }
}

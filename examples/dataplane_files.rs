//! Working with the vendor-agnostic file formats (Appendix A): export a
//! network to `topo.xml` / `route.xml` / `locations.json`, read it back,
//! and verify the reloaded data plane.
//!
//! ```text
//! cargo run --example dataplane_files [output-dir]
//! ```
//!
//! This is the round trip an operator pipeline performs: dataplane
//! snapshot → files → verification backend.

use aalwines::examples::{paper_network, PAPER_QUERIES};
use aalwines::{Engine, Outcome, Verifier, VerifyOptions};
use formats::{
    parse_locations, parse_routes, parse_topology, write_locations, write_routes, write_topology,
};
use query::parse_query;
use std::path::PathBuf;

fn main() {
    let dir: PathBuf = std::env::args()
        .nth(1)
        .map(Into::into)
        .unwrap_or_else(std::env::temp_dir);
    let net = paper_network();

    // ---- export --------------------------------------------------------
    let topo_xml = write_topology(&net.topology);
    let route_xml = write_routes(&net);
    let locations = write_locations(&net.topology);
    let paths = [
        (dir.join("topo.xml"), &topo_xml),
        (dir.join("route.xml"), &route_xml),
        (dir.join("locations.json"), &locations),
    ];
    for (path, content) in &paths {
        std::fs::write(path, content).expect("write snapshot file");
        println!("wrote {} ({} bytes)", path.display(), content.len());
    }

    // ---- import --------------------------------------------------------
    let topo_text = std::fs::read_to_string(dir.join("topo.xml")).unwrap();
    let route_text = std::fs::read_to_string(dir.join("route.xml")).unwrap();
    let loc_text = std::fs::read_to_string(dir.join("locations.json")).unwrap();

    let mut topo = parse_topology(&topo_text).expect("parse topo.xml");
    parse_locations(&loc_text, &mut topo).expect("parse locations.json");
    let reloaded = parse_routes(&route_text, topo).expect("parse route.xml");
    println!(
        "\nreloaded: {} routers, {} links, {} rules, {} labels",
        reloaded.topology.num_routers(),
        reloaded.topology.num_links(),
        reloaded.num_rules(),
        reloaded.labels.len()
    );
    let problems = reloaded.validate();
    assert!(
        problems.is_empty(),
        "reloaded network invalid: {problems:?}"
    );

    // ---- verify the reloaded data plane ---------------------------------
    let verifier = Verifier::new(&reloaded);
    for text in [PAPER_QUERIES[0], PAPER_QUERIES[2], PAPER_QUERIES[3]] {
        let q = parse_query(text).unwrap();
        let verdict = match verifier.verify(&q, &VerifyOptions::default()).outcome {
            Outcome::Satisfied(_) => "satisfied",
            Outcome::Unsatisfied => "unsatisfied",
            Outcome::Inconclusive => "inconclusive",
            Outcome::Aborted(_) => "aborted",
            Outcome::Error(_) => "error",
        };
        println!("  {text}  →  {verdict}");
    }
    println!("\nround trip complete — the reloaded snapshot verifies identically.");
}

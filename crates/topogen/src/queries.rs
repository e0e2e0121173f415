//! Deterministic query generators reproducing the paper's query
//! families.
//!
//! Table 1 lists six operator queries; Figure 4 runs "queries like in
//! Table 1 and in our running example" across the Zoo networks. The
//! generators here produce textual queries (parseable by
//! `query::parse_query`) against a generated [`Dataplane`], picking
//! routers and labels with a seeded RNG.

use crate::lsp::Dataplane;
use detrand::DetRng;

/// The six Table-1 query shapes, instantiated against a data plane.
///
/// Returned in table order:
/// 1. `<smpls ip> [.#Ra] .* [.#Rb] <smpls ip> 1`
/// 2. `<smpls ip> [.#Ra] .* [.#Rb] <(mpls* smpls)? ip> 1`
/// 3. `<ip> [.#Ra] .* [.#Rb] <ip> 0`
/// 4. `<[svc] ip> [.#Ra] .* [.#Rm] .* [.#Rb] <ip> 0`
/// 5. the same with `k = 1`
/// 6. `<smpls? ip> .* <. smpls ip> 0`
pub fn table1_queries(dp: &Dataplane, seed: u64) -> Vec<String> {
    let mut rng = DetRng::seed_from_u64(seed);
    let name = |r: netmodel::RouterId| dp.net.topology.router(r).name.clone();
    let pick = |rng: &mut DetRng| dp.edge_routers[rng.gen_range(0..dp.edge_routers.len())];
    let ra = name(pick(&mut rng));
    let rb = {
        let mut r = name(pick(&mut rng));
        while r == ra {
            r = name(pick(&mut rng));
        }
        r
    };
    // Queries 4/5 follow a real service chain through a mid-point, like
    // the operator's waypoint queries in Table 1: pick the longest chain
    // and take its ingress, middle, and egress routers.
    let (svc, ra4, rm, rb4) = dp
        .service_routes
        .iter()
        .enumerate()
        .max_by_key(|(_, route)| route.len())
        .map(|(i, route)| {
            (
                dp.service_labels[i].clone(),
                name(route[0]),
                name(route[route.len() / 2]),
                name(*route.last().expect("non-empty route")),
            )
        })
        .unwrap_or_else(|| ("sv0_0".into(), ra.clone(), ra.clone(), rb.clone()));
    vec![
        format!("<smpls ip> [.#{ra}] .* [.#{rb}] <smpls ip> 1"),
        format!("<smpls ip> [.#{ra}] .* [.#{rb}] <(mpls* smpls)? ip> 1"),
        format!("<ip> [.#{ra}] .* [.#{rb}] <ip> 0"),
        format!("<[{svc}] ip> [.#{ra4}] .* [.#{rm}] .* [.#{rb4}] <. ip> 0"),
        format!("<[{svc}] ip> [.#{ra4}] .* [.#{rm}] .* [.#{rb4}] <. ip> 1"),
        format!("<smpls? ip> .* <. smpls ip> 0"),
    ]
}

/// A mixed batch of `count` queries in the style of Table 1 and the
/// running example, for the Figure-4 sweep.
pub fn figure4_queries(dp: &Dataplane, count: usize, seed: u64) -> Vec<String> {
    let mut rng = DetRng::seed_from_u64(seed);
    let name = |r: netmodel::RouterId| dp.net.topology.router(r).name.clone();
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let a = name(dp.edge_routers[rng.gen_range(0..dp.edge_routers.len())]);
        let b = name(dp.edge_routers[rng.gen_range(0..dp.edge_routers.len())]);
        let k = rng.gen_range(0..3u32);
        let q = match i % 7 {
            0 => format!("<ip> [.#{a}] .* [.#{b}] <ip> {k}"),
            1 => format!("<smpls ip> [.#{a}] .* [.#{b}] <smpls ip> {k}"),
            2 => format!("<smpls ip> [.#{a}] .* [.#{b}] <(mpls* smpls)? ip> {k}"),
            3 => format!("<ip> [.#{a}] [^{b}#.]* [.#{b}] <ip> {k}"),
            4 => {
                // Transparency check (φ3 style): does any trace leak an
                // extra MPLS label?
                let svc = dp
                    .service_labels
                    .get(rng.gen_range(0..dp.service_labels.len().max(1)))
                    .cloned()
                    .unwrap_or_else(|| "sv0_0".into());
                format!("<[{svc}] ip> [.#{a}] .* [.#{b}] <mpls+ smpls ip> {k}")
            }
            5 => format!("<smpls? ip> [.#{a}] . . . .* [.#{b}] <smpls? ip> {k}"),
            // The expensive family: no path anchor at all (Table 1's
            // last row) — the whole network's PDS is explored.
            _ => format!("<smpls? ip> .* <. smpls ip> {k}"),
        };
        out.push(q);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsp::{build_mpls_dataplane, LspConfig};
    use crate::zoo::{zoo_like, ZooConfig};
    use query::parse_query;

    fn dp() -> Dataplane {
        let topo = zoo_like(&ZooConfig {
            routers: 16,
            avg_degree: 3.0,
            seed: 2,
        });
        build_mpls_dataplane(
            topo,
            &LspConfig {
                edge_routers: 5,
                max_pairs: 20,
                protect: true,
                service_chains: 3,
                seed: 4,
            },
        )
    }

    #[test]
    fn table1_queries_parse() {
        let dp = dp();
        let qs = table1_queries(&dp, 1);
        assert_eq!(qs.len(), 6);
        for q in &qs {
            parse_query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
    }

    #[test]
    fn figure4_queries_parse_and_are_deterministic() {
        let dp = dp();
        let a = figure4_queries(&dp, 24, 7);
        let b = figure4_queries(&dp, 24, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 24);
        for q in &a {
            parse_query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
        // All seven families appear.
        let c = figure4_queries(&dp, 7, 7);
        assert_eq!(c.iter().collect::<std::collections::HashSet<_>>().len(), 7);
    }
}

//! The `route.xml` routing format (Appendix A).
//!
//! Structure (as in the paper, with an added `kind` attribute recording
//! the label partition, which the original tool infers from label
//! syntax):
//!
//! ```xml
//! <routes><routings>
//!   <routing for="R0"><destinations>
//!     <destination from="ae1.11" label="$300292" kind="smpls">
//!       <te-groups>
//!         <te-group priority="1">
//!           <route to="ae5.0"><actions>
//!             <action type="swap" label="$300293"/>
//!           </actions></route>
//!         </te-group>
//!       </te-groups>
//!     </destination>
//!   </destinations></routing>
//! </routings></routes>
//! ```

use crate::topo_xml::FormatError;
use crate::xml::{parse as parse_xml, Element};
use netmodel::{LabelKind, LabelTable, Network, Op, RoutingEntry, Topology};

fn kind_name(k: LabelKind) -> &'static str {
    match k {
        LabelKind::Mpls => "mpls",
        LabelKind::MplsBos => "smpls",
        LabelKind::Ip => "ip",
    }
}

fn kind_from(name: &str) -> Result<LabelKind, FormatError> {
    match name {
        "mpls" => Ok(LabelKind::Mpls),
        "smpls" => Ok(LabelKind::MplsBos),
        "ip" => Ok(LabelKind::Ip),
        other => Err(FormatError::Semantic(format!(
            "unknown label kind {other:?}"
        ))),
    }
}

/// Serialize a network's routing table to `route.xml`.
pub fn write_routes(net: &Network) -> String {
    let topo = &net.topology;
    // Group keys by the router the incoming link enters.
    let mut keys: Vec<(netmodel::LinkId, netmodel::LabelId)> = net.routing_keys().collect();
    keys.sort_by_key(|(l, lab)| (topo.dst(*l).0, l.0, lab.0));

    let mut routings = Element::new("routings");
    let mut current: Option<(u32, Element, Element)> = None; // (router, routing, destinations)
    let flush = |current: &mut Option<(u32, Element, Element)>, routings: &mut Element| {
        if let Some((_, routing, dests)) = current.take() {
            *routings =
                std::mem::replace(routings, Element::new("routings")).child(routing.child(dests));
        }
    };
    for (in_link, label) in keys {
        let router = topo.dst(in_link);
        if current.as_ref().map(|(r, _, _)| *r) != Some(router.0) {
            flush(&mut current, &mut routings);
            current = Some((
                router.0,
                Element::new("routing").attr("for", &topo.router(router).name),
                Element::new("destinations"),
            ));
        }
        let mut destination = Element::new("destination")
            .attr("from", &topo.link(in_link).dst_if)
            .attr("label", net.labels.name(label))
            .attr("kind", kind_name(net.labels.kind(label)));
        let mut te_groups = Element::new("te-groups");
        for (gi, group) in net.groups(in_link, label).iter().enumerate() {
            let mut te = Element::new("te-group").attr("priority", &(gi + 1).to_string());
            for entry in group {
                let mut actions = Element::new("actions");
                for op in &entry.ops {
                    let action = match op {
                        Op::Swap(l) => Element::new("action")
                            .attr("type", "swap")
                            .attr("label", net.labels.name(*l))
                            .attr("kind", kind_name(net.labels.kind(*l))),
                        Op::Push(l) => Element::new("action")
                            .attr("type", "push")
                            .attr("label", net.labels.name(*l))
                            .attr("kind", kind_name(net.labels.kind(*l))),
                        Op::Pop => Element::new("action").attr("type", "pop"),
                    };
                    actions = actions.child(action);
                }
                te = te.child(
                    Element::new("route")
                        .attr("to", &topo.link(entry.out).src_if)
                        .child(actions),
                );
            }
            te_groups = te_groups.child(te);
        }
        destination = destination.child(te_groups);
        if let Some((_, _, dests)) = current.as_mut() {
            *dests = std::mem::replace(dests, Element::new("destinations")).child(destination);
        }
    }
    flush(&mut current, &mut routings);
    Element::new("routes").child(routings).to_xml()
}

/// Parse a `route.xml` document against a topology, producing a network.
pub fn parse_routes(doc: &str, topo: Topology) -> Result<Network, FormatError> {
    let root = parse_xml(doc)?;
    if root.name != "routes" {
        return Err(FormatError::Semantic(format!(
            "expected <routes> root, found <{}>",
            root.name
        )));
    }
    let routings = root
        .first_child("routings")
        .ok_or_else(|| FormatError::Semantic("missing <routings>".into()))?;

    let mut net = Network::new(topo, LabelTable::new());

    // Closure to intern a (label, kind) pair.
    fn intern(labels: &mut LabelTable, el: &Element) -> Result<netmodel::LabelId, FormatError> {
        let name = el.require_attr("label")?;
        let kind = kind_from(el.get_attr("kind").unwrap_or_else(|| {
            // Paper convention: `s`-prefixed labels are bottom-of-stack,
            // `ip`-prefixed are IP, the rest plain MPLS.
            if name.starts_with("ip") {
                "ip"
            } else if name.starts_with('s') && !name.starts_with("sv") {
                "smpls"
            } else {
                "mpls"
            }
        }))?;
        Ok(labels.intern(name, kind))
    }

    for routing in routings.children_named("routing") {
        let rname = routing.require_attr("for")?;
        let router = net
            .topology
            .router_by_name(rname)
            .ok_or_else(|| FormatError::Semantic(format!("unknown router {rname:?}")))?;
        let Some(dests) = routing.first_child("destinations") else {
            continue;
        };
        for dest in dests.children_named("destination") {
            let from_if = dest.require_attr("from")?;
            // The `from` interface names the *incoming* side: find the
            // link into `router` whose dst_if matches.
            let in_link = net
                .topology
                .links_into(router)
                .iter()
                .copied()
                .find(|&l| net.topology.link(l).dst_if == from_if)
                .ok_or_else(|| {
                    FormatError::Semantic(format!(
                        "router {rname:?} has no incoming interface {from_if:?}"
                    ))
                })?;
            let label = intern(&mut net.labels, dest)?;
            let Some(te_groups) = dest.first_child("te-groups") else {
                continue;
            };
            for te in te_groups.children_named("te-group") {
                let prio: usize = te
                    .require_attr("priority")?
                    .parse()
                    .map_err(|_| FormatError::Semantic("bad priority".into()))?;
                for route in te.children_named("route") {
                    let to_if = route.require_attr("to")?;
                    let out = net
                        .topology
                        .link_by_interface(router, to_if)
                        .ok_or_else(|| {
                            FormatError::Semantic(format!(
                                "router {rname:?} has no outgoing interface {to_if:?}"
                            ))
                        })?;
                    let mut ops = Vec::new();
                    if let Some(actions) = route.first_child("actions") {
                        for action in actions.children_named("action") {
                            let ty = action.require_attr("type")?;
                            let op = match ty {
                                "swap" => Op::Swap(intern(&mut net.labels, action)?),
                                "push" => Op::Push(intern(&mut net.labels, action)?),
                                "pop" => Op::Pop,
                                other => {
                                    return Err(FormatError::Semantic(format!(
                                        "unknown action type {other:?}"
                                    )))
                                }
                            };
                            ops.push(op);
                        }
                    }
                    net.add_rule(
                        in_link,
                        label,
                        prio,
                        RoutingEntry {
                            out,
                            ops: ops.into(),
                        },
                    );
                }
            }
        }
    }
    Ok(net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aalwines::examples::paper_network;

    #[test]
    fn round_trips_paper_network() {
        let net = paper_network();
        let topo_text = crate::topo_xml::write_topology(&net.topology);
        let route_text = write_routes(&net);

        let topo = crate::topo_xml::parse_topology(&topo_text).unwrap();
        let back = parse_routes(&route_text, topo).unwrap();

        assert_eq!(back.num_rules(), net.num_rules());
        // Labels that appear in no rule (the example's unused `31`) are
        // not serialized, so the recovered table may be smaller.
        assert!(back.labels.len() <= net.labels.len());
        assert!(back.labels.len() >= net.labels.len() - 1);
        assert!(back.validate().is_empty());

        // Same groups for a spot-checked key: v2's protected s20 rule.
        let find = |n: &Network, router: &str, label: &str| -> usize {
            let r = n.topology.router_by_name(router).unwrap();
            let lab = n.labels.get(label).unwrap();
            n.topology
                .links_into(r)
                .iter()
                .map(|&l| n.groups(l, lab).len())
                .max()
                .unwrap_or(0)
        };
        assert_eq!(find(&back, "v2", "s20"), 2, "priority-2 backup survives");
        assert_eq!(find(&net, "v2", "s20"), 2);
    }

    #[test]
    fn parsed_network_verifies_like_original() {
        use aalwines::{Engine, Outcome, Verifier, VerifyOptions};
        use query::parse_query;
        let net = paper_network();
        let topo = crate::topo_xml::parse_topology(&crate::topo_xml::write_topology(&net.topology))
            .unwrap();
        let back = parse_routes(&write_routes(&net), topo).unwrap();
        for (q, expect_sat) in [
            ("<ip> [.#v0] .* [v3#.] <ip> 0", true),
            ("<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1", false),
        ] {
            let parsed = parse_query(q).unwrap();
            let ans = Verifier::new(&back).verify(&parsed, &VerifyOptions::default());
            assert_eq!(
                matches!(ans.outcome, Outcome::Satisfied(_)),
                expect_sat,
                "outcome changed after round trip for {q}"
            );
        }
    }

    /// Every rule of `net` rendered by names only (label ids differ
    /// between a generated network and its re-parse), sorted.
    fn rules_by_name(net: &Network) -> Vec<String> {
        let topo = &net.topology;
        let mut out = Vec::new();
        for (link, label) in net.routing_keys() {
            for (gi, group) in net.groups(link, label).iter().enumerate() {
                for entry in group {
                    let ops: Vec<String> = entry
                        .ops
                        .iter()
                        .map(|op| match op {
                            Op::Swap(l) => format!("swap {}", net.labels.name(*l)),
                            Op::Push(l) => format!("push {}", net.labels.name(*l)),
                            Op::Pop => "pop".into(),
                        })
                        .collect();
                    out.push(format!(
                        "{}:{} {} p{gi} -> {} {ops:?}",
                        topo.router(topo.dst(link)).name,
                        topo.link(link).dst_if,
                        net.labels.name(label),
                        topo.link(entry.out).src_if,
                    ));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// A ≥ 5k-rule generated dataplane survives write → parse rule for
    /// rule, and label ids are handed out in first-seen document order.
    /// (`write_routes` orders destinations by label id, so the *text* is
    /// only a fixed point once ids already follow document order; the
    /// name-level comparison does not depend on that.)
    #[test]
    fn generated_dataplane_round_trips_with_first_seen_label_ids() {
        let net = topogen::nordunet_like(0.03).net;
        assert!(net.num_rules() >= 5_000, "{} rules", net.num_rules());
        let topo_text = crate::topo_xml::write_topology(&net.topology);
        let text = write_routes(&net);
        let back =
            parse_routes(&text, crate::topo_xml::parse_topology(&topo_text).unwrap()).unwrap();
        assert_eq!(rules_by_name(&back), rules_by_name(&net));

        let mut first_seen: Vec<&str> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for piece in text.split(" label=\"").skip(1) {
            let name = &piece[..piece.find('"').unwrap()];
            if seen.insert(name) {
                first_seen.push(name);
            }
        }
        let ids: Vec<&str> = back.labels.all().map(|l| back.labels.name(l)).collect();
        assert_eq!(ids, first_seen);
    }

    #[test]
    fn kind_inference_defaults() {
        // Without `kind` attributes, paper naming conventions apply.
        let doc = r#"<routes><routings>
          <routing for="A"><destinations>
            <destination from="i" label="s40">
              <te-groups><te-group priority="1">
                <route to="o"><actions><action type="swap" label="s41"/></actions></route>
              </te-group></te-groups>
            </destination>
          </destinations></routing>
        </routings></routes>"#;
        let mut topo = Topology::new();
        let a = topo.add_router("A", None);
        let b = topo.add_router("B", None);
        topo.add_link(b, "x", a, "i", 1);
        topo.add_link(a, "o", b, "y", 1);
        let net = parse_routes(doc, topo).unwrap();
        let s40 = net.labels.get("s40").unwrap();
        assert_eq!(net.labels.kind(s40), LabelKind::MplsBos);
        assert_eq!(net.num_rules(), 1);
    }
}

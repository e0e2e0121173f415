//! Ready-made networks, starting with the paper's running example
//! (Figure 1).

use netmodel::{LabelTable, LinkId, Network, Op, RoutingEntry, Topology};

/// Handles to the interesting pieces of the running example, for tests.
#[derive(Clone, Debug)]
pub struct PaperNetworkMap {
    /// `e0` … `e7` as in Figure 1a.
    pub links: [LinkId; 8],
}

/// The paper's six running-example queries over [`paper_network`]
/// (Figure 1d / Table 1): φ0…φ4, then the reverse pair `v3 → v0`,
/// which no rule routes. φ3 and the reverse pair are unsatisfied.
pub const PAPER_QUERIES: [&str; 6] = [
    "<ip> [.#v0] .* [v3#.] <ip> 0",
    "<ip> [.#v0] [^v2#v3]* [v3#.] <ip> 2",
    "<s40 ip> [.#v0] .* [v3#.] <smpls ip> 0",
    "<s40 ip> [.#v0] .* [v3#.] <mpls+ smpls ip> 1",
    "<smpls? ip> [.#v0] . . . .* [v3#.] <smpls? ip> 1",
    "<ip> [.#v3] .* [v0#.] <ip> 2",
];

/// The running example of the paper (Figure 1): five routers `v0…v4`
/// plus two external stub routers terminating the ingress link `e0` and
/// egress link `e7`.
///
/// Label-switching paths: IP traffic entering `v0` reaches `v3` via
/// `e1,e4` or `e2,e3`; service-label traffic (`s40`) rides
/// `e1,e5,e6,e7`; link `e4` is protected by a priority-2 rule tunnelling
/// over `v4` (`swap(s21)∘push(30)`).
pub fn paper_network() -> Network {
    paper_network_with_map().0
}

/// As [`paper_network`], returning link handles too.
pub fn paper_network_with_map() -> (Network, PaperNetworkMap) {
    let mut t = Topology::new();
    let xin = t.add_router("x_in", None);
    let v0 = t.add_router("v0", Some((57.05, 9.92)));
    let v1 = t.add_router("v1", Some((56.16, 10.20)));
    let v2 = t.add_router("v2", Some((55.68, 12.57)));
    let v3 = t.add_router("v3", Some((55.40, 10.39)));
    let v4 = t.add_router("v4", Some((55.48, 8.45)));
    let xout = t.add_router("x_out", None);

    let e0 = t.add_link(xin, "o0", v0, "i0", 1);
    let e1 = t.add_link(v0, "o1", v2, "i1", 1);
    let e2 = t.add_link(v0, "o2", v1, "i2", 1);
    let e3 = t.add_link(v1, "o3", v3, "i3", 1);
    let e4 = t.add_link(v2, "o4", v3, "i4", 1);
    let e5 = t.add_link(v2, "o5", v4, "i5", 1);
    let e6 = t.add_link(v4, "o6", v3, "i6", 1);
    let e7 = t.add_link(v3, "o7", xout, "i7", 1);

    let mut labels = LabelTable::new();
    let m30 = labels.mpls("30");
    labels.mpls("31");
    let s10 = labels.mpls_bos("s10");
    let s11 = labels.mpls_bos("s11");
    let s20 = labels.mpls_bos("s20");
    let s21 = labels.mpls_bos("s21");
    let s40 = labels.mpls_bos("s40");
    let s41 = labels.mpls_bos("s41");
    let s42 = labels.mpls_bos("s42");
    let s43 = labels.mpls_bos("s43");
    let s44 = labels.mpls_bos("s44");
    let ip1 = labels.ip("ip1");

    let mut net = Network::new(t, labels);
    let rule = |out: LinkId, ops: Vec<Op>| RoutingEntry {
        out,
        ops: ops.into(),
    };

    // v0
    net.add_rule(e0, ip1, 1, rule(e1, vec![Op::Push(s20)]));
    net.add_rule(e0, ip1, 1, rule(e2, vec![Op::Push(s10)]));
    net.add_rule(e0, s40, 1, rule(e1, vec![Op::Swap(s41)]));
    // v1
    net.add_rule(e2, s10, 1, rule(e3, vec![Op::Swap(s11)]));
    // v2
    net.add_rule(e1, s20, 1, rule(e4, vec![Op::Swap(s21)]));
    net.add_rule(e1, s41, 1, rule(e5, vec![Op::Swap(s42)]));
    net.add_rule(e1, s20, 2, rule(e5, vec![Op::Swap(s21), Op::Push(m30)]));
    // v3
    net.add_rule(e3, s11, 1, rule(e7, vec![Op::Pop]));
    net.add_rule(e4, s21, 1, rule(e7, vec![Op::Pop]));
    net.add_rule(e6, s43, 1, rule(e7, vec![Op::Swap(s44)]));
    net.add_rule(e6, s21, 1, rule(e7, vec![Op::Pop]));
    // v4
    net.add_rule(e5, m30, 1, rule(e6, vec![Op::Pop]));
    net.add_rule(e5, s42, 1, rule(e6, vec![Op::Swap(s43)]));

    debug_assert!(net.validate().is_empty());
    (
        net,
        PaperNetworkMap {
            links: [e0, e1, e2, e3, e4, e5, e6, e7],
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_network_is_consistent() {
        let net = paper_network();
        assert!(net.validate().is_empty());
        assert_eq!(net.topology.num_routers(), 7);
        assert_eq!(net.topology.num_links(), 8);
        assert_eq!(net.num_rules(), 13);
    }

    #[test]
    fn paper_traces_are_valid() {
        use netmodel::{Header, Trace, TraceStep};
        use std::collections::HashSet;
        let (net, map) = paper_network_with_map();
        let [e0, e1, _e2, _e3, e4, e5, e6, e7] = map.links;
        let l = |n: &str| net.labels.get(n).unwrap();
        let h = |ls: &[&str]| Header::from_top_first(ls.iter().map(|n| l(n)).collect());

        // σ0 = (e0, ip1)(e1, s20∘ip1)(e4, s21∘ip1)(e7, ip1)
        let sigma0 = Trace::new(vec![
            TraceStep {
                link: e0,
                header: h(&["ip1"]),
            },
            TraceStep {
                link: e1,
                header: h(&["s20", "ip1"]),
            },
            TraceStep {
                link: e4,
                header: h(&["s21", "ip1"]),
            },
            TraceStep {
                link: e7,
                header: h(&["ip1"]),
            },
        ]);
        assert!(sigma0.is_valid(&net, &HashSet::new()));

        // σ2 needs e4 failed.
        let sigma2 = Trace::new(vec![
            TraceStep {
                link: e0,
                header: h(&["ip1"]),
            },
            TraceStep {
                link: e1,
                header: h(&["s20", "ip1"]),
            },
            TraceStep {
                link: e5,
                header: h(&["30", "s21", "ip1"]),
            },
            TraceStep {
                link: e6,
                header: h(&["s21", "ip1"]),
            },
            TraceStep {
                link: e7,
                header: h(&["ip1"]),
            },
        ]);
        assert!(!sigma2.is_valid(&net, &HashSet::new()));
        assert!(sigma2.is_valid(&net, &[e4].into_iter().collect()));
        assert_eq!(sigma2.tunnels(), 2);

        // σ3: the s40 service path, valid without failures.
        let sigma3 = Trace::new(vec![
            TraceStep {
                link: e0,
                header: h(&["s40", "ip1"]),
            },
            TraceStep {
                link: e1,
                header: h(&["s41", "ip1"]),
            },
            TraceStep {
                link: e5,
                header: h(&["s42", "ip1"]),
            },
            TraceStep {
                link: e6,
                header: h(&["s43", "ip1"]),
            },
            TraceStep {
                link: e7,
                header: h(&["s44", "ip1"]),
            },
        ]);
        assert!(sigma3.is_valid(&net, &HashSet::new()));
        assert_eq!(sigma3.tunnels(), 0);
    }
}

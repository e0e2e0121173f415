//! GML parsing for Internet Topology Zoo files.
//!
//! The paper's Figure-4 networks come from the Topology Zoo, which
//! distributes its maps as GML documents:
//!
//! ```text
//! graph [
//!   node [ id 0 label "Aalborg" Latitude 57.05 Longitude 9.92 ]
//!   edge [ source 0 target 1 LinkLabel "OC-48" ]
//! ]
//! ```
//!
//! [`topology_from_gml`] turns such a document into a [`Topology`]:
//! every GML edge becomes a directed link pair, link distances come from
//! node coordinates where present (kilometres, the Zoo convention the
//! paper's `Distance` quantity relies on), and duplicate node labels —
//! common in Zoo files — are disambiguated with the node id.
//!
//! The synthetic [`zoo_like`](crate::zoo::zoo_like) generator remains
//! the default workload (the Zoo archive cannot be bundled here), but
//! any downloaded `.gml` file drops in through this module.

use netmodel::Topology;
use std::collections::HashMap;
use std::fmt;

/// A GML value: a scalar or a nested list of key/value pairs.
#[derive(Clone, Debug, PartialEq)]
pub enum GmlValue {
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A quoted string.
    Str(String),
    /// A `[ … ]` block.
    List(Vec<(String, GmlValue)>),
}

impl GmlValue {
    fn as_f64(&self) -> Option<f64> {
        match self {
            GmlValue::Int(i) => Some(*i as f64),
            GmlValue::Float(f) => Some(*f),
            _ => None,
        }
    }
    fn as_i64(&self) -> Option<i64> {
        match self {
            GmlValue::Int(i) => Some(*i),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            GmlValue::Str(s) => Some(s),
            _ => None,
        }
    }
    fn entries(&self) -> &[(String, GmlValue)] {
        match self {
            GmlValue::List(l) => l,
            _ => &[],
        }
    }
    fn get(&self, key: &str) -> Option<&GmlValue> {
        self.entries()
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(key))
            .map(|(_, v)| v)
    }
}

/// A GML parse error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GmlError {
    /// Byte offset.
    pub pos: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for GmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GML error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for GmlError {}

struct P<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> P<'a> {
    fn err(&self, msg: impl Into<String>) -> GmlError {
        GmlError {
            pos: self.i,
            msg: msg.into(),
        }
    }

    fn skip_ws_and_comments(&mut self) {
        loop {
            while self.i < self.s.len() && (self.s[self.i] as char).is_whitespace() {
                self.i += 1;
            }
            if self.i < self.s.len() && self.s[self.i] == b'#' {
                while self.i < self.s.len() && self.s[self.i] != b'\n' {
                    self.i += 1;
                }
            } else {
                return;
            }
        }
    }

    fn key(&mut self) -> Option<String> {
        self.skip_ws_and_comments();
        let start = self.i;
        while self.i < self.s.len() {
            let c = self.s[self.i] as char;
            if c.is_ascii_alphanumeric() || c == '_' {
                self.i += 1;
            } else {
                break;
            }
        }
        if self.i == start {
            None
        } else {
            Some(String::from_utf8_lossy(&self.s[start..self.i]).into_owned())
        }
    }

    fn value(&mut self) -> Result<GmlValue, GmlError> {
        self.skip_ws_and_comments();
        match self.s.get(self.i).map(|&b| b as char) {
            Some('[') => {
                self.i += 1;
                let mut entries = Vec::new();
                loop {
                    self.skip_ws_and_comments();
                    if self.s.get(self.i) == Some(&b']') {
                        self.i += 1;
                        return Ok(GmlValue::List(entries));
                    }
                    let Some(key) = self.key() else {
                        return Err(self.err("expected key or ']'"));
                    };
                    let v = self.value()?;
                    entries.push((key, v));
                }
            }
            Some('"') => {
                self.i += 1;
                let start = self.i;
                while self.i < self.s.len() && self.s[self.i] != b'"' {
                    self.i += 1;
                }
                if self.i >= self.s.len() {
                    return Err(self.err("unterminated string"));
                }
                let text = String::from_utf8_lossy(&self.s[start..self.i]).into_owned();
                self.i += 1;
                Ok(GmlValue::Str(text))
            }
            Some(c) if c == '-' || c == '+' || c.is_ascii_digit() => {
                let start = self.i;
                let mut is_float = false;
                while self.i < self.s.len() {
                    let c = self.s[self.i] as char;
                    if c.is_ascii_digit() || c == '-' || c == '+' {
                        self.i += 1;
                    } else if c == '.' || c == 'e' || c == 'E' {
                        is_float = true;
                        self.i += 1;
                    } else {
                        break;
                    }
                }
                // The lexer above only consumes ASCII bytes, but a
                // structured error keeps the panic-free ingestion
                // guarantee honest if that invariant ever slips (the
                // byte-level entry points feed raw, untrusted files
                // through here).
                let text = std::str::from_utf8(&self.s[start..self.i])
                    .map_err(|_| self.err("invalid UTF-8 in number"))?;
                if is_float {
                    text.parse::<f64>()
                        .map(GmlValue::Float)
                        .map_err(|e| self.err(format!("bad float {text:?}: {e}")))
                } else {
                    text.parse::<i64>()
                        .map(GmlValue::Int)
                        .map_err(|e| self.err(format!("bad int {text:?}: {e}")))
                }
            }
            other => Err(self.err(format!("unexpected {other:?}"))),
        }
    }
}

/// Parse a GML document from raw bytes — e.g. a file read straight off
/// disk without a UTF-8 validity check.
///
/// Topology Zoo archives occasionally carry Latin-1 city names; those
/// (and any other invalid UTF-8) are replaced lossily inside keys and
/// quoted strings, while structurally invalid input is rejected with a
/// typed [`GmlError`] carrying a byte offset. This function never
/// panics, whatever the input bytes.
pub fn parse_gml_bytes(doc: &[u8]) -> Result<Vec<(String, GmlValue)>, GmlError> {
    let mut p = P { s: doc, i: 0 };
    let mut entries = Vec::new();
    loop {
        p.skip_ws_and_comments();
        if p.i >= p.s.len() {
            return Ok(entries);
        }
        let Some(key) = p.key() else {
            return Err(p.err("expected a top-level key"));
        };
        let v = p.value()?;
        entries.push((key, v));
    }
}

/// Build a [`Topology`] from a Topology-Zoo-style GML document.
///
/// Every edge yields both directed links. Distances are haversine
/// kilometres where both endpoints carry `Latitude`/`Longitude`
/// (minimum 1), else 1.
pub fn topology_from_gml(doc: &str) -> Result<Topology, GmlError> {
    topology_from_gml_bytes(doc.as_bytes())
}

/// Byte-level variant of [`topology_from_gml`]: accepts raw file
/// contents and never panics (see [`parse_gml_bytes`]).
pub fn topology_from_gml_bytes(doc: &[u8]) -> Result<Topology, GmlError> {
    let top = parse_gml_bytes(doc)?;
    let graph = top
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("graph"))
        .map(|(_, v)| v)
        .ok_or(GmlError {
            pos: 0,
            msg: "no graph block".into(),
        })?;

    let mut topo = Topology::new();
    let mut by_gml_id: HashMap<i64, netmodel::RouterId> = HashMap::new();
    let mut used_names: HashMap<String, usize> = HashMap::new();

    for (k, v) in graph.entries() {
        if !k.eq_ignore_ascii_case("node") {
            continue;
        }
        let id = v.get("id").and_then(GmlValue::as_i64).ok_or(GmlError {
            pos: 0,
            msg: "node without id".into(),
        })?;
        let raw = v
            .get("label")
            .and_then(GmlValue::as_str)
            .map(|s| s.to_string())
            .unwrap_or_else(|| format!("N{id}"));
        // The Zoo has duplicate labels ("None", repeated cities).
        let n = used_names.entry(raw.clone()).or_insert(0);
        let name = if *n == 0 {
            raw.clone()
        } else {
            format!("{raw}_{id}")
        };
        *n += 1;
        let coord = match (
            v.get("Latitude").and_then(GmlValue::as_f64),
            v.get("Longitude").and_then(GmlValue::as_f64),
        ) {
            (Some(lat), Some(lng)) => Some((lat, lng)),
            _ => None,
        };
        let rid = topo.add_router(&name, coord);
        by_gml_id.insert(id, rid);
    }

    let mut edge_count: HashMap<(i64, i64), usize> = HashMap::new();
    for (k, v) in graph.entries() {
        if !k.eq_ignore_ascii_case("edge") {
            continue;
        }
        let src = v.get("source").and_then(GmlValue::as_i64);
        let dst = v.get("target").and_then(GmlValue::as_i64);
        let (Some(src), Some(dst)) = (src, dst) else {
            return Err(GmlError {
                pos: 0,
                msg: "edge without source/target".into(),
            });
        };
        let (Some(&a), Some(&b)) = (by_gml_id.get(&src), by_gml_id.get(&dst)) else {
            return Err(GmlError {
                pos: 0,
                msg: format!("edge references unknown node {src} or {dst}"),
            });
        };
        // Parallel edges exist in the Zoo; number the interfaces.
        let key = if src <= dst { (src, dst) } else { (dst, src) };
        let idx = edge_count.entry(key).or_insert(0);
        let suffix = if *idx == 0 {
            String::new()
        } else {
            format!("_{idx}")
        };
        *idx += 1;
        let km = topo
            .geo_distance(a, b)
            .map(|d| d.max(1.0) as u64)
            .unwrap_or(1);
        let (na, nb) = (topo.router(a).name.clone(), topo.router(b).name.clone());
        topo.add_link(
            a,
            &format!("to_{nb}{suffix}"),
            b,
            &format!("to_{na}{suffix}"),
            km,
        );
        topo.add_link(
            b,
            &format!("to_{na}{suffix}"),
            a,
            &format!("to_{nb}{suffix}"),
            km,
        );
    }
    Ok(topo)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
        # A fictional three-city backbone in Zoo style.
        Creator "reproduction test"
        graph [
          directed 0
          label "MiniNet"
          node [ id 0 label "Aalborg"    Latitude 57.048 Longitude 9.9187 ]
          node [ id 1 label "Copenhagen" Latitude 55.676 Longitude 12.568 ]
          node [ id 2 label "Vienna"     Latitude 48.208 Longitude 16.373 ]
          edge [ source 0 target 1 LinkLabel "OC-48" ]
          edge [ source 1 target 2 ]
        ]
    "#;

    #[test]
    fn parses_sample_topology() {
        let topo = topology_from_gml(SAMPLE).unwrap();
        assert_eq!(topo.num_routers(), 3);
        assert_eq!(topo.num_links(), 4, "two edges → four directed links");
        let aal = topo.router_by_name("Aalborg").unwrap();
        let cph = topo.router_by_name("Copenhagen").unwrap();
        assert!(topo.router(aal).coord.is_some());
        // Aalborg–Copenhagen ≈ 180–240 km; the link distance must be geo.
        let l = topo
            .links()
            .find(|&l| topo.src(l) == aal && topo.dst(l) == cph)
            .unwrap();
        let d = topo.link(l).distance;
        assert!((100..400).contains(&d), "distance {d}");
    }

    #[test]
    fn duplicate_labels_are_disambiguated() {
        let doc = r#"graph [
            node [ id 0 label "None" ]
            node [ id 1 label "None" ]
            edge [ source 0 target 1 ]
        ]"#;
        let topo = topology_from_gml(doc).unwrap();
        assert_eq!(topo.num_routers(), 2);
        assert!(topo.router_by_name("None").is_some());
        assert!(topo.router_by_name("None_1").is_some());
    }

    #[test]
    fn parallel_edges_get_distinct_interfaces() {
        let doc = r#"graph [
            node [ id 0 label "A" ]
            node [ id 1 label "B" ]
            edge [ source 0 target 1 ]
            edge [ source 0 target 1 ]
        ]"#;
        let topo = topology_from_gml(doc).unwrap();
        assert_eq!(topo.num_links(), 4);
        let a = topo.router_by_name("A").unwrap();
        let names: Vec<String> = topo
            .links_from(a)
            .iter()
            .map(|&l| topo.link(l).src_if.clone())
            .collect();
        assert_eq!(names.len(), 2);
        assert_ne!(names[0], names[1]);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(topology_from_gml("graph [ node [ id ] ]").is_err());
        assert!(topology_from_gml("nodes_only 3").is_err());
        assert!(topology_from_gml("graph [ edge [ source 0 target 9 ] ]").is_err());
        assert!(topology_from_gml("graph [ node [ id 0 label \"unterminated ] ]").is_err());
    }

    #[test]
    fn non_utf8_bytes_never_panic() {
        // Latin-1 city name inside a string: tolerated lossily.
        let latin1 = b"graph [ node [ id 0 label \"K\xf8benhavn\" ] ]".to_vec();
        let topo = topology_from_gml_bytes(&latin1).expect("latin-1 strings tolerated");
        assert_eq!(topo.num_routers(), 1);
        // Invalid bytes in structural positions: typed error, no panic.
        for doc in [
            &b"graph [ \xff\xfe ]"[..],
            &b"\xc3graph [ node [ id 0 ] ]"[..],
            &b"graph [ node [ id 0\xff1 ] ]"[..],
            &b"graph [ node [ id \xf01 label \"x\" ] ]"[..],
        ] {
            match topology_from_gml_bytes(doc) {
                Ok(_) => {}
                Err(e) => assert!(e.pos <= doc.len(), "offset {} beyond input", e.pos),
            }
        }
    }

    #[test]
    fn gml_topology_feeds_the_pipeline() {
        // End to end: GML → dataplane → verification.
        use crate::lsp::{build_mpls_dataplane, LspConfig};
        use query::parse_query;
        let topo = topology_from_gml(SAMPLE).unwrap();
        let dp = build_mpls_dataplane(
            topo,
            &LspConfig {
                edge_routers: 2,
                max_pairs: 4,
                protect: false,
                service_chains: 1,
                seed: 1,
            },
        );
        assert!(dp.net.num_rules() > 0);
        let a = dp.net.topology.router(dp.edge_routers[0]).name.clone();
        let b = dp.net.topology.router(dp.edge_routers[1]).name.clone();
        let q = parse_query(&format!("<ip> [.#{a}] .* [.#{b}] <ip> 0")).unwrap();
        use aalwines::{Engine, Verifier, VerifyOptions};
        let _ = Verifier::new(&dp.net).verify(&q, &VerifyOptions::default());
    }
}

//! JSON feed for the AalWiNes web GUI.
//!
//! The original tool's browser front end renders the network on a map
//! and animates the witness trace, hop by hop, with the operations
//! applied at each router. This module produces that payload: the
//! verdict, the per-step trace (link endpoints, coordinates, header),
//! the failed links, and the weight vector.

use aalwines::{Answer, Outcome};
use formats::json::Value;
use netmodel::{LinkId, Network};
use std::collections::BTreeMap;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn s(v: &str) -> Value {
    Value::String(v.to_string())
}

fn link_json(net: &Network, l: LinkId) -> Value {
    let link = net.topology.link(l);
    let mut entries = vec![
        ("from", s(&net.topology.router(link.src).name)),
        ("fromInterface", s(&link.src_if)),
        ("to", s(&net.topology.router(link.dst).name)),
        ("toInterface", s(&link.dst_if)),
        ("distance", Value::Number(link.distance as f64)),
    ];
    if let Some((lat, lng)) = net.topology.router(link.src).coord {
        entries.push((
            "fromCoord",
            obj(vec![
                ("lat", Value::Number(lat)),
                ("lng", Value::Number(lng)),
            ]),
        ));
    }
    if let Some((lat, lng)) = net.topology.router(link.dst).coord {
        entries.push((
            "toCoord",
            obj(vec![
                ("lat", Value::Number(lat)),
                ("lng", Value::Number(lng)),
            ]),
        ));
    }
    obj(entries)
}

/// Render a verification answer as the GUI JSON payload.
pub fn answer_to_json(net: &Network, query: &str, answer: &Answer) -> Value {
    let mut entries: Vec<(&str, Value)> = vec![("query", s(query))];
    match &answer.outcome {
        Outcome::Satisfied(w) => {
            entries.push(("result", s("satisfied")));
            let steps: Vec<Value> = w
                .trace
                .steps
                .iter()
                .map(|step| {
                    obj(vec![
                        ("link", link_json(net, step.link)),
                        (
                            "header",
                            Value::Array(
                                step.header
                                    .0
                                    .iter()
                                    .map(|&l| s(net.labels.name(l)))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect();
            entries.push(("trace", Value::Array(steps)));
            let failed: Vec<Value> = {
                let mut v: Vec<LinkId> = w.failed_links.iter().copied().collect();
                v.sort();
                v.into_iter().map(|l| link_json(net, l)).collect()
            };
            entries.push(("failedLinks", Value::Array(failed)));
            if let Some(weight) = &w.weight {
                entries.push((
                    "weight",
                    Value::Array(weight.iter().map(|&x| Value::Number(x as f64)).collect()),
                ));
            }
        }
        Outcome::Unsatisfied => entries.push(("result", s("unsatisfied"))),
        Outcome::Inconclusive => entries.push(("result", s("inconclusive"))),
        Outcome::Aborted(reason) => {
            entries.push(("result", s("aborted")));
            entries.push(("abortReason", s(reason.as_str())));
        }
        Outcome::Error(msg) => {
            entries.push(("result", s("error")));
            entries.push(("error", s(msg)));
        }
    }
    // The per-query telemetry, embedded by parsing the hand-rolled
    // serializer's output (keeps the two JSON paths consistent). A
    // serializer bug degrades to a null stats field instead of aborting
    // the GUI feed.
    let stats = formats::json::parse(&answer.stats.to_json()).unwrap_or(Value::Null);
    entries.push(("stats", stats));
    obj(entries)
}

/// Render a query-level failure (parse or load error) as a GUI payload,
/// so the front end can show a structured message — with a byte offset
/// when one is known — instead of the process aborting.
pub fn error_to_json(query: &str, message: &str, offset: Option<usize>) -> Value {
    let mut entries = vec![
        ("query", s(query)),
        ("result", s("error")),
        ("error", s(message)),
    ];
    if let Some(pos) = offset {
        entries.push(("offset", Value::Number(pos as f64)));
    }
    obj(entries)
}

/// Render the network itself (routers with coordinates + links) for the
/// GUI's map view.
pub fn network_to_json(net: &Network) -> Value {
    let routers: Vec<Value> = net
        .topology
        .routers()
        .map(|r| {
            let router = net.topology.router(r);
            let mut entries = vec![("name", s(&router.name))];
            if let Some((lat, lng)) = router.coord {
                entries.push(("lat", Value::Number(lat)));
                entries.push(("lng", Value::Number(lng)));
            }
            obj(entries)
        })
        .collect();
    let links: Vec<Value> = net.topology.links().map(|l| link_json(net, l)).collect();
    obj(vec![
        ("routers", Value::Array(routers)),
        ("links", Value::Array(links)),
        ("rules", Value::Number(net.num_rules() as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use aalwines::examples::PAPER_QUERIES;
    use aalwines::{Engine, Verifier, VerifyOptions};
    use query::parse_query;

    #[test]
    fn aborted_answer_serializes_reason() {
        let net = aalwines::examples::paper_network();
        let text = PAPER_QUERIES[0];
        let q = parse_query(text).unwrap();
        let opts = VerifyOptions::new().with_transition_budget(0);
        let ans = Verifier::new(&net).verify(&q, &opts);
        let v = answer_to_json(&net, text, &ans);
        assert_eq!(v.get("result").and_then(Value::as_str), Some("aborted"));
        assert_eq!(
            v.get("abortReason").and_then(Value::as_str),
            Some("transition-budget")
        );
        let parsed = formats::json::parse(&v.to_json()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn satisfied_answer_serializes_with_trace() {
        let net = aalwines::examples::paper_network();
        let text = PAPER_QUERIES[0];
        let q = parse_query(text).unwrap();
        let ans = Verifier::new(&net).verify(&q, &VerifyOptions::default());
        let v = answer_to_json(&net, text, &ans);
        assert_eq!(v.get("result").and_then(Value::as_str), Some("satisfied"));
        let Some(Value::Array(trace)) = v.get("trace") else {
            panic!("trace missing");
        };
        assert_eq!(trace.len(), 4);
        // The payload round-trips through the JSON parser.
        let parsed = formats::json::parse(&v.to_json()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn unsatisfied_answer_has_no_trace() {
        let net = aalwines::examples::paper_network();
        let text = PAPER_QUERIES[3];
        let q = parse_query(text).unwrap();
        let ans = Verifier::new(&net).verify(&q, &VerifyOptions::default());
        let v = answer_to_json(&net, text, &ans);
        assert_eq!(v.get("result").and_then(Value::as_str), Some("unsatisfied"));
        assert!(v.get("trace").is_none());
    }

    #[test]
    fn error_answer_serializes_message() {
        let net = aalwines::examples::paper_network();
        let ans = Answer::error("engine 'dual' panicked: boom");
        let v = answer_to_json(&net, "<ip> .* <ip> 0", &ans);
        assert_eq!(v.get("result").and_then(Value::as_str), Some("error"));
        assert_eq!(
            v.get("error").and_then(Value::as_str),
            Some("engine 'dual' panicked: boom")
        );
        let parsed = formats::json::parse(&v.to_json()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn parse_failure_renders_structured_error() {
        let bad = "<ip> [#v0 <ip> 0";
        let err = parse_query(bad).unwrap_err();
        let v = error_to_json(bad, &err.to_string(), Some(err.pos));
        assert_eq!(v.get("result").and_then(Value::as_str), Some("error"));
        assert!(v.get("offset").and_then(Value::as_f64).is_some());
        let parsed = formats::json::parse(&v.to_json()).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn network_payload_lists_everything() {
        let net = aalwines::examples::paper_network();
        let v = network_to_json(&net);
        let Some(Value::Array(routers)) = v.get("routers") else {
            panic!()
        };
        let Some(Value::Array(links)) = v.get("links") else {
            panic!()
        };
        assert_eq!(routers.len(), 7);
        assert_eq!(links.len(), 8);
        assert_eq!(v.get("rules").and_then(Value::as_f64), Some(13.0));
    }
}

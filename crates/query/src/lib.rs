//! # query — the AalWiNes reachability query language
//!
//! Queries have the form `<a> b <c> k` (Definition 5):
//!
//! * `a`, `c` — regular expressions over the network's *labels*,
//!   constraining the initial and final header,
//! * `b` — a regular expression over the network's *links*, constraining
//!   the path a packet takes,
//! * `k` — the maximum number of failed links considered.
//!
//! Supported syntax (matching the paper's examples):
//!
//! ```text
//! <a>  ::=  label regex:  . | ip | mpls | smpls | NAME | [N1,N2,…]
//!           combined with  e1 e2 (concat), e1|e2, e*, e+, e?, (e)
//! b    ::=  link regex:    . | [end#end] | [^end#end]
//!           where end ::= . | ROUTER | ROUTER.IFACE
//!           combined with the same operators
//! ```
//!
//! Example: `<smpls? ip> [.#v0] .* [v3#.] <smpls? ip> 1` (φ₄ of the
//! paper's Figure 1d).
//!
//! [`parse_query`] produces an AST; [`compile()`] resolves it against a
//! concrete [`Network`](netmodel::Network) into ε-free NFAs: a
//! [`StackNfa`](pdaal::StackNfa) per header constraint (edges are
//! symbol-set predicates, so `mpls` does not enumerate thousands of
//! labels) and a [`LinkNfa`] for the path constraint (edges are bitsets
//! over the link universe, so `^`-negation is exact complement).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
pub mod compile;
pub mod linknfa;
pub mod parse;

pub use ast::{Endpoint, LabelAtom, LinkAtom, Query, Regex};
pub use compile::{
    compile, compile_label_regex, compile_link_regex, resolve_label_atom, resolve_link_atom,
    CompiledQuery,
};
pub use linknfa::{LinkNfa, LinkSet};
pub use parse::{parse_query, ParseError};

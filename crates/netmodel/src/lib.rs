//! # netmodel — the MPLS network model of AalWiNes
//!
//! Faithful implementation of Section 2 and 3 of *AalWiNes: A Fast and
//! Quantitative What-If Analysis Tool for MPLS Networks* (CoNEXT 2020):
//!
//! * [`Topology`] — a directed multigraph of routers and links
//!   (Definition 1), with interface names and optional coordinates used
//!   for the `Distance` quantity,
//! * [`LabelTable`] — the label set `L = L_M ⊎ L_M⊥ ⊎ L_IP` partitioned
//!   into plain MPLS labels, bottom-of-stack MPLS labels, and IP labels
//!   (Definition 2),
//! * [`Header`] — valid MPLS headers and the partial header-rewrite
//!   function `H` (Definition 3),
//! * [`Network`] — topology + routing table `τ`, mapping `(link, label)`
//!   to a priority-ordered sequence of traffic-engineering groups
//!   (Definition 2),
//! * [`Trace`] — network traces (Definition 4), their validity under a
//!   set of failed links, the atomic quantities of Section 3, and the
//!   polynomial-time feasibility check used by the dual engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod header;
pub mod label;
pub mod routing;
pub mod sim;
pub mod topology;
pub mod trace;

pub use header::Header;
pub use label::{LabelId, LabelKind, LabelTable};
pub use routing::{
    IssueKind, Network, Op, OpSeq, RepairReport, RoutingEntry, Severity, TeGroup, ValidationIssue,
};
pub use sim::{feasible_failures, successors};
pub use topology::{Footprint, LinkId, RouterId, Topology};
pub use trace::{Trace, TraceStep};

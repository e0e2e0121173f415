//! The four workloads: how their inputs are generated from the seed, how
//! each is set up, and how one pass over its script runs.
//!
//! Everything the program under test receives is generated here, untimed:
//! dataplane text or an in-memory `Network`, query texts and deltas. The
//! seed picks the queries' endpoints and their order (and, on
//! `stream_scale`, which lines repeat); the dataplanes and the deltas are
//! fixed per workload so that runs with different seeds do the same amount
//! of work.

use crate::trace::Tracer;
use aalwines::telemetry::{envelope, millis};
use aalwines::{
    Answer, Delta, Session, SessionBuilder, StreamEvent, StreamOptions, VerifyOptions, WeightSpec,
};
use detrand::DetRng;
use netmodel::{LinkId, Network};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use topogen::lsp::Dataplane;
use topogen::queries::{figure4_queries, table1_queries};
use topogen::{build_mpls_dataplane, nordunet_like, zoo_like, LspConfig, ZooConfig};

/// Deterministic per-query budget: an outcome never depends on the clock.
pub const TRANSITION_BUDGET: usize = 50_000_000;
/// Hang guard only; a run in which it fires counts the slot as failed.
pub const HANG_GUARD: Duration = Duration::from_secs(60);

// Sizes. The driver gives one run about half a minute in all (set-up
// reps, timed passes, check pass), and `formats::parse_routes` is
// quadratic in the rule count, so the ingested dataplanes stay below
// ~10k rules; see the README for the measurements behind each number.
const AUDIT_SCALE: f64 = 0.03;
const AUDIT_PER_CELL: usize = 7;
const ZOO_ROUTERS: [u32; 8] = [20, 30, 40, 50, 60, 70, 80, 100];
const CHURN_SCALE: f64 = 0.02;
const CHURN_PER_CELL: usize = 2;
const STREAM_CORE_ROUTERS: u32 = 120;
const STREAM_EDGE_ROUTERS: usize = 32;
const STREAM_CHAINS: usize = 900;
const STREAM_PER_CELL: usize = 6;
const STREAM_WINDOW: usize = 4;
/// A repeated line follows its original by at least this many lines, so
/// the original has left the window (and sits in the cache) before the
/// repeat is pulled: the hit count does not depend on thread timing.
const STREAM_REPEAT_DISTANCE: usize = 8;
const RESIDENT_CACHE: usize = 512;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    OperatorAudit,
    ZooSweep,
    ResidentChurn,
    StreamScale,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::OperatorAudit,
    Workload::ZooSweep,
    Workload::ResidentChurn,
    Workload::StreamScale,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::OperatorAudit => "operator_audit",
            Workload::ZooSweep => "zoo_sweep",
            Workload::ResidentChurn => "resident_churn",
            Workload::StreamScale => "stream_scale",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, with its final size (BENCHMARK.json `why`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::OperatorAudit => {
                "Table 1 case: 8.9k-rule NORDUnet-like dataplane ingested from text, 134 distinct cold queries; rules >> routers, so ingest owns set-up and construction+reduction own a verdict"
            }
            Workload::ZooSweep => {
                "Figure 4 case: 8 Zoo-like networks (20-100 core routers) from text, 21 weighted queries each; small PDSs make per-query fixed costs and per-network set-up the bulk"
            }
            Workload::ResidentChurn => {
                "Daemon read/write mix: 6.5k-rule resident session, 6 deltas each followed by a warm 36-query pool twice over; shows cache hits, footprint invalidation, precomp refresh and relint"
            }
            Workload::StreamScale => {
                "Throughput path: 132-line stream (111 distinct + 21 repeats) over a 152-router dataplane through verify_stream on 2 workers, window 4, each answer serialised to JSON"
            }
        }
    }

    /// Worker threads of the stream driver: never more than two, never
    /// more than the host has.
    pub fn stream_threads() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
    }

    pub fn verify_options(self) -> VerifyOptions {
        let opts = VerifyOptions::new()
            .with_transition_budget(TRANSITION_BUDGET)
            .with_timeout(HANG_GUARD)
            .with_saturation_threads(1);
        match self {
            Workload::ZooSweep => opts.with_weights(
                WeightSpec::parse("Failures, Hops").expect("a valid weight specification"),
            ),
            _ => opts,
        }
    }

    pub fn session_builder(self) -> SessionBuilder {
        let builder = Session::builder().verify_options(self.verify_options());
        match self {
            Workload::OperatorAudit | Workload::ZooSweep => builder,
            Workload::ResidentChurn => builder.cache_size(RESIDENT_CACHE),
            Workload::StreamScale => builder
                .cache_size(RESIDENT_CACHE)
                .threads(Self::stream_threads()),
        }
    }
}

/// Where a unit's dataplane comes from.
pub enum Source {
    /// Appendix-A text, parsed in every set-up.
    Text {
        topology: String,
        routes: String,
        locations: String,
    },
    /// Built in memory; set-up starts at `Network::validate`.
    Memory(Box<Network>),
}

impl Source {
    fn text_of(net: &Network) -> Source {
        Source::Text {
            topology: formats::write_topology(&net.topology),
            routes: formats::write_routes(net),
            locations: formats::write_locations(&net.topology),
        }
    }

    pub fn bytes_in(&self) -> usize {
        match self {
            Source::Text {
                topology,
                routes,
                locations,
            } => topology.len() + routes.len() + locations.len(),
            Source::Memory(_) => 0,
        }
    }
}

pub enum Step {
    /// One verdict slot.
    Query(String),
    /// A dataplane change (`resident_churn` only); its time is inside the
    /// pass wall and the watched answers it re-verifies count as verdicts.
    Delta(Delta),
}

/// One dataplane with the script that runs against it.
pub struct Unit {
    pub source: Source,
    pub steps: Vec<Step>,
    /// Queries registered with `Session::watch` before the script.
    pub watched: Vec<String>,
    /// Queries verified untimed before the script, so it starts warm.
    pub warm: Vec<String>,
}

impl Unit {
    fn queries_only(source: Source, queries: Vec<String>) -> Unit {
        Unit {
            source,
            steps: queries.into_iter().map(Step::Query).collect(),
            watched: Vec::new(),
            warm: Vec::new(),
        }
    }

    pub fn slot_texts(&self) -> impl Iterator<Item = &str> {
        self.steps.iter().filter_map(|s| match s {
            Step::Query(text) => Some(text.as_str()),
            Step::Delta(_) => None,
        })
    }
}

/// `figure4_queries` draws one of seven families by position and `k` at
/// random. A verdict's cost is set by its (family, k) cell far more than by
/// its endpoints (measured: within a cell +-10 %, between cells 10x), so a
/// script takes the same number of queries from every cell and the seed
/// picks the endpoints; runs with different seeds then do the same amount
/// of work. The unanchored family has one text per `k`.
const ANCHORED_FAMILIES: usize = 6;
const K_VALUES: usize = 3;
pub const CELLS: usize = ANCHORED_FAMILIES * K_VALUES;

struct Stratified {
    /// `per_cell` distinct queries of every anchored (family, k) cell, in
    /// generation order, with their cell.
    anchored: Vec<(usize, String)>,
    /// `<smpls? ip> .* <. smpls ip> k` for every `k` not in `taken`.
    unanchored: Vec<String>,
}

fn stratified(
    dp: &Dataplane,
    per_cell: usize,
    seed: u64,
    taken: &mut HashSet<String>,
) -> Stratified {
    let mut out = Stratified {
        anchored: Vec::with_capacity(CELLS * per_cell),
        unanchored: Vec::new(),
    };
    let mut filled = [0usize; CELLS];
    for (i, q) in figure4_queries(dp, CELLS * per_cell * 40, seed)
        .into_iter()
        .enumerate()
    {
        let family = i % (ANCHORED_FAMILIES + 1);
        let k: usize = q
            .rsplit(' ')
            .next()
            .and_then(|k| k.parse().ok())
            .expect("a query ends in its failure bound");
        if family == ANCHORED_FAMILIES {
            if taken.insert(q.clone()) {
                out.unanchored.push(q);
            }
        } else if filled[family * K_VALUES + k] < per_cell && taken.insert(q.clone()) {
            filled[family * K_VALUES + k] += 1;
            out.anchored.push((family * K_VALUES + k, q));
        }
    }
    assert!(
        filled.iter().all(|&n| n == per_cell),
        "the dataplane yields {per_cell} distinct queries per cell"
    );
    out
}

impl Stratified {
    fn into_queries(self) -> Vec<String> {
        let anchored = self.anchored.into_iter().map(|(_, q)| q);
        anchored.chain(self.unanchored).collect()
    }
}

fn zoo_dataplane(core_routers: u32, edge_routers: usize, service_chains: usize) -> Dataplane {
    let topo = zoo_like(&ZooConfig {
        routers: core_routers,
        avg_degree: 3.0,
        seed: 0xA00 + core_routers as u64,
    });
    build_mpls_dataplane(
        topo,
        &LspConfig {
            edge_routers,
            max_pairs: 400,
            protect: true,
            service_chains,
            seed: 0xB00 + core_routers as u64,
        },
    )
}

pub fn generate(workload: Workload, seed: u64) -> Vec<Unit> {
    match workload {
        Workload::OperatorAudit => {
            let dp = nordunet_like(AUDIT_SCALE);
            let mut queries = table1_queries(&dp, seed);
            // Table 1's last query is the unanchored one with k = 0.
            let mut taken = queries.iter().cloned().collect();
            queries.extend(stratified(&dp, AUDIT_PER_CELL, seed, &mut taken).into_queries());
            vec![Unit::queries_only(Source::text_of(&dp.net), queries)]
        }
        Workload::ZooSweep => ZOO_ROUTERS
            .iter()
            .map(|&n| {
                let edge = (n as usize / 5).clamp(4, 24);
                let dp = zoo_dataplane(n, edge, 2 * n as usize);
                let queries = stratified(&dp, 1, seed ^ n as u64, &mut HashSet::new());
                Unit::queries_only(Source::text_of(&dp.net), queries.into_queries())
            })
            .collect(),
        Workload::ResidentChurn => {
            let dp = nordunet_like(CHURN_SCALE);
            // Two queries per anchored cell. An unanchored query's footprint
            // is the whole network, so every delta would evict it: it would
            // add a constant, not a cache effect.
            let pool = stratified(&dp, CHURN_PER_CELL, seed, &mut HashSet::new()).anchored;
            // Watched: the first k = 1 query of every family.
            let mut watched: Vec<String> = Vec::new();
            for family in 0..ANCHORED_FAMILIES {
                let cell = family * K_VALUES + 1;
                watched.extend(
                    pool.iter()
                        .find(|(c, _)| *c == cell)
                        .map(|(_, q)| q.clone()),
                );
            }
            let pool: Vec<String> = pool.into_iter().map(|(_, q)| q).collect();
            let mut rng = DetRng::seed_from_u64(seed ^ 0xC4_0000);
            let mut steps = Vec::new();
            for delta in churn_deltas(&dp) {
                steps.push(Step::Delta(delta));
                // Every pool query twice per round in seeded order: the
                // first may miss (if the delta evicted it), the second hits.
                let mut round: Vec<&String> = pool.iter().chain(&pool).collect();
                rng.shuffle(&mut round);
                steps.extend(round.into_iter().map(|q| Step::Query(q.clone())));
            }
            vec![Unit {
                source: Source::Memory(Box::new(dp.net)),
                steps,
                watched,
                warm: pool,
            }]
        }
        Workload::StreamScale => {
            let dp = zoo_dataplane(STREAM_CORE_ROUTERS, STREAM_EDGE_ROUTERS, STREAM_CHAINS);
            let picked = stratified(&dp, STREAM_PER_CELL, seed, &mut HashSet::new());
            let mut rng = DetRng::seed_from_u64(seed ^ 0x57_0000);
            // Repeated later in the stream: one query of every cell, chosen
            // by the seed, and the three unanchored ones.
            let mut repeated = picked.unanchored.clone();
            for cell in 0..CELLS {
                let of_cell: Vec<&String> = picked
                    .anchored
                    .iter()
                    .filter(|(c, _)| *c == cell)
                    .map(|(_, q)| q)
                    .collect();
                repeated.push((*rng.choose(&of_cell)).clone());
            }
            // The rest in seeded order; then the originals of the repeated
            // lines, early enough to leave room; then the repeats. An insert
            // only ever widens the gaps between lines already placed.
            let mut lines = picked.into_queries();
            lines.retain(|l| !repeated.contains(l));
            rng.shuffle(&mut lines);
            for text in &repeated {
                let at = rng.gen_range(0..lines.len() + 1 - STREAM_REPEAT_DISTANCE);
                lines.insert(at, text.clone());
            }
            for text in repeated {
                let original = lines
                    .iter()
                    .position(|l| *l == text)
                    .expect("the original was just placed");
                let at = rng.gen_range(original + STREAM_REPEAT_DISTANCE..lines.len() + 1);
                lines.insert(at, text);
            }
            vec![Unit::queries_only(Source::Memory(Box::new(dp.net)), lines)]
        }
    }
}

/// Six deltas, every one applicable in sequence and one of each kind: a
/// link goes down and comes back two rounds later, a rule is removed and
/// re-added, a backup group is demoted and promoted again. What a delta
/// evicts is set by the link it touches: on this 47-router network every
/// anchored query's footprint holds every loaded core link, so a core
/// delta evicts all cached artifacts (measured 36 of 37), while a rule
/// keyed on an edge router's external ingress link sits only in the
/// footprints of the queries that enter there. The link that goes down is
/// a core link of middling load (broad); the rule and the backup group are
/// keyed on ingress links (narrow). The eviction count depends on these
/// choices far more than on the queries (10-21 per delta over seeded
/// links), so they are drawn once, with a constant, not from the seed.
fn churn_deltas(dp: &Dataplane) -> Vec<Delta> {
    let net = &dp.net;
    let mut by_load: Vec<(usize, LinkId)> = net
        .topology
        .links()
        .map(|l| (net.entries_over(l).len(), l))
        .filter(|(load, _)| *load > 0)
        .collect();
    by_load.sort_by_key(|(load, link)| (*load, link.index()));
    let quarter = by_load.len() / 4;
    let core_links: Vec<LinkId> = by_load[quarter..by_load.len() - quarter]
        .iter()
        .map(|(_, l)| *l)
        .collect();
    let mut keys: Vec<_> = net
        .routing_keys()
        .filter(|(link, _)| dp.ext_in.values().any(|l| l == link))
        .collect();
    keys.sort_by_key(|(link, label)| (link.index(), label.index()));
    let with_backup: Vec<_> = keys
        .iter()
        .copied()
        .filter(|&(link, label)| net.groups(link, label).len() >= 2)
        .collect();

    let rng = &mut DetRng::seed_from_u64(0xDE17A);
    let down = *rng.choose(&core_links);
    let (in_link, label) = *rng.choose(&keys);
    let (priority, entry) = (1, net.groups(in_link, label)[0][0].clone());
    let (b_link, b_label) = *rng.choose(&with_backup);
    let last = net.groups(b_link, b_label).len();
    let reprioritise = |from: usize, to: usize| Delta::SetPriority {
        in_link: b_link,
        label: b_label,
        from,
        to,
    };
    vec![
        Delta::LinkDown(down),
        Delta::RemoveRule {
            in_link,
            label,
            priority,
            entry: entry.clone(),
        },
        Delta::LinkUp(down),
        Delta::AddRule {
            in_link,
            label,
            priority,
            entry,
        },
        reprioritise(last, last + 1),
        reprioritise(last + 1, last),
    ]
}

/// One set-up: parse (where the workload ingests) → validate → open
/// (→ lint priming on `resident_churn`). `nets` are the pre-cloned
/// in-memory dataplanes, one per `Memory` unit, so the clone is not timed.
/// With an enabled tracer each stage gets a span, and `NetworkPrecomp::new`
/// is additionally called on its own so its share of `open` is known.
pub fn set_up(
    workload: Workload,
    units: &[Unit],
    mut nets: Vec<Option<Network>>,
    rep: u32,
    tracer: &mut Tracer,
) -> (Duration, Vec<Session>) {
    let slot = Some(rep);
    let started = Instant::now();
    let root = tracer.begin("setup", slot);
    let mut sessions = Vec::with_capacity(units.len());
    for (unit, net) in units.iter().zip(nets.iter_mut()) {
        let net = match &unit.source {
            Source::Text {
                topology,
                routes,
                locations,
            } => {
                let mut topo = tracer
                    .time("formats/parse_topology", slot, || {
                        formats::parse_topology(topology)
                    })
                    .expect("generated topology text parses");
                tracer
                    .time("formats/parse_locations", slot, || {
                        formats::parse_locations(locations, &mut topo)
                    })
                    .expect("generated locations text parses");
                tracer
                    .time("formats/parse_routes", slot, || {
                        formats::parse_routes(routes, topo)
                    })
                    .expect("generated routes text parses")
            }
            Source::Memory(_) => net.take().expect("a pre-cloned network per memory unit"),
        };
        let issues = tracer.time("netmodel/validate", slot, || net.validate());
        assert!(issues.is_empty(), "generated dataplanes validate clean");
        if tracer.enabled() {
            let pre = tracer.time("precomp/NetworkPrecomp::new", slot, || {
                aalwines::NetworkPrecomp::new(&net)
            });
            black_box(pre.bytes_resident());
        }
        let builder = workload.session_builder();
        let mut session = tracer.time("session/open", slot, || builder.open(net));
        if workload == Workload::ResidentChurn {
            let lint = tracer.time("dplint/lint", slot, || session.lint());
            black_box(lint.report.findings.len());
        }
        sessions.push(session);
    }
    tracer.end(root);
    (started.elapsed(), sessions)
}

/// Pre-clone the in-memory dataplanes for one set-up or pass.
pub fn memory_nets(units: &[Unit]) -> Vec<Option<Network>> {
    units
        .iter()
        .map(|u| match &u.source {
            Source::Memory(net) => Some((**net).clone()),
            Source::Text { .. } => None,
        })
        .collect()
}

pub struct DeltaOut {
    pub millis: f64,
    pub invalidated: usize,
    pub retained: usize,
    pub reverified: usize,
    pub relinted: usize,
}

#[derive(Default)]
pub struct PassOut {
    /// Sum of the units' script times (session opening, watching and
    /// warming happen between them, untimed).
    pub wall: Duration,
    /// Latency and answer of every slot, in script order.
    pub slots: Vec<(Duration, Answer)>,
    /// Verdicts produced: the slots plus re-verified watched answers.
    pub verdicts: usize,
    pub deltas: Vec<DeltaOut>,
    /// `Session::bytes_resident` summed over the units at the pass's end.
    pub session_bytes: usize,
    pub peak_in_flight: usize,
    /// Time spent serialising answers (traced stream passes only).
    pub emit: Duration,
}

/// Called after each answer of the (untimed) check pass, with the network
/// the answer was computed against.
pub type AnswerHook<'a> = &'a mut dyn FnMut(usize, &Network, &str, &Answer);

/// One pass: the script of every unit on a fresh session opened from
/// `nets[i]`. Timed passes pass no hook.
pub fn run_pass(
    workload: Workload,
    units: &[Unit],
    nets: &[Network],
    tracer: &mut Tracer,
    mut hook: Option<AnswerHook<'_>>,
) -> PassOut {
    let mut out = PassOut::default();
    let root = tracer.begin("pass", None);
    for (unit, net) in units.iter().zip(nets) {
        let mut session = workload.session_builder().open(net.clone());
        if workload == Workload::ResidentChurn {
            session.lint();
        }
        for text in &unit.watched {
            session.watch(text).expect("generated queries parse");
        }
        for text in &unit.warm {
            session.verify_text(text).expect("generated queries parse");
        }
        if workload == Workload::StreamScale {
            stream_unit(&session, unit, tracer, &mut hook, &mut out);
        } else {
            sequential_unit(&mut session, unit, tracer, &mut hook, &mut out);
        }
        out.session_bytes += session.bytes_resident();
    }
    tracer.end(root);
    out.verdicts += out.slots.len();
    out
}

fn sequential_unit(
    session: &mut Session,
    unit: &Unit,
    tracer: &mut Tracer,
    hook: &mut Option<AnswerHook<'_>>,
    out: &mut PassOut,
) {
    let started = Instant::now();
    for step in &unit.steps {
        match step {
            Step::Query(text) => {
                let slot = out.slots.len();
                let span = tracer.begin("session/verify_text", Some(slot as u32));
                let start = Instant::now();
                let answer = session.verify_text(text).expect("generated queries parse");
                let latency = start.elapsed();
                tracer.end(span);
                if let Some(hook) = hook {
                    hook(slot, session.network(), text, &answer);
                }
                out.slots.push((latency, answer));
            }
            Step::Delta(delta) => {
                let span = tracer.begin("session/apply_delta", None);
                let start = Instant::now();
                let report = session.apply_delta(delta);
                let millis = millis(start.elapsed());
                tracer.end(span);
                assert!(report.applied, "generated deltas apply: {:?}", report.error);
                out.verdicts += report.reverified;
                out.deltas.push(DeltaOut {
                    millis,
                    invalidated: report.invalidated,
                    retained: report.retained,
                    reverified: report.reverified,
                    relinted: session.lint_last_relinted().map_or(0, <[_]>::len),
                });
            }
        }
    }
    out.wall += started.elapsed();
}

/// The stream pass: slot latency runs from the driver pulling the line
/// out of our iterator to the emit callback; every answer is serialised
/// into a sink the way a `--json` surface would.
fn stream_unit(
    session: &Session,
    unit: &Unit,
    tracer: &mut Tracer,
    hook: &mut Option<AnswerHook<'_>>,
    out: &mut PassOut,
) {
    let first_slot = out.slots.len();
    let lines: Vec<&str> = unit.slot_texts().collect();
    let pulled: Vec<AtomicU64> = lines.iter().map(|_| AtomicU64::new(0)).collect();
    let span = tracer.begin("stream/verify_stream", None);
    let start = Instant::now();
    let feed = lines.iter().enumerate().map(|(i, line)| {
        pulled[i].store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        line.to_string()
    });
    let mut sink = String::new();
    let mut emit_time = Duration::ZERO;
    let traced = tracer.enabled();
    let summary = session.verify_stream(
        feed,
        &StreamOptions::new().with_window(STREAM_WINDOW),
        &mut |event| {
            let StreamEvent::Answer {
                index,
                text,
                answer,
                ..
            } = event
            else {
                return;
            };
            let emit_start = traced.then(Instant::now);
            sink.push_str(&envelope("answer", &answer.stats.to_json()));
            sink.push('\n');
            let now = Instant::now();
            if let Some(emit_start) = emit_start {
                emit_time += now - emit_start;
            }
            let pulled_at = start + Duration::from_nanos(pulled[index].load(Ordering::Relaxed));
            if let Some(hook) = hook {
                hook(first_slot + index, session.network(), text, answer);
            }
            out.slots.push((now - pulled_at, answer.clone()));
        },
    );
    out.wall += start.elapsed();
    tracer.end(span);
    black_box(&sink);
    assert_eq!(summary.batch.total, lines.len(), "one answer per line");
    out.peak_in_flight = summary.peak_in_flight;
    out.emit += emit_time;
}

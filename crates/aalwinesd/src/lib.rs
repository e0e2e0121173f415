//! # aalwinesd — a resident what-if verification service
//!
//! A line-delimited-JSON daemon over a Unix domain socket that keeps
//! one dataplane loaded as an [`aalwines::Session`]: network
//! validation, query-independent precomputation, and the answer
//! cache all stay warm across requests, and dataplane deltas are
//! applied **incrementally** — only cached answers whose footprint
//! intersects the delta are invalidated, and changed answers to
//! subscribed queries are pushed to their clients.
//!
//! ## Wire protocol
//!
//! One JSON object per line in each direction. Requests carry a
//! `"verb"`; responses (and pushed updates) are versioned envelopes
//! `{"schemaVersion":1,"kind":...,"payload":...}`:
//!
//! | verb       | request fields                                  | response kind   |
//! |------------|-------------------------------------------------|-----------------|
//! | `load`     | `demo:true` \| `topology`,`routing`\[,`locations`,`repair`\] | `loaded` |
//! | `query`    | `query` (text)                                  | `answer`        |
//! | `batch`    | `queries` (array of texts)\[,`window`,`progressMillis`\] | `batch-answer`×N, then `batch-result` |
//! | `stats`    | —                                               | `session-stats` |
//! | `health`   | —                                               | `health`        |
//! | `subscribe`| `query` (text)                                  | `subscribed`    |
//! | `delta`    | `delta` (object, see [`parse_delta`])           | `delta-report`  |
//! | `lint`     | —                                               | `lint-report`   |
//! | `shutdown` | —                                               | `bye`           |
//!
//! After a `delta`, every subscriber whose watched query changed its
//! answer receives an unsolicited `"update"` envelope on its own
//! connection, and — when the re-lint changed the report or produced
//! delta-native findings — every subscriber receives a `"lint-update"`
//! envelope with the added/removed/delta findings. After a `load`, every subscriber receives
//! a `"reset"` envelope (its watch indices died with the old dataplane)
//! before the subscriber list is cleared. Malformed requests answer an
//! `"error"` envelope; the connection stays open.
//!
//! The lint report is resident: it is primed when a dataplane loads
//! (including journal replay, so a restarted daemon reconstructs the
//! same lint state) and every admitted delta re-lints the mutated
//! network cold with `dplint`.
//!
//! ## Robustness
//!
//! The daemon is built to survive crashes, restarts, and hostile
//! clients:
//!
//! * **Durability.** With [`Daemon::with_journal`] every state-changing
//!   op (`load`, admitted `delta`, `subscribe`) is appended to a
//!   checksummed write-ahead [`journal`] *before* it is applied; on
//!   startup the journal is replayed (truncating a torn tail) so a
//!   `kill -9` loses at most the record being written.
//! * **Admission control.** At most [`DaemonConfig::max_clients`]
//!   concurrent connections; excess connections get a `busy` envelope
//!   and are closed instead of queueing unboundedly. Frames are capped
//!   at [`DaemonConfig::max_frame_bytes`] and a frame that stays
//!   incomplete longer than [`DaemonConfig::read_timeout`] gets a
//!   structured `error` — a slow or oversized client costs one
//!   connection, never a wedged thread.
//! * **Graceful degradation.** When resident bytes exceed
//!   [`DaemonConfig::max_resident_bytes`], cached answers
//!   are shed LRU-first; if even that is not enough, new subscriptions
//!   are refused until memory recovers. A panicking request handler is
//!   caught per connection ([`std::panic::catch_unwind`]): the client
//!   gets an `error` and its connection closes, every other client —
//!   and the daemon — keeps running. The `health` verb reports uptime,
//!   journal state, replay cleanliness, pressure level, and last error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;

pub use journal::{Journal, JournalOp, Replay};

use aalwines::telemetry::{envelope, JsonObject, PressureState};
use aalwines::{Delta, Session, SessionBuilder, StreamEvent, StreamOptions};
use aalwines_suite::gui;
use formats::json::{parse as parse_json, Value};
use netmodel::{LabelId, LinkId, Network, Op, RoutingEntry};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Lock a mutex, recovering from poison: a panicking handler thread is
/// already degraded to an error response by the connection supervisor,
/// and every mutation under these locks is a complete operation, so the
/// data is structurally sound — sibling connections must keep serving
/// rather than panic in a chain.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Poison-tolerant read lock (see [`lock`]).
fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Poison-tolerant write lock (see [`lock`]).
fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// A shared, interleaving-safe handle to one client's write side.
/// Responses and pushed updates both go through it, so a subscriber
/// never sees a torn line.
pub type Peer = Arc<Mutex<Box<dyn Write + Send>>>;

/// Wrap a writer as a [`Peer`].
pub fn peer_of(w: impl Write + Send + 'static) -> Peer {
    Arc::new(Mutex::new(Box::new(w)))
}

/// Daemon configuration (session shape plus service limits; the
/// dataplane itself arrives via `load` or [`Daemon::preload`]).
#[derive(Clone, Copy, Debug)]
pub struct DaemonConfig {
    /// Worker threads for `batch` requests.
    pub threads: usize,
    /// Answer-cache capacity in entries (0 disables caching).
    pub cache_size: usize,
    /// Maximum concurrent client connections; further connections are
    /// shed with a `busy` envelope instead of queueing.
    pub max_clients: usize,
    /// Maximum bytes of one NDJSON request frame; an oversized frame
    /// answers a structured `error` and closes the connection.
    pub max_frame_bytes: usize,
    /// How long a *started* frame may stay incomplete before the
    /// connection is treated as stalled and closed with an `error`. An
    /// idle connection (no pending bytes, e.g. a subscriber waiting for
    /// pushes) is never timed out.
    pub read_timeout: Duration,
    /// Resident-memory budget in bytes (0 = unbounded). Past it, cache
    /// entries are shed LRU-first; if the budget still cannot be met,
    /// new subscriptions are refused until memory recovers.
    pub max_resident_bytes: usize,
    /// Enable test-only verbs (`debug-panic`) used to exercise the
    /// per-connection panic supervisor. Never enable in production.
    pub debug_verbs: bool,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            threads: 1,
            cache_size: aalwines::DEFAULT_CACHE_SIZE,
            max_clients: DEFAULT_MAX_CLIENTS,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            read_timeout: DEFAULT_READ_TIMEOUT,
            max_resident_bytes: 0,
            debug_verbs: false,
        }
    }
}

/// Default concurrent-connection cap.
pub const DEFAULT_MAX_CLIENTS: usize = 64;
/// Default request-frame size cap (256 KiB — far above any legitimate
/// batch request, far below a memory-exhaustion payload).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 256 * 1024;
/// Default stalled-frame timeout.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// How the daemon recovered its state from a journal at startup; part
/// of the `health` payload.
#[derive(Clone, Debug, Default)]
pub struct ReplayStatus {
    /// Whether a journal is attached at all.
    pub enabled: bool,
    /// Intact records replayed at startup.
    pub records: u64,
    /// Bytes truncated off a torn tail at startup.
    pub truncated_bytes: u64,
    /// Whole records dropped by the truncation (>1 implies corruption
    /// beyond an ordinary crash tear).
    pub dropped_records: u64,
    /// Whether the replay was clean: every intact record re-applied
    /// successfully and at most one in-flight record was lost.
    pub clean: bool,
    /// First error hit while re-applying records, if any.
    pub error: Option<String>,
}

impl ReplayStatus {
    fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.number("records", self.records as f64);
        o.number("truncatedBytes", self.truncated_bytes as f64);
        o.number("droppedRecords", self.dropped_records as f64);
        o.boolean("clean", self.clean);
        match &self.error {
            Some(e) => o.string("error", e),
            None => o.null("error"),
        }
        o.finish()
    }
}

/// One subscriber: the watch index inside the session and the
/// connection to push updates to.
struct Subscriber {
    index: usize,
    peer: Peer,
}

struct Shared {
    config: DaemonConfig,
    /// `None` until a dataplane is loaded. Queries take the read lock;
    /// `load`, `subscribe`, and `delta` take the write lock.
    session: RwLock<Option<Session>>,
    subscribers: Mutex<Vec<Subscriber>>,
    shutdown: AtomicBool,
    /// Socket path while serving (used to self-connect on shutdown so
    /// the accept loop wakes up).
    socket: Mutex<Option<PathBuf>>,
    /// When the daemon came up (for `health` uptime).
    started: Instant,
    /// Write-ahead journal, if durability is enabled. Appended to while
    /// holding the session write lock, so journal order equals state
    /// order.
    journal: Mutex<Option<Journal>>,
    /// How startup replay went (static after construction).
    replay: Mutex<ReplayStatus>,
    /// Currently connected clients (admission control).
    active_clients: AtomicUsize,
    /// Current [`PressureState`], encoded via `as_u8`.
    pressure: AtomicU8,
    /// Times the memory budget forced cache shedding.
    shed_events: AtomicUsize,
    /// State-changing ops applied but *not* journaled because an append
    /// failed — a nonzero lag means a restart would lose them.
    journal_lag: AtomicUsize,
    /// Most recent internal error (journal failure, handler panic).
    last_error: Mutex<Option<String>>,
}

/// The resident verification service. See the [module docs](self).
#[derive(Clone)]
pub struct Daemon {
    shared: Arc<Shared>,
}

/// Envelope of kind `error` with a message payload.
fn error_envelope(message: &str) -> String {
    let mut o = JsonObject::new();
    o.string("message", message);
    envelope("error", &o.finish())
}

/// Resolve a link given as a dense index or as the topology's
/// `src.if->dst.if` name.
fn resolve_link(net: &Network, v: &Value) -> Result<LinkId, String> {
    if let Some(n) = v.as_f64() {
        let idx = n as usize;
        if idx < net.topology.num_links() as usize {
            return Ok(LinkId(idx as u32));
        }
        return Err(format!("link index {idx} out of range"));
    }
    if let Some(name) = v.as_str() {
        for l in 0..net.topology.num_links() {
            let id = LinkId(l);
            if net.topology.link_name(id) == name {
                return Ok(id);
            }
        }
        return Err(format!("no link named '{name}'"));
    }
    Err("link must be an index or a name".to_string())
}

/// Resolve a label given as a dense index or an interned name.
fn resolve_label(net: &Network, v: &Value) -> Result<LabelId, String> {
    if let Some(n) = v.as_f64() {
        let idx = n as usize;
        if idx < net.labels.len() {
            return Ok(LabelId(idx as u32));
        }
        return Err(format!("label index {idx} out of range"));
    }
    if let Some(name) = v.as_str() {
        return net
            .labels
            .get(name)
            .ok_or_else(|| format!("no label named '{name}'"));
    }
    Err("label must be an index or a name".to_string())
}

/// Parse the `ops` array of a rule delta: `"pop"`, `{"swap":label}`,
/// `{"push":label}`.
fn parse_ops(net: &Network, v: Option<&Value>) -> Result<Vec<Op>, String> {
    let Some(v) = v else {
        return Ok(Vec::new());
    };
    let Value::Array(items) = v else {
        return Err("ops must be an array".to_string());
    };
    let mut ops = Vec::with_capacity(items.len());
    for item in items {
        if item.as_str() == Some("pop") {
            ops.push(Op::Pop);
        } else if let Some(l) = item.get("swap") {
            ops.push(Op::Swap(resolve_label(net, l)?));
        } else if let Some(l) = item.get("push") {
            ops.push(Op::Push(resolve_label(net, l)?));
        } else {
            return Err(format!("unknown op {}", item.to_json()));
        }
    }
    Ok(ops)
}

/// Parse a delta object against the loaded network. Links and labels
/// may be given as dense indices or names; see the module docs for the
/// verb table and [`Delta`] for the semantics of each kind.
pub fn parse_delta(net: &Network, v: &Value) -> Result<Delta, String> {
    let kind = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("delta needs a string 'kind'")?;
    let field = |k: &str| v.get(k).ok_or(format!("delta '{kind}' needs '{k}'"));
    let number = |k: &str| -> Result<usize, String> {
        field(k)?
            .as_f64()
            .map(|n| n as usize)
            .ok_or(format!("'{k}' must be a number"))
    };
    match kind {
        "link-down" => Ok(Delta::LinkDown(resolve_link(net, field("link")?)?)),
        "link-up" => Ok(Delta::LinkUp(resolve_link(net, field("link")?)?)),
        "set-priority" => Ok(Delta::SetPriority {
            in_link: resolve_link(net, field("inLink")?)?,
            label: resolve_label(net, field("label")?)?,
            from: number("from")?,
            to: number("to")?,
        }),
        "add-rule" | "remove-rule" => {
            let in_link = resolve_link(net, field("inLink")?)?;
            let label = resolve_label(net, field("label")?)?;
            let priority = number("priority")?;
            let entry = RoutingEntry {
                out: resolve_link(net, field("out")?)?,
                ops: parse_ops(net, v.get("ops"))?.into(),
            };
            Ok(if kind == "add-rule" {
                Delta::AddRule {
                    in_link,
                    label,
                    priority,
                    entry,
                }
            } else {
                Delta::RemoveRule {
                    in_link,
                    label,
                    priority,
                    entry,
                }
            })
        }
        other => Err(format!("unknown delta kind '{other}'")),
    }
}

/// Build a [`Network`] from a canonical load-spec object
/// (`{"demo":true}` or `{"topology":..,"routing":..[,"locations":..]
/// [,"repair":..]}`) — the shape `load` requests are normalized to and
/// the journal records.
fn load_from_spec(spec: &Value) -> Result<Network, String> {
    if spec.get("demo").map(|v| v == &Value::Bool(true)) == Some(true) {
        return Ok(aalwines::examples::paper_network());
    }
    let path_field = |k: &str| -> Result<String, String> {
        match spec.get(k) {
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .ok_or(format!("'{k}' must be a path string")),
            None => Err(format!("load needs 'demo':true or '{k}'")),
        }
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let topo = read(&path_field("topology")?)?;
    let routes = read(&path_field("routing")?)?;
    let locations = match spec.get("locations").and_then(Value::as_str) {
        Some(p) => Some(read(p)?),
        None => None,
    };
    let repair = spec.get("repair") == Some(&Value::Bool(true));
    aalwines_suite::load_dataplane(&topo, &routes, locations.as_deref(), repair)
        .map_err(|e| e.to_string())
}

/// Normalize a `load` request into the canonical spec object recorded
/// in the journal (paths and flags only — never file contents).
fn load_spec_of(request: &Value) -> String {
    let mut o = JsonObject::new();
    if request.get("demo").map(|v| v == &Value::Bool(true)) == Some(true) {
        o.boolean("demo", true);
        return o.finish();
    }
    for k in ["topology", "routing", "locations"] {
        if let Some(p) = request.get(k).and_then(Value::as_str) {
            o.string(k, p);
        }
    }
    if request.get("repair") == Some(&Value::Bool(true)) {
        o.boolean("repair", true);
    }
    o.finish()
}

impl Daemon {
    /// A daemon with no dataplane loaded yet (and no journal: state
    /// dies with the process).
    pub fn new(config: DaemonConfig) -> Self {
        Daemon {
            shared: Arc::new(Shared {
                config,
                session: RwLock::new(None),
                subscribers: Mutex::new(Vec::new()),
                shutdown: AtomicBool::new(false),
                socket: Mutex::new(None),
                started: Instant::now(),
                journal: Mutex::new(None),
                replay: Mutex::new(ReplayStatus::default()),
                active_clients: AtomicUsize::new(0),
                pressure: AtomicU8::new(PressureState::Normal.as_u8()),
                shed_events: AtomicUsize::new(0),
                journal_lag: AtomicUsize::new(0),
                last_error: Mutex::new(None),
            }),
        }
    }

    /// A durable daemon: open (creating if absent) the write-ahead
    /// journal at `path`, replay any records it holds — truncating a
    /// torn tail from a previous crash — and reconstruct the session
    /// they describe: the loaded dataplane, every applied delta, and
    /// the watched queries. Subsequent state-changing requests are
    /// journaled before they are applied.
    pub fn with_journal(config: DaemonConfig, path: &Path) -> std::io::Result<Daemon> {
        let (journal, replay) = Journal::open(path)?;
        let daemon = Daemon::new(config);
        let mut status = ReplayStatus {
            enabled: true,
            records: replay.records,
            truncated_bytes: replay.truncated_bytes,
            dropped_records: replay.dropped_records,
            clean: replay.clean,
            error: None,
        };
        let fail = |status: &mut ReplayStatus, msg: String| {
            status.clean = false;
            if status.error.is_none() {
                status.error = Some(msg);
            }
        };

        let mut session: Option<Session> = None;
        // Re-subscribing after every reconnect appends a fresh record,
        // so dedupe watches by text during replay to keep the watched
        // set (and re-verification work) bounded across restarts.
        let mut watched: Vec<String> = Vec::new();
        for op in &replay.ops {
            match op {
                JournalOp::Load { spec } => {
                    let loaded = parse_json(spec)
                        .map_err(|e| e.to_string())
                        .and_then(|v| load_from_spec(&v));
                    match loaded {
                        Ok(net) => {
                            session = Some(daemon.build_session(net));
                            watched.clear();
                        }
                        Err(e) => fail(&mut status, format!("replaying load: {e}")),
                    }
                }
                JournalOp::Delta { delta } => match session.as_mut() {
                    Some(s) => {
                        let parsed = parse_json(delta)
                            .map_err(|e| e.to_string())
                            .and_then(|v| parse_delta(s.network(), &v));
                        match parsed {
                            Ok(d) => {
                                s.apply_delta(&d);
                            }
                            Err(e) => fail(&mut status, format!("replaying delta: {e}")),
                        }
                    }
                    None => fail(&mut status, "journaled delta precedes any load".to_string()),
                },
                JournalOp::Subscribe { query } => {
                    if let Some(s) = session.as_mut() {
                        if !watched.iter().any(|w| w == query) {
                            match s.watch(query) {
                                Ok(_) => watched.push(query.clone()),
                                Err(e) => fail(&mut status, format!("replaying subscribe: {e}")),
                            }
                        }
                    }
                }
            }
        }
        if let Some(s) = &session {
            daemon.enforce_budget(s);
        }
        *write_lock(&daemon.shared.session) = session;
        *lock(&daemon.shared.journal) = Some(journal);
        *lock(&daemon.shared.replay) = status;
        Ok(daemon)
    }

    /// Whether a dataplane is currently loaded (e.g. restored by
    /// journal replay).
    pub fn is_loaded(&self) -> bool {
        read_lock(&self.shared.session).is_some()
    }

    /// How startup journal replay went.
    pub fn replay_status(&self) -> ReplayStatus {
        lock(&self.shared.replay).clone()
    }

    /// Install an already-loaded dataplane (the `--demo` /
    /// `--topology` CLI path), replacing any current session.
    pub fn preload(&self, net: Network) {
        self.preload_with_spec(net, None);
    }

    /// Like [`Daemon::preload`], and — when `spec` is given and a
    /// journal is attached — record the load so a restart replays it.
    pub fn preload_with_spec(&self, net: Network, spec: Option<&str>) {
        let session = self.build_session(net);
        let mut guard = write_lock(&self.shared.session);
        if let Some(spec) = spec {
            self.journal_append(JournalOp::Load {
                spec: spec.to_string(),
            });
        }
        self.enforce_budget(&session);
        *guard = Some(session);
    }

    fn build_session(&self, net: Network) -> Session {
        let mut session = SessionBuilder::new()
            .threads(self.shared.config.threads)
            .cache_size(self.shared.config.cache_size)
            .open(net);
        // Prime the resident lint state with the freshly loaded
        // dataplane: every delta re-lints from here on, and —
        // because every path to a session goes through this
        // constructor — journal replay reconstructs the same lint
        // state a crashed daemon had (the resident report is a pure
        // function of the current network and watched queries).
        session.lint();
        session
    }

    /// Whether `shutdown` has been requested.
    pub fn is_shut_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Handle one request line on behalf of `peer`, returning the
    /// response envelope (without trailing newline). Pushed updates to
    /// other subscribers are written as a side effect.
    pub fn handle(&self, line: &str, peer: &Peer) -> String {
        let request = match parse_json(line) {
            Ok(v) => v,
            Err(e) => return error_envelope(&format!("bad request JSON: {e}")),
        };
        let Some(verb) = request.get("verb").and_then(Value::as_str) else {
            return error_envelope("request needs a string 'verb'");
        };
        match verb {
            "load" => self.handle_load(&request),
            "query" => self.handle_query(&request),
            "batch" => self.handle_batch(&request, peer),
            "stats" => self.handle_stats(),
            "health" => self.handle_health(),
            "subscribe" => self.handle_subscribe(&request, peer),
            "delta" => self.handle_delta(&request),
            "lint" => self.handle_lint(),
            "shutdown" => self.handle_shutdown(peer),
            "debug-panic" if self.shared.config.debug_verbs => {
                panic!("debug-panic requested by client")
            }
            other => error_envelope(&format!("unknown verb '{other}'")),
        }
    }

    fn handle_load(&self, request: &Value) -> String {
        let spec_text = load_spec_of(request);
        let spec = match parse_json(&spec_text) {
            Ok(v) => v,
            Err(e) => return error_envelope(&format!("bad load spec: {e}")),
        };
        let net = match load_from_spec(&spec) {
            Ok(net) => net,
            Err(e) => return error_envelope(&e),
        };
        let session = self.build_session(net);
        let stats = session.stats();
        let mut guard = write_lock(&self.shared.session);
        self.journal_append(JournalOp::Load { spec: spec_text });
        self.enforce_budget(&session);
        *guard = Some(session);
        // Watch indices of the previous dataplane are meaningless now —
        // tell each subscriber so, before forgetting it, while still
        // holding the session lock (a racing `subscribe` against the new
        // dataplane must not be swept up in the clear).
        let reset = {
            let mut o = JsonObject::new();
            o.string(
                "reason",
                "dataplane reloaded; watches cleared, re-subscribe to resume updates",
            );
            envelope("reset", &o.finish())
        };
        let mut subs = lock(&self.shared.subscribers);
        for sub in subs.iter() {
            let mut w = lock(&sub.peer);
            let _ = writeln!(w, "{reset}");
            let _ = w.flush();
        }
        subs.clear();
        envelope("loaded", &stats.to_json())
    }

    /// Run `f` under the session read lock, or answer `error` when no
    /// dataplane is loaded.
    fn with_session(&self, f: impl FnOnce(&Session) -> String) -> String {
        match read_lock(&self.shared.session).as_ref() {
            Some(session) => f(session),
            None => error_envelope("no dataplane loaded (send 'load' first)"),
        }
    }

    fn handle_query(&self, request: &Value) -> String {
        let Some(text) = request.get("query").and_then(Value::as_str) else {
            return error_envelope("query needs a string 'query'");
        };
        self.with_session(|session| match session.verify_text(text) {
            Ok(answer) => envelope(
                "answer",
                &gui::answer_to_json(session.network(), text, &answer).to_json(),
            ),
            Err(e) => error_envelope(&format!("parse error: {e}")),
        })
    }

    fn handle_batch(&self, request: &Value, peer: &Peer) -> String {
        let Some(Value::Array(items)) = request.get("queries") else {
            return error_envelope("batch needs an array 'queries'");
        };
        let mut texts = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            match item.as_str() {
                Some(t) => texts.push(t.to_string()),
                None => return error_envelope(&format!("queries[{i}] is not a string")),
            }
        }
        let mut stream = StreamOptions::new();
        if let Some(w) = request.get("window").and_then(Value::as_f64) {
            stream = stream.with_window(w as usize);
        }
        if let Some(ms) = request.get("progressMillis").and_then(Value::as_f64) {
            stream = stream.with_progress_interval(Duration::from_millis(ms as u64));
        }
        self.with_session(|session| {
            // Answers stream to the requesting peer as `batch-answer`
            // envelopes in input order (plus `batch-progress` ticks when
            // requested); only the aggregate summary is held — and
            // returned as the final `batch-result`. A malformed query
            // becomes a per-answer parse error instead of rejecting the
            // whole batch.
            let summary = session.verify_stream(texts.into_iter(), &stream, &mut |ev| {
                let line = match ev {
                    StreamEvent::Answer {
                        index,
                        text,
                        answer,
                        parse_error,
                    } => {
                        let mut o = JsonObject::new();
                        o.number("index", index as f64);
                        o.boolean("parseError", parse_error);
                        o.raw(
                            "answer",
                            &gui::answer_to_json(session.network(), text, answer).to_json(),
                        );
                        envelope("batch-answer", &o.finish())
                    }
                    StreamEvent::Progress(p) => envelope("batch-progress", &p.to_json()),
                };
                let mut w = lock(peer);
                let _ = writeln!(w, "{line}");
                let _ = w.flush();
            });
            envelope("batch-result", &summary.to_json())
        })
    }

    fn handle_stats(&self) -> String {
        self.with_session(|session| envelope("session-stats", &session.stats().to_json()))
    }

    /// Current pressure level (set by [`Daemon::enforce_budget`]).
    fn pressure(&self) -> PressureState {
        PressureState::from_u8(self.shared.pressure.load(Ordering::Relaxed))
    }

    fn set_pressure(&self, p: PressureState) {
        self.shared.pressure.store(p.as_u8(), Ordering::Relaxed);
    }

    /// Enforce the resident-memory budget on `session`: shed
    /// cached answers LRU-first when over it, and — when
    /// even an empty cache cannot meet the budget — raise the pressure
    /// to `Refusing` so new subscriptions are turned away until memory
    /// recovers. No-op when the budget is 0 (unbounded).
    fn enforce_budget(&self, session: &Session) {
        let budget = self.shared.config.max_resident_bytes;
        if budget == 0 {
            return;
        }
        if session.bytes_resident() <= budget {
            self.set_pressure(PressureState::Normal);
            return;
        }
        if session.shed_cache_to(budget) > 0 {
            self.shared.shed_events.fetch_add(1, Ordering::Relaxed);
        }
        if session.bytes_resident() <= budget {
            self.set_pressure(PressureState::Shedding);
        } else {
            self.set_pressure(PressureState::Refusing);
        }
    }

    /// Append `op` to the journal, if one is attached. Callers hold the
    /// session write lock, so journal order equals state-mutation
    /// order. An append failure must not take the daemon down: the op
    /// proceeds in memory and the failure surfaces as journal lag (and
    /// `lastError`) in `health`.
    fn journal_append(&self, op: JournalOp) {
        let mut guard = lock(&self.shared.journal);
        let Some(journal) = guard.as_mut() else {
            return;
        };
        if let Err(e) = journal.append(&op) {
            self.shared.journal_lag.fetch_add(1, Ordering::Relaxed);
            self.record_error(&format!("journal append failed: {e}"));
        }
    }

    fn record_error(&self, msg: &str) {
        *lock(&self.shared.last_error) = Some(msg.to_string());
    }

    fn handle_health(&self) -> String {
        let mut o = JsonObject::new();
        o.number("uptimeMs", self.shared.started.elapsed().as_millis() as f64);
        let (resident, lint_millis) = match read_lock(&self.shared.session).as_ref() {
            Some(s) => (Some(s.bytes_resident()), s.stats().lint_millis),
            None => (None, 0.0),
        };
        o.boolean("loaded", resident.is_some());
        o.number("residentBytes", resident.unwrap_or(0) as f64);
        o.number("lintMillis", lint_millis);
        o.number(
            "maxResidentBytes",
            self.shared.config.max_resident_bytes as f64,
        );
        o.string("pressure", self.pressure().as_str());
        o.number(
            "shedEvents",
            self.shared.shed_events.load(Ordering::Relaxed) as f64,
        );
        o.number(
            "activeClients",
            self.shared.active_clients.load(Ordering::Relaxed) as f64,
        );
        o.number("subscribers", lock(&self.shared.subscribers).len() as f64);
        {
            let journal = lock(&self.shared.journal);
            let mut j = JsonObject::new();
            j.boolean("enabled", journal.is_some());
            if let Some(journal) = journal.as_ref() {
                j.string("path", &journal.path().display().to_string());
                j.number("records", journal.records() as f64);
            }
            j.number(
                "lagRecords",
                self.shared.journal_lag.load(Ordering::Relaxed) as f64,
            );
            o.raw("journal", &j.finish());
        }
        {
            let replay = lock(&self.shared.replay);
            if replay.enabled {
                o.raw("replay", &replay.to_json());
            } else {
                o.null("replay");
            }
        }
        match lock(&self.shared.last_error).as_deref() {
            Some(e) => o.string("lastError", e),
            None => o.null("lastError"),
        }
        envelope("health", &o.finish())
    }

    fn handle_subscribe(&self, request: &Value, peer: &Peer) -> String {
        let Some(text) = request.get("query").and_then(Value::as_str) else {
            return error_envelope("subscribe needs a string 'query'");
        };
        let mut guard = write_lock(&self.shared.session);
        let Some(session) = guard.as_mut() else {
            return error_envelope("no dataplane loaded (send 'load' first)");
        };
        if self.pressure() == PressureState::Refusing {
            return error_envelope(
                "over the resident-memory budget: refusing new subscriptions until memory recovers",
            );
        }
        match session.watch(text) {
            Ok((index, answer)) => {
                self.journal_append(JournalOp::Subscribe {
                    query: text.to_string(),
                });
                lock(&self.shared.subscribers).push(Subscriber {
                    index,
                    peer: Arc::clone(peer),
                });
                let mut o = JsonObject::new();
                o.number("index", index as f64);
                o.raw(
                    "answer",
                    &gui::answer_to_json(session.network(), text, &answer).to_json(),
                );
                let response = envelope("subscribed", &o.finish());
                self.enforce_budget(session);
                response
            }
            Err(e) => error_envelope(&format!("parse error: {e}")),
        }
    }

    /// Serialize a slice of lint findings as a JSON array.
    fn findings_json(findings: &[dplint::LintFinding]) -> String {
        let items: Vec<String> = findings.iter().map(|f| f.to_json()).collect();
        format!("[{}]", items.join(","))
    }

    fn handle_lint(&self) -> String {
        // `Session::lint` is `&mut` (it accounts lint time into the
        // session's telemetry), so this takes the write lock like
        // `delta` does.
        let mut guard = write_lock(&self.shared.session);
        let Some(session) = guard.as_mut() else {
            return error_envelope("no dataplane loaded (send 'load' first)");
        };
        let outcome = session.lint();
        let mut o = JsonObject::new();
        o.raw("report", &outcome.report.to_json());
        o.raw("stats", &outcome.stats.to_json());
        envelope("lint-report", &o.finish())
    }

    fn handle_delta(&self, request: &Value) -> String {
        let Some(spec) = request.get("delta") else {
            return error_envelope("delta needs an object 'delta'");
        };
        let mut guard = write_lock(&self.shared.session);
        let Some(session) = guard.as_mut() else {
            return error_envelope("no dataplane loaded (send 'load' first)");
        };
        let delta = match parse_delta(session.network(), spec) {
            Ok(d) => d,
            Err(e) => return error_envelope(&e),
        };
        // Write-ahead: journal the canonical form before mutating, so a
        // crash between the two replays the delta rather than losing it.
        self.journal_append(JournalOp::Delta {
            delta: delta.to_json(),
        });
        let report = session.apply_delta(&delta);
        // Push changed answers to the affected subscribers while still
        // holding the session lock, so a concurrent delta cannot
        // reorder updates.
        for changed in &report.changed {
            let mut o = JsonObject::new();
            o.number("index", changed.index as f64);
            o.string("query", &changed.query);
            o.raw(
                "answer",
                &gui::answer_to_json(session.network(), &changed.query, &changed.answer).to_json(),
            );
            let update = envelope("update", &o.finish());
            let subscribers = lock(&self.shared.subscribers);
            for sub in subscribers.iter().filter(|s| s.index == changed.index) {
                let mut w = lock(&sub.peer);
                // A dead subscriber is dropped on its own thread's exit;
                // ignore its broken pipe here.
                let _ = writeln!(w, "{update}");
                let _ = w.flush();
            }
        }
        // The lint report is session-global, so a changed report (or a
        // delta-native finding) is pushed to *every* subscriber — not
        // just those whose verification answer changed.
        if let Some(lint) = &report.lint {
            if lint.changed() > 0 || !lint.delta_findings.is_empty() {
                let mut o = JsonObject::new();
                o.string("delta", delta.kind());
                o.raw("added", &Self::findings_json(&lint.added));
                o.raw("removed", &Self::findings_json(&lint.removed));
                o.raw("deltaFindings", &Self::findings_json(&lint.delta_findings));
                let update = envelope("lint-update", &o.finish());
                let subscribers = lock(&self.shared.subscribers);
                for sub in subscribers.iter() {
                    let mut w = lock(&sub.peer);
                    let _ = writeln!(w, "{update}");
                    let _ = w.flush();
                }
            }
        }
        let mut o = JsonObject::new();
        o.string("delta", delta.kind());
        o.raw("report", &report.to_json());
        let response = envelope("delta-report", &o.finish());
        self.enforce_budget(session);
        response
    }

    fn handle_shutdown(&self, peer: &Peer) -> String {
        // Deliver the farewell *before* raising the shutdown flag:
        // once the flag is up the accept loop (and, in the binary, the
        // whole process) may exit ahead of a response queued the normal
        // way, closing the connection with no `bye` on it.
        {
            let mut w = lock(peer);
            let _ = writeln!(w, "{}", envelope("bye", "{}"));
            let _ = w.flush();
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection.
        if let Some(path) = lock(&self.shared.socket).clone() {
            let _ = UnixStream::connect(path);
        }
        String::new()
    }

    /// Drop subscriber registrations pushing to `peer` (its client
    /// disconnected).
    fn drop_peer(&self, peer: &Peer) {
        lock(&self.shared.subscribers).retain(|s| !Arc::ptr_eq(&s.peer, peer));
    }

    /// Serve clients on a Unix domain socket at `path` until a
    /// `shutdown` request arrives. A stale socket file at `path` is
    /// removed first; the file is removed again on exit.
    ///
    /// Admission control: with [`DaemonConfig::max_clients`] clients
    /// already connected, a new connection is answered a single `busy`
    /// envelope and closed — overload sheds load instead of queueing
    /// threads without bound.
    pub fn serve(&self, path: &Path) -> std::io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        *lock(&self.shared.socket) = Some(path.to_path_buf());
        for stream in listener.incoming() {
            if self.is_shut_down() {
                break;
            }
            let mut stream = stream?;
            let admitted = self.shared.active_clients.load(Ordering::SeqCst)
                < self.shared.config.max_clients.max(1);
            if !admitted {
                let mut o = JsonObject::new();
                o.string("message", "server at capacity; retry later");
                o.number("maxClients", self.shared.config.max_clients as f64);
                let _ = writeln!(stream, "{}", envelope("busy", &o.finish()));
                let _ = stream.flush();
                continue; // dropping the stream closes it
            }
            self.shared.active_clients.fetch_add(1, Ordering::SeqCst);
            let daemon = self.clone();
            std::thread::spawn(move || {
                daemon.serve_client(stream);
                daemon.shared.active_clients.fetch_sub(1, Ordering::SeqCst);
            });
        }
        *lock(&self.shared.socket) = None;
        let _ = std::fs::remove_file(path);
        Ok(())
    }

    fn serve_client(&self, stream: UnixStream) {
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        // Short socket timeout as a poll tick: lets a started frame
        // observe its deadline and an idle connection notice shutdown.
        let tick = self
            .shared
            .config
            .read_timeout
            .min(Duration::from_millis(200))
            .max(Duration::from_millis(10));
        let _ = stream.set_read_timeout(Some(tick));
        let peer = peer_of(write_half);
        let mut reader = BufReader::new(stream);
        loop {
            let line = match self.read_frame(&mut reader) {
                Frame::Line(line) => line,
                Frame::Closed | Frame::Shutdown => break,
                Frame::TooLarge => {
                    let msg = format!(
                        "request frame exceeds {} bytes; closing connection",
                        self.shared.config.max_frame_bytes
                    );
                    let mut w = lock(&peer);
                    let _ = writeln!(w, "{}", error_envelope(&msg));
                    let _ = w.flush();
                    break;
                }
                Frame::Stalled => {
                    let msg = format!(
                        "request frame stalled for over {:?}; closing connection",
                        self.shared.config.read_timeout
                    );
                    let mut w = lock(&peer);
                    let _ = writeln!(w, "{}", error_envelope(&msg));
                    let _ = w.flush();
                    break;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            // Per-connection supervisor: a panicking handler costs this
            // client an error and its connection — never the daemon.
            let (response, fatal) =
                match catch_unwind(AssertUnwindSafe(|| self.handle(&line, &peer))) {
                    Ok(response) => (response, false),
                    Err(panic) => {
                        let text = panic_text(panic.as_ref());
                        self.record_error(&format!("request handler panicked: {text}"));
                        (
                            error_envelope(&format!(
                                "internal error: request handler panicked: {text}"
                            )),
                            true,
                        )
                    }
                };
            // An empty response means the handler already wrote to the
            // peer itself (the shutdown farewell).
            if !response.is_empty() {
                let mut w = lock(&peer);
                if writeln!(w, "{response}").is_err() || w.flush().is_err() {
                    break;
                }
            }
            if fatal || self.is_shut_down() {
                break;
            }
        }
        self.drop_peer(&peer);
    }

    /// Read one newline-terminated frame, enforcing the frame-size cap
    /// and the stalled-frame deadline. The deadline arms only once the
    /// first byte of a frame arrives, so an idle connection (e.g. a
    /// subscriber waiting for pushes) can sit quiet forever.
    fn read_frame(&self, reader: &mut BufReader<UnixStream>) -> Frame {
        let max = self.shared.config.max_frame_bytes.max(1);
        let mut buf: Vec<u8> = Vec::new();
        let mut started: Option<Instant> = None;
        loop {
            let chunk = match reader.fill_buf() {
                Ok(c) => c,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    if self.is_shut_down() {
                        return Frame::Shutdown;
                    }
                    if let Some(t0) = started {
                        if t0.elapsed() >= self.shared.config.read_timeout {
                            return Frame::Stalled;
                        }
                    }
                    continue;
                }
                Err(_) => return Frame::Closed,
            };
            if chunk.is_empty() {
                return Frame::Closed; // EOF
            }
            if started.is_none() {
                started = Some(Instant::now());
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    buf.extend_from_slice(&chunk[..pos]);
                    reader.consume(pos + 1);
                    if buf.len() > max {
                        return Frame::TooLarge;
                    }
                    // Lossy decoding turns invalid UTF-8 into a frame
                    // the JSON parser rejects with a structured error.
                    return Frame::Line(String::from_utf8_lossy(&buf).into_owned());
                }
                None => {
                    let len = chunk.len();
                    buf.extend_from_slice(chunk);
                    reader.consume(len);
                    if buf.len() > max {
                        return Frame::TooLarge;
                    }
                }
            }
        }
    }
}

/// Outcome of reading one request frame off a client connection.
enum Frame {
    /// A complete newline-terminated frame (newline stripped).
    Line(String),
    /// EOF or a hard I/O error: the client is gone.
    Closed,
    /// The frame exceeded [`DaemonConfig::max_frame_bytes`].
    TooLarge,
    /// A started frame sat incomplete past [`DaemonConfig::read_timeout`].
    Stalled,
    /// The daemon is shutting down.
    Shutdown,
}

/// Best-effort text of a caught panic payload.
fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory peer for socket-free protocol tests.
    fn sink() -> Peer {
        peer_of(Vec::new())
    }

    fn demo_daemon() -> Daemon {
        let d = Daemon::new(DaemonConfig::default());
        d.preload(aalwines::examples::paper_network());
        d
    }

    fn kind_of(envelope: &str) -> String {
        parse_json(envelope)
            .unwrap()
            .get("kind")
            .and_then(Value::as_str)
            .unwrap()
            .to_string()
    }

    #[test]
    fn envelopes_are_versioned_and_kinded() {
        let d = demo_daemon();
        let resp = d.handle(r#"{"verb":"stats"}"#, &sink());
        let v = parse_json(&resp).unwrap();
        assert_eq!(v.get("schemaVersion").and_then(Value::as_f64), Some(1.0));
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("session-stats"));
        assert!(v.get("payload").is_some());
    }

    #[test]
    fn query_answers_against_resident_session() {
        let d = demo_daemon();
        let resp = d.handle(
            r#"{"verb":"query","query":"<ip> [.#v0] .* [v3#.] <ip> 0"}"#,
            &sink(),
        );
        let v = parse_json(&resp).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("answer"));
        let result = v
            .get("payload")
            .and_then(|p| p.get("result"))
            .and_then(Value::as_str);
        assert_eq!(result, Some("satisfied"));
    }

    #[test]
    fn unloaded_daemon_answers_errors_not_panics() {
        let d = Daemon::new(DaemonConfig::default());
        for req in [
            r#"{"verb":"query","query":"<ip> .* <ip> 0"}"#,
            r#"{"verb":"stats"}"#,
            r#"{"verb":"delta","delta":{"kind":"link-down","link":0}}"#,
        ] {
            assert_eq!(kind_of(&d.handle(req, &sink())), "error");
        }
    }

    #[test]
    fn malformed_requests_answer_error() {
        let d = demo_daemon();
        for req in [
            "not json",
            r#"{"no":"verb"}"#,
            r#"{"verb":"frobnicate"}"#,
            r#"{"verb":"delta","delta":{"kind":"link-down","link":"nonexistent"}}"#,
            r#"{"verb":"batch","queries":"not-an-array"}"#,
        ] {
            assert_eq!(kind_of(&d.handle(req, &sink())), "error", "{req}");
        }
    }

    #[test]
    fn batch_streams_per_answer_envelopes() {
        let d = demo_daemon();
        let capture = Capture::default();
        let peer: Peer = peer_of(capture.clone());
        let resp = d.handle(
            r#"{"verb":"batch","queries":["<ip> [.#v0] .* [v3#.] <ip> 0","definitely not a query","<ip> [.#v3] .* [v0#.] <ip> 2"],"progressMillis":0}"#,
            &peer,
        );
        // The final response is the summary only; answers arrived as
        // pushed `batch-answer` envelopes in input order.
        let v = parse_json(&resp).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("batch-result"));
        let payload = v.get("payload").unwrap();
        assert_eq!(
            payload.get("parseErrors").and_then(Value::as_f64),
            Some(1.0)
        );
        assert!(payload.get("batch").is_some());
        assert!(payload
            .get("peakInFlight")
            .and_then(Value::as_f64)
            .is_some());

        let pushed = capture.text();
        let mut indices = Vec::new();
        let mut progress_seen = false;
        for line in pushed.lines() {
            let v = parse_json(line).unwrap();
            match v.get("kind").and_then(Value::as_str) {
                Some("batch-answer") => {
                    let p = v.get("payload").unwrap();
                    indices.push(p.get("index").and_then(Value::as_f64).unwrap() as usize);
                    if indices.len() == 2 {
                        // The malformed middle query came back as a
                        // per-answer parse error, not a batch abort.
                        assert_eq!(p.get("parseError"), Some(&Value::Bool(true)));
                    }
                }
                Some("batch-progress") => progress_seen = true,
                other => panic!("unexpected pushed kind {other:?}"),
            }
        }
        assert_eq!(indices, [0, 1, 2], "answers must arrive in input order");
        assert!(progress_seen, "progressMillis:0 must tick at least once");
    }

    #[test]
    fn delta_reports_invalidation_counters() {
        let d = demo_daemon();
        // Warm the cache first.
        d.handle(
            r#"{"verb":"query","query":"<ip> [.#v0] .* [v3#.] <ip> 0"}"#,
            &sink(),
        );
        let resp = d.handle(
            r#"{"verb":"delta","delta":{"kind":"link-down","link":0}}"#,
            &sink(),
        );
        let v = parse_json(&resp).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("delta-report"));
        let report = v.get("payload").and_then(|p| p.get("report")).unwrap();
        assert_eq!(report.get("applied"), Some(&Value::Bool(true)));
        assert!(report.get("invalidated").and_then(Value::as_f64).is_some());
        assert!(report.get("retained").and_then(Value::as_f64).is_some());
    }

    #[test]
    fn load_demo_over_the_protocol() {
        let d = Daemon::new(DaemonConfig::default());
        let resp = d.handle(r#"{"verb":"load","demo":true}"#, &sink());
        assert_eq!(kind_of(&resp), "loaded");
        assert_eq!(
            kind_of(&d.handle(r#"{"verb":"stats"}"#, &sink())),
            "session-stats"
        );
    }

    /// A peer whose written bytes the test can read back.
    #[derive(Clone, Default)]
    struct Capture(Arc<Mutex<Vec<u8>>>);

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Capture {
        fn text(&self) -> String {
            String::from_utf8(lock(&self.0).clone()).unwrap()
        }
    }

    #[test]
    fn health_answers_with_or_without_a_session() {
        let d = Daemon::new(DaemonConfig::default());
        let v = parse_json(&d.handle(r#"{"verb":"health"}"#, &sink())).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("health"));
        let p = v.get("payload").unwrap();
        assert_eq!(p.get("loaded"), Some(&Value::Bool(false)));
        assert_eq!(p.get("pressure").and_then(Value::as_str), Some("normal"));
        assert_eq!(
            p.get("journal").and_then(|j| j.get("enabled")),
            Some(&Value::Bool(false))
        );

        d.preload(aalwines::examples::paper_network());
        let v = parse_json(&d.handle(r#"{"verb":"health"}"#, &sink())).unwrap();
        let p = v.get("payload").unwrap();
        assert_eq!(p.get("loaded"), Some(&Value::Bool(true)));
        assert!(p.get("residentBytes").and_then(Value::as_f64).unwrap() > 0.0);
    }

    #[test]
    fn load_pushes_reset_to_subscribers_before_clearing_them() {
        let d = demo_daemon();
        let capture = Capture::default();
        let peer = peer_of(capture.clone());
        let resp = d.handle(
            r#"{"verb":"subscribe","query":"<ip> [.#v0] .* [v3#.] <ip> 0"}"#,
            &peer,
        );
        assert_eq!(kind_of(&resp), "subscribed");
        assert_eq!(
            kind_of(&d.handle(r#"{"verb":"load","demo":true}"#, &sink())),
            "loaded"
        );
        let pushed = capture.text();
        let v = parse_json(pushed.lines().next().unwrap()).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("reset"));
        assert_eq!(v.get("schemaVersion").and_then(Value::as_f64), Some(1.0));
        assert!(lock(&d.shared.subscribers).is_empty());
    }

    #[test]
    fn subscriptions_are_refused_while_over_the_memory_budget() {
        let d = Daemon::new(DaemonConfig {
            max_resident_bytes: 1, // precomp alone exceeds this
            ..DaemonConfig::default()
        });
        d.preload(aalwines::examples::paper_network());
        assert_eq!(d.pressure(), PressureState::Refusing);
        let resp = d.handle(r#"{"verb":"subscribe","query":"<ip> .* <ip> 0"}"#, &sink());
        assert_eq!(kind_of(&resp), "error");
        assert!(resp.contains("refusing new subscriptions"), "{resp}");
        // Plain queries still work: degradation, not denial of service.
        assert_eq!(
            kind_of(&d.handle(
                r#"{"verb":"query","query":"<ip> [.#v0] .* [v3#.] <ip> 0"}"#,
                &sink()
            )),
            "answer"
        );
    }

    #[test]
    fn a_panicking_handler_poisons_nothing_for_other_connections() {
        let d = Daemon::new(DaemonConfig {
            debug_verbs: true,
            ..DaemonConfig::default()
        });
        d.preload(aalwines::examples::paper_network());
        // Panic while holding no locks (the verb panics in dispatch)...
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            d.handle(r#"{"verb":"debug-panic"}"#, &sink())
        }));
        assert!(panicked.is_err());
        // ...and the daemon keeps answering on other "connections".
        assert_eq!(
            kind_of(&d.handle(r#"{"verb":"stats"}"#, &sink())),
            "session-stats"
        );
    }

    #[test]
    fn journal_restart_restores_session_deltas_and_watches() {
        let path = std::env::temp_dir().join(format!(
            "aalwinesd-libtest-journal-{}.ndjson",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let query = "<ip> [.#v0] .* [v3#.] <ip> 0";
        let answer_before;
        {
            let d = Daemon::with_journal(DaemonConfig::default(), &path).unwrap();
            assert!(!d.is_loaded());
            assert_eq!(
                kind_of(&d.handle(r#"{"verb":"load","demo":true}"#, &sink())),
                "loaded"
            );
            assert_eq!(
                kind_of(&d.handle(
                    &format!(r#"{{"verb":"subscribe","query":"{query}"}}"#),
                    &sink()
                )),
                "subscribed"
            );
            assert_eq!(
                kind_of(&d.handle(
                    r#"{"verb":"delta","delta":{"kind":"link-down","link":0}}"#,
                    &sink()
                )),
                "delta-report"
            );
            answer_before = d.handle(&format!(r#"{{"verb":"query","query":"{query}"}}"#), &sink());
        }
        // "Restart": a fresh daemon over the same journal.
        let d = Daemon::with_journal(DaemonConfig::default(), &path).unwrap();
        assert!(d.is_loaded(), "replay reloads the dataplane");
        let status = d.replay_status();
        assert!(status.clean, "{:?}", status.error);
        assert_eq!(status.records, 3);
        {
            let guard = read_lock(&d.shared.session);
            let s = guard.as_ref().unwrap();
            assert_eq!(s.downed_links(), vec![LinkId(0)]);
            assert_eq!(s.watched_queries(), vec![query]);
        }
        let answer_after = d.handle(&format!(r#"{{"verb":"query","query":"{query}"}}"#), &sink());
        assert_eq!(
            strip_stats(&answer_before),
            strip_stats(&answer_after),
            "replayed session answers identically to the pre-crash one"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lint_verb_answers_the_resident_report() {
        let d = demo_daemon();
        let v = parse_json(&d.handle(r#"{"verb":"lint"}"#, &sink())).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("lint-report"));
        let p = v.get("payload").unwrap();
        // The paper network lints clean, and the report was primed at
        // load — this call is a cache hit, not a cold lint.
        assert_eq!(
            p.get("report").and_then(|r| r.get("findings")),
            Some(&Value::Array(Vec::new()))
        );
        assert!(p
            .get("stats")
            .and_then(|st| st.get("lintMillis"))
            .and_then(Value::as_f64)
            .is_some());
        let health = parse_json(&d.handle(r#"{"verb":"health"}"#, &sink())).unwrap();
        assert!(health
            .get("payload")
            .and_then(|h| h.get("lintMillis"))
            .and_then(Value::as_f64)
            .is_some());
    }

    /// A delta that rewrites `s10` traffic at v1 to an out-label v3 has
    /// no rule for: a manufactured blackhole, observable as both a
    /// changed report (DP010 added) and a delta-native DP016 finding.
    const BLACKHOLE_DELTA: &str = concat!(
        r#"{"verb":"delta","delta":{"kind":"add-rule","inLink":2,"label":"s10","#,
        r#""priority":1,"out":3,"ops":[{"swap":"s20"}]}}"#
    );

    #[test]
    fn delta_pushes_lint_update_to_every_subscriber() {
        let d = demo_daemon();
        let capture = Capture::default();
        let peer = peer_of(capture.clone());
        assert_eq!(
            kind_of(&d.handle(
                r#"{"verb":"subscribe","query":"<ip> [.#v0] .* [v3#.] <ip> 0"}"#,
                &peer,
            )),
            "subscribed"
        );
        assert_eq!(kind_of(&d.handle(BLACKHOLE_DELTA, &sink())), "delta-report");
        let pushed = capture.text();
        let lint_update = pushed
            .lines()
            .map(|l| parse_json(l).unwrap())
            .find(|v| v.get("kind").and_then(Value::as_str) == Some("lint-update"))
            .expect("subscriber received a lint-update push");
        let p = lint_update.get("payload").unwrap();
        let added = match p.get("added") {
            Some(Value::Array(items)) => items,
            other => panic!("added is {other:?}"),
        };
        assert!(!added.is_empty());
        let delta_findings = p.get("deltaFindings").unwrap().to_json();
        assert!(delta_findings.contains("DP016"), "{delta_findings}");
    }

    #[test]
    fn journal_replay_reconstructs_lint_state() {
        let path = std::env::temp_dir().join(format!(
            "aalwinesd-libtest-lint-journal-{}.ndjson",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let report_before;
        {
            let d = Daemon::with_journal(DaemonConfig::default(), &path).unwrap();
            assert_eq!(
                kind_of(&d.handle(r#"{"verb":"load","demo":true}"#, &sink())),
                "loaded"
            );
            assert_eq!(kind_of(&d.handle(BLACKHOLE_DELTA, &sink())), "delta-report");
            report_before = d.handle(r#"{"verb":"lint"}"#, &sink());
        }
        let d = Daemon::with_journal(DaemonConfig::default(), &path).unwrap();
        let report_after = d.handle(r#"{"verb":"lint"}"#, &sink());
        // The resident report is a pure function of the current network
        // (and watched queries), so replaying the journal rebuilds it
        // exactly; only the timing/hit stats differ.
        let report_of = |envelope: &str| {
            parse_json(envelope)
                .unwrap()
                .get("payload")
                .and_then(|p| p.get("report"))
                .cloned()
                .unwrap()
        };
        let before = report_of(&report_before);
        assert_eq!(before, report_of(&report_after));
        assert!(before.to_json().contains("DP010"), "{}", before.to_json());
        let _ = std::fs::remove_file(&path);
    }

    /// Drop the volatile timing `stats` from an `answer` payload.
    fn strip_stats(envelope: &str) -> Value {
        let mut v = parse_json(envelope).unwrap();
        if let Value::Object(o) = &mut v {
            if let Some(Value::Object(payload)) = o.get_mut("payload") {
                payload.remove("stats");
            }
        }
        v
    }
}

//! Bounded memo of decided answers.
//!
//! Verification is a deterministic function of (network, query, weight
//! specification), so [`AnswerCache`] memoises its *output*: a
//! thread-safe LRU from [`CacheKey`] — the parsed query and the weight
//! specification, compared by value — to the decided
//! [`Answer`] and the [`Footprint`] of links its computation read. A
//! repeated query is answered before it is even compiled; nothing the
//! engine builds on the way (pushdown systems, automata) is retained.
//!
//! The cache does not expire entries by itself: it is owned by a
//! `Verifier` (or a [`Session`](crate::session::Session)) bound to one
//! `Network` value. A *dataplane delta* invalidates entries selectively:
//! [`AnswerCache::invalidate_intersecting`] drops exactly the entries
//! whose footprint intersects the delta's touched links — everything
//! else keeps answering, provably unchanged. Budget-dependent outcomes
//! (`Aborted`, `Error`) are never stored.

use crate::engine::{Answer, Outcome};
use crate::quantities::WeightSpec;
use netmodel::LinkId;
use query::{LabelAtom, LinkAtom, Query, Regex};
use std::collections::HashMap;
use std::mem::{size_of, size_of_val};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Default number of answers a `Verifier`'s cache holds.
pub const DEFAULT_CACHE_SIZE: usize = 64;

/// The set of links an answer depends on, and the set a dataplane delta
/// touches.
///
/// The PDS construction reads the routing table only through the keys of
/// links its state exploration visits (every start link of the query's
/// path automaton plus every link reachable from them within the failure
/// budget), so the visited-link set is a sound dependency footprint: a
/// delta to the rules of any *other* link cannot change the pushdown
/// system, hence not its saturation, hence not the answer.
pub use netmodel::Footprint;

/// What [`AnswerCache::invalidate_intersecting`] did: how many entries a
/// delta evicted and how many stayed warm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InvalidationReport {
    /// Entries dropped because their footprint intersects the delta's
    /// touched links.
    pub invalidated: usize,
    /// Entries that survived with their answers intact.
    pub retained: usize,
}

/// Everything that shapes a decided answer on one network: the parsed
/// query (which carries `k`) and the weight specification. Budgets are
/// deliberately absent — they only ever turn an answer into `Aborted`,
/// which is never cached.
pub type CacheKey = (Query, Option<WeightSpec>);

struct Entry {
    answer: Answer,
    footprint: Footprint,
    last_used: u64,
}

struct Inner {
    map: HashMap<CacheKey, Entry>,
    tick: u64,
    /// Running sum of [`entry_bytes`] over `map`.
    bytes: usize,
}

impl Inner {
    fn remove(&mut self, key: &CacheKey) {
        if let Some(entry) = self.map.remove(key) {
            self.bytes -= entry_bytes(key, &entry);
        }
    }

    fn remove_least_recently_used(&mut self) {
        let oldest = self
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone());
        if let Some(key) = oldest {
            self.remove(&key);
        }
    }
}

/// Nodes (operators and atoms) in a query regex.
fn regex_nodes<A>(r: &Regex<A>) -> usize {
    1 + match r {
        Regex::Epsilon | Regex::Atom(_) => 0,
        Regex::Concat(rs) | Regex::Alt(rs) => rs.iter().map(regex_nodes).sum(),
        Regex::Star(r) | Regex::Plus(r) | Regex::Opt(r) => regex_nodes(r),
    }
}

/// Estimated resident bytes of one entry: map slot, query AST (nodes at
/// their inline size; the few name bytes behind an atom are not
/// followed), weight terms, footprint words and witness. Computed from
/// lengths, not capacities, so the figure repeats across processes.
fn entry_bytes((query, weights): &CacheKey, entry: &Entry) -> usize {
    let mut bytes = size_of::<CacheKey>() + size_of::<Entry>();
    bytes += (regex_nodes(&query.initial) + regex_nodes(&query.final_))
        * size_of::<Regex<LabelAtom>>()
        + regex_nodes(&query.path) * size_of::<Regex<LinkAtom>>();
    for expr in weights.iter().flat_map(|spec| &spec.exprs) {
        bytes += size_of_val(expr) + size_of_val(expr.terms.as_slice());
    }
    bytes += entry.footprint.bytes_resident();
    if let Outcome::Satisfied(w) = &entry.answer.outcome {
        bytes += size_of_val(&**w) + w.failed_links.len() * size_of::<LinkId>();
        bytes += w.weight.as_ref().map_or(0, |v| size_of_val(v.as_slice()));
        for step in &w.trace.steps {
            bytes += size_of_val(step) + size_of_val(step.header.0.as_slice());
        }
    }
    bytes
}

/// A bounded, thread-safe LRU memo of decided answers.
pub struct AnswerCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl AnswerCache {
    /// An empty cache holding at most `capacity` answers (min 1).
    pub fn new(capacity: usize) -> Self {
        AnswerCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                bytes: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A worker that panicked while holding the lock cannot have left
        // the map structurally broken (every mutation under the lock is
        // a complete HashMap operation followed by a counter update), so
        // recover from poison instead of propagating it into sibling
        // queries.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of answers currently cached.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the cache holds no answers.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The answer stored under `key`, if any (marking it most recently
    /// used).
    pub fn get(&self, key: &CacheKey) -> Option<Answer> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(key)?;
        entry.last_used = tick;
        Some(entry.answer.clone())
    }

    /// Store a decided `answer` with the `footprint` of links its
    /// computation read, evicting least-recently-used entries past
    /// capacity. `Aborted` and `Error` outcomes depend on the budget or
    /// on a fault rather than on the key, and are dropped instead. Two
    /// threads racing on one key both compute; the first insert wins
    /// (both computed the same answer — the engine is deterministic).
    pub fn insert(&self, key: CacheKey, answer: Answer, footprint: Footprint) {
        if matches!(answer.outcome, Outcome::Aborted(_) | Outcome::Error(_)) {
            return;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            entry.last_used = tick;
            return;
        }
        let entry = Entry {
            answer,
            footprint,
            last_used: tick,
        };
        inner.bytes += entry_bytes(&key, &entry);
        inner.map.insert(key, entry);
        while inner.map.len() > self.capacity {
            inner.remove_least_recently_used();
        }
    }

    /// Drop exactly the answers whose footprint intersects `touched` (a
    /// dataplane delta's modified links). Everything else stays warm.
    /// Returns how many entries went and how many stayed.
    pub fn invalidate_intersecting(&self, touched: &Footprint) -> InvalidationReport {
        let mut inner = self.lock();
        let stale: Vec<CacheKey> = inner
            .map
            .iter()
            .filter(|(_, e)| e.footprint.intersects(touched))
            .map(|(k, _)| k.clone())
            .collect();
        for key in &stale {
            inner.remove(key);
        }
        InvalidationReport {
            invalidated: stale.len(),
            retained: inner.map.len(),
        }
    }

    /// Drop every cached answer (e.g. when a whole new dataplane is
    /// loaded). Returns how many entries were dropped.
    pub fn clear(&self) -> usize {
        let mut inner = self.lock();
        let n = inner.map.len();
        inner.map.clear();
        inner.bytes = 0;
        n
    }

    /// Estimated resident bytes of all cached entries plus the cache's
    /// own header. O(1): the total is maintained on insert and removal.
    pub fn bytes_resident(&self) -> usize {
        size_of::<Self>() + self.lock().bytes
    }

    /// Shed least-recently-used answers until the cache's resident bytes
    /// fit inside `budget` (graceful degradation under memory pressure,
    /// oldest-first so the hottest answers die last). Returns how many
    /// entries were evicted; an already-fitting cache sheds nothing. A
    /// budget of 0 empties the cache.
    pub fn shed_to_bytes(&self, budget: usize) -> usize {
        let mut inner = self.lock();
        let before = inner.map.len();
        while size_of::<Self>() + inner.bytes > budget && !inner.map.is_empty() {
            inner.remove_least_recently_used();
        }
        before - inner.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineStats, Witness};
    use netmodel::{Header, LabelId, Trace, TraceStep};
    use pdaal::budget::AbortReason;
    use query::parse_query;

    fn key(name: &str) -> CacheKey {
        let q = parse_query(&format!("<ip> [.#{name}] .* <ip> 0")).unwrap();
        (q, None)
    }

    /// An `Unsatisfied` answer tagged through `rules_over` so tests can
    /// tell which insert a lookup returns.
    fn answer(tag: usize) -> Answer {
        let mut stats = EngineStats::new();
        stats.rules_over = tag;
        Answer::new(Outcome::Unsatisfied, stats)
    }

    fn put(cache: &AnswerCache, name: &str, tag: usize) {
        cache.insert(key(name), answer(tag), Footprint::new());
    }

    fn tag_of(cache: &AnswerCache, name: &str) -> Option<usize> {
        cache.get(&key(name)).map(|a| a.stats.rules_over)
    }

    #[test]
    fn hit_after_miss() {
        let cache = AnswerCache::new(4);
        assert_eq!(tag_of(&cache, "a"), None);
        put(&cache, "a", 41);
        assert_eq!(tag_of(&cache, "a"), Some(41));
        // A racing second insert of the same key loses.
        put(&cache, "a", 99);
        assert_eq!(tag_of(&cache, "a"), Some(41), "first insert wins");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn aborted_and_error_answers_are_never_stored() {
        let cache = AnswerCache::new(4);
        let aborted = Answer::aborted(AbortReason::DeadlineExceeded, EngineStats::new());
        cache.insert(key("a"), aborted, Footprint::new());
        cache.insert(key("b"), Answer::error("boom"), Footprint::new());
        assert!(cache.is_empty());
        assert_eq!(cache.bytes_resident(), AnswerCache::new(4).bytes_resident());
    }

    #[test]
    fn keys_compare_every_component_by_value() {
        let cache = AnswerCache::new(8);
        let (q, _) = key("a");
        let spec = WeightSpec::single(crate::AtomicQuantity::Hops);
        let mut q1 = q.clone();
        q1.max_failures = 1;
        let variants = [(q.clone(), None), (q1, None), (q.clone(), Some(spec))];
        for (tag, k) in variants.iter().enumerate() {
            cache.insert(k.clone(), answer(tag), Footprint::new());
        }
        assert_eq!(cache.len(), variants.len());
        for (tag, k) in variants.iter().enumerate() {
            assert_eq!(cache.get(k).map(|a| a.stats.rules_over), Some(tag));
        }
        // An independently parsed equal query is the same key.
        assert_eq!(tag_of(&cache, "a"), Some(0));
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = AnswerCache::new(2);
        put(&cache, "a", 1);
        put(&cache, "b", 2);
        // Touch "a" so "b" becomes the LRU entry.
        assert!(tag_of(&cache, "a").is_some());
        put(&cache, "c", 3);
        assert_eq!(cache.len(), 2);
        assert!(
            tag_of(&cache, "a").is_some(),
            "recently used entry survives eviction"
        );
        assert!(tag_of(&cache, "b").is_none(), "LRU entry was evicted");
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let cache = AnswerCache::new(0);
        assert_eq!(cache.capacity(), 1);
        put(&cache, "a", 1);
        assert!(tag_of(&cache, "a").is_some());
        put(&cache, "b", 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn footprint_set_semantics() {
        let mut fp = Footprint::new();
        assert!(fp.is_empty());
        fp.insert(LinkId(3));
        fp.insert(LinkId(70));
        assert_eq!(fp.len(), 2);
        assert!(fp.contains(LinkId(3)));
        assert!(fp.contains(LinkId(70)));
        assert!(!fp.contains(LinkId(4)));
        assert!(!fp.contains(LinkId(700)));
        let links: Vec<LinkId> = fp.links().collect();
        assert_eq!(links, vec![LinkId(3), LinkId(70)]);

        let other = Footprint::from_links([LinkId(70)]);
        assert!(fp.intersects(&other));
        assert!(other.intersects(&fp));
        let disjoint = Footprint::from_links([LinkId(64)]);
        assert!(!fp.intersects(&disjoint));
        assert!(!Footprint::new().intersects(&fp));

        // Union grows the shorter side and keeps both members.
        let mut small = Footprint::from_links([LinkId(1)]);
        small.union_with(&fp);
        let links: Vec<LinkId> = small.links().collect();
        assert_eq!(links, vec![LinkId(1), LinkId(3), LinkId(70)]);
    }

    #[test]
    fn invalidation_drops_only_intersecting_footprints() {
        let cache = AnswerCache::new(8);
        cache.insert(
            key("a"),
            answer(1),
            Footprint::from_links([LinkId(0), LinkId(1)]),
        );
        cache.insert(key("b"), answer(2), Footprint::from_links([LinkId(2)]));
        // Quick-decided answers read no link and survive every delta.
        cache.insert(key("c"), answer(3), Footprint::new());
        assert_eq!(cache.len(), 3);

        let report = cache.invalidate_intersecting(&Footprint::from_links([LinkId(1)]));
        assert_eq!(report.invalidated, 1);
        assert_eq!(report.retained, 2);
        assert!(tag_of(&cache, "b").is_some(), "disjoint entry stays warm");
        assert!(tag_of(&cache, "c").is_some(), "empty footprint stays warm");
        assert!(
            tag_of(&cache, "a").is_none(),
            "intersecting entry must be gone"
        );
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = AnswerCache::new(8);
        let empty = cache.bytes_resident();
        put(&cache, "a", 1);
        put(&cache, "b", 2);
        assert_eq!(cache.clear(), 2);
        assert!(cache.is_empty());
        assert_eq!(cache.bytes_resident(), empty);
    }

    #[test]
    fn bytes_resident_tracks_entries() {
        let cache = AnswerCache::new(8);
        let empty = cache.bytes_resident();
        put(&cache, "a", 1);
        let plain = cache.bytes_resident() - empty;
        assert!(plain >= size_of::<CacheKey>() + size_of::<Entry>());

        // A witness and a footprint are priced on top of the bare entry.
        let step = TraceStep {
            link: LinkId(9),
            header: Header(vec![LabelId(0); 3]),
        };
        let witness = Witness {
            trace: Trace::new(vec![step; 4]),
            failed_links: [LinkId(9)].into_iter().collect(),
            weight: Some(vec![1, 2]),
        };
        cache.insert(
            key("b"),
            Answer::new(Outcome::Satisfied(Box::new(witness)), EngineStats::new()),
            Footprint::from_links([LinkId(9)]),
        );
        let both = cache.bytes_resident() - empty;
        assert!(both > 2 * plain, "witness bytes are counted: {both}");

        cache.invalidate_intersecting(&Footprint::from_links([LinkId(9)]));
        assert_eq!(cache.bytes_resident() - empty, plain);
    }

    #[test]
    fn shed_to_bytes_evicts_lru_first_until_under_budget() {
        let cache = AnswerCache::new(8);
        put(&cache, "old", 1);
        put(&cache, "mid", 2);
        put(&cache, "hot", 3);
        // Touch "old" so "mid" becomes the LRU entry.
        assert!(tag_of(&cache, "old").is_some());
        let before = cache.bytes_resident();

        // A budget one byte short sheds exactly the LRU entry.
        assert_eq!(cache.shed_to_bytes(before), 0);
        assert_eq!(cache.shed_to_bytes(before - 1), 1);
        assert!(tag_of(&cache, "mid").is_none(), "LRU entry is shed first");
        assert!(
            tag_of(&cache, "hot").is_some(),
            "recently used entries survive shedding"
        );
        assert!(cache.bytes_resident() < before);

        // Budget 0 empties the cache entirely; shedding again is a no-op.
        assert_eq!(cache.shed_to_bytes(0), 2);
        assert!(cache.is_empty());
        assert_eq!(cache.shed_to_bytes(0), 0);
    }

    #[test]
    fn a_poisoned_lock_keeps_serving() {
        let cache = AnswerCache::new(4);
        put(&cache, "a", 1);
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the expected panic
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.inner.lock().unwrap();
            panic!("poison the cache mutex");
        }));
        std::panic::set_hook(prev_hook);
        assert!(cache.inner.is_poisoned());
        assert_eq!(tag_of(&cache, "a"), Some(1));
        put(&cache, "b", 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = AnswerCache::new(8);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..100usize {
                        let name = format!("k{}", i % 8);
                        put(cache, &name, i % 8);
                        assert_eq!(tag_of(cache, &name), Some(i % 8), "thread {t}");
                    }
                });
            }
        });
        assert_eq!(cache.len(), 8);
    }
}

//! Network topologies: directed multigraphs of routers and links
//! (Definition 1), with named interfaces and optional geographic
//! coordinates.
//!
//! Links are directed; a physical cable between routers `u` and `v` is
//! modelled as two links (one per direction), which is what enables the
//! paper's *asymmetric* link-failure model. Every link knows the
//! interface names on both ends (used by the query syntax
//! `[v.out#u.in]`) and carries a distance value for the `Distance`
//! atomic quantity (geographic distance, latency, inverse bandwidth, …).

use std::collections::HashMap;

/// A router of the topology (a dense index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RouterId(pub u32);

impl RouterId {
    /// The dense index of this router.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A directed link of the topology (a dense index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The dense index of this link.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A compact set of link ids: a bitset over dense link ids that grows
/// to the highest id inserted. Answers and lint artifacts record the
/// links they depend on as one, and a dataplane delta records the links
/// it touches; the two intersect exactly when the delta may change the
/// dependent result. The bit operations are `#[inline]` because the
/// engine and the linter call them per state and per routing key from
/// other crates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Footprint {
    bits: Vec<u64>,
}

impl Footprint {
    /// An empty footprint (depends on no link; a delta never hits it).
    pub fn new() -> Self {
        Footprint::default()
    }

    /// A footprint over the given links.
    pub fn from_links<I: IntoIterator<Item = LinkId>>(links: I) -> Self {
        let mut fp = Footprint::new();
        for l in links {
            fp.insert(l);
        }
        fp
    }

    /// Add a link.
    #[inline]
    pub fn insert(&mut self, link: LinkId) {
        let (word, bit) = (link.index() / 64, link.index() % 64);
        if self.bits.len() <= word {
            self.bits.resize(word + 1, 0);
        }
        self.bits[word] |= 1u64 << bit;
    }

    /// Add every link of `other`.
    #[inline]
    pub fn union_with(&mut self, other: &Footprint) {
        if self.bits.len() < other.bits.len() {
            self.bits.resize(other.bits.len(), 0);
        }
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Whether `link` is in the footprint.
    #[inline]
    pub fn contains(&self, link: LinkId) -> bool {
        let (word, bit) = (link.index() / 64, link.index() % 64);
        self.bits.get(word).is_some_and(|w| w & (1u64 << bit) != 0)
    }

    /// Whether the two footprints share any link.
    #[inline]
    pub fn intersects(&self, other: &Footprint) -> bool {
        self.bits.iter().zip(&other.bits).any(|(a, b)| a & b != 0)
    }

    /// Number of links in the footprint.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the footprint is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|w| *w == 0)
    }

    /// Heap bytes of the bitset words (from the length, not the
    /// capacity, so the figure repeats across processes).
    pub fn bytes_resident(&self) -> usize {
        std::mem::size_of_val(self.bits.as_slice())
    }

    /// The links in the footprint, in id order.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.bits.iter().enumerate().flat_map(|(wi, w)| {
            (0..64)
                .filter(move |b| w & (1u64 << b) != 0)
                .map(move |b| LinkId((wi * 64 + b) as u32))
        })
    }
}

/// A router record.
#[derive(Clone, Debug)]
pub struct Router {
    /// Human-readable router name (unique).
    pub name: String,
    /// Latitude/longitude, if known (drives GUI layout and geographic
    /// distance in the original tool).
    pub coord: Option<(f64, f64)>,
}

/// A directed link record.
#[derive(Clone, Debug)]
pub struct Link {
    /// Source router.
    pub src: RouterId,
    /// Target router.
    pub dst: RouterId,
    /// Interface name on the source router (outgoing side).
    pub src_if: String,
    /// Interface name on the target router (incoming side).
    pub dst_if: String,
    /// Distance value for the `Distance` quantity.
    pub distance: u64,
}

/// A directed multigraph of routers and links.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    routers: Vec<Router>,
    links: Vec<Link>,
    by_name: HashMap<String, RouterId>,
    out: Vec<Vec<LinkId>>,
    into: Vec<Vec<LinkId>>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a router; names must be unique.
    pub fn add_router(&mut self, name: &str, coord: Option<(f64, f64)>) -> RouterId {
        assert!(
            !self.by_name.contains_key(name),
            "duplicate router name {name:?}"
        );
        let id = RouterId(self.routers.len() as u32);
        self.routers.push(Router {
            name: name.to_string(),
            coord,
        });
        self.by_name.insert(name.to_string(), id);
        self.out.push(Vec::new());
        self.into.push(Vec::new());
        id
    }

    /// Add a directed link and return its id.
    pub fn add_link(
        &mut self,
        src: RouterId,
        src_if: &str,
        dst: RouterId,
        dst_if: &str,
        distance: u64,
    ) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            src,
            dst,
            src_if: src_if.to_string(),
            dst_if: dst_if.to_string(),
            distance,
        });
        self.out[src.index()].push(id);
        self.into[dst.index()].push(id);
        id
    }

    /// Number of routers.
    pub fn num_routers(&self) -> u32 {
        self.routers.len() as u32
    }

    /// Number of directed links.
    pub fn num_links(&self) -> u32 {
        self.links.len() as u32
    }

    /// Estimated heap bytes held by the topology: router and link
    /// records (including their name strings), the name index, and the
    /// adjacency lists.
    pub fn bytes_resident(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.routers.capacity() * size_of::<Router>()
            + self.links.capacity() * size_of::<Link>()
            + self.by_name.capacity() * (size_of::<String>() + size_of::<RouterId>() + 1)
            + self.out.capacity() * size_of::<Vec<LinkId>>()
            + self.into.capacity() * size_of::<Vec<LinkId>>();
        for r in &self.routers {
            bytes += r.name.capacity();
        }
        for l in &self.links {
            bytes += l.src_if.capacity() + l.dst_if.capacity();
        }
        for name in self.by_name.keys() {
            bytes += name.capacity();
        }
        for adj in self.out.iter().chain(self.into.iter()) {
            bytes += adj.capacity() * size_of::<LinkId>();
        }
        bytes
    }

    /// The router record.
    pub fn router(&self, id: RouterId) -> &Router {
        &self.routers[id.index()]
    }

    /// The link record.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Source router of a link (`s(e)`).
    pub fn src(&self, id: LinkId) -> RouterId {
        self.links[id.index()].src
    }

    /// Target router of a link (`t(e)`).
    pub fn dst(&self, id: LinkId) -> RouterId {
        self.links[id.index()].dst
    }

    /// Look up a router by name.
    pub fn router_by_name(&self, name: &str) -> Option<RouterId> {
        self.by_name.get(name).copied()
    }

    /// Links leaving `r`.
    pub fn links_from(&self, r: RouterId) -> &[LinkId] {
        &self.out[r.index()]
    }

    /// Links entering `r`.
    pub fn links_into(&self, r: RouterId) -> &[LinkId] {
        &self.into[r.index()]
    }

    /// All links, as ids.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len()).map(|i| LinkId(i as u32))
    }

    /// All routers, as ids.
    pub fn routers(&self) -> impl Iterator<Item = RouterId> + '_ {
        (0..self.routers.len()).map(|i| RouterId(i as u32))
    }

    /// Set (or replace) a router's coordinates.
    pub fn set_coord(&mut self, r: RouterId, coord: (f64, f64)) {
        self.routers[r.index()].coord = Some(coord);
    }

    /// The link from `src` whose outgoing interface is `src_if`, if any.
    pub fn link_by_interface(&self, src: RouterId, src_if: &str) -> Option<LinkId> {
        self.out[src.index()]
            .iter()
            .copied()
            .find(|&l| self.links[l.index()].src_if == src_if)
    }

    /// A human-readable rendering `src.if -> dst.if` of a link.
    pub fn link_name(&self, id: LinkId) -> String {
        let l = &self.links[id.index()];
        format!(
            "{}.{}->{}.{}",
            self.routers[l.src.index()].name,
            l.src_if,
            self.routers[l.dst.index()].name,
            l.dst_if
        )
    }

    /// Whether a link is a self-loop (used by the `Hops` quantity, which
    /// skips them).
    pub fn is_self_loop(&self, id: LinkId) -> bool {
        let l = &self.links[id.index()];
        l.src == l.dst
    }

    /// Great-circle-ish distance between two routers with coordinates,
    /// in kilometres (haversine). Returns `None` if either router lacks
    /// coordinates.
    pub fn geo_distance(&self, a: RouterId, b: RouterId) -> Option<f64> {
        let (la, lo) = self.routers[a.index()].coord?;
        let (lb, lob) = self.routers[b.index()].coord?;
        let (la, lo, lb, lob) = (
            la.to_radians(),
            lo.to_radians(),
            lb.to_radians(),
            lob.to_radians(),
        );
        let dlat = lb - la;
        let dlon = lob - lo;
        let h = (dlat / 2.0).sin().powi(2) + la.cos() * lb.cos() * (dlon / 2.0).sin().powi(2);
        Some(2.0 * 6371.0 * h.sqrt().asin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_router_topo() -> (Topology, RouterId, RouterId, LinkId) {
        let mut t = Topology::new();
        let a = t.add_router("A", Some((57.0, 9.9)));
        let b = t.add_router("B", Some((55.7, 12.6)));
        let l = t.add_link(a, "eth0", b, "eth1", 10);
        (t, a, b, l)
    }

    #[test]
    fn links_index_both_directions() {
        let (t, a, b, l) = two_router_topo();
        assert_eq!(t.links_from(a), &[l]);
        assert_eq!(t.links_into(b), &[l]);
        assert!(t.links_from(b).is_empty());
        assert_eq!(t.src(l), a);
        assert_eq!(t.dst(l), b);
    }

    #[test]
    fn router_lookup_by_name() {
        let (t, a, _, _) = two_router_topo();
        assert_eq!(t.router_by_name("A"), Some(a));
        assert_eq!(t.router_by_name("Z"), None);
    }

    #[test]
    fn interface_lookup() {
        let (t, a, _, l) = two_router_topo();
        assert_eq!(t.link_by_interface(a, "eth0"), Some(l));
        assert_eq!(t.link_by_interface(a, "eth9"), None);
    }

    #[test]
    fn multigraph_allows_parallel_links() {
        let (mut t, a, b, l1) = two_router_topo();
        let l2 = t.add_link(a, "eth2", b, "eth3", 5);
        assert_ne!(l1, l2);
        assert_eq!(t.links_from(a).len(), 2);
    }

    #[test]
    fn self_loop_detection() {
        let (mut t, a, _, l) = two_router_topo();
        let loopy = t.add_link(a, "lo0", a, "lo1", 0);
        assert!(t.is_self_loop(loopy));
        assert!(!t.is_self_loop(l));
    }

    #[test]
    fn geo_distance_plausible() {
        let (t, a, b, _) = two_router_topo();
        // Aalborg to Copenhagen is roughly 180-240 km.
        let d = t.geo_distance(a, b).unwrap();
        assert!(d > 100.0 && d < 400.0, "distance {d} out of range");
    }

    #[test]
    #[should_panic(expected = "duplicate router name")]
    fn duplicate_router_rejected() {
        let mut t = Topology::new();
        t.add_router("A", None);
        t.add_router("A", None);
    }
}

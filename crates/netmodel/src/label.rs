//! MPLS label sets: `L = L_M ⊎ L_M⊥ ⊎ L_IP` (Definition 2).
//!
//! Labels are interned into dense [`LabelId`]s so that the verification
//! pipeline can treat them as stack-symbol indices. By the paper's
//! convention, bottom-of-stack labels print with a leading `s` (e.g.
//! `s20`), plain MPLS labels print bare (e.g. `30`), and IP labels print
//! their address-like name (e.g. `ip1`).

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The partition a label belongs to.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LabelKind {
    /// Plain MPLS label (`L_M`) — may appear anywhere above the
    /// bottom-of-stack label.
    Mpls,
    /// MPLS label with the bottom-of-stack bit set (`L_M⊥`) — sits
    /// directly on top of the IP label.
    MplsBos,
    /// An IP "label" (`L_IP`) — the innermost header.
    Ip,
}

/// A dense handle to an interned label.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LabelId(pub u32);

impl LabelId {
    /// The dense index of this label.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The interned label universe of a network.
#[derive(Clone, Debug, Default)]
pub struct LabelTable {
    kinds: Vec<LabelKind>,
    names: Vec<String>,
    by_name: HashMap<String, LabelId>,
    /// Sorted label ids per kind ([`LabelTable::kind_ids`]), built on
    /// first use and dropped whenever a label is interned.
    kind_ids: OnceLock<[Arc<[u32]>; 3]>,
}

impl LabelTable {
    /// An empty label table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a label; returns the existing id if the name is known.
    ///
    /// # Panics
    /// If the name is already interned with a *different* kind — label
    /// names must identify their partition uniquely.
    pub fn intern(&mut self, name: &str, kind: LabelKind) -> LabelId {
        if let Some(&id) = self.by_name.get(name) {
            assert_eq!(
                self.kinds[id.index()],
                kind,
                "label {name:?} re-interned with different kind"
            );
            return id;
        }
        let id = LabelId(self.kinds.len() as u32);
        self.kind_ids.take();
        self.kinds.push(kind);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Intern a plain MPLS label.
    pub fn mpls(&mut self, name: &str) -> LabelId {
        self.intern(name, LabelKind::Mpls)
    }

    /// Intern a bottom-of-stack MPLS label.
    pub fn mpls_bos(&mut self, name: &str) -> LabelId {
        self.intern(name, LabelKind::MplsBos)
    }

    /// Intern an IP label.
    pub fn ip(&mut self, name: &str) -> LabelId {
        self.intern(name, LabelKind::Ip)
    }

    /// Look up a label by name.
    pub fn get(&self, name: &str) -> Option<LabelId> {
        self.by_name.get(name).copied()
    }

    /// Estimated heap bytes held by the label universe: kind and name
    /// vectors plus the interning index (name strings counted on both
    /// sides, since both own a copy).
    pub fn bytes_resident(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.kinds.capacity() * size_of::<LabelKind>()
            + self.names.capacity() * size_of::<String>()
            + self.by_name.capacity() * (size_of::<String>() + size_of::<LabelId>() + 1);
        for name in &self.names {
            bytes += name.capacity();
        }
        for name in self.by_name.keys() {
            bytes += name.capacity();
        }
        bytes
    }

    /// The kind of a label.
    pub fn kind(&self, id: LabelId) -> LabelKind {
        self.kinds[id.index()]
    }

    /// The name of a label.
    pub fn name(&self, id: LabelId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether no labels have been interned.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// All label ids of a given kind.
    pub fn of_kind(&self, kind: LabelKind) -> impl Iterator<Item = LabelId> + '_ {
        self.kinds
            .iter()
            .enumerate()
            .filter(move |(_, k)| **k == kind)
            .map(|(i, _)| LabelId(i as u32))
    }

    /// The ids of every label of kind `kind`, ascending, as one shared
    /// slice: built once per table on first use (not while labels are
    /// being interned) and handed out by reference count afterwards, so
    /// every query over a label class shares one allocation.
    pub fn kind_ids(&self, kind: LabelKind) -> Arc<[u32]> {
        let classes = self.kind_ids.get_or_init(|| {
            [LabelKind::Mpls, LabelKind::MplsBos, LabelKind::Ip]
                .map(|k| self.of_kind(k).map(|id| id.0).collect())
        });
        let slot = match kind {
            LabelKind::Mpls => 0,
            LabelKind::MplsBos => 1,
            LabelKind::Ip => 2,
        };
        Arc::clone(&classes[slot])
    }

    /// All label ids.
    pub fn all(&self) -> impl Iterator<Item = LabelId> + '_ {
        (0..self.kinds.len()).map(|i| LabelId(i as u32))
    }

    /// Render a label for display, following the paper's convention.
    pub fn display(&self, id: LabelId) -> LabelDisplay<'_> {
        LabelDisplay { table: self, id }
    }
}

/// Helper implementing `Display` for a label in context of its table.
pub struct LabelDisplay<'a> {
    table: &'a LabelTable,
    id: LabelId,
}

impl fmt::Display for LabelDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table.name(self.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = LabelTable::new();
        let a = t.mpls("30");
        let b = t.mpls("30");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn kinds_are_tracked() {
        let mut t = LabelTable::new();
        let m = t.mpls("30");
        let s = t.mpls_bos("s20");
        let i = t.ip("ip1");
        assert_eq!(t.kind(m), LabelKind::Mpls);
        assert_eq!(t.kind(s), LabelKind::MplsBos);
        assert_eq!(t.kind(i), LabelKind::Ip);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn reinterning_with_other_kind_panics() {
        let mut t = LabelTable::new();
        t.mpls("x");
        t.ip("x");
    }

    #[test]
    fn kind_ids_are_shared_and_refreshed_by_interning() {
        let mut t = LabelTable::new();
        t.mpls("30");
        t.ip("ip1");
        t.mpls("31");
        let a = t.kind_ids(LabelKind::Mpls);
        assert_eq!(&a[..], &[0, 2]);
        assert!(Arc::ptr_eq(&a, &t.kind_ids(LabelKind::Mpls)));
        assert!(t.kind_ids(LabelKind::MplsBos).is_empty());
        t.mpls("32");
        assert_eq!(&t.kind_ids(LabelKind::Mpls)[..], &[0, 2, 3]);
        assert_eq!(&t.kind_ids(LabelKind::Ip)[..], &[1]);
    }

    #[test]
    fn of_kind_filters() {
        let mut t = LabelTable::new();
        t.mpls("30");
        t.mpls("31");
        t.mpls_bos("s20");
        t.ip("ip1");
        assert_eq!(t.of_kind(LabelKind::Mpls).count(), 2);
        assert_eq!(t.of_kind(LabelKind::MplsBos).count(), 1);
        assert_eq!(t.of_kind(LabelKind::Ip).count(), 1);
    }

    #[test]
    fn lookup_by_name() {
        let mut t = LabelTable::new();
        let id = t.ip("ip7");
        assert_eq!(t.get("ip7"), Some(id));
        assert_eq!(t.get("nope"), None);
        assert_eq!(t.name(id), "ip7");
        assert_eq!(format!("{}", t.display(id)), "ip7");
    }
}

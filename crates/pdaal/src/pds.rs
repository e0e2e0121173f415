//! (Weighted) pushdown systems in normal form.
//!
//! A pushdown system (PDS) is a transition system with a finite control and
//! an unbounded stack. Every rule is in *normal form*: it consumes the
//! top-of-stack symbol and replaces it with zero ([`RuleOp::Pop`]), one
//! ([`RuleOp::Swap`]) or two ([`RuleOp::Push`]) symbols. Arbitrary
//! finite-sequence rewritings are compiled down to chains of normal-form
//! rules by the AalWiNes construction layer.
//!
//! ## Rule indexing
//!
//! Both rule indexes are maintained incrementally at construction time,
//! so `post*` never rebuilds them per call:
//!
//! * a per-state list of all rules ([`Pds::rules_of_state`], used when a
//!   *filter* transition can stand for many head symbols),
//! * a per-state, symbol-sorted head index ([`Pds::rules_for`], the
//!   `post*` hot lookup) — binary search over a small sorted array
//!   instead of hashing a `(StateId, SymbolId)` pair.
//!
//! Both are keyed on what a rule *consumes*; nothing is indexed by what a
//! rule produces, because forward saturation never asks.
//!
//! The head index is per-state sparse: AalWiNes-scale systems pair
//! hundreds of thousands of control states with tens of thousands of
//! stack symbols, so a dense `states × symbols` table is not an option —
//! but each individual state touches only a handful of head symbols,
//! which a sorted array serves without hashing.

use crate::semiring::Weight;
use std::fmt;

/// A control state of a pushdown system (a dense index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StateId(pub u32);

/// A stack symbol of a pushdown system (a dense index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SymbolId(pub u32);

/// Identifies a rule within its [`Pds`] (a dense index).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RuleId(pub u32);

impl StateId {
    /// The dense index of this state.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl SymbolId {
    /// The dense index of this symbol.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl RuleId {
    /// The dense index of this rule.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a rule writes back in place of the consumed top-of-stack symbol.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RuleOp {
    /// `<p, γ> → <p', ε>`: remove the top symbol.
    Pop,
    /// `<p, γ> → <p', γ'>`: replace the top symbol by `γ'`.
    Swap(SymbolId),
    /// `<p, γ> → <p', γ₁ γ₂>`: replace the top symbol by the two-symbol
    /// word `γ₁ γ₂`, where `γ₁` becomes the new top of stack.
    Push(SymbolId, SymbolId),
}

/// A single normal-form rule `<from, sym> → <to, op>` with weight and a
/// client-supplied `tag` used to map witness runs back to domain objects
/// (AalWiNes stores an index into its network-action table here).
#[derive(Clone, Debug)]
pub struct Rule<W> {
    /// Source control state.
    pub from: StateId,
    /// Top-of-stack symbol consumed by the rule.
    pub sym: SymbolId,
    /// Target control state.
    pub to: StateId,
    /// Replacement for the consumed symbol.
    pub op: RuleOp,
    /// Semiring weight of firing this rule once.
    pub weight: W,
    /// Opaque client data carried into witness runs.
    pub tag: u64,
}

/// A per-state multimap from symbol to rule ids, kept sorted by symbol so
/// lookups are a binary search over a small contiguous array (no hashing).
#[derive(Clone, Debug, Default)]
struct SymRules {
    syms: Vec<SymbolId>,
    lists: Vec<Vec<RuleId>>,
}

const NO_RULES: &[RuleId] = &[];

impl SymRules {
    #[inline]
    fn push(&mut self, g: SymbolId, r: RuleId) {
        match self.syms.binary_search(&g) {
            Ok(i) => self.lists[i].push(r),
            Err(i) => {
                self.syms.insert(i, g);
                self.lists.insert(i, vec![r]);
            }
        }
    }

    #[inline]
    fn get(&self, g: SymbolId) -> &[RuleId] {
        match self.syms.binary_search(&g) {
            Ok(i) => &self.lists[i],
            Err(_) => NO_RULES,
        }
    }
}

/// Per-state rule indexes, both maintained incrementally by
/// [`Pds::add_rule`].
#[derive(Clone, Debug, Default)]
struct StateIndex {
    /// All rules with this state on the left-hand side, insertion order.
    all: Vec<RuleId>,
    /// Rules by consumed head symbol (`post*` forward lookup).
    by_head: SymRules,
}

/// A weighted pushdown system: a set of control states, a stack alphabet,
/// and a list of normal-form rules with the construction-time indexes
/// `post*` reads (see the module docs).
#[derive(Clone)]
pub struct Pds<W> {
    n_states: u32,
    n_symbols: u32,
    rules: Vec<Rule<W>>,
    states: Vec<StateIndex>,
}

impl<W: Weight> Pds<W> {
    /// Create an empty PDS with `n_states` control states and `n_symbols`
    /// stack symbols.
    pub fn new(n_states: u32, n_symbols: u32) -> Self {
        Pds {
            n_states,
            n_symbols,
            rules: Vec::new(),
            states: vec![StateIndex::default(); n_states as usize],
        }
    }

    /// Number of control states.
    pub fn num_states(&self) -> u32 {
        self.n_states
    }

    /// Number of stack symbols.
    pub fn num_symbols(&self) -> u32 {
        self.n_symbols
    }

    /// Number of rules.
    pub fn num_rules(&self) -> usize {
        self.rules.len()
    }

    /// Allocate an additional control state and return its id.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId(self.n_states);
        self.n_states += 1;
        self.states.push(StateIndex::default());
        id
    }

    /// Add a rule `<from, sym> → <to, op>` and return its id.
    pub fn add_rule(
        &mut self,
        from: StateId,
        sym: SymbolId,
        to: StateId,
        op: RuleOp,
        weight: W,
        tag: u64,
    ) -> RuleId {
        debug_assert!(from.0 < self.n_states, "state out of range");
        debug_assert!(to.0 < self.n_states, "target state out of range");
        debug_assert!(sym.0 < self.n_symbols, "symbol out of range");
        let id = RuleId(self.rules.len() as u32);
        self.rules.push(Rule {
            from,
            sym,
            to,
            op,
            weight,
            tag,
        });
        let index = &mut self.states[from.index()];
        index.all.push(id);
        index.by_head.push(sym, id);
        id
    }

    /// The rule with the given id.
    pub fn rule(&self, id: RuleId) -> &Rule<W> {
        &self.rules[id.index()]
    }

    /// All rules, in insertion order.
    pub fn rules(&self) -> &[Rule<W>] {
        &self.rules
    }

    /// Ids of rules whose left-hand side is `<from, sym>`.
    pub fn rules_for(&self, from: StateId, sym: SymbolId) -> &[RuleId] {
        self.states[from.index()].by_head.get(sym)
    }

    /// Ids of all rules whose left-hand side state is `from`, in
    /// insertion order. Used when a symbolic (filter) transition may
    /// match many head symbols at once.
    pub fn rules_of_state(&self, from: StateId) -> &[RuleId] {
        &self.states[from.index()].all
    }

    /// Build a new PDS containing only the rules for which `keep` returns
    /// true. State and symbol spaces are preserved (ids remain valid);
    /// rule ids are *not* preserved.
    pub fn filter_rules(&self, mut keep: impl FnMut(&Rule<W>) -> bool) -> Pds<W> {
        let mut out = Pds::new(self.n_states, self.n_symbols);
        for r in &self.rules {
            if keep(r) {
                out.add_rule(r.from, r.sym, r.to, r.op, r.weight.clone(), r.tag);
            }
        }
        out
    }
}

impl<W: fmt::Debug> fmt::Debug for Pds<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pds")
            .field("n_states", &self.n_states)
            .field("n_symbols", &self.n_symbols)
            .field("n_rules", &self.rules.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::Unweighted;

    #[test]
    fn add_and_lookup_rules() {
        let mut pds = Pds::<Unweighted>::new(2, 3);
        let r0 = pds.add_rule(
            StateId(0),
            SymbolId(1),
            StateId(1),
            RuleOp::Pop,
            Unweighted,
            7,
        );
        let r1 = pds.add_rule(
            StateId(0),
            SymbolId(1),
            StateId(0),
            RuleOp::Swap(SymbolId(2)),
            Unweighted,
            8,
        );
        assert_eq!(pds.num_rules(), 2);
        assert_eq!(pds.rules_for(StateId(0), SymbolId(1)), &[r0, r1]);
        assert!(pds.rules_for(StateId(1), SymbolId(1)).is_empty());
        assert_eq!(pds.rule(r0).tag, 7);
        assert_eq!(pds.rule(r1).op, RuleOp::Swap(SymbolId(2)));
        assert_eq!(pds.rules_of_state(StateId(0)), &[r0, r1]);
        assert!(pds.rules_of_state(StateId(1)).is_empty());
    }

    #[test]
    fn add_state_grows_head_index() {
        let mut pds = Pds::<Unweighted>::new(1, 2);
        let s = pds.add_state();
        assert_eq!(s, StateId(1));
        let r = pds.add_rule(s, SymbolId(0), StateId(0), RuleOp::Pop, Unweighted, 0);
        assert_eq!(pds.rules_for(s, SymbolId(0)), &[r]);
        assert_eq!(pds.rules_of_state(s), &[r]);
    }

    #[test]
    fn filter_rules_preserves_kept() {
        let mut pds = Pds::<Unweighted>::new(2, 3);
        // Tags are the insertion order; heads interleave states and symbols
        // so that no index is accidentally sorted by tag.
        let heads = [(1, 2), (0, 1), (1, 2), (0, 0), (0, 1), (1, 0), (0, 1)];
        for (tag, (p, g)) in heads.into_iter().enumerate() {
            pds.add_rule(
                StateId(p),
                SymbolId(g),
                StateId(0),
                RuleOp::Pop,
                Unweighted,
                tag as u64,
            );
        }
        let kept = pds.filter_rules(|r| r.tag != 1 && r.tag != 5);
        let tags = |ids: &[RuleId]| ids.iter().map(|&r| kept.rule(r).tag).collect::<Vec<_>>();

        // Kept rules keep their relative insertion order everywhere a
        // saturation reads them: that order picks which of several equal
        // witnesses is found (and then remembered by the answer cache).
        let all: Vec<u64> = kept.rules().iter().map(|r| r.tag).collect();
        assert_eq!(all, [0, 2, 3, 4, 6]);
        assert_eq!(tags(kept.rules_of_state(StateId(0))), [3, 4, 6]);
        assert_eq!(tags(kept.rules_of_state(StateId(1))), [0, 2]);
        assert_eq!(tags(kept.rules_for(StateId(0), SymbolId(1))), [4, 6]);
        assert_eq!(tags(kept.rules_for(StateId(0), SymbolId(0))), [3]);
        assert_eq!(tags(kept.rules_for(StateId(1), SymbolId(2))), [0, 2]);
        assert!(kept.rules_for(StateId(1), SymbolId(0)).is_empty());
    }

    #[test]
    fn many_heads_per_state_stay_sorted() {
        let mut pds = Pds::<Unweighted>::new(1, 64);
        // Insert heads in reverse symbol order to exercise sorted insert.
        let mut ids = Vec::new();
        for g in (0..64u32).rev() {
            ids.push((
                g,
                pds.add_rule(
                    StateId(0),
                    SymbolId(g),
                    StateId(0),
                    RuleOp::Pop,
                    Unweighted,
                    g as u64,
                ),
            ));
        }
        for (g, id) in ids {
            assert_eq!(pds.rules_for(StateId(0), SymbolId(g)), &[id]);
        }
        assert_eq!(pds.rules_of_state(StateId(0)).len(), 64);
    }
}

//! Weight domains for weighted pushdown systems.
//!
//! Every domain in this crate is a *totally ordered min-combine bounded
//! idempotent semiring*: the `combine` operation (⊕) is `min` with respect
//! to the type's `Ord` instance, and `extend` (⊗) is a commutative,
//! monotone, associative addition with neutral element [`Weight::one`].
//! Boundedness (no infinite descending chains) guarantees termination of
//! the saturation procedures; for the domains below it follows from
//! well-foundedness of `u64` under the usual order.
//!
//! The semiring's zero (the weight of "unreachable") is represented
//! implicitly: an absent transition has weight zero, so no explicit zero
//! element is needed in the type.

use std::fmt::Debug;
use std::hash::Hash;

/// A totally ordered min-combine semiring element.
///
/// Laws (in addition to `Ord` being a total order):
///
/// * `extend` is associative and **commutative**,
/// * `one().extend(&x) == x`,
/// * `extend` is monotone in both arguments: `a <= b` implies
///   `a.extend(&c) <= b.extend(&c)`,
/// * there are no infinite strictly descending chains of values that can
///   be produced by `extend` from a finite set of generators (boundedness).
///
/// Commutativity is a deliberate restriction compared to general weighted
/// pushdown systems: it lets the saturation code extend weights without
/// tracking the order in which rule weights are composed. All quantities
/// used by AalWiNes (hops, latency, tunnels, failures, and lexicographic
/// vectors of linear expressions over these) are commutative.
pub trait Weight: Clone + Eq + Ord + Hash + Debug {
    /// The neutral element of `extend` (the weight of the empty run).
    fn one() -> Self;
    /// The semiring extend operation (⊗): composes weights along a run.
    fn extend(&self, other: &Self) -> Self;
    /// The semiring combine operation (⊕): picks the better of two weights.
    ///
    /// Provided: `min` by `Ord`. Implementors must not override this in a
    /// way that disagrees with `Ord`.
    fn combine(&self, other: &Self) -> Self {
        if self <= other {
            self.clone()
        } else {
            other.clone()
        }
    }
}

/// The trivial one-point weight domain: plain (unweighted) reachability.
///
/// Using this type turns the weighted saturation procedures into the
/// classic Bouajjani–Esparza–Maler / Schwoon algorithms with no overhead
/// beyond a zero-sized field.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Unweighted;

impl Weight for Unweighted {
    fn one() -> Self {
        Unweighted
    }
    fn extend(&self, _other: &Self) -> Self {
        Unweighted
    }
}

/// The tropical semiring over `u64`: `combine = min`, `extend = saturating +`.
///
/// This is the domain for a single atomic quantity or a single linear
/// expression (hops, latency, tunnels, failures, …).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct MinTotal(pub u64);

impl Weight for MinTotal {
    fn one() -> Self {
        MinTotal(0)
    }
    fn extend(&self, other: &Self) -> Self {
        MinTotal(self.0.saturating_add(other.0))
    }
}

/// Lexicographic min-plus vectors: the domain for AalWiNes' vectors of
/// linear expressions `(expr_1, …, expr_n)` ordered by priority.
///
/// `combine` is lexicographic minimum (derived `Ord` on `Vec<u64>`),
/// `extend` is componentwise saturating addition. All vectors flowing
/// through one solver run must have the same length; this is enforced by
/// construction in the AalWiNes weight compiler and checked here in debug
/// builds.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct MinVector(pub Vec<u64>);

impl MinVector {
    /// A vector of `n` zero components (the `one` of an `n`-ary domain).
    pub fn zeros(n: usize) -> Self {
        MinVector(vec![0; n])
    }
}

impl Weight for MinVector {
    /// The empty vector acts as a polymorphic neutral element: extending
    /// by it leaves the other operand unchanged regardless of arity.
    fn one() -> Self {
        MinVector(Vec::new())
    }
    fn extend(&self, other: &Self) -> Self {
        if self.0.is_empty() {
            return other.clone();
        }
        if other.0.is_empty() {
            return self.clone();
        }
        debug_assert_eq!(
            self.0.len(),
            other.0.len(),
            "MinVector arity mismatch in extend"
        );
        MinVector(
            self.0
                .iter()
                .zip(other.0.iter())
                .map(|(a, b)| a.saturating_add(*b))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unweighted_is_trivial() {
        assert_eq!(Unweighted::one(), Unweighted);
        assert_eq!(Unweighted.extend(&Unweighted), Unweighted);
        assert_eq!(Unweighted.combine(&Unweighted), Unweighted);
    }

    #[test]
    fn min_total_semiring_laws() {
        let (a, b, c) = (MinTotal(3), MinTotal(5), MinTotal(11));
        assert_eq!(a.extend(&MinTotal::one()), a);
        assert_eq!(a.extend(&b), b.extend(&a));
        assert_eq!(a.extend(&b).extend(&c), a.extend(&b.extend(&c)));
        assert_eq!(a.combine(&b), a);
        assert_eq!(b.combine(&a), a);
    }

    #[test]
    fn min_total_saturates() {
        assert_eq!(MinTotal(u64::MAX).extend(&MinTotal(1)), MinTotal(u64::MAX));
    }

    #[test]
    fn min_vector_lexicographic_order() {
        let a = MinVector(vec![5, 0]);
        let b = MinVector(vec![5, 7]);
        let c = MinVector(vec![4, 100]);
        assert!(a < b);
        assert!(c < a);
        assert_eq!(a.combine(&b), a);
        assert_eq!(a.combine(&c), c);
    }

    #[test]
    fn min_vector_extend_componentwise() {
        let a = MinVector(vec![1, 2]);
        let b = MinVector(vec![10, 20]);
        assert_eq!(a.extend(&b), MinVector(vec![11, 22]));
    }

    #[test]
    fn min_vector_empty_one_is_neutral() {
        let a = MinVector(vec![1, 2, 3]);
        assert_eq!(MinVector::one().extend(&a), a);
        assert_eq!(a.extend(&MinVector::one()), a);
    }

    #[test]
    fn min_vector_extend_monotone() {
        let lo = MinVector(vec![1, 5]);
        let hi = MinVector(vec![2, 0]);
        let w = MinVector(vec![3, 3]);
        assert!(lo < hi);
        assert!(lo.extend(&w) < hi.extend(&w));
    }
}

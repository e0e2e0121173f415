//! Atomic quantities, linear expressions, and their compilation to
//! semiring weights (paper Section 3).
//!
//! A *weight specification* is a priority-ordered vector of linear
//! expressions over the five atomic quantities. During PDS construction,
//! every forwarding step is summarized by a [`StepMeasure`]; the
//! specification evaluates the measure to one `u64` per expression, and
//! the resulting vectors live in the lexicographic
//! [`MinVector`] semiring.
//!
//! One deliberate deviation from the paper: `Hops(σ)` is defined there as
//! the number of *distinct* non-self-loop links, which is not expressible
//! as a per-step semiring weight. The weight compiler counts non-self-loop
//! steps instead; the two coincide on traces that do not revisit links
//! (in particular on the loop-free minimum witnesses the engine favours),
//! and trace-level evaluation ([`netmodel::Trace::hops`]) remains exact.

use pdaal::MinVector;
use std::fmt;

/// The atomic quantities of Section 3.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AtomicQuantity {
    /// `Links(σ)`: number of links traversed (trace length).
    Links,
    /// `Hops(σ)`: non-self-loop links traversed (see module docs).
    Hops,
    /// `Distance(σ)`: sum of the per-link distance function.
    Distance,
    /// `Failures(σ)`: per step, the number of links in higher-priority
    /// traffic-engineering groups than the one used.
    Failures,
    /// `Tunnels(σ)`: total label-stack growth (tunnels entered).
    Tunnels,
}

impl fmt::Display for AtomicQuantity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AtomicQuantity::Links => "Links",
            AtomicQuantity::Hops => "Hops",
            AtomicQuantity::Distance => "Distance",
            AtomicQuantity::Failures => "Failures",
            AtomicQuantity::Tunnels => "Tunnels",
        };
        write!(f, "{s}")
    }
}

/// A linear expression `a₁·p₁ + a₂·p₂ + …` over atomic quantities.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct LinearExpr {
    /// `(coefficient, quantity)` terms; the expression is their sum.
    pub terms: Vec<(u64, AtomicQuantity)>,
}

impl LinearExpr {
    /// The expression `1·q`.
    pub fn atom(q: AtomicQuantity) -> Self {
        LinearExpr {
            terms: vec![(1, q)],
        }
    }

    /// The expression `a·q`.
    pub fn scaled(a: u64, q: AtomicQuantity) -> Self {
        LinearExpr {
            terms: vec![(a, q)],
        }
    }

    /// Add a term to the expression (builder style).
    pub fn plus(mut self, a: u64, q: AtomicQuantity) -> Self {
        self.terms.push((a, q));
        self
    }

    /// Evaluate on a per-step measure.
    pub fn eval(&self, m: &StepMeasure) -> u64 {
        self.terms
            .iter()
            .map(|(a, q)| a.saturating_mul(m.get(*q)))
            .fold(0u64, u64::saturating_add)
    }
}

impl fmt::Display for LinearExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        for (i, (a, q)) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " + ")?;
            }
            if *a == 1 {
                write!(f, "{q}")?;
            } else {
                write!(f, "{a}*{q}")?;
            }
        }
        Ok(())
    }
}

/// A priority-ordered vector of linear expressions — the paper's
/// `(expr₁, …, exprₙ)` minimized lexicographically.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct WeightSpec {
    /// The expressions, highest priority first.
    pub exprs: Vec<LinearExpr>,
}

impl WeightSpec {
    /// A specification with a single atomic quantity (e.g. `Failures`,
    /// the paper's weighted-engine benchmark configuration).
    pub fn single(q: AtomicQuantity) -> Self {
        WeightSpec {
            exprs: vec![LinearExpr::atom(q)],
        }
    }

    /// Build from expressions, highest priority first.
    pub fn lexicographic(exprs: Vec<LinearExpr>) -> Self {
        WeightSpec { exprs }
    }

    /// Number of components.
    pub fn arity(&self) -> usize {
        self.exprs.len()
    }

    /// Compile a per-step measure into a weight vector.
    pub fn weigh(&self, m: &StepMeasure) -> MinVector {
        MinVector(self.exprs.iter().map(|e| e.eval(m)).collect())
    }

    /// The zero vector of matching arity (for zero-cost structural rules).
    pub fn zero(&self) -> MinVector {
        MinVector::zeros(self.arity())
    }

    /// Parse a specification like `"Hops, Failures + 3*Tunnels"`:
    /// comma-separated expressions (highest priority first), each a
    /// `+`-separated sum of `[coeff*]quantity` terms. Quantity names are
    /// case-insensitive; `latency` is accepted as an alias for
    /// `Distance`.
    ///
    /// ```
    /// use aalwines::WeightSpec;
    /// let spec = WeightSpec::parse("Hops, Failures + 3*Tunnels").unwrap();
    /// assert_eq!(format!("{spec}"), "(Hops, Failures + 3*Tunnels)");
    /// assert!(WeightSpec::parse("2*Speed").is_err());
    /// ```
    pub fn parse(text: &str) -> Result<Self, WeightSpecError> {
        let mut exprs = Vec::new();
        for part in text.split(',') {
            let mut expr = LinearExpr::default();
            for term in part.split('+') {
                let term = term.trim();
                if term.is_empty() {
                    return Err(WeightSpecError::EmptyTerm {
                        expr: part.trim().to_string(),
                    });
                }
                let (coeff, name) = match term.split_once('*') {
                    Some((a, q)) => {
                        let coeff = a.trim().parse::<u64>().map_err(|_| {
                            WeightSpecError::BadCoefficient {
                                term: term.to_string(),
                            }
                        })?;
                        (coeff, q.trim())
                    }
                    None => (1, term),
                };
                let quantity = match name.to_ascii_lowercase().as_str() {
                    "links" => AtomicQuantity::Links,
                    "hops" => AtomicQuantity::Hops,
                    "distance" | "latency" => AtomicQuantity::Distance,
                    "failures" => AtomicQuantity::Failures,
                    "tunnels" => AtomicQuantity::Tunnels,
                    _ => {
                        return Err(WeightSpecError::UnknownQuantity {
                            name: name.to_string(),
                        })
                    }
                };
                expr = expr.plus(coeff, quantity);
            }
            exprs.push(expr);
        }
        Ok(WeightSpec::lexicographic(exprs))
    }
}

/// Errors from [`WeightSpec::parse`].
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum WeightSpecError {
    /// An expression contained an empty `+`-separated term.
    EmptyTerm {
        /// The offending expression.
        expr: String,
    },
    /// A `coeff*quantity` term had a non-numeric coefficient.
    BadCoefficient {
        /// The offending term.
        term: String,
    },
    /// A quantity name is not one of the five atomic quantities (or the
    /// `latency` alias).
    UnknownQuantity {
        /// The unrecognized name.
        name: String,
    },
}

impl fmt::Display for WeightSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightSpecError::EmptyTerm { expr } => {
                write!(f, "empty term in weight expression {expr:?}")
            }
            WeightSpecError::BadCoefficient { term } => {
                write!(f, "bad coefficient in weight term {term:?}")
            }
            WeightSpecError::UnknownQuantity { name } => write!(
                f,
                "unknown quantity {name:?} (expected Links, Hops, Distance/latency, \
                 Failures, or Tunnels)"
            ),
        }
    }
}

impl std::error::Error for WeightSpecError {}

impl fmt::Display for WeightSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, e) in self.exprs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")
    }
}

/// Everything a single forwarding step (or the initial link traversal)
/// contributes to the atomic quantities.
#[derive(Clone, Copy, Debug, Default)]
pub struct StepMeasure {
    /// 1 for every step (`Links`).
    pub links: u64,
    /// 1 unless the traversed link is a self-loop (`Hops`, see module
    /// docs for the deviation on revisited links).
    pub hops: u64,
    /// Distance of the traversed link.
    pub distance: u64,
    /// Locally-required failures to activate the group used.
    pub failures: u64,
    /// `max(0, net label-stack growth)` of the applied operations.
    pub tunnels: u64,
}

impl StepMeasure {
    /// Value of one atomic quantity in this measure.
    pub fn get(&self, q: AtomicQuantity) -> u64 {
        match q {
            AtomicQuantity::Links => self.links,
            AtomicQuantity::Hops => self.hops,
            AtomicQuantity::Distance => self.distance,
            AtomicQuantity::Failures => self.failures,
            AtomicQuantity::Tunnels => self.tunnels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measure() -> StepMeasure {
        StepMeasure {
            links: 1,
            hops: 1,
            distance: 7,
            failures: 2,
            tunnels: 3,
        }
    }

    #[test]
    fn atom_evaluates_directly() {
        let e = LinearExpr::atom(AtomicQuantity::Distance);
        assert_eq!(e.eval(&measure()), 7);
    }

    #[test]
    fn linear_combination() {
        // Failures + 3*Tunnels = 2 + 9 = 11 (the paper's Figure 2 spec).
        let e = LinearExpr::atom(AtomicQuantity::Failures).plus(3, AtomicQuantity::Tunnels);
        assert_eq!(e.eval(&measure()), 11);
    }

    #[test]
    fn weight_spec_vectors_are_lexicographic() {
        let spec = WeightSpec::lexicographic(vec![
            LinearExpr::atom(AtomicQuantity::Hops),
            LinearExpr::atom(AtomicQuantity::Failures).plus(3, AtomicQuantity::Tunnels),
        ]);
        let w = spec.weigh(&measure());
        assert_eq!(w, MinVector(vec![1, 11]));
        assert_eq!(spec.zero(), MinVector(vec![0, 0]));
        // lexicographic comparison as in the paper's example: (5,0) ⊑ (5,7)
        assert!(MinVector(vec![5, 0]) < MinVector(vec![5, 7]));
    }

    #[test]
    fn display_formats() {
        let spec = WeightSpec::lexicographic(vec![
            LinearExpr::atom(AtomicQuantity::Hops),
            LinearExpr::atom(AtomicQuantity::Failures).plus(3, AtomicQuantity::Tunnels),
        ]);
        assert_eq!(format!("{spec}"), "(Hops, Failures + 3*Tunnels)");
    }

    #[test]
    fn parse_round_trips_display() {
        for text in ["Hops", "Failures + 3*Tunnels", "Hops, Failures + 3*Tunnels"] {
            let spec = WeightSpec::parse(text).expect(text);
            assert_eq!(format!("{spec}"), format!("({text})"));
        }
    }

    #[test]
    fn parse_accepts_aliases_and_case() {
        let spec = WeightSpec::parse("LATENCY, 2*failures").unwrap();
        assert_eq!(format!("{spec}"), "(Distance, 2*Failures)");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(matches!(
            WeightSpec::parse("Hops + "),
            Err(WeightSpecError::EmptyTerm { .. })
        ));
        assert!(matches!(
            WeightSpec::parse("x*Hops"),
            Err(WeightSpecError::BadCoefficient { .. })
        ));
        assert!(matches!(
            WeightSpec::parse("Velocity"),
            Err(WeightSpecError::UnknownQuantity { .. })
        ));
    }

    #[test]
    fn saturating_arithmetic() {
        let e = LinearExpr::scaled(u64::MAX, AtomicQuantity::Tunnels);
        assert_eq!(e.eval(&measure()), u64::MAX);
    }
}

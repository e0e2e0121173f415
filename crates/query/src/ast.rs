//! Abstract syntax of queries.

use std::fmt;

/// A generic regular expression over atoms of type `A`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Regex<A> {
    /// The empty word.
    Epsilon,
    /// A single atom.
    Atom(A),
    /// Concatenation, in order.
    Concat(Vec<Regex<A>>),
    /// Alternation.
    Alt(Vec<Regex<A>>),
    /// Kleene star.
    Star(Box<Regex<A>>),
    /// One or more repetitions.
    Plus(Box<Regex<A>>),
    /// Zero or one occurrence.
    Opt(Box<Regex<A>>),
}

impl<A> Regex<A> {
    /// Concatenate two regexes, flattening nested concatenations.
    pub fn then(self, other: Regex<A>) -> Regex<A> {
        match (self, other) {
            (Regex::Epsilon, r) | (r, Regex::Epsilon) => r,
            (Regex::Concat(mut a), Regex::Concat(b)) => {
                a.extend(b);
                Regex::Concat(a)
            }
            (Regex::Concat(mut a), r) => {
                a.push(r);
                Regex::Concat(a)
            }
            (l, Regex::Concat(mut b)) => {
                b.insert(0, l);
                Regex::Concat(b)
            }
            (l, r) => Regex::Concat(vec![l, r]),
        }
    }
}

/// An atom of a label regex.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum LabelAtom {
    /// `.` — any label.
    Any,
    /// `ip` — any IP label.
    Ip,
    /// `mpls` — any plain MPLS label.
    Mpls,
    /// `smpls` — any bottom-of-stack MPLS label.
    Smpls,
    /// A literal label name.
    Lit(String),
    /// `[n1,n2,…]` — any of the listed label names.
    Set(Vec<String>),
    /// `[^n1,n2,…]` — any label *except* the listed names (an
    /// expressiveness extension in the spirit of the paper's link-atom
    /// complement).
    NotSet(Vec<String>),
}

/// One side of a link atom.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Endpoint {
    /// `.` — any router.
    Any,
    /// A router by name.
    Router(String),
    /// A router and interface name (`R0.ae1.11` splits at the first dot).
    RouterIface(String, String),
}

/// An atom of a link regex: `[from#to]`, optionally negated (`[^from#to]`
/// matches every link *not* matched by `[from#to]`). The bare `.` is
/// represented as a non-negated `Any#Any`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LinkAtom {
    /// Whether the atom is complemented.
    pub negated: bool,
    /// Constraint on the link's source router/interface.
    pub from: Endpoint,
    /// Constraint on the link's target router/interface.
    pub to: Endpoint,
}

impl LinkAtom {
    /// The `.` atom: any link.
    pub fn any() -> Self {
        LinkAtom {
            negated: false,
            from: Endpoint::Any,
            to: Endpoint::Any,
        }
    }
}

/// A full reachability query `<initial> path <final> k`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Query {
    /// Constraint `a` on the initial header.
    pub initial: Regex<LabelAtom>,
    /// Constraint `b` on the link sequence.
    pub path: Regex<LinkAtom>,
    /// Constraint `c` on the final header.
    pub final_: Regex<LabelAtom>,
    /// Maximum number of failed links `k`.
    pub max_failures: u32,
}

impl fmt::Display for LabelAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelAtom::Any => write!(f, "."),
            LabelAtom::Ip => write!(f, "ip"),
            LabelAtom::Mpls => write!(f, "mpls"),
            LabelAtom::Smpls => write!(f, "smpls"),
            LabelAtom::Lit(n) => write!(f, "{n}"),
            LabelAtom::Set(ns) => write!(f, "[{}]", ns.join(",")),
            LabelAtom::NotSet(ns) => write!(f, "[^{}]", ns.join(",")),
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Any => write!(f, "."),
            Endpoint::Router(r) => write!(f, "{r}"),
            Endpoint::RouterIface(r, i) => write!(f, "{r}.{i}"),
        }
    }
}

impl fmt::Display for LinkAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.negated && self.from == Endpoint::Any && self.to == Endpoint::Any {
            return write!(f, ".");
        }
        write!(
            f,
            "[{}{}#{}]",
            if self.negated { "^" } else { "" },
            self.from,
            self.to
        )
    }
}

fn fmt_regex<A: fmt::Display>(
    r: &Regex<A>,
    f: &mut fmt::Formatter<'_>,
    parent_tight: bool,
) -> fmt::Result {
    match r {
        Regex::Epsilon => Ok(()),
        Regex::Atom(a) => write!(f, "{a}"),
        Regex::Concat(parts) => {
            if parent_tight {
                write!(f, "(")?;
            }
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                fmt_regex(p, f, false)?;
            }
            if parent_tight {
                write!(f, ")")?;
            }
            Ok(())
        }
        Regex::Alt(parts) => {
            write!(f, "(")?;
            for (i, p) in parts.iter().enumerate() {
                if i > 0 {
                    write!(f, "|")?;
                }
                fmt_regex(p, f, false)?;
            }
            write!(f, ")")
        }
        Regex::Star(inner) => {
            fmt_regex(inner, f, true)?;
            write!(f, "*")
        }
        Regex::Plus(inner) => {
            fmt_regex(inner, f, true)?;
            write!(f, "+")
        }
        Regex::Opt(inner) => {
            fmt_regex(inner, f, true)?;
            write!(f, "?")
        }
    }
}

impl<A: fmt::Display> fmt::Display for Regex<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_regex(self, f, false)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "<{}> {} <{}> {}",
            self.initial, self.path, self.final_, self.max_failures
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn then_flattens() {
        let a = Regex::Atom(LabelAtom::Ip);
        let b = Regex::Atom(LabelAtom::Mpls);
        let c = Regex::Atom(LabelAtom::Smpls);
        let r = a.then(b).then(c);
        match r {
            Regex::Concat(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected concat, got {other:?}"),
        }
    }

    #[test]
    fn then_with_epsilon_is_identity() {
        let a = Regex::Atom(LabelAtom::Ip);
        assert_eq!(a.clone().then(Regex::Epsilon), a);
        assert_eq!(Regex::Epsilon.then(a.clone()), a);
    }

    #[test]
    fn display_round_trip_shapes() {
        let q = Query {
            initial: Regex::Atom(LabelAtom::Smpls).then(Regex::Atom(LabelAtom::Ip)),
            path: Regex::Atom(LinkAtom::any())
                .then(Regex::Star(Box::new(Regex::Atom(LinkAtom::any())))),
            final_: Regex::Opt(Box::new(Regex::Atom(LabelAtom::Smpls)))
                .then(Regex::Atom(LabelAtom::Ip)),
            max_failures: 2,
        };
        assert_eq!(format!("{q}"), "<smpls ip> . .* <smpls? ip> 2");
    }
}

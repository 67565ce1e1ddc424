//! Terms of the navigation calculus.
//!
//! Symbols are interned into a global table ([`Sym`] is a `u32`), so term
//! comparison and hashing never touch string data on the hot path — the
//! interpreter unifies millions of terms while iterating "More" pages.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// An interned symbol (atom, functor, attribute, or object name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

/// Interned names live for the rest of the process (the table never
/// shrinks), so they are leaked once and handed out as `&'static str`.
struct Interner {
    map: HashMap<&'static str, Sym>,
    names: Vec<&'static str>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| RwLock::new(Interner { map: HashMap::new(), names: Vec::new() }))
}

impl Sym {
    /// Intern `name`, returning its symbol.
    pub fn new(name: &str) -> Sym {
        {
            let int = interner().read();
            if let Some(&s) = int.map.get(name) {
                return s;
            }
        }
        let mut int = interner().write();
        if let Some(&s) = int.map.get(name) {
            return s;
        }
        let s = Sym(int.names.len() as u32);
        let name: &'static str = Box::leak(name.into());
        int.names.push(name);
        int.map.insert(name, s);
        s
    }

    /// The interned string for this symbol, borrowed.
    pub fn as_str(self) -> &'static str {
        interner().read().names[self.0 as usize]
    }

    /// The interned string for this symbol, copied.
    pub fn name(self) -> String {
        self.as_str().to_string()
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Sym {
        Sym::new(s)
    }
}

/// A logical variable, identified by index within its clause/query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// A term: variable, atom, integer, float, string, or compound.
///
/// `Eq`/`Hash` treat floats by bit pattern; the engine never constructs
/// NaN (floats only arise from parsing prices and rates), so `Eq`'s
/// reflexivity holds in practice.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    Var(Var),
    /// An atomic symbol — also serves as an object identifier in F-logic
    /// molecules.
    Atom(Sym),
    Int(i64),
    /// Floats appear in prices and rates; they never unify with ints.
    Float(f64),
    Str(String),
    /// `f(t1, …, tn)` — compound terms model structured oids such as
    /// `page(url)` and `tuple(Make, Model, …)`.
    Compound(Sym, Vec<Term>),
}

impl Eq for Term {}

impl std::hash::Hash for Term {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Term::Var(v) => v.hash(state),
            Term::Atom(s) => s.hash(state),
            Term::Int(i) => i.hash(state),
            Term::Float(f) => f.to_bits().hash(state),
            Term::Str(s) => s.hash(state),
            Term::Compound(f, args) => {
                f.hash(state);
                args.hash(state);
            }
        }
    }
}

impl Term {
    pub fn atom(name: &str) -> Term {
        Term::Atom(Sym::new(name))
    }

    pub fn compound(name: &str, args: Vec<Term>) -> Term {
        Term::Compound(Sym::new(name), args)
    }

    pub fn str(s: impl Into<String>) -> Term {
        Term::Str(s.into())
    }

    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Compound(_, args) => args.iter().all(Term::is_ground),
            _ => true,
        }
    }

    /// Collect the variables occurring in this term, in first-occurrence
    /// order, into `out` (duplicates skipped).
    pub fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            Term::Var(v) if !out.contains(v) => {
                out.push(*v);
            }
            Term::Compound(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            _ => {}
        }
    }

    /// Renumber every variable by adding `offset` — used to freshen rule
    /// clauses before resolution.
    pub fn offset_vars(&self, offset: u32) -> Term {
        match self {
            Term::Var(Var(v)) => Term::Var(Var(v + offset)),
            Term::Compound(f, args) => {
                Term::Compound(*f, args.iter().map(|a| a.offset_vars(offset)).collect())
            }
            other => other.clone(),
        }
    }

    /// Highest variable index occurring in the term plus one (0 if none).
    pub fn var_ceiling(&self) -> u32 {
        match self {
            Term::Var(Var(v)) => v + 1,
            Term::Compound(_, args) => args.iter().map(Term::var_ceiling).max().unwrap_or(0),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let a = Sym::new("newsday");
        let b = Sym::new("newsday");
        assert_eq!(a, b);
        assert_eq!(a.name(), "newsday");
        assert_ne!(Sym::new("x"), Sym::new("y"));
    }

    #[test]
    fn groundness() {
        assert!(Term::atom("a").is_ground());
        assert!(!Term::Var(Var(0)).is_ground());
        assert!(!Term::compound("f", vec![Term::Int(1), Term::Var(Var(2))]).is_ground());
        assert!(Term::compound("f", vec![Term::Int(1), Term::str("x")]).is_ground());
    }

    #[test]
    fn collect_vars_dedups_in_order() {
        let t = Term::compound("f", vec![Term::Var(Var(3)), Term::Var(Var(1)), Term::Var(Var(3))]);
        let mut vs = Vec::new();
        t.collect_vars(&mut vs);
        assert_eq!(vs, vec![Var(3), Var(1)]);
    }

    #[test]
    fn offset_vars_shifts_all() {
        let t = Term::compound("f", vec![Term::Var(Var(0)), Term::atom("a")]);
        let s = t.offset_vars(10);
        assert_eq!(s, Term::compound("f", vec![Term::Var(Var(10)), Term::atom("a")]));
        assert_eq!(s.var_ceiling(), 11);
    }

    #[test]
    fn floats_and_ints_distinct() {
        assert_ne!(Term::Int(1), Term::Float(1.0));
    }
}

//! Substitutions and unification.
//!
//! Bindings form a trail-backed union of variable → term assignments;
//! the interpreter records a watermark before trying an alternative and
//! pops the trail on backtracking, so undoing a failed branch is O(number
//! of bindings made in the branch), not O(total bindings).

use crate::term::{Term, Var};
use std::borrow::Cow;
use std::collections::HashMap;

/// A substitution with an undo trail.
#[derive(Debug, Default, Clone)]
pub struct Bindings {
    map: HashMap<Var, Term>,
    trail: Vec<Var>,
}

/// A trail watermark: pass to [`Bindings::undo_to`] to roll back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark(usize);

impl Bindings {
    pub fn new() -> Self {
        Bindings::default()
    }

    pub fn mark(&self) -> Mark {
        Mark(self.trail.len())
    }

    /// Undo all bindings made since `mark`.
    pub fn undo_to(&mut self, mark: Mark) {
        while self.trail.len() > mark.0 {
            let v = self.trail.pop().expect("trail length checked");
            self.map.remove(&v);
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn bind(&mut self, v: Var, t: Term) {
        self.map.insert(v, t);
        self.trail.push(v);
    }

    /// Follow variable chains one step at a time until a non-variable or an
    /// unbound variable is reached.
    pub fn walk<'a>(&'a self, t: &'a Term) -> &'a Term {
        let mut cur = t;
        while let Term::Var(v) = cur {
            match self.map.get(v) {
                Some(next) => cur = next,
                None => return cur,
            }
        }
        cur
    }

    /// Fully apply the substitution to a term.
    pub fn resolve(&self, t: &Term) -> Term {
        let w = self.walk(t);
        match w {
            Term::Compound(f, args) => {
                Term::Compound(*f, args.iter().map(|a| self.resolve(a)).collect())
            }
            other => other.clone(),
        }
    }

    /// Does `v` occur in `t` under the current bindings?
    fn occurs(&self, v: Var, t: &Term) -> bool {
        match self.walk(t) {
            Term::Var(w) => *w == v,
            Term::Compound(_, args) => args.iter().any(|a| self.occurs(v, a)),
            _ => false,
        }
    }

    /// Unify two terms, extending the substitution. On failure the
    /// substitution is left unchanged (the caller's mark discipline also
    /// covers partial failure inside compounds).
    pub fn unify(&mut self, a: &Term, b: &Term) -> bool {
        let mark = self.mark();
        if self.unify_inner(a, b) {
            true
        } else {
            self.undo_to(mark);
            false
        }
    }

    fn unify_inner(&mut self, a: &Term, b: &Term) -> bool {
        // A term reached through a binding is copied out of the map, so
        // the map can grow below; the caller's own terms are borrowed.
        let wa = self.walk_out(a);
        let wb = self.walk_out(b);
        match (&*wa, &*wb) {
            (Term::Var(x), Term::Var(y)) if x == y => true,
            (Term::Var(x), t) | (t, Term::Var(x)) => {
                if self.occurs(*x, t) {
                    false // occurs check keeps navigation terms finite
                } else {
                    self.bind(*x, t.clone());
                    true
                }
            }
            (Term::Atom(x), Term::Atom(y)) => x == y,
            (Term::Int(x), Term::Int(y)) => x == y,
            (Term::Float(x), Term::Float(y)) => x == y,
            (Term::Str(x), Term::Str(y)) => x == y,
            (Term::Compound(f, xs), Term::Compound(g, ys)) => {
                f == g
                    && xs.len() == ys.len()
                    && xs.iter().zip(ys).all(|(x, y)| self.unify_inner(x, y))
            }
            _ => false,
        }
    }

    /// [`Bindings::walk`], borrowing `t` itself when it is not a bound
    /// variable.
    fn walk_out<'t>(&self, t: &'t Term) -> Cow<'t, Term> {
        let w = self.walk(t);
        if std::ptr::eq(w, t) {
            Cow::Borrowed(t)
        } else {
            Cow::Owned(w.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{Term, Var};

    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }

    #[test]
    fn unify_var_with_atom() {
        let mut b = Bindings::new();
        assert!(b.unify(&v(0), &Term::atom("ford")));
        assert_eq!(b.resolve(&v(0)), Term::atom("ford"));
    }

    #[test]
    fn unify_compounds() {
        let mut b = Bindings::new();
        let t1 = Term::compound("car", vec![v(0), Term::atom("escort")]);
        let t2 = Term::compound("car", vec![Term::atom("ford"), v(1)]);
        assert!(b.unify(&t1, &t2));
        assert_eq!(b.resolve(&v(0)), Term::atom("ford"));
        assert_eq!(b.resolve(&v(1)), Term::atom("escort"));
    }

    #[test]
    fn arity_mismatch_fails_cleanly() {
        let mut b = Bindings::new();
        let t1 = Term::compound("f", vec![v(0)]);
        let t2 = Term::compound("f", vec![Term::Int(1), Term::Int(2)]);
        assert!(!b.unify(&t1, &t2));
        assert!(b.is_empty()); // failed unification left no bindings
    }

    #[test]
    fn partial_failure_rolls_back() {
        let mut b = Bindings::new();
        let t1 = Term::compound("f", vec![v(0), Term::atom("x")]);
        let t2 = Term::compound("f", vec![Term::atom("a"), Term::atom("y")]);
        assert!(!b.unify(&t1, &t2));
        assert!(b.is_empty()); // X=a must have been undone
    }

    #[test]
    fn occurs_check() {
        let mut b = Bindings::new();
        let t = Term::compound("f", vec![v(0)]);
        assert!(!b.unify(&v(0), &t));
    }

    #[test]
    fn trail_undo() {
        let mut b = Bindings::new();
        assert!(b.unify(&v(0), &Term::Int(1)));
        let m = b.mark();
        assert!(b.unify(&v(1), &Term::Int(2)));
        assert!(b.unify(&v(2), &Term::Int(3)));
        b.undo_to(m);
        assert_eq!(b.len(), 1);
        assert_eq!(b.resolve(&v(0)), Term::Int(1));
        assert_eq!(b.resolve(&v(1)), v(1));
    }

    #[test]
    fn variable_chains_resolve() {
        let mut b = Bindings::new();
        assert!(b.unify(&v(0), &v(1)));
        assert!(b.unify(&v(1), &v(2)));
        assert!(b.unify(&v(2), &Term::str("done")));
        assert_eq!(b.resolve(&v(0)), Term::str("done"));
    }

    #[test]
    fn unify_same_var() {
        let mut b = Bindings::new();
        assert!(b.unify(&v(5), &v(5)));
        assert!(b.is_empty());
    }
}

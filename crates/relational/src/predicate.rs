//! Selection predicates.

use crate::relation::Tuple;
use crate::schema::{Attr, Schema};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Comparison operators for selection conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Op {
    pub fn symbol(self) -> &'static str {
        match self {
            Op::Eq => "=",
            Op::Ne => "<>",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
        }
    }

    fn eval(self, l: &Value, r: &Value) -> bool {
        use std::cmp::Ordering::*;
        match self {
            Op::Eq => l.matches(r),
            Op::Ne => !l.is_null() && !r.is_null() && !l.matches(r),
            _ => match l.compare(r) {
                Some(ord) => match self {
                    Op::Lt => ord == Less,
                    Op::Le => ord != Greater,
                    Op::Gt => ord == Greater,
                    Op::Ge => ord != Less,
                    Op::Eq | Op::Ne => unreachable!(),
                },
                None => false,
            },
        }
    }
}

/// A selection predicate over one relation's tuples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Pred {
    /// `attr op constant`
    Cmp(Attr, Op, Value),
    /// `attr op attr` (both in the same relation — cross-relation
    /// comparisons are expressed by selecting after a join).
    CmpAttr(Attr, Op, Attr),
    /// Case-insensitive substring match, for "features contains sunroof"
    /// style conditions on scraped text.
    Contains(Attr, String),
    And(Vec<Pred>),
    Or(Vec<Pred>),
    Not(Box<Pred>),
    True,
}

impl Pred {
    pub fn eq(attr: impl Into<Attr>, v: impl Into<Value>) -> Pred {
        Pred::Cmp(attr.into(), Op::Eq, v.into())
    }

    pub fn ne(attr: impl Into<Attr>, v: impl Into<Value>) -> Pred {
        Pred::Cmp(attr.into(), Op::Ne, v.into())
    }

    pub fn lt(attr: impl Into<Attr>, v: impl Into<Value>) -> Pred {
        Pred::Cmp(attr.into(), Op::Lt, v.into())
    }

    pub fn le(attr: impl Into<Attr>, v: impl Into<Value>) -> Pred {
        Pred::Cmp(attr.into(), Op::Le, v.into())
    }

    pub fn gt(attr: impl Into<Attr>, v: impl Into<Value>) -> Pred {
        Pred::Cmp(attr.into(), Op::Gt, v.into())
    }

    pub fn ge(attr: impl Into<Attr>, v: impl Into<Value>) -> Pred {
        Pred::Cmp(attr.into(), Op::Ge, v.into())
    }

    pub fn attr_lt(a: impl Into<Attr>, b: impl Into<Attr>) -> Pred {
        Pred::CmpAttr(a.into(), Op::Lt, b.into())
    }

    pub fn contains(attr: impl Into<Attr>, needle: impl Into<String>) -> Pred {
        Pred::Contains(attr.into(), needle.into())
    }

    pub fn and(preds: Vec<Pred>) -> Pred {
        let mut flat = Vec::new();
        for p in preds {
            match p {
                Pred::And(inner) => flat.extend(inner),
                Pred::True => {}
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Pred::True,
            1 => flat.pop().expect("len is 1"),
            _ => Pred::And(flat),
        }
    }

    /// Resolve every attribute to its column in `schema`, once per
    /// operator call rather than once per tuple. The error is the first
    /// attribute, in [`Pred::attrs`] order, that `schema` lacks.
    pub fn resolve<'p>(&'p self, schema: &Schema) -> Result<ResolvedPred<'p>, &'p Attr> {
        let col = |a: &'p Attr| schema.index_of(a).ok_or(a);
        let all = |ps: &'p [Pred]| ps.iter().map(|p| p.resolve(schema)).collect::<Result<_, _>>();
        Ok(match self {
            Pred::Cmp(a, op, v) => ResolvedPred::Cmp(col(a)?, *op, v),
            Pred::CmpAttr(a, op, b) => ResolvedPred::CmpAttr(col(a)?, *op, col(b)?),
            Pred::Contains(a, needle) => ResolvedPred::Contains(col(a)?, needle),
            Pred::And(ps) => ResolvedPred::And(all(ps)?),
            Pred::Or(ps) => ResolvedPred::Or(all(ps)?),
            Pred::Not(p) => ResolvedPred::Not(Box::new(p.resolve(schema)?)),
            Pred::True => ResolvedPred::True,
        })
    }

    /// Attributes mentioned by the predicate.
    pub fn attrs(&self) -> Vec<Attr> {
        let mut out = Vec::new();
        self.collect_attrs(&mut out);
        out
    }

    fn collect_attrs(&self, out: &mut Vec<Attr>) {
        let mut push = |a: &Attr| {
            if !out.contains(a) {
                out.push(a.clone());
            }
        };
        match self {
            Pred::Cmp(a, _, _) | Pred::Contains(a, _) => push(a),
            Pred::CmpAttr(a, _, b) => {
                push(a);
                push(b);
            }
            Pred::And(ps) | Pred::Or(ps) => {
                for p in ps {
                    p.collect_attrs(out);
                }
            }
            Pred::Not(p) => p.collect_attrs(out),
            Pred::True => {}
        }
    }

    /// The equality constants this predicate guarantees (attr = const
    /// conjuncts at the top level) — these supply *bindings* for
    /// mandatory attributes during join ordering.
    pub fn bound_constants(&self) -> Vec<(Attr, Value)> {
        let mut out = Vec::new();
        self.each_bound_constant(&mut |a, v| out.push((a.clone(), v.clone())));
        out
    }

    /// Visit the [`Pred::bound_constants`] in order, by reference.
    pub fn each_bound_constant<'p>(&'p self, f: &mut impl FnMut(&'p Attr, &'p Value)) {
        match self {
            Pred::Cmp(a, Op::Eq, v) => f(a, v),
            Pred::And(ps) => ps.iter().for_each(|p| p.each_bound_constant(f)),
            _ => {}
        }
    }
}

/// A [`Pred`] whose attributes are column indices of one schema
/// ([`Pred::resolve`]). Constants are borrowed from the predicate.
#[derive(Debug)]
pub enum ResolvedPred<'p> {
    Cmp(usize, Op, &'p Value),
    CmpAttr(usize, Op, usize),
    Contains(usize, &'p str),
    And(Vec<ResolvedPred<'p>>),
    Or(Vec<ResolvedPred<'p>>),
    Not(Box<ResolvedPred<'p>>),
    True,
}

impl ResolvedPred<'_> {
    /// Evaluate against a tuple of the schema this was resolved for.
    pub fn eval(&self, t: &Tuple) -> bool {
        match self {
            ResolvedPred::Cmp(i, op, v) => op.eval(t.get(*i), v),
            ResolvedPred::CmpAttr(i, op, j) => op.eval(t.get(*i), t.get(*j)),
            ResolvedPred::Contains(i, needle) => match t.get(*i) {
                Value::Str(s) => contains_ignore_ascii_case(s, needle),
                _ => false,
            },
            ResolvedPred::And(ps) => ps.iter().all(|p| p.eval(t)),
            ResolvedPred::Or(ps) => ps.iter().any(|p| p.eval(t)),
            ResolvedPred::Not(p) => !p.eval(t),
            ResolvedPred::True => true,
        }
    }
}

/// `hay.to_ascii_lowercase().contains(&needle.to_ascii_lowercase())`
/// without lowercasing copies. A valid UTF-8 needle can only match a
/// valid UTF-8 haystack at a character boundary, so a byte-window scan
/// agrees with `str::contains`.
fn contains_ignore_ascii_case(hay: &str, needle: &str) -> bool {
    let needle = needle.as_bytes();
    needle.is_empty()
        || hay.as_bytes().windows(needle.len()).any(|w| w.eq_ignore_ascii_case(needle))
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::Cmp(a, op, v) => write!(f, "{a} {} {v}", op.symbol()),
            Pred::CmpAttr(a, op, b) => write!(f, "{a} {} {b}", op.symbol()),
            Pred::Contains(a, s) => write!(f, "{a} contains {s:?}"),
            Pred::And(ps) => {
                let parts: Vec<String> = ps.iter().map(ToString::to_string).collect();
                write!(f, "({})", parts.join(" AND "))
            }
            Pred::Or(ps) => {
                let parts: Vec<String> = ps.iter().map(ToString::to_string).collect();
                write!(f, "({})", parts.join(" OR "))
            }
            Pred::Not(p) => write!(f, "NOT {p}"),
            Pred::True => f.write_str("TRUE"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;

    fn rel() -> Relation {
        Relation::from_rows(
            Schema::new(["make", "price", "bbprice"]),
            [
                vec![Value::str("ford"), Value::Int(500), Value::Int(800)],
                vec![Value::str("jaguar"), Value::Int(9000), Value::Int(8000)],
                vec![Value::str("saab"), Value::Null, Value::Int(4000)],
            ],
        )
    }

    /// Evaluate `p` over every tuple of `r`.
    fn hits(p: &Pred, r: &Relation) -> Vec<bool> {
        let resolved = p.resolve(r.schema()).expect("attributes resolve");
        r.tuples().iter().map(|t| resolved.eval(t)).collect()
    }

    #[test]
    fn constant_comparison() {
        let r = rel();
        assert_eq!(hits(&Pred::eq("make", "ford"), &r), vec![true, false, false]);
    }

    #[test]
    fn attr_comparison_price_below_bluebook() {
        let r = rel();
        // the null price never satisfies a comparison
        assert_eq!(hits(&Pred::attr_lt("price", "bbprice"), &r), vec![true, false, false]);
    }

    #[test]
    fn null_semantics() {
        let r = rel();
        for p in [Pred::eq("price", Value::Null), Pred::ne("price", 1i64), Pred::lt("price", 10i64)]
        {
            assert!(!hits(&p, &r)[2], "{p}");
        }
    }

    #[test]
    fn boolean_combinators() {
        let r = rel();
        let p = Pred::Or(vec![Pred::eq("make", "ford"), Pred::eq("make", "saab")]);
        assert_eq!(hits(&p, &r), vec![true, false, true]);
        assert_eq!(hits(&Pred::Not(Box::new(p)), &r), vec![false, true, false]);
    }

    #[test]
    fn and_flattens() {
        let p =
            Pred::and(vec![Pred::True, Pred::and(vec![Pred::eq("a", 1i64), Pred::eq("b", 2i64)])]);
        match &p {
            Pred::And(ps) => assert_eq!(ps.len(), 2),
            other => panic!("expected And, got {other:?}"),
        }
        assert_eq!(p.bound_constants().len(), 2);
    }

    #[test]
    fn contains_is_case_insensitive() {
        let r = Relation::from_rows(
            Schema::new(["features"]),
            [vec![Value::str("Sunroof, ABS, Leather")]],
        );
        assert_eq!(hits(&Pred::contains("features", "abs"), &r), vec![true]);
        assert_eq!(hits(&Pred::contains("features", "diesel"), &r), vec![false]);
        assert_eq!(hits(&Pred::contains("features", ""), &r), vec![true]);
        assert_eq!(hits(&Pred::contains("features", "ROOF, abs"), &r), vec![true]);
    }

    #[test]
    fn resolve_reports_the_first_missing_attribute_in_attrs_order() {
        let r = rel();
        let p = Pred::and(vec![Pred::eq("make", "ford"), Pred::attr_lt("nosuch", "other")]);
        assert_eq!(p.resolve(r.schema()).map(|_| ()), Err(&Attr::new("nosuch")));
        assert_eq!(p.attrs()[1], Attr::new("nosuch"));
    }

    #[test]
    fn attrs_collected_without_dupes() {
        let p =
            Pred::and(vec![Pred::eq("a", 1i64), Pred::attr_lt("a", "b"), Pred::contains("c", "x")]);
        assert_eq!(p.attrs(), vec![Attr::new("a"), Attr::new("b"), Attr::new("c")]);
    }

    #[test]
    fn bound_constants_only_from_top_level_eq() {
        let p = Pred::and(vec![
            Pred::eq("make", "jaguar"),
            Pred::ge("year", 1993i64),
            Pred::Or(vec![Pred::eq("x", 1i64)]),
        ]);
        assert_eq!(p.bound_constants(), vec![(Attr::new("make"), Value::str("jaguar"))]);
    }
}

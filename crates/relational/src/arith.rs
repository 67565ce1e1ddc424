//! Arithmetic expressions over tuple attributes, and the *extend*
//! operator that materialises them as computed columns.
//!
//! The paper's §6.2 query asks for cars whose "monthly payments are less
//! than 1,000 dollars" — a quantity no site serves directly; it must be
//! computed from the price, the interest rate, and the loan duration.
//! [`ArithExpr`] is the formula language and [`crate::algebra::Expr::Extend`]
//! the operator that adds the result as a new attribute.

use crate::relation::Tuple;
use crate::schema::{Attr, Schema};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An arithmetic expression over a tuple's numeric attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArithExpr {
    /// An attribute's numeric value.
    Attr(Attr),
    Const(f64),
    Add(Box<ArithExpr>, Box<ArithExpr>),
    Sub(Box<ArithExpr>, Box<ArithExpr>),
    Mul(Box<ArithExpr>, Box<ArithExpr>),
    Div(Box<ArithExpr>, Box<ArithExpr>),
}

impl ArithExpr {
    pub fn attr(a: impl Into<Attr>) -> ArithExpr {
        ArithExpr::Attr(a.into())
    }

    pub fn constant(v: f64) -> ArithExpr {
        ArithExpr::Const(v)
    }

    /// Attributes the formula reads.
    pub fn attrs(&self) -> Vec<Attr> {
        let mut out = Vec::new();
        self.collect(&mut out);
        out
    }

    fn collect(&self, out: &mut Vec<Attr>) {
        match self {
            ArithExpr::Attr(a) => {
                if !out.contains(a) {
                    out.push(a.clone());
                }
            }
            ArithExpr::Const(_) => {}
            ArithExpr::Add(l, r)
            | ArithExpr::Sub(l, r)
            | ArithExpr::Mul(l, r)
            | ArithExpr::Div(l, r) => {
                l.collect(out);
                r.collect(out);
            }
        }
    }

    /// Resolve every attribute to its column in `schema`, once per
    /// operator call rather than once per tuple. The error is the first
    /// attribute, in [`ArithExpr::attrs`] order, that `schema` lacks.
    pub fn resolve<'e>(&'e self, schema: &Schema) -> Result<ResolvedArith, &'e Attr> {
        let pair = |l: &'e ArithExpr, r: &'e ArithExpr| -> Result<_, &'e Attr> {
            Ok((Box::new(l.resolve(schema)?), Box::new(r.resolve(schema)?)))
        };
        Ok(match self {
            ArithExpr::Attr(a) => ResolvedArith::Col(schema.index_of(a).ok_or(a)?),
            ArithExpr::Const(c) => ResolvedArith::Const(*c),
            ArithExpr::Add(l, r) => pair(l, r).map(|(l, r)| ResolvedArith::Add(l, r))?,
            ArithExpr::Sub(l, r) => pair(l, r).map(|(l, r)| ResolvedArith::Sub(l, r))?,
            ArithExpr::Mul(l, r) => pair(l, r).map(|(l, r)| ResolvedArith::Mul(l, r))?,
            ArithExpr::Div(l, r) => pair(l, r).map(|(l, r)| ResolvedArith::Div(l, r))?,
        })
    }
}

/// An [`ArithExpr`] whose attributes are column indices of one schema
/// ([`ArithExpr::resolve`]).
#[derive(Debug)]
pub enum ResolvedArith {
    Col(usize),
    Const(f64),
    Add(Box<ResolvedArith>, Box<ResolvedArith>),
    Sub(Box<ResolvedArith>, Box<ResolvedArith>),
    Mul(Box<ResolvedArith>, Box<ResolvedArith>),
    Div(Box<ResolvedArith>, Box<ResolvedArith>),
}

impl ResolvedArith {
    /// Evaluate over one tuple. `None` when an input is null or
    /// non-numeric, or on division by zero — the computed column is then
    /// [`Value::Null`] (a site that cannot quote does not quote).
    pub fn eval(&self, t: &Tuple) -> Option<f64> {
        match self {
            ResolvedArith::Col(i) => t.get(*i).as_f64(),
            ResolvedArith::Const(c) => Some(*c),
            ResolvedArith::Add(l, r) => Some(l.eval(t)? + r.eval(t)?),
            ResolvedArith::Sub(l, r) => Some(l.eval(t)? - r.eval(t)?),
            ResolvedArith::Mul(l, r) => Some(l.eval(t)? * r.eval(t)?),
            ResolvedArith::Div(l, r) => {
                let d = r.eval(t)?;
                if d == 0.0 {
                    None
                } else {
                    Some(l.eval(t)? / d)
                }
            }
        }
    }

    /// Evaluate into a [`Value`], rounding near-integers back to `Int`
    /// (so `price / 2` over int prices stays comparable with int
    /// constants in either representation).
    pub fn eval_value(&self, t: &Tuple) -> Value {
        match self.eval(t) {
            None => Value::Null,
            Some(f) if f.fract() == 0.0 && f.abs() < i64::MAX as f64 => Value::Int(f as i64),
            Some(f) => Value::Float(f),
        }
    }
}

impl std::ops::Add for ArithExpr {
    type Output = ArithExpr;
    fn add(self, other: ArithExpr) -> ArithExpr {
        ArithExpr::Add(Box::new(self), Box::new(other))
    }
}

impl std::ops::Sub for ArithExpr {
    type Output = ArithExpr;
    fn sub(self, other: ArithExpr) -> ArithExpr {
        ArithExpr::Sub(Box::new(self), Box::new(other))
    }
}

impl std::ops::Mul for ArithExpr {
    type Output = ArithExpr;
    fn mul(self, other: ArithExpr) -> ArithExpr {
        ArithExpr::Mul(Box::new(self), Box::new(other))
    }
}

impl std::ops::Div for ArithExpr {
    type Output = ArithExpr;
    fn div(self, other: ArithExpr) -> ArithExpr {
        ArithExpr::Div(Box::new(self), Box::new(other))
    }
}

impl std::str::FromStr for ArithExpr {
    type Err = String;

    fn from_str(s: &str) -> Result<ArithExpr, String> {
        parse_arith(s)
    }
}

impl fmt::Display for ArithExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArithExpr::Attr(a) => write!(f, "{a}"),
            ArithExpr::Const(c) => write!(f, "{c}"),
            ArithExpr::Add(l, r) => write!(f, "({l} + {r})"),
            ArithExpr::Sub(l, r) => write!(f, "({l} - {r})"),
            ArithExpr::Mul(l, r) => write!(f, "({l} * {r})"),
            ArithExpr::Div(l, r) => write!(f, "({l} / {r})"),
        }
    }
}

/// Parse `a * b + 2`-style formulas: `+ -` loosest, `* /` tighter,
/// parentheses, attributes and numeric literals. Byte-oriented (non-ASCII
/// input errors out rather than panicking).
pub fn parse_arith(text: &str) -> Result<ArithExpr, String> {
    let mut s = AScan { b: text.as_bytes(), t: text, i: 0 };
    let e = s.sum()?;
    s.ws();
    if s.i < s.b.len() {
        return Err(format!("trailing input at byte {}", s.i));
    }
    Ok(e)
}

struct AScan<'a> {
    b: &'a [u8],
    t: &'a str,
    i: usize,
}

impl<'a> AScan<'a> {
    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn sum(&mut self) -> Result<ArithExpr, String> {
        let mut e = self.product()?;
        loop {
            self.ws();
            match self.b.get(self.i) {
                Some(b'+') => {
                    self.i += 1;
                    e = e + self.product()?;
                }
                Some(b'-') => {
                    self.i += 1;
                    e = e - self.product()?;
                }
                _ => return Ok(e),
            }
        }
    }

    fn product(&mut self) -> Result<ArithExpr, String> {
        let mut e = self.atom()?;
        loop {
            self.ws();
            match self.b.get(self.i) {
                Some(b'*') => {
                    self.i += 1;
                    e = e * self.atom()?;
                }
                Some(b'/') => {
                    self.i += 1;
                    e = e / self.atom()?;
                }
                _ => return Ok(e),
            }
        }
    }

    fn atom(&mut self) -> Result<ArithExpr, String> {
        self.ws();
        match self.b.get(self.i) {
            Some(b'(') => {
                self.i += 1;
                let e = self.sum()?;
                self.ws();
                if self.b.get(self.i) != Some(&b')') {
                    return Err(format!("expected ')' at byte {}", self.i));
                }
                self.i += 1;
                Ok(e)
            }
            Some(c) if c.is_ascii_digit() => {
                let start = self.i;
                while self.b.get(self.i).is_some_and(|c| c.is_ascii_digit() || *c == b'.') {
                    self.i += 1;
                }
                self.t[start..self.i]
                    .parse()
                    .map(ArithExpr::Const)
                    .map_err(|_| format!("bad number at byte {start}"))
            }
            Some(c) if c.is_ascii_alphabetic() || *c == b'_' => {
                let start = self.i;
                while self.b.get(self.i).is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_') {
                    self.i += 1;
                }
                Ok(ArithExpr::attr(&self.t[start..self.i]))
            }
            _ => Err(format!("expected a formula atom at byte {}", self.i)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;

    fn rel() -> Relation {
        Relation::from_rows(
            Schema::new(["price", "rate", "duration"]),
            [
                vec![Value::Int(24000), Value::Float(7.2), Value::Int(48)],
                vec![Value::Int(12000), Value::Null, Value::Int(36)],
            ],
        )
    }

    #[test]
    fn monthly_payment_formula() {
        // payment ≈ price * (1 + rate/100 * duration/12) / duration
        let f = parse_arith("price * (1 + rate / 100 * duration / 12) / duration").expect("parses");
        let r = rel();
        let p = f.resolve(r.schema()).expect("resolves").eval(&r.tuples()[0]).expect("computes");
        let expected = 24000.0 * (1.0 + 0.072 * 4.0) / 48.0;
        assert!((p - expected).abs() < 1e-9, "{p} vs {expected}");
    }

    #[test]
    fn null_inputs_yield_null() {
        let f = parse_arith("price * rate").expect("parses");
        let r = rel();
        assert_eq!(
            f.resolve(r.schema()).expect("resolves").eval_value(&r.tuples()[1]),
            Value::Null
        );
    }

    #[test]
    fn division_by_zero_is_null() {
        let f = parse_arith("price / (rate - rate)").expect("parses");
        let r = rel();
        assert_eq!(
            f.resolve(r.schema()).expect("resolves").eval_value(&r.tuples()[0]),
            Value::Null
        );
    }

    #[test]
    fn precedence_and_parens() {
        let f = parse_arith("2 + 3 * 4").expect("parses");
        let r = rel();
        assert_eq!(f.resolve(r.schema()).expect("resolves").eval(&r.tuples()[0]), Some(14.0));
        let g = parse_arith("(2 + 3) * 4").expect("parses");
        assert_eq!(g.resolve(r.schema()).expect("resolves").eval(&r.tuples()[0]), Some(20.0));
        let h = parse_arith("20 - 6 - 4").expect("parses");
        assert_eq!(
            h.resolve(r.schema()).expect("resolves").eval(&r.tuples()[0]),
            Some(10.0),
            "left associative"
        );
    }

    #[test]
    fn integers_stay_integers() {
        let f = parse_arith("price / 2").expect("parses");
        let r = rel();
        assert_eq!(
            f.resolve(r.schema()).expect("resolves").eval_value(&r.tuples()[0]),
            Value::Int(12000)
        );
    }

    #[test]
    fn resolve_reports_the_first_missing_attribute() {
        let f = parse_arith("price * nosuch + other").expect("parses");
        assert_eq!(f.resolve(rel().schema()).map(|_| ()), Err(&Attr::new("nosuch")));
    }

    #[test]
    fn attrs_collected() {
        let f = parse_arith("price * rate + price / duration").expect("parses");
        assert_eq!(f.attrs(), vec![Attr::new("price"), Attr::new("rate"), Attr::new("duration")]);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_arith("").is_err());
        assert!(parse_arith("price +").is_err());
        assert!(parse_arith("(price").is_err());
        assert!(parse_arith("price $ 2").is_err());
        assert!(parse_arith("prïce").is_err()); // non-ASCII refused cleanly
    }

    #[test]
    fn display_roundtrips() {
        let f = parse_arith("price * (1 + rate / 100)").expect("parses");
        let printed = f.to_string();
        let again = parse_arith(&printed).expect("reparses");
        assert_eq!(again, f);
    }
}

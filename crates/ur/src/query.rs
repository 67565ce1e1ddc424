//! The UR query language: "the user simply points to a set of output
//! attributes and imposes conditions on some other attributes. This is
//! it: no joins, sheer simplicity."
//!
//! Concrete syntax (the §2 jaguar query):
//!
//! ```text
//! UsedCarUR(make='jaguar', model, year >= 1993, price, safety='good',
//!           bbprice, condition='good', pricetype='retail')
//!     WHERE price < bbprice
//! ```
//!
//! Every attribute mentioned inside the parentheses is an output
//! attribute; attributes with a comparison also impose a condition. The
//! optional `WHERE` clause holds attribute-to-attribute comparisons.

use webbase_relational::arith::ArithExpr;
use webbase_relational::predicate::Op;
use webbase_relational::{Pred, Value};

/// A parsed UR query.
#[derive(Debug, Clone, PartialEq)]
pub struct UrQuery {
    pub ur_name: String,
    /// Output attributes, in mention order (computed names included).
    pub outputs: Vec<String>,
    /// attribute-op-constant conditions.
    pub conditions: Vec<(String, Op, Value)>,
    /// attribute-op-attribute conditions (the WHERE clause).
    pub attr_conditions: Vec<(String, Op, String)>,
    /// Computed columns `name := formula` (the §6.2 monthly-payment
    /// case), in mention order.
    pub computed: Vec<(String, ArithExpr)>,
}

impl UrQuery {
    /// All attributes the query mentions (outputs ∪ condition attrs ∪
    /// formula inputs), including computed names.
    pub fn mentioned(&self) -> Vec<String> {
        let mut out = self.outputs.clone();
        for (a, _, _) in &self.conditions {
            if !out.contains(a) {
                out.push(a.clone());
            }
        }
        for (a, _, b) in &self.attr_conditions {
            for x in [a, b] {
                if !out.contains(x) {
                    out.push(x.clone());
                }
            }
        }
        for (_, f) in &self.computed {
            for a in f.attrs() {
                let a = a.as_str().to_string();
                if !out.contains(&a) {
                    out.push(a);
                }
            }
        }
        out
    }

    /// The *base* attributes the underlying relations must cover —
    /// everything mentioned except the computed names themselves.
    pub fn base_mentioned(&self) -> Vec<String> {
        self.mentioned()
            .into_iter()
            .filter(|a| !self.computed.iter().any(|(n, _)| n == a))
            .collect()
    }

    pub fn is_computed(&self, attr: &str) -> bool {
        self.computed.iter().any(|(n, _)| n == attr)
    }

    /// The equality constants the query supplies (binding sources).
    pub fn constants(&self) -> Vec<(String, Value)> {
        self.conditions
            .iter()
            .filter(|(_, op, _)| *op == Op::Eq)
            .map(|(a, _, v)| (a.clone(), v.clone()))
            .collect()
    }

    /// All conditions as one predicate.
    pub fn pred(&self) -> Pred {
        let mut parts: Vec<Pred> = self
            .conditions
            .iter()
            .map(|(a, op, v)| Pred::Cmp(a.as_str().into(), *op, v.clone()))
            .collect();
        parts.extend(
            self.attr_conditions
                .iter()
                .map(|(a, op, b)| Pred::CmpAttr(a.as_str().into(), *op, b.as_str().into())),
        );
        Pred::and(parts)
    }
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "query parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for QueryParseError {}

/// Parse the concrete syntax above.
pub fn parse_query(text: &str) -> Result<UrQuery, QueryParseError> {
    let mut p = P { t: text, b: text.as_bytes(), i: 0 };
    p.ws();
    let ur_name = p.ident()?;
    p.expect(b'(')?;
    let mut outputs = Vec::new();
    let mut conditions = Vec::new();
    let mut computed = Vec::new();
    loop {
        p.ws();
        let attr = p.ident()?;
        if !outputs.contains(&attr) {
            outputs.push(attr.clone());
        }
        p.ws();
        if p.b[p.i..].starts_with(b":=") {
            // a computed column: name := formula (up to ',' or ')').
            p.i += 2;
            let formula_text = p.balanced_span()?;
            let formula = webbase_relational::arith::parse_arith(formula_text)
                .map_err(|m| p.err(&format!("bad formula: {m}")))?;
            computed.push((attr.clone(), formula));
        } else if let Some(op) = p.try_op() {
            p.ws();
            let v = p.value()?;
            conditions.push((attr, op, v));
        }
        p.ws();
        match p.peek() {
            Some(b',') => {
                p.i += 1;
            }
            Some(b')') => {
                p.i += 1;
                break;
            }
            _ => return Err(p.err("expected ',' or ')'")),
        }
    }
    p.ws();
    let mut attr_conditions = Vec::new();
    if p.keyword("WHERE") || p.keyword("where") {
        loop {
            p.ws();
            let a = p.ident()?;
            p.ws();
            let op = p.try_op().ok_or_else(|| p.err("expected comparison operator"))?;
            p.ws();
            // RHS: attribute or constant.
            if p.peek().is_some_and(|c| c.is_ascii_alphabetic() || c == b'_') {
                let b = p.ident()?;
                attr_conditions.push((a, op, b));
            } else {
                let v = p.value()?;
                conditions.push((a, op, v));
            }
            p.ws();
            if p.keyword("AND") || p.keyword("and") {
                continue;
            }
            break;
        }
    }
    p.ws();
    if p.i < p.t.len() {
        return Err(p.err("trailing input"));
    }
    Ok(UrQuery { ur_name, outputs, conditions, attr_conditions, computed })
}

/// Byte-oriented scanner. Positions only ever advance past ASCII bytes
/// (or whole quoted spans that end at an ASCII quote), so every slice
/// boundary is a char boundary; non-ASCII input fails with a parse error
/// rather than a panic.
struct P<'a> {
    t: &'a str,
    b: &'a [u8],
    i: usize,
}

impl<'a> P<'a> {
    fn err(&self, m: &str) -> QueryParseError {
        QueryParseError { offset: self.i, message: m.to_string() }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), QueryParseError> {
        self.ws();
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if self.b[self.i..].starts_with(kw.as_bytes()) {
            let after = self.b.get(self.i + kw.len());
            if after.is_none_or(|c| !c.is_ascii_alphanumeric()) {
                self.i += kw.len();
                return true;
            }
        }
        false
    }

    fn ident(&mut self) -> Result<String, QueryParseError> {
        self.ws();
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_') {
            self.i += 1;
        }
        if self.i == start {
            return Err(self.err("expected an identifier"));
        }
        Ok(self.t[start..self.i].to_string())
    }

    fn try_op(&mut self) -> Option<Op> {
        for (s, op) in [
            ("<=", Op::Le),
            (">=", Op::Ge),
            ("<>", Op::Ne),
            ("!=", Op::Ne),
            ("=", Op::Eq),
            ("<", Op::Lt),
            (">", Op::Gt),
        ] {
            if self.b[self.i..].starts_with(s.as_bytes()) {
                self.i += s.len();
                return Some(op);
            }
        }
        None
    }

    /// The span up to the next top-level `,` or `)` (parentheses nest).
    fn balanced_span(&mut self) -> Result<&'a str, QueryParseError> {
        let start = self.i;
        let mut depth = 0usize;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated formula")),
                Some(b'(') => depth += 1,
                Some(b')') if depth == 0 => break,
                Some(b')') => depth -= 1,
                Some(b',') if depth == 0 => break,
                _ => {}
            }
            self.i += 1;
        }
        Ok(&self.t[start..self.i])
    }

    fn value(&mut self) -> Result<Value, QueryParseError> {
        self.ws();
        match self.peek() {
            Some(quote @ (b'\'' | b'"')) => {
                self.i += 1;
                let start = self.i;
                // Scanning byte-wise is UTF-8 safe: the terminating quote
                // is ASCII, so it can never be the tail of a multi-byte
                // char, and start/end are therefore char boundaries.
                while self.peek().is_some_and(|c| c != quote) {
                    self.i += 1;
                }
                if self.peek() != Some(quote) {
                    return Err(self.err("unterminated string"));
                }
                let s = self.t[start..self.i].to_string();
                self.i += 1;
                Ok(Value::Str(s))
            }
            Some(c) if c.is_ascii_digit() || c == b'-' => {
                let start = self.i;
                if c == b'-' {
                    self.i += 1;
                }
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.i += 1;
                }
                let mut float = false;
                if self.peek() == Some(b'.') {
                    float = true;
                    self.i += 1;
                    while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                        self.i += 1;
                    }
                }
                let s = &self.t[start..self.i];
                if float {
                    s.parse().map(Value::Float).map_err(|_| self.err("bad float"))
                } else {
                    s.parse().map(Value::Int).map_err(|_| self.err("bad integer"))
                }
            }
            _ => Err(self.err("expected a value")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_the_jaguar_query() {
        let q = parse_query(
            "UsedCarUR(make='jaguar', model, year >= 1993, price, safety='good', \
             bbprice, condition='good', pricetype='retail') WHERE price < bbprice",
        )
        .expect("parses");
        assert_eq!(q.ur_name, "UsedCarUR");
        assert_eq!(q.outputs.len(), 8);
        assert_eq!(q.conditions.len(), 5);
        assert_eq!(q.attr_conditions, vec![("price".into(), Op::Lt, "bbprice".into())]);
        let consts = q.constants();
        assert!(consts.contains(&("make".into(), Value::str("jaguar"))));
        assert!(!consts.iter().any(|(a, _)| a == "year"), "≥ is not a binding constant");
    }

    #[test]
    fn outputs_without_conditions() {
        let q = parse_query("UR(a, b, c)").expect("parses");
        assert_eq!(q.outputs, vec!["a", "b", "c"]);
        assert!(q.conditions.is_empty());
        assert_eq!(q.pred(), webbase_relational::Pred::True);
    }

    #[test]
    fn numeric_values() {
        let q = parse_query("UR(price < 1000, rate <= 7.5, year <> 1990)").expect("parses");
        assert_eq!(q.conditions[0].2, Value::Int(1000));
        assert_eq!(q.conditions[1].2, Value::Float(7.5));
        assert_eq!(q.conditions[2].1, Op::Ne);
    }

    #[test]
    fn where_clause_mixes_attr_and_const() {
        let q = parse_query("UR(a, b) WHERE a < b AND b >= 10").expect("parses");
        assert_eq!(q.attr_conditions.len(), 1);
        assert_eq!(q.conditions.len(), 1);
        assert_eq!(q.mentioned(), vec!["a", "b"]);
    }

    #[test]
    fn errors() {
        assert!(parse_query("UR(").is_err());
        assert!(parse_query("UR(a").is_err());
        assert!(parse_query("UR(a) WHERE").is_err());
        assert!(parse_query("UR(a='unterminated)").is_err());
        assert!(parse_query("UR(a) garbage").is_err());
    }

    #[test]
    fn duplicate_mentions_dedup() {
        let q = parse_query("UR(a='x', a, b)").expect("parses");
        assert_eq!(q.outputs, vec!["a", "b"]);
    }
}

#[cfg(test)]
mod computed_tests {
    use super::*;

    #[test]
    fn computed_column_parses() {
        let q = parse_query(
            "UsedCarUR(make='jaguar', price, rate, duration=36, \
             payment := price * (1 + rate / 100 * duration / 12) / duration) \
             WHERE payment < 1000",
        )
        .expect("parses");
        assert_eq!(q.computed.len(), 1);
        assert_eq!(q.computed[0].0, "payment");
        assert!(q.is_computed("payment"));
        assert!(!q.is_computed("price"));
        // payment is an output but not a base attribute…
        assert!(q.outputs.contains(&"payment".to_string()));
        assert!(!q.base_mentioned().contains(&"payment".to_string()));
        // …while the formula's inputs are base attributes.
        for input in ["price", "rate", "duration"] {
            assert!(q.base_mentioned().contains(&input.to_string()), "{input}");
        }
    }

    #[test]
    fn bad_formula_reports() {
        assert!(parse_query("UR(a, p := )").is_err());
        assert!(parse_query("UR(a, p := b +)").is_err());
        assert!(parse_query("UR(a, p := (b, c)").is_err());
    }

    #[test]
    fn nested_parens_in_formula() {
        let q = parse_query("UR(a, p := ((a + 1) * (a - 1)))").expect("parses");
        assert_eq!(q.computed.len(), 1);
    }
}

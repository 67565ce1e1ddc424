//! Tuples and relations: set semantics with copy-on-write sharing.
//!
//! A tuple's values sit behind one `Arc`, so copying a tuple into an
//! operator's output or a relation's dedup index bumps a reference
//! count instead of cloning its strings. A relation keeps its tuple
//! list and dedup index behind `Arc`s too: cloning one is O(1), and the
//! first `push` into a relation that shares storage copies the list and
//! the index for that relation alone (`Arc::make_mut`; the tuples stay
//! shared). A write through one handle is never visible through
//! another, so caches can hand the same relation to many readers.
//!
//! The index is built on first need — a `push`, a membership test or a
//! comparison — so a relation made from tuples already known distinct
//! (a selection's survivors, say) and only ever read hashes nothing.

use crate::schema::{Attr, Schema};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A tuple: values positionally aligned with a [`Schema`]. Clones share
/// the values; equality and hashing are by value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    pub fn from_values<I>(values: I) -> Tuple
    where
        I: IntoIterator<Item = Value>,
    {
        Tuple { values: values.into_iter().collect() }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

/// A relation: a schema plus a deduplicated set of tuples.
///
/// Insertion order is preserved (useful for stable test output); set
/// semantics are enforced with a hash index, built on first need.
/// Clones share the tuple list and the index until one of them is
/// written.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Relation {
    schema: Schema,
    tuples: Arc<Vec<Tuple>>,
    #[serde(skip)]
    seen: Arc<OnceLock<HashSet<Tuple>>>,
}

impl Relation {
    pub fn new(schema: Schema) -> Relation {
        Relation { schema, tuples: Arc::default(), seen: Arc::default() }
    }

    /// A relation over `tuples`, which the caller knows to be distinct
    /// and of the schema's arity (a subset of one relation's tuples, in
    /// its order): nothing is hashed until the index is needed.
    pub fn from_distinct(schema: Schema, tuples: Vec<Tuple>) -> Relation {
        debug_assert!(tuples.iter().all(|t| t.len() == schema.len()));
        Relation { schema, tuples: Arc::new(tuples), seen: Arc::default() }
    }

    /// The dedup index, built from the tuples on first use.
    fn index(&self) -> &HashSet<Tuple> {
        self.seen.get_or_init(|| self.tuples.iter().cloned().collect())
    }

    /// Build a relation from rows; arity mismatches panic (construction
    /// bug, not runtime condition).
    pub fn from_rows<I, R>(schema: Schema, rows: I) -> Relation
    where
        I: IntoIterator<Item = R>,
        R: IntoIterator<Item = Value>,
    {
        let mut rel = Relation::new(schema);
        for row in rows {
            rel.push(Tuple::from_values(row));
        }
        rel
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Insert a tuple (ignored if already present). Panics on arity
    /// mismatch. The first insert into a relation that shares storage
    /// with a clone copies the tuple list and index for this one.
    pub fn push(&mut self, t: Tuple) {
        assert_eq!(
            t.len(),
            self.schema.len(),
            "tuple arity {} does not match schema {}",
            t.len(),
            self.schema
        );
        // A duplicate never unshares; a new tuple is hashed once.
        if Arc::get_mut(&mut self.seen).is_none() && self.index().contains(&t) {
            return;
        }
        self.index();
        let seen = Arc::make_mut(&mut self.seen).get_mut().expect("index built above");
        if seen.insert(t.clone()) {
            Arc::make_mut(&mut self.tuples).push(t);
        }
    }

    /// Is `t` one of this relation's tuples?
    pub fn contains(&self, t: &Tuple) -> bool {
        self.index().contains(t)
    }

    /// The same tuples under another schema of the same arity (a
    /// rename): the tuple list and index are shared, not rebuilt.
    pub fn with_schema(self, schema: Schema) -> Relation {
        assert_eq!(schema.len(), self.schema.len(), "renaming cannot change arity");
        Relation { schema, ..self }
    }

    /// Iterate `(attr, value)` pairs of a tuple.
    pub fn named<'a>(&'a self, t: &'a Tuple) -> impl Iterator<Item = (&'a Attr, &'a Value)> {
        self.schema.attrs().iter().zip(t.values())
    }

    /// Render as an aligned text table (for examples and the repro
    /// binary).
    pub fn to_table(&self) -> String {
        let headers: Vec<String> =
            self.schema.attrs().iter().map(|a| a.as_str().to_string()).collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let rows: Vec<Vec<String>> =
            self.tuples.iter().map(|t| t.values().iter().map(Value::to_string).collect()).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        out.push_str(&fmt_row(&headers, &widths));
        out.push('\n');
        out.push_str(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("-+-"));
        out.push('\n');
        for row in &rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

impl PartialEq for Relation {
    /// Relations are equal when they have the same schema and the same
    /// *set* of tuples (order-insensitive).
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && (Arc::ptr_eq(&self.tuples, &other.tuples)
                || self.tuples.len() == other.tuples.len()
                    && self.tuples.iter().all(|t| other.index().contains(t)))
    }
}

impl Eq for Relation {}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> Relation {
        Relation::from_rows(
            Schema::new(["make", "price"]),
            [
                vec![Value::str("ford"), Value::Int(500)],
                vec![Value::str("jaguar"), Value::Int(9000)],
            ],
        )
    }

    #[test]
    fn dedup_on_push() {
        let mut r = rel();
        r.push(Tuple::from_values([Value::str("ford"), Value::Int(500)]));
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut r = rel();
        r.push(Tuple::from_values([Value::Int(1)]));
    }

    #[test]
    fn equality_is_order_insensitive() {
        let a = rel();
        let b = Relation::from_rows(
            Schema::new(["make", "price"]),
            [
                vec![Value::str("jaguar"), Value::Int(9000)],
                vec![Value::str("ford"), Value::Int(500)],
            ],
        );
        assert_eq!(a, b);
    }

    #[test]
    fn table_rendering() {
        let txt = rel().to_table();
        assert!(txt.contains("make"));
        assert!(txt.lines().count() >= 4);
    }

    #[test]
    fn clones_share_storage_until_written() {
        let original = rel();
        let mut copy = original.clone();
        assert!(Arc::ptr_eq(&original.tuples, &copy.tuples));
        assert!(Arc::ptr_eq(&original.seen, &copy.seen));
        // A duplicate push is a no-op and keeps the storage shared.
        copy.push(Tuple::from_values([Value::str("ford"), Value::Int(500)]));
        assert!(Arc::ptr_eq(&original.tuples, &copy.tuples));
        copy.push(Tuple::from_values([Value::str("saab"), Value::Int(700)]));
        assert!(!Arc::ptr_eq(&original.tuples, &copy.tuples));
        assert_eq!(copy.len(), 3);
        // The original is untouched by the write through its clone.
        assert_eq!(original.len(), 2);
        assert_eq!(original.tuples(), rel().tuples());
        assert_eq!(original, rel());
        assert_ne!(original, copy);
        // The copy's tuples keep their order, the new one last, and
        // still share their values with the original's.
        assert_eq!(&copy.tuples()[..2], original.tuples());
        assert!(Arc::ptr_eq(&copy.tuples()[0].values, &original.tuples()[0].values));
        // Its index was copied too: set semantics still hold.
        copy.push(Tuple::from_values([Value::str("saab"), Value::Int(700)]));
        assert_eq!(copy.len(), 3);
    }

    #[test]
    fn equal_tuples_built_separately_are_equal_and_hash_equally() {
        use std::hash::{BuildHasher, RandomState};
        let a = Tuple::from_values([Value::str("ford"), Value::Int(500), Value::Null]);
        let b = Tuple::from_values(vec![Value::str("ford"), Value::Int(500), Value::Null]);
        assert!(!Arc::ptr_eq(&a.values, &b.values));
        assert_eq!(a, b);
        let hasher = RandomState::new();
        assert_eq!(hasher.hash_one(&a), hasher.hash_one(&b));
        let set: HashSet<Tuple> = [a, b].into_iter().collect();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn named_iteration() {
        let r = rel();
        let pairs: Vec<String> = r.named(&r.tuples()[0]).map(|(a, v)| format!("{a}={v}")).collect();
        assert_eq!(pairs, vec!["make=ford", "price=500"]);
    }
}

//! Attribute names and relation schemas.

use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// An attribute name. Comparison is case-sensitive; the logical layer's
/// standardisation pass is responsible for canonicalising names across
/// sites before they meet in a schema. The name is shared, so copying
/// an attribute into a schema, an access spec or a memo key bumps a
/// reference count instead of allocating.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Attr(Arc<str>);

impl Attr {
    pub fn new(name: impl AsRef<str>) -> Attr {
        Attr(Arc::from(name.as_ref()))
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Ordered and hashed like the name itself, so maps keyed by `Attr`
/// can be probed with a `&str`.
impl Borrow<str> for Attr {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Attr {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Attr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Attr {
    fn from(s: &str) -> Attr {
        Attr::new(s)
    }
}

impl From<String> for Attr {
    fn from(s: String) -> Attr {
        Attr(s.into())
    }
}

/// An ordered list of distinct attributes. Immutable once built, so
/// clones share one attribute list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    attrs: Arc<[Attr]>,
}

impl Schema {
    /// Build a schema; panics on duplicate attributes (a schema bug, not
    /// a runtime condition).
    pub fn new<I, A>(attrs: I) -> Schema
    where
        I: IntoIterator<Item = A>,
        A: Into<Attr>,
    {
        let attrs: Vec<Attr> = attrs.into_iter().map(Into::into).collect();
        for (i, a) in attrs.iter().enumerate() {
            assert!(!attrs[..i].contains(a), "duplicate attribute {a} in schema");
        }
        Schema { attrs: attrs.into() }
    }

    pub fn attrs(&self) -> &[Attr] {
        &self.attrs
    }

    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    pub fn contains(&self, a: &Attr) -> bool {
        self.attrs.contains(a)
    }

    /// Column index of attribute `a`.
    pub fn index_of(&self, a: &Attr) -> Option<usize> {
        self.attrs.iter().position(|x| x == a)
    }

    /// Attributes shared with `other`, in this schema's order.
    pub fn common(&self, other: &Schema) -> Vec<Attr> {
        self.attrs.iter().filter(|a| other.contains(a)).cloned().collect()
    }

    /// The natural-join result schema: this schema followed by `other`'s
    /// attributes not already present.
    pub fn join(&self, other: &Schema) -> Schema {
        let mut attrs = self.attrs.to_vec();
        for a in other.attrs.iter() {
            if !attrs.contains(a) {
                attrs.push(a.clone());
            }
        }
        Schema { attrs: attrs.into() }
    }

    /// Projection onto `keep` (in `keep` order). Attributes absent from
    /// the schema are an error surfaced by the evaluator, so this method
    /// simply filters.
    pub fn project(&self, keep: &[Attr]) -> Schema {
        Schema { attrs: keep.iter().filter(|a| self.contains(a)).cloned().collect() }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({})", self.attrs.iter().map(Attr::as_str).collect::<Vec<_>>().join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_lookup() {
        let s = Schema::new(["make", "model", "year"]);
        assert_eq!(s.index_of(&"model".into()), Some(1));
        assert_eq!(s.index_of(&"price".into()), None);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicates_rejected() {
        let _ = Schema::new(["a", "b", "a"]);
    }

    #[test]
    fn join_schema_unions_in_order() {
        let a = Schema::new(["make", "model"]);
        let b = Schema::new(["model", "price"]);
        assert_eq!(a.join(&b), Schema::new(["make", "model", "price"]));
        assert_eq!(a.common(&b), vec![Attr::new("model")]);
    }

    #[test]
    fn project_keeps_requested_order() {
        let s = Schema::new(["a", "b", "c"]);
        assert_eq!(s.project(&["c".into(), "a".into()]), Schema::new(["c", "a"]));
    }

    #[test]
    fn display() {
        assert_eq!(Schema::new(["x", "y"]).to_string(), "(x, y)");
    }
}

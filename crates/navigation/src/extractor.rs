//! Data-page extraction scripts.
//!
//! §7: "For data pages … we assume that the designer provides an
//! extraction script." An [`ExtractionSpec`] is that script: it names
//! the attributes to pull from a page's tables or definition lists and
//! how to parse each cell. Specs double as *data-page recognisers* — a
//! page is a data page for a spec when the spec's structure (headers or
//! labels) is present, even if zero records match.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use webbase_html::extract::{self, Table};
use webbase_html::Document;
use webbase_relational::Value;

/// How to parse one extracted cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellParse {
    /// Keep the text (trimmed).
    Text,
    /// Numeric cell (`$12,500` → 12500; `7.25%` → 7.25).
    Number,
    /// The href of the first link in the cell (the `Url` attribute of
    /// `newsday`).
    LinkHref,
}

impl CellParse {
    fn apply(self, text: &str, href: Option<&str>, page_url: &str) -> Value {
        match self {
            CellParse::Text => {
                let t = text.trim();
                if t.is_empty() {
                    Value::Null
                } else {
                    Value::Str(t.to_string())
                }
            }
            CellParse::Number => Value::parse_cell(text.trim_end_matches('%')),
            CellParse::LinkHref => {
                href.map(|h| Value::Str(absolutize(page_url, h))).unwrap_or(Value::Null)
            }
        }
    }
}

/// Resolve `href` against the page URL so extracted link attributes
/// (`Url` in the paper's `newsday` relation) match page addresses
/// exactly — that equality is what the logical layer joins on.
fn absolutize(page_url: &str, href: &str) -> String {
    match webbase_webworld::url::Url::parse(page_url) {
        Some(base) => base.resolve(href).to_string(),
        None => href.to_string(),
    }
}

/// One column/label to extract.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldSpec {
    /// Table header or `<dt>` label on the page.
    pub source: String,
    /// Standardised attribute name for the VPS relation.
    pub attr: String,
    pub parse: CellParse,
}

impl FieldSpec {
    pub fn new(source: &str, attr: &str, parse: CellParse) -> FieldSpec {
        FieldSpec { source: source.into(), attr: attr.into(), parse }
    }
}

/// An extraction script.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExtractionSpec {
    /// One tuple per row of the table whose headers include every
    /// `source`.
    Table { fields: Vec<FieldSpec> },
    /// One tuple per `<dl>` whose `<dt>` labels include every `source`.
    DefList { fields: Vec<FieldSpec> },
}

/// An extracted record: standardised attribute → value.
pub type Record = BTreeMap<String, Value>;

/// Pseudo-source naming the page's own URL (for relations like
/// `newsdayCarFeatures(Url, Features, Picture)` whose key attribute is
/// the address of the data page itself).
pub const PAGE_URL_SOURCE: &str = "@url";

impl ExtractionSpec {
    pub fn fields(&self) -> &[FieldSpec] {
        match self {
            ExtractionSpec::Table { fields } | ExtractionSpec::DefList { fields } => fields,
        }
    }

    /// Attribute names in spec order.
    pub fn attrs(&self) -> Vec<String> {
        self.fields().iter().map(|f| f.attr.clone()).collect()
    }

    /// Fields that must be structurally present on the page (the
    /// `@url` pseudo-source is always available).
    fn page_fields(&self) -> impl Iterator<Item = &FieldSpec> {
        self.fields().iter().filter(|f| f.source != PAGE_URL_SOURCE)
    }

    /// Structural recognition: is this page a data page for this spec?
    pub fn matches(&self, doc: &Document) -> bool {
        match self {
            ExtractionSpec::Table { .. } => extract::table_headers(doc)
                .iter()
                .any(|header| self.page_fields().all(|f| header.contains(&f.source))),
            ExtractionSpec::DefList { .. } => {
                let dls = def_lists(doc);
                dls.iter().any(|pairs| {
                    self.page_fields().all(|f| pairs.iter().any(|(k, _)| *k == f.source))
                })
            }
        }
    }

    /// Run the script over a page. `page_url` feeds the `@url`
    /// pseudo-source.
    pub fn extract(&self, doc: &Document, page_url: &str) -> Vec<Record> {
        match self {
            ExtractionSpec::Table { fields } => {
                let tables = extract::tables(doc);
                let Some(table) = tables
                    .iter()
                    .find(|t| self.page_fields().all(|f| t.header.contains(&f.source)))
                else {
                    return Vec::new();
                };
                extract_table(table, fields, page_url)
            }
            ExtractionSpec::DefList { fields } => def_lists(doc)
                .into_iter()
                .filter(|pairs| {
                    self.page_fields().all(|f| pairs.iter().any(|(k, _)| *k == f.source))
                })
                .map(|pairs| {
                    fields
                        .iter()
                        .map(|f| {
                            if f.source == PAGE_URL_SOURCE {
                                return (f.attr.clone(), Value::str(page_url));
                            }
                            let text = pairs
                                .iter()
                                .find(|(k, _)| *k == f.source)
                                .map(|(_, v)| v.as_str())
                                .unwrap_or("");
                            (f.attr.clone(), f.parse.apply(text, None, page_url))
                        })
                        .collect()
                })
                .collect(),
        }
    }
}

fn extract_table(table: &Table, fields: &[FieldSpec], page_url: &str) -> Vec<Record> {
    let idx: Vec<Option<usize>> =
        fields.iter().map(|f| table.header.iter().position(|h| *h == f.source)).collect();
    table
        .rows
        .iter()
        .enumerate()
        .map(|(r, row)| {
            fields
                .iter()
                .zip(&idx)
                .map(|(f, maybe_col)| {
                    if f.source == PAGE_URL_SOURCE {
                        return (f.attr.clone(), Value::str(page_url));
                    }
                    let value = match maybe_col {
                        Some(c) if *c < row.len() => {
                            let href = table.links[r].get(*c).and_then(Option::as_deref);
                            f.parse.apply(&row[*c], href, page_url)
                        }
                        _ => Value::Null,
                    };
                    (f.attr.clone(), value)
                })
                .collect()
        })
        .collect()
}

/// All `<dl>`s on the page as (dt, dd) text pairs.
fn def_lists(doc: &Document) -> Vec<Vec<(String, String)>> {
    let mut out = Vec::new();
    for dl in doc.elements_by_tag("dl") {
        let mut pairs = Vec::new();
        let mut current_dt: Option<String> = None;
        for &child in &doc.node(dl).children {
            match doc.tag(child) {
                Some("dt") => current_dt = Some(doc.text_content(child)),
                Some("dd") => {
                    if let Some(dt) = current_dt.take() {
                        pairs.push((dt, doc.text_content(child)));
                    }
                }
                _ => {}
            }
        }
        if !pairs.is_empty() {
            out.push(pairs);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use webbase_html::parse;

    fn table_spec() -> ExtractionSpec {
        ExtractionSpec::Table {
            fields: vec![
                FieldSpec::new("Make", "make", CellParse::Text),
                FieldSpec::new("Price", "price", CellParse::Number),
                FieldSpec::new("Details", "url", CellParse::LinkHref),
            ],
        }
    }

    #[test]
    fn table_extraction() {
        let doc = parse(
            "<table><tr><th>Make</th><th>Price</th><th>Details</th></tr>\
             <tr><td>ford</td><td>$1,500</td><td><a href='/car/9'>Car Features</a></td></tr>\
             <tr><td>saab</td><td>N/A</td><td></td></tr></table>",
        );
        let spec = table_spec();
        assert!(spec.matches(&doc));
        let recs = spec.extract(&doc, "http://test/page");
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0]["make"], Value::str("ford"));
        assert_eq!(recs[0]["price"], Value::Int(1500));
        assert_eq!(recs[0]["url"], Value::str("http://test/car/9"));
        assert_eq!(recs[1]["price"], Value::Null);
        assert_eq!(recs[1]["url"], Value::Null);
    }

    #[test]
    fn table_with_extra_columns_still_matches() {
        let doc = parse(
            "<table><tr><th>Zip</th><th>Make</th><th>Price</th><th>Details</th></tr>\
             <tr><td>10001</td><td>bmw</td><td>$9000</td><td><a href='/c/1'>x</a></td></tr></table>",
        );
        let recs = table_spec().extract(&doc, "http://test/page");
        assert_eq!(recs[0]["make"], Value::str("bmw"));
    }

    #[test]
    fn missing_headers_no_match() {
        let doc = parse("<table><tr><th>Foo</th></tr><tr><td>1</td></tr></table>");
        assert!(!table_spec().matches(&doc));
        assert!(table_spec().extract(&doc, "http://test/page").is_empty());
    }

    #[test]
    fn empty_table_is_still_a_data_page() {
        let doc = parse("<table><tr><th>Make</th><th>Price</th><th>Details</th></tr></table>");
        assert!(table_spec().matches(&doc));
        assert!(table_spec().extract(&doc, "http://test/page").is_empty());
    }

    #[test]
    fn deflist_extraction() {
        let spec = ExtractionSpec::DefList {
            fields: vec![
                FieldSpec::new("Features", "features", CellParse::Text),
                FieldSpec::new("Picture", "picture", CellParse::Text),
            ],
        };
        let doc = parse(
            "<dl><dt>Features</dt><dd>sunroof, abs</dd><dt>Picture</dt><dd>/p.jpg</dd></dl>\
             <dl><dt>Other</dt><dd>x</dd></dl>",
        );
        assert!(spec.matches(&doc));
        let recs = spec.extract(&doc, "http://test/page");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0]["features"], Value::str("sunroof, abs"));
    }

    #[test]
    fn multiple_deflists_multiple_records() {
        let spec = ExtractionSpec::DefList {
            fields: vec![FieldSpec::new("Make", "make", CellParse::Text)],
        };
        let doc = parse("<dl><dt>Make</dt><dd>ford</dd></dl><dl><dt>Make</dt><dd>saab</dd></dl>");
        let recs = spec.extract(&doc, "http://test/page");
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1]["make"], Value::str("saab"));
    }

    #[test]
    fn percent_numbers() {
        let spec = ExtractionSpec::Table {
            fields: vec![FieldSpec::new("Rate", "rate", CellParse::Number)],
        };
        let doc = parse("<table><tr><th>Rate</th></tr><tr><td>7.25%</td></tr></table>");
        assert_eq!(spec.extract(&doc, "http://test/page")[0]["rate"], Value::Float(7.25));
    }
}

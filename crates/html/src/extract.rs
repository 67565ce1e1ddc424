//! Page-model extraction: links, forms, and tables.
//!
//! This is the crate-level counterpart of the paper's Figure 3 object
//! model. The navigation-map builder "parses an HTML page and generates a
//! set of F-logic objects … to extract all necessary information for
//! following links and submitting forms found inside the page"; it also
//! infers which form attributes are *mandatory* from their widget kind
//! (a radio group is safely assumed mandatory), attribute *domains* from
//! selection lists, maximum lengths of text fields, and default values.
//! All of that inference lives here.

use crate::dom::{Document, NodeId, NodeKind};
use serde::{Deserialize, Serialize};

/// A hyperlink found on a page (the `link::action` objects of Figure 3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Link {
    /// Anchor text, whitespace-normalised ("name" in the paper's Link class).
    pub text: String,
    /// Target URL ("address").
    pub href: String,
    /// Tag of the nearest structuring ancestor (`table`, `ul`, `dl`, …);
    /// the paper's parser uses this HTML environment to group link-defined
    /// attributes.
    pub environment: Option<String>,
}

/// Kind of form widget ("type: checkbox, select, radio, text etc." in Fig 3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WidgetKind {
    Text { max_length: Option<u32> },
    Select { options: Vec<String> },
    Radio { options: Vec<String> },
    Checkbox,
    Hidden,
    Submit,
}

impl WidgetKind {
    /// The finite value domain this widget exposes, if any.
    pub fn domain(&self) -> Option<&[String]> {
        match self {
            WidgetKind::Select { options } | WidgetKind::Radio { options } => Some(options),
            _ => None,
        }
    }

    /// §7: "if an attribute is represented by a radio button we can safely
    /// assume it is mandatory". Selects without an empty option likewise
    /// always submit a value. Text fields cannot be classified
    /// automatically — the designer must say (see the navigation crate).
    pub fn inferred_mandatory(&self) -> Option<bool> {
        match self {
            WidgetKind::Radio { .. } => Some(true),
            WidgetKind::Select { options } => {
                Some(!options.iter().any(|o| o.is_empty() || o.eq_ignore_ascii_case("any")))
            }
            WidgetKind::Hidden => Some(false),
            WidgetKind::Checkbox => Some(false),
            WidgetKind::Submit => Some(false),
            WidgetKind::Text { .. } => None,
        }
    }
}

/// One form field (the paper's `attrValPair` class: name, widget type,
/// default value).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    pub name: String,
    pub kind: WidgetKind,
    pub default: Option<String>,
    /// Human-visible label, when one could be recovered from the markup
    /// (a preceding text run or `<label>`); used to de-crypticise
    /// "rather cryptic symbolic names".
    pub label: Option<String>,
}

/// A form (Figure 3's Form class: cgi, method, mandatory/optional
/// attributes, state).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Form {
    /// CGI script URL (the `action` attribute).
    pub action: String,
    /// "get" or "post".
    pub method: String,
    pub fields: Vec<Field>,
}

impl Form {
    /// Fields whose widget kind lets us infer they are mandatory.
    pub fn inferred_mandatory_fields(&self) -> Vec<&str> {
        self.fields
            .iter()
            .filter(|f| f.kind.inferred_mandatory() == Some(true))
            .map(|f| f.name.as_str())
            .collect()
    }

    /// Data-carrying fields (everything except submit buttons).
    pub fn data_fields(&self) -> impl Iterator<Item = &Field> {
        self.fields.iter().filter(|f| !matches!(f.kind, WidgetKind::Submit))
    }

    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// A table lifted to rows of text cells; `header` holds `<th>` texts (or
/// the first row when a site uses `<td>` headers).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// Per-row, per-cell link targets: `links[r][c]` is the href of the
    /// first anchor inside that cell, if any. Data extraction uses this
    /// for follow-up links such as "Car Features".
    pub links: Vec<Vec<Option<String>>>,
}

/// Extract every link on the page, in document order.
pub fn links(doc: &Document) -> Vec<Link> {
    let mut out = Vec::new();
    for id in doc.elements_by_tag("a") {
        let Some(href) = doc.attr(id, "href") else { continue };
        let env = ["table", "ul", "ol", "dl", "form"]
            .iter()
            .find(|t| doc.ancestor_by_tag(id, t).is_some())
            .map(ToString::to_string);
        out.push(Link { text: doc.text_content(id), href: href.to_string(), environment: env });
    }
    out
}

/// Extract every form on the page, in document order.
pub fn forms(doc: &Document) -> Vec<Form> {
    doc.elements_by_tag("form").map(|f| extract_form(doc, f)).collect()
}

fn extract_form(doc: &Document, form_id: NodeId) -> Form {
    let action = doc.attr(form_id, "action").unwrap_or("").to_string();
    let method = doc.attr(form_id, "method").unwrap_or("get").to_ascii_lowercase();
    let mut fields: Vec<Field> = Vec::new();
    let mut pending_label: Option<String> = None;

    for id in doc.descendants(form_id) {
        match &doc.node(id).kind {
            NodeKind::Text(t) => {
                let t = crate::dom::normalize_ws(t);
                if !t.is_empty() {
                    // Remember the most recent text run as a candidate label
                    // for the next widget ("Make: <select …>").
                    pending_label = Some(t.trim_end_matches(':').trim().to_string());
                }
            }
            NodeKind::Element { tag, .. } => match tag.as_str() {
                "input" => {
                    let ty = doc.attr(id, "type").unwrap_or("text").to_ascii_lowercase();
                    let name = doc.attr(id, "name").unwrap_or("").to_string();
                    let value = doc.attr(id, "value").map(str::to_string);
                    match ty.as_str() {
                        "radio" => {
                            let v = value.clone().unwrap_or_default();
                            if let Some(existing) = fields.iter_mut().find(|f| {
                                f.name == name && matches!(f.kind, WidgetKind::Radio { .. })
                            }) {
                                if let WidgetKind::Radio { options } = &mut existing.kind {
                                    options.push(v);
                                }
                                if doc.attr(id, "checked").is_some() {
                                    existing.default = value;
                                }
                            } else if !name.is_empty() {
                                let default = doc.attr(id, "checked").is_some().then(|| v.clone());
                                fields.push(Field {
                                    name,
                                    kind: WidgetKind::Radio { options: vec![v] },
                                    default,
                                    label: pending_label.take(),
                                });
                            }
                        }
                        "checkbox" => {
                            if !name.is_empty() {
                                fields.push(Field {
                                    name,
                                    kind: WidgetKind::Checkbox,
                                    default: doc
                                        .attr(id, "checked")
                                        .is_some()
                                        .then(|| value.clone().unwrap_or_else(|| "on".into())),
                                    label: pending_label.take(),
                                });
                            }
                        }
                        "hidden" => {
                            if !name.is_empty() {
                                fields.push(Field {
                                    name,
                                    kind: WidgetKind::Hidden,
                                    default: value,
                                    label: None,
                                });
                            }
                        }
                        "submit" => {
                            fields.push(Field {
                                name,
                                kind: WidgetKind::Submit,
                                default: value,
                                label: None,
                            });
                        }
                        _ => {
                            // text, search, and unknown types degrade to text
                            if !name.is_empty() {
                                let max_length =
                                    doc.attr(id, "maxlength").and_then(|m| m.parse().ok());
                                fields.push(Field {
                                    name,
                                    kind: WidgetKind::Text { max_length },
                                    default: value,
                                    label: pending_label.take(),
                                });
                            }
                        }
                    }
                }
                "select" => {
                    let name = doc.attr(id, "name").unwrap_or("").to_string();
                    if name.is_empty() {
                        continue;
                    }
                    let mut options = Vec::new();
                    let mut default = None;
                    for opt in doc.descendants(id).filter(|&o| doc.tag(o) == Some("option")) {
                        let value = doc
                            .attr(opt, "value")
                            .map(str::to_string)
                            .unwrap_or_else(|| doc.text_content(opt));
                        if doc.attr(opt, "selected").is_some() {
                            default = Some(value.clone());
                        }
                        options.push(value);
                    }
                    fields.push(Field {
                        name,
                        kind: WidgetKind::Select { options },
                        default,
                        label: pending_label.take(),
                    });
                }
                "label" => {
                    pending_label = Some(doc.text_content(id).trim_end_matches(':').to_string());
                }
                _ => {}
            },
            _ => {}
        }
    }
    Form { action, method, fields }
}

/// Extract every `<table>` on the page that has at least one row.
pub fn tables(doc: &Document) -> Vec<Table> {
    let mut out = Vec::new();
    for t in doc.elements_by_tag("table") {
        // Skip nested tables' rows when extracting an outer table.
        let rows_ids: Vec<NodeId> = table_rows(doc, t).collect();
        if rows_ids.is_empty() {
            continue;
        }
        let mut header = Vec::new();
        let mut rows = Vec::new();
        let mut links = Vec::new();
        for (i, &r) in rows_ids.iter().enumerate() {
            let cells = row_cells(doc, r);
            let texts: Vec<String> = cells.iter().map(|&c| doc.text_content(c)).collect();
            if i == 0 && is_header_row(doc, &cells) {
                header = texts;
            } else {
                let cell_links: Vec<Option<String>> = cells
                    .iter()
                    .map(|&c| {
                        doc.descendants(c)
                            .find(|&n| doc.tag(n) == Some("a") && doc.attr(n, "href").is_some())
                            .and_then(|a| doc.attr(a, "href"))
                            .map(str::to_string)
                    })
                    .collect();
                rows.push(texts);
                links.push(cell_links);
            }
        }
        out.push(Table { header, rows, links });
    }
    out
}

/// The `header` of every table [`tables`] extracts, in the same order,
/// without extracting any row: what recognising a data page needs.
pub fn table_headers(doc: &Document) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    for t in doc.elements_by_tag("table") {
        let Some(first) = table_rows(doc, t).next() else { continue };
        let cells = row_cells(doc, first);
        out.push(if is_header_row(doc, &cells) {
            cells.iter().map(|&c| doc.text_content(c)).collect()
        } else {
            Vec::new()
        });
    }
    out
}

/// The rows of table `t`, in document order, not those of tables
/// nested in it.
fn table_rows(doc: &Document, t: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    doc.elements_by_tag("tr").filter(move |&r| doc.ancestor_by_tag(r, "table") == Some(t))
}

/// The `<td>`/`<th>` cells of row `r`.
fn row_cells(doc: &Document, r: NodeId) -> Vec<NodeId> {
    doc.node(r)
        .children
        .iter()
        .copied()
        .filter(|&c| matches!(doc.tag(c), Some("td") | Some("th")))
        .collect()
}

/// A first row of only `<th>` cells is the header.
fn is_header_row(doc: &Document, cells: &[NodeId]) -> bool {
    !cells.is_empty() && cells.iter().all(|&c| doc.tag(c) == Some("th"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn links_with_environment() {
        let doc = parse("<ul><li><a href='/a'>A</a></ul><a href='/b'>B</a>");
        let ls = links(&doc);
        assert_eq!(ls.len(), 2);
        assert_eq!(ls[0].environment.as_deref(), Some("ul"));
        assert_eq!(ls[1].environment, None);
    }

    #[test]
    fn anchors_without_href_skipped() {
        let doc = parse("<a name='top'>anchor</a><a href='/x'>x</a>");
        assert_eq!(links(&doc).len(), 1);
    }

    #[test]
    fn form_with_text_and_select() {
        let doc = parse(
            "<form action='/cgi-bin/search' method='POST'>\
             Make: <select name='make'><option value='ford'>Ford</option>\
             <option value='jaguar' selected>Jaguar</option></select>\
             Model: <input type=text name=model maxlength=20>\
             <input type=submit value='Go'></form>",
        );
        let fs = forms(&doc);
        assert_eq!(fs.len(), 1);
        let f = &fs[0];
        assert_eq!(f.action, "/cgi-bin/search");
        assert_eq!(f.method, "post");
        let make = f.field("make").expect("make field");
        assert_eq!(make.kind.domain().map(<[String]>::len), Some(2));
        assert_eq!(make.default.as_deref(), Some("jaguar"));
        assert_eq!(make.label.as_deref(), Some("Make"));
        let model = f.field("model").expect("model field");
        assert_eq!(model.kind, WidgetKind::Text { max_length: Some(20) });
        assert_eq!(model.label.as_deref(), Some("Model"));
    }

    #[test]
    fn radio_group_coalesced_and_mandatory() {
        let doc = parse(
            "<form action='/q'>\
             <input type=radio name=cond value=excellent checked>\
             <input type=radio name=cond value=good>\
             <input type=radio name=cond value=fair></form>",
        );
        let f = &forms(&doc)[0];
        assert_eq!(f.fields.len(), 1);
        let cond = &f.fields[0];
        assert_eq!(cond.kind.domain().map(<[String]>::len), Some(3));
        assert_eq!(cond.default.as_deref(), Some("excellent"));
        assert_eq!(f.inferred_mandatory_fields(), vec!["cond"]);
    }

    #[test]
    fn select_with_any_option_not_mandatory() {
        let doc = parse(
            "<form action='/q'><select name='year'>\
             <option value=''>any</option><option>1998</option></select></form>",
        );
        let f = &forms(&doc)[0];
        assert_eq!(f.fields[0].kind.inferred_mandatory(), Some(false));
    }

    #[test]
    fn hidden_and_checkbox_fields() {
        let doc = parse(
            "<form action='/q'><input type=hidden name=session value=abc>\
             <input type=checkbox name=pics checked></form>",
        );
        let f = &forms(&doc)[0];
        assert_eq!(f.field("session").expect("session").default.as_deref(), Some("abc"));
        assert_eq!(f.field("pics").expect("pics").default.as_deref(), Some("on"));
        assert!(f.inferred_mandatory_fields().is_empty());
    }

    #[test]
    fn table_with_headers_and_links() {
        let doc = parse(
            "<table><tr><th>Make</th><th>Price</th></tr>\
             <tr><td><a href='/car/1'>Ford</a></td><td>$500</td></tr>\
             <tr><td>Jaguar<td>$9000</table>",
        );
        let ts = tables(&doc);
        assert_eq!(ts.len(), 1);
        let t = &ts[0];
        assert_eq!(t.header, vec!["Make", "Price"]);
        assert_eq!(t.rows, vec![vec!["Ford", "$500"], vec!["Jaguar", "$9000"]]);
        assert_eq!(t.links[0][0].as_deref(), Some("/car/1"));
        assert_eq!(t.links[0][1], None);
    }

    #[test]
    fn nested_table_rows_not_mixed() {
        let doc = parse("<table><tr><td>outer<table><tr><td>inner</table></td></tr></table>");
        let ts = tables(&doc);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].rows.len(), 1);
        assert_eq!(ts[1].rows, vec![vec!["inner"]]);
    }

    #[test]
    fn empty_page_has_nothing() {
        let doc = parse("<html><body>plain text");
        assert!(links(&doc).is_empty());
        assert!(forms(&doc).is_empty());
        assert!(tables(&doc).is_empty());
    }

    #[test]
    fn label_element_recognised() {
        let doc =
            parse("<form action='/q'><label>Zip code:</label><input type=text name=zip></form>");
        let f = &forms(&doc)[0];
        assert_eq!(f.fields[0].label.as_deref(), Some("Zip code"));
    }

    #[test]
    fn data_fields_excludes_submit() {
        let doc =
            parse("<form action='/q'><input type=text name=a><input type=submit value=Go></form>");
        let f = &forms(&doc)[0];
        assert_eq!(f.data_fields().count(), 1);
    }
}

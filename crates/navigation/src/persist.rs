//! Navigation-map persistence — as F-logic facts.
//!
//! "A navigation map is a collection of F-logic objects" (§4). This
//! module takes that literally: a recorded map serialises to a program
//! of ground facts in the `webbase-flogic` concrete syntax, and loads
//! back by querying those facts. A webbase designer can therefore ship
//! a site's map as a plain text file that the calculus itself can read:
//!
//! ```text
//! site('www.newsday.com').
//! entry(0).
//! node(0, 'HomePg', '/|', 'Newsday.com', page).
//! action(n(0), 0, follow, 'Automobiles', '/auto').
//! edge(0, 0, 1).
//! edge_action(e(0), follow, 'Automobiles', '/auto').
//! ...
//! ```

use crate::budget::{JournalEntry, NavPosition, ResumeToken};
use crate::extractor::{CellParse, ExtractionSpec, FieldSpec};
use crate::map::{NavigationMap, NodeKind};
use crate::model::{ActionDescr, FieldDescr, FormDescr, LinkDescr};
use std::fmt::Write as _;
use std::time::Duration;
use webbase_flogic::parser::{parse_program, ParseError};
use webbase_flogic::program::Program;
use webbase_flogic::term::{Sym, Term};
use webbase_html::extract::WidgetKind;
use webbase_relational::Value;
use webbase_webworld::request::{Method, Request};
use webbase_webworld::url::Url;

/// Errors loading a map from facts.
#[derive(Debug)]
pub enum PersistError {
    Parse(ParseError),
    /// A required fact is missing or malformed.
    Malformed(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Parse(e) => write!(f, "{e}"),
            PersistError::Malformed(m) => write!(f, "malformed map facts: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<ParseError> for PersistError {
    fn from(e: ParseError) -> PersistError {
        PersistError::Parse(e)
    }
}

pub(crate) fn q(s: &str) -> String {
    format!("'{}'", s.replace('\'', "’"))
}

/// Percent-encode a string so it survives [`q`] byte-identically: the
/// fact syntax cannot escape single quotes (`q` transliterates them —
/// acceptable for map titles, fatal for journalled page bodies that
/// must reconstruct exactly). The encoded form contains only
/// `[A-Za-z0-9-._~/%]`, so `q(pct(s))` is lossless for any input.
pub(crate) fn pct(s: &str) -> String {
    pct_bytes(s.as_bytes())
}

pub(crate) fn pct_bytes(s: &[u8]) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' | b'/' => {
                out.push(b as char);
            }
            _ => {
                let _ = write!(out, "%{b:02X}");
            }
        }
    }
    out
}

pub(crate) fn unpct(s: &str) -> Result<String, PersistError> {
    String::from_utf8(unpct_bytes(s)?)
        .map_err(|_| PersistError::Malformed("percent-decoded text is not UTF-8".into()))
}

pub(crate) fn unpct_bytes(s: &str) -> Result<Vec<u8>, PersistError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s
                .get(i + 1..i + 3)
                .ok_or_else(|| PersistError::Malformed("truncated percent escape".into()))?;
            let v = u8::from_str_radix(hex, 16)
                .map_err(|_| PersistError::Malformed(format!("bad percent escape %{hex}")))?;
            out.push(v);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    Ok(out)
}

fn parse_name(p: CellParse) -> &'static str {
    match p {
        CellParse::Text => "text",
        CellParse::Number => "number",
        CellParse::LinkHref => "link_href",
    }
}

fn widget_name(w: &WidgetKind) -> &'static str {
    match w {
        WidgetKind::Text { .. } => "text",
        WidgetKind::Select { .. } => "select",
        WidgetKind::Radio { .. } => "radio",
        WidgetKind::Checkbox => "checkbox",
        WidgetKind::Hidden => "hidden",
        WidgetKind::Submit => "submit",
    }
}

/// Render a map as F-logic facts.
pub fn render_facts(map: &NavigationMap) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "% navigation map, serialised as F-logic facts");
    let _ = writeln!(out, "site({}).", q(&map.site));
    let _ = writeln!(out, "entry({}).", map.entry);
    for n in &map.nodes {
        let kind = match n.kind {
            NodeKind::Page => "page",
            NodeKind::Data(_) => "data",
        };
        let _ = writeln!(
            out,
            "node({}, {}, {}, {}, {kind}).",
            n.id,
            q(&n.name),
            q(&n.signature),
            q(&n.title)
        );
        if let NodeKind::Data(spec) = &n.kind {
            let spec_kind = match spec {
                ExtractionSpec::Table { .. } => "table",
                ExtractionSpec::DefList { .. } => "deflist",
            };
            let _ = writeln!(out, "extract_kind({}, {spec_kind}).", n.id);
            for (i, f) in spec.fields().iter().enumerate() {
                let _ = writeln!(
                    out,
                    "extract_field({}, {i}, {}, {}, {}).",
                    n.id,
                    q(&f.source),
                    q(&f.attr),
                    parse_name(f.parse)
                );
            }
        }
        for (ai, a) in n.actions.iter().enumerate() {
            render_action(&mut out, &format!("n({})", n.id), ai, a);
        }
    }
    for (ei, e) in map.edges.iter().enumerate() {
        let _ = writeln!(out, "edge({ei}, {}, {}).", e.from, e.to);
        render_action(&mut out, &format!("e({ei})"), 0, &e.action);
        for (name, value) in &e.exemplar {
            let _ = writeln!(out, "exemplar({ei}, {}, {}).", q(name), q(value));
        }
    }
    for r in &map.relations {
        let _ = writeln!(out, "relation_reg({}, {}).", q(&r.relation), r.data_node);
    }
    out
}

fn render_action(out: &mut String, parent: &str, idx: usize, action: &ActionDescr) {
    match action {
        ActionDescr::Follow(l) => {
            let _ =
                writeln!(out, "action({parent}, {idx}, follow, {}, {}).", q(&l.name), q(&l.href));
        }
        ActionDescr::FollowByValue { attr, choices } => {
            let _ =
                writeln!(out, "action({parent}, {idx}, follow_by_value, {}, {}).", q(attr), q(""));
            for (v, href) in choices {
                let _ = writeln!(out, "choice({parent}, {idx}, {}, {}).", q(v), q(href));
            }
        }
        ActionDescr::Submit(f) => {
            let _ =
                writeln!(out, "action({parent}, {idx}, submit, {}, {}).", q(&f.cgi), q(&f.method));
            for (fi, field) in f.fields.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "field({parent}, {idx}, {fi}, {}, {}, {}, {}, {}).",
                    q(&field.name),
                    q(&field.attr),
                    widget_name(&field.widget),
                    if field.mandatory { "mandatory" } else { "optional" },
                    field.manual_facts,
                );
                if let Some(v) = &field.fixed_value {
                    let _ = writeln!(out, "field_fixed({parent}, {idx}, {fi}, {}).", q(v));
                }
                if let Some(v) = &field.default {
                    let _ = writeln!(out, "field_default({parent}, {idx}, {fi}, {}).", q(v));
                }
                if let WidgetKind::Text { max_length: Some(m) } = &field.widget {
                    let _ = writeln!(out, "field_maxlength({parent}, {idx}, {fi}, {m}).",);
                }
                if let Some(domain) = field.widget.domain() {
                    for opt in domain {
                        let _ = writeln!(out, "field_option({parent}, {idx}, {fi}, {}).", q(opt));
                    }
                }
            }
        }
    }
}

// ---- loading ----

pub(crate) fn as_str(t: &Term, what: &str) -> Result<String, PersistError> {
    match t {
        Term::Atom(s) => Ok(s.name()),
        Term::Str(s) => Ok(s.clone()),
        other => Err(PersistError::Malformed(format!("{what}: expected a name, got {other:?}"))),
    }
}

pub(crate) fn as_usize(t: &Term, what: &str) -> Result<usize, PersistError> {
    match t {
        Term::Int(i) if *i >= 0 => Ok(*i as usize),
        other => Err(PersistError::Malformed(format!("{what}: expected an index, got {other:?}"))),
    }
}

/// The facts of one predicate, as argument vectors.
pub(crate) fn facts<'p>(prog: &'p Program, pred: &str, arity: usize) -> Vec<&'p [Term]> {
    prog.lookup(Sym::new(pred), arity).iter().map(|r| r.head_args.as_slice()).collect()
}

/// Does a parent key term match `n(id)` / `e(id)`?
fn parent_matches(t: &Term, tag: &str, id: usize) -> bool {
    matches!(t, Term::Compound(f, args)
        if f.name() == tag && args.len() == 1 && args[0] == Term::Int(id as i64))
}

/// Load a map from fact text.
pub fn parse_map(text: &str) -> Result<NavigationMap, PersistError> {
    map_from_facts(&parse_program(text)?)
}

/// Reconstruct a map from a fact program.
pub fn map_from_facts(prog: &Program) -> Result<NavigationMap, PersistError> {
    let site = facts(prog, "site", 1)
        .first()
        .map(|a| as_str(&a[0], "site"))
        .transpose()?
        .ok_or_else(|| PersistError::Malformed("missing site/1".into()))?;
    let entry = facts(prog, "entry", 1)
        .first()
        .map(|a| as_usize(&a[0], "entry"))
        .transpose()?
        .ok_or_else(|| PersistError::Malformed("missing entry/1".into()))?;

    let mut map = NavigationMap::new(&site);

    // Nodes, in id order.
    let mut node_rows: Vec<&[Term]> = facts(prog, "node", 5);
    node_rows.sort_by_key(|a| match a[0] {
        Term::Int(i) => i,
        _ => i64::MAX,
    });
    for (expect_id, a) in node_rows.iter().enumerate() {
        let id = as_usize(&a[0], "node id")?;
        if id != expect_id {
            return Err(PersistError::Malformed(format!(
                "node ids must be dense: expected {expect_id}, got {id}"
            )));
        }
        let name = as_str(&a[1], "node name")?;
        let sig = as_str(&a[2], "node signature")?;
        let title = as_str(&a[3], "node title")?;
        let node_id = map.add_node(&name, &sig, &title);
        let kind = as_str(&a[4], "node kind")?;
        if kind == "data" {
            let spec = load_spec(prog, node_id)?;
            map.node_mut(node_id).kind = NodeKind::Data(spec);
        }
        let actions = load_actions(prog, "n", node_id)?;
        map.node_mut(node_id).actions = actions;
    }
    if entry >= map.nodes.len() {
        return Err(PersistError::Malformed(format!("entry {entry} out of range")));
    }
    map.entry = entry;

    // Edges, in id order.
    let mut edge_rows: Vec<&[Term]> = facts(prog, "edge", 3);
    edge_rows.sort_by_key(|a| match a[0] {
        Term::Int(i) => i,
        _ => i64::MAX,
    });
    for a in edge_rows {
        let eid = as_usize(&a[0], "edge id")?;
        let from = as_usize(&a[1], "edge from")?;
        let to = as_usize(&a[2], "edge to")?;
        if from >= map.nodes.len() || to >= map.nodes.len() {
            return Err(PersistError::Malformed(format!(
                "edge {eid}: endpoint {from} -> {to} out of range"
            )));
        }
        let mut actions = load_actions(prog, "e", eid)?;
        let action = actions
            .pop()
            .ok_or_else(|| PersistError::Malformed(format!("edge {eid} has no action")))?;
        let exemplar: Vec<(String, String)> = facts(prog, "exemplar", 3)
            .into_iter()
            .filter(|x| x[0] == Term::Int(eid as i64))
            .map(|x| Ok((as_str(&x[1], "exemplar name")?, as_str(&x[2], "exemplar value")?)))
            .collect::<Result<_, PersistError>>()?;
        // A duplicate edge row is tolerated: the map records the drop in
        // `dropped_duplicates` and webcheck surfaces it as W002 when the
        // loaded map is preflighted.
        let _ = map.add_edge_with(from, to, action, exemplar);
    }

    for a in facts(prog, "relation_reg", 2) {
        let rel = as_str(&a[0], "relation name")?;
        let node = as_usize(&a[1], "relation node")?;
        if node >= map.nodes.len() {
            return Err(PersistError::Malformed(format!(
                "relation {rel}: node {node} out of range"
            )));
        }
        map.register_relation(&rel, node);
    }

    // Facts about parts the map does not have would otherwise be
    // dropped without a word, silently changing what a relation
    // extracts.
    for a in facts(prog, "extract_field", 5) {
        let node = as_usize(&a[0], "extract node")?;
        if !matches!(map.nodes.get(node).map(|n| &n.kind), Some(NodeKind::Data(_))) {
            return Err(PersistError::Malformed(format!(
                "extract_field on node {node}, which is not a data node of the map"
            )));
        }
    }
    let edge_ids: Vec<Term> = facts(prog, "edge", 3).iter().map(|a| a[0].clone()).collect();
    for a in facts(prog, "field_fixed", 4) {
        let exists = match &a[0] {
            Term::Compound(f, args) if args.len() == 1 => match (f.name().as_str(), &args[0]) {
                ("n", Term::Int(id)) => usize::try_from(*id).is_ok_and(|id| id < map.nodes.len()),
                ("e", id) => edge_ids.contains(id),
                _ => false,
            },
            _ => false,
        };
        if !exists {
            return Err(PersistError::Malformed(format!(
                "field_fixed on {:?}, which is not a node or edge of the map",
                a[0]
            )));
        }
    }
    Ok(map)
}

fn load_spec(prog: &Program, node: usize) -> Result<ExtractionSpec, PersistError> {
    let kind = facts(prog, "extract_kind", 2)
        .into_iter()
        .find(|a| a[0] == Term::Int(node as i64))
        .map(|a| as_str(&a[1], "extract kind"))
        .transpose()?
        .ok_or_else(|| PersistError::Malformed(format!("node {node}: missing extract_kind")))?;
    let mut rows: Vec<(usize, FieldSpec)> = Vec::new();
    for a in facts(prog, "extract_field", 5) {
        if a[0] != Term::Int(node as i64) {
            continue;
        }
        let seq = as_usize(&a[1], "extract seq")?;
        let source = as_str(&a[2], "extract source")?;
        let attr = as_str(&a[3], "extract attr")?;
        let parse = match as_str(&a[4], "extract parse")?.as_str() {
            "text" => CellParse::Text,
            "number" => CellParse::Number,
            "link_href" => CellParse::LinkHref,
            other => return Err(PersistError::Malformed(format!("unknown cell parse {other}"))),
        };
        rows.push((seq, FieldSpec::new(&source, &attr, parse)));
    }
    rows.sort_by_key(|(s, _)| *s);
    let fields: Vec<FieldSpec> = rows.into_iter().map(|(_, f)| f).collect();
    let mut attrs = std::collections::HashSet::new();
    if let Some(dup) = fields.iter().find(|f| !attrs.insert(f.attr.as_str())) {
        return Err(PersistError::Malformed(format!(
            "node {node}: attribute {} extracted twice",
            dup.attr
        )));
    }
    Ok(match kind.as_str() {
        "table" => ExtractionSpec::Table { fields },
        "deflist" => ExtractionSpec::DefList { fields },
        other => return Err(PersistError::Malformed(format!("unknown spec kind {other}"))),
    })
}

fn load_actions(prog: &Program, tag: &str, id: usize) -> Result<Vec<ActionDescr>, PersistError> {
    let mut rows: Vec<(usize, ActionDescr)> = Vec::new();
    for a in facts(prog, "action", 5) {
        if !parent_matches(&a[0], tag, id) {
            continue;
        }
        let idx = as_usize(&a[1], "action idx")?;
        let kind = as_str(&a[2], "action kind")?;
        let action = match kind.as_str() {
            "follow" => ActionDescr::Follow(LinkDescr {
                name: as_str(&a[3], "link name")?,
                href: as_str(&a[4], "link href")?,
            }),
            "follow_by_value" => {
                let attr = as_str(&a[3], "value attr")?;
                let mut choices = Vec::new();
                for c in facts(prog, "choice", 4) {
                    if parent_matches(&c[0], tag, id) && as_usize(&c[1], "choice idx")? == idx {
                        choices
                            .push((as_str(&c[2], "choice value")?, as_str(&c[3], "choice href")?));
                    }
                }
                ActionDescr::FollowByValue { attr, choices }
            }
            "submit" => {
                let cgi = as_str(&a[3], "form cgi")?;
                let method = as_str(&a[4], "form method")?;
                let fields = load_fields(prog, tag, id, idx)?;
                ActionDescr::Submit(FormDescr { cgi, method, fields })
            }
            other => return Err(PersistError::Malformed(format!("unknown action kind {other}"))),
        };
        rows.push((idx, action));
    }
    rows.sort_by_key(|(i, _)| *i);
    Ok(rows.into_iter().map(|(_, a)| a).collect())
}

fn load_fields(
    prog: &Program,
    tag: &str,
    id: usize,
    action_idx: usize,
) -> Result<Vec<FieldDescr>, PersistError> {
    let aux = |pred: &str, fi: usize| -> Result<Option<Term>, PersistError> {
        for a in facts(prog, pred, 4) {
            if parent_matches(&a[0], tag, id)
                && as_usize(&a[1], "aux idx")? == action_idx
                && as_usize(&a[2], "aux field idx")? == fi
            {
                return Ok(Some(a[3].clone()));
            }
        }
        Ok(None)
    };
    let mut rows: Vec<(usize, FieldDescr)> = Vec::new();
    for a in facts(prog, "field", 8) {
        if !parent_matches(&a[0], tag, id) || as_usize(&a[1], "field action idx")? != action_idx {
            continue;
        }
        let fi = as_usize(&a[2], "field idx")?;
        let name = as_str(&a[3], "field name")?;
        let attr = as_str(&a[4], "field attr")?;
        let widget_kind = as_str(&a[5], "widget kind")?;
        let mandatory = as_str(&a[6], "mandatory flag")? == "mandatory";
        let manual_facts = as_usize(&a[7], "manual facts")? as u32;
        let options: Vec<String> = {
            let mut opts = Vec::new();
            for o in facts(prog, "field_option", 4) {
                if parent_matches(&o[0], tag, id)
                    && as_usize(&o[1], "option action idx")? == action_idx
                    && as_usize(&o[2], "option field idx")? == fi
                {
                    opts.push(as_str(&o[3], "option value")?);
                }
            }
            opts
        };
        let widget = match widget_kind.as_str() {
            "text" => WidgetKind::Text {
                max_length: match aux("field_maxlength", fi)? {
                    Some(Term::Int(m)) => Some(m as u32),
                    _ => None,
                },
            },
            "select" => WidgetKind::Select { options },
            "radio" => WidgetKind::Radio { options },
            "checkbox" => WidgetKind::Checkbox,
            "hidden" => WidgetKind::Hidden,
            "submit" => WidgetKind::Submit,
            other => return Err(PersistError::Malformed(format!("unknown widget {other}"))),
        };
        let fixed_value = match aux("field_fixed", fi)? {
            Some(t) => Some(as_str(&t, "fixed value")?),
            None => None,
        };
        let default = match aux("field_default", fi)? {
            Some(t) => Some(as_str(&t, "default value")?),
            None => None,
        };
        rows.push((
            fi,
            FieldDescr { name, attr, widget, mandatory, manual_facts, fixed_value, default },
        ));
    }
    rows.sort_by_key(|(i, _)| *i);
    Ok(rows.into_iter().map(|(_, f)| f).collect())
}

// ---- resume tokens ----

/// Render a [`ResumeToken`] as F-logic facts. The serialisation follows
/// the same convention as the map facts, but every free-form payload
/// (relation names, attribute values, URLs, page bodies) goes through
/// `pct` so the round-trip is byte-identical — a resumed query must
/// reconstruct journalled pages *exactly* or its cache keys miss.
///
/// ```text
/// resume_budget(deadline_ns, 5000000000).
/// resume_spent(fetches, 17).
/// resume_position(0, 'newsday').
/// resume_given(0, 0, 'make', str, 'ford').
/// resume_journal(0, get, 'www.newsday.com', '/').
/// resume_body(0, '%3Chtml%3E...').
/// ```
pub fn render_resume(token: &ResumeToken) -> String {
    // Nanosecond granularity: the spend is charged from simulated
    // latencies, so anything coarser would break the render → parse
    // identity.
    let nanos = |d: Duration| d.as_nanos().min(i64::MAX as u128) as i64;
    let mut out = String::new();
    let _ = writeln!(out, "% query resume token, serialised as F-logic facts");
    if let Some(d) = token.budget.deadline {
        let _ = writeln!(out, "resume_budget(deadline_ns, {}).", nanos(d));
    }
    if let Some(n) = token.budget.max_fetches {
        let _ = writeln!(out, "resume_budget(max_fetches, {n}).");
    }
    if let Some(n) = token.budget.site_fetches {
        let _ = writeln!(out, "resume_budget(site_fetches, {n}).");
    }
    if token.budget.fair_share {
        let _ = writeln!(out, "resume_budget(fair_share, 1).");
    }
    let _ = writeln!(out, "resume_spent(elapsed_ns, {}).", nanos(token.spent_network));
    let _ = writeln!(out, "resume_spent(fetches, {}).", token.spent_fetches);
    for (i, p) in token.positions.iter().enumerate() {
        let _ = writeln!(out, "resume_position({i}, {}).", q(&pct(&p.relation)));
        for (j, (attr, value)) in p.given.iter().enumerate() {
            let (kind, payload) = match value {
                Value::Str(s) => ("str", s.clone()),
                Value::Int(n) => ("int", n.to_string()),
                Value::Float(f) => ("float", f.to_string()),
                Value::Bool(b) => ("bool", b.to_string()),
                Value::Null => ("null", String::new()),
            };
            let _ = writeln!(
                out,
                "resume_given({i}, {j}, {}, {kind}, {}).",
                q(&pct(attr)),
                q(&pct(&payload))
            );
        }
    }
    for (i, e) in token.journal.iter().enumerate() {
        let method = match e.request.method {
            Method::Get => "get",
            Method::Post => "post",
        };
        let _ = writeln!(
            out,
            "resume_journal({i}, {method}, {}, {}).",
            q(&pct(&e.request.url.host)),
            q(&pct(&e.request.url.path))
        );
        for (j, (k, v)) in e.request.url.query.iter().enumerate() {
            let _ = writeln!(out, "resume_query({i}, {j}, {}, {}).", q(&pct(k)), q(&pct(v)));
        }
        for (j, (k, v)) in e.request.params.iter().enumerate() {
            let _ = writeln!(out, "resume_param({i}, {j}, {}, {}).", q(&pct(k)), q(&pct(v)));
        }
        let _ = writeln!(out, "resume_body({i}, {}).", q(&pct_bytes(&e.body)));
    }
    out
}

pub(crate) fn as_i64(t: &Term, what: &str) -> Result<i64, PersistError> {
    match t {
        Term::Int(i) => Ok(*i),
        other => {
            Err(PersistError::Malformed(format!("{what}: expected an integer, got {other:?}")))
        }
    }
}

/// Indexed rows of one predicate, sorted by the leading integer key.
pub(crate) fn indexed<'p>(prog: &'p Program, pred: &str, arity: usize) -> Vec<(usize, &'p [Term])> {
    let mut rows: Vec<(usize, &[Term])> = facts(prog, pred, arity)
        .into_iter()
        .filter_map(|a| match a[0] {
            Term::Int(i) if i >= 0 => Some((i as usize, a)),
            _ => None,
        })
        .collect();
    rows.sort_by_key(|(i, _)| *i);
    rows
}

/// Load a resume token from fact text (inverse of [`render_resume`]).
pub fn parse_resume(text: &str) -> Result<ResumeToken, PersistError> {
    let prog = parse_program(text)?;
    let mut token = ResumeToken::default();

    for a in facts(&prog, "resume_budget", 2) {
        let key = as_str(&a[0], "budget key")?;
        let n = as_i64(&a[1], "budget value")?;
        match key.as_str() {
            "deadline_ns" => token.budget.deadline = Some(Duration::from_nanos(n as u64)),
            "max_fetches" => token.budget.max_fetches = Some(n as u64),
            "site_fetches" => token.budget.site_fetches = Some(n as u64),
            "fair_share" => token.budget.fair_share = n != 0,
            other => {
                return Err(PersistError::Malformed(format!("unknown budget key {other}")));
            }
        }
    }
    for a in facts(&prog, "resume_spent", 2) {
        let key = as_str(&a[0], "spent key")?;
        let n = as_i64(&a[1], "spent value")?;
        match key.as_str() {
            "elapsed_ns" => token.spent_network = Duration::from_nanos(n as u64),
            "fetches" => token.spent_fetches = n as u64,
            other => return Err(PersistError::Malformed(format!("unknown spent key {other}"))),
        }
    }

    for (i, a) in indexed(&prog, "resume_position", 2) {
        let relation = unpct(&as_str(&a[1], "position relation")?)?;
        let mut given: Vec<(usize, (String, Value))> = Vec::new();
        for g in facts(&prog, "resume_given", 5) {
            if g[0] != Term::Int(i as i64) {
                continue;
            }
            let j = as_usize(&g[1], "given seq")?;
            let attr = unpct(&as_str(&g[2], "given attr")?)?;
            let kind = as_str(&g[3], "given kind")?;
            let payload = unpct(&as_str(&g[4], "given payload")?)?;
            let value =
                match kind.as_str() {
                    "str" => Value::Str(payload),
                    "int" => Value::Int(payload.parse().map_err(|_| {
                        PersistError::Malformed(format!("bad int payload {payload}"))
                    })?),
                    "float" => Value::Float(payload.parse().map_err(|_| {
                        PersistError::Malformed(format!("bad float payload {payload}"))
                    })?),
                    "bool" => Value::Bool(payload == "true"),
                    "null" => Value::Null,
                    other => {
                        return Err(PersistError::Malformed(format!("unknown value kind {other}")));
                    }
                };
            given.push((j, (attr, value)));
        }
        given.sort_by_key(|(j, _)| *j);
        token
            .positions
            .push(NavPosition { relation, given: given.into_iter().map(|(_, kv)| kv).collect() });
    }

    for (i, a) in indexed(&prog, "resume_journal", 4) {
        let method = match as_str(&a[1], "journal method")?.as_str() {
            "get" => Method::Get,
            "post" => Method::Post,
            other => return Err(PersistError::Malformed(format!("unknown method {other}"))),
        };
        let host = unpct(&as_str(&a[2], "journal host")?)?;
        let path = unpct(&as_str(&a[3], "journal path")?)?;
        let pairs = |pred: &str| -> Result<Vec<(String, String)>, PersistError> {
            let mut rows: Vec<(usize, (String, String))> = Vec::new();
            for p in facts(&prog, pred, 4) {
                if p[0] != Term::Int(i as i64) {
                    continue;
                }
                let j = as_usize(&p[1], "pair seq")?;
                rows.push((
                    j,
                    (unpct(&as_str(&p[2], "pair key")?)?, unpct(&as_str(&p[3], "pair value")?)?),
                ));
            }
            rows.sort_by_key(|(j, _)| *j);
            Ok(rows.into_iter().map(|(_, kv)| kv).collect())
        };
        let mut url = Url::new(&host, &path);
        url.query = pairs("resume_query")?;
        let body = facts(&prog, "resume_body", 2)
            .into_iter()
            .find(|b| b[0] == Term::Int(i as i64))
            .map(|b| as_str(&b[1], "journal body"))
            .transpose()?
            .map(|s| unpct_bytes(&s))
            .transpose()?
            .ok_or_else(|| PersistError::Malformed(format!("journal entry {i}: missing body")))?;
        token.journal.push(JournalEntry {
            request: Request { method, url, params: pairs("resume_param")? },
            body: bytes::Bytes::from(body),
        });
    }
    Ok(token)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::QueryBudget;
    use crate::recorder::Recorder;
    use crate::sessions;
    use webbase_webworld::prelude::*;

    fn recorded_maps() -> Vec<NavigationMap> {
        let data = Dataset::generate(7, 400);
        let web = standard_web(data.clone(), LatencyModel::zero());
        sessions::all_sessions(&data)
            .into_iter()
            .map(|(host, session)| {
                Recorder::record(web.clone(), host, &session).expect("records").0
            })
            .collect()
    }

    #[test]
    fn every_recorded_map_roundtrips() {
        for map in recorded_maps() {
            let text = render_facts(&map);
            let loaded = parse_map(&text).unwrap_or_else(|e| panic!("{}: {e}\n{text}", map.site));
            assert_eq!(loaded, map, "{} did not roundtrip", map.site);
        }
    }

    #[test]
    fn loaded_map_still_navigates() {
        let data = Dataset::generate(7, 400);
        let web = standard_web(data.clone(), LatencyModel::zero());
        let (map, _) = Recorder::record(web.clone(), "www.newsday.com", &sessions::newsday(&data))
            .expect("records");
        let text = render_facts(&map);
        let loaded = parse_map(&text).expect("loads");
        let nav = crate::executor::SiteNavigator::new(web, loaded);
        let (records, _) = nav
            .run_relation(
                "newsday",
                &[("make".to_string(), webbase_relational::Value::str("ford"))],
            )
            .expect("runs");
        let truth = data.matching(webbase_webworld::data::SiteSlice::Newsday, Some("ford"), None);
        assert_eq!(records.len(), truth.len());
    }

    #[test]
    fn malformed_facts_are_rejected() {
        assert!(matches!(
            parse_map("node(0, 'a', 'b', 'c', page)."),
            Err(PersistError::Malformed(_))
        ));
        assert!(matches!(
            parse_map("site('x'). entry(0). node(1, 'a', 'b', 'c', page)."),
            Err(PersistError::Malformed(_)) // non-dense ids
        ));
        assert!(matches!(parse_map("syntax error ("), Err(PersistError::Parse(_))));
        // Edge endpoints and relation data nodes must name a node.
        let one_node = "site('x'). entry(0). node(0, 'a', 'b', 'c', page).";
        assert!(matches!(
            parse_map(&format!(
                "{one_node} edge(0, 0, 4242). action(e(0), 0, follow, 'More', '/more')."
            )),
            Err(PersistError::Malformed(_))
        ));
        assert!(matches!(
            parse_map(&format!("{one_node} relation_reg('bogus', 4242).")),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn quotes_in_titles_survive() {
        let mut map = NavigationMap::new("h");
        map.add_node("N", "/|", "Bob's \"Cars\"");
        let text = render_facts(&map);
        let loaded = parse_map(&text).expect("loads");
        // Single quotes are transliterated (the fact syntax cannot escape
        // them); everything else survives.
        assert_eq!(loaded.node(0).title, "Bob’s \"Cars\"");
    }

    #[test]
    fn resume_token_roundtrips_byte_identically() {
        let url = Url::new("www.newsday.com", "/cgi-bin/nclassy")
            .with_query([("make", "ford"), ("odd", "a'b \"c\" %20\n&=?")]);
        let token = ResumeToken {
            budget: QueryBudget::unlimited()
                .with_deadline(Duration::from_millis(5500))
                .with_fetch_quota(40)
                .with_site_quota(10)
                .with_fair_share(true),
            spent_network: Duration::from_micros(123_456),
            spent_fetches: 17,
            positions: vec![NavPosition {
                relation: "newsday".into(),
                given: vec![
                    ("make".into(), Value::str("ford")),
                    ("year".into(), Value::Int(1999)),
                    ("price".into(), Value::Float(1234.5)),
                    ("sold".into(), Value::Bool(false)),
                    ("note".into(), Value::Null),
                ],
            }],
            journal: vec![
                JournalEntry {
                    request: Request::get(url),
                    body: "<html><head><title>Bob's \"Cars\"</title></head>\n<body>100%</html>"
                        .into(),
                },
                JournalEntry {
                    request: Request::post(
                        Url::new("www.kbb.com", "/cgi-bin/bb"),
                        [("condition", "good"), ("tricky", "it's 50% & more")],
                    ),
                    body: bytes::Bytes::new(),
                },
            ],
        };
        let text = render_resume(&token);
        let loaded = parse_resume(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        // Byte-identical — single quotes, percent signs, newlines and all
        // (the map serialiser's transliteration would corrupt these).
        assert_eq!(loaded, token);
    }

    #[test]
    fn empty_resume_token_roundtrips() {
        let token = ResumeToken::default();
        assert!(token.is_empty());
        let loaded = parse_resume(&render_resume(&token)).expect("loads");
        assert_eq!(loaded, token);
    }

    #[test]
    fn malformed_resume_facts_are_rejected() {
        assert!(matches!(
            parse_resume("resume_budget(warp_factor, 9)."),
            Err(PersistError::Malformed(_))
        ));
        assert!(matches!(
            parse_resume("resume_journal(0, get, 'h', '/')."),
            Err(PersistError::Malformed(_)) // missing body
        ));
        assert!(matches!(
            parse_resume("resume_journal(0, get, 'h', '/'). resume_body(0, '%ZZ')."),
            Err(PersistError::Malformed(_)) // bad percent escape
        ));
        assert!(matches!(parse_resume("( syntax"), Err(PersistError::Parse(_))));
    }

    #[test]
    fn facts_are_plain_flogic() {
        // The serialised form is consumable by the calculus itself: query
        // it like any program.
        let data = Dataset::generate(7, 400);
        let web = standard_web(data.clone(), LatencyModel::zero());
        let (map, _) = Recorder::record(web, "www.kbb.com", &sessions::kellys()).expect("records");
        let prog = parse_program(&render_facts(&map)).expect("parses");
        let mut m = webbase_flogic::Machine::new(&prog, webbase_flogic::ObjectStore::new());
        let sols = m.solve_str("relation_reg(R, N)").expect("solves");
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0]["R"], Term::atom("kellys"));
    }
}

//! Map → navigation-calculus compilation (Figure 4).
//!
//! "Navigation expressions … can be derived automatically directly from
//! that map in linear time in the size of the map." This module is that
//! translation. For every relation registered on a data node `D`, it
//! emits serial-Horn Transaction F-logic rules:
//!
//! * a top rule `rel(A₁…Aₙ) :- fetch_entry(site, P₀), nav_rel_n⟨entry⟩(P₀, A₁…Aₙ).`
//! * for every node `N` that can reach `D`, one rule per out-edge on a
//!   path to `D`:
//!   `nav_rel_nN(P, Ā) :- ⟨action goals on P binding P′⟩, nav_rel_nM(P′, Ā).`
//! * at `D` itself, the extraction rule
//!   `nav_rel_nD(P, Ā) :- P : data_page, collect(P, spec, t(Ā)).`
//!   plus (if recorded) the "More" self-loop rule — the Figure 4
//!   iteration.
//!
//! Branch guards are *structural*, exactly as in Figure 4: each rule
//! begins by locating its action among the F-logic objects the executor
//! asserts for the current page (`P[actions ->> A], A : form_submit,
//! A[cgi -> …]`), so on a page lacking that action the rule simply
//! fails and the interpreter backtracks into the other branch.

use crate::map::{NavigationMap, NodeId, NodeKind};
use crate::model::ActionDescr;
use webbase_flogic::goal::Goal;
use webbase_flogic::program::{Program, Rule};
use webbase_flogic::term::{Sym, Term, Var};

/// The compiled artefacts for one site map.
#[derive(Debug, Clone)]
pub struct CompiledSite {
    pub program: Program,
    /// (relation name, schema attrs, spec id) for each registered relation.
    pub relations: Vec<CompiledRelation>,
    /// (choice-set id, choices) for link-defined attributes.
    pub value_link_sets: Vec<(String, Vec<(String, String)>)>,
}

/// Why a map does not compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// A relation is registered on several data pages whose extraction
    /// scripts produce different schemas, so no one schema describes
    /// its tuples.
    SchemaConflict {
        relation: String,
        /// The data page whose schema disagrees with the first one's.
        node: NodeId,
        first: Vec<String>,
        other: Vec<String>,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::SchemaConflict { relation, node, first, other } => write!(
                f,
                "relation {relation}: data page {node} extracts ({}), an earlier data page ({})",
                other.join(", "),
                first.join(", ")
            ),
        }
    }
}

impl std::error::Error for CompileError {}

#[derive(Debug, Clone)]
pub struct CompiledRelation {
    pub name: String,
    /// Attribute names, in tuple order (= extraction spec order).
    pub attrs: Vec<String>,
    /// Spec identifier registered with the executor.
    pub spec_id: String,
}

/// Compile every registered relation of a map. Linear in the size of
/// the (reachable part of the) map per relation. A relation whose data
/// pages disagree on their schema is an error; webcheck reports it as an
/// E-level finding.
pub fn compile_map(map: &NavigationMap) -> Result<CompiledSite, CompileError> {
    let mut program = Program::new();
    let mut relations = Vec::new();
    let mut value_link_sets = Vec::new();

    for reg in &map.relations {
        let data_node = reg.data_node;
        let NodeKind::Data(spec) = &map.node(data_node).kind else {
            continue; // registration without a data mark: nothing to compile
        };
        let attrs = spec.attrs();
        let n = attrs.len();
        // One spec per (relation, data node): the paper allows several
        // handles — and several data pages — per relation.
        let spec_id = spec_id_for(&reg.relation, data_node);
        if let Some(existing) =
            relations.iter().find(|r: &&CompiledRelation| r.name == reg.relation)
        {
            if existing.attrs != attrs {
                return Err(CompileError::SchemaConflict {
                    relation: reg.relation.clone(),
                    node: data_node,
                    first: existing.attrs.clone(),
                    other: attrs,
                });
            }
        } else {
            relations.push(CompiledRelation {
                name: reg.relation.clone(),
                attrs: attrs.clone(),
                spec_id: spec_id.clone(),
            });
        }

        // Direct-dereference rule: when the data page's own URL is an
        // extracted attribute, the relation can be invoked by simply
        // fetching that URL (the handle's mandatory attribute *is* the
        // page address — newsdayCarFeatures(Url, …) in Table 3).
        if let Some(url_field) =
            spec.fields().iter().find(|f| f.source == crate::extractor::PAGE_URL_SOURCE)
        {
            if let Some(url_pos) = attrs.iter().position(|a| *a == url_field.attr) {
                let head_args: Vec<Term> = (0..n as u32).map(|i| Term::Var(Var(i))).collect();
                let pg = Term::Var(Var(n as u32));
                let tuple = Term::Compound(Sym::new("t"), head_args.clone());
                let body = Goal::seq(vec![
                    Goal::atom("goto_url", vec![head_args[url_pos].clone(), pg.clone()]),
                    Goal::IsA(pg.clone(), Sym::new("data_page")),
                    Goal::atom("collect", vec![pg, Term::atom(&spec_id), tuple]),
                ]);
                program.push(Rule { head_pred: Sym::new(&reg.relation), head_args, body });
            }
        }

        // Which nodes can reach the data node (including itself)?
        let reach = reverse_reachable(map, data_node);
        // Disambiguate rule families when one relation has several data
        // nodes (several handles): nav predicates are per registration.
        let reg_key = format!("{}_d{}", reg.relation, data_node);

        // Top rule: rel(A1..An) :- fetch_entry(site, P0), nav_entry(P0, A1..An).
        let head_args: Vec<Term> = (0..n as u32).map(|i| Term::Var(Var(i))).collect();
        let p0 = Term::Var(Var(n as u32));
        let body = Goal::seq(vec![
            Goal::atom("fetch_entry", vec![Term::str(map.site.clone()), p0.clone()]),
            Goal::Atom(
                nav_pred(&reg_key, map.entry),
                std::iter::once(p0).chain(head_args.iter().cloned()).collect(),
            ),
        ]);
        program.push(Rule { head_pred: Sym::new(&reg.relation), head_args, body });

        // Per-node rules.
        for node in &map.nodes {
            if !reach[node.id] {
                continue;
            }
            // Extraction rule at the data node.
            if node.id == data_node {
                let p = Term::Var(Var(0));
                let args: Vec<Term> = (1..=n as u32).map(|i| Term::Var(Var(i))).collect();
                let tuple = Term::Compound(Sym::new("t"), args.clone());
                let body = Goal::seq(vec![
                    Goal::IsA(p.clone(), Sym::new("data_page")),
                    Goal::atom("collect", vec![p.clone(), Term::atom(&spec_id), tuple]),
                ]);
                program.push(Rule {
                    head_pred: nav_pred(&reg_key, node.id),
                    head_args: std::iter::once(p).chain(args).collect(),
                    body,
                });
            }
            // Edge rules: only edges that stay within the reachable set.
            for edge in map.out_edges(node.id) {
                if !reach[edge.to] {
                    continue;
                }
                // The paper's newsdayCarFeatures pattern: when the final
                // hop to the data node is a link and the data page's own
                // URL is an extracted attribute, unify the link's
                // `address` with that attribute — a bound Url then
                // selects exactly one link, an unbound one enumerates.
                let address_attr = if edge.to == data_node {
                    spec.fields()
                        .iter()
                        .find(|f| f.source == crate::extractor::PAGE_URL_SOURCE)
                        .map(|f| f.attr.clone())
                } else {
                    None
                };
                let rule = compile_edge_rule(
                    &reg_key,
                    &attrs,
                    node.id,
                    edge.to,
                    &edge.action,
                    address_attr.as_deref(),
                    &mut value_link_sets,
                );
                program.push(rule);
            }
        }
    }

    Ok(CompiledSite { program, relations, value_link_sets })
}

/// `nav_<rel>_n<k>`
fn nav_pred(relation: &str, node: NodeId) -> Sym {
    Sym::new(&format!("nav_{relation}_n{node}"))
}

/// The extraction-spec identifier for one (relation, data node) pair.
pub fn spec_id_for(relation: &str, node: NodeId) -> String {
    format!("spec_{relation}_n{node}")
}

/// Nodes from which `target` is reachable (forward edges), computed by
/// reverse BFS.
fn reverse_reachable(map: &NavigationMap, target: NodeId) -> Vec<bool> {
    let mut reach = vec![false; map.nodes.len()];
    reach[target] = true;
    let mut queue = std::collections::VecDeque::from([target]);
    while let Some(n) = queue.pop_front() {
        for e in &map.edges {
            if e.to == n && !reach[e.from] {
                reach[e.from] = true;
                queue.push_back(e.from);
            }
        }
    }
    reach
}

/// One edge's rule. Variable layout: Var(0) = P (current page),
/// Var(1..=n) = relation attributes, Var(n+1) = A (action object),
/// Var(n+2) = P' (next page).
fn compile_edge_rule(
    relation: &str,
    attrs: &[String],
    from: NodeId,
    to: NodeId,
    action: &ActionDescr,
    address_attr: Option<&str>,
    value_link_sets: &mut Vec<(String, Vec<(String, String)>)>,
) -> Rule {
    let n = attrs.len() as u32;
    let p = Term::Var(Var(0));
    let attr_vars: Vec<Term> = (1..=n).map(|i| Term::Var(Var(i))).collect();
    let a = Term::Var(Var(n + 1));
    let p2 = Term::Var(Var(n + 2));

    let action_goals: Vec<Goal> = match action {
        ActionDescr::Follow(link) => {
            let mut goals = vec![
                Goal::SetAttr(p.clone(), Sym::new("actions"), a.clone()),
                Goal::IsA(a.clone(), Sym::new("link_follow")),
                Goal::ScalarAttr(a.clone(), Sym::new("name"), Term::atom(&link.name)),
            ];
            if let Some(url_attr) = address_attr {
                if let Some(pos) = attrs.iter().position(|x| x == url_attr) {
                    goals.push(Goal::ScalarAttr(
                        a.clone(),
                        Sym::new("address"),
                        attr_vars[pos].clone(),
                    ));
                }
            }
            goals.push(Goal::atom("doit", vec![a.clone(), Term::atom("params"), p2.clone()]));
            goals
        }
        ActionDescr::Submit(form) => {
            // params(pair(field, Vi), …) for settable fields whose attr is
            // in the relation schema.
            let mut pairs: Vec<Term> = Vec::new();
            for f in form.settable() {
                if let Some(pos) = attrs.iter().position(|x| *x == f.attr) {
                    pairs.push(Term::compound(
                        "pair",
                        vec![Term::atom(&f.name), attr_vars[pos].clone()],
                    ));
                }
            }
            vec![
                Goal::SetAttr(p.clone(), Sym::new("actions"), a.clone()),
                Goal::IsA(a.clone(), Sym::new("form_submit")),
                Goal::ScalarAttr(a.clone(), Sym::new("cgi"), Term::atom(&form.cgi)),
                Goal::atom(
                    "doit",
                    vec![
                        a.clone(),
                        if pairs.is_empty() {
                            Term::atom("params")
                        } else {
                            Term::Compound(Sym::new("params"), pairs)
                        },
                        p2.clone(),
                    ],
                ),
            ]
        }
        ActionDescr::FollowByValue { attr, choices } => {
            let set_id = format!("linkset_{relation}_n{from}_{attr}");
            if !value_link_sets.iter().any(|(id, _)| *id == set_id) {
                value_link_sets.push((set_id.clone(), choices.clone()));
            }
            let pos = attrs.iter().position(|x| x == attr);
            let value_term = match pos {
                Some(i) => attr_vars[i].clone(),
                // The attribute is not part of this relation's schema:
                // enumerate all choices via an anonymous variable.
                None => Term::Var(Var(n + 3)),
            };
            vec![Goal::atom(
                "doit_value",
                vec![p.clone(), Term::atom(&set_id), value_term, p2.clone()],
            )]
        }
    };

    let mut body: Vec<Goal> = action_goals;
    body.push(Goal::Atom(
        nav_pred(relation, to),
        std::iter::once(p2).chain(attr_vars.iter().cloned()).collect(),
    ));
    Rule {
        head_pred: nav_pred(relation, from),
        head_args: std::iter::once(p).chain(attr_vars).collect(),
        body: Goal::seq(body),
    }
}

/// Pretty-print a compiled site's program — the Figure 4 reproduction.
pub fn render_program(site: &CompiledSite) -> String {
    webbase_flogic::pretty::program(&site.program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extractor::{CellParse, ExtractionSpec, FieldSpec};
    use crate::map::NavigationMap;
    use crate::model::{ActionDescr, FormDescr, LinkDescr};
    use webbase_html::extract::WidgetKind;

    /// A hand-built miniature of the Figure 2 map.
    fn mini_map() -> NavigationMap {
        let mut m = NavigationMap::new("www.newsday.com");
        let home = m.add_node("HomePg", "/|", "Newsday");
        let used = m.add_node("UsedCarPg", "/auto/used|form", "Used cars");
        let data = m.add_node("DataPg", "/cgi|table", "Listings");
        m.entry = home;
        m.add_edge(
            home,
            used,
            ActionDescr::Follow(LinkDescr { name: "Used Cars".into(), href: "/auto/used".into() }),
        );
        let form = FormDescr {
            cgi: "/cgi-bin/nclassy".into(),
            method: "post".into(),
            fields: vec![crate::model::FieldDescr {
                name: "make".into(),
                attr: "make".into(),
                widget: WidgetKind::Select { options: vec!["ford".into()] },
                mandatory: true,
                manual_facts: 0,
                fixed_value: None,
                default: None,
            }],
        };
        m.add_edge(used, data, ActionDescr::Submit(form));
        m.add_edge(
            data,
            data,
            ActionDescr::Follow(LinkDescr { name: "More".into(), href: "/cgi?page=1".into() }),
        );
        m.node_mut(data).kind = NodeKind::Data(ExtractionSpec::Table {
            fields: vec![
                FieldSpec::new("Make", "make", CellParse::Text),
                FieldSpec::new("Price", "price", CellParse::Number),
            ],
        });
        m.register_relation("newsday", data);
        m
    }

    #[test]
    fn compiles_all_rule_shapes() {
        let compiled = compile_map(&mini_map()).expect("compiles");
        // top rule + home edge + used edge + data collect + More loop = 5
        assert_eq!(compiled.program.rule_count(), 5);
        assert_eq!(compiled.relations.len(), 1);
        assert_eq!(compiled.relations[0].attrs, vec!["make", "price"]);
        let text = render_program(&compiled);
        assert!(text.contains("newsday(V0, V1) :-"), "{text}");
        assert!(text.contains("fetch_entry(\"www.newsday.com\""), "{text}");
        assert!(text.contains("link_follow"), "{text}");
        assert!(text.contains("form_submit"), "{text}");
        assert!(text.contains("'/cgi-bin/nclassy'"), "{text}");
        assert!(text.contains("collect"), "{text}");
        assert!(text.contains("data_page"), "{text}");
        assert!(text.contains("'More'"), "{text}");
    }

    #[test]
    fn program_is_reparseable() {
        let compiled = compile_map(&mini_map()).expect("compiles");
        let text = render_program(&compiled);
        let reparsed = webbase_flogic::parser::parse_program(&text)
            .unwrap_or_else(|e| panic!("compiled program must re-parse: {e}\n{text}"));
        assert_eq!(reparsed.rule_count(), compiled.program.rule_count());
    }

    #[test]
    fn unreachable_nodes_are_skipped() {
        let mut m = mini_map();
        // A distractor page that cannot reach the data node.
        let distractor = m.add_node("SportsPg", "/sports|", "Sports");
        m.add_edge(
            0,
            distractor,
            ActionDescr::Follow(LinkDescr { name: "Sports".into(), href: "/sports".into() }),
        );
        let compiled = compile_map(&m).expect("compiles");
        let text = render_program(&compiled);
        assert!(!text.contains("Sports"), "distractor leaked into program:\n{text}");
        assert_eq!(compiled.program.rule_count(), 5);
    }

    #[test]
    fn form_params_only_for_schema_attrs() {
        let compiled = compile_map(&mini_map()).expect("compiles");
        let text = render_program(&compiled);
        // the form rule passes pair(make, V..) but nothing else
        assert!(text.contains("pair(make,"), "{text}");
        assert!(!text.contains("pair(price"), "{text}");
    }

    #[test]
    fn value_links_compile_to_doit_value() {
        let mut m = NavigationMap::new("www.autoweb.com");
        let home = m.add_node("HomePg", "/|", "AutoWeb");
        let data = m.add_node("MakePg", "/cars/ford|table", "Ford");
        m.entry = home;
        m.add_edge(
            home,
            data,
            ActionDescr::FollowByValue {
                attr: "make".into(),
                choices: vec![("ford".into(), "/cars/ford".into())],
            },
        );
        m.node_mut(data).kind = NodeKind::Data(ExtractionSpec::Table {
            fields: vec![FieldSpec::new("Make", "make", CellParse::Text)],
        });
        m.register_relation("autoweb", data);
        let compiled = compile_map(&m).expect("compiles");
        assert_eq!(compiled.value_link_sets.len(), 1);
        let text = render_program(&compiled);
        assert!(text.contains("doit_value"), "{text}");
        assert!(text.contains("linkset_autoweb_d1_n0_make"), "{text}");
    }

    #[test]
    fn data_pages_that_disagree_on_a_relations_schema_do_not_compile() {
        let mut m = mini_map();
        let detail = m.add_node("DetailPg", "/car/*|dl", "Detail");
        m.node_mut(detail).kind = NodeKind::Data(ExtractionSpec::DefList {
            fields: vec![FieldSpec::new("Features", "features", CellParse::Text)],
        });
        m.register_relation("newsday", detail);
        match compile_map(&m) {
            Err(CompileError::SchemaConflict { relation, node, first, other }) => {
                assert_eq!((relation.as_str(), node), ("newsday", detail));
                assert_eq!(other, ["features"]);
                assert_ne!(first, other);
            }
            Ok(_) => panic!("a relation with two schemas compiled"),
        }
    }

    #[test]
    fn two_relations_compile_independently() {
        let mut m = mini_map();
        // Register a second relation on a second data node.
        let detail = m.add_node("DetailPg", "/car/*|dl", "Detail");
        m.add_edge(
            2,
            detail,
            ActionDescr::Follow(LinkDescr { name: "Car Features".into(), href: "/car/1".into() }),
        );
        m.node_mut(detail).kind = NodeKind::Data(ExtractionSpec::DefList {
            fields: vec![FieldSpec::new("Features", "features", CellParse::Text)],
        });
        m.register_relation("newsdayCarFeatures", detail);
        let compiled = compile_map(&m).expect("compiles");
        assert_eq!(compiled.relations.len(), 2);
        let text = render_program(&compiled);
        assert!(text.contains("newsdayCarFeatures(V0) :-"), "{text}");
    }
}

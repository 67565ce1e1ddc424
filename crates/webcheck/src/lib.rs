//! # webbase-webcheck
//!
//! Cross-layer static analysis for the webbase: reject a broken spec at
//! **load time**, not ten fetches into a query. Three passes:
//!
//! 1. **Map linting** ([`map_lint`]) — the recorded [`NavigationMap`]
//!    is internally coherent: reachability, edge hygiene, mandatory
//!    coverage, handle viability. Codes `W001`–`W005`, `E101`–`E104`.
//! 2. **Program safety** ([`program`]) — the map compiles and the
//!    compiled Transaction F-logic program is runnable: range
//!    restriction, resolvable calls, live rules, and molecules
//!    conforming to the Figure 3 signatures. Codes `W011`–`W012`,
//!    `E111`–`E115`.
//! 3. **Cross-layer conformance** ([`cross`]) — the logical schema, the
//!    VPS catalog, and the UR's compatibility rules agree. Codes
//!    `W021`, `E121`–`E124`.
//!
//! All passes speak the [`diag`] vocabulary: stable codes, severities,
//! locations, one rendered [`Report`]. `E`-level findings mean the spec
//! must be rejected; `W`-level findings load with a warning.
//!
//! The passes are pure functions over already-built artefacts — running
//! them costs nothing on the query path.

pub mod cross;
pub mod diag;
pub mod manifest;
pub mod map_lint;
pub mod program;
pub mod semantic;
pub mod signatures;

pub use cross::{
    check_cross_layer, CompatRuleSpec, CrossLayerInput, HandleSpec, LogicalSpec, VpsRelSpec,
    CROSS_LAYER,
};
pub use diag::{render_code_table, Code, Diagnostic, Report, Severity};
pub use manifest::{check_manifest, reported_codes, ManifestCheck};
pub use map_lint::check_map;
pub use program::{check_compiled, check_program, ORACLE_BUILTINS};
pub use semantic::{check_semantics, site_semantics, Bound, CostInterval, SiteSemantics};
pub use signatures::{navigation_index, navigation_signatures};

use webbase_navigation::compile::{compile_map, CompileError};
use webbase_navigation::map::NavigationMap;

/// The complete per-site analysis: passes 1 (map lint), 2 (program
/// safety), and 4 (semantic/abstract interpretation), plus the derived
/// [`SiteSemantics`] the runtime consumes. This is the **single**
/// map-ingestion entry point — every path that loads a map (catalog
/// `add_map`, engine build, hot reload) goes through it, so no loaded
/// map can skip a pass.
pub fn analyze_full(map: &NavigationMap) -> (Report, SiteSemantics) {
    let mut report = map_lint::check_map(map);
    if !report.has_errors() {
        match compile_map(map) {
            Ok(compiled) => report.merge(program::check_compiled(&map.site, &compiled)),
            Err(err @ CompileError::SchemaConflict { node, .. }) => report.push(Diagnostic::new(
                diag::SCHEMA_CONFLICT,
                &map.site,
                format!("node {node}"),
                err.to_string(),
            )),
        }
    }
    report.merge(semantic::check_semantics(map));
    (report, semantic::site_semantics(map))
}

/// Run all analysis passes over one site's map, discarding the derived
/// semantics (callers that also want them use [`analyze_full`]).
/// An E-level map finding short-circuits pass 2, which assumes a map
/// lint-clean enough to compile.
pub fn check_site(map: &NavigationMap) -> Report {
    analyze_full(map).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use webbase_html::extract::WidgetKind;
    use webbase_navigation::extractor::{CellParse, ExtractionSpec, FieldSpec};
    use webbase_navigation::map::{NavigationMap, NodeKind};
    use webbase_navigation::model::{ActionDescr, FieldDescr, FormDescr, LinkDescr};

    /// A healthy miniature of the Figure 2 map (mirrors the compile
    /// fixture): home --link--> form page --submit--> data page with a
    /// More loop, catalogue kept in sync with the edges.
    fn mini_map() -> NavigationMap {
        let mut m = NavigationMap::new("www.newsday.com");
        let home = m.add_node("HomePg", "/|", "Newsday");
        let used = m.add_node("UsedCarPg", "/auto/used|form", "Used cars");
        let data = m.add_node("DataPg", "/cgi|table", "Listings");
        m.entry = home;
        let used_link = LinkDescr { name: "Used Cars".into(), href: "/auto/used".into() };
        m.node_mut(home).actions.push(ActionDescr::Follow(used_link.clone()));
        m.add_edge(home, used, ActionDescr::Follow(used_link));
        let form = FormDescr {
            cgi: "/cgi-bin/nclassy".into(),
            method: "post".into(),
            fields: vec![FieldDescr {
                name: "make".into(),
                attr: "make".into(),
                widget: WidgetKind::Select { options: vec!["ford".into()] },
                mandatory: true,
                manual_facts: 0,
                fixed_value: None,
                default: None,
            }],
        };
        m.node_mut(used).actions.push(ActionDescr::Submit(form.clone()));
        m.add_edge(used, data, ActionDescr::Submit(form));
        let more = LinkDescr { name: "More".into(), href: "/cgi?page=1".into() };
        m.node_mut(data).actions.push(ActionDescr::Follow(more.clone()));
        m.add_edge(data, data, ActionDescr::Follow(more));
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
    fn healthy_map_is_clean() {
        let report = check_site(&mini_map());
        assert!(report.is_clean(), "unexpected findings:\n{}", report.render());
    }

    #[test]
    fn unreachable_node_w001() {
        let mut m = mini_map();
        m.add_node("LonelyPg", "/x|", "X");
        let report = check_site(&m);
        assert_eq!(report.with_code("W001").len(), 1, "{}", report.render());
        assert!(!report.has_errors());
    }

    #[test]
    fn conflicting_exemplar_insertion_w002() {
        let mut m = mini_map();
        let submit = m.edges[1].action.clone();
        m.add_edge_with(1, 2, submit, vec![("make".into(), "jaguar".into())]);
        let report = check_site(&m);
        assert_eq!(report.with_code("W002").len(), 1, "{}", report.render());
    }

    #[test]
    fn ambiguous_targets_w003() {
        let mut m = mini_map();
        // The same link action, same (empty) exemplar, recorded toward a
        // second target.
        let detour = m.add_node("DetourPg", "/detour|", "Detour");
        let link = LinkDescr { name: "Used Cars".into(), href: "/auto/used".into() };
        m.add_edge(0, detour, ActionDescr::Follow(link));
        let report = check_map(&m);
        assert_eq!(report.with_code("W003").len(), 1, "{}", report.render());
    }

    #[test]
    fn stateless_more_loop_w004() {
        let mut m = mini_map();
        let more = LinkDescr { name: "More".into(), href: "/more".into() };
        m.node_mut(2).actions.push(ActionDescr::Follow(more.clone()));
        m.add_edge(2, 2, ActionDescr::Follow(more));
        let report = check_site(&m);
        assert_eq!(report.with_code("W004").len(), 1, "{}", report.render());
    }

    #[test]
    fn uncatalogued_edge_w005() {
        let mut m = mini_map();
        // Simulate catalogue drift: the page's recorded links no longer
        // include the anchor the edge relies on.
        m.node_mut(0).actions.clear();
        let report = check_site(&m);
        assert_eq!(report.with_code("W005").len(), 1, "{}", report.render());
    }

    #[test]
    fn unreachable_data_node_e101() {
        let mut m = mini_map();
        m.edges.retain(|e| !(e.from == 1 && e.to == 2)); // sever the submit hop
        let report = check_site(&m);
        assert!(!report.with_code("E101").is_empty(), "{}", report.render());
        assert!(report.has_errors());
    }

    #[test]
    fn relation_on_plain_page_e102() {
        let mut m = mini_map();
        m.register_relation("bogus", 1); // node 1 has no extraction script
        let report = check_site(&m);
        assert_eq!(report.with_code("E102").len(), 1, "{}", report.render());
    }

    #[test]
    fn dropped_mandatory_field_e103() {
        let mut m = mini_map();
        // The edge's recorded form lost the mandatory make field the
        // page's catalogue still shows.
        if let ActionDescr::Submit(f) = &mut m.edges[1].action {
            f.fields.clear();
        }
        let report = check_site(&m);
        assert!(!report.with_code("E103").is_empty(), "{}", report.render());
    }

    #[test]
    fn mandatory_outside_schema_e104() {
        let mut m = mini_map();
        // A mandatory zip field the relation schema cannot supply, on
        // both the catalogue and the edge copy of the form.
        let zip = FieldDescr {
            name: "zip".into(),
            attr: "zip".into(),
            widget: WidgetKind::Radio { options: vec!["10001".into()] },
            mandatory: true,
            manual_facts: 0,
            fixed_value: None,
            default: None,
        };
        if let ActionDescr::Submit(f) = &mut m.edges[1].action {
            f.fields.push(zip.clone());
        }
        if let ActionDescr::Submit(f) = &mut m.node_mut(1).actions[0] {
            f.fields.push(zip);
        }
        let report = check_site(&m);
        assert_eq!(report.with_code("E104").len(), 1, "{}", report.render());
    }

    #[test]
    fn compiled_mini_map_program_is_safe() {
        let compiled = webbase_navigation::compile::compile_map(&mini_map()).expect("compiles");
        let report = check_compiled("www.newsday.com", &compiled);
        assert!(report.is_clean(), "{}", report.render());
    }
}

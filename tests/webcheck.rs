//! Pre-flight static analysis against deployed and fault-injected maps.
//!
//! The webcheck passes promise two things: a healthy, shipped webbase
//! analyzes clean (no W-noise at seed defaults), and a map carrying the
//! kind of drift the self-healing executor later repairs at runtime is
//! flagged *before* any navigation — on the same node the runtime
//! repair would touch. The dataset seed comes from `WEBBASE_TEST_SEED`
//! (default 11), so CI sweeps this suite across seeds.

mod common;

use common::{fixture, healthy_webbase};
use webbase_flogic::goal::Goal;
use webbase_flogic::program::{Program, Rule};
use webbase_flogic::term::{Sym, Term, Var};
use webbase_html::diff::PageChange;
use webbase_navigation::model::ActionDescr;
use webbase_webcheck::{
    check_cross_layer, check_map, check_program, check_site, navigation_index, CompatRuleSpec,
    CrossLayerInput, HandleSpec, LogicalSpec, VpsRelSpec,
};
use webbase_webworld::faults::DriftingSite;
use webbase_webworld::server::Site;

const NEWSDAY: &str = "www.newsday.com";

// ───────────────────────── deployed webbase ─────────────────────────

#[test]
fn the_deployed_webbase_is_preflight_clean() {
    let wb = healthy_webbase();
    let report = wb.check();
    assert!(report.is_clean(), "unexpected findings at seed defaults:\n{}", report.render());
    // The load path accumulated the same verdict per site.
    assert!(
        wb.layer.vps.shape().preflight().is_clean(),
        "{}",
        wb.layer.vps.shape().preflight().render()
    );
}

#[test]
fn the_readme_diagnostic_table_is_generated_from_the_registry() {
    // The README table is pasted from `render_code_table()`; this pin
    // fails whenever a code is added/changed without regenerating it.
    let table = webbase_webcheck::render_code_table();
    let readme = include_str!("../README.md");
    assert!(
        readme.contains(&table),
        "README.md's diagnostic table drifted from the registry; \
         paste in the output of webbase_webcheck::render_code_table():\n{table}"
    );
}

#[test]
fn every_deployed_map_carries_semantics_from_the_single_entry_point() {
    // All map ingestion routes through `analyze_full`, so every loaded
    // site must come with its abstract interpretation: a cost interval
    // with a positive lower bound and a non-empty static read-set per
    // registered relation.
    let wb = healthy_webbase();
    for map in wb.maps() {
        let sem = wb
            .layer
            .vps
            .shape()
            .semantics_for(&map.site)
            .unwrap_or_else(|| panic!("{} loaded without semantics", map.site));
        assert_eq!(sem.host, map.site);
        for reg in &map.relations {
            let r = sem
                .relation(&reg.relation)
                .unwrap_or_else(|| panic!("{}: no semantics for {}", map.site, reg.relation));
            assert!(r.cost.min >= 1, "{}: an invocation fetches at least the entry", map.site);
            assert!(r.cost.max.admits(r.cost.min), "{}: empty interval", map.site);
            assert!(!r.read_nodes.is_empty(), "{}: empty static read-set", map.site);
            assert!(
                r.spine_nodes.is_subset(&r.read_nodes),
                "{}: the spine must sit inside the read-set",
                map.site
            );
        }
    }
}

// ──────────────── pass 2: signature conformance (flogic) ────────────

/// `r(N) :- P : web_page, P[title -> N]` — well-typed against Figure 3.
fn title_rule(attr: &str, class: &str, scalar: bool) -> Program {
    let p = Term::Var(Var(0));
    let n = Term::Var(Var(1));
    let molecule = if scalar {
        Goal::ScalarAttr(p.clone(), Sym::new(attr), n.clone())
    } else {
        Goal::SetAttr(p.clone(), Sym::new(attr), n.clone())
    };
    Program::from_rules([Rule::new(
        "r",
        vec![n],
        Goal::seq(vec![Goal::IsA(p, Sym::new(class)), molecule]),
    )])
}

#[test]
fn well_typed_molecules_pass() {
    let program = title_rule("title", "web_page", true);
    let report = check_program("<fixture>", &program, &["r".to_string()], &navigation_index());
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn scalar_used_as_set_is_e113() {
    // Figure 3 declares `web_page[actions =>> action]`; querying it with
    // a scalar arrow (`->`) is a conformance violation.
    let program = title_rule("actions", "web_page", true);
    let report = check_program("<fixture>", &program, &["r".to_string()], &navigation_index());
    assert_eq!(report.with_code("E113").len(), 1, "{}", report.render());
    assert!(report.has_errors());
}

#[test]
fn set_used_as_scalar_is_e113() {
    // The converse direction: `data_page[extract => string]` is scalar,
    // membership (`->>`) misuses it.
    let program = title_rule("extract", "data_page", false);
    let report = check_program("<fixture>", &program, &["r".to_string()], &navigation_index());
    assert_eq!(report.with_code("E113").len(), 1, "{}", report.render());
}

#[test]
fn unknown_class_is_e114() {
    let program = title_rule("title", "martian_page", true);
    let report = check_program("<fixture>", &program, &["r".to_string()], &navigation_index());
    assert_eq!(report.with_code("E114").len(), 1, "{}", report.render());
    // The attribute cannot be judged against an unknown class: no W012.
    assert!(report.with_code("W012").is_empty(), "{}", report.render());
}

#[test]
fn undeclared_attribute_is_w012() {
    let program = title_rule("aura", "web_page", true);
    let report = check_program("<fixture>", &program, &["r".to_string()], &navigation_index());
    assert_eq!(report.with_code("W012").len(), 1, "{}", report.render());
    assert!(!report.has_errors(), "W012 must stay a warning");
}

#[test]
fn compiled_site_programs_conform() {
    // Every real compiled program — the artefacts pass 2 exists for —
    // conforms to Figure 3 plus the executor supplements.
    let wb = healthy_webbase();
    for map in wb.maps() {
        let compiled = webbase_navigation::compile::compile_map(map).expect("compiles");
        let report = webbase_webcheck::check_compiled(&map.site, &compiled);
        assert!(report.is_clean(), "{}:\n{}", map.site, report.render());
    }
}

// ─────────── pass 1 vs the self-healing runtime (fault injection) ───────────

#[test]
fn stale_catalogue_is_flagged_on_the_node_healing_later_repairs() {
    let (data, _) = fixture();
    assert!(
        !data.matching(webbase_webworld::data::SiteSlice::Newsday, Some("ford"), None).is_empty(),
        "seed must give newsday ford ads, or the scenario is vacuous"
    );

    // The drift: newsday renames its "Used Cars" link. A designer who
    // refreshes the page catalogue without re-recording the session gets
    // a map whose edge still clicks the old anchor.
    let wb = healthy_webbase();
    let mut map = wb.map_for(NEWSDAY).expect("newsday map").clone();
    let edge_node = map
        .edges
        .iter()
        .find_map(|e| match &e.action {
            ActionDescr::Follow(l) if l.name == "Used Cars" => Some(e.from),
            _ => None,
        })
        .expect("the recorded map clicks Used Cars");
    for action in &mut map.node_mut(edge_node).actions {
        if let ActionDescr::Follow(l) = action {
            if l.name == "Used Cars" {
                l.name = "Pre-owned Cars".into();
            }
        }
    }
    let report = check_map(&map);
    let findings = report.with_code("W005");
    assert_eq!(findings.len(), 1, "{}", report.render());
    assert_eq!(findings[0].site, NEWSDAY);
    assert!(
        findings[0].location.contains(&format!("edge {edge_node} ")),
        "finding must name the drifted node: {}",
        findings[0]
    );

    // Now let the *runtime* meet the same drift: the executor's page
    // probe auto-repairs the rename on exactly the node the static pass
    // flagged.
    let mut drifted = common::faulty_webbase(|h, s| {
        if h == NEWSDAY {
            Box::new(
                DriftingSite::new(s, ">Used Cars</a>", ">Pre-owned Cars</a>").only_on_path("/auto"),
            ) as Box<dyn Site>
        } else {
            s
        }
    });
    drifted.select("classifieds", common::FORD_SELECT).expect("drifted query must not abort");
    let repairs = drifted.layer.vps.repairs();
    let site = repairs.sites.get(NEWSDAY).expect("newsday must report repairs");
    assert!(
        site.auto_applied.iter().any(|(node, c)| *node == edge_node
            && matches!(
                c,
                PageChange::LinkRenamed { old, new, .. }
                    if old == "Used Cars" && new == "Pre-owned Cars"
            )),
        "healing must repair the node webcheck flagged ({edge_node}): {:?}",
        site.auto_applied
    );
}

#[test]
fn severed_data_path_is_an_error_not_a_surprise_mid_query() {
    // Pass 1 defect injection on a *real* recorded map: sever the hop
    // into the data page; the relation's registration survives but can
    // never be reached → E101 (and derived handles would be empty).
    let wb = healthy_webbase();
    let mut map = wb.map_for(NEWSDAY).expect("newsday map").clone();
    let data_nodes: Vec<_> = map.relations.iter().map(|r| r.data_node).collect();
    map.edges.retain(|e| !data_nodes.contains(&e.to));
    let report = check_site(&map);
    assert!(!report.with_code("E101").is_empty(), "{}", report.render());
    assert!(report.has_errors());
}

// ──────────────── pass 3: cross-layer defect injection ───────────────

fn healthy_cross_input() -> CrossLayerInput {
    CrossLayerInput {
        logical: vec![LogicalSpec {
            name: "classifieds".into(),
            attrs: vec!["make".into(), "price".into()],
            bases: vec!["newsday".into()],
        }],
        vps: vec![VpsRelSpec {
            name: "newsday".into(),
            site: NEWSDAY.into(),
            attrs: vec!["make".into(), "price".into()],
            handles: vec![HandleSpec {
                mandatory: vec!["make".into()],
                selection: vec!["make".into(), "price".into()],
            }],
        }],
        concepts: vec!["Classifieds".into(), "Lease".into()],
        compat: vec![CompatRuleSpec::Excludes {
            premise: vec!["Lease".into()],
            then_not: "Classifieds".into(),
        }],
    }
}

#[test]
fn healthy_cross_layer_input_is_clean() {
    let report = check_cross_layer(&healthy_cross_input());
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn missing_vps_source_is_e121() {
    let mut input = healthy_cross_input();
    input.logical[0].bases = vec!["ghostSite".into()];
    let report = check_cross_layer(&input);
    assert_eq!(report.with_code("E121").len(), 1, "{}", report.render());
}

#[test]
fn unmapped_logical_attribute_is_e122() {
    let mut input = healthy_cross_input();
    input.logical[0].attrs.push("telepathy".into());
    let report = check_cross_layer(&input);
    assert_eq!(report.with_code("E122").len(), 1, "{}", report.render());
}

#[test]
fn unsatisfiable_binding_pattern_is_e123() {
    let mut input = healthy_cross_input();
    input.vps[0].handles[0].mandatory.push("zip".into()); // not in the schema
    let report = check_cross_layer(&input);
    let findings = report.with_code("E123");
    assert_eq!(findings.len(), 1, "{}", report.render());
    assert_eq!(findings[0].site, NEWSDAY, "binding findings belong to the owning site");
}

#[test]
fn vacuous_compat_rule_is_w021() {
    let mut input = healthy_cross_input();
    input.compat.push(CompatRuleSpec::Requires {
        premise: vec!["Hoverboards".into()],
        then: "Classifieds".into(),
    });
    let report = check_cross_layer(&input);
    assert_eq!(report.with_code("W021").len(), 1, "{}", report.render());
    assert!(!report.has_errors());
}

#[test]
fn contradictory_compat_rules_are_e124() {
    let mut input = healthy_cross_input();
    // Requires(Lease → Classifieds) against Excludes(Lease → ¬Classifieds).
    input.compat.push(CompatRuleSpec::Requires {
        premise: vec!["Lease".into()],
        then: "Classifieds".into(),
    });
    let report = check_cross_layer(&input);
    assert!(!report.with_code("E124").is_empty(), "{}", report.render());
}

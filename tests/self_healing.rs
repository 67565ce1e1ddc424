//! Self-healing execution against a drifted Web.
//!
//! The maps were recorded against yesterday's sites; today's sites have
//! renamed a link, reshuffled a form, or put session tokens in their
//! pagination links. The contract: queries **never abort**. Auto-
//! repairable drift is healed mid-query (same answers as the healthy
//! web); manual-intervention drift quarantines exactly the affected map
//! node (strict subset of the healthy answers, node named in the
//! report); stale CGI sessions are replayed from checkpointed inputs.
//! Identical seeds produce identical [`RepairReport`]s.

mod common;

use common::{faulty_webbase, fixture, healthy_webbase};
use webbase_html::diff::PageChange;
use webbase_navigation::model::ActionDescr;
use webbase_webworld::data::SiteSlice;
use webbase_webworld::faults::{DriftingSite, ExpiringSessionSite};
use webbase_webworld::server::Site;

/// A query whose newsday branch paginates (no model bound → many rows).
const FORD_QUERY: &str = "SELECT make, model, year, price WHERE make=ford";

const NEWSDAY: &str = "www.newsday.com";

/// The drifted web of scenario A: newsday's auto hub renames its
/// "Used Cars" link (the target survives) — auto-repairable.
fn renamed_link_webbase() -> webbase::Webbase {
    faulty_webbase(|h, s| {
        if h == NEWSDAY {
            Box::new(
                DriftingSite::new(s, ">Used Cars</a>", ">Pre-owned Cars</a>").only_on_path("/auto"),
            ) as Box<dyn Site>
        } else {
            s
        }
    })
}

/// Scenario C: newsday's search form renames its mandatory `make`
/// field — not auto-repairable, the node is quarantined.
fn renamed_field_webbase() -> webbase::Webbase {
    faulty_webbase(|h, s| {
        if h == NEWSDAY {
            Box::new(DriftingSite::new(s, "name=make>", "name=mk2>").only_on_path("/auto/used"))
                as Box<dyn Site>
        } else {
            s
        }
    })
}

#[test]
fn renamed_link_is_repaired_mid_query() {
    let (data, _) = fixture();
    assert!(
        !data.matching(SiteSlice::Newsday, Some("ford"), None).is_empty(),
        "seed must give newsday ford ads, or the scenario is vacuous"
    );
    let full = healthy_webbase().select("classifieds", FORD_QUERY).expect("healthy query");

    let mut wb = renamed_link_webbase();
    let sel = wb.select("classifieds", FORD_QUERY).expect("drifted query must not abort");
    assert_eq!(sel, full, "auto-repaired drift must not cost answers");

    let rep = wb.layer.vps.repairs();
    let site = rep.sites.get(NEWSDAY).expect("newsday must report repairs");
    assert!(
        site.auto_applied.iter().any(|(_, c)| matches!(
            c,
            PageChange::LinkRenamed { old, new, .. }
                if old == "Used Cars" && new == "Pre-owned Cars"
        )),
        "the rename must be recorded: {:?}",
        site.auto_applied
    );
    assert!(site.steps_replayed >= 1, "a renamed link is a compiled constant → replay");
    assert!(site.quarantined.is_empty(), "auto-repairable drift must not quarantine");
    assert_eq!(rep.sites.len(), 1, "undrifted sites must stay silent: {}", rep.render());
}

#[test]
fn renamed_select_option_is_repaired_without_replay() {
    // The year select's "1997" becomes "'97": option-list edits are
    // auto-applied to the working map, but no compiled constant changed,
    // so the run is not replayed and (year unbound) answers are intact.
    let full = healthy_webbase().select("classifieds", FORD_QUERY).expect("healthy query");
    let mut wb = faulty_webbase(|h, s| {
        if h == NEWSDAY {
            Box::new(
                DriftingSite::new(s, "\"1997\">1997", "\"'97\">'97").only_on_path("/auto/used"),
            ) as Box<dyn Site>
        } else {
            s
        }
    });
    let sel = wb.select("classifieds", FORD_QUERY).expect("drifted query must not abort");
    assert_eq!(sel, full);

    let rep = wb.layer.vps.repairs();
    let site = rep.sites.get(NEWSDAY).expect("newsday must report repairs");
    let removed = site.auto_applied.iter().any(
        |(_, c)| matches!(c, PageChange::OptionRemoved { field, option, .. } if field == "year" && option == "1997"),
    );
    let added = site.auto_applied.iter().any(
        |(_, c)| matches!(c, PageChange::OptionAdded { field, option, .. } if field == "year" && option == "'97"),
    );
    assert!(removed && added, "both sides of the rename: {:?}", site.auto_applied);
    assert_eq!(site.steps_replayed, 0, "option edits don't touch compiled constants");
    assert!(site.quarantined.is_empty());
}

#[test]
fn renamed_mandatory_field_quarantines_the_node() {
    let (data, _) = fixture();
    let newsday_truth = data.matching(SiteSlice::Newsday, Some("ford"), None);
    assert!(!newsday_truth.is_empty(), "newsday must have ford ads for strictness");
    let full = healthy_webbase().select("classifieds", FORD_QUERY).expect("healthy query");

    let mut wb = renamed_field_webbase();
    let sel = wb.select("classifieds", FORD_QUERY).expect("drifted query must not abort");
    assert!(common::subset(&sel, &full), "drift must never fabricate answers");
    assert!(sel.len() < full.len(), "newsday's branch must be lost, not faked");

    // The report names exactly the node whose form drifted: the
    // UsedCarPg carrying f1 (/cgi-bin/nclassy).
    let map = wb.map_for(NEWSDAY).expect("newsday map");
    let expected = map
        .nodes
        .iter()
        .find(|n| {
            n.actions
                .iter()
                .any(|a| matches!(a, ActionDescr::Submit(f) if f.cgi == "/cgi-bin/nclassy"))
        })
        .expect("the recorded map has the f1 node");
    let rep = wb.layer.vps.repairs();
    assert_eq!(
        rep.quarantined_nodes(),
        vec![(NEWSDAY, expected.id, expected.name.as_str())],
        "{}",
        rep.render()
    );
    let site = &rep.sites[NEWSDAY];
    assert_eq!(site.steps_replayed, 0, "nothing auto-applicable → nothing to replay");
}

#[test]
fn expired_sessions_replay_from_checkpointed_inputs() {
    let (data, _) = fixture();
    assert!(
        data.matching(SiteSlice::Newsday, Some("ford"), None).len() > 4,
        "the ford listing must paginate for the scenario to bite"
    );
    let full = healthy_webbase().select("classifieds", FORD_QUERY).expect("healthy query");

    // ttl 0: every session token stamped into newsday's pagination
    // links is stale by the time it is used — each "More" step 440s and
    // is replayed from its checkpointed inputs (make/model/page).
    let mut wb = faulty_webbase(|h, s| {
        if h == NEWSDAY {
            Box::new(ExpiringSessionSite::new(s, 0)) as Box<dyn Site>
        } else {
            s
        }
    });
    let sel = wb.select("classifieds", FORD_QUERY).expect("expiring sessions must not abort");
    assert_eq!(sel, full, "session replay must recover the whole More chain");

    let rep = wb.layer.vps.repairs();
    let site = rep.sites.get(NEWSDAY).expect("newsday must report recoveries");
    assert!(site.sessions_recovered >= 1, "{}", rep.render());
    assert!(site.auto_applied.is_empty() && site.quarantined.is_empty());
}

#[test]
fn identical_seeds_give_identical_repair_reports() {
    let run_renamed = || {
        let mut wb = renamed_link_webbase();
        let sel = wb.select("classifieds", FORD_QUERY).expect("drifted query");
        (sel, wb.layer.vps.repairs())
    };
    let (sel1, rep1) = run_renamed();
    let (sel2, rep2) = run_renamed();
    assert_eq!(sel1, sel2, "answers must be a pure function of the seed");
    assert_eq!(rep1, rep2, "repair reports must be a pure function of the seed");

    let run_quarantined = || {
        let mut wb = renamed_field_webbase();
        let sel = wb.select("classifieds", FORD_QUERY).expect("drifted query");
        (sel, wb.layer.vps.repairs())
    };
    let (sel1, rep1) = run_quarantined();
    let (sel2, rep2) = run_quarantined();
    assert_eq!(sel1, sel2);
    assert_eq!(rep1, rep2);
    assert!(!rep1.is_clean() && !rep1.render().is_empty());
}

#[test]
fn a_webbase_session_keeps_its_state_across_queries() {
    // A `Webbase` answers every query on one long-lived session: the
    // second run of a query reads the first run's cached pages and
    // reuses its repairs instead of redoing them.
    let mut wb = healthy_webbase();
    wb.query(common::JAGUAR_QUERY).expect("first run");
    let before = wb.web().total_stats().requests;
    wb.query(common::JAGUAR_QUERY).expect("second run");
    assert_eq!(wb.web().total_stats().requests, before, "a repeated query re-fetched");

    let mut wb = renamed_link_webbase();
    let first = wb.select("classifieds", FORD_QUERY).expect("first run");
    let repairs = wb.layer.vps.repairs();
    assert!(!repairs.is_clean(), "the first run repairs the renamed link");
    let before = wb.web().total_stats().requests;
    let second = wb.select("classifieds", FORD_QUERY).expect("second run");
    assert_eq!(second, first);
    assert_eq!(wb.web().total_stats().requests, before, "a repeated query re-fetched");
    assert_eq!(wb.layer.vps.repairs(), repairs, "the repair was redone, not reused");
}

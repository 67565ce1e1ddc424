//! The assembled webbase.

use crate::corpus::Corpus;
use crate::engine::{Engine, EngineConfig, EngineError, QueryOptions, QueryOutcome};
use std::sync::Arc;
use webbase_logical::LogicalLayer;
use webbase_navigation::map::NavigationMap;
use webbase_navigation::recorder::{MapStats, RecordError};
use webbase_relational::Relation;
use webbase_ur::plan::{UrError, UrPlan, UrPlanner};
use webbase_ur::query::parse_query;
use webbase_webworld::prelude::*;

/// What building a webbase produced: per-site maps and their §7
/// automation statistics.
#[derive(Debug, Clone)]
pub struct BuildReport {
    pub sites: Vec<(String, MapStats)>,
}

impl BuildReport {
    /// Render the §7 map-builder statistics table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Map builder statistics (objects / attributes / manual facts / manual % / auto-standardised)\n",
        );
        for (site, s) in &self.sites {
            out.push_str(&format!(
                "  {site:<24} {:>4} objects  {:>5} attrs  {:>3} manual  {:>5.1}%  {:>2} auto-std\n",
                s.objects,
                s.attributes,
                s.manual_facts,
                100.0 * s.manual_ratio(),
                s.auto_standardized
            ));
        }
        out
    }
}

/// Top-level errors.
#[derive(Debug)]
pub enum WebbaseError {
    Record(String, RecordError),
    /// A shipped fact map failed to parse, or repeats a host or VPS
    /// relation an earlier map already loaded.
    Load(String),
    Query(webbase_ur::query::QueryParseError),
    Plan(UrError),
    /// A §7-style SELECT failed to parse or evaluate.
    Select(String),
    /// Pre-flight static analysis found E-level defects in the maps
    /// being loaded; the report carries every finding.
    Check(webbase_webcheck::Report),
    /// The write-ahead journal could not be opened or read. (A *torn*
    /// journal is not an error — recovery drops the torn records and
    /// counts them — this is the file itself being unreachable.)
    Journal(std::io::Error),
}

impl std::fmt::Display for WebbaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WebbaseError::Record(site, e) => write!(f, "recording {site}: {e}"),
            WebbaseError::Load(m) => write!(f, "loading map: {m}"),
            WebbaseError::Query(e) => write!(f, "{e}"),
            WebbaseError::Plan(e) => write!(f, "{e}"),
            WebbaseError::Select(m) => write!(f, "{m}"),
            WebbaseError::Check(r) => {
                write!(f, "pre-flight check rejected the maps:\n{}", r.render())
            }
            WebbaseError::Journal(e) => write!(f, "journal: {e}"),
        }
    }
}

impl std::error::Error for WebbaseError {}

/// The assembled three-layer webbase over a simulated Web: an
/// [`Engine`] over the paper's used-car corpus plus one long-lived
/// single-owner session. The session's navigators, browser caches,
/// healing state and statistics persist across queries.
pub struct Webbase {
    engine: Engine,
    /// The webbase's own session (an isolated [`Engine::session`]:
    /// private page store, no shared memo).
    pub layer: LogicalLayer,
}

impl Webbase {
    /// Build the paper's used-car webbase (Example 2.1): generate the
    /// synthetic market, stand up the thirteen sites, replay every
    /// designer session, derive handles, and wire the three layers.
    pub fn build_demo(seed: u64, n_ads: usize, latency: LatencyModel) -> Webbase {
        let data = Dataset::generate(seed, n_ads);
        let web = standard_web(data.clone(), latency);
        Webbase::build_on(web, data).expect("the standard sessions replay cleanly")
    }

    /// Build over an existing Web (e.g. a versioned one for maintenance
    /// experiments).
    pub fn build_on(web: SyntheticWeb, data: Arc<Dataset>) -> Result<Webbase, WebbaseError> {
        Engine::build_on(web, data, EngineConfig::default()).map(Webbase::over)
    }

    /// Build from previously persisted navigation maps (F-logic fact
    /// text, as produced by `webbase_navigation::persist::render_facts`)
    /// instead of replaying designer sessions — the "designer ships the
    /// maps" deployment mode (see [`Engine::build_from_fact_maps`]).
    pub fn build_from_fact_maps(
        web: SyntheticWeb,
        data: Arc<Dataset>,
        fact_maps: &[String],
    ) -> Result<Webbase, WebbaseError> {
        let corpus = Corpus::paper(data);
        Engine::build_from_fact_maps(web, corpus, fact_maps, EngineConfig::default())
            .map(Webbase::over)
    }

    fn over(engine: Engine) -> Webbase {
        let (layer, _) = engine.session(true);
        Webbase { engine, layer }
    }

    pub fn web(&self) -> &SyntheticWeb {
        self.engine.web()
    }

    pub fn data(&self) -> &Arc<Dataset> {
        self.engine.data().expect("the paper corpus carries its dataset")
    }

    /// The loaded navigation maps, in registration order.
    pub fn maps(&self) -> impl ExactSizeIterator<Item = &NavigationMap> {
        self.engine.maps()
    }

    pub fn planner(&self) -> &UrPlanner {
        self.engine.planner()
    }

    /// The §7 map-builder statistics from the build.
    pub fn report(&self) -> &BuildReport {
        self.engine.report()
    }

    /// Serialise every loaded map as F-logic fact text (the input to
    /// [`Webbase::build_from_fact_maps`]).
    pub fn export_fact_maps(&self) -> Vec<String> {
        self.maps().map(webbase_navigation::persist::render_facts).collect()
    }

    /// The full static analysis of the webbase (see [`Engine::check`]).
    pub fn check(&self) -> webbase_webcheck::Report {
        self.engine.check()
    }

    /// Parse and run a structured-UR query on the webbase's session.
    pub fn query(&mut self, text: &str) -> Result<(Relation, UrPlan), WebbaseError> {
        let outcome = self.query_with(text, QueryOptions::default())?;
        Ok((outcome.relation, Arc::unwrap_or_clone(outcome.plan)))
    }

    /// Parse and run a structured-UR query on the webbase's session
    /// under `options`. A budgeted run that runs out yields the sound
    /// partial result, and its plan carries the spend snapshot and a
    /// resume token; resuming from that token preloads its journal, so
    /// those pages are never re-fetched, and a fresh budget — the
    /// options' own, else the token's — covers the unfinished tail. A
    /// traced run returns its [`QueryObservation`]:
    /// every plan step, rewrite, handle invocation, navigation step,
    /// fetch disposition and repair, stamped with the simulated clock
    /// and byte-identical run to run per seed. The budget, cancel token
    /// and trace handle last for this run only; an untraced run reports
    /// into whatever handle is attached to [`Webbase::layer`].
    ///
    /// [`QueryObservation`]: webbase_logical::QueryObservation
    pub fn query_with(
        &mut self,
        text: &str,
        options: QueryOptions,
    ) -> Result<QueryOutcome, WebbaseError> {
        let q = parse_query(text).map_err(WebbaseError::Query)?;
        self.engine.execute(&mut self.layer, &q, None, &[], &options).map_err(WebbaseError::Plan)
    }

    /// Plan a query without executing it (for EXPLAIN-style output).
    pub fn explain(&self, text: &str) -> Result<UrPlan, WebbaseError> {
        self.engine.explain(text).map_err(|e| match e {
            EngineError::Query(e) => WebbaseError::Query(e),
            EngineError::Plan(e) => WebbaseError::Plan(e),
            other => unreachable!("explain neither admits nor runs a query: {other}"),
        })
    }

    /// The map loaded for `host`, if any.
    pub fn map_for(&self, host: &str) -> Option<&NavigationMap> {
        self.maps().find(|m| m.site == host)
    }

    /// The UR's attribute list (the user's attribute picker).
    pub fn ur_attributes(&self) -> &[String] {
        self.planner().ur_attributes()
    }

    /// Run a §7-style `SELECT … WHERE …` query against one relation —
    /// a *logical* relation (site-independent) or, failing that, a VPS
    /// relation (one site's handle). This is the query form the paper's
    /// timing table uses.
    pub fn select(&mut self, relation: &str, sql: &str) -> Result<Relation, WebbaseError> {
        use webbase_relational::eval::{AccessSpec, Evaluator, RelationProvider};
        let q = webbase_relational::select::parse_select(sql)
            .map_err(|e| WebbaseError::Select(e.to_string()))?;
        let expr = q.over(relation);
        let result = if self.layer.relation(relation).is_some() {
            Evaluator::new(&mut self.layer).eval(&expr, &AccessSpec::new())
        } else if self.layer.vps.schema(relation).is_some() {
            Evaluator::new(&mut self.layer.vps).eval(&expr, &AccessSpec::new())
        } else {
            return Err(WebbaseError::Select(format!("unknown relation {relation}")));
        };
        result.map_err(|e| WebbaseError::Select(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Webbase {
        Webbase::build_demo(5, 600, LatencyModel::lan())
    }

    #[test]
    fn builds_with_all_sites_mapped() {
        let wb = demo();
        assert_eq!(wb.maps().len(), 13);
        assert_eq!(wb.report().sites.len(), 13);
        let txt = wb.report().render();
        assert!(txt.contains("www.newsday.com"));
        // UR attribute picker covers the domain vocabulary.
        let attrs = wb.ur_attributes();
        assert!(attrs.len() >= 12, "{attrs:?}");
    }

    #[test]
    fn the_paper_query_runs() {
        let mut wb = demo();
        let (result, plan) = wb
            .query(
                "UsedCarUR(make='jaguar', model, year >= 1993, price, bbprice, \
                 safety='good', condition='good') WHERE price < bbprice",
            )
            .expect("query runs");
        assert!(!plan.objects.is_empty());
        // Result sanity: every row is a 1993+ jaguar priced under book.
        let year = result.schema().index_of(&"year".into()).expect("year");
        let price = result.schema().index_of(&"price".into()).expect("price");
        let bb = result.schema().index_of(&"bbprice".into()).expect("bbprice");
        for t in result.tuples() {
            assert!(t.get(year).as_int().expect("year int") >= 1993);
            assert!(t.get(price).as_int().expect("price") < t.get(bb).as_int().expect("bb"));
        }
    }

    #[test]
    fn explain_produces_plan_without_fetches() {
        let wb = demo();
        let before = wb.web().total_stats().requests;
        let plan = wb
            .explain("UsedCarUR(make='ford', price, rate, zip='10001', duration=36)")
            .expect("plans");
        assert!(!plan.objects.is_empty());
        // Planning itself must not navigate (only recording did).
        assert_eq!(wb.web().total_stats().requests, before);
    }

    #[test]
    fn query_errors_are_reported() {
        let mut wb = demo();
        assert!(matches!(wb.query("Used CarUR("), Err(WebbaseError::Query(_))));
        assert!(matches!(
            wb.query("UsedCarUR(make='ford', bbprice)"),
            Err(WebbaseError::Plan(UrError::InsufficientBindings(_)))
        ));
    }

    #[test]
    fn budgeted_query_resumes_to_the_full_answer_without_refetches() {
        use webbase_logical::QueryBudget;
        let q = "UsedCarUR(make='ford', price)";
        let mut unbounded = demo();
        let before = unbounded.web().total_stats().requests;
        let (full, _) = unbounded.query(q).expect("runs");
        let full_requests = unbounded.web().total_stats().requests - before;
        assert!(!full.is_empty());

        let mut wb = demo();
        let quota = QueryBudget::unlimited().with_fetch_quota(10);
        let out = wb.query_with(q, QueryOptions::budgeted(quota)).expect("runs");
        let mut result = out.relation;
        let mut token = out.plan.resume.clone();
        assert!(token.is_some(), "a quota of 10 cannot finish the ford query");
        let mut journal_len = 0;
        let mut rounds = 0;
        while let Some(t) = token {
            assert!(t.journal.len() > journal_len, "every round must journal new pages");
            journal_len = t.journal.len();
            rounds += 1;
            assert!(rounds < 100, "resume loop failed to converge");
            // Fresh webbase per round: only the token carries state over.
            let mut next = demo();
            let before = next.web().total_stats().requests;
            let out = next.query_with(q, QueryOptions::resuming(t)).expect("resumes");
            let spent = (next.web().total_stats().requests - before) as usize;
            assert!(
                spent + journal_len <= full_requests as usize,
                "a resumed run re-fetched journalled pages ({spent} new + {journal_len} journalled > {full_requests} total)"
            );
            result = out.relation;
            token = out.plan.resume.clone();
        }
        assert_eq!(result, full, "partial runs resumed to exactly the unbounded answer");
    }

    #[test]
    fn preflight_check_is_clean_on_the_demo() {
        let wb = demo();
        let report = wb.check();
        assert!(report.is_clean(), "unexpected findings:\n{}", report.render());
    }

    #[test]
    fn fact_map_loading_rejects_broken_maps() {
        use webbase_navigation::map::NodeKind;
        let original = demo();
        let mut exported = original.export_fact_maps();
        // Corrupt one shipped map: sever every edge into its data nodes,
        // leaving registered relations unreachable (E101).
        let idx = original.maps().position(|m| m.site == "www.newsday.com").expect("mapped");
        let mut broken = original.map_for("www.newsday.com").expect("mapped").clone();
        let data_nodes: Vec<usize> = broken
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Data(_)))
            .map(|(i, _)| i)
            .collect();
        broken.edges.retain(|e| !data_nodes.contains(&e.to));
        exported[idx] = webbase_navigation::persist::render_facts(&broken);
        let Err(err) = Webbase::build_from_fact_maps(
            original.web().clone(),
            original.data().clone(),
            &exported,
        ) else {
            panic!("an E-level map must be rejected at load time");
        };
        match err {
            WebbaseError::Check(report) => {
                assert!(report.has_errors());
                assert!(!report.with_code("E101").is_empty(), "{}", report.render());
            }
            other => panic!("expected Check, got {other}"),
        }
    }

    #[test]
    fn hostile_fact_maps_are_load_errors() {
        let original = demo();
        let load = |maps: &[String]| {
            Webbase::build_from_fact_maps(original.web().clone(), original.data().clone(), maps)
        };
        let mut exported = original.export_fact_maps();
        exported[0].push_str("\nnode(");
        assert!(matches!(load(&exported), Err(WebbaseError::Load(_))), "unparseable text");
        let mut exported = original.export_fact_maps();
        exported.push(exported[0].clone());
        assert!(matches!(load(&exported), Err(WebbaseError::Load(_))), "the same map twice");
        // Another host registering a relation an earlier map loaded.
        let mut exported = original.export_fact_maps();
        let renamed = exported[0].replace(&original.report().sites[0].0, "www.copycat.com");
        exported.push(renamed);
        assert!(matches!(load(&exported), Err(WebbaseError::Load(_))), "a duplicate relation");

        let newsday = |exported: &[String]| {
            exported.iter().position(|m| m.contains("site('www.newsday.com')")).expect("newsday")
        };
        // A second newsday data page whose schema differs from the first:
        // the map does not compile, an E-level pre-flight finding.
        let mut exported = original.export_fact_maps();
        let i = newsday(&exported);
        exported[i].push_str("\nrelation_reg('newsday', 5).\n");
        match load(&exported) {
            Err(WebbaseError::Check(report)) => {
                assert!(!report.with_code("E115").is_empty(), "{}", report.render());
            }
            other => panic!("a schema conflict must fail the pre-flight: {:?}", other.err()),
        }
        // An extraction fact moved to another data page duplicates an
        // attribute there (and drops it from its own page).
        let mut exported = original.export_fact_maps();
        let i = newsday(&exported);
        let fact = "extract_field(4, 5, 'Details', 'url', link_href).";
        assert!(exported[i].contains(fact), "{}", exported[i]);
        exported[i] =
            exported[i].replace(fact, "extract_field(5, 5, 'Details', 'url', link_href).");
        assert!(matches!(load(&exported), Err(WebbaseError::Load(_))), "a duplicated attribute");
        // Extraction and fixed-value facts on parts the map does not have.
        for fact in
            ["extract_field(99, 0, 'Make', 'make', text).", "field_fixed(n(99), 0, 0, 'x')."]
        {
            let mut exported = original.export_fact_maps();
            let i = newsday(&exported);
            exported[i].push_str(&format!("\n{fact}\n"));
            assert!(matches!(load(&exported), Err(WebbaseError::Load(_))), "{fact}");
        }
    }

    #[test]
    fn rebuild_from_exported_fact_maps() {
        let mut original = demo();
        let exported = original.export_fact_maps();
        assert_eq!(exported.len(), 13);
        let mut reloaded = Webbase::build_from_fact_maps(
            original.web().clone(),
            original.data().clone(),
            &exported,
        )
        .expect("maps reload");
        let q = "UsedCarUR(make='honda', model='civic', year, price)";
        let (a, _) = original.query(q).expect("original answers");
        let (b, _) = reloaded.query(q).expect("reloaded answers");
        assert_eq!(a, b, "fact-map round trip changed the answers");
    }

    #[test]
    fn select_queries_logical_and_vps_relations() {
        let mut wb = demo();
        // Logical relation: site-independent.
        let logical = wb
            .select(
                "classifieds",
                "SELECT make, model, year, price WHERE make=ford AND model=escort",
            )
            .expect("logical select");
        assert!(logical
            .tuples()
            .iter()
            .all(|t| t.get(0) == &webbase_relational::Value::str("ford")));
        // VPS relation: one site.
        let vps = wb
            .select("newsday", "SELECT make, model, price WHERE make=ford AND model=escort")
            .expect("vps select");
        assert!(vps.len() <= logical.len());
        // Unknown relation reports cleanly.
        assert!(matches!(wb.select("nope", "SELECT a"), Err(WebbaseError::Select(_))));
        // Parse errors report cleanly.
        assert!(matches!(wb.select("newsday", "SELEKT a"), Err(WebbaseError::Select(_))));
    }

    #[test]
    fn map_lookup() {
        let wb = demo();
        assert!(wb.map_for("www.kbb.com").is_some());
        assert!(wb.map_for("www.nope.com").is_none());
    }
}

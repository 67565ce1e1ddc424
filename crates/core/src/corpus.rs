//! Corpus registration: the one description of "a webbase's sites and
//! layers" shared by every builder.
//!
//! A [`Corpus`] describes the 13-site car demo, the apartment example,
//! or a generated corpus once: the designer sessions to replay and the
//! logical and UR layers over them. [`crate::Engine::build_corpus`]
//! records its sites; [`crate::Engine::build_from_fact_maps`] takes
//! shipped maps in their place. Both assemble the same engine, and
//! [`crate::Webbase`] is one of those engines plus a session.

use std::sync::Arc;
use webbase_logical::{paper_schema, LogicalRelation};
use webbase_navigation::gen_sessions;
use webbase_navigation::recorder::DesignerAction;
use webbase_navigation::sessions;
use webbase_relational::prelude::Expr;
use webbase_relational::Standardizer;
use webbase_ur::compat::{example62_rules, CompatRules};
use webbase_ur::hierarchy::{figure5, Alternative, ChoiceGroup, Hierarchy};
use webbase_webworld::data::Dataset;
use webbase_webworld::generate::GenCorpus;

/// One site's registration: the designer session to replay and the
/// attribute standardiser the recording uses.
pub struct CorpusSite {
    pub host: String,
    pub session: Vec<DesignerAction>,
    pub standardizer: Standardizer,
}

/// A complete webbase description: sites plus the logical and UR
/// layers over them.
pub struct Corpus {
    /// The underlying dataset, when the corpus has one (the car demo
    /// does; generated corpora carry their data inside the site specs).
    pub data: Option<Arc<Dataset>>,
    pub sites: Vec<CorpusSite>,
    pub relations: Vec<LogicalRelation>,
    pub hierarchy: Hierarchy,
    pub rules: CompatRules,
}

impl Corpus {
    /// The paper's used-car webbase: the thirteen designer sessions,
    /// the Table 2 logical schema, and the Figure 5 hierarchy under the
    /// Example 6.2 compatibility rules.
    pub fn paper(data: Arc<Dataset>) -> Corpus {
        let sites = sessions::all_sessions(&data)
            .into_iter()
            .map(|(host, session)| CorpusSite {
                host: host.to_string(),
                session,
                standardizer: Standardizer::car_domain(),
            })
            .collect();
        Corpus {
            data: Some(data),
            sites,
            relations: paper_schema(),
            hierarchy: figure5(),
            rules: example62_rules(),
        }
    }

    /// The apartment-domain webbase of `examples/apartment_hunting.rs`:
    /// two rental sites, two logical relations, the two-group AptUR
    /// hierarchy with no compatibility rules.
    pub fn apartments() -> Corpus {
        use webbase_navigation::extractor::{CellParse, ExtractionSpec, FieldSpec};
        let listings_session = vec![
            DesignerAction::Goto("http://www.aptlistings.com/".into()),
            DesignerAction::SubmitForm {
                action: "/cgi-bin/find".into(),
                values: vec![("borough".into(), "brooklyn".into())],
            },
            DesignerAction::MarkDataPage {
                relation: "aptListings".into(),
                spec: ExtractionSpec::Table {
                    fields: vec![
                        FieldSpec::new("Borough", "borough", CellParse::Text),
                        FieldSpec::new("Bedrooms", "bedrooms", CellParse::Number),
                        FieldSpec::new("Rent", "rent", CellParse::Number),
                        FieldSpec::new("Contact", "contact", CellParse::Text),
                    ],
                },
            },
            DesignerAction::FollowLink("More".into()),
        ];
        let guide_session = vec![
            DesignerAction::Goto("http://www.rentguide.com/".into()),
            DesignerAction::SubmitForm {
                action: "/cgi-bin/guide".into(),
                values: vec![("borough".into(), "queens".into()), ("beds".into(), "1".into())],
            },
            DesignerAction::MarkDataPage {
                relation: "rentGuide".into(),
                spec: ExtractionSpec::Table {
                    fields: vec![
                        FieldSpec::new("Borough", "borough", CellParse::Text),
                        FieldSpec::new("Bedrooms", "bedrooms", CellParse::Number),
                        FieldSpec::new("Fair Rent", "fairrent", CellParse::Number),
                    ],
                },
            },
        ];
        // The recorder's default standardiser knows cars, not
        // apartments; one manual mapping (beds → bedrooms) covers both
        // sites' forms.
        let standardizer = || {
            let mut s = Standardizer::new(["borough", "bedrooms", "rent", "contact", "fairrent"]);
            s.map("beds", "bedrooms");
            s
        };
        let sites = vec![
            CorpusSite {
                host: "www.aptlistings.com".into(),
                session: listings_session,
                standardizer: standardizer(),
            },
            CorpusSite {
                host: "www.rentguide.com".into(),
                session: guide_session,
                standardizer: standardizer(),
            },
        ];
        let relations = vec![
            LogicalRelation::new(
                "listings",
                Expr::relation("aptListings").project(["borough", "bedrooms", "rent", "contact"]),
            ),
            LogicalRelation::new(
                "guidelines",
                Expr::relation("rentGuide").project(["borough", "bedrooms", "fairrent"]),
            ),
        ];
        let hierarchy = Hierarchy {
            ur_name: "AptUR".into(),
            groups: vec![
                ChoiceGroup {
                    name: "Listings".into(),
                    alternatives: vec![Alternative::new("Listings", "listings")],
                },
                ChoiceGroup {
                    name: "FairRent".into(),
                    alternatives: vec![Alternative::new("FairRent", "guidelines")],
                },
            ],
        };
        Corpus { data: None, sites, relations, hierarchy, rules: CompatRules::default() }
    }

    /// A generated corpus: one site, logical relation, and UR
    /// alternative per [`webbase_webworld::generate::SiteSpec`]. The
    /// per-site attribute vocabularies are disjoint (index-suffixed),
    /// so every query's minimal covering set is exactly one site — the
    /// hierarchy scales to hundreds of alternatives in one choice
    /// group (see `webbase_ur::maximal::compatible_sets`).
    pub fn generated(gen: &GenCorpus) -> Corpus {
        let mut sites = Vec::new();
        let mut relations = Vec::new();
        let mut alternatives = Vec::new();
        for spec in &gen.specs {
            sites.push(CorpusSite {
                host: spec.host.clone(),
                session: gen_sessions::session(spec),
                standardizer: gen_sessions::standardizer(spec),
            });
            let logical = format!("gensite{}", spec.index);
            relations.push(LogicalRelation::new(
                &logical,
                Expr::relation(&spec.relation).project(spec.attrs()),
            ));
            alternatives.push(Alternative::new(&format!("GenSite{}", spec.index), &logical));
        }
        Corpus {
            data: None,
            sites,
            relations,
            hierarchy: Hierarchy {
                ur_name: "GenUR".into(),
                groups: vec![ChoiceGroup { name: "sources".into(), alternatives }],
            },
            rules: CompatRules::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig, QueryOptions};
    use webbase_webworld::prelude::{standard_web, LatencyModel};

    #[test]
    fn paper_corpus_records_thirteen_sites() {
        let data = Dataset::generate(5, 400);
        let web = standard_web(data.clone(), LatencyModel::lan());
        let engine = Engine::build_corpus(web, Corpus::paper(data), EngineConfig::default())
            .expect("records");
        assert_eq!(engine.maps().len(), 13);
        assert_eq!(engine.report().sites.len(), 13);
    }

    #[test]
    fn generated_corpus_records_and_plans() {
        let gen = GenCorpus::generate(11, 4);
        let web = gen.web(LatencyModel::zero());
        let engine = Engine::build_corpus(web, Corpus::generated(&gen), EngineConfig::default())
            .expect("records");
        assert_eq!(engine.maps().len(), 4);
        for spec in &gen.specs {
            let text = spec.exemplar_query();
            let plan = engine.explain(&text).expect("plans");
            assert_eq!(
                plan.objects.len(),
                1,
                "{}: disjoint attrs must cover via exactly one site",
                spec.host
            );
            let out = engine.query_isolated("t", &text, QueryOptions::default()).expect("runs");
            let sub = spec.needs_sub().then(|| spec.exemplar_sub().to_string());
            let oracle = spec.oracle(spec.exemplar_cat(), sub.as_deref());
            assert_eq!(out.relation.len(), oracle.len(), "{}: result size != oracle", spec.host);
        }
    }
}

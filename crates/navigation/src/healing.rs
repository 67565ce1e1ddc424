//! Query-time self-healing: in-flight map repair and drift quarantine.
//!
//! §7 treats site evolution as an *offline* concern — [`crate::maintenance::check_map`]
//! replays the map periodically and patches it. A live webbase meets
//! drift *mid-query*: a renamed link, a reshuffled form, an expired CGI
//! session token. The executor therefore carries a `PageProbe` — a
//! snapshot of the recorded catalogue — and compares every freshly
//! fetched page against its map node, *localised to what execution
//! depends on* (the actions on the node's outgoing edges). Findings are
//! classified with the same [`Severity`] machinery maintenance uses:
//!
//! * [`Severity::AutoApplicable`] changes (a renamed link whose target
//!   survived, a retargeted form, an option-list edit) are folded into a
//!   working copy of the map; if a repair touches a constant baked into
//!   the compiled program (a link name, a form CGI) the navigator
//!   recompiles and retries the run once — the browser cache makes the
//!   replay re-traverse from memory.
//! * [`Severity::ManualIntervention`] changes (a removed field, a new
//!   mandatory field) **quarantine** the node for the rest of the
//!   query: the site contributes what it still can, the branch through
//!   the drifted node dies cleanly, and the report names the node.
//!
//! Everything is surfaced as a [`RepairReport`] threaded alongside PR 1's
//! `DegradationReport` through `SiteNavigator` → `VpsCatalog` →
//! `UrPlan` → `repro --timings`.
//!
//! [`Severity`]: webbase_html::diff::Severity
//! [`Severity::AutoApplicable`]: webbase_html::diff::Severity::AutoApplicable
//! [`Severity::ManualIntervention`]: webbase_html::diff::Severity::ManualIntervention

use crate::browser::{generalize_path, LoadedPage};
use crate::map::{NavigationMap, NodeId};
use crate::model::{ActionDescr, FieldDescr, FormDescr, LinkDescr};
use std::collections::{BTreeMap, HashSet};
use webbase_html::diff::PageChange;
use webbase_html::extract::Form;

/// What self-healing did for one site during a run: the per-site row of
/// a [`RepairReport`]. The vectors are append-only, so [`SiteRepair::since`]
/// can slice past an earlier snapshot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SiteRepair {
    /// Auto-applied repairs, in detection order.
    pub auto_applied: Vec<(NodeId, PageChange)>,
    /// Nodes quarantined for the rest of the query (id, node name).
    pub quarantined: Vec<(NodeId, String)>,
    /// Runs replayed after a repair touched compiled constants.
    pub steps_replayed: u64,
    /// Stale CGI sessions replayed from checkpointed inputs (HTTP 440).
    pub sessions_recovered: u64,
}

impl SiteRepair {
    pub fn is_clean(&self) -> bool {
        self.auto_applied.is_empty()
            && self.quarantined.is_empty()
            && self.steps_replayed == 0
            && self.sessions_recovered == 0
    }

    pub fn merge(&mut self, other: &SiteRepair) {
        for entry in &other.auto_applied {
            if !self.auto_applied.contains(entry) {
                self.auto_applied.push(entry.clone());
            }
        }
        for entry in &other.quarantined {
            if !self.quarantined.iter().any(|(n, _)| *n == entry.0) {
                self.quarantined.push(entry.clone());
            }
        }
        self.steps_replayed += other.steps_replayed;
        self.sessions_recovered += other.sessions_recovered;
    }

    /// Difference from an earlier snapshot: new list entries, counter
    /// deltas.
    pub fn since(&self, base: &SiteRepair) -> SiteRepair {
        SiteRepair {
            auto_applied: self.auto_applied.get(base.auto_applied.len()..).unwrap_or(&[]).to_vec(),
            quarantined: self.quarantined.get(base.quarantined.len()..).unwrap_or(&[]).to_vec(),
            steps_replayed: self.steps_replayed.saturating_sub(base.steps_replayed),
            sessions_recovered: self.sessions_recovered.saturating_sub(base.sessions_recovered),
        }
    }
}

/// Per-site self-healing activity for a run, mergeable across
/// navigators like its sibling `DegradationReport`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    pub sites: BTreeMap<String, SiteRepair>,
}

impl RepairReport {
    pub fn site_mut(&mut self, host: &str) -> &mut SiteRepair {
        self.sites.entry(host.to_string()).or_default()
    }

    /// No repairs, replays, recoveries, or quarantines anywhere.
    pub fn is_clean(&self) -> bool {
        self.sites.values().all(SiteRepair::is_clean)
    }

    /// Every quarantined node across sites, as `(host, id, name)`.
    pub fn quarantined_nodes(&self) -> Vec<(&str, NodeId, &str)> {
        self.sites
            .iter()
            .flat_map(|(h, r)| {
                r.quarantined.iter().map(move |(id, name)| (h.as_str(), *id, name.as_str()))
            })
            .collect()
    }

    pub fn merge(&mut self, other: &RepairReport) {
        for (host, r) in &other.sites {
            self.site_mut(host).merge(r);
        }
    }

    /// Difference from an earlier snapshot; sites with an all-zero
    /// delta are dropped.
    pub fn since(&self, base: &RepairReport) -> RepairReport {
        let zero = SiteRepair::default();
        let mut out = RepairReport::default();
        for (host, r) in &self.sites {
            let delta = r.since(base.sites.get(host).unwrap_or(&zero));
            if !delta.is_clean() {
                out.sites.insert(host.clone(), delta);
            }
        }
        out
    }

    /// Human-readable per-site summary (printed under the degradation
    /// footer in `repro`).
    pub fn render(&self) -> String {
        if self.is_clean() {
            return String::from("no in-flight repairs\n");
        }
        let mut out = String::new();
        for (host, r) in &self.sites {
            if r.is_clean() {
                continue;
            }
            out.push_str(&format!(
                "  {host:<24} {:>2} auto-applied  {:>2} steps replayed  \
                 {:>2} sessions recovered  {:>2} quarantined\n",
                r.auto_applied.len(),
                r.steps_replayed,
                r.sessions_recovered,
                r.quarantined.len(),
            ));
            for (node, change) in &r.auto_applied {
                out.push_str(&format!("    repaired n{node}: {}\n", change_label(change)));
            }
            for (node, name) in &r.quarantined {
                out.push_str(&format!("    quarantined n{node} ({name}): needs the designer\n"));
            }
        }
        out
    }
}

fn change_label(change: &PageChange) -> String {
    match change {
        PageChange::LinkRenamed { old, new, .. } => format!("link {old:?} renamed to {new:?}"),
        PageChange::FormRetargeted { old_action, new_action } => {
            format!("form {old_action} retargeted to {new_action}")
        }
        PageChange::LinkRetargeted { text, new_href, .. } => {
            format!("link {text:?} retargeted to {new_href}")
        }
        PageChange::OptionAdded { field, option, .. } => {
            format!("option {option:?} added to {field}")
        }
        PageChange::OptionRemoved { field, option, .. } => {
            format!("option {option:?} removed from {field}")
        }
        PageChange::FieldAdded { form, field, .. } => format!("field {field} added to {form}"),
        other => format!("{other:?}"),
    }
}

/// One detected drift, with everything the apply step needs.
#[derive(Debug, Clone)]
pub(crate) struct PendingChange {
    pub node: NodeId,
    pub change: PageChange,
    /// For optional `FieldAdded`: the live field's descriptor.
    pub new_field: Option<FieldDescr>,
}

/// The per-node slice of the recorded catalogue the probe checks
/// against: what execution depends on (edge actions), plus the full
/// link/form catalogues for rename/retarget disambiguation.
struct HealNode {
    id: NodeId,
    signature: String,
    /// The generalized-path prefix of `signature`, pre-split: the cheap
    /// first-stage key for matching live pages without computing their
    /// full signature (which walks the DOM for tables).
    path: String,
    edge_actions: Vec<ActionDescr>,
    catalogue_links: Vec<LinkDescr>,
    catalogue_forms: Vec<FormDescr>,
}

/// The executor-side drift detector. `NavOracle` calls
/// [`PageProbe::inspect`] once per freshly interned page; findings
/// accumulate in `pending` until the navigator drains them between run
/// attempts.
pub(crate) struct PageProbe {
    nodes: Vec<HealNode>,
    quarantined: HashSet<NodeId>,
    /// Pages (by canonical request) already inspected.
    checked: HashSet<webbase_webworld::request::Request>,
    pending: Vec<PendingChange>,
}

impl PageProbe {
    pub fn from_map(map: &NavigationMap) -> PageProbe {
        let nodes = map
            .nodes
            .iter()
            .map(|n| HealNode {
                id: n.id,
                signature: n.signature.clone(),
                path: split_signature(&n.signature).0.to_string(),
                edge_actions: map.out_edges(n.id).map(|e| e.action.clone()).collect(),
                catalogue_links: ActionDescr::recorded_links(&n.actions),
                catalogue_forms: ActionDescr::recorded_forms(&n.actions),
            })
            .collect();
        PageProbe {
            nodes,
            quarantined: HashSet::new(),
            checked: HashSet::new(),
            pending: Vec::new(),
        }
    }

    /// Rebuild the catalogue snapshot from a repaired map, keeping the
    /// quarantine set; previously checked pages are re-inspected against
    /// the new catalogue (convergence: a repaired page reports nothing).
    pub fn rebuilt_from(&self, map: &NavigationMap) -> PageProbe {
        let mut probe = PageProbe::from_map(map);
        probe.quarantined = self.quarantined.clone();
        probe
    }

    pub fn quarantine(&mut self, node: NodeId) {
        self.quarantined.insert(node);
    }

    /// Is the map node this page matches under quarantine? The executor
    /// charges fetches made while scanning a quarantined node to the
    /// owning site's quota only, so a drifted node cannot drain other
    /// sites' budgets.
    pub(crate) fn page_quarantined(&self, page: &LoadedPage) -> bool {
        self.node_for(page).is_some_and(|i| self.quarantined.contains(&self.nodes[i].id))
    }

    pub fn take_pending(&mut self) -> Vec<PendingChange> {
        std::mem::take(&mut self.pending)
    }

    /// Inspect a freshly interned page (`key` is its canonical request).
    pub fn inspect(&mut self, key: &webbase_webworld::request::Request, page: &LoadedPage) {
        if !self.checked.insert(key.clone()) {
            return;
        }
        // A document that didn't close properly may have been truncated
        // in flight — its missing links/options are degradation, not
        // drift, and repairing the map from them would corrupt it. (The
        // cost: deliberately ill-formed sites forgo in-flight repair.)
        if !page.complete {
            return;
        }
        let Some(idx) = self.node_for(page) else { return };
        if self.quarantined.contains(&self.nodes[idx].id) {
            return;
        }
        let node = &self.nodes[idx];
        // A page generated by a parameterized request (the URL carries a
        // query string) renders its forms *for those bindings*: a model
        // select filled with the submitted make's models differs from
        // the recorded exemplar without any drift. Form conclusions are
        // only sound on statically-addressed pages; link checks stay on
        // (they already require a unique same-target candidate).
        let forms_comparable = page.url.query.is_empty();
        let mut found: Vec<PendingChange> = Vec::new();
        for action in &node.edge_actions {
            match action {
                ActionDescr::Follow(link) => check_follow(node, link, page, &mut found),
                ActionDescr::Submit(form) if forms_comparable => {
                    check_submit(node, form, page, &mut found);
                }
                ActionDescr::Submit(_) => {}
                // Link-defined attributes enumerate the live page at
                // execution time; no recorded constant to repair.
                ActionDescr::FollowByValue { .. } => {}
            }
        }
        for p in found {
            let dup = self.pending.iter().any(|q| q.node == p.node && q.change == p.change);
            if !dup {
                self.pending.push(p);
            }
        }
    }

    /// Match a live page to its map node. The first stage keys on the
    /// generalized URL path alone — already parsed, no DOM walk — which
    /// settles the overwhelmingly common case (one node per path, e.g.
    /// every page of a long "More" chain) without ever computing the
    /// page's signature. Only when several nodes share the path does the
    /// full signature get built: exact match first, then a shared-parts
    /// fuzzy match (needed when drift itself moved the signature, e.g. a
    /// retargeted form). Ambiguity means no match — repairing the wrong
    /// node is worse than not repairing.
    fn node_for(&self, page: &LoadedPage) -> Option<usize> {
        let path = generalize_path(&page.url.path);
        let candidates: Vec<usize> =
            (0..self.nodes.len()).filter(|&i| self.nodes[i].path == path).collect();
        match candidates.len() {
            0 => None,
            1 => Some(candidates[0]),
            _ => {
                let sig = page.signature();
                if let Some(&i) = candidates.iter().find(|&&i| self.nodes[i].signature == sig) {
                    return Some(i);
                }
                let (_, parts) = split_signature(&sig);
                let score = |i: usize| {
                    let (_, node_parts) = split_signature(&self.nodes[i].signature);
                    parts.iter().filter(|p| node_parts.contains(p)).count()
                };
                let best = candidates.iter().copied().max_by_key(|&i| score(i))?;
                let top = score(best);
                let unique = candidates.iter().filter(|&&i| score(i) == top).count() == 1;
                unique.then_some(best)
            }
        }
    }
}

fn split_signature(sig: &str) -> (&str, Vec<&str>) {
    match sig.split_once('|') {
        Some((path, rest)) => (path, rest.split(',').filter(|p| !p.is_empty()).collect()),
        None => (sig, Vec::new()),
    }
}

/// The href with its query stripped and digit runs generalised — the
/// identity of the underlying page/script a link points at.
fn href_base(href: &str) -> String {
    generalize_path(href.split('?').next().unwrap_or(href))
}

/// An edge's link went missing: exactly one unrecorded live link
/// pointing at the same target is a rename; zero is content variation
/// (e.g. "More" absent on the last result page) and stays silent;
/// several is ambiguity and stays silent too.
fn check_follow(
    node: &HealNode,
    link: &LinkDescr,
    page: &LoadedPage,
    out: &mut Vec<PendingChange>,
) {
    if page.link_by_text(&link.name).is_some() {
        return;
    }
    let candidates: Vec<&webbase_html::extract::Link> = page
        .links
        .iter()
        .filter(|live| {
            !live.text.trim().is_empty()
                && !node.catalogue_links.iter().any(|rl| rl.name == live.text)
                && (live.href == link.href || href_base(&live.href) == href_base(&link.href))
        })
        .collect();
    if let [only] = candidates[..] {
        out.push(PendingChange {
            node: node.id,
            change: PageChange::LinkRenamed {
                old: link.name.clone(),
                new: only.text.clone(),
                href: only.href.clone(),
            },
            new_field: None,
        });
    }
}

/// An edge's form: present → field-level diff (shared with offline
/// maintenance); missing → a single unrecorded live form with the same
/// data-field names is a retarget, anything else is a removal
/// (manual intervention → quarantine).
fn check_submit(
    node: &HealNode,
    form: &FormDescr,
    page: &LoadedPage,
    out: &mut Vec<PendingChange>,
) {
    match page.form_by_action(&form.cgi) {
        Some(live) => {
            let mut changes = Vec::new();
            crate::maintenance::diff_form_fields(form, live, &mut changes);
            for change in changes {
                let new_field = match &change {
                    PageChange::FieldAdded { field, .. } => live
                        .data_fields()
                        .find(|f| f.name == *field)
                        .map(FieldDescr::from_extracted),
                    _ => None,
                };
                out.push(PendingChange { node: node.id, change, new_field });
            }
        }
        None => {
            let recorded: HashSet<&str> = form.fields.iter().map(|f| f.name.as_str()).collect();
            let candidates: Vec<&Form> = page
                .forms
                .iter()
                .filter(|live| {
                    !node.catalogue_forms.iter().any(|rf| rf.cgi == live.action)
                        && live.data_fields().map(|f| f.name.as_str()).collect::<HashSet<_>>()
                            == recorded
                })
                .collect();
            let change = if let [only] = candidates[..] {
                PageChange::FormRetargeted {
                    old_action: form.cgi.clone(),
                    new_action: only.action.clone(),
                }
            } else {
                PageChange::FormRemoved { action: form.cgi.clone() }
            };
            out.push(PendingChange { node: node.id, change, new_field: None });
        }
    }
}

/// Fold an auto-applicable repair into the working map: both the node's
/// action catalogue *and* its outgoing edges (the compiled program is
/// generated from the edges — this is the difference from offline
/// maintenance's `apply_change`, which only patches the catalogue).
pub(crate) fn apply_heal(map: &mut NavigationMap, p: &PendingChange) {
    for a in &mut map.node_mut(p.node).actions {
        apply_to_action(a, p);
    }
    for e in map.edges.iter_mut().filter(|e| e.from == p.node) {
        apply_to_action(&mut e.action, p);
    }
    if let PageChange::FormRetargeted { old_action, new_action } = &p.change {
        // The signature embeds form actions; refresh it so a rebuilt
        // probe exact-matches the live page.
        let node = map.node_mut(p.node);
        node.signature =
            node.signature.replace(&format!("form:{old_action}"), &format!("form:{new_action}"));
    }
}

/// Does this repair touch a constant baked into the compiled program
/// (link names, form CGIs)? If so the navigator must recompile and
/// replay the run.
pub(crate) fn needs_recompile(change: &PageChange) -> bool {
    matches!(change, PageChange::LinkRenamed { .. } | PageChange::FormRetargeted { .. })
}

fn apply_to_action(a: &mut ActionDescr, p: &PendingChange) {
    match (&p.change, a) {
        (PageChange::LinkRenamed { old, new, href }, ActionDescr::Follow(l)) if l.name == *old => {
            l.name = new.clone();
            l.href = href.clone();
        }
        (PageChange::FormRetargeted { old_action, new_action }, ActionDescr::Submit(f))
            if f.cgi == *old_action =>
        {
            f.cgi = new_action.clone();
        }
        (PageChange::OptionAdded { form, field, option }, ActionDescr::Submit(f))
            if f.cgi == *form =>
        {
            if let Some(fd) = f.fields.iter_mut().find(|fd| fd.name == *field) {
                match &mut fd.widget {
                    webbase_html::extract::WidgetKind::Select { options }
                    | webbase_html::extract::WidgetKind::Radio { options }
                        if !options.contains(option) =>
                    {
                        options.push(option.clone());
                    }
                    _ => {}
                }
            }
        }
        (PageChange::OptionRemoved { form, field, option }, ActionDescr::Submit(f))
            if f.cgi == *form =>
        {
            if let Some(fd) = f.fields.iter_mut().find(|fd| fd.name == *field) {
                match &mut fd.widget {
                    webbase_html::extract::WidgetKind::Select { options }
                    | webbase_html::extract::WidgetKind::Radio { options } => {
                        options.retain(|o| o != option);
                    }
                    _ => {}
                }
            }
        }
        (PageChange::FieldAdded { form, field, .. }, ActionDescr::Submit(f))
            if f.cgi == *form && f.field_by_attr(field).is_none() =>
        {
            if let Some(fd) = &p.new_field {
                if !f.fields.iter().any(|existing| existing.name == fd.name) {
                    f.fields.push(fd.clone());
                }
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn change(node: NodeId) -> (NodeId, PageChange) {
        (node, PageChange::LinkRenamed { old: "a".into(), new: "b".into(), href: "/x".into() })
    }

    #[test]
    fn since_slices_new_entries_and_counters() {
        let mut base = RepairReport::default();
        base.site_mut("h").auto_applied.push(change(1));
        base.site_mut("h").steps_replayed = 1;
        let mut later = base.clone();
        later.site_mut("h").auto_applied.push(change(2));
        later.site_mut("h").steps_replayed = 3;
        later.site_mut("h").quarantined.push((4, "Pg".into()));
        let delta = later.since(&base);
        let site = &delta.sites["h"];
        assert_eq!(site.auto_applied, vec![change(2)]);
        assert_eq!(site.quarantined, vec![(4, "Pg".into())]);
        assert_eq!(site.steps_replayed, 2);
        // No change → site dropped entirely.
        assert!(later.since(&later).sites.is_empty());
    }

    #[test]
    fn merge_deduplicates_repairs() {
        let mut a = RepairReport::default();
        a.site_mut("h").auto_applied.push(change(1));
        let mut b = RepairReport::default();
        b.site_mut("h").auto_applied.push(change(1));
        b.site_mut("h").quarantined.push((2, "Pg".into()));
        a.merge(&b);
        assert_eq!(a.sites["h"].auto_applied.len(), 1, "same repair merged once");
        assert_eq!(a.quarantined_nodes(), vec![("h", 2, "Pg")]);
    }

    #[test]
    fn render_names_quarantined_nodes() {
        let mut r = RepairReport::default();
        r.site_mut("www.newsday.com").quarantined.push((3, "UsedCarPg".into()));
        let text = r.render();
        assert!(text.contains("UsedCarPg"), "{text}");
        assert!(text.contains("n3"), "{text}");
        assert!(RepairReport::default().render().contains("no in-flight repairs"));
    }

    #[test]
    fn signature_split_and_href_base() {
        let (path, parts) = split_signature("/auto/used|form:/cgi-bin/nclassy,table:a/b");
        assert_eq!(path, "/auto/used");
        assert_eq!(parts, vec!["form:/cgi-bin/nclassy", "table:a/b"]);
        assert_eq!(href_base("/cgi-bin/nclassy2?make=ford&page=3"), "/cgi-bin/nclassy*");
        assert_eq!(href_base("/auto/used"), "/auto/used");
    }
}

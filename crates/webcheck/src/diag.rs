//! The diagnostics framework: stable codes, severities, findings, and
//! the rendered report.
//!
//! Every analysis pass speaks this vocabulary. Codes are *stable* — CI
//! gates, tests, and quarantine reports reference them by id — so a code
//! is never renumbered or reused; retired checks leave a hole.
//! `W0xx`/`W01x`/`W02x` are warnings (the webbase still loads), `E1xx`
//! are errors (the spec is rejected at load time).

use std::fmt;

/// Finding severity. Errors make [`Report::has_errors`] true and fail
/// the `repro --check` gate; warnings are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A stable diagnostic code: id, severity, owning pass, and a one-line
/// title. The registry below is the *single* source of truth — the
/// README diagnostic table is generated from it by
/// [`render_code_table`], so codes cannot drift from docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Code {
    pub id: &'static str,
    pub severity: Severity,
    /// The analysis pass that emits this code (`map`, `program`,
    /// `cross`, or `semantic`) — the README table's middle column.
    pub pass: &'static str,
    pub title: &'static str,
}

macro_rules! codes {
    ($($name:ident = ($id:literal, $sev:ident, $pass:literal, $title:literal);)*) => {
        $(pub const $name: Code =
            Code { id: $id, severity: Severity::$sev, pass: $pass, title: $title };)*
        /// Every registered code, for the README reference table.
        pub const ALL_CODES: &[Code] = &[$($name),*];
    };
}

codes! {
    // ── Pass 1: map linting ─────────────────────────────────────────
    UNREACHABLE_NODE = ("W001", Warning, "map", "node unreachable from the entry page");
    DUPLICATE_EDGE = ("W002", Warning, "map", "duplicate edge (identical action and target)");
    AMBIGUOUS_EDGE = ("W003", Warning, "map", "ambiguous edges (identical action and exemplar, different targets)");
    MORE_NO_PROGRESS = ("W004", Warning, "map", "More-style self-loop with no progress guarantee");
    EDGE_NOT_CATALOGUED = ("W005", Warning, "map", "edge action missing from the source node's catalogue");
    UNREACHABLE_DATA_NODE = ("E101", Error, "map", "registered relation's data node unreachable from the entry");
    RELATION_NOT_DATA = ("E102", Error, "map", "relation registered on a node with no extraction script");
    MANDATORY_UNCOVERED = ("E103", Error, "map", "form edge does not cover the site's inferred-mandatory fields");
    NO_VIABLE_HANDLE = ("E104", Error, "map", "relation has no viable handle (no invocation can ever succeed)");
    // ── Pass 2: program safety ──────────────────────────────────────
    RANGE_RESTRICTION = ("E111", Error, "program", "head variable never bound in the rule body");
    UNDEFINED_PREDICATE = ("E112", Error, "program", "call to a predicate that is neither defined nor a builtin");
    UNUSED_RULE = ("W011", Warning, "program", "rule unreachable from any exported relation");
    SIGNATURE_VIOLATION = ("E113", Error, "program", "attribute used against its signature arrow (=> vs =>>)");
    UNKNOWN_CLASS = ("E114", Error, "program", "membership query against an undeclared class");
    UNKNOWN_ATTRIBUTE = ("W012", Warning, "program", "attribute not declared for the object's class");
    SCHEMA_CONFLICT = ("E115", Error, "program", "relation's data pages disagree on their schema (the map does not compile)");
    // ── Pass 3: cross-layer conformance ─────────────────────────────
    UNKNOWN_VPS_SOURCE = ("E121", Error, "cross", "logical definition references a relation missing from the VPS catalog");
    UNMAPPED_ATTRIBUTE = ("E122", Error, "cross", "logical schema attribute maps to no VPS catalog source");
    UNSATISFIABLE_BINDING = ("E123", Error, "cross", "handle binding pattern cannot be satisfied through the schema");
    VACUOUS_COMPAT_RULE = ("W021", Warning, "cross", "compatibility rule references no known concept (never fires)");
    CONTRADICTORY_COMPAT_RULES = ("E124", Error, "cross", "compatibility rules contradict each other");
    // ── Pass 4: semantic (abstract interpretation) ──────────────────
    CYCLE_NO_PROGRESS = ("W031", Warning, "semantic", "multi-node cycle on a data path without progress evidence");
    SESSION_REPLAY_HAZARD = ("W033", Warning, "semantic", "session-like hidden field replayed across chained forms (expiry-replay hazard)");
    NONPRODUCTIVE_CYCLE = ("E131", Error, "semantic", "entry-reachable cycle from which no data node is reachable (cannot terminate productively)");
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The README `Diagnostic codes (webcheck)` table body, generated from
/// [`ALL_CODES`] so the docs cannot drift from the registry. Rows are
/// in registry (pass, then code) order.
pub fn render_code_table() -> String {
    let mut out = String::from("| Code | Pass | Meaning |\n|------|------|---------|\n");
    for c in ALL_CODES {
        out.push_str(&format!("| `{}` | {} | {} |\n", c.id, c.pass, c.title));
    }
    out
}

/// One finding: a code anchored at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub code: Code,
    /// The site the finding belongs to, or `"<cross-layer>"` for pass-3
    /// findings that span sites.
    pub site: String,
    /// Human-readable source location within the analyzed artefact
    /// (node, edge, rule, relation, …).
    pub location: String,
    pub message: String,
}

impl Diagnostic {
    pub fn new(
        code: Code,
        site: &str,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            site: site.to_string(),
            location: location.into(),
            message: message.into(),
        }
    }

    pub fn severity(&self) -> Severity {
        self.code.severity
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {} at {}: {}",
            self.severity(),
            self.code.id,
            self.site,
            self.location,
            self.message
        )
    }
}

/// The outcome of one or more analysis passes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    pub fn new() -> Report {
        Report::default()
    }

    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity() == Severity::Error)
    }

    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity() == Severity::Error)
    }

    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.severity() == Severity::Warning)
    }

    /// Findings with a given stable code id (`"E101"`, …).
    pub fn with_code(&self, id: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code.id == id).collect()
    }

    /// Findings belonging to one site.
    pub fn for_site(&self, site: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.site == site).collect()
    }

    /// Human-readable report, errors first.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return String::from("webcheck: no findings\n");
        }
        let mut out = String::new();
        for d in self.errors() {
            out.push_str(&format!("  {d}\n"));
        }
        for d in self.warnings() {
            out.push_str(&format!("  {d}\n"));
        }
        out.push_str(&format!(
            "webcheck: {} error(s), {} warning(s)\n",
            self.errors().count(),
            self.warnings().count()
        ));
        out
    }

    /// Machine-readable report: one JSON object per finding, one per
    /// line (JSON-lines), errors first — the `repro --check-json`
    /// output CI consumes. An empty report renders as an empty string.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for d in self.errors().chain(self.warnings()) {
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"pass\":\"{}\",\"site\":\"{}\",\
                 \"location\":\"{}\",\"message\":\"{}\"}}\n",
                d.code.id,
                d.severity(),
                d.code.pass,
                json_escape(&d.site),
                json_escape(&d.location),
                json_escape(&d.message)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for c in ALL_CODES {
            assert!(seen.insert(c.id), "duplicate code id {}", c.id);
            let level = match c.severity {
                Severity::Warning => 'W',
                Severity::Error => 'E',
            };
            assert!(c.id.starts_with(level), "{} severity does not match its prefix", c.id);
            assert!(!c.title.is_empty());
        }
    }

    #[test]
    fn report_partitions_and_renders() {
        let mut r = Report::new();
        r.push(Diagnostic::new(UNREACHABLE_NODE, "a.com", "node 3", "lonely"));
        r.push(Diagnostic::new(RANGE_RESTRICTION, "a.com", "rule p/2 #0", "V1 unbound"));
        assert!(!r.is_clean());
        assert!(r.has_errors());
        assert_eq!(r.errors().count(), 1);
        assert_eq!(r.warnings().count(), 1);
        assert_eq!(r.with_code("E111").len(), 1);
        assert_eq!(r.for_site("a.com").len(), 2);
        let text = r.render();
        assert!(text.contains("error[E111]"), "{text}");
        assert!(text.contains("warning[W001]"), "{text}");
        // errors render before warnings
        assert!(text.find("E111").unwrap() < text.find("W001").unwrap());
    }

    #[test]
    fn empty_report_is_clean() {
        let r = Report::new();
        assert!(r.is_clean() && !r.has_errors());
        assert_eq!(r.render(), "webcheck: no findings\n");
        assert_eq!(r.render_jsonl(), "");
    }

    #[test]
    fn jsonl_escapes_and_orders_errors_first() {
        let mut r = Report::new();
        r.push(Diagnostic::new(UNREACHABLE_NODE, "a.com", "node \"3\"", "tab\there"));
        r.push(Diagnostic::new(RANGE_RESTRICTION, "a.com", "rule p/2 #0", "V1 unbound"));
        let jsonl = r.render_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"code\":\"E111\""), "errors first: {jsonl}");
        assert!(lines[1].contains("\"location\":\"node \\\"3\\\"\""), "{jsonl}");
        assert!(lines[1].contains("\"message\":\"tab\\there\""), "{jsonl}");
        assert!(lines[1].contains("\"pass\":\"map\""), "{jsonl}");
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn code_table_covers_every_registered_code() {
        let table = render_code_table();
        for c in ALL_CODES {
            assert!(table.contains(&format!("| `{}` | {} | {} |", c.id, c.pass, c.title)));
        }
        assert_eq!(table.lines().count(), 2 + ALL_CODES.len());
    }

    #[test]
    fn passes_are_known() {
        for c in ALL_CODES {
            assert!(
                matches!(c.pass, "map" | "program" | "cross" | "semantic"),
                "{} has unknown pass {}",
                c.id,
                c.pass
            );
        }
    }
}

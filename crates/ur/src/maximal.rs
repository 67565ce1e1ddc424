//! Maximal objects — "our analogue of the maximal objects approach"
//! (Maier–Ullman 1983) under compatibility rules.
//!
//! A set of alternatives is **compatible** when it picks at most one
//! alternative per choice group and satisfies every compatibility rule.
//! A **maximal object** is a compatible set to which no alternative can
//! be added without breaking compatibility. Example 6.2 lists five of
//! them for the used-car webbase; [`maximal_objects`] regenerates that
//! list.

use crate::compat::CompatRules;
use crate::hierarchy::Hierarchy;
use std::collections::BTreeSet;

/// A set of alternative names.
pub type AltSet = BTreeSet<String>;

/// Is `set` compatible: ≤1 alternative per group and rules satisfied?
pub fn is_compatible(h: &Hierarchy, rules: &CompatRules, set: &AltSet) -> bool {
    for g in &h.groups {
        if g.alternatives.iter().filter(|a| set.contains(&a.name)).count() > 1 {
            return false;
        }
    }
    rules.allows(set)
}

/// Every compatible set. Small hierarchies keep the original subset
/// enumeration (whose output order downstream traces pin); large ones —
/// the generated corpora, where one choice group can hold a hundred
/// site alternatives — switch to per-group product enumeration, which
/// yields exactly the same sets (group exclusivity already restricts
/// compatible sets to at most one alternative per group) at
/// Π(1 + |group|) candidates instead of 2^alternatives.
pub fn compatible_sets(h: &Hierarchy, rules: &CompatRules) -> Vec<AltSet> {
    let alts: Vec<String> = h.alternatives().map(|a| a.name.clone()).collect();
    if alts.len() <= 12 {
        // Each group's alternatives occupy consecutive mask bits; a mask
        // with two bits in one group breaks exclusivity, so it is
        // skipped before its set is built.
        let mut offset = 0;
        let group_masks: Vec<u32> = h
            .groups
            .iter()
            .map(|g| {
                let bits = ((1u32 << g.alternatives.len()) - 1) << offset;
                offset += g.alternatives.len();
                bits
            })
            .collect();
        let mut out = Vec::new();
        for mask in 0u32..(1 << alts.len()) {
            if group_masks.iter().any(|g| (mask & g).count_ones() > 1) {
                continue;
            }
            let set: AltSet = alts
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, a)| a.clone())
                .collect();
            if is_compatible(h, rules, &set) {
                out.push(set);
            }
        }
        return out;
    }
    let candidates: u128 = h.groups.iter().map(|g| 1 + g.alternatives.len() as u128).product();
    assert!(candidates <= 1 << 22, "hierarchy too large for exhaustive enumeration");
    let mut out = Vec::new();
    let mut partial = AltSet::new();
    product_sets(h, rules, 0, &mut partial, &mut out);
    out
}

/// Depth-first product over choice groups: each group contributes
/// nothing or one of its alternatives; rule filtering happens on the
/// completed set (rules may reference alternatives of later groups).
fn product_sets(
    h: &Hierarchy,
    rules: &CompatRules,
    group: usize,
    partial: &mut AltSet,
    out: &mut Vec<AltSet>,
) {
    if group == h.groups.len() {
        if rules.allows(partial) {
            out.push(partial.clone());
        }
        return;
    }
    product_sets(h, rules, group + 1, partial, out);
    for alt in &h.groups[group].alternatives {
        partial.insert(alt.name.clone());
        product_sets(h, rules, group + 1, partial, out);
        partial.remove(&alt.name);
    }
}

/// The maximal objects: compatible sets not strictly contained in any
/// other compatible set.
pub fn maximal_objects(h: &Hierarchy, rules: &CompatRules) -> Vec<AltSet> {
    let all = compatible_sets(h, rules);
    let mut maximal: Vec<AltSet> =
        all.iter().filter(|s| !all.iter().any(|t| *t != **s && s.is_subset(t))).cloned().collect();
    maximal.sort();
    maximal
}

/// Render maximal objects as the Example 6.2 listing.
pub fn render_maximal(objects: &[AltSet]) -> String {
    let mut out = String::from("Maximal objects\n");
    for o in objects {
        let names: Vec<&str> = o.iter().map(String::as_str).collect();
        out.push_str(&format!("  {}\n", names.join(" ⋈ ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::example62_rules;
    use crate::hierarchy::figure5;

    fn set(names: &[&str]) -> AltSet {
        names.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn example62_maximal_objects() {
        let h = figure5();
        let rules = example62_rules();
        let objects = maximal_objects(&h, &rules);
        // The five objects of Example 6.2, each extended with the
        // always-compatible Reliability concept:
        let expected = [
            set(&["Dealers", "Lease", "FullCoverage", "RetailValue", "Reliability"]),
            set(&["Dealers", "Loan", "FullCoverage", "RetailValue", "Reliability"]),
            set(&["Dealers", "Loan", "Liability", "RetailValue", "Reliability"]),
            set(&["Classifieds", "Loan", "Liability", "RetailValue", "Reliability"]),
            set(&["Classifieds", "Loan", "FullCoverage", "RetailValue", "Reliability"]),
        ];
        for e in &expected {
            assert!(objects.contains(e), "missing expected object {e:?}\ngot: {objects:#?}");
        }
        // Plus the no-used-car objects (TradeInValue is only compatible
        // when no purchase is involved). No Lease∧Classifieds, no
        // Lease∧Liability anywhere:
        for o in &objects {
            assert!(
                !(o.contains("Lease") && o.contains("Classifieds")),
                "navigation trap survived: {o:?}"
            );
            assert!(
                !(o.contains("Lease") && o.contains("Liability")),
                "lease without full coverage: {o:?}"
            );
            assert!(
                !(o.contains("TradeInValue")
                    && (o.contains("Dealers") || o.contains("Classifieds"))),
                "trade-in trap: {o:?}"
            );
        }
    }

    #[test]
    fn maximality() {
        let h = figure5();
        let rules = example62_rules();
        let objects = maximal_objects(&h, &rules);
        let alts: Vec<String> = h.alternatives().map(|a| a.name.clone()).collect();
        for o in &objects {
            for a in &alts {
                if o.contains(a) {
                    continue;
                }
                let mut extended = o.clone();
                extended.insert(a.clone());
                assert!(
                    !is_compatible(&h, &rules, &extended),
                    "object {o:?} is not maximal: can add {a}"
                );
            }
        }
    }

    #[test]
    fn group_exclusivity_enforced() {
        let h = figure5();
        let rules = CompatRules::default();
        assert!(!is_compatible(&h, &rules, &set(&["Dealers", "Classifieds"])));
        assert!(is_compatible(&h, &rules, &set(&["Dealers", "Loan"])));
    }

    #[test]
    fn no_rules_maximal_objects_pick_one_per_group() {
        let h = figure5();
        let objects = maximal_objects(&h, &CompatRules::default());
        // 2 × 2 × 2 × 2 × 1 = 16 full selections
        assert_eq!(objects.len(), 16);
        for o in &objects {
            assert_eq!(o.len(), 5);
        }
    }

    #[test]
    fn product_enumeration_agrees_with_subset_enumeration() {
        // The >12-alternative path must produce exactly the sets of the
        // original mask loop; compare both on Figure 5 (where the mask
        // loop is what `compatible_sets` runs).
        for rules in [CompatRules::default(), example62_rules()] {
            let h = figure5();
            let mut from_mask = compatible_sets(&h, &rules);
            let mut from_product = Vec::new();
            let mut partial = AltSet::new();
            product_sets(&h, &rules, 0, &mut partial, &mut from_product);
            from_mask.sort();
            from_product.sort();
            assert_eq!(from_mask, from_product);
        }
    }

    #[test]
    fn large_single_group_hierarchies_enumerate_linearly() {
        use crate::hierarchy::{Alternative, ChoiceGroup, Hierarchy};
        // One choice group with 100 site alternatives — the generated
        // corpus shape. 2^100 masks is impossible; the product path
        // yields the 101 compatible sets directly.
        let h = Hierarchy {
            ur_name: "GenUR".to_string(),
            groups: vec![ChoiceGroup {
                name: "sources".to_string(),
                alternatives: (0..100)
                    .map(|i| Alternative::new(&format!("S{i}"), &format!("gensite{i}")))
                    .collect(),
            }],
        };
        let rules = CompatRules::default();
        let sets = compatible_sets(&h, &rules);
        assert_eq!(sets.len(), 101, "empty set plus one singleton per site");
        let objects = maximal_objects(&h, &rules);
        assert_eq!(objects.len(), 100);
        assert!(objects.iter().all(|o| o.len() == 1));
    }

    #[test]
    fn rendering() {
        let h = figure5();
        let txt = render_maximal(&maximal_objects(&h, &example62_rules()));
        assert!(txt.contains("Dealers"));
        assert!(txt.contains("⋈"));
    }
}

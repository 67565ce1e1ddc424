//! Property-based tests: algebra laws, binding propagation invariants,
//! and ordering soundness.

use proptest::prelude::*;
use std::collections::BTreeSet;
use webbase_relational::binding::{propagate, BindingRules, BindingSet};
use webbase_relational::eval::{hash_join, AccessSpec, Evaluator, MemoryProvider};
use webbase_relational::ordering::{is_feasible, order_exact, order_greedy, JoinInput};
use webbase_relational::prelude::*;

/// A random small relation over `attrs` with small integer values (to
/// force collisions and joins).
fn small_relation(attrs: &'static [&'static str]) -> impl Strategy<Value = Relation> {
    proptest::collection::vec(proptest::collection::vec(0i64..5, attrs.len()..=attrs.len()), 0..12)
        .prop_map(move |rows| {
            Relation::from_rows(
                Schema::new(attrs.iter().copied()),
                rows.into_iter().map(|r| r.into_iter().map(Value::Int).collect::<Vec<_>>()),
            )
        })
}

proptest! {
    /// Natural join is commutative up to column order: same row count and
    /// same multiset of (attr → value) maps.
    #[test]
    fn join_commutative(l in small_relation(&["a", "b"]), r in small_relation(&["b", "c"])) {
        let lr = hash_join(&l, &r);
        let rl = hash_join(&r, &l);
        prop_assert_eq!(lr.len(), rl.len());
        let norm = |rel: &Relation| {
            let mut rows: Vec<Vec<(String, String)>> = rel
                .tuples()
                .iter()
                .map(|t| {
                    let mut pairs: Vec<(String, String)> = rel
                        .named(t)
                        .map(|(a, v)| (a.to_string(), v.to_string()))
                        .collect();
                    pairs.sort();
                    pairs
                })
                .collect();
            rows.sort();
            rows
        };
        prop_assert_eq!(norm(&lr), norm(&rl));
    }

    /// Join with self on the full schema is identity.
    #[test]
    fn self_join_identity(r in small_relation(&["a", "b"])) {
        let j = hash_join(&r, &r);
        prop_assert_eq!(&j, &r);
    }

    /// Selection then union equals union then selection.
    #[test]
    fn select_distributes_over_union(
        l in small_relation(&["a", "b"]),
        r in small_relation(&["a", "b"]),
        threshold in 0i64..5,
    ) {
        let mut p1 = MemoryProvider::new();
        p1.add("l", l.clone());
        p1.add("r", r.clone());
        let pred = Pred::lt("a", threshold);
        let e1 = Expr::relation("l").union(Expr::relation("r")).select(pred.clone());
        let e2 = Expr::relation("l")
            .select(pred.clone())
            .union(Expr::relation("r").select(pred));
        let v1 = Evaluator::new(&mut p1).eval(&e1, &AccessSpec::new()).expect("e1");
        let mut p2 = MemoryProvider::new();
        p2.add("l", l);
        p2.add("r", r);
        let v2 = Evaluator::new(&mut p2).eval(&e2, &AccessSpec::new()).expect("e2");
        prop_assert_eq!(v1, v2);
    }

    /// Projection is idempotent.
    #[test]
    fn project_idempotent(r in small_relation(&["a", "b", "c"])) {
        let mut p = MemoryProvider::new();
        p.add("r", r);
        let e1 = Expr::relation("r").project(["a", "b"]);
        let e2 = Expr::relation("r").project(["a", "b"]).project(["a", "b"]);
        let v1 = Evaluator::new(&mut p).eval(&e1, &AccessSpec::new()).expect("e1");
        let v2 = Evaluator::new(&mut p).eval(&e2, &AccessSpec::new()).expect("e2");
        prop_assert_eq!(v1, v2);
    }

    /// Binding-set normalisation: no binding is a subset of another, and
    /// satisfied_by is monotone in the available set.
    #[test]
    fn binding_normalisation_and_monotonicity(
        lists in proptest::collection::vec(
            proptest::collection::btree_set("[a-e]", 0..4), 0..6),
        extra in proptest::collection::btree_set("[a-h]", 0..6),
    ) {
        let bs = BindingSet::from_bindings(
            lists.iter().map(|l| l.iter().map(|s| Attr::new(s.clone())).collect()),
        );
        for (i, a) in bs.bindings().iter().enumerate() {
            for (j, b) in bs.bindings().iter().enumerate() {
                if i != j {
                    prop_assert!(!a.is_subset(b), "non-minimal binding survived");
                }
            }
        }
        // monotonicity
        let avail1: BTreeSet<Attr> = BTreeSet::new();
        let avail2: BTreeSet<Attr> = extra.iter().map(|s| Attr::new(s.clone())).collect();
        if bs.satisfied_by(&avail1) {
            prop_assert!(bs.satisfied_by(&avail2));
        }
    }

    /// Adding a handle (an extra alternative binding) never removes
    /// satisfiability — propagation is monotone in the binding sets.
    #[test]
    fn propagation_monotone_in_handles(
        base in proptest::collection::btree_set("[a-d]", 1..3),
        extra_handle in proptest::collection::btree_set("[a-d]", 0..3),
        avail in proptest::collection::btree_set("[a-d]", 0..4),
    ) {
        let b1 = BindingSet::from_bindings([
            base.iter().map(|s| Attr::new(s.clone())).collect::<Binding>(),
        ]);
        let b2 = BindingSet::from_bindings([
            base.iter().map(|s| Attr::new(s.clone())).collect::<Binding>(),
            extra_handle.iter().map(|s| Attr::new(s.clone())).collect::<Binding>(),
        ]);
        let schema = Schema::new(["a", "b", "c", "d"]);
        let e = Expr::relation("r").project(["a"]);
        let avail: BTreeSet<Attr> = avail.iter().map(|s| Attr::new(s.clone())).collect();
        let p1 = propagate(&e, &|_| Some(b1.clone()), &|_| Some(schema.clone()), false);
        let p2 = propagate(&e, &|_| Some(b2.clone()), &|_| Some(schema.clone()), false);
        if p1.satisfied_by(&avail) {
            prop_assert!(p2.satisfied_by(&avail), "extra handle lost satisfiability");
        }
    }

    /// Join binding rule subsumption: every binding produced for a join
    /// is satisfiable end-to-end — if `avail` covers it, an evaluation
    /// order exists (left-first or right-first).
    #[test]
    fn join_bindings_are_executable(
        m1 in proptest::collection::btree_set("[a-c]", 0..3),
        m2 in proptest::collection::btree_set("[c-e]", 0..3),
    ) {
        let l_schema = Schema::new(["a", "b", "c"]);
        let r_schema = Schema::new(["c", "d", "e"]);
        let lb = BindingSet::from_bindings([m1.iter().map(|s| Attr::new(s.clone())).collect::<Binding>()]);
        let rb = BindingSet::from_bindings([m2.iter().map(|s| Attr::new(s.clone())).collect::<Binding>()]);
        let joined = BindingRules::join(&lb, &rb, &l_schema, &r_schema);
        for b in joined.bindings() {
            let inputs = [
                JoinInput::new("l", l_schema.clone(), lb.clone()),
                JoinInput::new("r", r_schema.clone(), rb.clone()),
            ];
            let avail: BTreeSet<Attr> = b.iter().cloned().collect();
            prop_assert!(
                order_exact(&inputs, &avail).is_some(),
                "binding {b:?} admits no execution order"
            );
        }
    }

    /// Ordering soundness: whatever order_exact/greedy return is feasible,
    /// and exact succeeds whenever greedy does.
    #[test]
    fn ordering_sound_and_exact_dominates(
        specs in proptest::collection::vec(
            (proptest::collection::btree_set("[a-f]", 1..4),
             proptest::collection::btree_set("[a-f]", 0..3)),
            1..7),
        initial in proptest::collection::btree_set("[a-f]", 0..3),
    ) {
        let inputs: Vec<JoinInput> = specs
            .iter()
            .enumerate()
            .map(|(i, (schema, binding))| {
                // ensure binding ⊆ anything is fine; schema arbitrary
                JoinInput::new(
                    &format!("r{i}"),
                    Schema::new(schema.iter().map(String::as_str)),
                    BindingSet::from_bindings([binding
                        .iter()
                        .map(|s| Attr::new(s.clone()))
                        .collect::<Binding>()]),
                )
            })
            .collect();
        let init: BTreeSet<Attr> = initial.iter().map(|s| Attr::new(s.clone())).collect();
        if let Some(o) = order_exact(&inputs, &init) {
            prop_assert!(is_feasible(&inputs, &init, &o));
        }
        if let Some(o) = order_greedy(&inputs, &init) {
            prop_assert!(is_feasible(&inputs, &init, &o));
            prop_assert!(order_exact(&inputs, &init).is_some(), "greedy found, exact missed");
        }
    }

    /// Dependent-join evaluation equals materialised hash join whenever
    /// both are possible.
    #[test]
    fn dependent_join_agrees_with_free_join(
        l in small_relation(&["k", "a"]),
        r in small_relation(&["k", "b"]),
    ) {
        // Free evaluation.
        let mut pf = MemoryProvider::new();
        pf.add("l", l.clone());
        pf.add("r", r.clone());
        let e = Expr::relation("l").join(Expr::relation("r"));
        let free = Evaluator::new(&mut pf).eval(&e, &AccessSpec::new()).expect("free");
        // Dependent: r only invocable with k bound.
        let mut pd = MemoryProvider::new();
        pd.add("l", l);
        pd.add_with_bindings("r", r, BindingSet::from_attr_lists([vec!["k"]]));
        let dep = Evaluator::new(&mut pd).eval(&e, &AccessSpec::new()).expect("dependent");
        prop_assert_eq!(free, dep);
    }
}

/// Random small algebra expressions over two fixed base relations.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![Just(Expr::relation("ra")), Just(Expr::relation("rb"))];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), 0i64..4).prop_map(|(e, v)| e.select(Pred::eq("k", v))),
            (inner.clone(), 0i64..4).prop_map(|(e, v)| e.select(Pred::lt("k", v))),
            inner.clone().prop_map(|e| e.project(["k"])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.join(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| {
                // union/diff need equal schemas: project both onto (k).
                a.project(["k"]).union(b.project(["k"]))
            }),
            (inner.clone(), inner).prop_map(|(a, b)| { a.project(["k"]).diff(b.project(["k"])) }),
        ]
    })
}

proptest! {
    /// The optimiser preserves query results on arbitrary expressions
    /// and data (§2's "akin to relational algebra transformations" must
    /// be equivalences, not heuristics).
    #[test]
    fn optimizer_preserves_semantics(
        e in arb_expr(),
        ra in small_relation(&["k", "a"]),
        rb in small_relation(&["k", "b"]),
    ) {
        let base = |n: &str| -> Option<Schema> {
            match n {
                "ra" => Some(Schema::new(["k", "a"])),
                "rb" => Some(Schema::new(["k", "b"])),
                _ => None,
            }
        };
        let o = webbase_relational::optimize::optimize(&e, &base);
        let mut p1 = MemoryProvider::new();
        p1.add("ra", ra.clone());
        p1.add("rb", rb.clone());
        let r1 = Evaluator::new(&mut p1).eval(&e, &AccessSpec::new());
        let mut p2 = MemoryProvider::new();
        p2.add("ra", ra);
        p2.add("rb", rb);
        let r2 = Evaluator::new(&mut p2).eval(&o, &AccessSpec::new());
        match (r1, r2) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "optimised {} != original {}", o, e),
            (Err(_), Err(_)) => {}
            (a, b) => prop_assert!(false, "divergent outcomes: {a:?} vs {b:?}"),
        }
    }

    /// Optimisation never weakens bindings: anything invocable before is
    /// invocable after (pushdown can only supply more constants).
    #[test]
    fn optimizer_monotone_in_bindings(e in arb_expr()) {
        use webbase_relational::binding::propagate;
        let base = |n: &str| -> Option<Schema> {
            match n {
                "ra" => Some(Schema::new(["k", "a"])),
                "rb" => Some(Schema::new(["k", "b"])),
                _ => None,
            }
        };
        let bb = |_: &str| Some(BindingSet::from_attr_lists([vec!["k"]]));
        let before = propagate(&e, &bb, &base, false);
        let o = webbase_relational::optimize::optimize(&e, &base);
        let after = propagate(&o, &bb, &base, false);
        for b in before.bindings() {
            prop_assert!(
                after.satisfied_by(b),
                "binding {b:?} lost by optimisation: {} → {}",
                e,
                o
            );
        }
    }
}

/// Random arithmetic formulas over attribute `k`.
fn arb_arith() -> impl Strategy<Value = webbase_relational::arith::ArithExpr> {
    use webbase_relational::arith::ArithExpr;
    let leaf = prop_oneof![
        Just(ArithExpr::attr("k")),
        (1i32..20).prop_map(|c| ArithExpr::constant(c as f64)),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            (inner.clone(), inner).prop_map(|(a, b)| a / b),
        ]
    })
}

proptest! {
    /// Formula display re-parses to the same formula.
    #[test]
    fn arith_display_roundtrip(f in arb_arith()) {
        let printed = f.to_string();
        let again = webbase_relational::arith::parse_arith(&printed)
            .unwrap_or_else(|e| panic!("{printed}: {e}"));
        prop_assert_eq!(again, f);
    }

    /// The arith parser is total (errors, never panics).
    #[test]
    fn arith_parser_total(input in ".{0,60}") {
        let _ = webbase_relational::arith::parse_arith(&input);
    }

    /// Extend then filter ≡ filter after manual computation: evaluation
    /// of a computed column matches direct evaluation over each tuple.
    #[test]
    fn extend_matches_manual_computation(
        r in small_relation(&["k", "a"]),
        f in arb_arith(),
    ) {
        let mut p = MemoryProvider::new();
        p.add("r", r.clone());
        let e = Expr::relation("r").extend("c", f.clone());
        let out = Evaluator::new(&mut p).eval(&e, &AccessSpec::new()).expect("evals");
        // For each input tuple, find it in the output and compare the
        // computed column.
        let ci = out.schema().index_of(&"c".into()).expect("c");
        let resolved = f.resolve(r.schema()).expect("formula reads r's attributes");
        for t in r.tuples() {
            let expected = resolved.eval_value(t);
            let found = out
                .tuples()
                .iter()
                .find(|ot| ot.values()[..t.len()] == *t.values())
                .unwrap_or_else(|| panic!("tuple lost by extend"));
            prop_assert_eq!(found.get(ci), &expected);
        }
    }

    /// The optimizer preserves semantics across Extend boundaries too.
    #[test]
    fn optimizer_sound_with_extend(
        r in small_relation(&["k", "a"]),
        f in arb_arith(),
        bound in 0i64..6,
    ) {
        let base = |n: &str| -> Option<Schema> {
            (n == "r").then(|| Schema::new(["k", "a"]))
        };
        let e = Expr::relation("r")
            .extend("c", f)
            .select(Pred::and(vec![Pred::lt("k", bound), Pred::ge("c", 0i64)]));
        let o = webbase_relational::optimize::optimize(&e, &base);
        let mut p1 = MemoryProvider::new();
        p1.add("r", r.clone());
        let v1 = Evaluator::new(&mut p1).eval(&e, &AccessSpec::new()).expect("orig");
        let mut p2 = MemoryProvider::new();
        p2.add("r", r);
        let v2 = Evaluator::new(&mut p2).eval(&o, &AccessSpec::new()).expect("opt");
        prop_assert_eq!(v1, v2, "{} vs {}", e, o);
    }
}

/// A random access spec: a few constants on attributes the expressions
/// below read, compute or rename.
fn arb_spec() -> impl Strategy<Value = AccessSpec> {
    let attr = proptest::sample::select(vec!["k", "a", "b", "c", "key"]);
    proptest::collection::vec((attr, 0i64..5), 0..4).prop_map(|consts| {
        consts.into_iter().fold(AccessSpec::new(), |spec, (a, v)| spec.with(a, Value::Int(v)))
    })
}

proptest! {
    /// One compiled expression evaluated under many access specs in
    /// sequence — specs binding different attribute sets, over a
    /// provider where `rb` may need `k` bound (so joins go dependent) —
    /// answers call by call exactly what a fresh evaluation compiled for
    /// that call answers, tuple order and invocations included: no state
    /// leaks from one invocation into the next.
    #[test]
    fn a_compiled_expression_reused_across_specs_matches_fresh_evaluations(
        e in arb_expr(),
        wrap in 0u8..3,
        ra in small_relation(&["k", "a"]),
        rb in small_relation(&["k", "b"]),
        rb_needs_k in any::<bool>(),
        specs in proptest::collection::vec(arb_spec(), 1..8),
    ) {
        use webbase_relational::arith::ArithExpr;
        use webbase_relational::eval::CompiledExpr;
        let e = match wrap {
            0 => e,
            1 => e.extend("c", ArithExpr::attr("k") + ArithExpr::constant(1.0)),
            _ => e.rename([("k", "key")]),
        };
        let provider = || {
            let mut p = MemoryProvider::new();
            p.add("ra", ra.clone());
            if rb_needs_k {
                p.add_with_bindings("rb", rb.clone(), BindingSet::from_attr_lists([vec!["k"]]));
            } else {
                p.add("rb", rb.clone());
            }
            p
        };
        let mut reused = provider();
        let compiled = CompiledExpr::new(&e, &reused, false);
        for spec in &specs {
            let mark = reused.fetch_log.len();
            let got = Evaluator::new(&mut reused).eval_compiled(&e, &compiled, spec);
            let mut fresh = provider();
            let want = Evaluator::new(&mut fresh).eval(&e, spec);
            match (&got, &want) {
                (Ok(g), Ok(w)) => {
                    prop_assert_eq!(g.schema(), w.schema(), "{} under {}", e, spec);
                    prop_assert_eq!(g.tuples(), w.tuples(), "{} under {}", e, spec);
                }
                _ => prop_assert_eq!(&got, &want, "{} under {}", e, spec),
            }
            prop_assert_eq!(&reused.fetch_log[mark..], &fresh.fetch_log[..], "{} under {}", e, spec);
        }
    }
}

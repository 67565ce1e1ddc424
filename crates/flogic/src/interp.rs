//! The Transaction F-logic interpreter.
//!
//! Execution follows the procedural reading of serial-Horn Transaction
//! Logic: solving a goal means finding an *execution path* — a sequence
//! of database states. Serial conjunction `a ⊗ b` executes `a`, leaving
//! the store in the state `a`'s path ends in, then executes `b` from
//! there. Backtracking out of an alternative rolls the store back to the
//! state where the alternative began (atomicity of failed branches).
//!
//! The engine is a depth-first resolution procedure in
//! continuation-passing style. Solutions are enumerated through a
//! callback which can stop the search ([`Flow::Stop`]); fuel and depth
//! limits turn runaway navigation programs into errors instead of hangs.

use crate::goal::{CmpOp, Goal};
use crate::oracle::{NullOracle, Oracle, OracleOutcome};
use crate::program::Program;
use crate::store::ObjectStore;
use crate::term::{Sym, Term, Var};
use crate::unify::Bindings;
use std::collections::HashMap;
use std::fmt;

/// Search control returned by solution callbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep enumerating alternatives.
    Continue,
    /// Stop the search; the current state is kept.
    Stop,
}

/// Errors surfaced by the engine (all indicate a broken program or an
/// exhausted resource, never "no solutions").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Atom called with a predicate neither the program nor the oracle
    /// knows.
    UnknownPredicate(String, usize),
    /// The per-query fuel budget ran out (runaway recursion guard).
    FuelExhausted,
    /// Recursion exceeded the depth limit.
    DepthExceeded,
    /// A comparison was attempted on non-ground or incomparable terms.
    BadComparison(String),
    /// An update goal had unbound arguments at execution time.
    NonGroundUpdate(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownPredicate(p, n) => write!(f, "unknown predicate {p}/{n}"),
            EngineError::FuelExhausted => write!(f, "fuel exhausted"),
            EngineError::DepthExceeded => write!(f, "depth limit exceeded"),
            EngineError::BadComparison(s) => write!(f, "bad comparison: {s}"),
            EngineError::NonGroundUpdate(s) => write!(f, "non-ground update: {s}"),
        }
    }
}

impl std::error::Error for EngineError {}

type SolveResult = Result<Flow, EngineError>;

/// One enumerated solution: the query's variables resolved to terms.
pub type Solution = HashMap<String, Term>;

/// A Transaction F-logic machine: program + mutable state + oracle.
pub struct Machine<'p, O: Oracle = NullOracle> {
    program: &'p Program,
    pub store: ObjectStore,
    pub oracle: O,
    fuel: u64,
    max_depth: u32,
}

/// Default fuel per query — generous enough for full-site navigation,
/// small enough to stop a diverging recursion promptly.
pub const DEFAULT_FUEL: u64 = 5_000_000;
/// Default recursion depth limit. Navigation programs recurse once per
/// result page ("More" iteration), so real depths stay in the low
/// hundreds; the limit also keeps the interpreter's own stack usage
/// bounded (each logical level costs a handful of Rust frames).
pub const DEFAULT_MAX_DEPTH: u32 = 600;

impl<'p> Machine<'p, NullOracle> {
    pub fn new(program: &'p Program, store: ObjectStore) -> Self {
        Machine::with_oracle(program, store, NullOracle)
    }
}

impl<'p, O: Oracle> Machine<'p, O> {
    pub fn with_oracle(program: &'p Program, store: ObjectStore, oracle: O) -> Self {
        Machine { program, store, oracle, fuel: DEFAULT_FUEL, max_depth: DEFAULT_MAX_DEPTH }
    }

    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Enumerate every solution of `goal`, reporting the resolved values
    /// of `vars` (name → variable) for each.
    pub fn solve_all(
        &mut self,
        goal: &Goal,
        vars: &[(String, Var)],
    ) -> Result<Vec<Solution>, EngineError> {
        let ids: Vec<Var> = vars.iter().map(|(_, v)| *v).collect();
        let rows = self.solve_rows(goal, &ids)?;
        Ok(rows
            .into_iter()
            .map(|row| vars.iter().map(|(n, _)| n.clone()).zip(row).collect())
            .collect())
    }

    /// Enumerate every solution of `goal` as the resolved values of
    /// `vars`, in `vars` order.
    pub fn solve_rows(&mut self, goal: &Goal, vars: &[Var]) -> Result<Vec<Vec<Term>>, EngineError> {
        let mut rows = Vec::new();
        let mut bindings = Bindings::new();
        let next_var = goal.var_ceiling();
        self.solve(goal, &mut bindings, next_var, 0, &mut |_m, b, _nv| {
            rows.push(vars.iter().map(|v| b.resolve(&Term::Var(*v))).collect());
            Ok(Flow::Continue)
        })?;
        Ok(rows)
    }

    /// Execute `goal` once; returns whether a successful execution path
    /// exists. The store keeps the final state of the first successful
    /// path (transaction semantics: commit on success).
    pub fn run(&mut self, goal: &Goal) -> Result<bool, EngineError> {
        let mut bindings = Bindings::new();
        let next_var = goal.var_ceiling();
        let mut found = false;
        self.solve(goal, &mut bindings, next_var, 0, &mut |_m, _b, _nv| {
            found = true;
            Ok(Flow::Stop)
        })?;
        Ok(found)
    }

    /// Parse `text` as a goal and enumerate all solutions keyed by the
    /// variable names appearing in it. Convenience for tests and examples.
    pub fn solve_str(&mut self, text: &str) -> Result<Vec<Solution>, EngineError> {
        let (goal, vars) =
            crate::parser::parse_goal(text).unwrap_or_else(|e| panic!("bad goal {text:?}: {e}"));
        self.solve_all(&goal, &vars)
    }

    fn spend_fuel(&mut self) -> Result<(), EngineError> {
        if self.fuel == 0 {
            return Err(EngineError::FuelExhausted);
        }
        self.fuel -= 1;
        Ok(())
    }

    /// Core CPS solver. `next_var` is the next fresh variable index for
    /// clause renaming; `k` is invoked at each successful execution.
    ///
    /// This dispatcher stays tiny; every goal kind is handled by its own
    /// `#[inline(never)]` method so a deep recursion only pays the stack
    /// frames of the goal kinds it actually traverses (debug-build frames
    /// of one merged match would be an order of magnitude larger).
    fn solve(
        &mut self,
        goal: &Goal,
        bnd: &mut Bindings,
        next_var: u32,
        depth: u32,
        k: &mut dyn FnMut(&mut Self, &mut Bindings, u32) -> SolveResult,
    ) -> SolveResult {
        if depth > self.max_depth {
            return Err(EngineError::DepthExceeded);
        }
        match goal {
            Goal::True => k(self, bnd, next_var),
            Goal::Fail => Ok(Flow::Continue),
            Goal::Seq(goals) => self.solve_seq(goals, bnd, next_var, depth, k),
            Goal::Choice(alts) => self.solve_choice(alts, bnd, next_var, depth, k),
            Goal::Naf(inner) => self.solve_naf(inner, bnd, next_var, depth, k),
            Goal::Cmp(op, a, b) => self.solve_cmp(*op, a, b, bnd, next_var, k),
            Goal::IsA(o, c) => self.solve_isa(o, *c, bnd, next_var, k),
            Goal::ScalarAttr(o, a, v) => self.solve_scalar(o, *a, v, bnd, next_var, k),
            Goal::SetAttr(o, a, v) => self.solve_setattr(o, *a, v, bnd, next_var, k),
            Goal::InsertIsA(..)
            | Goal::InsertScalar(..)
            | Goal::InsertSet(..)
            | Goal::DeleteSet(..)
            | Goal::DeleteScalar(..) => self.solve_update(goal, bnd, next_var, k),
            Goal::Atom(pred, args) => self.solve_atom(*pred, args, bnd, next_var, depth, k),
        }
    }

    #[inline(never)]
    fn solve_choice(
        &mut self,
        alts: &[Goal],
        bnd: &mut Bindings,
        next_var: u32,
        depth: u32,
        k: &mut dyn FnMut(&mut Self, &mut Bindings, u32) -> SolveResult,
    ) -> SolveResult {
        for alt in alts {
            let bm = bnd.mark();
            let sm = self.store.mark();
            let flow = self.solve(alt, bnd, next_var, depth + 1, k)?;
            if flow == Flow::Stop {
                return Ok(Flow::Stop);
            }
            bnd.undo_to(bm);
            self.store.undo_to(sm);
        }
        Ok(Flow::Continue)
    }

    #[inline(never)]
    fn solve_naf(
        &mut self,
        inner: &Goal,
        bnd: &mut Bindings,
        next_var: u32,
        depth: u32,
        k: &mut dyn FnMut(&mut Self, &mut Bindings, u32) -> SolveResult,
    ) -> SolveResult {
        // Isolation: nothing a failed (or succeeded) NAF probe did to the
        // state may survive.
        let bm = bnd.mark();
        let sm = self.store.mark();
        let mut succeeded = false;
        self.solve(inner, bnd, next_var, depth + 1, &mut |_m, _b, _nv| {
            succeeded = true;
            Ok(Flow::Stop)
        })?;
        bnd.undo_to(bm);
        self.store.undo_to(sm);
        if succeeded {
            Ok(Flow::Continue)
        } else {
            k(self, bnd, next_var)
        }
    }

    #[inline(never)]
    fn solve_cmp(
        &mut self,
        op: CmpOp,
        a: &Term,
        b: &Term,
        bnd: &mut Bindings,
        next_var: u32,
        k: &mut dyn FnMut(&mut Self, &mut Bindings, u32) -> SolveResult,
    ) -> SolveResult {
        let ra = bnd.resolve(a);
        let rb = bnd.resolve(b);
        if compare(op, &ra, &rb)? {
            k(self, bnd, next_var)
        } else {
            Ok(Flow::Continue)
        }
    }

    #[inline(never)]
    fn solve_isa(
        &mut self,
        o: &Term,
        c: Sym,
        bnd: &mut Bindings,
        next_var: u32,
        k: &mut dyn FnMut(&mut Self, &mut Bindings, u32) -> SolveResult,
    ) -> SolveResult {
        let ro = bnd.resolve(o);
        if ro.is_ground() {
            if self.store.is_member(&ro, c) {
                return k(self, bnd, next_var);
            }
            return Ok(Flow::Continue);
        }
        // Enumerate members of the class.
        for m in self.store.members(c) {
            let bm = bnd.mark();
            if bnd.unify(o, &m) {
                let flow = k(self, bnd, next_var)?;
                if flow == Flow::Stop {
                    return Ok(Flow::Stop);
                }
            }
            bnd.undo_to(bm);
        }
        Ok(Flow::Continue)
    }

    #[inline(never)]
    fn solve_scalar(
        &mut self,
        o: &Term,
        a: Sym,
        v: &Term,
        bnd: &mut Bindings,
        next_var: u32,
        k: &mut dyn FnMut(&mut Self, &mut Bindings, u32) -> SolveResult,
    ) -> SolveResult {
        let ro = bnd.resolve(o);
        let candidates: Vec<(Term, Term)> = if ro.is_ground() {
            match self.store.get_scalar(&ro, a) {
                Some(val) => vec![(ro, val.clone())],
                None => return Ok(Flow::Continue),
            }
        } else {
            self.store.scalar_pairs(a)
        };
        for (obj, val) in candidates {
            let bm = bnd.mark();
            if bnd.unify(o, &obj) && bnd.unify(v, &val) {
                let flow = k(self, bnd, next_var)?;
                if flow == Flow::Stop {
                    return Ok(Flow::Stop);
                }
            }
            bnd.undo_to(bm);
        }
        Ok(Flow::Continue)
    }

    #[inline(never)]
    fn solve_setattr(
        &mut self,
        o: &Term,
        a: Sym,
        v: &Term,
        bnd: &mut Bindings,
        next_var: u32,
        k: &mut dyn FnMut(&mut Self, &mut Bindings, u32) -> SolveResult,
    ) -> SolveResult {
        let ro = bnd.resolve(o);
        let candidates: Vec<(Term, Term)> = if ro.is_ground() {
            self.store.get_setvals(&ro, a).iter().map(|v| (ro.clone(), v.clone())).collect()
        } else {
            self.store.setval_pairs(a)
        };
        for (obj, val) in candidates {
            let bm = bnd.mark();
            if bnd.unify(o, &obj) && bnd.unify(v, &val) {
                let flow = k(self, bnd, next_var)?;
                if flow == Flow::Stop {
                    return Ok(Flow::Stop);
                }
            }
            bnd.undo_to(bm);
        }
        Ok(Flow::Continue)
    }

    #[inline(never)]
    fn solve_update(
        &mut self,
        goal: &Goal,
        bnd: &mut Bindings,
        next_var: u32,
        k: &mut dyn FnMut(&mut Self, &mut Bindings, u32) -> SolveResult,
    ) -> SolveResult {
        match goal {
            Goal::InsertIsA(o, c) => {
                let ro = self.ground(bnd, o, "ins(_ : _)")?;
                self.store.insert_isa(ro, *c);
            }
            Goal::InsertScalar(o, a, v) => {
                let ro = self.ground(bnd, o, "ins(_[_ -> _])")?;
                let rv = self.ground(bnd, v, "ins(_[_ -> _])")?;
                self.store.insert_scalar(ro, *a, rv);
            }
            Goal::InsertSet(o, a, v) => {
                let ro = self.ground(bnd, o, "ins(_[_ ->> _])")?;
                let rv = self.ground(bnd, v, "ins(_[_ ->> _])")?;
                self.store.insert_setval(ro, *a, rv);
            }
            Goal::DeleteSet(o, a, v) => {
                let ro = self.ground(bnd, o, "del(_[_ ->> _])")?;
                let rv = self.ground(bnd, v, "del(_[_ ->> _])")?;
                self.store.delete_setval(&ro, *a, &rv);
            }
            Goal::DeleteScalar(o, a) => {
                let ro = self.ground(bnd, o, "del(_[_ -> _])")?;
                self.store.delete_scalar(&ro, *a);
            }
            other => unreachable!("solve_update called on non-update goal {other:?}"),
        }
        k(self, bnd, next_var)
    }

    #[inline(never)]
    fn solve_seq(
        &mut self,
        goals: &[Goal],
        bnd: &mut Bindings,
        next_var: u32,
        depth: u32,
        k: &mut dyn FnMut(&mut Self, &mut Bindings, u32) -> SolveResult,
    ) -> SolveResult {
        match goals.split_first() {
            None => k(self, bnd, next_var),
            Some((first, rest)) => self.solve(first, bnd, next_var, depth + 1, &mut |m, b, nv| {
                m.solve_seq(rest, b, nv, depth, k)
            }),
        }
    }

    #[inline(never)]
    fn solve_atom(
        &mut self,
        pred: Sym,
        args: &[Term],
        bnd: &mut Bindings,
        next_var: u32,
        depth: u32,
        k: &mut dyn FnMut(&mut Self, &mut Bindings, u32) -> SolveResult,
    ) -> SolveResult {
        self.spend_fuel()?;
        let arity = args.len();
        // The program outlives this machine's borrow of itself, so its
        // rules are borrowed across the recursive solves below.
        let program: &'p Program = self.program;
        if program.is_defined(pred, arity) {
            for rule in program.lookup(pred, arity) {
                let bm = bnd.mark();
                let sm = self.store.mark();
                let offset = next_var;
                let rule_ceiling = rule.var_ceiling();
                let renamed_args: Vec<Term> =
                    rule.head_args.iter().map(|t| t.offset_vars(offset)).collect();
                let mut ok = true;
                for (call_arg, head_arg) in args.iter().zip(&renamed_args) {
                    if !bnd.unify(call_arg, head_arg) {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    let body = rule.body.offset_vars(offset);
                    let flow = self.solve(&body, bnd, offset + rule_ceiling, depth + 1, k)?;
                    if flow == Flow::Stop {
                        return Ok(Flow::Stop);
                    }
                }
                bnd.undo_to(bm);
                self.store.undo_to(sm);
            }
            return Ok(Flow::Continue);
        }
        // Not a program predicate: ask the oracle.
        let resolved: Vec<Term> = args.iter().map(|a| bnd.resolve(a)).collect();
        match self.oracle.call(pred, &resolved, &mut self.store, bnd) {
            OracleOutcome::NotMine => Err(EngineError::UnknownPredicate(pred.name(), arity)),
            OracleOutcome::Fail => Ok(Flow::Continue),
            OracleOutcome::Solutions(sols) => {
                for sol in sols {
                    if sol.len() != arity {
                        continue; // malformed oracle answer: skip
                    }
                    let bm = bnd.mark();
                    let sm = self.store.mark();
                    let mut ok = true;
                    for (arg, val) in args.iter().zip(&sol) {
                        if !bnd.unify(arg, val) {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        let flow = k(self, bnd, next_var)?;
                        if flow == Flow::Stop {
                            return Ok(Flow::Stop);
                        }
                    }
                    bnd.undo_to(bm);
                    self.store.undo_to(sm);
                }
                Ok(Flow::Continue)
            }
        }
    }

    fn ground(&self, bnd: &Bindings, t: &Term, ctx: &str) -> Result<Term, EngineError> {
        let r = bnd.resolve(t);
        if r.is_ground() {
            Ok(r)
        } else {
            Err(EngineError::NonGroundUpdate(format!("{ctx}: {r:?}")))
        }
    }
}

/// Compare two ground terms. Numeric comparisons coerce Int/Float; `=`
/// and `\=` are structural equality on any ground terms; ordering on
/// strings and atoms is lexicographic.
fn compare(op: CmpOp, a: &Term, b: &Term) -> Result<bool, EngineError> {
    use std::cmp::Ordering;
    if !a.is_ground() || !b.is_ground() {
        return Err(EngineError::BadComparison(format!("{a:?} {} {b:?}", op.symbol())));
    }
    if matches!(op, CmpOp::Eq) {
        return Ok(a == b || numeric_eq(a, b));
    }
    if matches!(op, CmpOp::Ne) {
        return Ok(a != b && !numeric_eq(a, b));
    }
    let ord: Ordering = match (a, b) {
        (Term::Int(x), Term::Int(y)) => x.cmp(y),
        (Term::Float(x), Term::Float(y)) => {
            x.partial_cmp(y).ok_or_else(|| EngineError::BadComparison("NaN".into()))?
        }
        (Term::Int(x), Term::Float(y)) => {
            (*x as f64).partial_cmp(y).ok_or_else(|| EngineError::BadComparison("NaN".into()))?
        }
        (Term::Float(x), Term::Int(y)) => {
            x.partial_cmp(&(*y as f64)).ok_or_else(|| EngineError::BadComparison("NaN".into()))?
        }
        (Term::Str(x), Term::Str(y)) => x.cmp(y),
        (Term::Atom(x), Term::Atom(y)) => x.as_str().cmp(y.as_str()),
        _ => return Err(EngineError::BadComparison(format!("{a:?} {} {b:?}", op.symbol()))),
    };
    Ok(match op {
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
        CmpOp::Eq | CmpOp::Ne => unreachable!("handled above"),
    })
}

fn numeric_eq(a: &Term, b: &Term) -> bool {
    match (a, b) {
        (Term::Int(x), Term::Float(y)) | (Term::Float(y), Term::Int(x)) => *x as f64 == *y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_goal, parse_program};

    fn machine(prog: &Program) -> Machine<'_> {
        Machine::new(prog, ObjectStore::new())
    }

    #[test]
    fn facts_and_rules() {
        let p = parse_program(
            "parent(tom, bob). parent(bob, ann). \
             grand(X, Z) :- parent(X, Y), parent(Y, Z).",
        )
        .expect("parses");
        let mut m = machine(&p);
        let sols = m.solve_str("grand(tom, Z)").expect("solves");
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0]["Z"], Term::atom("ann"));
    }

    #[test]
    fn recursion_with_multiple_answers() {
        let p = parse_program(
            "edge(a,b). edge(b,c). edge(c,d). \
             path(X,Y) :- edge(X,Y). \
             path(X,Z) :- edge(X,Y), path(Y,Z).",
        )
        .expect("parses");
        let mut m = machine(&p);
        let sols = m.solve_str("path(a, Z)").expect("solves");
        let mut zs: Vec<String> = sols.iter().map(|s| format!("{:?}", s["Z"])).collect();
        zs.sort();
        assert_eq!(zs.len(), 3);
    }

    #[test]
    fn choice_explores_both_branches() {
        let p = parse_program("a(1). b(2).").expect("parses");
        let mut m = machine(&p);
        let sols = m.solve_str("(a(X) ; b(X))").expect("solves");
        assert_eq!(sols.len(), 2);
    }

    #[test]
    fn serial_update_then_query() {
        let p = Program::new();
        let mut m = machine(&p);
        let sols = m.solve_str("ins(car1[price -> 500]), car1[price -> P]").expect("solves");
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0]["P"], Term::Int(500));
    }

    #[test]
    fn failed_branch_rolls_back_state() {
        let p = Program::new();
        let mut m = machine(&p);
        // First alternative inserts then fails; second must not see the insert.
        let sols = m.solve_str("( (ins(o[a -> 1]), fail) ; true ), o[a -> V]").expect("solves");
        assert!(sols.is_empty(), "insert from failed branch leaked");
    }

    #[test]
    fn committed_path_keeps_state() {
        let p = parse_program("t :- ins(o[a -> 1]).").expect("parses");
        let mut m = machine(&p);
        assert!(m.run(&parse_goal("t").expect("goal").0).expect("runs"));
        assert_eq!(m.store.get_scalar(&Term::atom("o"), Sym::new("a")), Some(&Term::Int(1)));
    }

    #[test]
    fn naf_isolation() {
        let p = Program::new();
        let mut m = machine(&p);
        // The NAF probe's insert must not survive, and not(fail) succeeds.
        let sols = m.solve_str("not((ins(o[a -> 1]), fail)), o[a -> V]").expect("solves");
        assert!(sols.is_empty());
    }

    #[test]
    fn naf_success_blocks() {
        let p = parse_program("q(1).").expect("parses");
        let mut m = machine(&p);
        assert!(m.solve_str("not(q(1))").expect("ok").is_empty());
        assert_eq!(m.solve_str("not(q(2))").expect("ok").len(), 1);
    }

    #[test]
    fn comparisons() {
        let p = Program::new();
        let mut m = machine(&p);
        assert_eq!(m.solve_str("1 < 2").expect("ok").len(), 1);
        assert!(m.solve_str("2 < 1").expect("ok").is_empty());
        assert_eq!(m.solve_str("1 =< 1").expect("ok").len(), 1);
        assert_eq!(m.solve_str("3 > 2.5").expect("ok").len(), 1);
        assert_eq!(m.solve_str("1 = 1.0").expect("ok").len(), 1);
        assert_eq!(m.solve_str("a \\= b").expect("ok").len(), 1);
    }

    #[test]
    fn unground_comparison_is_error() {
        let p = Program::new();
        let mut m = machine(&p);
        assert!(matches!(m.solve_str("X < 2"), Err(EngineError::BadComparison(_))));
    }

    #[test]
    fn unknown_predicate_is_error() {
        let p = Program::new();
        let mut m = machine(&p);
        assert!(matches!(m.solve_str("nosuch(1)"), Err(EngineError::UnknownPredicate(_, 1))));
    }

    #[test]
    fn infinite_recursion_exhausts_fuel_or_depth() {
        let p = parse_program("loop :- loop.").expect("parses");
        let mut m = machine(&p);
        m.set_fuel(10_000);
        let err = m.solve_str("loop").expect_err("diverges");
        assert!(matches!(err, EngineError::FuelExhausted | EngineError::DepthExceeded));
    }

    #[test]
    fn isa_and_set_attributes() {
        let p = Program::new();
        let mut m = machine(&p);
        let sols = m
            .solve_str(
                "ins(f1 : form), ins(pg[actions ->> f1]), ins(pg[actions ->> l1]), \
                 pg[actions ->> A], A : form",
            )
            .expect("solves");
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0]["A"], Term::atom("f1"));
    }

    #[test]
    fn subclass_membership_in_queries() {
        let p = Program::new();
        let mut m = machine(&p);
        // form is a subclass of action; f1 : form implies f1 : action.
        m.store.insert_subclass(Sym::new("form"), Sym::new("action"));
        let sols = m.solve_str("ins(f1 : form), X : action").expect("solves");
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn table_oracle_builtins() {
        use crate::oracle::TableOracle;
        let p = parse_program("q(X, Y) :- fetch(X, Y).").expect("parses");
        let mut oracle = TableOracle::new();
        oracle.define(
            "fetch",
            vec![vec![Term::atom("u1"), Term::Int(1)], vec![Term::atom("u2"), Term::Int(2)]],
        );
        let mut m = Machine::with_oracle(&p, ObjectStore::new(), oracle);
        let sols = m.solve_str("q(A, B)").expect("solves");
        assert_eq!(sols.len(), 2);
        assert_eq!(m.oracle.calls.len(), 1);
    }

    #[test]
    fn oracle_answers_filtered_by_bound_args() {
        use crate::oracle::TableOracle;
        let p = Program::new();
        let mut oracle = TableOracle::new();
        oracle.define(
            "fetch",
            vec![vec![Term::atom("u1"), Term::Int(1)], vec![Term::atom("u2"), Term::Int(2)]],
        );
        let mut m = Machine::with_oracle(&p, ObjectStore::new(), oracle);
        let sols = m.solve_str("fetch(u2, N)").expect("solves");
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0]["N"], Term::Int(2));
    }

    #[test]
    fn seq_threads_state_left_to_right() {
        let p = Program::new();
        let mut m = machine(&p);
        // The right conjunct must see the left's update (path semantics).
        let sols =
            m.solve_str("ins(s[v -> 1]), s[v -> X], ins(s[v -> 2]), s[v -> Y]").expect("solves");
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0]["X"], Term::Int(1));
        assert_eq!(sols[0]["Y"], Term::Int(2));
    }

    #[test]
    fn delete_goal() {
        let p = Program::new();
        let mut m = machine(&p);
        let sols =
            m.solve_str("ins(o[xs ->> 1]), del(o[xs ->> 1]), not(o[xs ->> 1])").expect("solves");
        assert_eq!(sols.len(), 1);
    }

    /// An oracle implementing `dec(N, N-1)` for recursion tests.
    struct Dec;
    impl Oracle for Dec {
        fn call(
            &mut self,
            pred: Sym,
            args: &[Term],
            _store: &mut ObjectStore,
            _b: &Bindings,
        ) -> OracleOutcome {
            if pred == Sym::new("dec") {
                if let Term::Int(n) = args[0] {
                    return OracleOutcome::Solutions(vec![vec![Term::Int(n), Term::Int(n - 1)]]);
                }
                return OracleOutcome::Fail;
            }
            OracleOutcome::NotMine
        }
    }

    #[test]
    fn deep_but_bounded_recursion_ok() {
        // ~100 nested calls — the depth of a long "More"-button iteration —
        // must succeed within the default limits.
        let p = parse_program("count(0). count(N) :- N > 0, dec(N, M), count(M).").expect("parses");
        let mut m = Machine::with_oracle(&p, ObjectStore::new(), Dec);
        let sols = m.solve_str("count(100)").expect("solves");
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn over_deep_recursion_reports_depth_error() {
        let p = parse_program("count(0). count(N) :- N > 0, dec(N, M), count(M).").expect("parses");
        let mut m = Machine::with_oracle(&p, ObjectStore::new(), Dec);
        assert_eq!(m.solve_str("count(100000)"), Err(EngineError::DepthExceeded));
    }
}

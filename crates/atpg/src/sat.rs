//! A small CNF SAT solver (iterative DPLL with unit propagation).
//!
//! Built for the [SAT-based ATPG](crate::sat_atpg) engine: test-generation
//! instances are shallow and heavily unit-propagation-driven, so a lean
//! DPLL with two-watched-literal-style propagation (simplified to full
//! clause scans over occurrence lists) solves them quickly without pulling
//! in an external solver dependency.

/// A propositional variable, densely numbered from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

/// A literal: a variable or its negation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lit {
    code: u32,
}

impl Lit {
    /// Positive literal of `v`.
    #[inline]
    pub fn pos(v: Var) -> Lit {
        Lit { code: v.0 << 1 }
    }

    /// Negative literal of `v`.
    #[inline]
    pub fn neg(v: Var) -> Lit {
        Lit {
            code: (v.0 << 1) | 1,
        }
    }

    /// Literal of `v` with the given polarity.
    #[inline]
    pub fn with_sign(v: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The literal's variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.code >> 1)
    }

    /// Whether the literal is positive.
    #[inline]
    pub fn is_pos(self) -> bool {
        self.code & 1 == 0
    }

    /// The complementary literal.
    #[inline]
    pub fn negate(self) -> Lit {
        Lit {
            code: self.code ^ 1,
        }
    }
}

/// Satisfiability verdict of [`Solver::solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found (read it via [`Solver::value`]).
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// The decision budget ran out first.
    Unknown,
}

/// A DPLL SAT solver over clauses added with [`Solver::add_clause`].
#[derive(Debug, Default)]
pub struct Solver {
    clauses: Vec<Vec<Lit>>,
    /// Clause indices containing each literal code.
    occurs: Vec<Vec<u32>>,
    assign: Vec<Option<bool>>,
    trail: Vec<Var>,
    trail_lim: Vec<usize>,
    empty_clause: bool,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver::default()
    }

    /// Allocates and returns a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(None);
        self.occurs.push(Vec::new());
        self.occurs.push(Vec::new());
        v
    }

    /// Adds a clause (a disjunction of literals). An empty clause makes the
    /// formula trivially unsatisfiable.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let mut clause: Vec<Lit> = lits.into_iter().collect();
        clause.sort_by_key(|l| l.code);
        clause.dedup();
        // A clause with both polarities of a variable is a tautology.
        if clause.windows(2).any(|w| w[0].code ^ 1 == w[1].code) {
            return;
        }
        if clause.is_empty() {
            self.empty_clause = true;
            return;
        }
        let idx = self.clauses.len() as u32;
        for &l in &clause {
            self.occurs[l.code as usize].push(idx);
        }
        self.clauses.push(clause);
    }

    /// The value of `v` in the current (satisfying) assignment.
    pub fn value(&self, v: Var) -> Option<bool> {
        self.assign[v.0 as usize]
    }

    fn lit_value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var().0 as usize].map(|b| b == l.is_pos())
    }

    fn enqueue(&mut self, l: Lit) -> bool {
        match self.lit_value(l) {
            Some(true) => true,
            Some(false) => false,
            None => {
                self.assign[l.var().0 as usize] = Some(l.is_pos());
                self.trail.push(l.var());
                true
            }
        }
    }

    fn decide(&mut self, l: Lit) {
        self.trail_lim.push(self.trail.len());
        let ok = self.enqueue(l);
        debug_assert!(ok, "decision on assigned variable");
    }

    fn backtrack(&mut self) -> Option<Lit> {
        let lim = self.trail_lim.pop()?;
        let decision = self.trail[lim];
        let was = self.assign[decision.0 as usize].expect("decision assigned");
        while self.trail.len() > lim {
            let v = self.trail.pop().expect("trail non-empty");
            self.assign[v.0 as usize] = None;
        }
        Some(Lit::with_sign(decision, !was))
    }

    /// Solves the formula; `max_decisions` bounds the search.
    pub fn solve(&mut self, max_decisions: usize) -> SatResult {
        if self.empty_clause {
            return SatResult::Unsat;
        }
        // Top-level propagation of unit clauses.
        for ci in 0..self.clauses.len() {
            if self.clauses[ci].len() == 1 {
                let l = self.clauses[ci][0];
                if !self.enqueue(l) {
                    return SatResult::Unsat;
                }
            }
        }
        if !self.propagate_from(0) {
            return SatResult::Unsat;
        }
        let mut decisions = 0usize;
        loop {
            // Pick the first unassigned variable.
            let next = (0..self.assign.len()).find(|&i| self.assign[i].is_none());
            let Some(i) = next else {
                return SatResult::Sat;
            };
            if decisions >= max_decisions {
                return SatResult::Unknown;
            }
            decisions += 1;
            let mut lit = Lit::neg(Var(i as u32));
            loop {
                self.decide(lit);
                let from = *self.trail_lim.last().expect("just pushed");
                if self.propagate_from(from) {
                    break;
                }
                // Conflict: flip the most recent decision not yet flipped.
                // We track flips by re-deciding the complement; since this
                // simple solver has no learned clauses, we encode "already
                // flipped" by whether backtrack returns the complement of
                // a first-phase (negative) decision.
                let mut flipped = None;
                while let Some(retry) = self.backtrack() {
                    if retry.is_pos() {
                        flipped = Some(retry);
                        break;
                    }
                }
                match flipped {
                    Some(l) => lit = l,
                    None => return SatResult::Unsat,
                }
            }
        }
    }

    fn propagate_from(&mut self, mut from: usize) -> bool {
        // Like `propagate`, but starting at an explicit trail index.
        while from < self.trail.len() {
            let v = self.trail[from];
            from += 1;
            let assigned_true = self.assign[v.0 as usize].expect("on trail");
            let falsified = Lit::with_sign(v, !assigned_true);
            let watch = self.occurs[falsified.code as usize].clone();
            for ci in watch {
                let clause = &self.clauses[ci as usize];
                let mut unassigned: Option<Lit> = None;
                let mut satisfied = false;
                let mut unassigned_count = 0;
                for &l in clause {
                    match self.lit_value(l) {
                        Some(true) => {
                            satisfied = true;
                            break;
                        }
                        Some(false) => {}
                        None => {
                            unassigned_count += 1;
                            if unassigned.is_none() {
                                unassigned = Some(l);
                            }
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match (unassigned_count, unassigned) {
                    (0, _) => return false,
                    (1, Some(l)) if !self.enqueue(l) => {
                        return false;
                    }
                    _ => {}
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: &Var, sign: bool) -> Lit {
        Lit::with_sign(*v, sign)
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([Lit::pos(a)]);
        assert_eq!(s.solve(1000), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));

        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([Lit::pos(a)]);
        s.add_clause([Lit::neg(a)]);
        assert_eq!(s.solve(1000), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = s.new_var();
        s.add_clause(std::iter::empty());
        assert_eq!(s.solve(1000), SatResult::Unsat);
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([Lit::pos(a), Lit::neg(a)]);
        assert_eq!(s.solve(1000), SatResult::Sat);
    }

    #[test]
    fn xor_chain_has_model() {
        // (a xor b) and (b xor c) encoded in CNF; must be satisfiable.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        for (x, y) in [(&a, &b), (&b, &c)] {
            s.add_clause([lit(x, true), lit(y, true)]);
            s.add_clause([lit(x, false), lit(y, false)]);
        }
        assert_eq!(s.solve(1000), SatResult::Sat);
        assert_ne!(s.value(a), s.value(b));
        assert_ne!(s.value(b), s.value(c));
    }

    #[test]
    fn pigeonhole_two_in_one_is_unsat() {
        // Two pigeons, one hole: p1h1, p2h1, not both.
        let mut s = Solver::new();
        let p1 = s.new_var();
        let p2 = s.new_var();
        s.add_clause([Lit::pos(p1)]);
        s.add_clause([Lit::pos(p2)]);
        s.add_clause([Lit::neg(p1), Lit::neg(p2)]);
        assert_eq!(s.solve(1000), SatResult::Unsat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole_3_into_2_is_unsat() {
        // PHP(3,2): each pigeon in some hole, no two share a hole.
        let mut s = Solver::new();
        let mut x = [[Var(0); 2]; 3];
        for p in 0..3 {
            for h in 0..2 {
                x[p][h] = s.new_var();
            }
        }
        for p in 0..3 {
            s.add_clause([Lit::pos(x[p][0]), Lit::pos(x[p][1])]);
        }
        for h in 0..2 {
            for p1 in 0..3 {
                for p2 in (p1 + 1)..3 {
                    s.add_clause([Lit::neg(x[p1][h]), Lit::neg(x[p2][h])]);
                }
            }
        }
        assert_eq!(s.solve(100_000), SatResult::Unsat);
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        // A satisfiable formula too wide for zero decisions (after unit
        // propagation nothing is forced).
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([Lit::pos(a), Lit::pos(b)]);
        assert_eq!(s.solve(0), SatResult::Unknown);
    }

    #[test]
    fn random_3sat_instances_agree_with_bruteforce() {
        let mut seed = 0xdead_beefu64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..30 {
            let n = 6;
            let m = 16;
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..m {
                let mut cl = Vec::new();
                for _ in 0..3 {
                    cl.push(((rnd() % n as u64) as usize, rnd() & 1 == 1));
                }
                clauses.push(cl);
            }
            // Brute force.
            let mut brute_sat = false;
            'outer: for model in 0..(1u32 << n) {
                for cl in &clauses {
                    let ok = cl.iter().any(|&(v, pos)| ((model >> v) & 1 == 1) == pos);
                    if !ok {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // Solver.
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
            for cl in &clauses {
                s.add_clause(cl.iter().map(|&(v, pos)| Lit::with_sign(vars[v], pos)));
            }
            let got = s.solve(1_000_000);
            assert_eq!(
                got,
                if brute_sat {
                    SatResult::Sat
                } else {
                    SatResult::Unsat
                },
                "solver disagrees with brute force on {clauses:?}"
            );
            if got == SatResult::Sat {
                for cl in &clauses {
                    let ok = cl.iter().any(|&(v, pos)| s.value(vars[v]) == Some(pos));
                    assert!(ok, "model does not satisfy {cl:?}");
                }
            }
        }
    }
}

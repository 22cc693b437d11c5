//! Bounded-variable two-phase primal simplex for LP relaxations.
//!
//! The implementation is a revised simplex with an explicit basis inverse:
//!
//! * all variables carry lower/upper bounds (structurals `[lb, ub] ⊆ [0,1]`,
//!   slacks one-sided by constraint sense),
//! * phase 1 drives artificial variables to zero (rows whose initial slack
//!   value fits its bounds get the slack as the starting basic variable and
//!   need no artificial),
//! * pricing is Dantzig's rule with an automatic switch to Bland's rule
//!   under sustained degeneracy (anti-cycling),
//! * the ratio test performs bound flips without basis changes when the
//!   entering variable hits its opposite bound first, and prefers larger
//!   pivot elements among ties for numerical stability,
//! * basic values are recomputed from the basis inverse periodically to
//!   bound drift.
//!
//! The inverse keeps its values in a dense `m × m` store (8·m² bytes,
//! allocated zeroed) beside an index of its nonzeros that each update
//! extends.
//! ftran, btran, the update and the basic-value refresh visit indexed
//! entries only, so an iteration costs what the nonzeros it touches cost
//! — the update `|w| × |pivot row|`, ftran the entering column's columns
//! of `B⁻¹` — instead of `O(m²)`. A row whose pattern covers more than a
//! quarter of its entries is swept in full instead, as the dense kernels
//! sweep every row: streaming memory beats hopping through a long list, so
//! an iteration of a long solve, whose inverse fills in, costs about what
//! the dense kernels cost. Skipped terms are products with an exact zero, so
//! every value, and therefore every pivot, is the one the full-length
//! dense sweeps compute (see [`BasisInverse`]). The rare refactorization
//! is a dense `O(m³)` Gauss–Jordan elimination; the branch-and-bound
//! driver declines models above [`crate::SolverConfig::max_rows`] (as
//! CPLEX's memory limits effectively did in the paper's experiments, where
//! a few functions went unsolved).

use crate::health::{Deadline, SolverHealth};
use crate::model::{Model, Sense};

/// Feasibility/optimality tolerance.
const TOL: f64 = 1e-7;
/// Smallest acceptable pivot magnitude.
const PIVOT_TOL: f64 = 1e-8;
/// Degenerate-step streak length that triggers Bland's rule.
const BLAND_TRIGGER: u32 = 64;
/// Basic-value refresh period (iterations).
const REFRESH_PERIOD: u64 = 128;
/// Degenerate-step streak length at which the solve is declared to be
/// cycling and abandoned (floating-point noise can defeat even Bland's
/// rule; surfacing the failure beats livelocking inside the allocator).
const CYCLE_ABORT: u32 = 50_000;

/// Result of an LP relaxation solve.
///
/// Every variant carries the simplex iterations spent (both phases), so
/// callers can attribute work even when the relaxation is abandoned —
/// previously iterations on infeasible or aborted nodes simply vanished
/// from the accounting.
#[derive(Clone, Debug, PartialEq)]
pub enum LpOutcome {
    /// An optimal basic solution was found.
    Optimal {
        /// Structural variable values.
        x: Vec<f64>,
        /// Objective value.
        obj: f64,
        /// Simplex iterations used (both phases).
        iters: u64,
    },
    /// The LP is infeasible (phase 1 could not reach zero infeasibility).
    Infeasible { iters: u64 },
    /// The iteration limit was exceeded or the deadline passed.
    Limit { iters: u64 },
    /// Numerical trouble: NaN/Inf contamination, an unusable pivot, or
    /// suspected cycling. The relaxation's result is unusable, but the
    /// caller can prune the node and continue.
    Numerical { iters: u64 },
}

impl LpOutcome {
    /// Simplex iterations spent producing this outcome.
    pub fn iters(&self) -> u64 {
        match self {
            LpOutcome::Optimal { iters, .. }
            | LpOutcome::Infeasible { iters }
            | LpOutcome::Limit { iters }
            | LpOutcome::Numerical { iters } => *iters,
        }
    }
}

/// Why [`Tableau::optimize`] stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StopReason {
    Optimal,
    Limit,
    Numerical,
}

/// Dual multipliers extracted from a solved relaxation, the raw material
/// of a solver certificate (see [`crate::cert`]).
///
/// `y` has one entry per model row and is clamped into the row's dual
/// cone (`≤ 0` for `Le` rows, `≥ 0` for `Ge`, free for `Eq`) — clamping
/// a float-noise sign violation to zero weakens the bound slightly but
/// keeps it *valid*, which is what the exact checker verifies. An empty
/// `y` means no duals were available for the outcome.
#[derive(Clone, Debug, Default)]
pub struct DualInfo {
    /// One multiplier per model row (empty when unavailable).
    pub y: Vec<f64>,
    /// True when `y` is a phase-1 infeasibility (Farkas) certificate
    /// rather than an optimality bound.
    pub farkas: bool,
}

/// Multipliers below this magnitude are numerical dust from the basis
/// inverse, not genuine dual activity: model coefficients are unit-scale,
/// so a 1e-12 multiplier moves any Lagrangian or Farkas combination by
/// far less than the integrality slack the bound checks tolerate. Zeroing
/// them keeps every emitted multiplier exactly representable as a small
/// dyadic rational, which the certificate auditor requires (values near
/// 1e-23 need denominators beyond i128 and would sink an honest proof).
const DUAL_DUST: f64 = 1e-12;

/// Clamp `y` into the dual cone, drop numerical dust, and reject
/// non-finite contamination. Any sign-respecting multiplier vector is a
/// valid dual witness, so both adjustments preserve certificate
/// soundness — they can only weaken the bound by a negligible amount.
fn clamp_duals(model: &Model, y: &mut Vec<f64>) {
    if y.iter().any(|v| !v.is_finite()) {
        y.clear();
        return;
    }
    for (yi, row) in y.iter_mut().zip(model.rows()) {
        if yi.abs() < DUAL_DUST {
            *yi = 0.0;
            continue;
        }
        match row.sense {
            Sense::Le => *yi = yi.min(0.0),
            Sense::Ge => *yi = yi.max(0.0),
            Sense::Eq => {}
        }
    }
}

/// A row pattern longer than `m / DENSE_SHARE` entries is swept in full:
/// the sweep streams contiguous memory, the list jumps around it.
const DENSE_SHARE: usize = 4;

/// Which implementation of the basis-inverse kernels a tableau runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernels {
    /// Driven by the inverse's nonzero index.
    Sparse,
    /// The full-length dense sweeps the sparse kernels reproduce, kept as
    /// the oracle of the bit-identity test.
    #[cfg(test)]
    Dense,
}

/// The explicit basis inverse `B⁻¹` with an index of its nonzeros.
///
/// Values live in a dense row-major `m × m` store, so reading any entry is
/// O(1); the store is allocated zeroed, so a large one commits only the
/// pages the kernels write. Beside it, the update maintains the set of
/// *listed* entries: every nonzero entry is listed, and a listed entry may
/// since have become exactly zero. Each kernel performs the dense kernel's
/// arithmetic on listed entries only, summing in the dense loops' order.
/// The terms it skips are products with an exact zero, which leave any
/// nonzero partial sum unchanged, so while the values stay finite every
/// result equals the dense kernel's bit for bit, up to the sign of an
/// exact zero — which no decision reads: pricing, the ratio test and
/// rounding compare against tolerances, and [`clamp_duals`] maps dust to
/// `+0.0`.
struct BasisInverse {
    m: usize,
    /// Row-major values; every unlisted entry is exactly zero.
    val: Vec<f64>,
    /// `col_nz[k]`: the rows `i` of the listed entries `(i, k)`.
    col_nz: Vec<Vec<u32>>,
    /// `row_nz[i]`: the columns `k` of the listed entries `(i, k)`.
    row_nz: Vec<Vec<u32>>,
    /// Bit `i·m + k` is set when `(i, k)` is listed.
    listed: Vec<u64>,
    /// `full[i]`: every entry of row `i` is listed, as it is once a dense
    /// pivot row has reached it.
    full: Vec<bool>,
}

impl BasisInverse {
    /// The all-zero inverse; [`BasisInverse::set_diagonal`] fills in the
    /// starting basis.
    fn new(m: usize) -> BasisInverse {
        BasisInverse {
            m,
            val: vec![0.0; m * m],
            col_nz: vec![Vec::new(); m],
            row_nz: vec![Vec::new(); m],
            listed: vec![0; (m * m).div_ceil(64)],
            full: vec![false; m],
        }
    }

    fn set_diagonal(&mut self, i: usize, v: f64) {
        self.val[i * self.m + i] = v;
        self.list(i, i);
    }

    /// Add `(i, k)` to the index unless it is listed already.
    fn list(&mut self, i: usize, k: usize) {
        let bit = i * self.m + k;
        let word = &mut self.listed[bit / 64];
        let mask = 1u64 << (bit % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.row_nz[i].push(k as u32);
            self.col_nz[k].push(i as u32);
        }
    }

    /// List every entry of row `i`.
    fn fill_row(&mut self, i: usize) {
        if !self.full[i] {
            for k in 0..self.m {
                self.list(i, k);
            }
            self.full[i] = true;
        }
    }

    /// `w = B⁻¹ a` for a sparse column `a`; each `w_i` sums over `a`'s
    /// entries in order.
    fn ftran(&self, a: &[(usize, f64)], w: &mut [f64]) {
        w.fill(0.0);
        for &(k, c) in a {
            for &i in &self.col_nz[k] {
                let i = i as usize;
                w[i] += self.val[i * self.m + k] * c;
            }
        }
    }

    /// True when a row pattern of `len` entries is cheaper to sweep in
    /// full than through its list.
    fn dense(&self, len: usize) -> bool {
        len * DENSE_SHARE > self.m
    }

    /// `y = cᵦᵀ B⁻¹`, where `cb` yields the basic costs row by row; each
    /// `y_k` sums over ascending basis rows.
    fn btran(&self, cb: impl Iterator<Item = f64>, y: &mut [f64]) {
        y.fill(0.0);
        for (i, c) in cb.enumerate() {
            if c != 0.0 {
                let row = &self.val[i * self.m..(i + 1) * self.m];
                if self.dense(self.row_nz[i].len()) {
                    for (yk, bv) in y.iter_mut().zip(row) {
                        *yk += c * bv;
                    }
                } else {
                    for &k in &self.row_nz[i] {
                        y[k as usize] += c * row[k as usize];
                    }
                }
            }
        }
    }

    /// `out = B⁻¹ r`; each `out_i` sums over ascending columns.
    fn apply(&self, r: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for (k, &rk) in r.iter().enumerate() {
            if rk != 0.0 {
                for &i in &self.col_nz[k] {
                    let i = i as usize;
                    out[i] += self.val[i * self.m + k] * rk;
                }
            }
        }
    }

    /// Pivot on basis row `r`, where `w = B⁻¹ a_j` is the entering
    /// column: row `r` is divided by `w_r` and eliminated from every other
    /// row `i` with `|w_i| > 1e-12`, over row `r`'s nonzero columns — or
    /// over the whole row when those are too many to visit one by one.
    fn pivot(&mut self, r: usize, w: &[f64]) {
        let m = self.m;
        let wr = w[r];
        let row_r = r * m..(r + 1) * m;
        if self.dense(self.row_nz[r].len()) {
            for v in &mut self.val[row_r.clone()] {
                *v /= wr;
            }
        } else {
            for &k in &self.row_nz[r] {
                self.val[r * m + k as usize] /= wr;
            }
        }
        // Row r's nonzeros; its listed zeros would only subtract zero
        // products from the other rows.
        let pivot_row: Vec<(usize, f64)> = self.row_nz[r]
            .iter()
            .map(|&k| (k as usize, self.val[r * m + k as usize]))
            .filter(|&(_, p)| p != 0.0)
            .collect();
        if self.dense(pivot_row.len()) {
            let pivot_row = self.val[row_r].to_vec();
            for (i, &f) in w.iter().enumerate() {
                if i != r && f.abs() > 1e-12 {
                    // Row i gains this many entries anyway: list all of
                    // them once instead of checking each new one.
                    self.fill_row(i);
                    for (v, p) in self.val[i * m..(i + 1) * m].iter_mut().zip(&pivot_row) {
                        *v -= f * p;
                    }
                }
            }
        } else {
            for (i, &f) in w.iter().enumerate() {
                if i != r && f.abs() > 1e-12 {
                    for &(k, p) in &pivot_row {
                        let v = &mut self.val[i * m + k];
                        let was_zero = *v == 0.0;
                        *v -= f * p;
                        // A nonzero entry is listed already.
                        if was_zero {
                            self.list(i, k);
                        }
                    }
                }
            }
        }
    }

    /// Replace the values by a freshly factorized inverse and re-index
    /// its nonzeros.
    fn reset(&mut self, val: Vec<f64>) {
        self.val = val;
        self.listed.fill(0);
        self.full.fill(false);
        for l in self.row_nz.iter_mut().chain(&mut self.col_nz) {
            l.clear();
        }
        for i in 0..self.m {
            for k in 0..self.m {
                if self.val[i * self.m + k] != 0.0 {
                    self.list(i, k);
                }
            }
        }
    }
}

/// The dense kernels the sparse ones replace: full-length sweeps of
/// `B⁻¹` in the same summation order.
#[cfg(test)]
impl BasisInverse {
    fn ftran_dense(&self, a: &[(usize, f64)], w: &mut [f64]) {
        w.fill(0.0);
        for &(ri, c) in a {
            for (i, wi) in w.iter_mut().enumerate() {
                *wi += self.val[i * self.m + ri] * c;
            }
        }
    }

    fn btran_dense(&self, cb: impl Iterator<Item = f64>, y: &mut [f64]) {
        y.fill(0.0);
        for (i, c) in cb.enumerate() {
            if c != 0.0 {
                let row = &self.val[i * self.m..(i + 1) * self.m];
                for (yk, bv) in y.iter_mut().zip(row) {
                    *yk += c * bv;
                }
            }
        }
    }

    fn apply_dense(&self, r: &[f64], out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.val[i * self.m..(i + 1) * self.m];
            *o = row.iter().zip(r).map(|(bv, rv)| bv * rv).sum();
        }
    }

    fn pivot_dense(&mut self, r: usize, w: &[f64]) {
        let (mm, binv) = (self.m, &mut self.val);
        let wr = w[r];
        for kk in 0..mm {
            binv[r * mm + kk] /= wr;
        }
        for (i, &f) in w.iter().enumerate() {
            if i != r && f.abs() > 1e-12 {
                for kk in 0..mm {
                    binv[i * mm + kk] -= f * binv[r * mm + kk];
                }
            }
        }
    }
}

struct Tableau<'a> {
    model: &'a Model,
    /// Sparse columns, indexed by variable: (row, coefficient).
    cols: Vec<Vec<(usize, f64)>>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    x: Vec<f64>,
    at_upper: Vec<bool>,
    in_basis: Vec<bool>,
    /// basis[row] = variable index basic in that row.
    basis: Vec<usize>,
    binv: BasisInverse,
    kernels: Kernels,
    b: Vec<f64>,
    m: usize,
    n_struct: usize,
    n_art_start: usize,
    /// art_of_row[row] = the artificial variable of that row, if any.
    art_of_row: Vec<Option<usize>>,
    iters: u64,
    last_refactor: u64,
}

impl<'a> Tableau<'a> {
    fn new(model: &'a Model, lb: &[f64], ub: &[f64], kernels: Kernels) -> Tableau<'a> {
        let n = model.num_vars();
        let m = model.num_rows();
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n + m];
        let mut b = Vec::with_capacity(m);
        let mut lo: Vec<f64> = lb.to_vec();
        let mut hi: Vec<f64> = ub.to_vec();
        for (ri, row) in model.rows().iter().enumerate() {
            for (v, c) in &row.coeffs {
                cols[v.index()].push((ri, *c));
            }
            b.push(row.rhs);
            // Slack column: a·x + s = rhs.
            cols[n + ri].push((ri, 1.0));
            let (slo, shi) = match row.sense {
                Sense::Le => (0.0, f64::INFINITY),
                Sense::Ge => (f64::NEG_INFINITY, 0.0),
                Sense::Eq => (0.0, 0.0),
            };
            lo.push(slo);
            hi.push(shi);
        }

        let mut x = vec![0.0; n + m];
        x[..n].copy_from_slice(&lo[..n]);
        let mut at_upper = vec![false; n + m];
        let mut in_basis = vec![false; n + m];
        let mut basis = vec![usize::MAX; m];
        let mut binv = BasisInverse::new(m);

        // Choose the starting basis row by row: the slack if its bounds
        // admit the residual, otherwise an artificial.
        let mut art_cols: Vec<(usize, f64)> = Vec::new(); // (row, sign)
        for ri in 0..m {
            let mut resid = b[ri];
            for (v, c) in &model.rows()[ri].coeffs {
                resid -= c * x[v.index()];
            }
            let s = n + ri;
            if resid >= lo[s] - TOL && resid <= hi[s] + TOL {
                x[s] = resid.clamp(lo[s], hi[s]);
                basis[ri] = s;
                in_basis[s] = true;
                binv.set_diagonal(ri, 1.0);
            } else {
                // Slack nonbasic at the bound nearest the residual.
                let sb = resid.clamp(lo[s], hi[s]);
                let sb = if sb.is_finite() { sb } else { 0.0 };
                x[s] = sb;
                at_upper[s] = sb == hi[s] && lo[s] != hi[s];
                let rho = resid - sb;
                art_cols.push((ri, rho.signum()));
            }
        }
        let n_art_start = n + m;
        let mut t = Tableau {
            model,
            cols,
            lo,
            hi,
            x,
            at_upper,
            in_basis,
            basis,
            binv,
            kernels,
            b,
            m,
            n_struct: n,
            n_art_start,
            art_of_row: vec![None; m],
            iters: 0,
            last_refactor: 0,
        };
        for (ri, sign) in art_cols {
            let ai = t.cols.len();
            t.cols.push(vec![(ri, sign)]);
            t.lo.push(0.0);
            t.hi.push(f64::INFINITY);
            // z = rho / sign = |rho|
            let mut resid = t.b[ri];
            for (v, c) in &t.model.rows()[ri].coeffs {
                resid -= c * t.x[v.index()];
            }
            resid -= t.x[t.n_struct + ri];
            t.x.push(resid / sign);
            t.at_upper.push(false);
            t.in_basis.push(true);
            t.basis[ri] = ai;
            t.art_of_row[ri] = Some(ai);
            t.binv.set_diagonal(ri, 1.0 / sign);
        }
        t
    }

    fn num_vars(&self) -> usize {
        self.cols.len()
    }

    /// w = B⁻¹ · column(j)
    fn ftran(&self, j: usize, w: &mut [f64]) {
        match self.kernels {
            Kernels::Sparse => self.binv.ftran(&self.cols[j], w),
            #[cfg(test)]
            Kernels::Dense => self.binv.ftran_dense(&self.cols[j], w),
        }
    }

    /// y = cᵦᵀ · B⁻¹
    fn btran(&self, costs: &[f64], y: &mut [f64]) {
        let cb = self.basis.iter().map(|&bi| costs[bi]);
        match self.kernels {
            Kernels::Sparse => self.binv.btran(cb, y),
            #[cfg(test)]
            Kernels::Dense => self.binv.btran_dense(cb, y),
        }
    }

    fn reduced_cost(&self, costs: &[f64], y: &[f64], j: usize) -> f64 {
        let mut d = costs[j];
        for &(ri, c) in &self.cols[j] {
            d -= y[ri] * c;
        }
        d
    }

    /// Recompute basic values from scratch: x_B = B⁻¹ (b − N x_N).
    fn recompute_basics(&mut self) {
        let mut rhs = self.b.clone();
        for j in 0..self.num_vars() {
            if !self.in_basis[j] && self.x[j] != 0.0 {
                for &(ri, c) in &self.cols[j] {
                    rhs[ri] -= c * self.x[j];
                }
            }
        }
        let mut xb = vec![0.0; self.m];
        match self.kernels {
            Kernels::Sparse => self.binv.apply(&rhs, &mut xb),
            #[cfg(test)]
            Kernels::Dense => self.binv.apply_dense(&rhs, &mut xb),
        }
        for (&k, v) in self.basis.iter().zip(xb) {
            self.x[k] = v;
        }
    }

    /// [`Tableau::recompute_basics`], then a drift probe: the
    /// product-form updates of B⁻¹ accumulate error; when the recomputed
    /// point no longer satisfies A x = b to a scaled tolerance, rebuild
    /// B⁻¹ from the basis and recompute once more.
    fn refresh_basics(&mut self) {
        self.recompute_basics();
        let mut resid: f64 = 0.0;
        for (ri, row) in self.model.rows().iter().enumerate() {
            let mut v = self.x[self.n_struct + ri]; // slack
            for (var, c) in &row.coeffs {
                v += c * self.x[var.index()];
            }
            if let Some(a) = self.art_of_row[ri] {
                // Artificial columns are singletons on their own row.
                v += self.cols[a][0].1 * self.x[a];
            }
            resid = resid.max((v - self.b[ri]).abs());
        }
        if resid > 1e-5 && self.iters >= self.last_refactor + 512 {
            self.last_refactor = self.iters;
            self.refactorize();
            self.recompute_basics();
        }
    }

    /// Rebuild B⁻¹ from the current basis by Gauss–Jordan elimination
    /// with partial pivoting.
    fn refactorize(&mut self) {
        let m = self.m;
        let mut a = vec![0.0_f64; m * m]; // basis matrix, column i = basis[i]'s column
        for (i, &bi) in self.basis.iter().enumerate() {
            for &(ri, c) in &self.cols[bi] {
                a[ri * m + i] = c;
            }
        }
        let mut inv = vec![0.0_f64; m * m];
        for i in 0..m {
            inv[i * m + i] = 1.0;
        }
        for col in 0..m {
            // Partial pivot.
            let mut piv = col;
            let mut best = a[col * m + col].abs();
            for r in col + 1..m {
                let v = a[r * m + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < 1e-12 {
                return; // singular: keep the old inverse
            }
            if piv != col {
                for k in 0..m {
                    a.swap(col * m + k, piv * m + k);
                    inv.swap(col * m + k, piv * m + k);
                }
            }
            let d = a[col * m + col];
            for k in 0..m {
                a[col * m + k] /= d;
                inv[col * m + k] /= d;
            }
            for r in 0..m {
                if r != col {
                    let f = a[r * m + col];
                    if f != 0.0 {
                        for k in 0..m {
                            a[r * m + k] -= f * a[col * m + k];
                            inv[r * m + k] -= f * inv[col * m + k];
                        }
                    }
                }
            }
        }
        self.binv.reset(inv);
    }

    /// True when the solution point is NaN/Inf contaminated. A variable's
    /// *bounds* may be infinite but its value never legitimately is, so
    /// any non-finite entry means the basis inverse has gone bad.
    /// Checked on the refresh cadence so the cost stays amortised.
    fn state_contaminated(&self) -> bool {
        self.x.iter().any(|v| !v.is_finite())
    }

    /// Run the simplex loop with the given costs until optimal, limit,
    /// or numerical trouble; counters accumulate into `health`.
    fn optimize(
        &mut self,
        costs: &[f64],
        iter_limit: u64,
        deadline: Deadline,
        health: &mut SolverHealth,
    ) -> StopReason {
        let mut y = vec![0.0; self.m];
        let mut w = vec![0.0; self.m];
        let mut degen_streak: u32 = 0;
        // Dual-feasibility tolerance, scaled to the cost magnitudes:
        // reduced costs are differences of quantities of order max|c|, so
        // an absolute tolerance far below max|c|·1e-13 would make the
        // pricing loop chase floating-point phantoms forever.
        let dtol = costs.iter().fold(TOL, |a, &c| a.max(c.abs() * 1e-11));
        // Sticky anti-cycling: once Bland's rule engages it stays engaged
        // until the objective makes real progress — otherwise floating-
        // point noise produces one tiny positive step inside a degenerate
        // cycle, resets a naive streak counter, and the Dantzig rule
        // re-enters the same cycle (a livelock).
        let mut bland_mode = false;
        let mut progress_since_bland = 0.0_f64;
        loop {
            if self.iters >= iter_limit {
                return StopReason::Limit;
            }
            if self.iters.is_multiple_of(256) && deadline.expired() {
                return StopReason::Limit;
            }
            self.iters += 1;
            if self.iters.is_multiple_of(REFRESH_PERIOD) {
                self.refresh_basics();
                if self.state_contaminated() {
                    health.nan_events += 1;
                    return StopReason::Numerical;
                }
            }
            #[cfg(feature = "debug-lp")]
            if self.iters % 20_000 == 0 {
                let obj: f64 = (0..self.num_vars()).map(|j| costs[j] * self.x[j]).sum();
                eprintln!(
                    "iter {} obj {obj} bland={bland_mode} streak={degen_streak}",
                    self.iters
                );
            }

            // Pricing.
            if degen_streak >= BLAND_TRIGGER && !bland_mode {
                bland_mode = true;
                health.cycling_events += 1;
                progress_since_bland = 0.0;
            }
            if degen_streak >= CYCLE_ABORT {
                // Bland's rule has not escaped the degenerate plateau:
                // declare cycling rather than spin to the iteration limit.
                return StopReason::Numerical;
            }
            self.btran(costs, &mut y);
            let bland = bland_mode;
            let mut enter: Option<(usize, f64, f64)> = None; // (var, d, sigma)
            let mut best_score = 0.0_f64;
            let mut saw_nan = false;
            for j in 0..self.num_vars() {
                if self.in_basis[j] || self.lo[j] >= self.hi[j] - 1e-12 {
                    continue;
                }
                let dj = self.reduced_cost(costs, &y, j);
                if dj.is_nan() {
                    saw_nan = true;
                    break;
                }
                let sigma = if self.at_upper[j] { -1.0 } else { 1.0 };
                // Improving when moving off the bound reduces cost.
                if dj * sigma < -dtol {
                    if bland {
                        enter = Some((j, dj, sigma));
                        break;
                    }
                    let score = dj.abs();
                    if enter.is_none() || score > best_score {
                        best_score = score;
                        enter = Some((j, dj, sigma));
                    }
                }
            }
            if saw_nan {
                health.nan_events += 1;
                return StopReason::Numerical;
            }
            let (j, _dj, sigma) = match enter {
                Some(e) => e,
                None => return StopReason::Optimal,
            };

            self.ftran(j, &mut w);

            // Ratio test. x_B(t) = x_B − σ t w; entering moves σt from its
            // bound; it may also flip to its opposite bound. Ties are
            // broken toward larger pivot magnitudes for stability, except
            // under Bland's rule, where the smallest basic variable index
            // must win for the anti-cycling guarantee to hold.
            let mut t_best = self.hi[j] - self.lo[j]; // bound flip distance
            let mut leave: Option<(usize, bool)> = None; // (basis row, leaves_at_upper)
            for i in 0..self.m {
                let k = self.basis[i];
                let delta = -sigma * w[i]; // d x_k / d t
                let (t, at_upper) = if delta > PIVOT_TOL {
                    if !self.hi[k].is_finite() {
                        continue;
                    }
                    (((self.hi[k] - self.x[k]) / delta).max(0.0), true)
                } else if delta < -PIVOT_TOL {
                    if !self.lo[k].is_finite() {
                        continue;
                    }
                    (((self.x[k] - self.lo[k]) / (-delta)).max(0.0), false)
                } else {
                    continue;
                };
                let better = if t < t_best - TOL {
                    true
                } else if t < t_best + TOL {
                    match leave {
                        None => t < t_best, // strictly beat a bound flip
                        Some((li, _)) => {
                            // Two basic candidates within TOL of each other:
                            // a genuine ratio-test tie, whichever side wins.
                            health.ratio_test_ties += 1;
                            if bland {
                                self.basis[i] < self.basis[li]
                            } else {
                                w[i].abs() > w[li].abs()
                            }
                        }
                    }
                } else {
                    false
                };
                if better {
                    t_best = t.min(t_best);
                    leave = Some((i, at_upper));
                }
            }
            if !t_best.is_finite() {
                // Unbounded direction (or NaN from a contaminated ratio
                // test); cannot happen for well-formed 0-1 models but
                // guard against numerical surprises.
                health.nan_events += u64::from(t_best.is_nan());
                return StopReason::Numerical;
            }
            if t_best < 1e-9 {
                degen_streak += 1;
                health.degenerate_pivots += 1;
            } else {
                degen_streak = 0;
            }
            if bland_mode {
                // |d_j|·t is the objective improvement of this step; leave
                // Bland's rule only after progress that is tangible *at
                // the problem's cost scale* (an absolute epsilon would be
                // indistinguishable from round-off when costs are ~1e8).
                progress_since_bland += _dj.abs() * t_best;
                if progress_since_bland > dtol {
                    bland_mode = false;
                    degen_streak = 0;
                    // The guard episode ended with tangible progress:
                    // count the recovery so health consumers can tell a
                    // contained cycle from an unresolved one.
                    health.cycling_recoveries += 1;
                }
            }

            // Apply the step.
            if t_best > 0.0 {
                for (&k, &wi) in self.basis.iter().zip(w.iter()) {
                    self.x[k] -= sigma * t_best * wi;
                }
                self.x[j] += sigma * t_best;
            }
            match leave {
                None => {
                    // Bound flip: j moves to its opposite bound; no basis
                    // change.
                    self.at_upper[j] = !self.at_upper[j];
                    self.x[j] = if self.at_upper[j] {
                        self.hi[j]
                    } else {
                        self.lo[j]
                    };
                }
                Some((r, leaves_upper)) => {
                    let k = self.basis[r];
                    if w[r].abs() < PIVOT_TOL || !w[r].is_finite() {
                        health.unstable_pivots += 1;
                        return StopReason::Numerical;
                    }
                    health.pivots += 1;
                    self.x[k] = if leaves_upper { self.hi[k] } else { self.lo[k] };
                    self.at_upper[k] = leaves_upper;
                    self.in_basis[k] = false;
                    self.basis[r] = j;
                    self.in_basis[j] = true;
                    match self.kernels {
                        Kernels::Sparse => self.binv.pivot(r, &w),
                        #[cfg(test)]
                        Kernels::Dense => self.binv.pivot_dense(r, &w),
                    }
                }
            }
        }
    }
}

/// Solve the LP relaxation of `model` with per-variable bounds `lb`/`ub`
/// (both of length `model.num_vars()`, each within `[0, 1]`).
///
/// `iter_limit` bounds the total simplex iterations across both phases
/// and `deadline` cuts the solve off at a wall-clock instant (the same
/// token the branch-and-bound loop polls, so a caller budget bounds the
/// whole solve). Health counters accumulate into `health`; an abandoned
/// relaxation (limit, deadline or numerical trouble) also bumps
/// [`SolverHealth::lp_aborts`].
pub fn solve_lp(
    model: &Model,
    lb: &[f64],
    ub: &[f64],
    iter_limit: u64,
    deadline: Deadline,
    health: &mut SolverHealth,
) -> LpOutcome {
    solve_lp_with_duals(model, lb, ub, iter_limit, deadline, health, None)
}

/// [`solve_lp`], optionally extracting dual multipliers into `duals`.
///
/// On [`LpOutcome::Optimal`] the phase-2 duals `y = c_Bᵀ B⁻¹` are
/// written (a Lagrangian bound on the relaxation); on
/// [`LpOutcome::Infeasible`] the phase-1 duals are written with
/// `farkas = true` (an exact checker can verify they refute the box).
/// Other outcomes, and degenerate infeasibilities detected before the
/// tableau exists, leave `duals.y` empty. Extraction is pure
/// observation: the pivot sequence is identical with or without it.
pub fn solve_lp_with_duals(
    model: &Model,
    lb: &[f64],
    ub: &[f64],
    iter_limit: u64,
    deadline: Deadline,
    health: &mut SolverHealth,
    duals: Option<&mut DualInfo>,
) -> LpOutcome {
    solve_with(
        model,
        lb,
        ub,
        iter_limit,
        deadline,
        health,
        duals,
        Kernels::Sparse,
    )
}

#[allow(clippy::too_many_arguments)]
fn solve_with(
    model: &Model,
    lb: &[f64],
    ub: &[f64],
    iter_limit: u64,
    deadline: Deadline,
    health: &mut SolverHealth,
    mut duals: Option<&mut DualInfo>,
    kernels: Kernels,
) -> LpOutcome {
    debug_assert_eq!(lb.len(), model.num_vars());
    debug_assert_eq!(ub.len(), model.num_vars());
    if let Some(d) = duals.as_deref_mut() {
        d.y.clear();
        d.farkas = false;
    }
    // Trivial infeasibility: crossed bounds.
    if lb.iter().zip(ub).any(|(l, u)| l > u) {
        return LpOutcome::Infeasible { iters: 0 };
    }
    // NaN bounds poison every comparison downstream; report rather than
    // propagate.
    if lb.iter().chain(ub).any(|v| v.is_nan()) {
        health.nan_events += 1;
        health.lp_aborts += 1;
        return LpOutcome::Numerical { iters: 0 };
    }
    let mut t = Tableau::new(model, lb, ub, kernels);

    let abort = |reason: StopReason, iters: u64, health: &mut SolverHealth| {
        health.lp_aborts += 1;
        match reason {
            StopReason::Numerical => LpOutcome::Numerical { iters },
            _ => LpOutcome::Limit { iters },
        }
    };

    // Phase 1 (only if artificials exist).
    if t.num_vars() > t.n_art_start {
        let mut costs = vec![0.0; t.num_vars()];
        for c in costs.iter_mut().skip(t.n_art_start) {
            *c = 1.0;
        }
        match t.optimize(&costs, iter_limit, deadline, health) {
            StopReason::Optimal => {}
            r => return abort(r, t.iters, health),
        }
        let infeas: f64 = t.x[t.n_art_start..].iter().sum();
        if infeas.is_nan() {
            health.nan_events += 1;
            return abort(StopReason::Numerical, t.iters, health);
        }
        if infeas > 1e-6 {
            if let Some(d) = duals.as_deref_mut() {
                d.y = vec![0.0; t.m];
                t.btran(&costs, &mut d.y);
                clamp_duals(model, &mut d.y);
                d.farkas = true;
            }
            return LpOutcome::Infeasible { iters: t.iters };
        }
        // Pin artificials to zero for phase 2.
        for j in t.n_art_start..t.num_vars() {
            t.hi[j] = 0.0;
            if !t.in_basis[j] {
                t.x[j] = 0.0;
            }
        }
    }

    // Phase 2.
    let mut costs = vec![0.0; t.num_vars()];
    costs[..t.n_struct].copy_from_slice(model.costs());
    match t.optimize(&costs, iter_limit, deadline, health) {
        StopReason::Optimal => {}
        r => return abort(r, t.iters, health),
    }
    t.refresh_basics();

    let x: Vec<f64> = (0..t.n_struct)
        .map(|j| t.x[j].clamp(lb[j], ub[j]))
        .collect();
    let obj = x
        .iter()
        .zip(model.costs())
        .map(|(xj, cj)| xj * cj)
        .sum::<f64>();
    if !obj.is_finite() || x.iter().any(|v| !v.is_finite()) {
        health.nan_events += 1;
        return abort(StopReason::Numerical, t.iters, health);
    }
    if let Some(d) = duals {
        d.y = vec![0.0; t.m];
        t.btran(&costs, &mut d.y);
        clamp_duals(model, &mut d.y);
    }
    LpOutcome::Optimal {
        x,
        obj,
        iters: t.iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use proptest::prelude::*;
    use proptest::test_runner::TestRunner;

    fn bounds(n: usize) -> (Vec<f64>, Vec<f64>) {
        (vec![0.0; n], vec![1.0; n])
    }

    fn lp(model: &Model) -> LpOutcome {
        let (lb, ub) = bounds(model.num_vars());
        let mut health = SolverHealth::default();
        solve_lp(model, &lb, &ub, 100_000, Deadline::unlimited(), &mut health)
    }

    #[test]
    fn unconstrained_minimum_at_bounds() {
        let mut m = Model::new();
        m.add_var(-3.0, "a"); // wants 1
        m.add_var(2.0, "b"); // wants 0
        match lp(&m) {
            LpOutcome::Optimal { x, obj, .. } => {
                assert!((x[0] - 1.0).abs() < 1e-6);
                assert!(x[1].abs() < 1e-6);
                assert!((obj + 3.0).abs() < 1e-6);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn knapsack_relaxation_is_fractional() {
        // min -(2a + 3b) s.t. a + b <= 1.5: b = 1, a = 0.5, obj = -4.
        let mut m = Model::new();
        let a = m.add_var(-2.0, "a");
        let b = m.add_var(-3.0, "b");
        m.add_le(vec![(a, 1.0), (b, 1.0)], 1.5);
        match lp(&m) {
            LpOutcome::Optimal { x, obj, .. } => {
                assert!((obj + 4.0).abs() < 1e-6, "obj {obj}");
                assert!((x[0] - 0.5).abs() < 1e-6, "fractional a: {x:?}");
                assert!((x[1] - 1.0).abs() < 1e-6);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn ge_constraint_forces_value() {
        // min a + 5b s.t. a + b >= 1 -> a = 1
        let mut m = Model::new();
        let a = m.add_var(1.0, "a");
        let b = m.add_var(5.0, "b");
        m.add_ge(vec![(a, 1.0), (b, 1.0)], 1.0);
        match lp(&m) {
            LpOutcome::Optimal { x, obj, .. } => {
                assert!((x[0] - 1.0).abs() < 1e-6);
                assert!(x[1].abs() < 1e-6);
                assert!((obj - 1.0).abs() < 1e-6);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn equality_constraint() {
        // min 2a + b s.t. a + b = 1
        let mut m = Model::new();
        let a = m.add_var(2.0, "a");
        let b = m.add_var(1.0, "b");
        m.add_eq(vec![(a, 1.0), (b, 1.0)], 1.0);
        match lp(&m) {
            LpOutcome::Optimal { x, obj, .. } => {
                assert!(x[0].abs() < 1e-6);
                assert!((x[1] - 1.0).abs() < 1e-6);
                assert!((obj - 1.0).abs() < 1e-6);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn infeasible_detected() {
        // a >= 1 and a <= 0 simultaneously is infeasible for a in [0,1]:
        let mut m = Model::new();
        let a = m.add_var(0.0, "a");
        m.add_ge(vec![(a, 1.0)], 1.0);
        m.add_le(vec![(a, 1.0)], 0.0);
        assert!(matches!(lp(&m), LpOutcome::Infeasible { .. }));
    }

    #[test]
    fn infeasible_sum_requirement() {
        // a + b >= 3 with a, b in [0,1] is infeasible.
        let mut m = Model::new();
        let a = m.add_var(0.0, "a");
        let b = m.add_var(0.0, "b");
        m.add_ge(vec![(a, 1.0), (b, 1.0)], 3.0);
        let out = lp(&m);
        assert!(matches!(out, LpOutcome::Infeasible { .. }));
        // Phase 1 had to run to prove infeasibility; the work is counted.
        assert!(out.iters() > 0, "iterations attributed: {out:?}");
    }

    #[test]
    fn respects_externally_fixed_bounds() {
        // min -a - b s.t. a + b <= 2, with a fixed to 0 by its bounds.
        let mut m = Model::new();
        let a = m.add_var(-1.0, "a");
        let b = m.add_var(-1.0, "b");
        m.add_le(vec![(a, 1.0), (b, 1.0)], 2.0);
        let lb = vec![0.0, 0.0];
        let ub = vec![0.0, 1.0];
        match solve_lp(
            &m,
            &lb,
            &ub,
            10_000,
            Deadline::unlimited(),
            &mut SolverHealth::default(),
        ) {
            LpOutcome::Optimal { x, obj, .. } => {
                assert!(x[0].abs() < 1e-6);
                assert!((x[1] - 1.0).abs() < 1e-6);
                assert!((obj + 1.0).abs() < 1e-6);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn crossed_bounds_are_infeasible() {
        let mut m = Model::new();
        m.add_var(0.0, "a");
        assert_eq!(
            solve_lp(
                &m,
                &[1.0],
                &[0.0],
                100,
                Deadline::unlimited(),
                &mut SolverHealth::default()
            ),
            LpOutcome::Infeasible { iters: 0 }
        );
    }

    #[test]
    fn chain_of_implications() {
        // min  5 l1 + 5 l2 - 11 u  s.t. u <= x2, x2 <= x1 + l2, x1 <= l1.
        // Cheapest support for u = 1 is l2 alone (x2 <= x1 + l2 is a
        // disjunction): obj = 5 - 11 = -6.
        let mut m = Model::new();
        let l1 = m.add_var(5.0, "l1");
        let l2 = m.add_var(5.0, "l2");
        let x1 = m.add_var(0.0, "x1");
        let x2 = m.add_var(0.0, "x2");
        let u = m.add_var(-11.0, "u");
        m.add_le(vec![(u, 1.0), (x2, -1.0)], 0.0);
        m.add_le(vec![(x2, 1.0), (x1, -1.0), (l2, -1.0)], 0.0);
        m.add_le(vec![(x1, 1.0), (l1, -1.0)], 0.0);
        match lp(&m) {
            LpOutcome::Optimal { x, obj, .. } => {
                assert!((x[4] - 1.0).abs() < 1e-6, "u should be taken: {x:?}");
                // l1 and l2 cost the same; exactly one leg pays.
                assert!((x[0] + x[1] - 1.0).abs() < 1e-6, "one support: {x:?}");
                assert!((obj + 6.0).abs() < 1e-6, "obj {obj}");
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn larger_assignment_lp() {
        // 3x3 assignment problem; LP relaxation of assignment is integral.
        let costs = [[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]];
        let mut m = Model::new();
        let mut v = Vec::new();
        for (i, row) in costs.iter().enumerate() {
            for (j, c) in row.iter().enumerate() {
                v.push(m.add_var(*c, format!("x{i}{j}")));
            }
        }
        for i in 0..3 {
            m.add_eq((0..3).map(|j| (v[i * 3 + j], 1.0)).collect(), 1.0);
            m.add_eq((0..3).map(|j| (v[j * 3 + i], 1.0)).collect(), 1.0);
        }
        match lp(&m) {
            LpOutcome::Optimal { x, obj, .. } => {
                // Optimal assignment: (0,1)=2, (1,2)=7... check best = 2+4+...
                // enumerate: perms costs: 012:4+3+6=13 021:4+7+1=12 102:2+4+6=12
                // 120:2+7+3=12 201:8+4+1=13 210:8+3+3=14 -> min 12.
                assert!((obj - 12.0).abs() < 1e-6, "obj {obj}");
                for xi in &x {
                    assert!(xi.abs() < 1e-6 || (xi - 1.0).abs() < 1e-6, "integral {x:?}");
                }
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn iteration_limit_reported() {
        let mut m = Model::new();
        let a = m.add_var(-1.0, "a");
        m.add_le(vec![(a, 1.0)], 1.0);
        assert_eq!(
            solve_lp(
                &m,
                &[0.0],
                &[1.0],
                0,
                Deadline::unlimited(),
                &mut SolverHealth::default()
            ),
            LpOutcome::Limit { iters: 0 }
        );
    }

    /// A random constraint row: (coefficients, sense 0/1/2, slack).
    type RandomRow = (Vec<(usize, i32)>, u8, i32);

    /// A random 0-1 LP: `Le`, `Ge` and `Eq` rows over up to 120
    /// variables, a few of them fixed by their bounds. Each row holds at
    /// a hidden 0-1 point with `slack` to spare, except that one case in
    /// four tightens its first row past that point, so most cases are
    /// feasible and some are not.
    #[derive(Clone, Debug)]
    struct LpCase {
        costs: Vec<i32>,
        hidden: Vec<bool>,
        rows: Vec<RandomRow>,
        fixed: Vec<usize>,
        tighten: bool,
    }

    fn lp_case() -> impl Strategy<Value = LpCase> {
        (40usize..120, 20usize..100).prop_flat_map(|(n, m)| {
            let row = (
                proptest::collection::vec((0..n, -3i32..4), 2..8),
                0u8..3,
                0i32..3,
            );
            (
                proptest::collection::vec(-9i32..10, n),
                proptest::collection::vec(any::<bool>(), n),
                proptest::collection::vec(row, m),
                proptest::collection::vec(0..n, 0..4),
                0u8..4,
            )
                .prop_map(|(costs, hidden, rows, fixed, t)| LpCase {
                    costs,
                    hidden,
                    rows,
                    fixed,
                    tighten: t == 0,
                })
        })
    }

    impl LpCase {
        fn build(&self) -> (Model, Vec<f64>, Vec<f64>) {
            let mut m = Model::new();
            let vars: Vec<_> = self
                .costs
                .iter()
                .map(|&c| m.add_var(f64::from(c), "v"))
                .collect();
            for (r, (coeffs, sense, slack)) in self.rows.iter().enumerate() {
                let at_hidden: i32 = coeffs
                    .iter()
                    .filter(|&&(i, _)| self.hidden[i])
                    .map(|&(_, c)| c)
                    .sum();
                let slack = if self.tighten && r == 0 { -1 } else { *slack };
                let cs = coeffs
                    .iter()
                    .map(|&(i, c)| (vars[i], f64::from(c)))
                    .collect();
                match sense {
                    0 => m.add_le(cs, f64::from(at_hidden + slack)),
                    1 => m.add_ge(cs, f64::from(at_hidden - slack)),
                    _ => m.add_eq(cs, f64::from(at_hidden + slack.min(0))),
                }
            }
            let (mut lb, mut ub) = bounds(vars.len());
            for &j in &self.fixed {
                lb[j] = f64::from(u8::from(self.hidden[j]));
                ub[j] = lb[j];
            }
            (m, lb, ub)
        }
    }

    /// Cases the bit-identity property runs (and the coverage test
    /// inspects).
    const KERNEL_CASES: u32 = 48;

    /// `v`'s bit pattern, reading −0.0 as +0.0: a skipped zero term may
    /// flip an exact zero's sign, which no decision reads.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter()
            .map(|&x| if x == 0.0 { 0 } else { x.to_bits() })
            .collect()
    }

    fn solve_case(
        model: &Model,
        lb: &[f64],
        ub: &[f64],
        kernels: Kernels,
    ) -> (LpOutcome, DualInfo, SolverHealth) {
        let mut health = SolverHealth::default();
        let mut duals = DualInfo::default();
        let out = solve_with(
            model,
            lb,
            ub,
            100_000,
            Deadline::unlimited(),
            &mut health,
            Some(&mut duals),
            kernels,
        );
        (out, duals, health)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(KERNEL_CASES))]

        /// The index-driven kernels take the dense kernels' path and
        /// produce their values: same outcome, iterations, point,
        /// objective, duals and health counters.
        #[test]
        fn sparse_kernels_match_dense_bit_for_bit(case in lp_case()) {
            let (model, lb, ub) = case.build();
            let (sparse, sd, sh) = solve_case(&model, &lb, &ub, Kernels::Sparse);
            let (dense, dd, dh) = solve_case(&model, &lb, &ub, Kernels::Dense);
            prop_assert_eq!(
                std::mem::discriminant(&sparse),
                std::mem::discriminant(&dense),
                "{:?} vs {:?}", sparse, dense
            );
            prop_assert_eq!(sparse.iters(), dense.iters());
            if let (
                LpOutcome::Optimal { x: xs, obj: os, .. },
                LpOutcome::Optimal { x: xd, obj: od, .. },
            ) = (&sparse, &dense)
            {
                prop_assert_eq!(bits(xs), bits(xd));
                prop_assert_eq!(bits(&[*os]), bits(&[*od]));
            }
            prop_assert_eq!(sd.farkas, dd.farkas);
            prop_assert_eq!(bits(&sd.y), bits(&dd.y));
            prop_assert_eq!(sh, dh);
        }
    }

    /// Every nonzero of `inv` is listed exactly once, in its row's and its
    /// column's list, and the lists agree with the bitset.
    fn assert_index_consistent(inv: &BasisInverse) {
        let m = inv.m;
        let mut in_rows = vec![0u32; m * m];
        for (i, cols) in inv.row_nz.iter().enumerate() {
            for &k in cols {
                in_rows[i * m + k as usize] += 1;
            }
        }
        let mut in_cols = vec![0u32; m * m];
        for (k, rows) in inv.col_nz.iter().enumerate() {
            for &i in rows {
                in_cols[i as usize * m + k] += 1;
            }
        }
        for e in 0..m * m {
            let bit = inv.listed[e / 64] >> (e % 64) & 1 == 1;
            assert_eq!(in_rows[e], u32::from(bit), "entry {e} in row lists");
            assert_eq!(in_cols[e], u32::from(bit), "entry {e} in column lists");
            assert!(bit || inv.val[e] == 0.0, "unlisted nonzero at {e}");
        }
    }

    /// A refactorization replaces the values wholesale; the rebuilt index
    /// must describe them, so every kernel still matches its dense twin.
    #[test]
    fn refactorize_rebuilds_the_index() {
        let runner = TestRunner::new(ProptestConfig::with_cases(8));
        for case in 0..runner.cases() {
            let (model, lb, ub) = lp_case().generate(&mut runner.rng_for(case)).build();
            let mut t = Tableau::new(&model, &lb, &ub, Kernels::Sparse);
            let costs: Vec<f64> = (0..t.num_vars())
                .map(|j| if j < t.n_art_start { 0.0 } else { 1.0 })
                .collect();
            t.optimize(
                &costs,
                40,
                Deadline::unlimited(),
                &mut SolverHealth::default(),
            );
            assert_index_consistent(&t.binv);
            t.refactorize();
            assert_index_consistent(&t.binv);
            let m = t.m;
            let (mut a, mut b) = (vec![0.0; m], vec![0.0; m]);
            for j in 0..t.num_vars() {
                t.binv.ftran(&t.cols[j], &mut a);
                t.binv.ftran_dense(&t.cols[j], &mut b);
                assert_eq!(bits(&a), bits(&b), "case {case} ftran {j}");
            }
            let cb = || t.basis.iter().map(|&k| costs[k]);
            t.binv.btran(cb(), &mut a);
            t.binv.btran_dense(cb(), &mut b);
            assert_eq!(bits(&a), bits(&b), "case {case} btran");
            t.binv.apply(&t.b, &mut a);
            t.binv.apply_dense(&t.b, &mut b);
            assert_eq!(bits(&a), bits(&b), "case {case} apply");
        }
    }

    /// The property's models reach every path the kernels serve: phase 1
    /// over artificials, bound flips, and the periodic basic-value
    /// refresh.
    #[test]
    fn kernel_property_covers_phase1_flips_and_refresh() {
        let runner = TestRunner::new(ProptestConfig::with_cases(KERNEL_CASES));
        let (mut phase1, mut flips, mut refresh) = (false, false, false);
        for i in 0..runner.cases() {
            let (model, lb, ub) = lp_case().generate(&mut runner.rng_for(i)).build();
            let artificials = Tableau::new(&model, &lb, &ub, Kernels::Sparse).num_vars()
                > model.num_vars() + model.num_rows();
            let (out, _, health) = solve_case(&model, &lb, &ub, Kernels::Sparse);
            // Every `optimize` call that ends optimal spends one
            // iteration finding no entering variable; every other
            // iteration pivots or flips a bound.
            let calls = match out {
                LpOutcome::Optimal { .. } => 1 + u64::from(artificials),
                LpOutcome::Infeasible { .. } => 1,
                _ => continue,
            };
            phase1 |= artificials;
            flips |= out.iters() > health.pivots + calls;
            refresh |= out.iters() >= REFRESH_PERIOD;
        }
        assert!(
            phase1 && flips && refresh,
            "phase 1 {phase1}, bound flips {flips}, refresh {refresh}"
        );
    }
}

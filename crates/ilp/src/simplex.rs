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
//! Every relaxation starts from a slack-and-artificial basis, whose
//! inverse is diagonal, and a pivot only combines the pivot row into other
//! rows. So until the first refactorization, the off-diagonal nonzeros of
//! `B⁻¹` lie in the columns that have been pivot rows (the set K), and
//! [`BasisInverse`] stores those columns in a row-major block whose width
//! doubles as K grows, and the other columns as their diagonal entries: a
//! relaxation that pivots `p` times holds `O(m·p)` values, not `m²`.
//! ftran, btran, the update and the basic-value refresh visit indexed
//! entries only, so an iteration costs what the nonzeros it touches cost —
//! the update `|w| × |pivot row|`, ftran the entering column's columns of
//! `B⁻¹`. A row whose pattern covers more than a quarter of its K-entries
//! is swept in full instead, as the dense kernels sweep every row:
//! streaming memory beats hopping through a long list.
//!
//! The rest of an iteration follows what moved, too. Pricing keeps the
//! reduced costs from one iteration to the next and recomputes only those
//! of the columns with an entry in a row whose dual changed; the ratio
//! test, the basic-value step and the update visit the entering column's
//! nonzero rows in ascending order. Each falls back to a full sweep when
//! what moved is dense. Skipped terms are products with an exact zero and
//! skipped recomputations would read the same operands, so every value,
//! and therefore every pivot, is the one the full-length dense sweeps
//! compute; the test build keeps those sweeps, over an `m × m` inverse of
//! their own, as the oracle. The rare refactorization is a dense `O(m³)`
//! Gauss–Jordan elimination into an `m × m` inverse, after which K is
//! every column; the branch-and-bound driver declines models above
//! [`crate::SolverConfig::max_rows`] (as CPLEX's memory limits
//! effectively did in the paper's experiments, where a few functions went
//! unsolved).

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

/// A row pattern longer than `|K| / DENSE_SHARE` positions is swept in
/// full: the sweep streams contiguous memory, the list jumps around it.
/// The same share decides when the entering column's rows, or the rows
/// whose dual changed, are too many to visit one by one.
const DENSE_SHARE: usize = 4;

/// Width of the K-block when the first column joins K; it doubles (up to
/// `m`) each time K fills it.
const FIRST_WIDTH: usize = 32;

/// [`BasisInverse::pos`] of a column outside K.
const OUTSIDE: u32 = u32::MAX;

/// Which implementation of the basis-inverse kernels a tableau runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernels {
    /// [`BasisInverse`], driven by its nonzero index.
    Sparse,
    /// [`DenseInverse`]: the full-length dense sweeps the sparse kernels
    /// reproduce, kept as the oracle of the bit-identity test.
    #[cfg(test)]
    Dense,
}

/// The explicit basis inverse `B⁻¹`, stored to the extent the simplex
/// fills it in, with an index of its nonzeros.
///
/// Every relaxation starts from a diagonal inverse, and a pivot on basis
/// row `r` only combines row `r` into other rows. So since the last
/// refactorization, row `i`'s nonzeros lie in `{i} ∪ K`, where K is the
/// set of columns that have been pivot rows: every column outside K is
/// still its starting diagonal entry, kept in `diag`. The K-columns live
/// in a row-major block with one position per column, in the order the
/// columns joined; its stride doubles (up to `m`) as K grows, so a
/// relaxation that pivots `p` times holds `O(m·p)` values, not `m²`.
/// [`BasisInverse::reset`] puts a refactorized inverse in the block with
/// every column in K.
///
/// Beside the values, the update maintains the set of *listed* block
/// entries: every nonzero entry is listed, and a listed entry may since
/// have become exactly zero. Each kernel performs the dense kernel's
/// arithmetic on `diag` and the listed entries only, summing in the dense
/// loops' order. The terms it skips are products with an exact zero,
/// which leave any nonzero partial sum unchanged, so while the values stay
/// finite every result equals the dense kernel's bit for bit, up to the
/// sign of an exact zero — which no decision reads: pricing, the ratio
/// test and rounding compare against tolerances, and [`clamp_duals`] maps
/// dust to `+0.0`.
struct BasisInverse {
    m: usize,
    /// `diag[i]`: entry `(i, i)` while column `i` is outside K.
    diag: Vec<f64>,
    /// `kcols[p]`: the column at block position `p`.
    kcols: Vec<u32>,
    /// `pos[k]`: column `k`'s block position, or [`OUTSIDE`].
    pos: Vec<u32>,
    /// Row-major block: entry `(i, kcols[p])` at `block[i * stride + p]`;
    /// every unlisted entry is exactly zero.
    block: Vec<f64>,
    stride: usize,
    /// `col_nz[p]`: the rows `i` of the listed entries `(i, kcols[p])`.
    col_nz: Vec<Vec<u32>>,
    /// `row_nz[i]`: the positions `p` of the listed entries of row `i`.
    row_nz: Vec<Vec<u32>>,
    /// Bit `p` of row `i`'s run of `words` words is set when
    /// `(i, kcols[p])` is listed.
    listed: Vec<u64>,
    words: usize,
    /// `full[i]`: every position below it is listed in row `i`, as it is
    /// once a dense pivot row has reached the row.
    full: Vec<u32>,
    /// btran's accumulator, one entry per block position.
    acc: Vec<f64>,
    /// Re-layouts of a full block into a wider one (test coverage).
    #[cfg(test)]
    relayouts: u32,
    /// Pivots that swept the K-block rows in full (test coverage).
    #[cfg(test)]
    dense_pivots: u32,
}

impl BasisInverse {
    /// The all-zero inverse with K empty; [`BasisInverse::set_diagonal`]
    /// fills in the starting basis.
    fn new(m: usize) -> BasisInverse {
        BasisInverse {
            m,
            diag: vec![0.0; m],
            kcols: Vec::new(),
            pos: vec![OUTSIDE; m],
            block: Vec::new(),
            stride: 0,
            col_nz: Vec::new(),
            row_nz: vec![Vec::new(); m],
            listed: Vec::new(),
            words: 0,
            full: vec![0; m],
            acc: Vec::new(),
            #[cfg(test)]
            relayouts: 0,
            #[cfg(test)]
            dense_pivots: 0,
        }
    }

    fn set_diagonal(&mut self, i: usize, v: f64) {
        self.diag[i] = v;
    }

    /// Add `(i, kcols[p])` to the index unless it is listed already.
    fn list(&mut self, i: usize, p: usize) {
        let word = &mut self.listed[i * self.words + p / 64];
        let mask = 1u64 << (p % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.row_nz[i].push(p as u32);
            self.col_nz[p].push(i as u32);
        }
    }

    /// List every block entry of row `i`.
    fn fill_row(&mut self, i: usize) {
        let k = self.kcols.len();
        for p in self.full[i] as usize..k {
            self.list(i, p);
        }
        self.full[i] = k as u32;
    }

    /// Column `r`, outside K, joins it: its diagonal entry moves into the
    /// block, which is widened first if K fills it.
    fn join(&mut self, r: usize) {
        let p = self.kcols.len();
        if p == self.stride {
            let stride = if p == 0 { FIRST_WIDTH } else { 2 * p };
            self.relayout(stride.min(self.m));
        }
        self.kcols.push(r as u32);
        self.pos[r] = p as u32;
        self.col_nz.push(Vec::new());
        self.block[r * self.stride + p] = self.diag[r];
        self.list(r, p);
    }

    /// Widen the block and its listed bits to rows of `stride`
    /// positions, in place: each row moves, last row first, to its new
    /// offset, which is never below its old one, and the rest of its new
    /// row is zeroed.
    fn relayout(&mut self, stride: usize) {
        let (m, k) = (self.m, self.kcols.len());
        let words = stride.div_ceil(64);
        self.block.resize(m * stride, 0.0);
        self.listed.resize(m * words, 0);
        for i in (0..m).rev() {
            self.block
                .copy_within(i * self.stride..i * self.stride + k, i * stride);
            self.block[i * stride + k..(i + 1) * stride].fill(0.0);
            self.listed
                .copy_within(i * self.words..(i + 1) * self.words, i * words);
            self.listed[i * words + self.words..(i + 1) * words].fill(0);
        }
        #[cfg(test)]
        {
            self.relayouts += u32::from(self.stride > 0);
        }
        self.stride = stride;
        self.words = words;
    }

    /// `w = B⁻¹ a` for a sparse column `a`; each `w_i` sums over `a`'s
    /// entries in order. Sets in `mask` the bit of every row it writes.
    fn ftran(&self, a: &[(usize, f64)], w: &mut [f64], mask: &mut [u64]) {
        w.fill(0.0);
        for &(k, c) in a {
            match self.pos[k] {
                OUTSIDE => {
                    w[k] += self.diag[k] * c;
                    mask[k / 64] |= 1 << (k % 64);
                }
                p => {
                    let p = p as usize;
                    for &i in &self.col_nz[p] {
                        let i = i as usize;
                        w[i] += self.block[i * self.stride + p] * c;
                        mask[i / 64] |= 1 << (i % 64);
                    }
                }
            }
        }
    }

    /// True when a row pattern of `len` block entries is cheaper to sweep
    /// in full than through its list.
    fn dense(&self, len: usize) -> bool {
        len * DENSE_SHARE > self.kcols.len()
    }

    /// `y = cᵦᵀ B⁻¹`, where `cb` yields the basic costs row by row; each
    /// `y_k` sums over ascending basis rows.
    fn btran(&mut self, cb: impl Iterator<Item = f64>, y: &mut [f64]) {
        let (k, stride) = (self.kcols.len(), self.stride);
        y.fill(0.0);
        self.acc.clear();
        self.acc.resize(k, 0.0);
        for (i, c) in cb.enumerate() {
            if c != 0.0 {
                if self.pos[i] == OUTSIDE {
                    y[i] += c * self.diag[i];
                }
                let row = &self.block[i * stride..i * stride + k];
                if self.dense(self.row_nz[i].len()) {
                    for (yp, bv) in self.acc.iter_mut().zip(row) {
                        *yp += c * bv;
                    }
                } else {
                    for &p in &self.row_nz[i] {
                        self.acc[p as usize] += c * row[p as usize];
                    }
                }
            }
        }
        for (&col, &v) in self.kcols.iter().zip(&self.acc) {
            y[col as usize] = v;
        }
    }

    /// `out = B⁻¹ r`; each `out_i` sums over ascending columns.
    fn apply(&self, r: &[f64], out: &mut [f64]) {
        out.fill(0.0);
        for (k, &rk) in r.iter().enumerate() {
            if rk != 0.0 {
                match self.pos[k] {
                    OUTSIDE => out[k] += self.diag[k] * rk,
                    p => {
                        let p = p as usize;
                        for &i in &self.col_nz[p] {
                            let i = i as usize;
                            out[i] += self.block[i * self.stride + p] * rk;
                        }
                    }
                }
            }
        }
    }

    /// Pivot on basis row `r`, where `w = B⁻¹ a_j` is the entering
    /// column and `rows` holds, ascending, every row where `w` may be
    /// nonzero: column `r` joins K, row `r` is divided by `w_r` and
    /// eliminated from every other row `i` with `|w_i| > 1e-12`, over row
    /// `r`'s nonzero positions — or over the whole block row when those
    /// are too many to visit one by one.
    fn pivot(&mut self, r: usize, w: &[f64], rows: &[u32]) {
        if self.pos[r] == OUTSIDE {
            self.join(r);
        }
        let (k, stride) = (self.kcols.len(), self.stride);
        let wr = w[r];
        let row_r = r * stride..r * stride + k;
        if self.dense(self.row_nz[r].len()) {
            for v in &mut self.block[row_r.clone()] {
                *v /= wr;
            }
        } else {
            for &p in &self.row_nz[r] {
                self.block[r * stride + p as usize] /= wr;
            }
        }
        // Row r's nonzeros; its listed zeros would only subtract zero
        // products from the other rows.
        let pivot_row: Vec<(usize, f64)> = self.row_nz[r]
            .iter()
            .map(|&p| (p as usize, self.block[r * stride + p as usize]))
            .filter(|&(_, v)| v != 0.0)
            .collect();
        if self.dense(pivot_row.len()) {
            #[cfg(test)]
            {
                self.dense_pivots += 1;
            }
            let pivot_row = self.block[row_r].to_vec();
            for &i in rows {
                let (i, f) = (i as usize, w[i as usize]);
                if i != r && f.abs() > 1e-12 {
                    // Row i gains this many entries anyway: list all of
                    // them once instead of checking each new one.
                    self.fill_row(i);
                    for (v, p) in self.block[i * stride..i * stride + k]
                        .iter_mut()
                        .zip(&pivot_row)
                    {
                        *v -= f * p;
                    }
                }
            }
        } else {
            for &i in rows {
                let (i, f) = (i as usize, w[i as usize]);
                if i != r && f.abs() > 1e-12 {
                    for &(p, pv) in &pivot_row {
                        let v = &mut self.block[i * stride + p];
                        let was_zero = *v == 0.0;
                        *v -= f * pv;
                        // A nonzero entry is listed already.
                        if was_zero {
                            self.list(i, p);
                        }
                    }
                }
            }
        }
    }

    /// Replace the values by a freshly factorized `m × m` inverse, with
    /// every column in K at its own position, and re-index its nonzeros.
    fn reset(&mut self, inv: Vec<f64>) {
        let m = self.m;
        self.kcols = (0..m as u32).collect();
        self.pos = self.kcols.clone();
        self.block = inv;
        self.stride = m;
        self.words = m.div_ceil(64);
        self.listed = vec![0; m * self.words];
        self.full.fill(0);
        self.row_nz.iter_mut().for_each(Vec::clear);
        self.col_nz = vec![Vec::new(); m];
        for i in 0..m {
            for p in 0..m {
                if self.block[i * m + p] != 0.0 {
                    self.list(i, p);
                }
            }
        }
    }
}

/// The dense kernels the sparse ones replace: full-length sweeps of an
/// `m × m` inverse, in the same summation order.
#[cfg(test)]
struct DenseInverse {
    m: usize,
    val: Vec<f64>,
}

#[cfg(test)]
impl DenseInverse {
    fn new(m: usize) -> DenseInverse {
        DenseInverse {
            m,
            val: vec![0.0; m * m],
        }
    }

    fn ftran(&self, a: &[(usize, f64)], w: &mut [f64]) {
        w.fill(0.0);
        for &(ri, c) in a {
            for (i, wi) in w.iter_mut().enumerate() {
                *wi += self.val[i * self.m + ri] * c;
            }
        }
    }

    fn btran(&self, cb: impl Iterator<Item = f64>, y: &mut [f64]) {
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

    fn apply(&self, r: &[f64], out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.val[i * self.m..(i + 1) * self.m];
            *o = row.iter().zip(r).map(|(bv, rv)| bv * rv).sum();
        }
    }

    fn pivot(&mut self, r: usize, w: &[f64]) {
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

/// A tableau's basis inverse: the one the solver runs, or in the test
/// build its dense twin.
enum Inverse {
    Sparse(Box<BasisInverse>),
    #[cfg(test)]
    Dense(DenseInverse),
}

impl Inverse {
    fn new(kernels: Kernels, m: usize) -> Inverse {
        match kernels {
            Kernels::Sparse => Inverse::Sparse(Box::new(BasisInverse::new(m))),
            #[cfg(test)]
            Kernels::Dense => Inverse::Dense(DenseInverse::new(m)),
        }
    }

    fn set_diagonal(&mut self, i: usize, v: f64) {
        match self {
            Inverse::Sparse(b) => b.set_diagonal(i, v),
            #[cfg(test)]
            Inverse::Dense(d) => d.val[i * d.m + i] = v,
        }
    }

    fn btran(&mut self, cb: impl Iterator<Item = f64>, y: &mut [f64]) {
        match self {
            Inverse::Sparse(b) => b.btran(cb, y),
            #[cfg(test)]
            Inverse::Dense(d) => d.btran(cb, y),
        }
    }

    fn apply(&self, r: &[f64], out: &mut [f64]) {
        match self {
            Inverse::Sparse(b) => b.apply(r, out),
            #[cfg(test)]
            Inverse::Dense(d) => d.apply(r, out),
        }
    }

    fn pivot(&mut self, r: usize, w: &[f64], rows: &[u32]) {
        match self {
            Inverse::Sparse(b) => b.pivot(r, w, rows),
            #[cfg(test)]
            Inverse::Dense(d) => d.pivot(r, w),
        }
    }

    fn reset(&mut self, inv: Vec<f64>) {
        match self {
            Inverse::Sparse(b) => b.reset(inv),
            #[cfg(test)]
            Inverse::Dense(d) => d.val = inv,
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
    binv: Inverse,
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
        let mut binv = Inverse::new(kernels, m);

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

    /// `w = B⁻¹ · column(j)`. Returns true when `rows` then holds, in
    /// ascending order, every row where `w` may be nonzero, and false
    /// when a step should sweep every row instead: those rows are too
    /// many to be worth listing, or the kernels keep no index. `mask` is
    /// all zero before and after.
    fn ftran(&self, j: usize, w: &mut [f64], mask: &mut [u64], rows: &mut Vec<u32>) -> bool {
        match &self.binv {
            Inverse::Sparse(b) => {
                b.ftran(&self.cols[j], w, mask);
                let touched: usize = mask.iter().map(|x| x.count_ones() as usize).sum();
                let sparse = touched * DENSE_SHARE <= self.m;
                rows.clear();
                for (base, word) in (0u32..).step_by(64).zip(mask.iter_mut()) {
                    let mut bits = std::mem::take(word);
                    if sparse {
                        while bits != 0 {
                            rows.push(base + bits.trailing_zeros());
                            bits &= bits - 1;
                        }
                    }
                }
                sparse
            }
            #[cfg(test)]
            Inverse::Dense(d) => {
                d.ftran(&self.cols[j], w);
                false
            }
        }
    }

    /// y = cᵦᵀ · B⁻¹
    fn btran(&mut self, costs: &[f64], y: &mut [f64]) {
        let cb = self.basis.iter().map(|&bi| costs[bi]);
        self.binv.btran(cb, y);
    }

    /// True for the variables pricing considers: nonbasic and not fixed.
    fn candidate(&self, j: usize) -> bool {
        !(self.in_basis[j] || self.lo[j] >= self.hi[j] - 1e-12)
    }

    fn reduced_cost(&self, costs: &[f64], y: &[f64], j: usize) -> f64 {
        let mut d = costs[j];
        for &(ri, c) in &self.cols[j] {
            d -= y[ri] * c;
        }
        d
    }

    /// Recompute the reduced cost of every candidate, and zero the
    /// entries of every other variable.
    fn price_all(&self, costs: &[f64], y: &[f64], d: &mut [f64]) {
        for (j, dj) in d.iter_mut().enumerate() {
            *dj = if self.candidate(j) {
                self.reduced_cost(costs, y, j)
            } else {
                0.0
            };
        }
    }

    /// Bring the candidates' reduced costs `d` from the duals `y_prev` to
    /// `y`: recompute those of the candidates with an entry in a row whose
    /// dual changed bitwise, and that of `left`, the variable that has
    /// left the basis since (its entry was zero while it was basic).
    /// Every other candidate's sum would read the same operands, so its
    /// entry already is what [`Tableau::reduced_cost`] returns. Returns
    /// false, having changed nothing, when the duals changed in too many
    /// rows for this to beat [`Tableau::price_all`].
    fn reprice(
        &self,
        costs: &[f64],
        y: &[f64],
        y_prev: &[f64],
        d: &mut [f64],
        left: Option<usize>,
        changed: &mut Vec<usize>,
    ) -> bool {
        changed.clear();
        for (i, (now, was)) in y.iter().zip(y_prev).enumerate() {
            if now.to_bits() != was.to_bits() {
                changed.push(i);
                if changed.len() * DENSE_SHARE > self.m {
                    return false;
                }
            }
        }
        for &ri in changed.iter() {
            let structurals = self.model.rows()[ri].coeffs.iter().map(|(v, _)| v.index());
            for j in structurals
                .chain([self.n_struct + ri])
                .chain(self.art_of_row[ri])
            {
                if self.candidate(j) {
                    d[j] = self.reduced_cost(costs, y, j);
                }
            }
        }
        if let Some(j) = left.filter(|&j| self.candidate(j)) {
            d[j] = self.reduced_cost(costs, y, j);
        }
        true
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
        self.binv.apply(&rhs, &mut xb);
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
        let m = self.m;
        // The duals of this iteration and of the previous one.
        let (mut y, mut y_prev) = (vec![0.0; m], vec![0.0; m]);
        // The candidates' reduced costs at `y`, kept from one iteration
        // to the next while `priced`; `left` is the variable the last
        // pivot took out of the basis. Every other entry is zero, which
        // never prices as improving, so the pricing loop need not test
        // which variables are candidates.
        let mut d = vec![0.0; self.num_vars()];
        let mut priced = false;
        let mut left = None;
        let mut changed = Vec::new();
        // The entering column, and the rows a step visits.
        let mut w = vec![0.0; m];
        let mut mask = vec![0u64; m.div_ceil(64)];
        let mut pattern = Vec::new();
        let every_row: Vec<u32> = (0..m as u32).collect();
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
            std::mem::swap(&mut y, &mut y_prev);
            self.btran(costs, &mut y);
            let stale = left.take();
            priced = priced && self.reprice(costs, &y, &y_prev, &mut d, stale, &mut changed);
            if !priced {
                self.price_all(costs, &y, &mut d);
                // The dense oracle prices in full every iteration.
                priced = matches!(self.binv, Inverse::Sparse(_));
            }
            #[cfg(test)]
            for (j, dj) in d.iter().enumerate() {
                let fresh = if self.candidate(j) {
                    self.reduced_cost(costs, &y, j)
                } else {
                    0.0
                };
                assert_eq!(dj.to_bits(), fresh.to_bits(), "cached reduced cost {j}");
            }
            let bland = bland_mode;
            let mut enter: Option<(usize, f64, f64)> = None; // (var, d, sigma)
            let mut best_score = 0.0_f64;
            let mut saw_nan = false;
            for (j, (&dj, &upper)) in d.iter().zip(&self.at_upper).enumerate() {
                if dj.is_nan() {
                    saw_nan = true;
                    break;
                }
                let sigma = if upper { -1.0 } else { 1.0 };
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

            let rows = if self.ftran(j, &mut w, &mut mask, &mut pattern) {
                &pattern
            } else {
                &every_row
            };

            // Ratio test. x_B(t) = x_B − σ t w; entering moves σt from its
            // bound; it may also flip to its opposite bound. Ties are
            // broken toward larger pivot magnitudes for stability, except
            // under Bland's rule, where the smallest basic variable index
            // must win for the anti-cycling guarantee to hold.
            let mut t_best = self.hi[j] - self.lo[j]; // bound flip distance
            let mut leave: Option<(usize, bool)> = None; // (basis row, leaves_at_upper)
            for &i in rows {
                let i = i as usize;
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
                for &i in rows {
                    let i = i as usize;
                    self.x[self.basis[i]] -= sigma * t_best * w[i];
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
                    d[j] = 0.0;
                    left = Some(k);
                    self.binv.pivot(r, &w, rows);
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
    Tableau::new(model, lb, ub, kernels).solve(iter_limit, deadline, health, duals)
}

impl Tableau<'_> {
    /// Phase 1 if the starting basis has artificials, then phase 2; the
    /// body of [`solve_lp_with_duals`] once the bounds are known to be
    /// sane.
    fn solve(
        &mut self,
        iter_limit: u64,
        deadline: Deadline,
        health: &mut SolverHealth,
        mut duals: Option<&mut DualInfo>,
    ) -> LpOutcome {
        let abort = |reason: StopReason, iters: u64, health: &mut SolverHealth| {
            health.lp_aborts += 1;
            match reason {
                StopReason::Numerical => LpOutcome::Numerical { iters },
                _ => LpOutcome::Limit { iters },
            }
        };
        let model = self.model;

        // Phase 1 (only if artificials exist).
        if self.num_vars() > self.n_art_start {
            let mut costs = vec![0.0; self.num_vars()];
            for c in costs.iter_mut().skip(self.n_art_start) {
                *c = 1.0;
            }
            match self.optimize(&costs, iter_limit, deadline, health) {
                StopReason::Optimal => {}
                r => return abort(r, self.iters, health),
            }
            let infeas: f64 = self.x[self.n_art_start..].iter().sum();
            if infeas.is_nan() {
                health.nan_events += 1;
                return abort(StopReason::Numerical, self.iters, health);
            }
            if infeas > 1e-6 {
                if let Some(d) = duals.as_deref_mut() {
                    d.y = vec![0.0; self.m];
                    self.btran(&costs, &mut d.y);
                    clamp_duals(model, &mut d.y);
                    d.farkas = true;
                }
                return LpOutcome::Infeasible { iters: self.iters };
            }
            // Pin artificials to zero for phase 2.
            for j in self.n_art_start..self.num_vars() {
                self.hi[j] = 0.0;
                if !self.in_basis[j] {
                    self.x[j] = 0.0;
                }
            }
        }

        // Phase 2.
        let mut costs = vec![0.0; self.num_vars()];
        costs[..self.n_struct].copy_from_slice(model.costs());
        match self.optimize(&costs, iter_limit, deadline, health) {
            StopReason::Optimal => {}
            r => return abort(r, self.iters, health),
        }
        self.refresh_basics();

        // The structurals' bounds are the caller's `lb`/`ub`.
        let x: Vec<f64> = (0..self.n_struct)
            .map(|j| self.x[j].clamp(self.lo[j], self.hi[j]))
            .collect();
        let obj = x
            .iter()
            .zip(model.costs())
            .map(|(xj, cj)| xj * cj)
            .sum::<f64>();
        if !obj.is_finite() || x.iter().any(|v| !v.is_finite()) {
            health.nan_events += 1;
            return abort(StopReason::Numerical, self.iters, health);
        }
        if let Some(d) = duals {
            d.y = vec![0.0; self.m];
            self.btran(&costs, &mut d.y);
            clamp_duals(model, &mut d.y);
        }
        LpOutcome::Optimal {
            x,
            obj,
            iters: self.iters,
        }
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

    /// A random 0-1 LP: `Le`, `Ge` and `Eq` rows over up to 160
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

    /// Up to 140 rows: enough for K to outgrow [`FIRST_WIDTH`] twice.
    fn lp_case() -> impl Strategy<Value = LpCase> {
        lp_case_sized(40..160, 20..140)
    }

    /// [`lp_case`] over `vars` variables and `rows` rows.
    fn lp_case_sized(
        vars: std::ops::Range<usize>,
        rows: std::ops::Range<usize>,
    ) -> impl Strategy<Value = LpCase> {
        (vars, rows).prop_flat_map(|(n, m)| {
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

    /// The sparse inverse of a tableau built with [`Kernels::Sparse`].
    fn sparse<'t>(t: &'t Tableau) -> &'t BasisInverse {
        match &t.binv {
            Inverse::Sparse(b) => b,
            _ => unreachable!("a dense tableau"),
        }
    }

    /// K's positions and columns agree; every nonzero block entry is
    /// listed exactly once, in its row's and its position's list; the
    /// lists agree with the bitset; and past K every block entry is zero.
    fn assert_index_consistent(inv: &BasisInverse) {
        let (m, k, stride) = (inv.m, inv.kcols.len(), inv.stride);
        assert!(k <= stride && stride <= m, "K {k}, stride {stride}, m {m}");
        for (p, &col) in inv.kcols.iter().enumerate() {
            assert_eq!(inv.pos[col as usize], p as u32, "position of column {col}");
        }
        assert_eq!(inv.pos.iter().filter(|&&p| p != OUTSIDE).count(), k);
        let mut in_rows = vec![0u32; m * k];
        for (i, ps) in inv.row_nz.iter().enumerate() {
            for &p in ps {
                in_rows[i * k + p as usize] += 1;
            }
        }
        let mut in_cols = vec![0u32; m * k];
        for (p, rows) in inv.col_nz.iter().enumerate() {
            for &i in rows {
                in_cols[i as usize * k + p] += 1;
            }
        }
        for i in 0..m {
            for p in 0..stride {
                let v = inv.block[i * stride + p];
                if p >= k {
                    assert_eq!(v, 0.0, "value past K at ({i}, {p})");
                    continue;
                }
                let bit = inv.listed[i * inv.words + p / 64] >> (p % 64) & 1 == 1;
                let e = i * k + p;
                assert_eq!(in_rows[e], u32::from(bit), "({i}, {p}) in row lists");
                assert_eq!(in_cols[e], u32::from(bit), "({i}, {p}) in column lists");
                assert!(bit || v == 0.0, "unlisted nonzero at ({i}, {p})");
            }
        }
    }

    /// A refactorization replaces the values wholesale; the rebuilt index
    /// must describe them, so every kernel still matches an independent
    /// dense twin that took the same pivots and refactorized too.
    #[test]
    fn refactorize_rebuilds_the_index() {
        let runner = TestRunner::new(ProptestConfig::with_cases(8));
        for case in 0..runner.cases() {
            let (model, lb, ub) = lp_case().generate(&mut runner.rng_for(case)).build();
            let mut t = Tableau::new(&model, &lb, &ub, Kernels::Sparse);
            let mut twin = Tableau::new(&model, &lb, &ub, Kernels::Dense);
            let costs: Vec<f64> = (0..t.num_vars())
                .map(|j| if j < t.n_art_start { 0.0 } else { 1.0 })
                .collect();
            for tab in [&mut t, &mut twin] {
                tab.optimize(
                    &costs,
                    40,
                    Deadline::unlimited(),
                    &mut SolverHealth::default(),
                );
            }
            assert_eq!(t.basis, twin.basis, "case {case} pivots");
            assert_index_consistent(sparse(&t));
            t.refactorize();
            twin.refactorize();
            assert_index_consistent(sparse(&t));
            let m = t.m;
            let (mut a, mut b) = (vec![0.0; m], vec![0.0; m]);
            let mut mask = vec![0; m.div_ceil(64)];
            let mut rows = Vec::new();
            for j in 0..t.num_vars() {
                twin.ftran(j, &mut b, &mut mask, &mut rows);
                if t.ftran(j, &mut a, &mut mask, &mut rows) {
                    let listed: Vec<usize> = rows.iter().map(|&i| i as usize).collect();
                    let nonzero: Vec<usize> = (0..m).filter(|&i| b[i] != 0.0).collect();
                    assert!(
                        nonzero.iter().all(|i| listed.binary_search(i).is_ok()),
                        "case {case} ftran {j}: rows {listed:?} miss {nonzero:?}"
                    );
                }
                assert_eq!(bits(&a), bits(&b), "case {case} ftran {j}");
            }
            t.btran(&costs, &mut a);
            twin.btran(&costs, &mut b);
            assert_eq!(bits(&a), bits(&b), "case {case} btran");
            t.binv.apply(&t.b, &mut a);
            twin.binv.apply(&twin.b, &mut b);
            assert_eq!(bits(&a), bits(&b), "case {case} apply");
        }
    }

    /// The property's models reach every path the kernels serve: phase 1
    /// over artificials, bound flips, the periodic basic-value refresh, a
    /// K that outgrows the first block width, and pivots both through
    /// the row lists and in dense sweeps.
    #[test]
    fn kernel_property_covers_phase1_flips_and_refresh() {
        let runner = TestRunner::new(ProptestConfig::with_cases(KERNEL_CASES));
        let (mut phase1, mut flips, mut refresh) = (false, false, false);
        let (mut relayout, mut dense, mut listed) = (false, false, false);
        for i in 0..runner.cases() {
            let (model, lb, ub) = lp_case().generate(&mut runner.rng_for(i)).build();
            let mut t = Tableau::new(&model, &lb, &ub, Kernels::Sparse);
            let artificials = t.num_vars() > model.num_vars() + model.num_rows();
            let mut health = SolverHealth::default();
            let out = t.solve(100_000, Deadline::unlimited(), &mut health, None);
            let inv = sparse(&t);
            relayout |= inv.relayouts > 0;
            dense |= inv.dense_pivots > 0;
            listed |= health.pivots > u64::from(inv.dense_pivots);
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
        assert!(
            relayout && dense && listed,
            "re-layout {relayout}, dense pivots {dense}, listed pivots {listed}"
        );
    }

    /// A relaxation of a large model that stops at a 300-iteration cap
    /// keeps its inverse in at most `m × (pivots + 1)` values, in a block
    /// allocated at most twice as wide as K (its stride doubles), so its
    /// memory grows with the pivots, not with `m²`.
    #[test]
    fn inverse_store_grows_with_pivots_not_rows() {
        let mut rng = TestRunner::new(ProptestConfig::with_cases(1)).rng_for(0);
        let (model, lb, ub) = lp_case_sized(6_000..6_001, 5_000..5_001)
            .generate(&mut rng)
            .build();
        let m = model.num_rows();
        let mut t = Tableau::new(&model, &lb, &ub, Kernels::Sparse);
        let mut health = SolverHealth::default();
        let out = t.solve(300, Deadline::unlimited(), &mut health, None);
        assert_eq!(out, LpOutcome::Limit { iters: 300 });
        let (inv, pivots) = (sparse(&t), health.pivots as usize);
        let k = inv.kcols.len();
        assert!(k > FIRST_WIDTH, "K {k} never outgrew the first block");
        // A column of `m` per block position in use, plus the diagonal
        // entries of the columns outside K.
        let kept = m * k + (m - k);
        assert!(
            kept <= m * (pivots + 1),
            "{kept} values kept for {m} rows and {pivots} pivots"
        );
        assert!(
            inv.block.len() <= 2 * m * k,
            "a {m} × {} block for K {k}",
            inv.stride
        );
    }
}

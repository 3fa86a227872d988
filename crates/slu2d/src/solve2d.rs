//! Distributed triangular solves on the 2D grid.
//!
//! Fan-in / fan-out substitution at supernode granularity: for each
//! supernode `k`, partial products are summed to the diagonal owner
//! `(k mod pr, k mod pc)` along its process row, and the solved segment is
//! sent down its process column, as in SuperLU_DIST's solve phase.
//!
//! Only the ranks that structurally need supernode `k` take part. The
//! participant sets come from the symbolic block pattern alone (see
//! [`SolvePlan`]), the rule the factorization already applies to its panel
//! broadcasts: a rank that holds no block of `k` would only send zeros and
//! wait, so it skips `k` entirely. Fan-in and fan-out are binomial trees
//! over the sorted participant list built from point-to-point messages
//! (`m - 1` messages for `m` participants); no row- or column-wide
//! collective runs in the solve.
//!
//! The forward and backward phases are exposed separately with an explicit
//! [`DistSolveState`] so the 3D solver can interleave them with z-axis
//! reductions and broadcasts (mirroring Algorithm 1's structure for the
//! solve, see `lu3d::solve3d`).

use crate::factor2d::FactorEnv;
use crate::store::BlockStore;
use densela::{backward_subst, flops, forward_subst_unit};
use simgrid::{Comm, FailKind, Grid2d, HostPhase, Payload, Rank};
use std::collections::HashMap;
use std::sync::Arc;
use symbolic::Symbolic;

use simgrid::tags::{T_BWD_BC, T_BWD_RED, T_FWD_BC, T_FWD_RED};

/// Who takes part in each supernode's fan-in and fan-out, derived from the
/// symbolic block structure and the grid shape only, so every rank agrees
/// without communication. Build it once per run with [`SolvePlan::build`]
/// and share it (`Arc`) across ranks and repeated solves.
///
/// Every participant set is sorted, duplicate-free and contains the
/// diagonal owner's coordinate (`k mod pr` or `k mod pc`).
pub struct SolvePlan {
    /// Transposed block structure: `ublocks_into[k]` lists supernodes
    /// `j < k` holding a `U(j, k)` block, ascending.
    ublocks_into: Vec<Vec<usize>>,
    fwd_cols: Vec<Vec<usize>>,
    fwd_rows: Vec<Vec<usize>>,
    bwd_cols: Vec<Vec<usize>>,
    bwd_rows: Vec<Vec<usize>>,
}

impl SolvePlan {
    /// Derive the participant sets of `sym`'s supernodes on `grid`.
    pub fn build(sym: &Symbolic, grid: Grid2d) -> Arc<SolvePlan> {
        let nsup = sym.nsup();
        let struct_of = &sym.fill.struct_of;
        let mut ublocks_into: Vec<Vec<usize>> = vec![Vec::new(); nsup];
        for j in 0..nsup {
            for &i in &struct_of[j] {
                ublocks_into[i].push(j);
            }
        }
        // `{k mod p} ∪ {s mod p : s ∈ of[k]}` for every supernode k.
        let sets = |of: &[Vec<usize>], p: usize| -> Vec<Vec<usize>> {
            (0..nsup)
                .map(|k| {
                    let mut v: Vec<usize> = std::iter::once(k)
                        .chain(of[k].iter().copied())
                        .map(|s| s % p)
                        .collect();
                    v.sort_unstable();
                    v.dedup();
                    v
                })
                .collect()
        };
        Arc::new(SolvePlan {
            fwd_cols: sets(&ublocks_into, grid.pc),
            fwd_rows: sets(struct_of, grid.pr),
            bwd_cols: sets(struct_of, grid.pc),
            bwd_rows: sets(&ublocks_into, grid.pr),
            ublocks_into,
        })
    }

    /// Process columns holding an `L(k, j)` block, which contribute to the
    /// forward partial sum of `k`.
    pub fn fwd_cols(&self, k: usize) -> &[usize] {
        &self.fwd_cols[k]
    }

    /// Process rows holding an `L(i, k)` block, which need `y_k`.
    pub fn fwd_rows(&self, k: usize) -> &[usize] {
        &self.fwd_rows[k]
    }

    /// Process columns holding a `U(k, m)` block, which contribute to the
    /// backward partial sum of `k`.
    pub fn bwd_cols(&self, k: usize) -> &[usize] {
        &self.bwd_cols[k]
    }

    /// Process rows holding a `U(j, k)` block, which need `x_k`.
    pub fn bwd_rows(&self, k: usize) -> &[usize] {
        &self.bwd_rows[k]
    }
}

/// Per-rank running state of a distributed triangular solve.
pub struct DistSolveState {
    /// Forward partial sums: this rank's accumulated `L(I,j) y_j`
    /// contributions, indexed by global (permuted) vector position.
    pub acc: Vec<f64>,
    /// Backward partial sums: accumulated `U(j,k) x_k` contributions.
    pub accu: Vec<f64>,
    /// Forward solutions known to this rank (the diagonal owner and the
    /// rows of [`SolvePlan::fwd_rows`] in its column), keyed by supernode.
    pub y: HashMap<usize, Vec<f64>>,
    /// Backward solutions known to this rank (the diagonal owner and the
    /// rows of [`SolvePlan::bwd_rows`] in its column), keyed by supernode.
    pub x: HashMap<usize, Vec<f64>>,
    /// Participant sets and transposed block index, shared across ranks
    /// and across repeated solves against the same factors.
    pub plan: Arc<SolvePlan>,
}

impl DistSolveState {
    /// Fresh state for a solve of length `n` under `plan`.
    pub fn new(n: usize, plan: Arc<SolvePlan>) -> DistSolveState {
        DistSolveState {
            acc: vec![0.0; n],
            accu: vec![0.0; n],
            y: HashMap::new(),
            x: HashMap::new(),
            plan,
        }
    }
}

/// A structured solve failure at supernode `k`.
fn solve_fail(phase: &str, k: usize, detail: String) -> FailKind {
    FailKind::Solver {
        phase: phase.to_string(),
        supernode: Some(k),
        level: None,
        detail,
    }
}

/// Binomial-tree sum of `data` over `members` (sorted local ranks of
/// `comm`, including the caller and `root`) to `root`, with a fixed combine
/// order so results are bitwise reproducible. Returns `Ok(Some(sum))` on the
/// root and `Ok(None)` elsewhere; an operand of the wrong length is an
/// error.
fn fan_in(
    rank: &mut Rank,
    comm: &Comm,
    members: &[usize],
    root: usize,
    data: Vec<f64>,
    tag: u64,
) -> Result<Option<Vec<f64>>, String> {
    let m = members.len();
    let root = members.partition_point(|&x| x < root);
    let relative = (members.partition_point(|&x| x < comm.local_rank()) + m - root) % m;
    let mut acc = data;
    let mut mask = 1usize;
    while mask < m {
        if relative & mask == 0 {
            let child = relative | mask;
            if child < m {
                let src = members[(child + root) % m];
                let v = rank.recv_f64s(comm, src, tag);
                if v.len() != acc.len() {
                    return Err(format!(
                        "fan-in operand from local rank {src} has {} words, expected {}",
                        v.len(),
                        acc.len()
                    ));
                }
                for (a, b) in acc.iter_mut().zip(v) {
                    *a += b;
                }
            }
        } else {
            let dst = members[((relative & !mask) + root) % m];
            rank.send(comm, dst, tag, Payload::F64s(acc));
            return Ok(None);
        }
        mask <<= 1;
    }
    Ok(Some(acc))
}

/// Binomial-tree broadcast of a length-`len` segment from `root` over
/// `members` (sorted local ranks of `comm`, including the caller and
/// `root`). `data` is `Some` on the root only. Every member returns the
/// segment; a missing root segment or a received segment of the wrong
/// length is an error.
fn fan_out(
    rank: &mut Rank,
    comm: &Comm,
    members: &[usize],
    root: usize,
    data: Option<Vec<f64>>,
    len: usize,
    tag: u64,
) -> Result<Vec<f64>, String> {
    let m = members.len();
    let root = members.partition_point(|&x| x < root);
    let relative = (members.partition_point(|&x| x < comm.local_rank()) + m - root) % m;
    // The parent differs from me in my lowest set bit; the root has none.
    let mut mask = 1usize;
    while mask < m && relative & mask == 0 {
        mask <<= 1;
    }
    let seg = match data {
        Some(seg) if relative == 0 => seg,
        None if relative != 0 => {
            let src = members[(relative - mask + root) % m];
            rank.recv_f64s(comm, src, tag)
        }
        _ => return Err("fan-out segment present off the root or missing on it".to_string()),
    };
    if seg.len() != len {
        return Err(format!(
            "fan-out segment has {} words, expected {len}",
            seg.len()
        ));
    }
    // Forward to children in decreasing bit order below my lowest set bit.
    let mut bit = mask >> 1;
    while bit > 0 {
        if relative + bit < m {
            let dst = members[(relative + bit + root) % m];
            rank.send(comm, dst, tag, Payload::F64s(seg.clone()));
        }
        bit >>= 1;
    }
    Ok(seg)
}

/// Forward substitution over `nodes` (ascending): computes `y_k` on each
/// diagonal owner and spreads `L(I,k) y_k` contributions into `st.acc`.
/// Only the ranks in `k`'s participant sets communicate for `k`.
pub fn forward_nodes(
    rank: &mut Rank,
    env: &FactorEnv,
    store: &BlockStore,
    sym: &Symbolic,
    nodes: &[usize],
    b: &[f64],
    st: &mut DistSolveState,
) {
    let _host = rank.host_scope(HostPhase::SolveFwd);
    let part = &sym.part;
    let grid = env.grid;
    let plan = Arc::clone(&st.plan);
    for &k in nodes {
        let (kr, kc) = (k % grid.pr, k % grid.pc);
        let r = part.ranges[k].clone();
        // 1. Sum the partial sums of the contributing columns of row kr.
        let mut yk: Option<Vec<f64>> = None;
        let cols = &plan.fwd_cols[k];
        if env.my_r == kr && cols.binary_search(&env.my_c).is_ok() {
            let seg: Vec<f64> = st.acc[r.clone()].to_vec();
            let reduced = fan_in(rank, &env.row, cols, kc, seg, T_FWD_RED | k as u64)
                .unwrap_or_else(|e| rank.fail(solve_fail("solve-fwd", k, e)));
            if let Some(sum) = reduced {
                // 2. Diagonal owner solves its segment.
                let Some(diag) = store.get(k, k) else {
                    rank.fail(solve_fail("solve-fwd", k, "diagonal block missing".into()))
                };
                let f0 = flops::get();
                let mut seg: Vec<f64> = r.clone().map(|i| b[i]).collect();
                for (s, a) in seg.iter_mut().zip(sum) {
                    *s -= a;
                }
                forward_subst_unit(diag, &mut seg);
                rank.advance_compute(flops::get() - f0);
                yk = Some(seg);
            }
        }
        // 3. Send y_k down column kc to the rows holding L(I,k).
        let rows = &plan.fwd_rows[k];
        if env.my_c == kc && rows.binary_search(&env.my_r).is_ok() {
            let seg = fan_out(rank, &env.col, rows, kr, yk, r.len(), T_FWD_BC | k as u64)
                .unwrap_or_else(|e| rank.fail(solve_fail("solve-fwd", k, e)));
            // 4. Column ranks apply their L(I,k) blocks.
            let f0 = flops::get();
            for &i in &sym.fill.struct_of[k] {
                if i % grid.pr == env.my_r {
                    if let Some(l) = store.get(i, k) {
                        let contrib = l.matvec(&seg);
                        let ri = part.ranges[i].clone();
                        for (a, c) in st.acc[ri].iter_mut().zip(contrib) {
                            *a += c;
                        }
                    }
                }
            }
            rank.advance_compute(flops::get() - f0);
            st.y.insert(k, seg);
        }
    }
}

/// Apply an externally received ancestor solution `x_k` to this rank's
/// backward accumulators: `accu_j += U(j,k) x_k` for every owned `U(j,k)`.
/// Used by the 3D solve when ancestor solutions arrive over the z-axis
/// instead of through this layer's own backward pass. The caller must be in
/// process column `k % pc`.
pub fn apply_ancestor_x(
    rank: &mut Rank,
    env: &FactorEnv,
    store: &BlockStore,
    sym: &Symbolic,
    k: usize,
    xk: &[f64],
    st: &mut DistSolveState,
) {
    debug_assert_eq!(env.my_c, k % env.grid.pc);
    let f0 = flops::get();
    for &j in &st.plan.ublocks_into[k] {
        if j % env.grid.pr == env.my_r {
            if let Some(u) = store.get(j, k) {
                let contrib = u.matvec(xk);
                let rj = sym.part.ranges[j].clone();
                for (a, c) in st.accu[rj].iter_mut().zip(contrib) {
                    *a += c;
                }
            }
        }
    }
    rank.advance_compute(flops::get() - f0);
    st.x.insert(k, xk.to_vec());
}

/// Backward substitution over `nodes` (processed in descending order):
/// computes `x_k` on each diagonal owner, writing solved segments into
/// `x_out`, and spreads `U(j,k) x_k` contributions into `st.accu`.
/// Only the ranks in `k`'s participant sets communicate for `k`.
pub fn backward_nodes(
    rank: &mut Rank,
    env: &FactorEnv,
    store: &BlockStore,
    sym: &Symbolic,
    nodes: &[usize],
    st: &mut DistSolveState,
    x_out: &mut [f64],
) {
    let _host = rank.host_scope(HostPhase::SolveBwd);
    let part = &sym.part;
    let grid = env.grid;
    let plan = Arc::clone(&st.plan);
    for &k in nodes.iter().rev() {
        let (kr, kc) = (k % grid.pr, k % grid.pc);
        let r = part.ranges[k].clone();
        let mut xk: Option<Vec<f64>> = None;
        let cols = &plan.bwd_cols[k];
        if env.my_r == kr && cols.binary_search(&env.my_c).is_ok() {
            let seg: Vec<f64> = st.accu[r.clone()].to_vec();
            let reduced = fan_in(rank, &env.row, cols, kc, seg, T_BWD_RED | k as u64)
                .unwrap_or_else(|e| rank.fail(solve_fail("solve-bwd", k, e)));
            if let Some(sum) = reduced {
                let (Some(diag), Some(yk)) = (store.get(k, k), st.y.get(&k)) else {
                    rank.fail(solve_fail(
                        "solve-bwd",
                        k,
                        "diagonal owner lacks its block or y_k".into(),
                    ))
                };
                let f0 = flops::get();
                let mut seg = yk.clone();
                for (s, a) in seg.iter_mut().zip(sum) {
                    *s -= a;
                }
                backward_subst(diag, &mut seg);
                rank.advance_compute(flops::get() - f0);
                x_out[r.clone()].copy_from_slice(&seg);
                xk = Some(seg);
            }
        }
        let rows = &plan.bwd_rows[k];
        if env.my_c == kc && rows.binary_search(&env.my_r).is_ok() {
            let seg = fan_out(rank, &env.col, rows, kr, xk, r.len(), T_BWD_BC | k as u64)
                .unwrap_or_else(|e| rank.fail(solve_fail("solve-bwd", k, e)));
            let f0 = flops::get();
            for &j in &plan.ublocks_into[k] {
                if j % grid.pr == env.my_r {
                    if let Some(u) = store.get(j, k) {
                        let contrib = u.matvec(&seg);
                        let rj = part.ranges[j].clone();
                        for (a, c) in st.accu[rj].iter_mut().zip(contrib) {
                            *a += c;
                        }
                    }
                }
            }
            rank.advance_compute(flops::get() - f0);
            st.x.insert(k, seg);
        }
    }
}

/// Solve `L U x = b` on the 2D grid for the supernodes in `nodes`
/// (ascending; pass all supernodes for a full solve). `b` is the
/// right-hand side in permuted ordering; only the diagonal owner of each
/// supernode reads its rows. `plan` must come from [`SolvePlan::build`] for
/// this grid. Returns this rank's *partial* solution vector: the segments
/// this rank solved (diagonal owners), zero elsewhere.
pub fn solve_nodes(
    rank: &mut Rank,
    env: &FactorEnv,
    store: &BlockStore,
    sym: &Symbolic,
    plan: &Arc<SolvePlan>,
    nodes: &[usize],
    b: &[f64],
) -> Vec<f64> {
    assert_eq!(b.len(), sym.part.n());
    let mut st = DistSolveState::new(sym.part.n(), Arc::clone(plan));
    forward_nodes(rank, env, store, sym, nodes, b, &mut st);
    let mut x_out = vec![0.0; sym.part.n()];
    backward_nodes(rank, env, store, sym, nodes, &mut st, &mut x_out);
    x_out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Prepared;
    use sparsemat::matgen::grid2d_5pt;
    use sparsemat::testmats::Geometry;

    #[test]
    fn participant_sets_follow_the_block_pattern() {
        let prep = Prepared::new(
            grid2d_5pt(12, 12, 0.1, 1),
            Geometry::Grid2d { nx: 12, ny: 12 },
            8,
            8,
        );
        let sym = &prep.sym;
        let grid = Grid2d::new(3, 2);
        let plan = SolvePlan::build(sym, grid);
        for k in 0..sym.nsup() {
            let struct_k = &sym.fill.struct_of[k];
            let into_k: Vec<usize> = (0..sym.nsup())
                .filter(|&j| sym.fill.struct_of[j].contains(&k))
                .collect();
            assert_eq!(plan.ublocks_into[k], into_k);
            let reference = |of: &[usize], p: usize| -> Vec<usize> {
                (0..p)
                    .filter(|&x| x == k % p || of.iter().any(|s| s % p == x))
                    .collect()
            };
            assert_eq!(plan.fwd_cols[k], reference(&into_k, grid.pc));
            assert_eq!(plan.fwd_rows[k], reference(struct_k, grid.pr));
            assert_eq!(plan.bwd_cols[k], reference(struct_k, grid.pc));
            assert_eq!(plan.bwd_rows[k], reference(&into_k, grid.pr));
        }
    }
}

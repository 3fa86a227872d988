//! Solve plus iterative refinement on an owner-distributed solution.
//!
//! Every supernode segment of x lives only on its *owner*, the rank that
//! solved it: the diagonal owner `(k mod pr, k mod pc)` on the grid that
//! factors `k` (grid 0 when the factors were gathered there). No rank holds
//! the whole of x. A refinement step needs `r = b - A x` on the owned rows
//! only, and a row of `A` touches only its structural neighbours, so each
//! step is:
//!
//! 1. **Halo exchange.** The owner of segment `t` sends `x_t` to the owner
//!    of every supernode adjacent to `t` in `A`'s block pattern: one
//!    `F64s` message per ordered (src, dst) owner pair on
//!    `T_X_HALO | step`. Both ends derive the segment list from the
//!    [`RefinePlan`], so the message carries no metadata and the receiver
//!    checks its length.
//! 2. **Residual** on the owned rows, in `Csr::matvec`'s loop order, so it
//!    is bitwise the residual a replicated x would give.
//! 3. **Correction.** Solve for dx and add it to the owned segments.
//!
//! The caller assembles the final x on the host from the owners' segments;
//! the simulated machine never gathers it onto one rank.

use simgrid::tags::T_X_HALO;
use simgrid::{FailKind, Grid3d, Payload, Rank};
use sparsemat::Csr;
use std::collections::BTreeMap;
use std::sync::Arc;
use symbolic::SnPartition;

/// Who owns each solution segment and which segments each owner needs
/// from the others, derived from the symbolic structure only. Build it
/// once per run with [`RefinePlan::build`] and share it (`Arc`) across
/// ranks.
pub struct RefinePlan {
    /// World rank owning supernode `k`'s segment.
    owner: Vec<usize>,
    /// `adj[k]`: supernodes `t != k` with a stored `pa(i, j)`, `i ∈ k`,
    /// `j ∈ t`; ascending. Symmetric because `pa`'s pattern is.
    adj: Vec<Vec<usize>>,
    /// `owned[rank]`: the supernodes `rank` owns, ascending.
    owned: Vec<Vec<usize>>,
}

impl RefinePlan {
    /// Owners and block adjacency of `pa` (pattern-symmetric, as
    /// `Prepared::pa` is) partitioned by `part`, on `grid3`; `owner_z(k)`
    /// is the grid that solves supernode `k`.
    pub fn build(
        pa: &Csr,
        part: &SnPartition,
        grid3: &Grid3d,
        owner_z: impl Fn(usize) -> usize,
    ) -> Arc<RefinePlan> {
        let nsup = part.ranges.len();
        let grid = grid3.grid2d;
        let owner: Vec<usize> = (0..nsup)
            .map(|k| grid3.rank_of(k % grid.pr, k % grid.pc, owner_z(k)))
            .collect();
        let adj: Vec<Vec<usize>> = (0..nsup)
            .map(|k| {
                let mut a: Vec<usize> = part.ranges[k]
                    .clone()
                    .flat_map(|i| pa.row_cols(i).iter().map(|&j| part.sn_of_col[j]))
                    .filter(|&t| t != k)
                    .collect();
                a.sort_unstable();
                a.dedup();
                a
            })
            .collect();
        debug_assert!(
            (0..nsup).all(|k| adj[k].iter().all(|&t| adj[t].binary_search(&k).is_ok())),
            "block adjacency must be symmetric"
        );
        let mut owned = vec![Vec::new(); grid3.size()];
        for (k, &o) in owner.iter().enumerate() {
            owned[o].push(k);
        }
        Arc::new(RefinePlan { owner, adj, owned })
    }

    /// World rank owning supernode `k`'s segment.
    pub fn owner(&self, k: usize) -> usize {
        self.owner[k]
    }

    /// Supernodes whose segments `rank` owns, ascending.
    pub fn owned(&self, rank: usize) -> &[usize] {
        &self.owned[rank]
    }

    /// The halo `rank` sends in one exchange: for each other owner `dst`
    /// (ascending), the owned segments adjacent to a supernode `dst` owns.
    pub fn halo_sends(&self, rank: usize) -> Vec<(usize, Vec<usize>)> {
        self.halo(rank, |t, k| (self.owner[k], t))
    }

    /// The halo `rank` receives in one exchange: for each other owner `src`
    /// (ascending), the segments of `src` adjacent to one `rank` owns. The
    /// mirror image of [`RefinePlan::halo_sends`].
    pub fn halo_recvs(&self, rank: usize) -> Vec<(usize, Vec<usize>)> {
        self.halo(rank, |_, t| (self.owner[t], t))
    }

    /// Group `peer_seg(mine, neighbour)` over every owned supernode and its
    /// neighbours by peer, dropping `rank` itself; segments ascending.
    fn halo(
        &self,
        rank: usize,
        peer_seg: impl Fn(usize, usize) -> (usize, usize),
    ) -> Vec<(usize, Vec<usize>)> {
        let mut by_peer: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &k in &self.owned[rank] {
            for &t in &self.adj[k] {
                let (peer, seg) = peer_seg(k, t);
                if peer != rank {
                    by_peer.entry(peer).or_default().push(seg);
                }
            }
        }
        by_peer
            .into_iter()
            .map(|(peer, mut segs)| {
                segs.sort_unstable();
                segs.dedup();
                (peer, segs)
            })
            .collect()
    }
}

/// Solve `A x = b` with `solve`, then run `steps` refinement sweeps.
/// `solve` maps a right-hand side valid on this rank's owned rows to a
/// full-length vector whose owned segments hold the solution; `b` is the
/// permuted right-hand side. Returns this rank's owned segments of x,
/// concatenated in [`RefinePlan::owned`] order.
///
/// A halo message of the wrong kind or length surfaces as a structured
/// [`FailKind::Solver`] in phase `refine`.
pub fn solve_and_refine(
    rank: &mut Rank,
    plan: &RefinePlan,
    pa: &Csr,
    part: &SnPartition,
    b: &[f64],
    steps: usize,
    mut solve: impl FnMut(&mut Rank, &[f64]) -> Result<Vec<f64>, FailKind>,
) -> Result<Vec<f64>, FailKind> {
    let owned = plan.owned(rank.id());
    let mut x = solve(rank, b)?;
    for step in 0..steps {
        exchange_halo(rank, plan, part, step, &mut x)?;
        let r = owned_residual(rank, pa, part, owned, b, &x);
        let dx = solve(rank, &r)?;
        for &k in owned {
            let rk = part.ranges[k].clone();
            for (xi, di) in x[rk.clone()].iter_mut().zip(&dx[rk]) {
                *xi += di;
            }
        }
    }
    Ok(owned
        .iter()
        .flat_map(|&k| x[part.ranges[k].clone()].iter().copied())
        .collect())
}

/// Ship the owned segments of `x` to the owners that need them and fill
/// `x`'s halo segments from the owners that hold them.
fn exchange_halo(
    rank: &mut Rank,
    plan: &RefinePlan,
    part: &SnPartition,
    step: usize,
    x: &mut [f64],
) -> Result<(), FailKind> {
    let world = rank.world();
    let tag = T_X_HALO | step as u64;
    for (dst, segs) in plan.halo_sends(rank.id()) {
        let data: Vec<f64> = segs
            .iter()
            .flat_map(|&t| x[part.ranges[t].clone()].iter().copied())
            .collect();
        rank.send(&world, dst, tag, Payload::F64s(data));
    }
    let fail = |detail: String| FailKind::Solver {
        phase: "refine".to_string(),
        supernode: None,
        level: None,
        detail,
    };
    for (src, segs) in plan.halo_recvs(rank.id()) {
        let words: usize = segs.iter().map(|&t| part.width(t)).sum();
        let data = rank
            .recv_checked(&world, src, tag)
            .map_err(|e| fail(format!("halo recv from rank {src} failed: {e}")))?
            .try_into_f64s()
            .map_err(|e| fail(format!("halo from rank {src}: {e}; expected {words} words")))?;
        if data.len() != words {
            return Err(fail(format!(
                "halo from rank {src} has {} words, expected {words}",
                data.len()
            )));
        }
        let mut rest = &data[..];
        for &t in &segs {
            let rt = part.ranges[t].clone();
            let (seg, tail) = rest.split_at(rt.len());
            x[rt].copy_from_slice(seg);
            rest = tail;
        }
    }
    Ok(())
}

/// `r = b - pa x` on the rows of the `owned` segments (zero elsewhere),
/// charging `2 nnz` flops for them.
fn owned_residual(
    rank: &mut Rank,
    pa: &Csr,
    part: &SnPartition,
    owned: &[usize],
    b: &[f64],
    x: &[f64],
) -> Vec<f64> {
    let mut r = vec![0.0; b.len()];
    let mut nnz = 0;
    for &k in owned {
        for i in part.ranges[k].clone() {
            let mut s = 0.0;
            for (c, v) in pa.row_cols(i).iter().zip(pa.row_vals(i)) {
                s += v * x[*c];
            }
            r[i] = b[i] - s;
            nnz += pa.row_cols(i).len();
        }
    }
    rank.advance_compute(2 * nnz as u64);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgrid::{Machine, TimeModel};
    use slu2d::driver::Prepared;
    use sparsemat::matgen::grid2d_5pt;
    use sparsemat::testmats::Geometry;

    fn prep() -> Prepared {
        Prepared::new(
            grid2d_5pt(10, 10, 0.1, 4),
            Geometry::Grid2d { nx: 10, ny: 10 },
            8,
            8,
        )
    }

    #[test]
    fn halo_lists_mirror_each_other() {
        let prep = prep();
        let grid3 = Grid3d::new(2, 3, 2);
        let plan = RefinePlan::build(&prep.pa, &prep.sym.part, &grid3, |k| k % 2);
        for src in 0..grid3.size() {
            for (dst, segs) in plan.halo_sends(src) {
                let mirror = plan.halo_recvs(dst);
                let got = mirror.iter().find(|(s, _)| *s == src).map(|(_, v)| v);
                assert_eq!(got, Some(&segs), "{src} -> {dst}");
                assert!(segs.iter().all(|&t| plan.owner(t) == src));
            }
        }
    }

    /// Runs a 1x2x1 machine where rank 1 answers rank 0's halo with
    /// `forged`, and rank 0 runs the halo exchange; returns what the
    /// exchange returned there.
    fn halo_against_forged_peer(forged: Payload) -> Result<(), FailKind> {
        let prep = prep();
        let grid3 = Grid3d::new(1, 2, 1);
        let plan = RefinePlan::build(&prep.pa, &prep.sym.part, &grid3, |_| 0);
        assert!(
            plan.halo_recvs(0).iter().any(|&(src, _)| src == 1),
            "rank 0 must expect a halo from rank 1"
        );
        let sym = Arc::clone(&prep.sym);
        let n = sym.part.n();
        let out = Machine::new(2, TimeModel::zero()).run(move |rank| {
            if rank.id() == 1 {
                // Take rank 0's halo first, as the real peer would, so
                // rank 0 never sends to a finished rank.
                let world = rank.world();
                rank.recv(&world, 0, T_X_HALO);
                rank.send(&world, 0, T_X_HALO, forged.clone());
                return None;
            }
            let mut x = vec![0.0; n];
            Some(exchange_halo(rank, &plan, &sym.part, 0, &mut x))
        });
        out.results.into_iter().flatten().next().expect("rank 0")
    }

    fn assert_refine_failure(r: Result<(), FailKind>) {
        match r {
            Err(FailKind::Solver { phase, detail, .. }) => {
                assert_eq!(phase, "refine", "{detail}");
                assert!(detail.contains("from rank 1"), "{detail}");
                assert!(detail.contains("expected"), "{detail}");
            }
            other => panic!("expected a refine solver failure, got {other:?}"),
        }
    }

    #[test]
    fn short_halo_fails_structurally() {
        assert_refine_failure(halo_against_forged_peer(Payload::F64s(vec![0.0])));
    }

    #[test]
    fn wrong_kind_halo_fails_structurally() {
        assert_refine_failure(halo_against_forged_peer(Payload::Idx(vec![0])));
    }
}

//! Distributed 3D triangular solve: forward/backward substitution that
//! follows the factorization's data placement instead of gathering factors
//! to one grid.
//!
//! The structure mirrors Algorithm 1:
//!
//! - **Forward** (leaves → root): each active grid forward-substitutes its
//!   forest level with the 2D fan-in kernel, accumulating `L(I,j) y_j`
//!   contributions into its replicated *ancestor accumulator* segments;
//!   after each level, pairs of grids sum those segments along the z-axis
//!   (the vector analogue of the ancestor reduction).
//! - **Backward** (root → leaves): the surviving grid back-substitutes the
//!   top levels; as the recursion descends, each newly activated grid first
//!   receives the ancestor solution segments from its pair partner over the
//!   z-axis and applies its own `U(j,k) x_k` cross terms, then solves its
//!   level.
//!
//! Both z-transfers follow the 2D solve's participant sets
//! ([`SolvePlan`]): a rank ships only the segments it can hold a nonzero
//! value of (forward) or knows the solution of (backward), the receiver
//! derives the same list from the symbolic structure and checks the
//! payload against it, and a rank with nothing to ship skips the message.
//!
//! Every supernode `k` is solved exactly once, by its *owner*: the
//! diagonal owner `(k mod pr, k mod pc)` on the grid that factored it
//! (`EtreeForest::factoring_grid`). Only the owner reads `b` over `k`'s
//! rows and writes `k`'s segment of the output, which is how
//! [`crate::refine`] keeps the solution owner-distributed. SuperLU_DIST gained an analogous 3D solve after the paper;
//! here it doubles as a consistency check against the gather-based solve
//! in [`crate::gather`].

use crate::forest::EtreeForest;
use simgrid::topology::GridComms;
use simgrid::{FailKind, Grid2d, Grid3d, Payload, Rank};
use slu2d::factor2d::{FactorEnv, FactorOpts};
use slu2d::solve2d::{apply_ancestor_x, backward_nodes, forward_nodes, DistSolveState, SolvePlan};
use slu2d::store::BlockStore;
use std::sync::Arc;
use symbolic::Symbolic;

use simgrid::tags::{T_ACC_RED, T_X_DOWN};

/// Solve `L U x = b` with the factors laid out as [`crate::factor3d`] left
/// them. `b` is the permuted right-hand side; only the rows of the
/// segments this rank owns are read. Returns a full-length vector holding
/// this rank's owned segments of x, zero elsewhere.
///
/// Like [`crate::factor3d::factor_3d`], a z-line transfer that cannot
/// complete (or carries the wrong payload kind) surfaces as a structured
/// [`FailKind::Solver`] naming the sweep and forest level, for the caller
/// to fail the rank with.
#[allow(clippy::too_many_arguments)]
pub fn solve_3d(
    rank: &mut Rank,
    grid3: &Grid3d,
    comms: &GridComms,
    store: &BlockStore,
    sym: &Symbolic,
    forest: &EtreeForest,
    opts: FactorOpts,
    plan: &Arc<SolvePlan>,
    b: &[f64],
) -> Result<Vec<f64>, FailKind> {
    let l = forest.l;
    let (my_r, my_c, my_z) = comms.coords;
    let env = FactorEnv {
        grid: grid3.grid2d,
        my_r,
        my_c,
        row: comms.row.clone(),
        col: comms.col.clone(),
        opts,
    };
    let mut st = DistSolveState::new(sym.part.n(), Arc::clone(plan));
    let mut x_out = vec![0.0; sym.part.n()];

    // ---- Forward sweep: leaves to root, acc reduced along z. ----
    for lvl in (0..=l).rev() {
        let step = 1usize << (l - lvl);
        if my_z % step != 0 {
            continue;
        }
        let q = my_z >> (l - lvl);
        let nodes = forest.supernodes_of(lvl, q, &sym.part);
        let sweep_span = rank.span_enter(simgrid::SpanCat::Level, &format!("fwd{lvl}"));
        forward_nodes(rank, &env, store, sym, &nodes, b, &mut st);
        if lvl == 0 {
            rank.span_exit(sweep_span);
            break;
        }
        // Pairwise accumulator reduction over the shared ancestor segments
        // this rank can hold a partial sum of; every other segment is
        // structurally zero here, and a rank with none skips the transfer.
        let k = my_z / step;
        let segs = acc_segments(forest, sym, plan, (my_r, my_c, my_z), lvl, grid3.grid2d);
        let words: usize = segs.iter().map(|&s| sym.part.width(s)).sum();
        if segs.is_empty() {
            // Nothing to reduce along z at this level.
        } else if k.is_multiple_of(2) {
            let src_z = my_z + step;
            let fwd_err = |detail: String| FailKind::Solver {
                phase: "solve-fwd".to_string(),
                supernode: None,
                level: Some(lvl),
                detail,
            };
            let data = rank
                .recv_checked(&comms.zline, src_z, T_ACC_RED | lvl as u64)
                .map_err(|e| {
                    fwd_err(format!(
                        "accumulator reduction recv from z={src_z} failed: {e}"
                    ))
                })?
                .try_into_f64s()
                .map_err(|e| fwd_err(format!("accumulator reduction from z={src_z}: {e}")))?;
            if data.len() != words {
                return Err(fwd_err(format!(
                    "accumulator reduction from z={src_z} has {} words, expected {words}",
                    data.len()
                )));
            }
            let mut off = 0;
            for &s in &segs {
                for i in sym.part.ranges[s].clone() {
                    st.acc[i] += data[off];
                    off += 1;
                }
            }
        } else {
            let dest_z = my_z - step;
            let mut data = Vec::with_capacity(words);
            for &s in &segs {
                data.extend_from_slice(&st.acc[sym.part.ranges[s].clone()]);
            }
            rank.send(
                &comms.zline,
                dest_z,
                T_ACC_RED | lvl as u64,
                Payload::F64s(data),
            );
        }
        rank.span_exit(sweep_span);
    }

    // ---- Backward sweep: root to leaves, x broadcast down the pair tree. ----
    for lvl in 0..=l {
        let step = 1usize << (l - lvl);
        if my_z % step != 0 {
            continue;
        }
        let k = my_z / step;
        let sweep_span = rank.span_enter(simgrid::SpanCat::Level, &format!("bwd{lvl}"));
        // A grid is "born" at the first level where it is active; except for
        // grid 0 (born at level 0), it first receives the ancestor solution
        // segments from its pair partner.
        let born_here = my_z != 0 && k % 2 == 1;
        let bwd_err = |supernode: Option<usize>, detail: String| FailKind::Solver {
            phase: "solve-bwd".to_string(),
            supernode,
            level: Some(lvl),
            detail,
        };
        if born_here && lvl > 0 {
            let expect = x_segments(forest, sym, plan, (my_r, my_c, my_z), lvl - 1, grid3.grid2d);
            if !expect.is_empty() {
                let dest_z = my_z - step;
                let (meta, data) = rank
                    .recv_checked(&comms.zline, dest_z, T_X_DOWN | lvl as u64)
                    .map_err(|e| {
                        bwd_err(None, format!("ancestor-x recv from z={dest_z} failed: {e}"))
                    })?
                    .try_into_packed()
                    .map_err(|e| bwd_err(None, format!("ancestor-x from z={dest_z}: {e}")))?;
                let words: usize = expect.iter().map(|&s| sym.part.width(s)).sum();
                if meta != expect || data.len() != words {
                    return Err(bwd_err(
                        None,
                        format!(
                            "ancestor-x from z={dest_z} carries supernodes {meta:?} in {} words, \
                             expected {expect:?} in {words} words",
                            data.len()
                        ),
                    ));
                }
                let mut off = 0;
                for &s in &meta {
                    let w = sym.part.width(s);
                    apply_ancestor_x(rank, &env, store, sym, s, &data[off..off + w], &mut st);
                    off += w;
                }
            }
        }
        let q = my_z >> (l - lvl);
        let nodes = forest.supernodes_of(lvl, q, &sym.part);
        backward_nodes(rank, &env, store, sym, &nodes, &mut st, &mut x_out);

        // Hand the chain solutions this rank knows to the grid born at the
        // next level (my pair partner there).
        if lvl < l {
            let peer_z = my_z + step / 2;
            let meta = x_segments(forest, sym, plan, (my_r, my_c, my_z), lvl, grid3.grid2d);
            if !meta.is_empty() {
                let mut data = Vec::new();
                for &s in &meta {
                    let xk = st.x.get(&s).ok_or_else(|| {
                        bwd_err(
                            Some(s),
                            format!("x segment of chain supernode {s} unknown on this rank"),
                        )
                    })?;
                    data.extend_from_slice(xk);
                }
                rank.send(
                    &comms.zline,
                    peer_z,
                    T_X_DOWN | (lvl + 1) as u64,
                    Payload::Packed { meta, data },
                );
            }
        }
        rank.span_exit(sweep_span);
    }
    Ok(x_out)
}

/// Supernodes of the forest levels `levels` on grid `z`'s chain,
/// ascending.
fn chain_supernodes(
    forest: &EtreeForest,
    sym: &Symbolic,
    z: usize,
    levels: std::ops::Range<usize>,
) -> Vec<usize> {
    let l = forest.l;
    let mut out = Vec::new();
    for la in levels {
        out.extend(forest.supernodes_of(la, z >> (l - la), &sym.part));
    }
    out.sort_unstable();
    out
}

/// Ancestor segments (levels above `lvl`) for which rank `(r, c, z)` can
/// hold a nonzero forward partial sum: segment `s` lives in process row
/// `s mod pr`, and only the columns of [`SolvePlan::fwd_cols`] contribute
/// to it. Both ends of the `T_ACC_RED` transfer derive the same list.
fn acc_segments(
    forest: &EtreeForest,
    sym: &Symbolic,
    plan: &SolvePlan,
    (r, c, z): (usize, usize, usize),
    lvl: usize,
    grid: Grid2d,
) -> Vec<usize> {
    let mut segs = chain_supernodes(forest, sym, z, 0..lvl);
    segs.retain(|&s| s % grid.pr == r && plan.fwd_cols(s).binary_search(&c).is_ok());
    segs
}

/// Chain supernodes at levels `0..=lvl` whose solution rank `(r, c, z)`
/// knows after its backward sweep of level `lvl`: those in process column
/// `s mod pc` whose [`SolvePlan::bwd_rows`] include `r`. Both ends of the
/// `T_X_DOWN` transfer derive the same list.
fn x_segments(
    forest: &EtreeForest,
    sym: &Symbolic,
    plan: &SolvePlan,
    (r, c, z): (usize, usize, usize),
    lvl: usize,
    grid: Grid2d,
) -> Vec<usize> {
    let mut segs = chain_supernodes(forest, sym, z, 0..lvl + 1);
    segs.retain(|&s| s % grid.pc == c && plan.bwd_rows(s).binary_search(&r).is_ok());
    segs
}

#[cfg(test)]
mod tests {
    use crate::solver::{factor_and_solve, SolveStrategy, SolverConfig};
    use simgrid::TimeModel;
    use slu2d::driver::Prepared;
    use sparsemat::matgen::{grid2d_5pt, grid3d_7pt};
    use sparsemat::testmats::Geometry;

    fn residual_with(
        a: sparsemat::Csr,
        geometry: Geometry,
        pr: usize,
        pc: usize,
        pz: usize,
    ) -> f64 {
        let n = a.nrows;
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 11 % 19) as f64) - 9.0).collect();
        let b = a.matvec(&x_true);
        let prep = Prepared::new(a, geometry, 8, 8);
        let out = factor_and_solve(
            &prep,
            &SolverConfig {
                pr,
                pc,
                pz,
                solve_strategy: SolveStrategy::Distributed3d,
                model: TimeModel::zero(),
                ..Default::default()
            },
            Some(b.clone()),
        );
        let bmax = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        prep.a.residual_inf(&out.x.unwrap(), &b) / bmax
    }

    #[test]
    fn distributed_solve_deep_z() {
        let r = residual_with(
            grid2d_5pt(16, 16, 0.1, 1),
            Geometry::Grid2d { nx: 16, ny: 16 },
            1,
            1,
            8,
        );
        assert!(r < 1e-9, "residual {r}");
    }

    #[test]
    fn distributed_solve_mixed_layers() {
        let r = residual_with(
            grid3d_7pt(5, 5, 5, 0.1, 2),
            Geometry::Grid3d {
                nx: 5,
                ny: 5,
                nz: 5,
            },
            2,
            2,
            4,
        );
        assert!(r < 1e-9, "residual {r}");
    }

    #[test]
    fn distributed_solve_rectangular_layers() {
        let r = residual_with(
            grid2d_5pt(14, 14, 0.1, 3),
            Geometry::Grid2d { nx: 14, ny: 14 },
            3,
            1,
            2,
        );
        assert!(r < 1e-9, "residual {r}");
    }

    #[test]
    fn solve_traffic_is_tagged_solve() {
        // The 3D solve must never pollute the factorization's W_fact/W_red
        // counters (they feed Fig. 10).
        let a = grid2d_5pt(10, 10, 0.1, 4);
        let b: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let prep = Prepared::new(a, Geometry::Grid2d { nx: 10, ny: 10 }, 8, 8);
        let cfg = SolverConfig {
            pr: 1,
            pc: 2,
            pz: 2,
            model: TimeModel::zero(),
            ..Default::default()
        };
        let fact = crate::solver::factor_only(&prep, &cfg);
        let solved = factor_and_solve(&prep, &cfg, Some(b));
        assert_eq!(fact.w_fact(), solved.w_fact());
        assert_eq!(fact.w_red(), solved.w_red());
        // ... and the solve did send something, under its own label.
        let solve_words = simgrid::TrafficSummary::max_sent_words_in(&solved.reports, "solve");
        assert!(solve_words > 0);
    }
    /// Runs a 1x1x2 machine where world rank `forger` sends `forged` on
    /// the z-line instead of solving, and the other rank runs `solve_3d`;
    /// returns what `solve_3d` returned there.
    fn solve_against_forged_peer(
        forger: usize,
        tag: u64,
        forged: simgrid::Payload,
    ) -> Result<Vec<f64>, simgrid::FailKind> {
        use super::*;
        use simgrid::topology::build_grid_comms;
        use simgrid::Machine;
        use slu2d::store::InitValues;

        let prep = Prepared::new(
            grid2d_5pt(10, 10, 0.1, 4),
            Geometry::Grid2d { nx: 10, ny: 10 },
            8,
            8,
        );
        let grid3 = Grid3d::new(1, 1, 2);
        let forest = Arc::new(EtreeForest::build(&prep.tree, &prep.sym, 2));
        let plan = SolvePlan::build(&prep.sym, grid3.grid2d);
        let (pa, sym) = (Arc::clone(&prep.pa), Arc::clone(&prep.sym));
        let b: Vec<f64> = (0..sym.part.n()).map(|i| i as f64).collect();
        let out = Machine::new(2, TimeModel::zero()).run(move |rank| {
            let comms = build_grid_comms(rank, &grid3);
            if rank.id() == forger {
                if forger == 0 {
                    // Consume z = 1's forward accumulator reduction first,
                    // as the real partner would, so z = 1 gets to its
                    // backward sweep.
                    rank.recv(&comms.zline, 1, T_ACC_RED | 1);
                }
                rank.send(&comms.zline, 1 - forger, tag, forged.clone());
                return None;
            }
            let store = BlockStore::build(
                &pa,
                &sym,
                &grid3.grid2d,
                0,
                0,
                &|_| true,
                InitValues::FromMatrix,
            );
            let opts = FactorOpts::default();
            Some(solve_3d(
                rank, &grid3, &comms, &store, &sym, &forest, opts, &plan, &b,
            ))
        });
        out.results
            .into_iter()
            .flatten()
            .next()
            .expect("solver rank")
    }

    fn assert_solver_failure(r: Result<Vec<f64>, simgrid::FailKind>, want_phase: &str) {
        match r {
            Err(simgrid::FailKind::Solver { phase, detail, .. }) => {
                assert_eq!(phase, want_phase, "{detail}");
                assert!(detail.contains("expected"), "{detail}");
            }
            other => panic!("expected a {want_phase} solver failure, got {other:?}"),
        }
    }

    #[test]
    fn short_accumulator_reduction_fails_structurally() {
        // z = 1 hands z = 0 one word where its ancestor segments need more.
        let r = solve_against_forged_peer(
            1,
            simgrid::tags::T_ACC_RED | 1,
            simgrid::Payload::F64s(vec![0.0]),
        );
        assert_solver_failure(r, "solve-fwd");
    }

    #[test]
    fn unexpected_ancestor_x_meta_fails_structurally() {
        // z = 0 hands z = 1 a solution for a supernode outside the chain.
        let r = solve_against_forged_peer(
            0,
            simgrid::tags::T_X_DOWN | 1,
            simgrid::Payload::Packed {
                meta: vec![0],
                data: vec![0.0],
            },
        );
        assert_solver_failure(r, "solve-bwd");
    }
}

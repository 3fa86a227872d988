//! The triangular solves communicate only among the ranks that structurally
//! need each supernode (`slu2d::solve2d::SolvePlan`), and refinement only
//! among the owners `A`'s pattern couples (`lu3d::refine::RefinePlan`):
//! their message count is predicted exactly by the symbolic structure, and
//! grids much wider than the block structure still solve to full accuracy.

use salu::lu3d::solver::SolveStrategy;
use salu::prelude::*;
use salu::simgrid::CommClass;
use salu::slu2d::solve2d::SolvePlan;
use salu::sparsemat::matgen::{grid2d_5pt, grid3d_7pt, kkt_3d};
use std::collections::BTreeSet;

fn rhs(a: &Csr) -> Vec<f64> {
    let x_true: Vec<f64> = (0..a.nrows).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
    a.matvec(&x_true)
}

fn config(grid: (usize, usize, usize), strategy: SolveStrategy, backend: Backend) -> SolverConfig {
    SolverConfig {
        pr: grid.0,
        pc: grid.1,
        pz: grid.2,
        model: TimeModel::edison_like(),
        solve_strategy: strategy,
        backend,
        refine_steps: 1,
        ..Default::default()
    }
}

/// Ordered pairs of distinct owners `(owner(t), owner(k))` with a stored
/// `pa(i, j)`, `i` in supernode `k`, `j` in supernode `t`, on a `Pz = 1`
/// grid, where supernode `k` is owned by rank `(k mod pr, k mod pc)`.
fn halo_pairs(prep: &Prepared, (pr, pc): (usize, usize)) -> u64 {
    let part = &prep.sym.part;
    let owner = |col: usize| {
        let k = part.sn_of_col[col];
        (k % pr) * pc + k % pc
    };
    let mut pairs = BTreeSet::new();
    for i in 0..prep.pa.nrows {
        for &j in prep.pa.row_cols(i) {
            if owner(j) != owner(i) {
                pairs.insert((owner(j), owner(i)));
            }
        }
    }
    pairs.len() as u64
}

fn solve_msgs(out: &Output3d) -> u64 {
    out.reports
        .iter()
        .map(|r| r.traffic.get("solve").map_or(0, |c| c.sent_msgs))
        .sum()
}

/// On a Pz = 1 grid every solve sends `|set| - 1` messages per participant
/// set and supernode (binomial fan-in and fan-out), and every refinement
/// step exchanges one halo message per ordered (src, dst) pair of distinct
/// owners whose segments are coupled by `A`'s pattern. Nothing else is
/// sent in the solve phase, and no collective runs in it.
#[test]
fn pz1_solve_message_count_equals_the_symbolic_prediction() {
    let a = grid2d_5pt(20, 20, 0.1, 3);
    let prep = Prepared::new(a, Geometry::Grid2d { nx: 20, ny: 20 }, 8, 8);
    let b = rhs(&prep.a);
    for grid in [(2, 2), (4, 1), (1, 4), (3, 5), (4, 4)] {
        let cfg = config(
            (grid.0, grid.1, 1),
            SolveStrategy::Distributed3d,
            Backend::Event,
        );
        let plan = SolvePlan::build(&prep.sym, salu::simgrid::Grid2d::new(grid.0, grid.1));
        let per_solve: u64 = (0..prep.sym.nsup())
            .map(|k| {
                [
                    plan.fwd_cols(k),
                    plan.fwd_rows(k),
                    plan.bwd_cols(k),
                    plan.bwd_rows(k),
                ]
                .iter()
                .map(|set| set.len() as u64 - 1)
                .sum::<u64>()
            })
            .sum();
        let solves = 1 + cfg.refine_steps as u64;
        let predicted = solves * per_solve + cfg.refine_steps as u64 * halo_pairs(&prep, grid);
        let out = try_factor_and_solve(&prep, &cfg, Some(b.clone()))
            .unwrap_or_else(|e| panic!("{grid:?}: {e}"));
        assert_eq!(solve_msgs(&out), predicted, "{grid:?}");
        let collective_words: u64 = out
            .reports
            .iter()
            .flat_map(|r| &r.commvol.entries)
            .filter(|e| e.phase == "solve" && e.class == CommClass::Collective)
            .map(|e| e.cell.words)
            .sum();
        assert_eq!(collective_words, 0, "{grid:?}");

        // Full-row / full-column collectives would have cost
        // 2 (pc - 1) + 2 (pr - 1) messages per supernode; the structure
        // prunes some of them on every grid with more than one row or
        // column.
        let full = 2 * (grid.0 + grid.1 - 2) as u64 * prep.sym.nsup() as u64;
        if grid.0 * grid.1 > 1 {
            assert!(per_solve < full, "{grid:?}: {per_solve} vs {full}");
        }
    }
}

/// Grids whose rows or columns outnumber the supernodes of a level leave
/// whole process rows and columns out of most fan-ins and fan-outs; the
/// solution must still be accurate, for both solve strategies.
#[test]
fn wide_grids_beyond_the_block_structure_still_solve() {
    let cases: Vec<(&str, Csr, Geometry)> = vec![
        (
            "grid2d:6",
            grid2d_5pt(6, 6, 0.1, 1),
            Geometry::Grid2d { nx: 6, ny: 6 },
        ),
        (
            "grid3d:4",
            grid3d_7pt(4, 4, 4, 0.1, 2),
            Geometry::Grid3d {
                nx: 4,
                ny: 4,
                nz: 4,
            },
        ),
        ("kkt:3", kkt_3d(3, 3, 3, 1e-2, 0), Geometry::General),
    ];
    for (label, a, geometry) in cases {
        let prep = Prepared::new(a, geometry, 8, 8);
        let b = rhs(&prep.a);
        let bmax = b.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for grid in [(4, 1, 1), (1, 4, 1), (3, 5, 1), (2, 2, 4)] {
            for strategy in [SolveStrategy::Distributed3d, SolveStrategy::GatherToGrid0] {
                let cfg = config(grid, strategy, Backend::Event);
                let out = try_factor_and_solve(&prep, &cfg, Some(b.clone()))
                    .unwrap_or_else(|e| panic!("{label} {grid:?} {strategy:?}: {e}"));
                let x = out.x.expect("solution");
                let res = prep.a.residual_inf(&x, &b) / bmax;
                assert!(
                    res <= 1e-12,
                    "{label} {grid:?} {strategy:?}: residual {res:e}"
                );
            }
        }
    }
}

/// The pruned fan-in trees fix the summation order by structure alone, so
/// the solution is bitwise identical across repetitions and backends.
#[test]
fn sparse_solve_is_bitwise_deterministic_across_backends() {
    let a = grid3d_7pt(6, 6, 6, 0.1, 5);
    let prep = Prepared::new(
        a,
        Geometry::Grid3d {
            nx: 6,
            ny: 6,
            nz: 6,
        },
        8,
        8,
    );
    let b = rhs(&prep.a);
    for grid in [(3, 2, 1), (2, 3, 2)] {
        let bits = |backend| -> Vec<u64> {
            let cfg = config(grid, SolveStrategy::Distributed3d, backend);
            let out = try_factor_and_solve(&prep, &cfg, Some(b.clone()))
                .unwrap_or_else(|e| panic!("{grid:?} {backend}: {e}"));
            out.x
                .expect("solution")
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        let first = bits(Backend::Threaded);
        assert_eq!(first, bits(Backend::Threaded), "{grid:?}: repetition");
        assert_eq!(first, bits(Backend::Event), "{grid:?}: backends");
    }
}

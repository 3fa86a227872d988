//! Iterative refinement on the owner-distributed solution is the same
//! algorithm as refining a replicated x: one step returns exactly
//! `x0 + dx`, where `x0` and `dx` come from plain solves and the residual
//! `r = P b - pa (P x0)` is formed on the host in permuted order.

use salu::lu3d::forest::EtreeForest;
use salu::lu3d::refine::RefinePlan;
use salu::lu3d::solver::SolveStrategy;
use salu::prelude::*;
use salu::simgrid::Grid3d;
use salu::sparsemat::matgen::kkt_3d;

const GRIDS: [(usize, usize, usize); 4] = [(2, 2, 1), (2, 3, 2), (3, 5, 2), (2, 2, 4)];
const STRATEGIES: [SolveStrategy; 2] = [SolveStrategy::Distributed3d, SolveStrategy::GatherToGrid0];

fn problem() -> (Prepared, Vec<f64>) {
    let prep = Prepared::new(kkt_3d(4, 4, 4, 1e-2, 0), Geometry::General, 8, 8);
    let x_true: Vec<f64> = (0..prep.a.nrows)
        .map(|i| ((i * 7 % 13) as f64) - 6.0)
        .collect();
    let b = prep.a.matvec(&x_true);
    (prep, b)
}

fn solve(
    prep: &Prepared,
    grid: (usize, usize, usize),
    strategy: SolveStrategy,
    backend: Backend,
    refine_steps: usize,
    b: &[f64],
) -> Vec<f64> {
    let cfg = SolverConfig {
        pr: grid.0,
        pc: grid.1,
        pz: grid.2,
        model: TimeModel::edison_like(),
        solve_strategy: strategy,
        backend,
        refine_steps,
        ..Default::default()
    };
    try_factor_and_solve(prep, &cfg, Some(b.to_vec()))
        .unwrap_or_else(|e| panic!("{grid:?} {strategy:?} {backend}: {e}"))
        .x
        .expect("solution")
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn one_refinement_step_is_bitwise_x0_plus_dx() {
    let (prep, b) = problem();
    let pb = prep.permute_rhs(&b);
    for grid in GRIDS {
        for strategy in STRATEGIES {
            for backend in [Backend::Threaded, Backend::Event] {
                let run = |steps, rhs: &[f64]| solve(&prep, grid, strategy, backend, steps, rhs);
                let px0 = prep.permute_rhs(&run(0, &b));
                let ax = prep.pa.matvec(&px0);
                let r: Vec<f64> = pb.iter().zip(ax).map(|(bi, axi)| bi - axi).collect();
                let pdx = prep.permute_rhs(&run(0, &prep.unpermute_solution(&r)));
                let sum: Vec<f64> = px0.iter().zip(&pdx).map(|(x, d)| x + d).collect();
                assert_eq!(
                    bits(&run(1, &b)),
                    bits(&prep.unpermute_solution(&sum)),
                    "{grid:?} {strategy:?} {backend}"
                );
            }
        }
    }
}

#[test]
fn two_refinement_steps_reach_working_precision() {
    let (prep, b) = problem();
    let bmax = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for grid in GRIDS {
        for strategy in STRATEGIES {
            let x = solve(&prep, grid, strategy, Backend::Event, 2, &b);
            let res = prep.a.residual_inf(&x, &b) / bmax;
            assert!(res <= 1e-12, "{grid:?} {strategy:?}: residual {res:e}");
        }
    }
}

/// The 3x5x2 grid of the tests above has ranks that own no segment under
/// either strategy, so their empty halos are exercised.
#[test]
fn some_ranks_own_nothing_on_the_wide_grid() {
    let (prep, _) = problem();
    let grid3 = Grid3d::new(3, 5, 2);
    let forest = EtreeForest::build(&prep.tree, &prep.sym, 2);
    let part = &prep.sym.part;
    let distributed = RefinePlan::build(&prep.pa, part, &grid3, |k| {
        forest.factoring_grid(part.node_of_sn[k])
    });
    let gathered = RefinePlan::build(&prep.pa, part, &grid3, |_| 0);
    for plan in [distributed, gathered] {
        assert!((0..grid3.size()).any(|r| plan.owned(r).is_empty()));
        let owned: usize = (0..grid3.size()).map(|r| plan.owned(r).len()).sum();
        assert_eq!(owned, prep.sym.nsup());
    }
}

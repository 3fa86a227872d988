//! The benchmark's workloads and the seeded inputs they generate.

use lu3d::SolverConfig;
use ordering::{nested_dissection, Graph, NdOptions, SepTree};
use simgrid::{Backend, Grid3d};
use slu2d::driver::Prepared;
use sparsemat::matgen::{grid3d_7pt, kkt_3d};
use sparsemat::testmats::Geometry;
use sparsemat::Csr;
use std::sync::Arc;
use symbolic::Symbolic;

/// Value perturbation handed to the stencil generator: off-diagonals are
/// scaled by a seeded factor in `[0.95, 1.05]`.
const UNSYM: f64 = 0.1;
/// Regularization of the KKT (2,2) block, as in the `salu --gen kkt` CLI.
const KKT_REG: f64 = 1e-2;

/// Matrix family of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// 3D 7-point stencil on a `k^3` grid, geometric nested dissection.
    Grid3d { k: usize },
    /// KKT saddle-point system on a `k^3` grid (`n = 2 k^3`), multilevel
    /// nested dissection.
    Kkt { k: usize },
}

/// One workload: a matrix family, a process grid and the supernode knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spec {
    pub name: &'static str,
    pub family: Family,
    pub pr: usize,
    pub pc: usize,
    pub pz: usize,
    pub leaf: usize,
    pub maxsup: usize,
}

/// The three workloads `BENCHMARK.json` names (see README.md for why each
/// was chosen).
pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "kernel-grid3d32-p4",
        family: Family::Grid3d { k: 32 },
        pr: 1,
        pc: 2,
        pz: 2,
        leaf: 32,
        maxsup: 32,
    },
    Spec {
        name: "solve-kkt20-p64",
        family: Family::Kkt { k: 20 },
        pr: 8,
        pc: 8,
        pz: 1,
        leaf: 32,
        maxsup: 32,
    },
    Spec {
        name: "ranks-kkt12-p1024",
        family: Family::Kkt { k: 12 },
        pr: 16,
        pc: 16,
        pz: 4,
        leaf: 16,
        maxsup: 24,
    },
];

/// A generated system `A x = b` with its known solution.
pub struct Inputs {
    pub a: Csr,
    pub b: Vec<f64>,
}

impl Spec {
    /// Look up one of [`WORKLOADS`] by name.
    pub fn named(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn ranks(&self) -> usize {
        self.pr * self.pc * self.pz
    }

    pub fn grid(&self) -> Grid3d {
        Grid3d::new(self.pr, self.pc, self.pz)
    }

    fn geometry(&self) -> Geometry {
        match self.family {
            Family::Grid3d { k } => Geometry::Grid3d {
                nx: k,
                ny: k,
                nz: k,
            },
            Family::Kkt { .. } => Geometry::General,
        }
    }

    /// Solver configuration: event backend, default lookahead and pivoting.
    pub fn config(&self, refine_steps: usize, tracing: bool) -> SolverConfig {
        SolverConfig {
            pr: self.pr,
            pc: self.pc,
            pz: self.pz,
            refine_steps,
            tracing,
            backend: Backend::Event,
            ..Default::default()
        }
    }

    /// Matrix values and `x_true` from `seed`; `b = A x_true`. The sparsity
    /// pattern depends on the workload only, never on the seed.
    pub fn generate(&self, seed: u64) -> Inputs {
        let a = match self.family {
            Family::Grid3d { k } => grid3d_7pt(k, k, k, UNSYM, seed),
            Family::Kkt { k } => kkt_with_seeded_hessian(k, seed),
        };
        let mut rng = SplitMix64(seed);
        let x_true: Vec<f64> = (0..a.nrows).map(|_| 2.0 * rng.unit() - 1.0).collect();
        let b = a.matvec(&x_true);
        Inputs { a, b }
    }

    /// Nested dissection, then the symmetric permutation of `a` it implies.
    pub fn order(&self, a: &Csr) -> (SepTree, Csr) {
        let tree = nested_dissection(
            &Graph::from_matrix(a),
            NdOptions {
                leaf_size: self.leaf,
                geometry: self.geometry(),
                ..Default::default()
            },
        );
        let pa = a.permute_sym(&tree.perm).symmetrize_pattern();
        (tree, pa)
    }

    /// Symbolic analysis of the permuted matrix.
    pub fn analyze(&self, pa: &Csr, tree: &SepTree) -> Symbolic {
        Symbolic::analyze(pa, tree, self.maxsup)
    }

    /// The whole set-up: generate, order, analyze.
    pub fn prepare(&self, seed: u64) -> (Prepared, Vec<f64>) {
        let Inputs { a, b } = self.generate(seed);
        let (tree, pa) = self.order(&a);
        let sym = self.analyze(&pa, &tree);
        (assemble(a, tree, pa, sym), b)
    }
}

/// Bundle the set-up products into the solver's input.
pub fn assemble(a: Csr, tree: SepTree, pa: Csr, sym: Symbolic) -> Prepared {
    Prepared {
        a: Arc::new(a),
        pa: Arc::new(pa),
        tree: Arc::new(tree),
        sym: Arc::new(sym),
    }
}

/// `kkt_3d`'s values do not depend on its seed, so the Hessian block is
/// replaced by a seeded perturbed 7-point stencil of the same pattern.
fn kkt_with_seeded_hessian(k: usize, seed: u64) -> Csr {
    let mut a = kkt_3d(k, k, k, KKT_REG, seed);
    let h = grid3d_7pt(k, k, k, UNSYM, seed);
    for i in 0..h.nrows {
        let cols = h.row_cols(i);
        let start = a.row_ptr[i];
        assert_eq!(
            &a.col_idx[start..start + cols.len()],
            cols,
            "KKT row {i} must open with the Hessian pattern"
        );
        a.values[start..start + cols.len()].copy_from_slice(h.row_vals(i));
    }
    a
}

/// SplitMix64: the solution vector's generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

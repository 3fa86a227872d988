#![forbid(unsafe_code)]

//! Time-to-solution benchmark of the 3D sparse LU solver.
//!
//! One untraced run ([`run::untraced`]) times set-up and full
//! `try_factor_and_solve` calls (one refinement step) and reports the
//! end-to-end metrics; one traced run ([`run::traced`]) walks the pipeline
//! layer by layer inside [`spans::Spans`] and reports the per-layer
//! metrics. See README.md for the workloads and the layer map.

mod host;
pub mod run;
pub mod spans;
pub mod workload;

use simgrid::Json;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Simulated or structural: must repeat bit for bit between runs of the
    /// same inputs. Host timings are not exact.
    pub exact: bool,
}

/// What one benchmark invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Solver calls made.
    pub attempted: u64,
    /// Calls that errored, panicked or broke a correctness check.
    pub failed: u64,
    /// One line per broken check.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Count one solver call and the checks it broke.
    pub fn record(&mut self, what: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
        }
        self.problems
            .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::num(m.value)),
                        ("unit".into(), Json::str(m.unit)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::num(self.attempted as f64)),
            ("failed".into(), Json::num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }
}

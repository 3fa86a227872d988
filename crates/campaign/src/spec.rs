//! Campaign spec: the declarative description of a perf sweep.
//!
//! A spec is a TOML file (see [`crate::toml`] for the supported subset)
//! with one `[campaign]` header, an optional `[tolerance]` table, and one
//! `[[point]]` block per matrix configuration. Each `[[point]]` names a
//! matrix (a `sparsemat::testmats` proxy or a generator spec) and sweeps
//! the grid/options axes; [`CampaignSpec::expand`] takes the cross product
//! into concrete [`Job`]s, skipping (and reporting) invalid combinations
//! like `p % pz != 0` rather than silently shrinking the sweep.

use crate::compare::Tolerance;
use crate::toml::{self, Table, Value};
use simgrid::Backend;

/// Where a point's matrix comes from.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum MatrixSource {
    /// A named `sparsemat::testmats` proxy at a named scale
    /// (`tiny` | `small` | `bench`).
    Named { name: String, scale: String },
    /// A generator spec in `salu --gen` syntax, e.g. `grid3d:16`,
    /// `kkt:10`.
    Gen { spec: String },
}

impl MatrixSource {
    /// Short label used in point keys and artifact paths.
    pub fn label(&self) -> String {
        match self {
            MatrixSource::Named { name, .. } => name.clone(),
            MatrixSource::Gen { spec } => spec.replace(':', ""),
        }
    }

    /// The `scale` column recorded in snapshots.
    pub fn scale(&self) -> String {
        match self {
            MatrixSource::Named { scale, .. } => scale.clone(),
            MatrixSource::Gen { .. } => "gen".into(),
        }
    }
}

/// One `[[point]]` block, before sweep expansion.
#[derive(Clone, Debug)]
pub struct PointSpec {
    pub matrix: MatrixSource,
    pub leaf: usize,
    pub maxsup: usize,
    pub p: Vec<usize>,
    pub pz: Vec<usize>,
    pub batched: Vec<bool>,
    pub lookahead: Vec<usize>,
    /// Fault-plan specs in `FaultPlan::parse` syntax; `""` means no
    /// faults (the common case, and the default sweep).
    pub faults: Vec<String>,
    /// Execution backends to sweep (`threaded` | `event`); defaults to
    /// threaded only, matching every historical snapshot.
    pub backend: Vec<Backend>,
    /// Per-point repetition override. Paper-scale points (P = 4096) take
    /// minutes per rep; this lets one point opt out of the campaign-wide
    /// best-of-N without loosening the small points.
    pub reps: Option<usize>,
}

/// One concrete run: a single cell of the sweep cross product.
#[derive(Clone, Debug)]
pub struct Job {
    pub matrix: MatrixSource,
    pub leaf: usize,
    pub maxsup: usize,
    pub p: usize,
    pub pz: usize,
    pub batched: bool,
    pub lookahead: usize,
    /// `None` = fault-free.
    pub faults: Option<String>,
    pub backend: Backend,
    pub reps: usize,
}

impl Job {
    /// Filesystem-safe slug naming this job's artifact directory.
    pub fn slug(&self) -> String {
        let mut s = format!(
            "{}-p{}-pz{}-{}",
            self.matrix.label(),
            self.p,
            self.pz,
            if self.batched { "batched" } else { "perblock" }
        );
        if self.lookahead != 8 {
            s.push_str(&format!("-la{}", self.lookahead));
        }
        if self.faults.is_some() {
            s.push_str("-faults");
        }
        if self.backend != Backend::Threaded {
            s.push_str(&format!("-{}", self.backend));
        }
        s
    }
}

/// A fully parsed campaign.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    pub name: String,
    /// Label stamped into the emitted snapshot's `pr` field (e.g. `pr8`).
    pub pr_label: String,
    /// Best-of-N repetitions for the wall-clock column.
    pub reps: usize,
    /// Parallel job slots. 1 (the default) keeps wall-clock measurements
    /// unperturbed; raise it when sweeping simulated-only metrics.
    pub workers: usize,
    /// Baseline snapshot to compare against after the run, if any.
    pub baseline: Option<String>,
    /// Also write a Chrome trace per job (one extra traced run each).
    pub trace: bool,
    pub tolerance: Tolerance,
    pub points: Vec<PointSpec>,
}

impl CampaignSpec {
    /// Parse a spec document.
    pub fn parse(text: &str) -> Result<CampaignSpec, String> {
        let doc = toml::parse(text)?;
        let header = doc
            .section("campaign")
            .ok_or("spec has no [campaign] section")?;
        check_keys(header, "[campaign]", CAMPAIGN_KEYS)?;
        let name = req_str(header, "campaign", "name")?;
        let pr_label = opt_str(header, "pr")?.unwrap_or_else(|| name.clone());
        let reps = opt_usize(header, "campaign", "reps")?.unwrap_or(1).max(1);
        let workers = opt_usize(header, "campaign", "workers")?
            .unwrap_or(1)
            .max(1);
        let baseline = opt_str(header, "baseline")?;
        let trace = match header.get("trace") {
            Some(v) => v.as_bool().ok_or("[campaign] trace must be a boolean")?,
            None => false,
        };
        let mut tolerance = Tolerance::default();
        if let Some(t) = doc.section("tolerance") {
            check_keys(t, "[tolerance]", TOLERANCE_KEYS)?;
            if let Some(v) = t.get("wall") {
                tolerance.wall = v.as_f64().ok_or("[tolerance] wall must be a number")?;
            }
            if let Some(v) = t.get("sim") {
                tolerance.sim = v.as_f64().ok_or("[tolerance] sim must be a number")?;
            }
            if let Some(v) = t.get("gate_wall") {
                tolerance.gate_wall = v
                    .as_bool()
                    .ok_or("[tolerance] gate_wall must be a boolean")?;
            }
        }
        let mut points = Vec::new();
        for (i, table) in doc.sections_named("point").into_iter().enumerate() {
            let at = format!("[[point]] #{}", i + 1);
            check_keys(table, &at, POINT_KEYS)?;
            points.push(parse_point(table).map_err(|e| format!("{at}: {e}"))?);
        }
        if points.is_empty() {
            return Err("spec has no [[point]] blocks".into());
        }
        Ok(CampaignSpec {
            name,
            pr_label,
            reps,
            workers,
            baseline,
            trace,
            tolerance,
            points,
        })
    }

    /// Expand sweeps into concrete jobs. Combinations where `p` is not a
    /// multiple of `pz` cannot form a grid; they are returned separately so
    /// the runner can report them instead of dropping them silently.
    pub fn expand(&self) -> (Vec<Job>, Vec<String>) {
        let mut jobs = Vec::new();
        let mut skipped = Vec::new();
        for pt in &self.points {
            for &p in &pt.p {
                for &pz in &pt.pz {
                    if !pz.is_power_of_two() || p % pz != 0 {
                        skipped.push(format!(
                            "{} p={p} pz={pz}: pz must be a power of two dividing p",
                            pt.matrix.label()
                        ));
                        continue;
                    }
                    for &batched in &pt.batched {
                        for &lookahead in &pt.lookahead {
                            for faults in &pt.faults {
                                for &backend in &pt.backend {
                                    jobs.push(Job {
                                        matrix: pt.matrix.clone(),
                                        leaf: pt.leaf,
                                        maxsup: pt.maxsup,
                                        p,
                                        pz,
                                        batched,
                                        lookahead,
                                        faults: (!faults.is_empty()).then(|| faults.clone()),
                                        backend,
                                        reps: pt.reps.unwrap_or(self.reps),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        (jobs, skipped)
    }
}

fn parse_point(t: &Table) -> Result<PointSpec, String> {
    let matrix = match (t.get("matrix"), t.get("gen")) {
        (Some(m), None) => MatrixSource::Named {
            name: m.as_str().ok_or("matrix must be a string")?.to_string(),
            scale: match t.get("scale") {
                Some(v) => v.as_str().ok_or("scale must be a string")?.to_string(),
                None => "small".into(),
            },
        },
        (None, Some(g)) => MatrixSource::Gen {
            spec: g.as_str().ok_or("gen must be a string")?.to_string(),
        },
        (Some(_), Some(_)) => return Err("give either matrix or gen, not both".into()),
        (None, None) => return Err("needs a matrix name or a gen spec".into()),
    };
    let usize_list = |key: &str, default: usize| -> Result<Vec<usize>, String> {
        match t.get(key) {
            None => Ok(vec![default]),
            Some(v) => {
                let vals: Option<Vec<usize>> = v.as_list().iter().map(Value::as_usize).collect();
                let vals =
                    vals.ok_or_else(|| format!("{key} must be a non-negative integer list"))?;
                if vals.is_empty() {
                    return Err(format!("{key} sweep is empty"));
                }
                Ok(vals)
            }
        }
    };
    let p = usize_list("p", 0)?;
    if p == vec![0] {
        return Err("needs a p sweep (total rank counts)".into());
    }
    let pz = usize_list("pz", 1)?;
    let lookahead = usize_list("lookahead", 8)?;
    let batched = match t.get("batched") {
        None => vec![false],
        Some(v) => {
            let vals: Option<Vec<bool>> = v.as_list().iter().map(Value::as_bool).collect();
            let vals = vals.ok_or("batched must be a boolean list")?;
            if vals.is_empty() {
                return Err("batched sweep is empty".into());
            }
            vals
        }
    };
    let faults = match t.get("faults") {
        None => vec![String::new()],
        Some(v) => {
            let vals: Option<Vec<String>> = v
                .as_list()
                .iter()
                .map(|x| x.as_str().map(str::to_string))
                .collect();
            let vals = vals.ok_or("faults must be a string list")?;
            if vals.is_empty() {
                return Err("faults sweep is empty".into());
            }
            vals
        }
    };
    let backend = match t.get("backend") {
        None => vec![Backend::Threaded],
        Some(v) => {
            let vals: Option<Vec<Backend>> = v
                .as_list()
                .iter()
                .map(|x| x.as_str().and_then(|s| s.parse().ok()))
                .collect();
            let vals = vals.ok_or("backend must be a list of 'threaded' | 'event'")?;
            if vals.is_empty() {
                return Err("backend sweep is empty".into());
            }
            vals
        }
    };
    let reps = match t.get("reps") {
        None => None,
        Some(v) => Some(
            v.as_usize()
                .ok_or("reps must be a non-negative integer")?
                .max(1),
        ),
    };
    Ok(PointSpec {
        matrix,
        leaf: single_usize(t, "leaf", 32)?,
        maxsup: single_usize(t, "maxsup", 32)?,
        p,
        pz,
        batched,
        lookahead,
        faults,
        backend,
        reps,
    })
}

const CAMPAIGN_KEYS: &[&str] = &["name", "pr", "reps", "workers", "baseline", "trace"];
const TOLERANCE_KEYS: &[&str] = &["wall", "sim", "gate_wall"];
const POINT_KEYS: &[&str] = &[
    "matrix",
    "scale",
    "gen",
    "leaf",
    "maxsup",
    "p",
    "pz",
    "batched",
    "lookahead",
    "faults",
    "backend",
    "reps",
];

/// Reject any key outside `allowed`: a misspelled or retired sweep axis
/// must fail the parse, not quietly run its default.
fn check_keys(t: &Table, table: &str, allowed: &[&str]) -> Result<(), String> {
    for (k, _) in &t.entries {
        if !allowed.contains(&k.as_str()) {
            return Err(format!(
                "{table}: unknown key '{k}' (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

fn single_usize(t: &Table, key: &str, default: usize) -> Result<usize, String> {
    match t.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| format!("{key} must be a non-negative integer")),
    }
}

fn req_str(t: &Table, section: &str, key: &str) -> Result<String, String> {
    t.get(key)
        .and_then(|v| v.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("[{section}] needs a string '{key}'"))
}

fn opt_str(t: &Table, key: &str) -> Result<Option<String>, String> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("'{key}' must be a string")),
    }
}

fn opt_usize(t: &Table, section: &str, key: &str) -> Result<Option<usize>, String> {
    match t.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_usize()
            .map(Some)
            .ok_or_else(|| format!("[{section}] '{key}' must be a non-negative integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
[campaign]
name = \"smoke\"
pr = \"pr8\"
reps = 3
workers = 2
baseline = \"results/BENCH_pr4.json\"

[tolerance]
wall = 0.5
sim = 0.02

[[point]]
matrix = \"k2d5pt\"
p = [16]
pz = [1, 4]
batched = [false, true]

[[point]]
gen = \"grid3d:8\"
p = 8
pz = [2, 3]
";

    #[test]
    fn parses_and_expands_cross_product() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.pr_label, "pr8");
        assert_eq!(spec.reps, 3);
        assert_eq!(spec.baseline.as_deref(), Some("results/BENCH_pr4.json"));
        assert_eq!(spec.tolerance.sim, 0.02);
        let (jobs, skipped) = spec.expand();
        // point 1: 1 p x 2 pz x 2 batched = 4; point 2: pz=2 only (pz=3 is
        // not a power of two) = 1.
        assert_eq!(jobs.len(), 5);
        assert_eq!(skipped.len(), 1);
        assert!(skipped[0].contains("pz=3"));
        assert!(jobs.iter().any(|j| j.pz == 4 && j.batched));
        assert_eq!(
            jobs[4].matrix,
            MatrixSource::Gen {
                spec: "grid3d:8".into()
            }
        );
        assert_eq!(jobs[4].slug(), "grid3d8-p8-pz2-perblock");
    }

    #[test]
    fn defaults_fill_unswept_axes() {
        let spec = CampaignSpec::parse(
            "[campaign]\nname = \"d\"\n[[point]]\nmatrix = \"nlpkkt\"\np = 4\n",
        )
        .unwrap();
        let (jobs, skipped) = spec.expand();
        assert!(skipped.is_empty());
        assert_eq!(jobs.len(), 1);
        let j = &jobs[0];
        assert_eq!(
            (j.pz, j.batched, j.lookahead, j.leaf, j.maxsup),
            (1, false, 8, 32, 32)
        );
        assert!(j.faults.is_none());
        assert_eq!(j.reps, 1);
        assert_eq!(spec.pr_label, "d", "pr label defaults to the name");
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(
            CampaignSpec::parse("[campaign]\nname = \"x\"\n").is_err(),
            "no points"
        );
        assert!(
            CampaignSpec::parse("[campaign]\nname = \"x\"\n[[point]]\np = 4\n").is_err(),
            "no matrix"
        );
        assert!(
            CampaignSpec::parse(
                "[campaign]\nname = \"x\"\n[[point]]\nmatrix = \"a\"\ngen = \"b:1\"\np = 4\n"
            )
            .is_err(),
            "both matrix and gen"
        );
        assert!(
            CampaignSpec::parse("[campaign]\nname = \"x\"\n[[point]]\nmatrix = \"a\"\n").is_err(),
            "no p sweep"
        );
    }

    #[test]
    fn backend_sweeps_expand_and_suffix_the_slug() {
        let spec = CampaignSpec::parse(
            "[campaign]\nname = \"b\"\nreps = 3\n\
             [[point]]\nmatrix = \"a\"\np = 4\nbackend = [\"threaded\", \"event\"]\nreps = 1\n",
        )
        .unwrap();
        let (jobs, _) = spec.expand();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].backend, Backend::Threaded);
        assert_eq!(jobs[1].backend, Backend::Event);
        assert!(!jobs[0].slug().contains("event"));
        assert!(jobs[1].slug().ends_with("-event"));
        // the per-point override beats the campaign-wide best-of-N
        assert_eq!((jobs[0].reps, jobs[1].reps), (1, 1));
        // unswept points stay threaded at the campaign reps
        let d = CampaignSpec::parse(
            "[campaign]\nname = \"d\"\nreps = 3\n[[point]]\nmatrix = \"a\"\np = 4\n",
        )
        .unwrap();
        let (jobs, _) = d.expand();
        assert_eq!(jobs[0].backend, Backend::Threaded);
        assert_eq!(jobs[0].reps, 3);
        assert!(
            CampaignSpec::parse(
                "[campaign]\nname = \"x\"\n[[point]]\nmatrix = \"a\"\np = 4\nbackend = [\"fiber\"]\n"
            )
            .is_err(),
            "unknown backend names must be rejected at parse time"
        );
    }

    #[test]
    fn the_committed_smoke_campaign_stays_valid() {
        // The CI gate runs this exact file; a spec that no longer parses
        // or silently loses its paper-scale point should fail here, not
        // on the runner.
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../campaigns/smoke.toml"
        ))
        .expect("campaigns/smoke.toml exists");
        let spec = CampaignSpec::parse(&text).unwrap();
        let (jobs, skipped) = spec.expand();
        assert!(skipped.is_empty(), "{skipped:?}");
        // k2d5pt sweeps both backends...
        assert!(jobs
            .iter()
            .any(|j| j.matrix.label() == "k2d5pt" && j.backend == Backend::Event));
        // ...and the paper-scale event point is present, single-rep.
        let paper = jobs
            .iter()
            .find(|j| j.p == 4096)
            .expect("smoke campaign carries the P=4096 point");
        assert_eq!(paper.backend, Backend::Event);
        assert_eq!(paper.reps, 1);
        assert_eq!(paper.slug(), "grid2d64-p4096-pz1-perblock-event");
    }

    #[test]
    fn the_committed_scaling_campaign_stays_valid() {
        // CI runs this exact file and compares it against the committed
        // snapshot point for point.
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../campaigns/scaling.toml"
        ))
        .expect("campaigns/scaling.toml exists");
        let spec = CampaignSpec::parse(&text).unwrap();
        assert_eq!(spec.pr_label, "pr10");
        let (jobs, skipped) = spec.expand();
        assert!(skipped.is_empty(), "{skipped:?}");
        // 4 P values x 2 Pz, all event-backend
        assert_eq!(jobs.len(), 8);
        assert!(jobs.iter().all(|j| j.backend == Backend::Event));
        assert!(jobs.iter().any(|j| j.p == 4096 && j.pz == 4));
    }

    #[test]
    fn unknown_keys_are_rejected_naming_table_and_key() {
        let point = "[[point]]\nmatrix = \"a\"\np = 4\n";
        // A retired sweep axis must not quietly run the default.
        let err = CampaignSpec::parse(&format!(
            "[campaign]\nname = \"x\"\n{point}schedule = [\"level\"]\n"
        ))
        .unwrap_err();
        assert!(err.contains("[[point]] #1"), "{err}");
        assert!(err.contains("'schedule'"), "{err}");
        // A misspelled sweep axis must not quietly run lookahead 8.
        let err = CampaignSpec::parse(&format!(
            "[campaign]\nname = \"x\"\n{point}lookahed = [0]\n"
        ))
        .unwrap_err();
        assert!(err.contains("'lookahed'"), "{err}");
        let err = CampaignSpec::parse(&format!("[campaign]\nname = \"x\"\nworker = 2\n{point}"))
            .unwrap_err();
        assert!(
            err.contains("[campaign]") && err.contains("'worker'"),
            "{err}"
        );
        let err = CampaignSpec::parse(&format!(
            "[campaign]\nname = \"x\"\n[tolerance]\nsimm = 0.02\n{point}"
        ))
        .unwrap_err();
        assert!(
            err.contains("[tolerance]") && err.contains("'simm'"),
            "{err}"
        );
    }

    #[test]
    fn fault_sweeps_map_empty_string_to_fault_free() {
        let spec = CampaignSpec::parse(
            "[campaign]\nname = \"f\"\n[[point]]\nmatrix = \"a\"\np = 4\nfaults = [\"\", \"drop:p=0.05\"]\n",
        )
        .unwrap();
        let (jobs, _) = spec.expand();
        assert_eq!(jobs.len(), 2);
        assert!(jobs[0].faults.is_none());
        assert_eq!(jobs[1].faults.as_deref(), Some("drop:p=0.05"));
        assert!(jobs[1].slug().ends_with("-faults"));
    }
}

//! Bench-snapshot documents: the `BENCH_*.json` perf trajectory.
//!
//! Every PR that moves performance leaves one snapshot in `results/`. Three
//! schema generations exist and the loader reads all of them into the same
//! logical shape, so the comparator can diff any pair:
//!
//! - `salu-bench-snapshot/1` (`BENCH_pr3.json`): one point per config,
//!   per-block Schur path only — loads as `batched = false`.
//! - `salu-bench-snapshot/2` (`BENCH_pr4.json`): each point carries both
//!   `wall_secs` and `wall_secs_batched` — loads as **two** logical points
//!   (`batched = false` / `true`) sharing the simulated metrics, which are
//!   path-independent by construction.
//! - `salu-bench-snapshot/3` (campaign runner output): one point per job
//!   with an explicit `batched` flag plus the swept options (`lookahead`,
//!   `faults`) in the key.
//!
//! Points are keyed by
//! `(matrix, n, p, pz, batched, lookahead, faults, backend)`; `scale` is
//! carried for display but not matched on (matrix + n already pin the
//! problem). Documents that predate a key column match its default
//! (`lookahead = 8`, `backend = "threaded"`).

use simgrid::Json;

/// Identity of one measured configuration.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PointKey {
    pub matrix: String,
    pub n: u64,
    pub p: u64,
    pub pz: u64,
    pub batched: bool,
    /// `None` in v1/v2 documents (which predate option sweeps) and for
    /// v3 points at the default window; matched as equal to the default.
    pub lookahead: Option<u64>,
    pub faults: Option<String>,
    /// Execution backend (`threaded` | `event`). `None` in documents that
    /// predate the backend column; matched as equal to `threaded`, so
    /// every historical snapshot keeps comparing against threaded runs.
    pub backend: Option<String>,
}

impl PointKey {
    /// Canonical form for matching: v1/v2 points carry no lookahead field,
    /// and v3 points at the default window mean the same configuration.
    fn canon(&self) -> (String, u64, u64, u64, bool, u64, Option<String>, String) {
        (
            self.matrix.clone(),
            self.n,
            self.p,
            self.pz,
            self.batched,
            self.lookahead.unwrap_or(DEFAULT_LOOKAHEAD),
            self.faults.clone(),
            self.backend.clone().unwrap_or_else(|| "threaded".into()),
        )
    }

    pub fn matches(&self, other: &PointKey) -> bool {
        self.canon() == other.canon()
    }
}

/// The default lookahead window (`SolverConfig::default().lookahead`),
/// assumed for snapshot generations that predate option sweeps.
pub const DEFAULT_LOOKAHEAD: u64 = 8;

impl std::fmt::Display for PointKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} n={} P={} Pz={} {}",
            self.matrix,
            self.n,
            self.p,
            self.pz,
            if self.batched { "batched" } else { "per-block" }
        )?;
        if let Some(la) = self.lookahead {
            if la != DEFAULT_LOOKAHEAD {
                write!(f, " la={la}")?;
            }
        }
        if let Some(fa) = &self.faults {
            write!(f, " faults={fa}")?;
        }
        if let Some(b) = &self.backend {
            if b != "threaded" {
                write!(f, " backend={b}")?;
            }
        }
        Ok(())
    }
}

/// The comparable metrics of one point, in emission order. `wall_secs` is
/// the only host-sensitive column; everything else is simulated or
/// ledger-derived and therefore deterministic.
pub const METRICS: &[&str] = &[
    "wall_secs",
    "makespan_secs",
    "max_peak_bytes",
    "total_peak_bytes",
    "w_fact_words",
    "w_red_words",
    "total_sent_words",
];

/// True for metrics measured on the host wall clock (noisy across machines
/// and runs); false for simulated/ledger metrics (deterministic).
pub fn is_wall_metric(name: &str) -> bool {
    name == "wall_secs"
}

/// One measured configuration with its metric values.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchPoint {
    pub key: PointKey,
    /// Display-only provenance column (`small` / `bench` / `gen` ...).
    pub scale: String,
    /// `(metric name, value)` in [`METRICS`] order; a document missing a
    /// metric simply omits it.
    pub metrics: Vec<(String, f64)>,
}

impl BenchPoint {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

/// A loaded snapshot document.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Schema generation (1, 2, or 3).
    pub version: u32,
    /// The `pr` label, e.g. `pr4`.
    pub label: String,
    pub points: Vec<BenchPoint>,
}

impl Snapshot {
    /// Parse any supported `BENCH_*.json` generation.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let doc = Json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("snapshot has no schema field")?;
        let version: u32 = schema
            .strip_prefix("salu-bench-snapshot/")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("unknown snapshot schema '{schema}'"))?;
        if !(1..=3).contains(&version) {
            return Err(format!("unsupported snapshot schema version {version}"));
        }
        let label = doc
            .get("pr")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let raw = doc
            .get("points")
            .and_then(Json::as_arr)
            .ok_or("snapshot has no points array")?;
        let mut points = Vec::new();
        // Raw record index of each logical point (a v2 record yields two).
        let mut origin = Vec::new();
        for (i, pt) in raw.iter().enumerate() {
            load_point(pt, version, &mut points).map_err(|e| format!("point #{i}: {e}"))?;
            origin.resize(points.len(), i);
        }
        // Two points under one canonical key would make `find` silently
        // pick the first, so a duplicate is a malformed document.
        let mut seen = std::collections::HashMap::new();
        for (j, p) in points.iter().enumerate() {
            if let Some(i) = seen.insert(p.key.canon(), j) {
                return Err(format!(
                    "duplicate point key '{}' at points #{} and #{}",
                    p.key, origin[i], origin[j]
                ));
            }
        }
        Ok(Snapshot {
            version,
            label,
            points,
        })
    }

    /// Read and parse a snapshot file.
    pub fn load(path: &str) -> Result<Snapshot, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))?;
        Snapshot::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// The point matching `key`, if any.
    pub fn find(&self, key: &PointKey) -> Option<&BenchPoint> {
        self.points.iter().find(|p| p.key.matches(key))
    }

    /// Serialize as a v3 document (the only generation the workspace
    /// writes going forward).
    pub fn to_json(&self) -> Json {
        let points = self
            .points
            .iter()
            .map(|p| {
                let mut fields = vec![
                    ("matrix".into(), Json::str(&p.key.matrix)),
                    ("scale".into(), Json::str(&p.scale)),
                    ("n".into(), Json::num(p.key.n as f64)),
                    ("p".into(), Json::num(p.key.p as f64)),
                    ("pz".into(), Json::num(p.key.pz as f64)),
                    ("batched".into(), Json::Bool(p.key.batched)),
                    (
                        "lookahead".into(),
                        Json::num(p.key.lookahead.unwrap_or(DEFAULT_LOOKAHEAD) as f64),
                    ),
                    (
                        "backend".into(),
                        Json::str(p.key.backend.as_deref().unwrap_or("threaded")),
                    ),
                ];
                if let Some(fa) = &p.key.faults {
                    fields.push(("faults".into(), Json::str(fa)));
                }
                for (k, v) in &p.metrics {
                    fields.push((k.clone(), Json::num(*v)));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::str("salu-bench-snapshot/3")),
            ("pr".into(), Json::str(&self.label)),
            ("points".into(), Json::Arr(points)),
        ])
    }
}

fn load_point(pt: &Json, version: u32, out: &mut Vec<BenchPoint>) -> Result<(), String> {
    let str_field = |k: &str| pt.get(k).and_then(Json::as_str).map(str::to_string);
    let num_field = |k: &str| -> Result<u64, String> {
        pt.get(k)
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("missing numeric field '{k}'"))
    };
    let matrix = str_field("matrix").ok_or("missing matrix name")?;
    let scale = str_field("scale").unwrap_or_default();
    let base = PointKey {
        matrix,
        n: num_field("n")?,
        p: num_field("p")?,
        pz: num_field("pz")?,
        batched: false,
        lookahead: None,
        faults: None,
        backend: None,
    };
    let sim_metrics = |skip_wall: bool| -> Vec<(String, f64)> {
        METRICS
            .iter()
            .filter(|m| !(skip_wall && is_wall_metric(m)))
            .filter_map(|m| pt.get(m).and_then(Json::as_f64).map(|v| (m.to_string(), v)))
            .collect()
    };
    match version {
        1 => out.push(BenchPoint {
            key: base,
            scale,
            metrics: sim_metrics(false),
        }),
        2 => {
            // One v2 record is two logical points: the per-block wall and
            // the batched wall, sharing the (path-independent) simulated
            // metrics.
            out.push(BenchPoint {
                key: base.clone(),
                scale: scale.clone(),
                metrics: sim_metrics(false),
            });
            if let Some(wb) = pt.get("wall_secs_batched").and_then(Json::as_f64) {
                let mut metrics = vec![("wall_secs".to_string(), wb)];
                metrics.extend(sim_metrics(true));
                out.push(BenchPoint {
                    key: PointKey {
                        batched: true,
                        ..base
                    },
                    scale,
                    metrics,
                });
            }
        }
        3 => {
            let key = PointKey {
                batched: pt.get("batched").and_then(Json::as_bool).unwrap_or(false),
                lookahead: pt.get("lookahead").and_then(Json::as_f64).map(|v| v as u64),
                faults: str_field("faults"),
                backend: str_field("backend"),
                ..base
            };
            out.push(BenchPoint {
                key,
                scale,
                metrics: sim_metrics(false),
            });
        }
        _ => unreachable!("version validated by caller"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v1_doc() -> String {
        r#"{
          "schema": "salu-bench-snapshot/1", "pr": "pr3",
          "points": [{"matrix": "k2d5pt", "n": 4096, "p": 16, "pz": 1,
                      "wall_secs": 0.03, "makespan_secs": 0.007,
                      "max_peak_bytes": 566032, "total_peak_bytes": 5318408,
                      "w_fact_words": 204950, "w_red_words": 0,
                      "total_sent_words": 1868472}]
        }"#
        .to_string()
    }

    fn v2_doc() -> String {
        r#"{
          "schema": "salu-bench-snapshot/2", "pr": "pr4",
          "points": [{"matrix": "k2d5pt", "scale": "small", "n": 4096,
                      "p": 16, "pz": 1,
                      "wall_secs": 0.034, "wall_secs_batched": 0.032,
                      "batched_speedup": 1.05, "makespan_secs": 0.0068,
                      "max_peak_bytes": 566032, "total_peak_bytes": 5260912,
                      "w_fact_words": 204950, "w_red_words": 0,
                      "total_sent_words": 1868472}]
        }"#
        .to_string()
    }

    #[test]
    fn v1_loads_as_perblock_points() {
        let s = Snapshot::parse(&v1_doc()).unwrap();
        assert_eq!((s.version, s.label.as_str()), (1, "pr3"));
        assert_eq!(s.points.len(), 1);
        let p = &s.points[0];
        assert!(!p.key.batched);
        assert_eq!(p.key.lookahead, None);
        assert_eq!(p.metric("wall_secs"), Some(0.03));
        assert_eq!(p.metric("w_fact_words"), Some(204950.0));
    }

    #[test]
    fn v2_splits_into_two_logical_points() {
        let s = Snapshot::parse(&v2_doc()).unwrap();
        assert_eq!(s.points.len(), 2);
        let (pb, ba) = (&s.points[0], &s.points[1]);
        assert!(!pb.key.batched);
        assert!(ba.key.batched);
        assert_eq!(pb.metric("wall_secs"), Some(0.034));
        assert_eq!(ba.metric("wall_secs"), Some(0.032));
        // simulated metrics are shared between the two logical points
        assert_eq!(pb.metric("makespan_secs"), ba.metric("makespan_secs"));
        // batched_speedup is derived, not a compared metric
        assert_eq!(pb.metric("batched_speedup"), None);
    }

    #[test]
    fn v3_roundtrips_through_to_json() {
        let snap = Snapshot {
            version: 3,
            label: "pr8".into(),
            points: vec![BenchPoint {
                key: PointKey {
                    matrix: "nlpkkt".into(),
                    n: 1024,
                    p: 16,
                    pz: 4,
                    batched: true,
                    lookahead: Some(4),
                    faults: Some("drop:p=0.05".into()),
                    backend: Some("event".into()),
                },
                scale: "small".into(),
                metrics: vec![
                    ("wall_secs".into(), 0.007),
                    ("makespan_secs".into(), 5.5e-4),
                ],
            }],
        };
        let reparsed = Snapshot::parse(&snap.to_json().pretty()).unwrap();
        assert_eq!(reparsed.version, 3);
        assert_eq!(reparsed.points, snap.points);
    }

    #[test]
    fn v1_and_v3_default_lookahead_match() {
        let a = PointKey {
            matrix: "m".into(),
            n: 10,
            p: 4,
            pz: 1,
            batched: false,
            lookahead: None,
            faults: None,
            backend: None,
        };
        let b = PointKey {
            lookahead: Some(DEFAULT_LOOKAHEAD),
            ..a.clone()
        };
        let c = PointKey {
            lookahead: Some(2),
            ..a.clone()
        };
        assert!(a.matches(&b));
        assert!(!a.matches(&c));
        assert!(!a.matches(&PointKey {
            batched: true,
            ..a.clone()
        }));
    }

    #[test]
    fn backend_column_defaults_to_threaded_for_old_documents() {
        let old = PointKey {
            matrix: "m".into(),
            n: 10,
            p: 4,
            pz: 1,
            batched: false,
            lookahead: None,
            faults: None,
            backend: None,
        };
        // An absent column and an explicit "threaded" are the same point;
        // an event point is new coverage, never matched against threaded.
        assert!(old.matches(&PointKey {
            backend: Some("threaded".into()),
            ..old.clone()
        }));
        assert!(!old.matches(&PointKey {
            backend: Some("event".into()),
            ..old.clone()
        }));
        // Display keeps old keys stable and flags only non-default backends.
        assert!(!old.to_string().contains("backend"));
        let evt = PointKey {
            backend: Some("event".into()),
            ..old
        };
        assert!(evt.to_string().ends_with("backend=event"));
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        // Points #1 and #2 differ only in a metric, so `find` could never
        // reach #2; an absent lookahead means the default window.
        let rec = |la: &str, makespan: f64| {
            format!(
                r#"{{"matrix": "kkt12", "scale": "gen", "n": 1728, "p": 64, "pz": 4,
                     "batched": false, {la} "backend": "event", "makespan_secs": {makespan}}}"#
            )
        };
        let doc = format!(
            r#"{{"schema": "salu-bench-snapshot/3", "pr": "t", "points": [{}, {}, {}]}}"#,
            rec(r#""lookahead": 4,"#, 0.01),
            rec(r#""lookahead": 8,"#, 0.01),
            rec("", 0.009),
        );
        let err = Snapshot::parse(&doc).unwrap_err();
        assert!(err.contains("duplicate point key"), "{err}");
        assert!(err.contains("kkt12 n=1728 P=64 Pz=4"), "{err}");
        assert!(err.contains("#1 and #2"), "{err}");
    }

    #[test]
    fn committed_snapshots_all_load() {
        for name in ["pr3", "pr4", "pr8", "pr10"] {
            let path = format!(
                "{}/../../results/BENCH_{name}.json",
                env!("CARGO_MANIFEST_DIR")
            );
            let snap = Snapshot::load(&path).unwrap();
            assert!(!snap.points.is_empty(), "{path}");
        }
    }

    #[test]
    fn unknown_schema_is_an_error() {
        assert!(Snapshot::parse(r#"{"schema": "salu-bench-snapshot/9", "points": []}"#).is_err());
        assert!(Snapshot::parse(r#"{"points": []}"#).is_err());
        assert!(Snapshot::parse(r#"{"schema": "other/1", "points": []}"#).is_err());
    }
}

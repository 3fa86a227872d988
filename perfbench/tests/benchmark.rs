//! The benchmark's own checks, on tiny variants of the three workload
//! families that run in seconds.

use perfbench::run::{traced, untraced};
use perfbench::workload::{Family, Spec};
use perfbench::Outcome;
use simgrid::Json;

const KERNEL: Spec = Spec {
    name: "tiny-kernel",
    family: Family::Grid3d { k: 6 },
    pr: 1,
    pc: 2,
    pz: 2,
    leaf: 8,
    maxsup: 8,
};
const SOLVE: Spec = Spec {
    name: "tiny-solve",
    family: Family::Kkt { k: 4 },
    pr: 2,
    pc: 2,
    pz: 1,
    leaf: 8,
    maxsup: 8,
};
const RANKS: Spec = Spec {
    name: "tiny-ranks",
    family: Family::Kkt { k: 4 },
    pr: 2,
    pc: 2,
    pz: 4,
    leaf: 4,
    maxsup: 6,
};
const TINY: [Spec; 3] = [KERNEL, SOLVE, RANKS];
/// Shorter than any run: every run does its minimum repetitions.
const SECONDS: f64 = 0.01;

fn end_to_end(spec: &Spec, seed: u64) -> Outcome {
    let out = untraced(spec, seed, SECONDS);
    assert!(out.correct(), "{}: {:?}", spec.name, out.problems);
    out
}

fn per_layer(spec: &Spec, seed: u64) -> Outcome {
    let (out, spans) = traced(spec, seed, SECONDS);
    assert!(out.correct(), "{}: {:?}", spec.name, out.problems);
    assert!(spans.to_json().as_arr().is_some_and(|s| !s.is_empty()));
    out
}

/// `(name, unit)` of every metric listed under `key` in BENCHMARK.json.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
    for spec in &TINY {
        assert_eq!(emitted(&end_to_end(spec, 1)), e2e, "{}", spec.name);
        assert_eq!(emitted(&per_layer(spec, 1)), layers, "{}", spec.name);
    }
}

/// Exact (simulated or structural) metrics as bit patterns.
fn exact_bits(out: &Outcome) -> Vec<(&'static str, u64)> {
    out.metrics
        .iter()
        .filter(|m| m.exact)
        .map(|m| (m.name, m.value.to_bits()))
        .collect()
}

#[test]
fn simulated_counts_repeat_exactly() {
    for spec in &TINY {
        let (a, b) = (per_layer(spec, 7), per_layer(spec, 7));
        assert_eq!(exact_bits(&a), exact_bits(&b), "{}", spec.name);
        let (a, b) = (end_to_end(spec, 7), end_to_end(spec, 7));
        assert_eq!(exact_bits(&a), exact_bits(&b), "{}", spec.name);
    }
}

#[test]
fn seed_changes_values_but_not_structure() {
    let value = |out: &Outcome, name: &str| out.metric(name).expect(name).value;
    for spec in &TINY {
        let (a, b) = (per_layer(spec, 1), per_layer(spec, 2));
        assert_ne!(
            value(&a, "lu3d.residual_norefine"),
            value(&b, "lu3d.residual_norefine"),
            "{}: the seed must change the matrix values",
            spec.name
        );
        assert_eq!(
            value(&a, "symbolic.lu_words"),
            value(&b, "symbolic.lu_words"),
            "{}",
            spec.name
        );
        let (a, b) = (end_to_end(spec, 1), end_to_end(spec, 2));
        assert_eq!(
            value(&a, "wire_words"),
            value(&b, "wire_words"),
            "{}",
            spec.name
        );
    }
}

#[test]
fn inputs_follow_the_seed() {
    let a = KERNEL.generate(3);
    let b = KERNEL.generate(3);
    let c = KERNEL.generate(4);
    assert_eq!(a.a, b.a);
    assert_eq!(a.b, b.b);
    assert_eq!(a.a.col_idx, c.a.col_idx);
    assert_ne!(a.a.values, c.a.values);
    assert_ne!(a.b, c.b);
    let k = SOLVE.generate(3);
    let l = SOLVE.generate(4);
    assert_eq!(k.a.col_idx, l.a.col_idx);
    assert_ne!(k.a.values, l.a.values);
}

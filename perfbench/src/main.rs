//! Benchmark entry point:
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable table, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones and writes the
//! run's spans to `perfbench/out/`. Exits 1 when any check failed.

use perfbench::run::{traced, untraced};
use perfbench::workload::{Spec, WORKLOADS};
use std::path::PathBuf;
use std::process::exit;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(why: &str) -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "{why}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
         workloads: {}",
        names.join(", ")
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut spec = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> ! { usage(&format!("bad value `{value}` for {flag}")) };
        match flag.as_str() {
            "--workload" => spec = Some(Spec::named(&value).unwrap_or_else(|| bad())),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| bad())),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| bad()),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        spec: spec.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

fn main() {
    let args = parse_args();
    let spec = args.spec;
    println!(
        "workload {} (P = {}x{}x{}), seed {}, {} s, trace {}",
        spec.name, spec.pr, spec.pc, spec.pz, args.seed, args.seconds, args.trace as u8
    );
    let outcome = if args.trace {
        let (outcome, spans) = traced(&spec, args.seed, args.seconds);
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-seed{}.json", spec.name, args.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans.to_json().pretty()))
        {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        outcome
    } else {
        untraced(&spec, args.seed, args.seconds)
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    println!(
        "fail_rate = {} / {} = {}",
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted as f64
    );
    for m in &outcome.metrics {
        println!("{:<34} {:>24} {}", m.name, m.value, m.unit);
    }
    for p in &outcome.problems {
        eprintln!("FAILED: {p}");
    }
    println!("{}", outcome.result_json().dump());
    if !outcome.correct() {
        exit(1);
    }
}

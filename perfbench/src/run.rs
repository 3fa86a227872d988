//! The untraced (end-to-end) and traced (per-layer) runs.

use crate::host;
use crate::spans::Spans;
use crate::workload::{assemble, Spec};
use crate::{Metric, Outcome};
use commplan::{build_plan, check_plan, compare_with_measured};
use lu3d::{try_factor_and_solve, try_factor_only, EtreeForest, Output3d, SolverError};
use simgrid::obs::CommReport;
use simgrid::{CommClass, MemClass, PhaseCounter};
use slu2d::driver::Prepared;
use std::any::Any;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Largest accepted `‖A x − b‖∞ / ‖b‖∞` after one refinement step.
const RESIDUAL_MAX: f64 = 1e-12;
/// Share of the elapsed run the set-up repetitions keep. They run between
/// solves, so set-up and solve samples both span the whole run.
const SETUP_SHARE: f64 = 0.1;
/// One untimed warm-up solve lets the allocator and page tables settle.
/// Timed solves then repeat at least this often, and while the next one
/// still fits in the run.
const MIN_SOLVES: usize = 3;

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn host(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        exact: false,
    }
}

fn exact(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        exact: true,
    }
}

/// Run one solver call, turning an error or a panic into a message.
fn attempt(call: impl FnOnce() -> Result<Output3d, SolverError>) -> Result<Output3d, String> {
    match catch_unwind(AssertUnwindSafe(call)) {
        Ok(Ok(out)) => Ok(out),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(format!("panicked: {}", panic_message(payload.as_ref()))),
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string payload"
    }
}

/// Everything a run's simulated machine counted, per rank: clocks as bit
/// patterns, flops, ledger peak, per-phase traffic and the wire ledger.
#[derive(PartialEq)]
struct RankSim {
    clock: u64,
    t_comm: u64,
    t_comp: u64,
    flops: u64,
    peak_mem_bytes: u64,
    traffic: BTreeMap<String, PhaseCounter>,
    commvol: CommReport,
}

fn sim_record(out: &Output3d) -> Vec<RankSim> {
    out.reports
        .iter()
        .map(|r| RankSim {
            clock: r.clock.to_bits(),
            t_comm: r.t_comm.to_bits(),
            t_comp: r.t_comp.to_bits(),
            flops: r.flops,
            peak_mem_bytes: r.peak_mem_bytes,
            traffic: r.traffic.clone(),
            commvol: r.commvol.clone(),
        })
        .collect()
}

/// `‖A x − b‖∞ / ‖b‖∞` of a solve's answer.
fn residual(prep: &Prepared, b: &[f64], out: &Output3d) -> Result<f64, String> {
    let x = out.x.as_ref().ok_or("no solution returned")?;
    let bmax = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    Ok(prep.a.residual_inf(x, b) / bmax)
}

/// Check a refined solve: residual within [`RESIDUAL_MAX`], factors equal
/// to `digest`.
fn check_refined(
    prep: &Prepared,
    b: &[f64],
    out: &Output3d,
    digest: u64,
    problems: &mut Vec<String>,
) -> f64 {
    if out.factor_digest != digest {
        problems.push(format!(
            "factor digest {:#018x} differs from {digest:#018x}",
            out.factor_digest
        ));
    }
    match residual(prep, b, out) {
        Ok(r) if r <= RESIDUAL_MAX => r,
        Ok(r) => {
            problems.push(format!("residual {r:.3e} above {RESIDUAL_MAX:e}"));
            r
        }
        Err(e) => {
            problems.push(e);
            f64::NAN
        }
    }
}

fn total_words(out: &Output3d) -> f64 {
    out.summary().total_sent_words as f64
}

/// End-to-end metrics: repeated set-up between a warm-up and repeated full
/// solves with one refinement step, for about `seconds` in all.
pub fn untraced(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let clock = Instant::now();
    let cfg = spec.config(1, false);
    let mut outcome = Outcome::default();
    let mut setup_s: Vec<f64> = Vec::new();
    // Every solve's host time; the first is the warm-up.
    let mut times = Vec::new();
    let mut first: Option<(u64, Vec<RankSim>)> = None;
    let mut last = None;
    loop {
        let mut problem = None;
        while problem.is_none() || setup_s.iter().sum::<f64>() < SETUP_SHARE * secs(clock) {
            let t = Instant::now();
            let p = black_box(spec.prepare(seed));
            setup_s.push(secs(t));
            problem = Some(p);
        }
        let (prep, b) = problem.expect("set-up ran at least once");

        let t = Instant::now();
        let result = attempt(|| try_factor_and_solve(&prep, &cfg, Some(b.clone())));
        let dt = secs(t);
        let mut problems = Vec::new();
        match result {
            Ok(out) => {
                times.push(dt);
                let (digest, sim) =
                    first.get_or_insert_with(|| (out.factor_digest, sim_record(&out)));
                check_refined(&prep, &b, &out, *digest, &mut problems);
                if *sim != sim_record(&out) {
                    problems.push("simulated counts differ from the first solve".into());
                }
                last = Some(out);
            }
            Err(e) => problems.push(e),
        }
        let ok = problems.is_empty();
        outcome.record("factor+solve", problems);
        if !ok || (times.len() > MIN_SOLVES && secs(clock) + median(&times) > seconds) {
            break;
        }
    }
    let solution_s = times.get(1..).unwrap_or_default();

    let rss = host::peak_rss_bytes();
    if rss.is_none() {
        outcome
            .problems
            .push("peak RSS unreadable from /proc/self/status".into());
    }
    if let Some(out) = &last {
        outcome.metrics = vec![
            host("setup_s", "s", median(&setup_s)),
            host("solution_s", "s", median(solution_s)),
            exact("sim_makespan_s", "sim_s", out.makespan()),
            exact("wire_words", "words", total_words(out)),
            exact("max_rank_words", "words", out.max_rank_sent_words() as f64),
            exact("peak_rank_bytes", "B", out.max_peak_bytes() as f64),
            host(
                "host_rss_mb",
                "MB",
                rss.map_or(f64::NAN, |b| b as f64 / 1e6),
            ),
        ];
    }
    let (lo, hi) = setup_s
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    outcome.notes = vec![
        format!(
            "setup_s: {} samples, min {lo:.4} s, max {hi:.4} s",
            setup_s.len()
        ),
        format!(
            "solution_s: warm-up {:.4} s, then {solution_s:.4?}",
            times.first().copied().unwrap_or(f64::NAN)
        ),
    ];
    outcome
}

/// Per-layer metrics: passes of the span-instrumented pipeline while the
/// next one still fits in `seconds` (at least one). Host numbers are
/// medians over passes; exact numbers must agree between passes.
pub fn traced(spec: &Spec, seed: u64, seconds: f64) -> (Outcome, Spans) {
    let clock = Instant::now();
    let mut spans = Spans::default();
    let mut outcome = Outcome::default();
    let mut passes: Vec<Vec<Metric>> = Vec::new();
    loop {
        spans.set_run(passes.len());
        let t = Instant::now();
        let pass = spans.enter("pass");
        let metrics = traced_pass(spec, seed, &mut spans, &mut outcome);
        spans.exit(pass);
        match metrics {
            Some(m) => passes.push(m),
            None => break,
        }
        if secs(clock) + secs(t) > seconds {
            break;
        }
    }
    if let Some(first) = passes.first() {
        outcome.metrics = first
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let values: Vec<f64> = passes.iter().map(|p| p[i].value).collect();
                if !m.exact {
                    return Metric {
                        value: median(&values),
                        ..m.clone()
                    };
                }
                if values.iter().any(|v| v.to_bits() != m.value.to_bits()) {
                    outcome
                        .problems
                        .push(format!("{} differs between passes: {values:?}", m.name));
                }
                m.clone()
            })
            .collect();
    }
    outcome.notes = vec![format!("traced passes: {}", passes.len())];
    (outcome, spans)
}

/// One pass: set-up, forest, plan, a warm-up factorization, factor only
/// (plan-checked), then full solves with refine 0, refine 1, and refine 1
/// under simulator tracing.
/// The solve and refine layers are differences between successive calls.
fn traced_pass(
    spec: &Spec,
    seed: u64,
    spans: &mut Spans,
    outcome: &mut Outcome,
) -> Option<Vec<Metric>> {
    let setup = spans.enter("setup");
    let inputs = spans.time("sparsemat.generate", || spec.generate(seed));
    let (tree, pa) = spans.time("ordering.nd", || spec.order(&inputs.a));
    let sym = spans.time("symbolic.analyze", || spec.analyze(&pa, &tree));
    spans.exit(setup);
    let b = inputs.b;
    let prep = assemble(inputs.a, tree, pa, sym);

    let forest = spans.time("lu3d.forest", || {
        EtreeForest::build(&prep.tree, &prep.sym, spec.pz)
    });
    let cfg0 = spec.config(0, false);
    let plan = spans.time("commplan.build", || {
        build_plan(&prep.sym, &forest, spec.grid(), cfg0.lookahead)
    });
    let audit = spans.time("commplan.check", || check_plan(&plan));

    // A first call that no metric reads, so that the layers below do not pay
    // for first-touch allocation.
    let warmup = spans.time("lu3d.warmup", || attempt(|| try_factor_only(&prep, &cfg0)));
    let warmup = match warmup {
        Ok(out) => {
            outcome.record("warm-up factor only", Vec::new());
            out
        }
        Err(e) => {
            outcome.record("warm-up factor only", vec![e]);
            return None;
        }
    };

    let mut problems: Vec<String> = audit
        .findings
        .iter()
        .map(|f| format!("plan finding: {f}"))
        .collect();
    let fo = match spans.time("lu3d.factor_only", || {
        attempt(|| try_factor_only(&prep, &cfg0))
    }) {
        Ok(out) => out,
        Err(e) => {
            problems.push(e);
            outcome.record("factor only", problems);
            return None;
        }
    };
    if fo.factor_digest != warmup.factor_digest || sim_record(&fo) != sim_record(&warmup) {
        problems.push("factor only differs from the warm-up call".into());
    }
    let ledgers: Vec<CommReport> = fo.reports.iter().map(|r| r.commvol.clone()).collect();
    if let Err(mismatches) = spans.time("commplan.compare", || {
        compare_with_measured(&plan, &ledgers)
    }) {
        problems.extend(
            mismatches
                .into_iter()
                .map(|m| format!("plan mismatch: {m}")),
        );
    }
    outcome.record("factor only + plan check", problems);

    let cfg1 = spec.config(1, false);
    let cfg1_traced = spec.config(1, true);
    let solve = |cfg| attempt(|| try_factor_and_solve(&prep, cfg, Some(b.clone())));

    let mut problems = Vec::new();
    let r0 = spans.time("lu3d.solve_refine0", || solve(&cfg0));
    let (r0, residual_norefine) = match r0 {
        Ok(out) => {
            if out.factor_digest != fo.factor_digest {
                problems.push("factor digest differs from factor only".into());
            }
            let r = residual(&prep, &b, &out).unwrap_or_else(|e| {
                problems.push(e);
                f64::NAN
            });
            (Some(out), r)
        }
        Err(e) => {
            problems.push(e);
            (None, f64::NAN)
        }
    };
    outcome.record("factor+solve refine 0", problems);

    let mut problems = Vec::new();
    let cpu0 = host::cpu_seconds();
    let r1 = spans.time("lu3d.solve_refine1", || solve(&cfg1));
    let cpu1 = host::cpu_seconds();
    let r1 = r1.map_err(|e| problems.push(e)).ok();
    let residual_refined = r1.as_ref().map_or(f64::NAN, |out| {
        check_refined(&prep, &b, out, fo.factor_digest, &mut problems)
    });
    outcome.record("factor+solve refine 1", problems);

    let mut problems = Vec::new();
    let rt = spans.time("lu3d.solve_refine1_traced", || solve(&cfg1_traced));
    let rt = rt.map_err(|e| problems.push(e)).ok();
    if let (Some(rt), Some(r1)) = (&rt, &r1) {
        check_refined(&prep, &b, rt, fo.factor_digest, &mut problems);
        if sim_record(rt) != sim_record(r1) {
            problems.push("simulated counts differ between traced and untraced solves".into());
        }
        let bits = |o: &Output3d| {
            o.x.as_ref()
                .map(|x| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        if bits(rt) != bits(r1) {
            problems.push("solution differs between traced and untraced solves".into());
        }
    }
    let critpath = rt.as_ref().and_then(|o| o.critical_path());
    if rt.is_some() && critpath.is_none() {
        problems.push("traced solve returned no critical path".into());
    }
    outcome.record("factor+solve refine 1 traced", problems);

    let (r0, r1, cp) = (r0?, r1?, critpath?);
    let run = spans.run();
    let self_s = |name: &str| spans.self_secs_of(run, name);
    let phase_sum = |out: &Output3d, phase: &str, field: fn(&PhaseCounter) -> u64| {
        out.reports
            .iter()
            .map(|r| r.traffic.get(phase).map_or(0, field))
            .sum::<u64>() as f64
    };
    let stats = prep.sym.stats();
    let factor_s = self_s("lu3d.factor_only");
    let flops = fo.summary().total_flops as f64;
    let (user_s, sys_s) = match (cpu0, cpu1) {
        (Some((u0, s0)), Some((u1, s1))) => (u1 - u0, s1 - s0),
        _ => (f64::NAN, f64::NAN),
    };
    let t_comm: f64 = r1.reports.iter().map(|r| r.t_comm).sum();
    let clocks: f64 = r1.reports.iter().map(|r| r.clock).sum();
    let shares = cp.attribution_fractions();
    let share = |label: &str| shares.get(label).copied().unwrap_or(0.0);
    let kinds = cp.kind_attribution();
    let kind = |k: &str| kinds.get(k).copied().unwrap_or(0.0);
    let (words, struct_words) = r1
        .reports
        .iter()
        .flat_map(|r| &r.commvol.entries)
        .fold((0u64, 0u64), |(w, s), e| {
            (w + e.cell.words, s + e.cell.struct_words)
        });

    Some(vec![
        host("sparsemat.gen_s", "s", self_s("sparsemat.generate")),
        host("ordering.nd_s", "s", self_s("ordering.nd")),
        host("symbolic.analyze_s", "s", self_s("symbolic.analyze")),
        exact("symbolic.supernodes", "count", stats.nsup as f64),
        exact("symbolic.lu_words", "words", stats.factor_words as f64),
        exact("symbolic.pred_flops", "flop", stats.total_flops as f64),
        host("lu3d.forest_s", "s", self_s("lu3d.forest")),
        exact(
            "lu3d.forest_cp_cost",
            "flop",
            forest.critical_path_cost(&prep.tree, &prep.sym) as f64,
        ),
        host("commplan.build_s", "s", self_s("commplan.build")),
        exact("commplan.words", "words", plan.total_words() as f64),
        host("lu3d.factor_s", "s", factor_s),
        exact("lu3d.factor_sim_s", "sim_s", fo.makespan()),
        exact(
            "lu3d.fact_words",
            "words",
            phase_sum(&fo, "fact", |c| c.sent_words),
        ),
        exact(
            "lu3d.reduce_words",
            "words",
            phase_sum(&fo, "reduce", |c| c.sent_words),
        ),
        exact(
            "lu3d.fact_msgs",
            "count",
            phase_sum(&fo, "fact", |c| c.sent_msgs),
        ),
        host("lu3d.solve_s", "s", self_s("lu3d.solve_refine0") - factor_s),
        exact("lu3d.solve_sim_s", "sim_s", r0.makespan() - fo.makespan()),
        exact(
            "lu3d.solve_words",
            "words",
            total_words(&r0) - total_words(&fo),
        ),
        host(
            "lu3d.refine_s",
            "s",
            self_s("lu3d.solve_refine1") - self_s("lu3d.solve_refine0"),
        ),
        exact("lu3d.refine_sim_s", "sim_s", r1.makespan() - r0.makespan()),
        exact(
            "lu3d.refine_words",
            "words",
            total_words(&r1) - total_words(&r0),
        ),
        exact("lu3d.residual_norefine", "ratio", residual_norefine),
        exact("lu3d.residual", "ratio", residual_refined),
        exact("densela.flops", "flop", flops),
        host("densela.gflop_per_s", "Gflop/s", flops / factor_s / 1e9),
        exact(
            "simgrid.msgs",
            "count",
            r1.reports.iter().map(|r| r.total_sent_msgs()).sum::<u64>() as f64,
        ),
        exact(
            "simgrid.collective_words",
            "words",
            r1.class_words(CommClass::Collective) as f64,
        ),
        exact("simgrid.t_comm_share", "ratio", t_comm / clocks),
        host("simgrid.host_sys_s", "s", sys_s),
        host("simgrid.host_user_s", "s", user_s),
        host(
            "simgrid.host_s_per_rank",
            "s",
            self_s("lu3d.solve_refine1") / spec.ranks() as f64,
        ),
        exact("obs.critpath.fact_share", "ratio", share("fact")),
        exact("obs.critpath.reduce_share", "ratio", share("reduce")),
        exact("obs.critpath.solve_share", "ratio", share("solve")),
        exact(
            "obs.critpath.comm_share",
            "ratio",
            (kind("comm") + kind("wait")) / cp.makespan,
        ),
        exact(
            "obs.commvol.waste",
            "ratio",
            (words - struct_words) as f64 / words as f64,
        ),
        exact(
            "obs.mem.schur_buf_bytes",
            "B",
            r1.peak_class_bytes(MemClass::SchurBuf) as f64,
        ),
        exact(
            "obs.mem.ancestor_replica_bytes",
            "B",
            r1.peak_class_bytes(MemClass::AncestorReplica) as f64,
        ),
        host(
            "obs.trace_overhead",
            "ratio",
            self_s("lu3d.solve_refine1_traced") / self_s("lu3d.solve_refine1"),
        ),
    ])
}

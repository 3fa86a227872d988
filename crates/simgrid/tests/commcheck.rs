//! Seeded-defect tests for the online communication sanitizer: a planted
//! deadlock and a planted leak must each be detected and reported with the
//! exact ranks, phase, and (ctx, tag).

use commcheck::Finding;
use simgrid::{Machine, Payload, TimeModel};
use std::panic::AssertUnwindSafe;

/// Run `f` expecting a rank panic; return the panic message.
fn panic_message<T: std::fmt::Debug + Send + 'static>(
    m: Machine,
    f: impl Fn(&mut simgrid::Rank) -> T + Send + Sync + 'static,
) -> String {
    let err = std::panic::catch_unwind(AssertUnwindSafe(|| m.run(f))).expect_err("run must panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload must be a string")
}

#[test]
fn seeded_deadlock_is_reported_with_the_cycle() {
    // Classic A<->B cross receive: each rank waits for the other's message
    // before sending its own. The detector must name both ranks, what each
    // waits on, and the phase — long before the timeout backstop.
    let m = Machine::new(2, TimeModel::zero()).with_sanitizer();
    let msg = panic_message(m, |rank| {
        let world = rank.world();
        rank.set_phase("fact");
        let peer = 1 - rank.id();
        let tag = 40 + rank.id() as u64;
        let got = rank.recv(&world, peer, tag); // never satisfied
        rank.send(&world, peer, 41 - rank.id() as u64, Payload::Empty);
        got.words()
    });
    assert!(msg.contains("deadlock detected"), "{msg}");
    assert!(msg.contains("2 rank(s)"), "{msg}");
    assert!(msg.contains("rank 0 blocked in recv"), "{msg}");
    assert!(msg.contains("rank 1 blocked in recv"), "{msg}");
    // Rank 0 waits on (ctx=0, src=1, tag=40); rank 1 on (ctx=0, src=0, tag=41).
    assert!(msg.contains("(ctx=0, src=1, tag=40, phase=fact)"), "{msg}");
    assert!(msg.contains("(ctx=0, src=0, tag=41, phase=fact)"), "{msg}");
    assert!(msg.contains("waiting on rank(s) 1"), "{msg}");
    assert!(msg.contains("waiting on rank(s) 0"), "{msg}");
}

#[test]
fn deadlock_on_a_finished_rank_is_detected() {
    // Rank 1 exits without ever sending; rank 0 waits forever on it. Not a
    // cycle, but just as hopeless — the wait-for graph treats Done ranks as
    // never able to send.
    let m = Machine::new(2, TimeModel::zero()).with_sanitizer();
    let msg = panic_message(m, |rank| {
        let world = rank.world();
        rank.set_phase("reduce");
        if rank.id() == 0 {
            rank.recv(&world, 1, 9);
        }
        0u64
    });
    assert!(msg.contains("deadlock detected"), "{msg}");
    assert!(msg.contains("rank 0 blocked in recv"), "{msg}");
    assert!(msg.contains("(ctx=0, src=1, tag=9, phase=reduce)"), "{msg}");
}

#[test]
fn seeded_leak_is_reported_with_src_dst_slot() {
    // Rank 0 sends two messages; rank 1 receives only one. The unmatched
    // send must surface as a Leak with full addressing detail.
    let m = Machine::new(2, TimeModel::zero()).with_sanitizer();
    let out = m.run(|rank| {
        let world = rank.world();
        rank.set_phase("fact");
        if rank.id() == 0 {
            rank.send(&world, 1, 7, Payload::F64s(vec![1.0, 2.0]));
            rank.send(&world, 1, 8, Payload::F64s(vec![3.0; 5])); // leaked
        } else {
            let _ = rank.recv(&world, 0, 7);
        }
    });
    let rep = out.sanitizer.expect("sanitized run must report");
    assert_eq!(rep.msgs_sent, 2);
    assert_eq!(rep.msgs_received, 1);
    let leaks: Vec<_> = rep.leaks().collect();
    assert_eq!(leaks.len(), 1, "{}", rep.render());
    let Finding::Leak {
        src,
        dst,
        ctx,
        tag,
        words,
        phase,
    } = leaks[0];
    assert_eq!((*src, *dst, *ctx, *tag, *words), (0, 1, 0, 8, 5));
    assert_eq!(phase, "fact");
    let rendered = rep.render();
    assert!(rendered.contains("LEAK: message 0 -> 1"), "{rendered}");
}

#[test]
fn clean_collective_run_reports_clean() {
    // A representative mix of collectives and point-to-point under the
    // sanitizer: everything matches, nothing leaks.
    let m = Machine::new(4, TimeModel::edison_like()).with_sanitizer();
    let out = m.run(|rank| {
        let world = rank.world();
        rank.set_phase("fact");
        let data = if rank.id() == 0 {
            Some(Payload::F64s(vec![3.5; 8]))
        } else {
            None
        };
        let b = rank.bcast(&world, 0, data, 2).into_f64s();
        rank.set_phase("reduce");
        let s = rank.allreduce_sum(&world, vec![b[0]], 4)[0];
        rank.barrier(&world, 6);
        s
    });
    for r in &out.results {
        assert_eq!(*r, 14.0);
    }
    let rep = out.sanitizer.expect("sanitized run must report");
    assert!(rep.is_clean(), "{}", rep.render());
    assert_eq!(rep.msgs_sent, rep.msgs_received, "{}", rep.render());
    assert!(rep.msgs_sent > 0);
}

#[test]
fn unsanitized_run_has_no_report() {
    let m = Machine::new(2, TimeModel::zero());
    let out = m.run(|rank| {
        let world = rank.world();
        if rank.id() == 0 {
            rank.send(&world, 1, 1, Payload::Empty);
        } else {
            let _ = rank.recv(&world, 0, 1);
        }
    });
    assert!(out.sanitizer.is_none());
}

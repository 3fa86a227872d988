//! The discrete-event backend at the messaging layer: identical simulated
//! behavior to the threaded backend, scheduler-state deadlock detection
//! instead of the watchdog thread, and rank counts far beyond what
//! free-running threads could sensibly run.

use simgrid::{Backend, FailKind, Machine, Payload, TimeModel};

fn machine(n: usize, backend: Backend) -> Machine {
    Machine::new(n, TimeModel::edison_like()).with_backend(backend)
}

#[test]
fn ring_exchange_matches_threaded_bitwise() {
    let run = |backend| {
        machine(16, backend).run(|rank| {
            let world = rank.world();
            let right = (rank.id() + 1) % 16;
            let left = (rank.id() + 15) % 16;
            rank.send(
                &world,
                right,
                1,
                Payload::F64s(vec![rank.id() as f64 * 0.1]),
            );
            let got = rank.recv(&world, left, 1).into_f64s()[0];
            rank.allreduce_sum(&world, vec![got], 2)[0]
        })
    };
    let t = run(Backend::Threaded);
    let e = run(Backend::Event);
    for (a, b) in t.results.iter().zip(&e.results) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    // Simulated clocks and traffic are the same machine-level ledger.
    for (rt, re) in t.reports.iter().zip(&e.reports) {
        assert_eq!(rt.clock.to_bits(), re.clock.to_bits());
        assert_eq!(rt.total_sent_msgs(), re.total_sent_msgs());
    }
}

#[test]
fn collectives_and_point_to_point_run_under_the_scheduler() {
    let out = machine(8, Backend::Event).run(|rank| {
        let world = rank.world();
        rank.barrier(&world, 0);
        if rank.id() == 1 {
            rank.send(&world, 0, 7, Payload::Idx(vec![rank.id()]));
        }
        let got = if rank.id() == 0 {
            rank.recv(&world, 1, 7).into_idx()[0]
        } else {
            0
        };
        let s = rank.allreduce_sum(&world, vec![got as f64], 9)[0];
        rank.bcast(
            &world,
            3,
            (rank.id() == 3).then(|| Payload::F64s(vec![s])),
            11,
        )
        .into_f64s()[0]
    });
    for r in &out.results {
        assert_eq!(*r, 1.0);
    }
}

#[test]
fn quiescence_is_reported_as_a_deadlock_with_the_exact_cycle() {
    // Cross-receive cycle, no sanitizer, no fault plan: the threaded
    // backend would only trip the wall-clock backstop here (no detector
    // thread), but the event scheduler *proves* quiescence and publishes
    // the cycle immediately.
    let err = machine(2, Backend::Event)
        .try_run(|rank| {
            let world = rank.world();
            let peer = 1 - rank.id();
            let _ = rank.recv(&world, peer, 5);
        })
        .expect_err("cross recv must deadlock");
    let text = err.render();
    assert!(text.contains("deadlock detected"), "{text}");
    assert!(text.contains("tag=5"), "{text}");
}

#[test]
fn waits_on_a_dead_peer_resolve_as_cascades() {
    // Rank 1 panics; rank 0 blocks on it forever. The scheduler must wake
    // rank 0 and resolve the wait as a cascade of rank 1's failure, with
    // the panic as the primary cause.
    let err = machine(2, Backend::Event)
        .try_run(|rank| {
            let world = rank.world();
            if rank.id() == 1 {
                panic!("boom");
            }
            let _ = rank.recv(&world, 1, 3);
        })
        .expect_err("rank 1's panic must fail the run");
    let primary = &err.failures[0];
    assert_eq!(primary.rank, 1);
    assert!(matches!(&primary.kind, FailKind::Panic { message } if message == "boom"));
}

#[test]
fn event_backend_runs_4096_ranks() {
    // Paper-scale rank count in one process: a 4096-rank ring with a
    // final allreduce. Free-running threads would thrash; cooperative
    // tasks just take turns.
    const P: usize = 4096;
    let out = machine(P, Backend::Event).run(|rank| {
        let world = rank.world();
        let right = (rank.id() + 1) % P;
        let left = (rank.id() + P - 1) % P;
        rank.send(&world, right, 1, Payload::Idx(vec![rank.id()]));
        let got = rank.recv(&world, left, 1).into_idx()[0];
        rank.allreduce_sum(&world, vec![got as f64], 2)[0]
    });
    let expected = (P * (P - 1) / 2) as f64;
    assert!(out.results.iter().all(|&s| s == expected));
}

#[test]
fn sanitizer_rides_along_without_a_detector_thread() {
    // Leak accounting still works under the event backend (the SanState is
    // shared state, not a thread), and a clean run reports clean.
    let out = machine(4, Backend::Event).with_sanitizer().run(|rank| {
        let world = rank.world();
        let right = (rank.id() + 1) % 4;
        let left = (rank.id() + 3) % 4;
        rank.send(&world, right, 1, Payload::Idx(vec![rank.id()]));
        rank.recv(&world, left, 1).into_idx()[0]
    });
    let rep = out.sanitizer.expect("sanitized run must report");
    assert!(rep.is_clean(), "{}", rep.render());
}

#[test]
fn host_profiling_under_event_backend_fails_fast_with_config_error() {
    // PR-10 satellite: this combination used to be dropped silently — the
    // run succeeded and the hostprof report was simply absent. It must now
    // be rejected before any rank runs, with a structured config failure.
    let err = machine(2, Backend::Event)
        .with_host_profiling()
        .try_run(|_rank| ())
        .expect_err("host profiling + event backend must be rejected");
    let primary = err.primary();
    assert_eq!(primary.phase, "config");
    assert!(
        matches!(&primary.kind, FailKind::Config { detail }
            if detail.contains("threaded backend")),
        "unexpected failure kind: {}",
        primary.kind
    );
    // The same machine without host profiling runs fine.
    machine(2, Backend::Event).run(|_rank| ());
    // And the threaded combination still profiles.
    let out = machine(2, Backend::Threaded)
        .with_host_profiling()
        .run(|_rank| ());
    assert!(out.hostprof_profile().is_some());
}

#[test]
fn spurious_wakeups_are_bounded_by_delivered_messages() {
    // Rank 1 blocks on tag 99 while rank 0 bombards it with 64 messages on
    // other tags — every delivery wakes rank 1, which drains, stashes, and
    // re-parks (the spurious-wakeup path). A blocked rank is only ever
    // re-queued by a delivered send, so the wake count is bounded and the
    // run terminates; a spin-wake bug here would hang this test.
    let out = machine(2, Backend::Event).run(|rank| {
        let world = rank.world();
        if rank.id() == 0 {
            for i in 0..64u64 {
                rank.send(&world, 1, i, Payload::Idx(vec![i as usize]));
            }
            rank.send(&world, 1, 99, Payload::Idx(vec![7]));
            0
        } else {
            // The matching tag arrives last; each earlier delivery is a
            // spurious wakeup for this receive.
            let got = rank.recv(&world, 0, 99).into_idx()[0];
            // The stashed messages are all still there, in order.
            for i in 0..64u64 {
                assert_eq!(rank.recv(&world, 0, i).into_idx()[0], i as usize);
            }
            got
        }
    });
    assert_eq!(out.results[1], 7);
}

#[test]
fn rank_blocked_on_a_never_sent_tag_terminates_with_a_deadlock_report() {
    // Nobody ever sends tag 1234: once rank 0 finishes, the machine is
    // quiescent with rank 1 parked. The scheduler must prove the deadlock
    // and abort the wait — not leave rank 1 spin-waking indefinitely.
    let err = machine(2, Backend::Event)
        .try_run(|rank| {
            let world = rank.world();
            if rank.id() == 1 {
                let _ = rank.recv(&world, 0, 1234);
            }
        })
        .expect_err("a wait nobody satisfies must fail the run");
    let primary = err.primary();
    assert_eq!(primary.rank, 1);
    let text = err.render();
    assert!(text.contains("tag=1234"), "{text}");
}

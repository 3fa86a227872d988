//! Execution backends: how the simulated ranks are driven.
//!
//! The machine's SPMD contract — `f(&mut Rank)` per rank, blocking
//! receives, deterministic results — admits more than one execution
//! strategy. This module puts the strategy behind the [`ExecBackend`]
//! trait with two implementations:
//!
//! - [`ThreadedBackend`]: the original free-running mode. Every rank is an
//!   OS thread scheduled by the kernel; receives block on the channel with
//!   a wall-clock backstop, and a watchdog thread runs the deadlock
//!   detector. Real host parallelism — required by the host-time profiler,
//!   whose phase attribution only means something when ranks actually run
//!   concurrently.
//! - [`EventBackend`]: discrete-event mode. Ranks are *resumable tasks*:
//!   each still owns a (mostly parked) OS thread as its coroutine stack,
//!   but exactly one runs at any instant, driven by a cooperative
//!   scheduler on the caller's thread. A blocking receive that finds its
//!   inbox empty yields back to the scheduler instead of sleeping on the
//!   channel; a send marks its destination runnable. No wall-clock
//!   timeouts, no watchdog thread: when the ready queue empties with live
//!   ranks still blocked, the machine is provably quiescent and the
//!   scheduler resolves the situation *synchronously* from the wait-for
//!   graph (deadlock) or the failure board (cascade). This is what makes
//!   paper-scale grids — `P = 64×64 = 4096` ranks — run in one process:
//!   4096 parked tasks cost virtual address space, not CPU.
//!
//! Both backends execute the same per-rank program against the same
//! simulated clocks, so factor digests, makespans, and every `obs` ledger
//! (commvol/memprof/metrics) are bitwise identical between them — the
//! differential suite in `tests/backends.rs` pins exactly that.

use crate::faultlab::{FailureBoard, MachineFailure};
use crate::machine::{Machine, RunResult};
use crate::rank::Rank;
use commcheck::WaitGraph;
use crossbeam::channel::{Receiver, Sender};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Which execution backend drives a [`Machine`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// One free-running OS thread per rank (kernel-scheduled).
    #[default]
    Threaded,
    /// Cooperative discrete-event scheduler; ranks are resumable tasks and
    /// exactly one runs at a time.
    Event,
}

impl Backend {
    /// Canonical lowercase name, as used by the CLI, campaign specs, and
    /// snapshot files.
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Threaded => "threaded",
            Backend::Event => "event",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threaded" => Ok(Backend::Threaded),
            "event" => Ok(Backend::Event),
            other => Err(format!(
                "unknown backend '{other}' (expected 'threaded' or 'event')"
            )),
        }
    }
}

/// An execution strategy for [`Machine`] runs. See the module docs for the
/// two implementations and their contract: identical simulated results,
/// different host-side scheduling.
pub trait ExecBackend {
    /// Run `f` as an SPMD program on `machine`, one logical rank per
    /// invocation, and collect results and per-rank reports.
    fn run<T, F>(&self, machine: &Machine, f: F) -> Result<RunResult<T>, MachineFailure>
    where
        T: Send + 'static,
        F: Fn(&mut Rank) -> T + Send + Sync + 'static;
}

/// The original free-running mode: kernel-scheduled rank threads, blocking
/// channel receives, watchdog deadlock detector, wall-clock backstop.
pub struct ThreadedBackend;

impl ExecBackend for ThreadedBackend {
    fn run<T, F>(&self, machine: &Machine, f: F) -> Result<RunResult<T>, MachineFailure>
    where
        T: Send + 'static,
        F: Fn(&mut Rank) -> T + Send + Sync + 'static,
    {
        machine.execute(f, Backend::Threaded)
    }
}

/// Discrete-event mode: ranks are cooperatively scheduled resumable tasks;
/// sends and receives become scheduler events instead of channel blocking.
pub struct EventBackend;

impl ExecBackend for EventBackend {
    fn run<T, F>(&self, machine: &Machine, f: F) -> Result<RunResult<T>, MachineFailure>
    where
        T: Send + 'static,
        F: Fn(&mut Rank) -> T + Send + Sync + 'static,
    {
        machine.execute(f, Backend::Event)
    }
}

/// What a rank task reports back to the scheduler when it stops running.
/// Exactly one of these arrives per resume: the resumed rank either parks
/// in a blocked receive or terminates (normally or by panic).
#[derive(Debug)]
pub(crate) enum SchedEvent {
    /// The rank's blocking receive found nothing and parked.
    Blocked(usize),
    /// The rank's SPMD closure returned or unwound; it will never run again.
    Done(usize),
}

/// Per-rank handle onto the event scheduler, carried inside [`Rank`] when
/// the machine runs under [`EventBackend`] (`None` under the threaded
/// backend — every hook below is then never called).
pub(crate) struct EventCtl {
    rank: usize,
    /// Rank -> scheduler: yield and termination events.
    sched_tx: Sender<SchedEvent>,
    /// Scheduler -> this rank: permission to run.
    resume_rx: Receiver<()>,
    /// Destinations of delivered sends since the scheduler last drained;
    /// the scheduler turns these into wakeups. Uncontended: only the one
    /// running rank pushes, and the scheduler drains only while no rank
    /// runs.
    notify: Arc<Mutex<Vec<usize>>>,
}

impl EventCtl {
    /// Record that a message was handed to `dst_world`'s inbox, so the
    /// scheduler can mark it runnable. Called from the send path of the
    /// (single) running rank.
    pub(crate) fn note_send(&self, dst_world: usize) {
        self.notify.lock().unwrap().push(dst_world);
    }

    /// Park until the scheduler grants another time slice. Panics if the
    /// scheduler vanished — that is a harness bug, not a protocol failure.
    pub(crate) fn yield_blocked(&self) {
        self.sched_tx
            .send(SchedEvent::Blocked(self.rank))
            .expect("event scheduler dropped its queue while ranks live");
        self.resume_rx
            .recv()
            .expect("event scheduler vanished while a rank was parked");
    }

    /// Park until the scheduler's first resume. Called once per rank task
    /// before its SPMD closure starts, establishing the one-at-a-time
    /// invariant from the very first instruction.
    pub(crate) fn wait_first_resume(&self) {
        self.resume_rx
            .recv()
            .expect("event scheduler vanished before the run started");
    }
}

/// Sends [`SchedEvent::Done`] when the rank task exits, normally or by
/// panic. Declared *before* the wait-graph done-guard in the task body so
/// it drops *after* it: by the time the scheduler processes the Done event,
/// the wait-for graph already shows the rank finished.
pub(crate) struct DoneNotifier {
    pub(crate) rank: usize,
    pub(crate) sched_tx: Sender<SchedEvent>,
}

impl Drop for DoneNotifier {
    fn drop(&mut self) {
        let _ = self.sched_tx.send(SchedEvent::Done(self.rank));
    }
}

/// Wiring the machine hands each event-mode rank task at spawn time.
pub(crate) struct EventWiring {
    pub(crate) sched_tx: Sender<SchedEvent>,
    pub(crate) resume_rx: Receiver<()>,
    pub(crate) notify: Arc<Mutex<Vec<usize>>>,
}

impl EventWiring {
    pub(crate) fn into_ctl(self, rank: usize) -> EventCtl {
        EventCtl {
            rank,
            sched_tx: self.sched_tx,
            resume_rx: self.resume_rx,
            notify: self.notify,
        }
    }
}

/// Scheduler-side view of one rank task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    /// In the ready queue, waiting for a time slice.
    Ready,
    /// Currently holding the machine (at most one rank at a time).
    Running,
    /// Parked in a blocking receive with an empty inbox.
    Blocked,
    /// Terminated; never scheduled again.
    Done,
}

/// The cooperative scheduler: drives rank tasks one at a time until all
/// terminate. Runs on the caller's thread between spawn and join.
///
/// # Ready-queue ordering (deterministic, by construction)
///
/// The ready queue is strict FIFO, seeded `0..n` at start. Wakeups are
/// appended in *send order*: the one running rank pushes each delivered
/// destination onto `notify` as it sends, and [`EventScheduler::step`]
/// drains that list in order after the slice, enqueueing only
/// destinations that are currently [`TaskState::Blocked`]. A rank is
/// never queued twice (enqueueing flips it to `Ready`), and a running or
/// ready rank is never re-queued by a wakeup. Since exactly one task runs
/// at a time, the whole interleaving is a deterministic function of the
/// rank programs — *no* simulated quantity depends on it, but determinism
/// here also makes host-side behavior (iteration counts, trace file
/// layout) reproducible run-to-run.
///
/// # Spurious wakeups cannot livelock
///
/// A wakeup is *spurious* when the notified rank's blocking receive drains
/// its inbox and still has no matching message (e.g. the send carried a
/// different tag; the receive stashes it and re-parks). Each such
/// wake–recheck–park cycle consumes one ready-queue entry that only a
/// *delivered send* (or the quiescence resolver) can replenish: a blocked
/// rank is re-queued only from `notify`, never by itself. So the number of
/// spurious wakeups a rank can ever experience is bounded by the total
/// number of messages addressed to it — a rank blocked on a tag nobody
/// sends re-parks at most once per incoming message and then stays parked
/// until the machine goes quiescent, where [`Self::resolve_quiescence`]
/// either proves a deadlock or resolves cascades. There is no path that
/// re-queues a blocked rank without new information, hence no spin-wake
/// loop (regression-tested in `tests/event_backend.rs`).
pub(crate) struct EventScheduler {
    state: Vec<TaskState>,
    ready: VecDeque<usize>,
    ndone: usize,
    sched_rx: Receiver<SchedEvent>,
    resume_txs: Vec<Sender<()>>,
    notify: Arc<Mutex<Vec<usize>>>,
    wait_graph: Arc<WaitGraph>,
    board: Arc<FailureBoard>,
    /// Progress counters (`ndone`, total wakeup notifications) at the last
    /// quiescent wake-all; a second quiescence with identical counters
    /// means the survivors are cyclically stuck.
    stall_snapshot: Option<(usize, u64)>,
    /// Running count of drained send notifications (progress measure).
    nsends: u64,
}

impl EventScheduler {
    pub(crate) fn new(
        n: usize,
        sched_rx: Receiver<SchedEvent>,
        resume_txs: Vec<Sender<()>>,
        notify: Arc<Mutex<Vec<usize>>>,
        wait_graph: Arc<WaitGraph>,
        board: Arc<FailureBoard>,
    ) -> Self {
        EventScheduler {
            state: vec![TaskState::Ready; n],
            ready: (0..n).collect(),
            ndone: 0,
            sched_rx,
            resume_txs,
            notify,
            wait_graph,
            board,
            stall_snapshot: None,
            nsends: 0,
        }
    }

    /// Drive the machine to completion: every rank task terminated.
    pub(crate) fn drive(&mut self) {
        let n = self.state.len();
        while self.ndone < n {
            if let Some(r) = self.ready.pop_front() {
                self.step(r);
            } else {
                self.resolve_quiescence();
            }
        }
    }

    /// Give rank `r` a time slice and absorb the one event it produces.
    fn step(&mut self, r: usize) {
        self.state[r] = TaskState::Running;
        // A parked task cannot exit, so its resume endpoint is alive.
        self.resume_txs[r]
            .send(())
            .expect("parked rank task dropped its resume endpoint");
        match self
            .sched_rx
            .recv()
            .expect("all rank tasks vanished mid-run")
        {
            SchedEvent::Blocked(b) => {
                debug_assert_eq!(b, r, "only the running rank can yield");
                self.state[b] = TaskState::Blocked;
            }
            SchedEvent::Done(d) => {
                debug_assert_eq!(d, r, "only the running rank can terminate");
                self.state[d] = TaskState::Done;
                self.ndone += 1;
            }
        }
        // Turn the slice's sends into wakeups. Progress of any kind (a
        // send or a termination) invalidates the stall snapshot.
        let dsts: Vec<usize> = std::mem::take(&mut *self.notify.lock().unwrap());
        if !dsts.is_empty() {
            self.nsends += dsts.len() as u64;
        }
        for dst in dsts {
            if self.state[dst] == TaskState::Blocked {
                self.state[dst] = TaskState::Ready;
                self.ready.push_back(dst);
            }
        }
    }

    /// The ready queue is empty but live ranks remain: every one of them is
    /// parked in a blocking receive over an empty inbox, and — because
    /// sends are synchronous under cooperative scheduling — no message is
    /// in flight. The machine cannot move on its own. Three cases:
    ///
    /// 1. No failure on the board: the blocked ranks form a hopeless set by
    ///    construction. Publish the deadlock report synchronously (no
    ///    detector thread, no grace period — quiescence is proven, not
    ///    guessed) and wake everyone to abort with it.
    /// 2. A failure is on the board: wake everyone so waits on dead peers
    ///    resolve as cascades ([`crate::RecvError::PeerFailed`]).
    /// 3. A failure is on the board but the previous wake-all made no
    ///    progress (no termination, no send): the survivors are cyclically
    ///    stuck independent of the failure — publish the deadlock report
    ///    and wake them to abort.
    fn resolve_quiescence(&mut self) {
        let progress = (self.ndone, self.nsends);
        let stalled = self.stall_snapshot == Some(progress);
        self.stall_snapshot = Some(progress);
        if !self.board.has_failure() || stalled {
            // Deliberately ignore an empty verdict: all live ranks are
            // blocked on blocked-or-done ranks, so the stuck set is exactly
            // the blocked set and never empty here.
            let _ = self.wait_graph.detect_now();
        }
        for r in 0..self.state.len() {
            if self.state[r] == TaskState::Blocked {
                self.state[r] = TaskState::Ready;
                self.ready.push_back(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_round_trips_through_its_name() {
        for b in [Backend::Threaded, Backend::Event] {
            assert_eq!(b.as_str().parse::<Backend>().unwrap(), b);
        }
        assert!("mpi".parse::<Backend>().is_err());
        assert_eq!(Backend::default(), Backend::Threaded);
    }
}

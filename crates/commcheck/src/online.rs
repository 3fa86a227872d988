//! Shared state of the online sanitizer: the outstanding-send table that
//! backs finalize-time leak reporting.
//!
//! The machine owns one [`SanState`] per sanitized run. Every send
//! registers itself (with the sender's phase); every receive retires the
//! matched entry. Whatever is still outstanding when every rank has
//! finished is a [`Finding::Leak`].

use crate::report::{CommReport, Finding};
use std::collections::HashMap;
use std::sync::Mutex;

/// One send that has not yet been matched by a receive.
#[derive(Clone, Debug)]
pub struct SendRec {
    pub src: usize,
    pub dst: usize,
    pub ctx: u64,
    pub tag: u64,
    pub words: u64,
    /// Sender's traffic phase at send time.
    pub phase: String,
}

#[derive(Debug, Default)]
struct Inner {
    /// Message uid → its send record, removed when received.
    outstanding: HashMap<u64, SendRec>,
    findings: Vec<Finding>,
    msgs_sent: u64,
    msgs_received: u64,
}

/// Machine-wide sanitizer state, shared by all rank threads.
#[derive(Debug, Default)]
pub struct SanState {
    inner: Mutex<Inner>,
}

impl SanState {
    pub fn new() -> Self {
        SanState::default()
    }

    /// Register a send. Called by the sending rank.
    pub fn on_send(&self, uid: u64, rec: SendRec) {
        let mut g = self.inner.lock().unwrap();
        g.msgs_sent += 1;
        g.outstanding.insert(uid, rec);
    }

    /// Retire a matched message. Returns its send record.
    pub fn on_recv(&self, uid: u64) -> Option<SendRec> {
        let mut g = self.inner.lock().unwrap();
        g.msgs_received += 1;
        g.outstanding.remove(&uid)
    }

    /// Record an arbitrary finding.
    pub fn push_finding(&self, f: Finding) {
        self.inner.lock().unwrap().findings.push(f);
    }

    /// Finalize: every send still outstanding is a leak. Call after all
    /// rank threads have been joined (nothing is in flight any more).
    pub fn into_report(self) -> CommReport {
        let mut g = self.inner.into_inner().unwrap();
        let mut leftovers: Vec<(u64, SendRec)> = g.outstanding.drain().collect();
        // Deterministic report order regardless of hash iteration.
        leftovers.sort_by_key(|(uid, _)| *uid);
        for (_, rec) in leftovers {
            g.findings.push(Finding::Leak {
                src: rec.src,
                dst: rec.dst,
                ctx: rec.ctx,
                tag: rec.tag,
                words: rec.words,
                phase: rec.phase,
            });
        }
        CommReport {
            findings: g.findings,
            msgs_sent: g.msgs_sent,
            msgs_received: g.msgs_received,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(src: usize, dst: usize, ctx: u64, tag: u64) -> SendRec {
        SendRec {
            src,
            dst,
            ctx,
            tag,
            words: 4,
            phase: "fact".into(),
        }
    }

    #[test]
    fn unreceived_sends_become_leaks() {
        let s = SanState::new();
        s.on_send(5, rec(0, 1, 2, 3));
        s.on_send(6, rec(0, 1, 2, 4));
        s.on_recv(5);
        let rep = s.into_report();
        let leaks: Vec<_> = rep.leaks().collect();
        assert_eq!(leaks.len(), 1);
        let Finding::Leak { src, dst, tag, .. } = leaks[0];
        assert_eq!((*src, *dst, *tag), (0, 1, 4));
        assert_eq!(rep.msgs_sent, 2);
        assert_eq!(rep.msgs_received, 1);
    }
}

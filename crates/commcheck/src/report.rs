//! Findings the online sanitizer reports at finalize.

use std::fmt;

/// One communication-correctness defect found during a sanitized run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Finding {
    /// A message that was sent but never received: still sitting in the
    /// destination's channel or pending queue when the run finished.
    Leak {
        src: usize,
        dst: usize,
        ctx: u64,
        tag: u64,
        words: u64,
        /// Phase label active on the sender when it sent.
        phase: String,
    },
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::Leak {
                src,
                dst,
                ctx,
                tag,
                words,
                phase,
            } => write!(
                f,
                "LEAK: message {src} -> {dst} (ctx={ctx}, tag={tag}, \
                 {words} words, phase={phase}) was sent but never received"
            ),
        }
    }
}

/// Everything the online sanitizer observed over one run.
#[derive(Clone, Debug, Default)]
pub struct CommReport {
    pub findings: Vec<Finding>,
    /// Messages sent while sanitized.
    pub msgs_sent: u64,
    /// Messages matched by a receive.
    pub msgs_received: u64,
}

impl CommReport {
    /// No defects found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Findings of the leak kind.
    pub fn leaks(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| matches!(f, Finding::Leak { .. }))
    }

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "commcheck: {} sent, {} received\n",
            self.msgs_sent, self.msgs_received
        );
        if self.is_clean() {
            out.push_str("commcheck: clean — no leaks\n");
        } else {
            for f in &self.findings {
                out.push_str(&format!("commcheck: {f}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_render_with_rank_and_slot_detail() {
        let mut rep = CommReport::default();
        rep.findings.push(Finding::Leak {
            src: 1,
            dst: 0,
            ctx: 3,
            tag: 7,
            words: 64,
            phase: "fact".into(),
        });
        assert!(!rep.is_clean());
        assert_eq!(rep.leaks().count(), 1);
        let r = rep.render();
        assert!(r.contains("ctx=3, tag=7"), "{r}");
        assert!(r.contains("LEAK"), "{r}");
        assert!(r.contains("1 -> 0"), "{r}");
        assert!(r.contains("phase=fact"), "{r}");
    }

    #[test]
    fn clean_report_says_so() {
        let rep = CommReport::default();
        assert!(rep.is_clean());
        assert!(rep.render().contains("clean"));
    }
}

//! Workspace-wide thread-count policy.
//!
//! Every layer that spawns workers — the wire's connection workers and
//! the service's batch fan-out — resolves its requested parallelism
//! through [`thread_cap`], so one environment variable (`RQC_THREADS`)
//! can force the whole stack single-threaded.  (A traversal never
//! spawns: it runs on the thread that asked.)  CI runs the service
//! tests once with `RQC_THREADS=1` to catch parallelism-order
//! nondeterminism: under the cap every code path must produce
//! byte-identical answers to the concurrent run.

use std::sync::OnceLock;

/// The process-wide thread cap from the `RQC_THREADS` environment
/// variable (`usize::MAX` when unset or unparsable; values below 1 are
/// clamped to 1).  Read once and cached: the variable is a process
/// configuration, not a runtime knob.
pub fn thread_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("RQC_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|n| n.max(1))
            .unwrap_or(usize::MAX)
    })
}

/// `requested` worker threads clamped to at least 1 and at most the
/// [`thread_cap`].
pub fn capped_threads(requested: usize) -> usize {
    requested.max(1).min(thread_cap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capped_threads_clamps_low_and_respects_cap() {
        assert!(capped_threads(0) >= 1);
        assert!(capped_threads(8) <= thread_cap());
        assert_eq!(capped_threads(1), 1);
    }
}

//! Workspace-wide thread-count policy.
//!
//! The one pool of workers in the stack — the wire's connection
//! workers — resolves its requested size through [`thread_cap`], so one
//! environment variable (`RQC_THREADS`) can force the server
//! single-threaded.  Nothing else spawns: the service answers a batch
//! on the thread that asked, and a traversal runs on the thread that
//! asked.  CI runs the binary's tests once with `RQC_THREADS=1`, where
//! the cap shrinks the HTTP server's pool to one worker.

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

//! Execution-backend selection: which backend runs the per-rank stages,
//! and whether this host can run it.

/// Which execution backend runs the per-rank work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Deterministic superstep simulator (the correctness oracle; default).
    Sim,
    /// The same simulator with its per-rank stages on OS worker threads.
    Threads,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendKind::Sim => "sim",
            BackendKind::Threads => "threads",
        })
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "sim" => Ok(BackendKind::Sim),
            "threads" => Ok(BackendKind::Threads),
            other => Err(format!("unknown backend '{other}' (expected sim|threads)")),
        }
    }
}

impl BackendKind {
    /// Checks a backend / worker-cap pair, so a misconfiguration fails with
    /// a clear error instead of running otherwise than asked. Two loud
    /// failure modes: the simulator is single-threaded (`threads > 1` would
    /// silently run on one core), and the threads backend needs a host that
    /// can actually spawn OS threads.
    pub fn check(self, threads: usize) -> Result<(), String> {
        match self {
            BackendKind::Sim if threads > 1 => Err(format!(
                "--threads {threads} is incompatible with --backend sim: the simulator is \
                 single-threaded, so the run would silently execute sequentially; use \
                 --backend threads for real parallelism"
            )),
            BackendKind::Threads if !threads_available() => Err(
                "--backend threads: this host cannot spawn OS threads; use --backend sim"
                    .to_string(),
            ),
            _ => Ok(()),
        }
    }
}

/// Whether this host can actually spawn OS threads: backend selection
/// probes the real `std::thread` machinery and fails loudly instead of
/// quietly running sequentially.
pub fn threads_available() -> bool {
    std::thread::Builder::new()
        .name("aa-thread-probe".into())
        .spawn(|| {})
        .map(|handle| handle.join().is_ok())
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cluster;
    use aa_logp::LogPParams;

    #[test]
    fn backend_kind_round_trips_through_strings() {
        for kind in [BackendKind::Sim, BackendKind::Threads] {
            assert_eq!(kind.to_string().parse::<BackendKind>(), Ok(kind));
        }
        assert!("fibers".parse::<BackendKind>().is_err());
    }

    #[test]
    fn sim_backend_rejects_parallelism_loudly() {
        let err = Cluster::build(BackendKind::Sim, 4, LogPParams::ethernet_1gbe(), 8).unwrap_err();
        assert!(err.contains("single-threaded"), "unhelpful error: {err}");
        // threads <= 1 is the sequential contract the sim satisfies.
        for threads in [0, 1] {
            assert!(
                Cluster::build(BackendKind::Sim, 4, LogPParams::ethernet_1gbe(), threads).is_ok()
            );
        }
    }

    #[test]
    fn probe_reports_threads_on_test_host() {
        assert!(threads_available());
    }
}

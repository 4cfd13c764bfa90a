//! The benchmark's workloads and the inputs they share.
//!
//! Every input the library would otherwise pick up from the environment is
//! pinned here: the bag cap and the amortized-free backlog cap are set
//! explicitly (overriding `EPIC_BAG_CAP` / `EPIC_AF_BACKLOG_CAP`), and the
//! allocator cost model, which sizes its arenas from the CPU count, is
//! printed with every run.

use epic_smr::{FreeMode, SmrKind};

/// Worker threads, each a closed-loop client.
pub const THREADS: usize = 2;
/// Key space: uniform keys, striped by thread (`key = r·THREADS + tid`).
pub const KEYS: u64 = 1 << 20;
/// Limbo-bag capacity (the harness `WorkloadCfg` default).
pub const BAG_CAP: usize = 4096;
/// Amortized-free backlog cap (the harness `WorkloadCfg` default).
pub const AF_BACKLOG_CAP: usize = 4 * BAG_CAP;
/// Measured ops per thread in one round.
pub const OPS_PER_THREAD: u64 = 1 << 21;

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Reclamation scheme.
    pub smr: SmrKind,
    /// Batch or amortized freeing.
    pub mode: FreeMode,
    /// Percentage of ops that are `get`; the rest split evenly between
    /// `insert` and `remove`.
    pub get_pct: u64,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ab-update-rcu-batch",
        smr: SmrKind::Rcu,
        mode: FreeMode::Batch,
        get_pct: 0,
    },
    Workload {
        name: "ab-update-rcu-af",
        smr: SmrKind::Rcu,
        mode: FreeMode::Amortized { per_op: 1 },
        get_pct: 0,
    },
    Workload {
        name: "ab-read-hp-af",
        smr: SmrKind::Hp,
        mode: FreeMode::Amortized { per_op: 1 },
        get_pct: 90,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
        assert_eq!(KEYS % THREADS as u64, 0);
    }
}

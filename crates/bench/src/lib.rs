//! # epic-bench
//!
//! The workspace's microbenchmark targets: a criterion suite
//! (`microbench`) for the building blocks — allocator fast paths, SMR
//! per-operation overheads, and tree operations — plus the retire
//! pipeline (`microbench_retire`) and handle path (`microbench_handle`)
//! benches, whose steady state must allocate nothing.
//!
//! The paper's figures and tables are not bench targets: regenerate them
//! with `epic-run <id>` (DESIGN.md §4 maps each id to its artifact).

//! # epic-perfbench — closed-loop ABtree benchmark
//!
//! One process drives the library's op path directly: it builds
//! `epic_alloc` → `epic_smr` → `epic_ds`, prefills an (a,b)-tree and runs
//! a fixed op budget on each of [`workload::THREADS`] closed-loop worker
//! threads, calling `ConcurrentMap::insert/remove/get` and timing every
//! op from the outside. Every answer is checked against the thread's own
//! model of its keys (see [`model`]).
//!
//! An untraced run reports the end-to-end metrics; a traced run wraps the
//! allocator and the scheme ([`trace`]) and reports where op time goes
//! (`ds`, `smr`, `alloc`), plus a Chrome trace-event file of sampled ops.

#![warn(missing_docs)]

pub mod bench;
pub mod clock;
pub mod closed_loop;
pub mod hist;
pub mod model;
pub mod trace;
pub mod workload;

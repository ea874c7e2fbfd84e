//! The CLIP reproduction's benchmark: seeded campaign workloads timed
//! end to end from outside the program, plus a separate span run that
//! splits the time across the program's layers.
//!
//! See `perfbench/README.md` for the workloads, the metrics and how to
//! read them.

pub mod affinity;
pub mod bench;
pub mod env;
pub mod spans;
pub mod stats;
pub mod workloads;

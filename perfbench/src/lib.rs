//! The EchoWrite repository benchmark: seeded workloads driven from
//! outside the program through its public API, every output checked
//! against an isolated oracle, every metric printed by name with its unit.
//! See `README.md` beside this crate for the workloads and metrics.

pub mod flood;
pub mod inputs;
pub mod layers;
pub mod offline;
pub mod paced;
pub mod report;
pub mod stats;
pub mod sys;
pub mod workloads;

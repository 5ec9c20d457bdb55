//! Helpers of the wire-level benchmark in `src/main.rs`: percentile
//! arithmetic, closed-form exact answers, request generation, the wire
//! client, and the in-memory span recorder of the traced run. They live
//! in a library so `tests/` can check them without starting a server.

pub mod exact;
pub mod gen;
pub mod stats;
pub mod trace;
pub mod wire;

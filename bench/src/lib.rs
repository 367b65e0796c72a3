//! Serving benchmark for the Oaken reproduction: four tick-scheduled
//! workloads through `oaken-service`, noise-reduced wall-clock metrics,
//! and a per-layer traced replay. See `bench/README.md`.

pub mod compare;
pub mod host;
pub mod json;
pub mod layers;
pub mod report;
pub mod run;
pub mod timed;
pub mod traced;
pub mod verify;
pub mod workload;

//! Deterministic disaggregated-serving cluster.
//!
//! Production LLM serving splits work across machines two ways at once:
//! **disaggregation** (prefill and decode run on separate engines, with
//! the finished prompt's quantized KV shipped between them) and
//! **replication** (several such pairs behind a router). This crate
//! models both on the same deterministic service clock the rest of the
//! workspace uses, so every cluster experiment — any replica count, any
//! routing policy, any transfer bandwidth — is bit-exact reproducible
//! and directly comparable to a monolithic engine run of the same
//! schedule.
//!
//! The pieces:
//!
//! - [`Router`] places each arrival on a replica. The default
//!   [`RouterPolicy::Affinity`] probes every replica's prefix trie for
//!   the longest shared prompt prefix and weighs tokens reused against
//!   load, so prefix families pile onto the replica that already holds
//!   their KV — quantized-domain prefix reuse only pays off if requests
//!   actually land where the prefix lives.
//! - [`TransferLink`] models the prefill→decode interconnect: each
//!   handoff is charged its self-describing wire size (the flattened
//!   per-token quantized stream tables plus payload) at a configurable
//!   bytes-per-tick, and full destinations bounce deliveries into the
//!   next tick instead of dropping them.
//! - [`run_cluster`] drives the whole thing — and [`run_monolithic`]
//!   drives one engine with the *same* loop and the same work-aware
//!   iteration cost model, making it the fair baseline: identical token
//!   streams (the engines are deterministic; a handoff resumes exactly
//!   where a monolithic engine would be), different timing.
//!
//! What the paper's storyline buys here: prefill work no longer shares
//! an engine with decode, so a long prompt's chunked ingestion stops
//! inflating other requests' inter-token latency — the decode replica's
//! p99 ITL stays flat as prompts grow — and affinity routing keeps
//! prefix reuse (and therefore TTFT) intact across replicas, where
//! round-robin placement shreds it.

mod cluster;
mod router;
mod transfer;

pub use cluster::{
    run_cluster, run_monolithic, ClusterConfig, ClusterReport, EngineRole, RequestRecord,
};
pub use router::{ReplicaProbe, Router, RouterPolicy, RouterStats};
pub use transfer::{TransferLink, TransferStats};

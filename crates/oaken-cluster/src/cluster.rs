//! The deterministic disaggregated cluster: prefill/decode engine pairs
//! behind a prefix-affinity router, with frozen-KV handoff over a
//! modeled transfer link — and the monolithic comparator that shares
//! every line of the driving loop.
//!
//! # One global clock, work-aware
//!
//! The whole cluster runs on a single service clock. An engine iteration
//! is not free: stepping an engine that fed `n` tokens (prompt chunks
//! plus decodes) occupies it for `max(1, ceil(n / work_tokens_per_tick))`
//! ticks, during which it is not stepped again. This is what makes
//! disaggregation *measurable*: on a monolithic engine a long prompt's
//! chunked prefill inflates every co-scheduled decode's inter-token gap
//! (the iteration fed prompt + decode tokens, so it costs more ticks),
//! while a decode replica's iterations stay small and its ITL flat.
//! [`run_monolithic`] applies the *identical* cost model to a single
//! engine, so cluster-vs-monolithic comparisons are apples to apples.
//!
//! # The tick
//!
//! Each tick, in fixed order: (1) due arrivals are routed and submitted
//! (the one shared [`ArrivalQueue`] yields them in the service
//! protocol's `(arrival, submission)` order); (2) due cancels resolve —
//! schedule-parked requests never run, in-flight ones cancel on
//! whichever engine or link leg holds them; (3) due transfers land on
//! their decode engines (a full host tier bounces the delivery to the
//! next tick; a transfer that can never land fails its request typed);
//! (4) every engine whose busy-horizon has passed steps
//! once, its tokens are stitched into per-request records stamped with
//! the current clock, and fresh prefill exports enter the link. Every
//! one of those steps is a pure function of the schedule and the config,
//! so any `(replicas, policy, transfer cost)` run is bit-exact
//! reproducible — and generates *token streams* identical to the
//! monolithic run, because the engines themselves are deterministic and
//! a handoff resumes at exactly the position a monolithic engine would
//! have been in.
//!
//! # The single-token rule
//!
//! A request with `max_new_tokens == 1` is never disaggregated: its one
//! token is the prefill leg's sample, and a resumed sequence always
//! decodes at least one further token before retiring. The router still
//! places it; it just runs to completion on the replica's prefill
//! engine.

use crate::router::{ReplicaProbe, Router, RouterPolicy, RouterStats};
use crate::transfer::{TransferLink, TransferStats};
use oaken_model::{Model, PagedKvPool, PoolError};
use oaken_service::ArrivalQueue;
use oaken_serving::{
    BatchEngine, EngineConfig, EngineRequest, EngineStats, RequestFailure, RequestOutcome,
    TokenScheduler,
};
use std::collections::HashMap;

/// Which engine a pool is being built for — the pool factory's handle
/// for splitting a fixed page budget across the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineRole {
    /// A replica's prefill engine (ingests prompts, exports frozen KV).
    Prefill,
    /// A replica's decode engine (imports frozen KV, streams tokens).
    Decode,
    /// The single engine of a [`run_monolithic`] comparator run.
    Monolithic,
}

/// Cluster knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Prefill/decode replica pairs (`serve --replicas N`; default 1).
    pub replicas: usize,
    /// Placement policy (default [`RouterPolicy::Affinity`]).
    pub router: RouterPolicy,
    /// Transfer-link bandwidth in wire bytes per tick; `0` is an
    /// infinitely fast link (one-tick minimum still applies).
    pub transfer_bytes_per_tick: u64,
    /// Tokens one engine iteration advances per service-clock tick — the
    /// work-aware cost model's knob. An iteration feeding `n` tokens
    /// occupies its engine for `max(1, ceil(n / this))` ticks.
    pub work_tokens_per_tick: u64,
    /// Cores per engine's token scheduler.
    pub scheduler_cores: usize,
    /// Per-engine configuration, applied to every engine in the cluster.
    pub engine: EngineConfig,
}

impl ClusterConfig {
    /// Cluster defaults (one replica, affinity routing, an instantaneous
    /// link, 32 tokens of work per tick) around the given engine config.
    pub fn new(engine: EngineConfig) -> Self {
        Self {
            replicas: 1,
            router: RouterPolicy::default(),
            transfer_bytes_per_tick: 0,
            work_tokens_per_tick: 32,
            scheduler_cores: 4,
            engine,
        }
    }
}

/// One request's journey through the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Request id.
    pub id: u64,
    /// Scheduled arrival tick.
    pub arrival: u64,
    /// Replica the router placed it on (always 0 for a monolithic run).
    pub replica: usize,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Whether it took the disaggregated path (prefill → link → decode).
    pub disaggregated: bool,
    /// Prompt tokens the placed replica's trie already held at
    /// placement.
    pub matched_at_placement: usize,
    /// Decode tokens in index order (restart re-emissions deduped).
    pub tokens: Vec<u32>,
    /// Service-clock tick of each token's first emission.
    pub token_clocks: Vec<u64>,
    /// How the request ended.
    pub outcome: RequestOutcome,
    /// Tick the terminal state was observed.
    pub finish_clock: u64,
}

impl RequestRecord {
    /// Ticks from arrival to first token, when one was produced.
    pub fn ttft(&self) -> Option<u64> {
        self.token_clocks.first().map(|&c| c - self.arrival)
    }

    /// Consecutive inter-token gaps in ticks. The first gap of a
    /// disaggregated request spans the KV handoff (export, wire,
    /// ingest); the rest are pure decode cadence.
    pub fn itl_gaps(&self) -> Vec<u64> {
        self.token_clocks.windows(2).map(|w| w[1] - w[0]).collect()
    }
}

/// Everything one cluster (or monolithic) run produced.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Per-request records, in schedule order (requests cancelled while
    /// still schedule-parked never ran and are omitted, mirroring the
    /// service replay), followed by one `Failed(Invalid)` record per
    /// arrival that reused an id already in the run.
    pub requests: Vec<RequestRecord>,
    /// Placement counters.
    pub router: RouterStats,
    /// Link counters (all zero for a monolithic run).
    pub transfer: TransferStats,
    /// Final per-engine counters, prefill engines in replica order (the
    /// single engine of a monolithic run lands here).
    pub prefill_stats: Vec<EngineStats>,
    /// Final per-engine counters, decode engines in replica order
    /// (empty for a monolithic run).
    pub decode_stats: Vec<EngineStats>,
    /// Final service-clock value.
    pub clock: u64,
}

impl ClusterReport {
    /// The record for `id`.
    pub fn request(&self, id: u64) -> &RequestRecord {
        self.requests
            .iter()
            .find(|r| r.id == id)
            .expect("every injected request has a record")
    }

    /// Prompt tokens adopted from prefix tries instead of being re-run,
    /// summed over every engine — the affinity router's win metric.
    pub fn tokens_reused(&self) -> u64 {
        self.prefill_stats
            .iter()
            .chain(&self.decode_stats)
            .map(|s| s.prefix.tokens_reused)
            .sum()
    }

    /// TTFT samples in ticks over requests that produced a token.
    pub fn ttft_samples(&self) -> Vec<u64> {
        self.requests.iter().filter_map(|r| r.ttft()).collect()
    }

    /// Inter-token gap samples in ticks, pooled over all requests. Pass
    /// `skip_handoff_gap` to drop each request's first gap — the one a
    /// disaggregated handoff inflates — leaving pure decode cadence.
    pub fn itl_samples(&self, skip_handoff_gap: bool) -> Vec<u64> {
        let skip = usize::from(skip_handoff_gap);
        self.requests
            .iter()
            .flat_map(|r| r.itl_gaps().into_iter().skip(skip))
            .collect()
    }
}

/// One engine plus its share of the global clock's bookkeeping.
struct Slot<'m> {
    engine: BatchEngine<'m>,
    /// The tick this engine is next allowed to step (work-aware cost).
    busy_until: u64,
    /// `prefill_tokens + decode_tokens` already accounted, for per-step
    /// fed deltas.
    tokens_seen: u64,
    /// Prefix of `engine.finished()` already harvested.
    finished_seen: usize,
}

impl Slot<'_> {
    fn idle(&self) -> bool {
        self.engine.in_flight() == 0
    }

    fn outstanding(&self) -> u64 {
        self.engine.in_flight() as u64
    }
}

/// Runs a disaggregated cluster over an open-loop `(request, arrival)`
/// schedule plus optional scripted `(tick, id)` cancels. `make_pool`
/// builds each engine's pool — called once per engine with its role and
/// replica index, so a fixed total page budget can be split however the
/// experiment demands. The factory is outside input: a decode pool whose
/// page cannot hold a token its prefill twin wrote fails that replica's
/// handoffs `Failed(Pool(_))`, one request at a time.
pub fn run_cluster(
    model: &Model,
    config: &ClusterConfig,
    make_pool: &mut dyn FnMut(EngineRole, usize) -> PagedKvPool,
    schedule: Vec<(EngineRequest, u64)>,
    cancels: &[(u64, u64)],
) -> ClusterReport {
    assert!(config.replicas > 0, "a cluster needs at least one replica");
    run(model, config, make_pool, schedule, cancels, true)
}

/// Runs the monolithic comparator: one engine, no disaggregation, no
/// link — but the *same* driving loop, arrival ordering, and work-aware
/// cost model as [`run_cluster`]. By the engine determinism contract the
/// two produce identical per-request token streams; what moves is
/// timing, which is the whole point of the comparison.
pub fn run_monolithic(
    model: &Model,
    config: &ClusterConfig,
    make_pool: &mut dyn FnMut(EngineRole, usize) -> PagedKvPool,
    schedule: Vec<(EngineRequest, u64)>,
    cancels: &[(u64, u64)],
) -> ClusterReport {
    run(model, config, make_pool, schedule, cancels, false)
}

fn run(
    model: &Model,
    config: &ClusterConfig,
    make_pool: &mut dyn FnMut(EngineRole, usize) -> PagedKvPool,
    schedule: Vec<(EngineRequest, u64)>,
    cancels: &[(u64, u64)],
    disaggregate: bool,
) -> ClusterReport {
    let replicas = if disaggregate { config.replicas } else { 1 };
    let scheduler = TokenScheduler::new(config.scheduler_cores);

    // Slot layout: replica r's prefill engine at 2r, decode at 2r + 1;
    // the monolithic engine is a lone "prefill" slot.
    let mut slots: Vec<Slot<'_>> = Vec::new();
    for r in 0..replicas {
        let role = if disaggregate {
            EngineRole::Prefill
        } else {
            EngineRole::Monolithic
        };
        slots.push(new_slot(model, make_pool(role, r), scheduler, config));
        if disaggregate {
            slots.push(new_slot(
                model,
                make_pool(EngineRole::Decode, r),
                scheduler,
                config,
            ));
        }
    }
    let stride = if disaggregate { 2 } else { 1 };

    let mut router = Router::new(if disaggregate {
        config.router
    } else {
        RouterPolicy::RoundRobin // degenerate on one replica; keeps stats clean
    });
    let mut link = TransferLink::new(config.transfer_bytes_per_tick);
    let mut queue: ArrivalQueue<(EngineRequest, u64)> = ArrivalQueue::new();
    let order: Vec<u64> = schedule.iter().map(|(req, _)| req.id).collect();
    for (req, arrival) in schedule {
        queue.schedule(arrival, (req, arrival));
    }
    for &(at, id) in cancels {
        queue.schedule_cancel(at, id);
    }

    let mut records: HashMap<u64, RequestRecord> = HashMap::new();
    let mut rejected: Vec<RequestRecord> = Vec::new();
    let mut orig_max: HashMap<u64, usize> = HashMap::new();
    let mut replica_of: HashMap<u64, usize> = HashMap::new();
    let mut clock: u64 = 0;

    loop {
        if slots.iter().all(Slot::idle) && !queue.has_pending() && link.is_empty() {
            break;
        }

        // 1. Route and submit due arrivals.
        for (req, arrival) in queue.take_due(clock) {
            // An id names one record, one placement and one transfer for
            // the whole run: an arrival reusing one fails typed on a
            // record of its own and leaves the first holder untouched.
            if records.contains_key(&req.id) {
                rejected.push(RequestRecord {
                    id: req.id,
                    arrival,
                    replica: 0,
                    prompt_len: req.prompt.len(),
                    disaggregated: false,
                    matched_at_placement: 0,
                    tokens: Vec::new(),
                    token_clocks: Vec::new(),
                    outcome: RequestOutcome::Failed(RequestFailure::Invalid),
                    finish_clock: clock,
                });
                continue;
            }
            let probes: Vec<ReplicaProbe> = (0..replicas)
                .map(|r| ReplicaProbe {
                    matched_tokens: slots[r * stride].engine.pool().probe_prefix(&req.prompt),
                    load: slots[r * stride].outstanding()
                        + if disaggregate {
                            slots[r * stride + 1].outstanding() + link.in_flight_to(r)
                        } else {
                            0
                        },
                })
                .collect();
            let r = router.place(&probes);
            replica_of.insert(req.id, r);
            // The single-token rule: a 1-token request's output *is* the
            // prefill sample — it cannot be resumed without overshooting,
            // so it runs to completion on the prefill engine.
            let split = disaggregate && req.max_new_tokens >= 2;
            records.insert(
                req.id,
                RequestRecord {
                    id: req.id,
                    arrival,
                    replica: r,
                    prompt_len: req.prompt.len(),
                    disaggregated: split,
                    matched_at_placement: probes[r].matched_tokens,
                    tokens: Vec::new(),
                    token_clocks: Vec::new(),
                    outcome: RequestOutcome::Finished, // overwritten at terminal
                    finish_clock: 0,
                },
            );
            let prefill = &mut slots[r * stride];
            if split {
                orig_max.insert(req.id, req.max_new_tokens);
                let mut leg = req;
                leg.max_new_tokens = 1;
                prefill.engine.mark_for_export(leg.id);
                prefill.engine.submit(leg);
            } else {
                prefill.engine.submit(req);
            }
        }

        // 2. Due cancels: parked requests never ran; in-flight ones
        // cancel wherever they currently live — prefill engine, decode
        // engine, or mid-wire on the link.
        for id in queue.due_cancels(clock) {
            if queue.remove_parked(id, |(req, _)| req.id).is_some() {
                records.remove(&id);
                continue;
            }
            let Some(&r) = replica_of.get(&id) else {
                continue; // unknown or already torn down
            };
            let base = r * stride;
            let cancelled = slots[base].engine.cancel(id)
                || (disaggregate && slots[base + 1].engine.cancel(id));
            if !cancelled {
                if let Some(export) = link.cancel(id) {
                    let rec = records
                        .get_mut(&id)
                        .expect("in-flight request has a record");
                    rec.outcome = RequestOutcome::Cancelled;
                    rec.finish_clock = clock;
                    drop(export); // the frozen KV dies on the wire
                }
            }
            // An engine-side cancel surfaces through finished() below.
        }

        // 3. Land due transfers on their decode engines.
        for (r, mut export, sent_at) in link.deliver_due(clock) {
            let id = export.request.id;
            export.request.max_new_tokens = orig_max[&id];
            let decode = &mut slots[r * stride + 1];
            match decode.engine.ingest_frozen(export) {
                Ok(()) => {
                    orig_max.remove(&id);
                }
                Err((export, PoolError::OutOfHostPages { .. })) => {
                    // Destination host tier full: if it is fully idle with
                    // nothing else bound for it, no future tick can help.
                    assert!(
                        !(decode.idle() && link.in_flight_to(r) == 0),
                        "transfer for request {id} can never fit replica {r}'s decode host tier"
                    );
                    link.requeue(export, r, sent_at, clock);
                }
                Err((_, e)) => {
                    // No later tick can land this transfer (its payload is
                    // corrupt or was written for larger pages than the
                    // decode pool's, or a fault refused the landing): the
                    // request fails typed, keeping the tokens it streamed,
                    // and its frozen KV dies here.
                    let rec = records
                        .get_mut(&id)
                        .expect("in-flight request has a record");
                    rec.outcome = RequestOutcome::Failed(RequestFailure::Pool(e));
                    rec.finish_clock = clock;
                    orig_max.remove(&id);
                }
            }
        }

        // 4. Step every engine whose work horizon has passed, in fixed
        // slot order; stitch its emissions into the records.
        for (i, slot) in slots.iter_mut().enumerate() {
            if clock >= slot.busy_until && !slot.idle() {
                let progressed = slot.engine.step();
                let stats = slot.engine.stats();
                let fed = stats.prefill_tokens + stats.decode_tokens;
                let delta = fed - slot.tokens_seen;
                slot.tokens_seen = fed;
                if progressed {
                    let cost = if config.work_tokens_per_tick == 0 {
                        1
                    } else {
                        delta.div_ceil(config.work_tokens_per_tick).max(1)
                    };
                    slot.busy_until = clock + cost;
                }
            }
            // Drain emissions even on ticks the engine did not step: a
            // cancel can retire a request (and idle the engine) between
            // steps, and its terminal record must still be harvested.
            for ev in slot.engine.take_token_events() {
                if let Some(rec) = records.get_mut(&ev.id) {
                    if ev.index == rec.tokens.len() {
                        rec.tokens.push(ev.token);
                        rec.token_clocks.push(clock);
                    }
                }
            }
            // Fresh exports ride the link to this slot's decode twin.
            let replica = i / stride;
            for export in slot.engine.take_exports() {
                link.send(export, replica, clock);
            }
            let finished = slot.engine.finished();
            for f in &finished[slot.finished_seen..] {
                if let Some(rec) = records.get_mut(&f.id) {
                    rec.outcome = f.outcome;
                    rec.finish_clock = clock;
                    debug_assert_eq!(
                        rec.tokens, f.generated,
                        "stitched stream diverged from the terminal record"
                    );
                }
            }
            slot.finished_seen = finished.len();
        }

        clock += 1;
    }

    let mut prefill_stats = Vec::new();
    let mut decode_stats = Vec::new();
    for (i, slot) in slots.iter().enumerate() {
        if disaggregate && i % 2 == 1 {
            decode_stats.push(slot.engine.stats().clone());
        } else {
            prefill_stats.push(slot.engine.stats().clone());
        }
    }
    ClusterReport {
        requests: (order.iter().filter_map(|id| records.remove(id)))
            .chain(rejected)
            .collect(),
        router: router.stats(),
        transfer: link.stats(),
        prefill_stats,
        decode_stats,
        clock,
    }
}

fn new_slot<'m>(
    model: &'m Model,
    pool: PagedKvPool,
    scheduler: TokenScheduler,
    config: &ClusterConfig,
) -> Slot<'m> {
    Slot {
        engine: BatchEngine::new(model, pool, scheduler, config.engine),
        busy_until: 0,
        tokens_seen: 0,
        finished_seen: 0,
    }
}

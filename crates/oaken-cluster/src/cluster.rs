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
//! # Replicas and the tick
//!
//! A cluster is a list of replicas, each a prefill engine plus an
//! optional decode engine: [`run_cluster`] builds `replicas` of them
//! with both, [`run_monolithic`] builds one without a decode engine, and
//! from there the two runs share every line. Each tick runs four stages
//! in fixed order over the one cluster value:
//!
//! 1. *route* — due arrivals (the one shared [`ArrivalQueue`] yields them
//!    in the service protocol's `(arrival, submission)` order) are
//!    placed by the router and submitted to their replica's prefill
//!    engine, marked for export when the replica has a decode engine;
//! 2. *cancel* — due cancels resolve: a request still in the schedule
//!    never runs and leaves no record; a placed one is cancelled in
//!    whichever engine holds it, or on the link;
//! 3. *land* — due transfers are ingested by their decode engines (a
//!    full host tier bounces the delivery to the next tick; a transfer
//!    that can never land fails its request typed);
//! 4. *step* — every engine whose busy horizon has passed steps once,
//!    replica by replica, prefill before decode; every engine's tokens
//!    and terminals are then stitched into the per-request records,
//!    stamped with the current clock, and fresh prefill exports enter the
//!    link.
//!
//! Every stage is a pure function of the schedule and the config, so any
//! `(replicas, policy, transfer cost)` run is bit-exact reproducible —
//! and generates *token streams* identical to the monolithic run, because
//! the engines themselves are deterministic and a handoff resumes at
//! exactly the position a monolithic engine would have been in.
//!
//! # What the cluster shares with the service clock
//!
//! The arrival order and the cancel timing are the service clock's own:
//! the cluster's schedule and its transfer link are both
//! [`ArrivalQueue`]s, so `(tick, submission)` ordering exists once in
//! the workspace. The tick itself is not yet [`oaken_service::clock_tick`]:
//! that drives one engine and advances the clock only on progress, while
//! this loop drives many engines under a work-aware cost and advances
//! every tick. Folding the two waits on the benchmark under `bench/`
//! moving first (ROADMAP item 1), because it names `clock_tick`,
//! `ClockHooks` and [`run_monolithic`] as they are today.
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
    BatchEngine, EngineConfig, EngineRequest, EngineStats, KvExport, RequestFailure,
    RequestOutcome, TokenScheduler,
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

impl<'m> Slot<'m> {
    fn new(model: &'m Model, pool: PagedKvPool, config: &ClusterConfig) -> Self {
        let scheduler = TokenScheduler::new(config.scheduler_cores);
        Self {
            engine: BatchEngine::new(model, pool, scheduler, config.engine),
            busy_until: 0,
            tokens_seen: 0,
            finished_seen: 0,
        }
    }

    fn outstanding(&self) -> u64 {
        self.engine.in_flight() as u64
    }

    /// Steps the engine when it holds work and its busy horizon has
    /// passed; an iteration that fed `n` tokens keeps it busy for
    /// `max(1, ceil(n / work_tokens_per_tick))` ticks.
    fn step(&mut self, clock: u64, work_tokens_per_tick: u64) {
        if clock < self.busy_until || self.outstanding() == 0 {
            return;
        }
        let progressed = self.engine.step();
        let stats = self.engine.stats();
        let fed = stats.prefill_tokens + stats.decode_tokens;
        let delta = fed - self.tokens_seen;
        self.tokens_seen = fed;
        if progressed {
            let cost = if work_tokens_per_tick == 0 {
                1
            } else {
                delta.div_ceil(work_tokens_per_tick).max(1)
            };
            self.busy_until = clock + cost;
        }
    }

    /// Stitches the engine's new tokens and terminals into the request
    /// map, stamped `clock`, and returns its fresh exports.
    fn harvest(&mut self, clock: u64, requests: &mut HashMap<u64, Tracked>) -> Vec<KvExport> {
        for ev in self.engine.take_token_events() {
            if let Some(Tracked { record, .. }) = requests.get_mut(&ev.id) {
                if ev.index == record.tokens.len() {
                    record.tokens.push(ev.token);
                    record.token_clocks.push(clock);
                }
            }
        }
        let exports = self.engine.take_exports();
        let finished = self.engine.finished();
        for f in &finished[self.finished_seen..] {
            if let Some(Tracked { record, .. }) = requests.get_mut(&f.id) {
                record.outcome = f.outcome;
                record.finish_clock = clock;
                debug_assert_eq!(
                    record.tokens, f.generated,
                    "stitched stream diverged from the terminal record"
                );
            }
        }
        self.finished_seen = finished.len();
        exports
    }
}

/// A prefill engine plus, in a disaggregated cluster, its decode twin.
struct Replica<'m> {
    prefill: Slot<'m>,
    decode: Option<Slot<'m>>,
}

impl Replica<'_> {
    /// Requests active, queued or suspended on either engine.
    fn outstanding(&self) -> u64 {
        self.prefill.outstanding() + self.decode.as_ref().map_or(0, Slot::outstanding)
    }
}

/// One placed request.
struct Tracked {
    /// Its journey so far; `record.replica` is where it was placed.
    record: RequestRecord,
    /// `max_new_tokens` as scheduled. A disaggregated request's prefill
    /// leg runs with 1; the handoff restores this budget.
    max_new_tokens: usize,
}

/// Runs a disaggregated cluster over an open-loop `(request, arrival)`
/// schedule plus optional scripted `(tick, id)` cancels. `make_pool`
/// builds each engine's pool — called once per engine with its role and
/// replica index, so a fixed total page budget can be split however the
/// experiment demands. The factory is outside input: a decode pool whose
/// page cannot hold a token its prefill twin wrote, or whose host tier
/// cannot hold a transfer even when empty, fails that replica's handoffs
/// `Failed(Pool(_))`, one request at a time.
pub fn run_cluster(
    model: &Model,
    config: &ClusterConfig,
    make_pool: &mut dyn FnMut(EngineRole, usize) -> PagedKvPool,
    schedule: Vec<(EngineRequest, u64)>,
    cancels: &[(u64, u64)],
) -> ClusterReport {
    assert!(config.replicas > 0, "a cluster needs at least one replica");
    let replicas = (0..config.replicas)
        .map(|r| Replica {
            prefill: Slot::new(model, make_pool(EngineRole::Prefill, r), config),
            decode: Some(Slot::new(model, make_pool(EngineRole::Decode, r), config)),
        })
        .collect();
    run(config, replicas, config.router, schedule, cancels)
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
    let replica = Replica {
        prefill: Slot::new(model, make_pool(EngineRole::Monolithic, 0), config),
        decode: None,
    };
    // Round-robin is degenerate on one replica and keeps the router's
    // counters clean.
    run(
        config,
        vec![replica],
        RouterPolicy::RoundRobin,
        schedule,
        cancels,
    )
}

fn run(
    config: &ClusterConfig,
    replicas: Vec<Replica<'_>>,
    policy: RouterPolicy,
    schedule: Vec<(EngineRequest, u64)>,
    cancels: &[(u64, u64)],
) -> ClusterReport {
    let order: Vec<u64> = schedule.iter().map(|(req, _)| req.id).collect();
    let mut queue = ArrivalQueue::new();
    for (req, arrival) in schedule {
        queue.schedule(arrival, (req, arrival));
    }
    for &(at, id) in cancels {
        queue.schedule_cancel(at, id);
    }
    let mut cluster = Cluster {
        replicas,
        router: Router::new(policy),
        link: TransferLink::new(config.transfer_bytes_per_tick),
        queue,
        requests: HashMap::new(),
        rejected: Vec::new(),
        work_tokens_per_tick: config.work_tokens_per_tick,
        clock: 0,
    };
    while !cluster.idle() {
        cluster.route();
        cluster.cancel();
        cluster.land();
        cluster.step();
        cluster.clock += 1;
    }
    cluster.report(&order)
}

/// Everything one run drives, one tick at a time.
struct Cluster<'m> {
    replicas: Vec<Replica<'m>>,
    router: Router,
    link: TransferLink,
    /// Scheduled `(request, arrival)`s and scripted cancels.
    queue: ArrivalQueue<(EngineRequest, u64)>,
    /// Every placed request, by id.
    requests: HashMap<u64, Tracked>,
    /// One `Failed(Invalid)` record per arrival that reused a placed id.
    rejected: Vec<RequestRecord>,
    work_tokens_per_tick: u64,
    clock: u64,
}

impl Cluster<'_> {
    fn idle(&self) -> bool {
        self.replicas.iter().all(|r| r.outstanding() == 0)
            && !self.queue.has_pending()
            && self.link.is_empty()
    }

    /// Places and submits every due arrival.
    fn route(&mut self) {
        for (mut req, arrival) in self.queue.take_due(self.clock) {
            let record = RequestRecord {
                id: req.id,
                arrival,
                replica: 0,
                prompt_len: req.prompt.len(),
                disaggregated: false,
                matched_at_placement: 0,
                tokens: Vec::new(),
                token_clocks: Vec::new(),
                outcome: RequestOutcome::Failed(RequestFailure::Invalid),
                finish_clock: self.clock,
            };
            // An id names one record, one placement and one transfer for
            // the whole run: an arrival reusing one fails typed on a
            // record of its own and leaves the first holder untouched.
            if self.requests.contains_key(&req.id) {
                self.rejected.push(record);
                continue;
            }
            let probes: Vec<ReplicaProbe> = (self.replicas.iter().enumerate())
                .map(|(r, replica)| ReplicaProbe {
                    matched_tokens: replica.prefill.engine.pool().probe_prefix(&req.prompt),
                    load: replica.outstanding() + self.link.in_flight_to(r),
                })
                .collect();
            let r = self.router.place(&probes);
            // The single-token rule: a 1-token request's output *is* the
            // prefill sample — it cannot be resumed without overshooting,
            // so it runs to completion on the prefill engine.
            let split = self.replicas[r].decode.is_some() && req.max_new_tokens >= 2;
            let tracked = Tracked {
                record: RequestRecord {
                    replica: r,
                    disaggregated: split,
                    matched_at_placement: probes[r].matched_tokens,
                    outcome: RequestOutcome::Finished, // overwritten at terminal
                    finish_clock: 0,
                    ..record
                },
                max_new_tokens: req.max_new_tokens,
            };
            self.requests.insert(req.id, tracked);
            let prefill = &mut self.replicas[r].prefill.engine;
            if split {
                req.max_new_tokens = 1;
                prefill.mark_for_export(req.id);
            }
            prefill.submit(req);
        }
    }

    /// Resolves every due cancel wherever its request lives.
    fn cancel(&mut self) {
        for id in self.queue.due_cancels(self.clock) {
            // A request still in the schedule never runs: it leaves no
            // record, and a placed request sharing its id is untouched.
            if self.queue.remove_parked(id, |(req, _)| req.id).is_some() {
                continue;
            }
            let Some(Tracked { record, .. }) = self.requests.get_mut(&id) else {
                continue; // unknown id
            };
            let replica = &mut self.replicas[record.replica];
            let cancelled = replica.prefill.engine.cancel(id)
                || (replica.decode.as_mut()).is_some_and(|d| d.engine.cancel(id));
            // An engine-side cancel surfaces through `finished()` in
            // `step`; one caught on the wire drops the frozen KV with its
            // export.
            if !cancelled && self.link.cancel(id).is_some() {
                record.outcome = RequestOutcome::Cancelled;
                record.finish_clock = self.clock;
            }
        }
    }

    /// Lands every due transfer on its decode engine.
    fn land(&mut self) {
        for (r, mut export, sent_at) in self.link.deliver_due(self.clock) {
            let tracked = (self.requests.get_mut(&export.request.id))
                .expect("a transfer's request has a record");
            export.request.max_new_tokens = tracked.max_new_tokens;
            let decode =
                (self.replicas[r].decode.as_mut()).expect("transfers ride only to decode engines");
            let error = match decode.engine.ingest_frozen(export) {
                Ok(()) => continue,
                // A full host tier bounces the landing to the next tick,
                // unless the decode engine is idle with nothing else bound
                // for it: then no later tick frees a page.
                Err((export, PoolError::OutOfHostPages { .. }))
                    if decode.outstanding() > 0 || self.link.in_flight_to(r) > 0 =>
                {
                    self.link.requeue(export, r, sent_at, self.clock);
                    continue;
                }
                Err((_, e)) => e,
            };
            // No later tick can land this transfer (it can never fit the
            // host tier, its payload is corrupt or was written for larger
            // pages than the decode pool's, or a fault refused the
            // landing): the request fails typed, keeping the tokens it
            // streamed, and its frozen KV dies here.
            tracked.record.outcome = RequestOutcome::Failed(RequestFailure::Pool(error));
            tracked.record.finish_clock = self.clock;
        }
    }

    /// Steps every engine whose busy horizon has passed, replica by
    /// replica, prefill before decode, and harvests every engine — also
    /// one that did not step: a cancel can retire a request (and idle the
    /// engine) between steps, and its terminal must still be recorded.
    /// Fresh exports ride the link to their replica's decode engine.
    fn step(&mut self) {
        let clock = self.clock;
        for (r, replica) in self.replicas.iter_mut().enumerate() {
            for slot in std::iter::once(&mut replica.prefill).chain(replica.decode.as_mut()) {
                slot.step(clock, self.work_tokens_per_tick);
                for export in slot.harvest(clock, &mut self.requests) {
                    self.link.send(export, r, clock);
                }
            }
        }
    }

    fn report(mut self, order: &[u64]) -> ClusterReport {
        let stats = |slot: &Slot<'_>| slot.engine.stats().clone();
        let requests = order.iter().filter_map(|id| self.requests.remove(id));
        ClusterReport {
            requests: requests.map(|t| t.record).chain(self.rejected).collect(),
            router: self.router.stats(),
            transfer: self.link.stats(),
            prefill_stats: self.replicas.iter().map(|r| stats(&r.prefill)).collect(),
            decode_stats: self
                .replicas
                .iter()
                .flat_map(|r| r.decode.as_ref().map(stats))
                .collect(),
            clock: self.clock,
        }
    }
}

//! The service itself: one engine thread driving the continuous-batching
//! [`BatchEngine`] iteration loop, fed by any number of concurrent client
//! threads through the [`Batcher`] mailbox.
//!
//! # The service clock
//!
//! Wall time is useless for a reproducibility contract, so the service
//! measures everything in **service-clock ticks** — one tick per engine
//! loop pass that either made progress (an engine iteration ran) or
//! burned an open-loop idle gap (the engine was empty but scheduled
//! arrivals are still due in the future). While the engine thread is
//! blocked in `Batcher::wait` — nothing running, nothing scheduled —
//! the clock is *frozen*: live idle time never pollutes latency numbers.
//!
//! Each tick runs the protocol of [`crate::clock`] — *the same code*
//! that [`replay_open_loop_direct`](crate::workload::replay_open_loop_direct)
//! drives, which is what makes service-vs-direct bit-exactness
//! assertable: drain the mailbox (blocking only when fully idle), then
//! one [`clock_tick`] — inject due arrivals in `(arrival, submission
//! order)` order, apply due cancels, step, deliver stamped with the
//! pre-increment clock, advance iff progressed or arrivals remain
//! scheduled. (The disaggregated cluster shares the [`ArrivalQueue`]'s
//! ordering for its arrivals, cancels and transfer link, but keeps its
//! own work-aware tick over many engines; [`crate::clock`] says why.)
//!
//! Token delivery dedups by decode index: an evicted-and-restarted
//! request re-emits its already-delivered tokens bit-identically, and the
//! service forwards only the first emission of each index, so client
//! streams are append-only even under preemption.

use crate::batcher::{Batcher, Command, Submission};
use crate::clock::{clock_tick, ArrivalQueue, ClockHooks};
use crate::session::{SessionEnd, SessionHandle, StreamEvent, StreamToken};
use oaken_model::{KernelMode, Model, PagedKvPool, RankPages};
use oaken_serving::{
    BatchEngine, EngineConfig, EngineRequest, EngineStats, RequestFailure, RequestOutcome,
    TokenScheduler,
};
use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;

/// Post-shutdown page accounting for one rank of the pool — the
/// "drains exactly empty" obligation, captured after the engine thread
/// exits so tests can assert it without racing the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolDrain {
    /// Pages on the free list.
    pub free_pages: u32,
    /// Total pool capacity in pages (drained ⇒ `free_pages` equals this).
    pub capacity_pages: u32,
    /// Pages still privately owned by sequences (drained ⇒ 0).
    pub private_pages: u32,
    /// Pages still owned by sealed trie blocks (drained ⇒ 0).
    pub shared_block_pages: u32,
    /// Host-tier pages still holding swapped KV (drained ⇒ 0).
    pub host_pages_used: u32,
    /// Device-resident sequences still registered (drained ⇒ 0).
    pub active_seqs: usize,
    /// Host-suspended sequences still registered (drained ⇒ 0).
    pub suspended_seqs: usize,
}

impl PoolDrain {
    fn capture(pool: &PagedKvPool, rank: RankPages<'_>) -> Self {
        let acc = rank.page_accounting();
        Self {
            free_pages: acc.free,
            capacity_pages: rank.capacity_pages(),
            private_pages: acc.private,
            shared_block_pages: acc.shared_blocks,
            host_pages_used: rank.host_pages_used(),
            active_seqs: pool.active_seqs(),
            suspended_seqs: pool.suspended_seqs(),
        }
    }

    /// `true` when the rank is exactly empty: every page back on the
    /// free list, nothing private, no shared blocks, no host residue, no
    /// registered sequences.
    pub fn is_empty(&self) -> bool {
        self.free_pages == self.capacity_pages
            && self.private_pages == 0
            && self.shared_block_pages == 0
            && self.host_pages_used == 0
            && self.active_seqs == 0
            && self.suspended_seqs == 0
    }
}

/// What the engine thread hands back after shutdown.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// The engine's aggregate counters for the whole service run.
    pub stats: EngineStats,
    /// Per-rank post-shutdown pool accounting (index = rank).
    pub drain: Vec<PoolDrain>,
    /// Kernel mode the engine ran with.
    pub kernel_mode: KernelMode,
    /// Final service-clock value (total progressed + idle-gap ticks).
    pub clock: u64,
}

impl ServiceReport {
    /// `true` when every rank drained exactly empty.
    pub fn drained_empty(&self) -> bool {
        self.drain.iter().all(PoolDrain::is_empty)
    }
}

/// Client-side face of a running service: submit requests, script
/// open-loop schedules, cancel. Cheap to share across threads by
/// reference (`&ServiceClient` is all [`serve`]'s closure gets) — every
/// method takes `&self`.
pub struct ServiceClient {
    batcher: Arc<Batcher>,
    /// The model's `max_seq_len`: no request yields more tokens.
    max_seq_len: usize,
}

impl ServiceClient {
    /// Submits a request for immediate injection (live-service
    /// semantics: it arrives at whatever clock tick the engine thread
    /// next drains the mailbox). Returns the streaming handle. An id
    /// names one stream until its terminal event: a submission whose id
    /// is still in flight (parked in the schedule or inside the engine)
    /// ends at once with `Failed(Invalid)` on its own handle.
    pub fn submit(&self, req: EngineRequest) -> SessionHandle {
        let (tx, handle) = self.stream(&req);
        self.batcher.push(Command::Submit(Submission {
            req,
            arrival: None,
            tx,
        }));
        handle
    }

    /// [`submit_scripted`](Self::submit_scripted) without cancels.
    pub fn submit_schedule(
        &self,
        schedule: impl IntoIterator<Item = (EngineRequest, u64)>,
    ) -> Vec<SessionHandle> {
        self.submit_scripted(schedule, &[])
    }

    /// Pushes a whole `(request, arrival)` schedule and its scripted
    /// `(tick, id)` cancels — the shape
    /// [`replay_open_loop_direct`](crate::workload::replay_open_loop_direct)
    /// takes — atomically: one mailbox lock acquisition, so the engine
    /// thread wakes to the complete script, every cancel is scheduled
    /// before the clock can pass its tick, and the run is deterministic
    /// regardless of how it interleaves with the push.
    pub fn submit_scripted(
        &self,
        schedule: impl IntoIterator<Item = (EngineRequest, u64)>,
        cancels: &[(u64, u64)],
    ) -> Vec<SessionHandle> {
        let mut handles = Vec::new();
        let mut cmds: Vec<Command> = schedule
            .into_iter()
            .map(|(req, arrival)| {
                let (tx, handle) = self.stream(&req);
                handles.push(handle);
                Command::Submit(Submission {
                    req,
                    arrival: Some(arrival),
                    tx,
                })
            })
            .collect();
        cmds.extend(
            cancels
                .iter()
                .map(|&(at, id)| Command::Cancel { id, at: Some(at) }),
        );
        self.batcher.push_all(cmds);
        handles
    }

    /// Cancels a request as soon as the engine thread sees the command,
    /// wherever it is parked. No-op for unknown or already-terminal ids.
    pub fn cancel(&self, id: u64) {
        self.batcher.cancel(id);
    }

    /// `req`'s stream, bounded to every token it can produce plus the
    /// terminal event, so engine-thread sends can never block on a slow
    /// client. A request longer than `max_seq_len` fails at admission
    /// without a token, so no budget sizes a buffer past that.
    fn stream(&self, req: &EngineRequest) -> (SyncSender<StreamEvent>, SessionHandle) {
        let (tx, rx) = sync_channel(req.max_new_tokens.min(self.max_seq_len) + 1);
        (tx, SessionHandle::new(req.id, rx, self.batcher.clone()))
    }
}

/// Runs a service: spawns the engine thread over
/// `BatchEngine::new(model, pool, scheduler, config)`, hands the calling
/// thread a [`ServiceClient`], and on return of `f` shuts down —
/// draining every queued command and finishing (or cancelling, if asked)
/// all in-flight work before the engine thread exits. Returns `f`'s
/// result plus the engine thread's [`ServiceReport`].
///
/// Scoped threads let the engine borrow `&Model` directly — no `Arc`,
/// no `'static` bound on the closure.
pub fn serve<R>(
    model: &Model,
    pool: PagedKvPool,
    scheduler: TokenScheduler,
    config: EngineConfig,
    f: impl FnOnce(&ServiceClient) -> R,
) -> (R, ServiceReport) {
    let batcher = Arc::new(Batcher::new());
    let client = ServiceClient {
        batcher: batcher.clone(),
        max_seq_len: model.config().max_seq_len,
    };
    std::thread::scope(|scope| {
        let engine_batcher = batcher.clone();
        let engine =
            scope.spawn(move || engine_loop(model, pool, scheduler, config, &engine_batcher));
        let out = f(&client);
        batcher.shutdown();
        let report = engine.join().expect("engine thread panicked");
        (out, report)
    })
}

/// Per-request engine-thread bookkeeping.
struct SessionState {
    tx: SyncSender<StreamEvent>,
    /// Tokens forwarded so far; the next expected decode index. Restart
    /// re-emissions arrive with `index < delivered` and are dropped.
    delivered: usize,
}

/// The engine thread's side of the tick protocol: session registration
/// on injection, channel delivery on the way out.
#[derive(Default)]
struct ServiceHooks {
    sessions: HashMap<u64, SessionState>,
    finished_seen: usize,
}

impl ClockHooks<Submission> for ServiceHooks {
    fn id_of(&self, sub: &Submission) -> u64 {
        sub.req.id
    }

    fn inject(&mut self, engine: &mut BatchEngine<'_>, sub: Submission) {
        self.sessions.insert(
            sub.req.id,
            SessionState {
                tx: sub.tx,
                delivered: 0,
            },
        );
        engine.submit(sub.req);
    }

    fn cancelled_parked(&mut self, sub: Submission, clock: u64) {
        // Still parked in the batcher schedule: never reaches the engine
        // at all; resolved client-side.
        end_unserved(sub, RequestOutcome::Cancelled, clock);
    }

    fn deliver(&mut self, engine: &mut BatchEngine<'_>, clock: u64) {
        // This step's tokens, deduped by decode index.
        for ev in engine.take_token_events() {
            if let Some(s) = self.sessions.get_mut(&ev.id) {
                if ev.index == s.delivered {
                    s.delivered += 1;
                    let _ = s.tx.send(StreamEvent::Token(StreamToken {
                        index: ev.index,
                        token: ev.token,
                        clock,
                    }));
                }
            }
        }
        // Terminals (a cancel may have retired requests even when the
        // step itself was a no-op).
        for fr in &engine.finished()[self.finished_seen..] {
            if let Some(s) = self.sessions.remove(&fr.id) {
                let _ = s.tx.send(StreamEvent::Done(SessionEnd {
                    outcome: fr.outcome,
                    generated: fr.generated.clone(),
                    ttft_iteration: fr.ttft_iteration,
                    preemptions: fr.preemptions,
                    clock,
                }));
            }
        }
        self.finished_seen = engine.finished().len();
    }
}

/// Ends the stream of a submission that never reaches the engine.
fn end_unserved(sub: Submission, outcome: RequestOutcome, clock: u64) {
    let _ = sub.tx.send(StreamEvent::Done(SessionEnd {
        outcome,
        generated: Vec::new(),
        ttft_iteration: 0,
        preemptions: 0,
        clock,
    }));
}

fn engine_loop(
    model: &Model,
    pool: PagedKvPool,
    scheduler: TokenScheduler,
    config: EngineConfig,
    batcher: &Batcher,
) -> ServiceReport {
    let mut engine = BatchEngine::new(model, pool, scheduler, config);
    let mut clock: u64 = 0;
    let mut queue: ArrivalQueue<Submission> = ArrivalQueue::new();
    let mut hooks = ServiceHooks::default();
    let mut shutdown = false;

    loop {
        let engine_idle = engine.in_flight() == 0;
        let idle = engine_idle && !queue.has_pending();
        // Only a fully idle engine blocks — the clock is frozen in
        // `wait`, so live idle gaps never inflate latency numbers.
        let (cmds, sd) = if idle && !shutdown {
            batcher.wait()
        } else {
            batcher.drain()
        };
        shutdown |= sd;
        for cmd in cmds {
            match cmd {
                Command::Submit(sub) => {
                    // An id names one stream until its terminal event:
                    // registering a second submission under it would drop
                    // the first client's channel and strand it. The
                    // newcomer fails typed; the first is untouched.
                    let id = sub.req.id;
                    if hooks.sessions.contains_key(&id) || queue.is_parked(id, |s| s.req.id) {
                        let invalid = RequestOutcome::Failed(RequestFailure::Invalid);
                        end_unserved(sub, invalid, clock);
                        continue;
                    }
                    // Live submissions arrive "now"; scheduled ones in the
                    // past are clamped to now.
                    let arrival = sub.arrival.unwrap_or(clock).max(clock);
                    queue.schedule(arrival, sub);
                }
                Command::Cancel { id, at } => {
                    queue.schedule_cancel(at.unwrap_or(clock).max(clock), id);
                }
            }
        }
        if engine_idle && !queue.has_pending() {
            // Nothing a cancel could still target; drop strays so they
            // cannot wedge the shutdown test below.
            queue.clear_cancels();
            if shutdown {
                break;
            }
            // Woken with only no-op commands (e.g. a cancel for a
            // retired id): back to sleep without touching the clock.
            continue;
        }

        clock_tick(&mut engine, &mut clock, &mut queue, &mut hooks);
    }

    debug_assert!(
        hooks.sessions.is_empty(),
        "all sessions reach a terminal state"
    );
    ServiceReport {
        stats: engine.stats().clone(),
        drain: (engine.pool().ranks())
            .map(|rank| PoolDrain::capture(engine.pool(), rank))
            .collect(),
        kernel_mode: engine.kernel_mode(),
        clock,
    }
}

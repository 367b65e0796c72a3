//! Open-loop workload driver: seeded arrival schedules (Poisson and
//! bursty), and a direct-engine replay of the service clock protocol.
//!
//! Open-loop means arrivals are scheduled by an external clock and do
//! *not* wait for earlier requests to finish — the load the server must
//! absorb is independent of how fast it serves, which is what makes tail
//! latency meaningful. Time is measured in **service-clock ticks**
//! (engine iterations plus idle gaps), not wall clock, so a schedule is
//! a pure function of its seed and every run of it is reproducible.
//!
//! [`replay_open_loop_direct`] feeds the same `(request, arrival)`
//! schedule straight into a bare [`BatchEngine`], driven by the *same*
//! tick-protocol implementation the engine thread runs
//! ([`crate::clock`]): inject due arrivals in `(arrival, index)` order,
//! apply due cancels, step, stamp deliveries with the pre-increment
//! clock, advance iff progressed or arrivals remain. With the
//! determinism contract the engine already guarantees, this makes
//! "service == direct" a bit-exact assertion, not a statistical one.

use crate::clock::{clock_tick, ArrivalQueue, ClockHooks};
use oaken_model::{Model, PagedKvPool};
use oaken_serving::{
    BatchEngine, EngineConfig, EngineRequest, EngineStats, FinishedRequest, TokenScheduler,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Shape of the arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalKind {
    /// Memoryless arrivals: i.i.d. exponential inter-arrival gaps.
    Poisson,
    /// Bursty arrivals: requests land in back-to-back groups of `burst`,
    /// with exponential gaps between groups (mean scaled by `burst` so
    /// the long-run arrival *rate* matches a Poisson process with the
    /// same `mean_interarrival`).
    Bursty {
        /// Requests per burst (all share one arrival tick).
        burst: usize,
    },
}

/// A seeded open-loop arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSpec {
    /// Arrival shape.
    pub kind: ArrivalKind,
    /// Mean inter-arrival gap in service-clock ticks (the reciprocal of
    /// the arrival rate).
    pub mean_interarrival: f64,
    /// RNG seed — the schedule is a pure function of the spec.
    pub seed: u64,
}

impl OpenLoopSpec {
    /// Poisson arrivals at `1 / mean_interarrival` requests per tick.
    pub fn poisson(mean_interarrival: f64, seed: u64) -> Self {
        Self {
            kind: ArrivalKind::Poisson,
            mean_interarrival,
            seed,
        }
    }

    /// Bursty arrivals with the same long-run rate.
    pub fn bursty(mean_interarrival: f64, burst: usize, seed: u64) -> Self {
        assert!(burst > 0, "burst must hold at least one request");
        Self {
            kind: ArrivalKind::Bursty { burst },
            mean_interarrival,
            seed,
        }
    }
}

/// Samples `n` arrival ticks (non-decreasing, starting at tick 0's
/// first gap) from the spec. Gaps are exponential via inverse-CDF on the
/// vendored `StdRng`, floored to integer ticks.
pub fn arrival_schedule(spec: &OpenLoopSpec, n: usize) -> Vec<u64> {
    assert!(
        spec.mean_interarrival >= 0.0,
        "mean inter-arrival must be non-negative"
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut gap = |mean: f64| -> f64 {
        let u: f64 = rng.gen::<f64>();
        -mean * (1.0 - u).ln()
    };
    let mut out = Vec::with_capacity(n);
    match spec.kind {
        ArrivalKind::Poisson => {
            let mut t = 0.0f64;
            for _ in 0..n {
                t += gap(spec.mean_interarrival);
                out.push(t.floor() as u64);
            }
        }
        ArrivalKind::Bursty { burst } => {
            let mut t = 0.0f64;
            while out.len() < n {
                t += gap(spec.mean_interarrival * burst as f64);
                let tick = t.floor() as u64;
                for _ in 0..burst.min(n - out.len()) {
                    out.push(tick);
                }
            }
        }
    }
    out
}

/// Per-request delivery record from a direct replay — the comparator for
/// the service's streamed `SessionResult`s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTiming {
    /// Request id.
    pub id: u64,
    /// Scheduled arrival tick.
    pub arrival: u64,
    /// Decode tokens in index order (restart re-emissions deduped, same
    /// as the service stream).
    pub tokens: Vec<u32>,
    /// Service-clock tick of each token's first emission.
    pub token_clocks: Vec<u64>,
}

/// Everything a direct replay produced.
#[derive(Debug, Clone)]
pub struct DirectReplay {
    /// Engine-terminal records, in retirement order.
    pub finished: Vec<FinishedRequest>,
    /// Delivery timings, in schedule order.
    pub timings: Vec<RequestTiming>,
    /// Final service-clock value.
    pub clock: u64,
    /// The engine's aggregate counters — a service run of the same
    /// schedule must produce an *identical* value (the tick protocols
    /// match step for step).
    pub stats: EngineStats,
}

impl DirectReplay {
    /// The terminal record for `id` — the first retired under it, should
    /// the schedule reuse the id.
    pub fn finished_for(&self, id: u64) -> &FinishedRequest {
        self.finished
            .iter()
            .find(|f| f.id == id)
            .expect("replay drove every request to a terminal state")
    }

    /// The delivery timing for `id` — of the first schedule entry under
    /// it, should the schedule reuse the id.
    pub fn timing_for(&self, id: u64) -> &RequestTiming {
        self.timings
            .iter()
            .find(|t| t.id == id)
            .expect("every scheduled request has a timing record")
    }
}

/// Replays an open-loop `(request, arrival)` schedule — plus optional
/// scripted `(tick, id)` cancels — directly against a bare
/// [`BatchEngine`], using the exact service tick protocol. The reference
/// half of every service-vs-direct bit-exactness assertion.
pub fn replay_open_loop_direct(
    model: &Model,
    pool: PagedKvPool,
    scheduler: TokenScheduler,
    config: EngineConfig,
    schedule: Vec<(EngineRequest, u64)>,
    cancels: &[(u64, u64)],
) -> DirectReplay {
    /// The replay's side of the tick protocol: bare submission on
    /// injection, timing records on delivery. Records are kept by
    /// **schedule position** — an id names one request only until its
    /// terminal event, so a schedule may reuse it for a later entry —
    /// and `streaming` says which entry an id names right now, exactly
    /// as the service's session table does.
    struct ReplayHooks {
        timings: Vec<Option<RequestTiming>>,
        streaming: HashMap<u64, usize>,
        finished_seen: usize,
    }

    impl ClockHooks<(usize, EngineRequest)> for ReplayHooks {
        fn id_of(&self, (_, req): &(usize, EngineRequest)) -> u64 {
            req.id
        }

        fn inject(&mut self, engine: &mut BatchEngine<'_>, (pos, req): (usize, EngineRequest)) {
            let id = req.id;
            engine.submit(req);
            // A submission the engine fails on the spot (malformed, or its
            // id still in flight) streams nothing, and its terminal record
            // must not take the id from the entry that holds it.
            if engine.finished().len() > self.finished_seen {
                self.finished_seen = engine.finished().len();
            } else {
                self.streaming.insert(id, pos);
            }
        }

        fn cancelled_parked(&mut self, (pos, _): (usize, EngineRequest), _clock: u64) {
            // Cancelled while still schedule-parked: the service resolves
            // it client-side; here it simply never runs.
            self.timings[pos] = None;
        }

        fn deliver(&mut self, engine: &mut BatchEngine<'_>, clock: u64) {
            for ev in engine.take_token_events() {
                let entry = self.streaming.get(&ev.id);
                if let Some(t) = entry.and_then(|&pos| self.timings[pos].as_mut()) {
                    if ev.index == t.tokens.len() {
                        t.tokens.push(ev.token);
                        t.token_clocks.push(clock);
                    }
                }
            }
            for fr in &engine.finished()[self.finished_seen..] {
                self.streaming.remove(&fr.id);
            }
            self.finished_seen = engine.finished().len();
        }
    }

    let mut engine = BatchEngine::new(model, pool, scheduler, config);
    let mut queue: ArrivalQueue<(usize, EngineRequest)> = ArrivalQueue::new();
    let mut hooks = ReplayHooks {
        timings: Vec::with_capacity(schedule.len()),
        streaming: HashMap::new(),
        finished_seen: 0,
    };
    for (pos, (req, arrival)) in schedule.into_iter().enumerate() {
        hooks.timings.push(Some(RequestTiming {
            id: req.id,
            arrival,
            tokens: Vec::new(),
            token_clocks: Vec::new(),
        }));
        queue.schedule(arrival, (pos, req));
    }
    for &(at, id) in cancels {
        queue.schedule_cancel(at, id);
    }
    let mut clock: u64 = 0;

    loop {
        if engine.in_flight() == 0 && !queue.has_pending() {
            break;
        }
        clock_tick(&mut engine, &mut clock, &mut queue, &mut hooks);
    }

    let finished = engine.finished().to_vec();
    let stats = engine.stats().clone();
    DirectReplay {
        finished,
        timings: hooks.timings.into_iter().flatten().collect(),
        clock,
        stats,
    }
}

//! The traced replay: the schedule driven on the benchmark's own thread
//! through the public tick protocol (`ArrivalQueue` + `clock_tick`), one
//! span per tick and per request, with the engine's counters read at the
//! same boundary. Nothing outside `bench/` is instrumented.

use crate::json::num;
use crate::timed::{Replay, RequestRun};
use crate::workload::{engine_config, scheduler, Schedule, Setup};
use oaken_service::{clock_tick, ArrivalQueue, BatchEngine, ClockHooks, EngineRequest};
use std::fmt::Write as _;
use std::time::Instant;

/// One service-clock tick of the traced replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickSpan {
    pub tick: u64,
    /// Seconds since the replay started.
    pub start: f64,
    pub end: f64,
    /// Requests injected on this tick.
    pub fed: Vec<u64>,
    /// Tokens the step fed through the model.
    pub tokens_fed: u64,
    pub prefill_tokens: u64,
    pub decode_tokens: u64,
    /// Encoded K+V rows the step's attention calls read.
    pub kv_rows_read: u64,
    pub preemptions: u64,
    /// Sequences active after the step.
    pub active: usize,
    pub pages_in_use: u32,
}

impl TickSpan {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// Whether the step ran the model (idle open-loop gaps do not).
    pub fn worked(&self) -> bool {
        self.tokens_fed > 0
    }
}

/// One request's journey through the traced replay, in seconds since the
/// replay started and in ticks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestSpan {
    pub arrival_tick: u64,
    pub arrival: f64,
    /// First tick after which the request was active (or done).
    pub admitted_tick: Option<u64>,
    pub first_token: Option<f64>,
    pub done: Option<f64>,
}

/// Everything the traced replay recorded.
#[derive(Debug, Clone)]
pub struct Trace {
    pub replay: Replay,
    pub ticks: Vec<TickSpan>,
    pub requests: Vec<RequestSpan>,
    /// Share of allocated page bytes holding payload at the tick with
    /// the most pages in use.
    pub page_fill_at_peak: f64,
    pub prompt_tokens_submitted: u64,
}

/// The engine counters a tick span records the movement of.
struct Counters {
    prefill_tokens: u64,
    decode_tokens: u64,
    kv_rows_read: u64,
    preemptions: u64,
}

impl Counters {
    fn of(engine: &BatchEngine<'_>) -> Self {
        let s = engine.stats();
        Self {
            prefill_tokens: s.prefill_tokens,
            decode_tokens: s.decode_tokens,
            kv_rows_read: s.kv_reads.fused_rows,
            preemptions: s.preemptions,
        }
    }
}

struct TraceHooks {
    runs: Vec<RequestRun>,
    finished_seen: usize,
    // Reset by the replay loop after every tick:
    /// Requests injected.
    fed: Vec<u64>,
    /// Index-0 token events, restart re-emissions included.
    first_tokens: u64,
    /// Requests whose first token was delivered.
    started: Vec<u64>,
    /// Requests that reached a terminal state.
    ended: Vec<u64>,
    /// Whether the service would have sent any event.
    delivered: bool,
}

impl ClockHooks<EngineRequest> for TraceHooks {
    fn id_of(&self, req: &EngineRequest) -> u64 {
        req.id
    }

    fn inject(&mut self, engine: &mut BatchEngine<'_>, req: EngineRequest) {
        self.fed.push(req.id);
        engine.submit(req);
    }

    fn cancelled_parked(&mut self, _req: EngineRequest, _clock: u64) {}

    fn deliver(&mut self, engine: &mut BatchEngine<'_>, clock: u64) {
        for ev in engine.take_token_events() {
            self.first_tokens += u64::from(ev.index == 0);
            let run = &mut self.runs[ev.id as usize];
            // A restarted request re-emits indices it already delivered.
            if ev.index == run.tokens.len() {
                if ev.index == 0 {
                    self.started.push(ev.id);
                }
                run.tokens.push(ev.token);
                run.token_clocks.push(clock);
                self.delivered = true;
            }
        }
        for fr in &engine.finished()[self.finished_seen..] {
            let run = &mut self.runs[fr.id as usize];
            run.done_clock = clock;
            run.outcome = Some(fr.outcome);
            self.ended.push(fr.id);
            self.delivered = true;
        }
        self.finished_seen = engine.finished().len();
    }
}

/// Replays `schedule` once on this thread, recording spans and counters.
pub fn traced_replay(setup: &Setup, schedule: &Schedule) -> Trace {
    let mut engine = BatchEngine::new(&setup.model, setup.pool(), scheduler(), engine_config());
    let mut queue: ArrivalQueue<EngineRequest> = ArrivalQueue::new();
    for (req, arrival) in schedule {
        queue.schedule(*arrival, req.clone());
    }
    let mut hooks = TraceHooks {
        runs: vec![RequestRun::default(); schedule.len()],
        finished_seen: 0,
        fed: Vec::new(),
        first_tokens: 0,
        started: Vec::new(),
        ended: Vec::new(),
        delivered: false,
    };
    let mut requests: Vec<RequestSpan> = schedule
        .iter()
        .map(|(_, arrival)| RequestSpan {
            arrival_tick: *arrival,
            ..RequestSpan::default()
        })
        .collect();
    let mut ticks: Vec<TickSpan> = Vec::new();
    let mut delivering: Vec<u64> = Vec::new();
    let mut delivering_secs: Vec<f64> = Vec::new();
    let mut peak_pages = 0u32;
    let mut page_fill_at_peak = 0.0f64;
    let mut clock = 0u64;
    let origin = Instant::now();

    loop {
        let idle = engine.active_len() == 0 && engine.queue_len() == 0 && engine.resume_len() == 0;
        if idle && !queue.has_pending() {
            break;
        }
        let before = Counters::of(&engine);
        let tick = clock;

        let start = origin.elapsed().as_secs_f64();
        clock_tick(&mut engine, &mut clock, &mut queue, &mut hooks);
        let end = origin.elapsed().as_secs_f64();

        let after = Counters::of(&engine);
        let prefill_tokens = after.prefill_tokens - before.prefill_tokens;
        let decode_tokens = after.decode_tokens - before.decode_tokens;
        // A sequence's first token is sampled from its last prompt
        // token's logits: counted as a decode token, fed as a prompt one.
        let tokens_fed = prefill_tokens + decode_tokens - hooks.first_tokens;
        hooks.first_tokens = 0;
        let acc = engine.pool().page_accounting();
        let pages_in_use = acc.private + acc.shared_blocks;
        if pages_in_use > peak_pages {
            peak_pages = pages_in_use;
            page_fill_at_peak = 1.0 - engine.pool().mmu().internal_fragmentation();
        }
        let fed = std::mem::take(&mut hooks.fed);
        for &id in &fed {
            requests[id as usize].arrival = start;
        }
        for id in engine.active_ids() {
            requests[id as usize].admitted_tick.get_or_insert(tick);
        }
        for id in hooks.started.drain(..) {
            requests[id as usize].first_token = Some(end);
        }
        for id in hooks.ended.drain(..) {
            let span = &mut requests[id as usize];
            span.done = Some(end);
            span.admitted_tick.get_or_insert(tick);
        }
        if std::mem::take(&mut hooks.delivered) {
            delivering.push(tick);
            delivering_secs.push(end);
        }
        ticks.push(TickSpan {
            tick,
            start,
            end,
            fed,
            tokens_fed,
            prefill_tokens,
            decode_tokens,
            kv_rows_read: after.kv_rows_read - before.kv_rows_read,
            preemptions: after.preemptions - before.preemptions,
            active: engine.active_len(),
            pages_in_use,
        });
    }

    Trace {
        replay: Replay {
            requests: hooks.runs,
            ticks: delivering,
            tick_secs: delivering_secs,
            clock,
            stats: engine.stats().clone(),
        },
        ticks,
        requests,
        page_fill_at_peak,
        prompt_tokens_submitted: schedule.iter().map(|(r, _)| r.prompt.len() as u64).sum(),
    }
}

impl Trace {
    /// Tokens fed through the model over the whole replay.
    pub fn tokens_fed(&self) -> u64 {
        self.ticks.iter().map(|t| t.tokens_fed).sum()
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): one complete event per tick on thread 1, two per
    /// request (queue+prefill, decode) on thread `2 + id`, each request
    /// span naming the tick that fed it as its parent.
    pub fn chrome_json(&self, workload: &str) -> String {
        let us = |s: f64| num((s * 1e6).round());
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let _ = write!(
            out,
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": {{\"name\": {}}}}}",
            crate::json::quote(workload)
        );
        for t in &self.ticks {
            let fed: Vec<String> = t.fed.iter().map(u64::to_string).collect();
            let _ = write!(
                out,
                ",\n{{\"name\": \"tick\", \"cat\": \"serving\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {}, \"dur\": {}, \"id\": {}, \"args\": {{\"tick\": {}, \"fed\": [{}], \"tokens_fed\": {}, \"prefill_tokens\": {}, \"decode_tokens\": {}, \"kv_rows_read\": {}, \"preemptions\": {}, \"active\": {}, \"pages_in_use\": {}}}}}",
                us(t.start),
                us(t.secs()),
                t.tick,
                t.tick,
                fed.join(", "),
                t.tokens_fed,
                t.prefill_tokens,
                t.decode_tokens,
                t.kv_rows_read,
                t.preemptions,
                t.active,
                t.pages_in_use
            );
        }
        for (id, r) in self.requests.iter().enumerate() {
            let phases = [
                ("ttft", Some(r.arrival), r.first_token),
                ("decode", r.first_token, r.done),
            ];
            for (name, from, to) in phases {
                if let (Some(from), Some(to)) = (from, to) {
                    let _ = write!(
                        out,
                        ",\n{{\"name\": \"{name}\", \"cat\": \"request\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \"id\": {id}, \"args\": {{\"request\": {id}, \"parent_tick\": {}}}}}",
                        2 + id,
                        us(from),
                        us(to - from),
                        r.arrival_tick
                    );
                }
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

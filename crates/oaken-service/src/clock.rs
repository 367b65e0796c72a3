//! The deterministic service-clock tick protocol for stepping one
//! [`BatchEngine`] against scheduled arrivals, and the [`ArrivalQueue`]
//! whose ordering every scheduled-arrival driver shares.
//!
//! Two drivers run this exact protocol through [`clock_tick`] — the live
//! engine thread behind [`serve`](crate::serve) and the bare-engine
//! reference replay
//! [`replay_open_loop_direct`](crate::workload::replay_open_loop_direct)
//! — and the service-vs-direct bit-exactness contract holds precisely
//! because it is *one* implementation, not two copies that could drift.
//! The disaggregated cluster does **not** run it: `run_cluster` keeps its
//! own tick loop over many engines and borrows only the ordering rules
//! from here ([`ArrivalQueue::take_due`], [`ArrivalQueue::due_cancels`]),
//! so cluster-vs-monolithic equality is a property its tests establish,
//! not one this module gives it (folding the two loops together is
//! ROADMAP 6(c)). One tick:
//!
//! 1. inject every scheduled arrival with `arrival <= clock`, in
//!    `(arrival, submission order)` order;
//! 2. apply every due cancel — after arrivals, so a cancel scripted for
//!    a request's own arrival tick catches it in the engine queue; a
//!    cancel that finds its target still schedule-parked resolves
//!    driver-side (the request never reaches the engine);
//! 3. `engine.step()` once;
//! 4. deliver this step's tokens and terminals, stamped with the current
//!    (pre-increment) clock;
//! 5. advance the clock iff the step progressed or arrivals remain
//!    scheduled.
//!
//! The driver-specific halves — what injection registers, how deliveries
//! are recorded — live behind [`ClockHooks`].

use oaken_serving::BatchEngine;

/// Driver-specific callbacks for one clock tick. `T` is whatever the
/// driver parks in its [`ArrivalQueue`] — a bare
/// [`EngineRequest`](oaken_serving::EngineRequest) for a replay, a
/// submission with its client channel for the live service.
pub trait ClockHooks<T> {
    /// The request id carried by a parked item (cancel targeting).
    fn id_of(&self, item: &T) -> u64;

    /// A due arrival: register whatever the driver tracks, then submit
    /// to the engine.
    fn inject(&mut self, engine: &mut BatchEngine<'_>, item: T);

    /// A due cancel that caught its target still schedule-parked: the
    /// request never reaches the engine; resolve it driver-side, stamped
    /// with the current clock.
    fn cancelled_parked(&mut self, item: T, clock: u64);

    /// Post-step delivery, stamped with the pre-increment clock: drain
    /// [`BatchEngine::take_token_events`] (deduping restart re-emissions
    /// by decode index) and any newly finished requests.
    fn deliver(&mut self, engine: &mut BatchEngine<'_>, clock: u64);
}

/// Scheduled-but-not-yet-injected arrivals and cancels for one engine,
/// with the protocol's deterministic injection order baked in.
#[derive(Debug)]
pub struct ArrivalQueue<T> {
    /// Monotone submission counter — the injection-order tiebreak for
    /// arrivals scheduled on the same tick.
    next_seq: u64,
    /// `(arrival tick, submission order, item)`.
    pending: Vec<(u64, u64, T)>,
    /// `(due tick, request id)`.
    cancels: Vec<(u64, u64)>,
}

impl<T> Default for ArrivalQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ArrivalQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            next_seq: 0,
            pending: Vec::new(),
            cancels: Vec::new(),
        }
    }

    /// Parks an item for injection once the clock reaches `arrival`
    /// (drivers clamp a past arrival to the current clock themselves —
    /// the replay's schedule is absolute, the live service's is not).
    pub fn schedule(&mut self, arrival: u64, item: T) {
        self.pending.push((arrival, self.next_seq, item));
        self.next_seq += 1;
    }

    /// Scripts a cancel of request `id` for tick `at`.
    pub fn schedule_cancel(&mut self, at: u64, id: u64) {
        self.cancels.push((at, id));
    }

    /// Whether any arrival is still parked (the clock keeps ticking over
    /// an idle engine while this holds — open-loop gaps burn ticks).
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Drops every scripted cancel — nothing a cancel could still target
    /// (the live service calls this when fully idle so a stray cancel for
    /// a retired id cannot wedge its shutdown test).
    pub fn clear_cancels(&mut self) {
        self.cancels.clear();
    }

    /// Removes and returns every arrival with `arrival <= clock`, in the
    /// protocol's `(arrival, submission order)` injection order. The
    /// building block multi-engine drivers (the cluster router) consume
    /// directly — routing each due item to an engine of their choosing —
    /// so the ordering rule exists in exactly one place.
    pub fn take_due(&mut self, clock: u64) -> Vec<T> {
        self.pending
            .sort_by_key(|&(arrival, seq, _)| (arrival, seq));
        let mut due = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].0 <= clock {
                let (_, _, item) = self.pending.remove(i);
                due.push(item);
            } else {
                i += 1;
            }
        }
        due
    }

    /// Removes and returns the ids of every cancel with `due <= clock`,
    /// in scripted order. Applied *after* [`take_due`](Self::take_due)
    /// within a tick, so a cancel scripted for its target's own arrival
    /// tick catches it post-injection.
    pub fn due_cancels(&mut self, clock: u64) -> Vec<u64> {
        let mut due = Vec::new();
        let mut j = 0;
        while j < self.cancels.len() {
            if self.cancels[j].0 <= clock {
                let (_, id) = self.cancels.remove(j);
                due.push(id);
            } else {
                j += 1;
            }
        }
        due
    }

    /// Whether an item with the given id is still parked.
    pub fn is_parked(&self, id: u64, id_of: impl Fn(&T) -> u64) -> bool {
        self.pending.iter().any(|(_, _, it)| id_of(it) == id)
    }

    /// Removes the still-parked item with the given id, if any — how a
    /// due cancel resolves against a not-yet-injected arrival.
    pub fn remove_parked(&mut self, id: u64, id_of: impl Fn(&T) -> u64) -> Option<T> {
        let p = self.pending.iter().position(|(_, _, it)| id_of(it) == id)?;
        let (_, _, item) = self.pending.remove(p);
        Some(item)
    }

    /// Protocol steps 1–2 against a single engine: inject due arrivals,
    /// then apply due cancels (schedule-parked targets resolve through
    /// [`ClockHooks::cancelled_parked`], injected ones through
    /// [`BatchEngine::cancel`]).
    pub fn inject_due(
        &mut self,
        engine: &mut BatchEngine<'_>,
        clock: u64,
        hooks: &mut impl ClockHooks<T>,
    ) {
        for item in self.take_due(clock) {
            hooks.inject(engine, item);
        }
        for id in self.due_cancels(clock) {
            if let Some(item) = self.remove_parked(id, |it| hooks.id_of(it)) {
                hooks.cancelled_parked(item, clock);
            } else {
                engine.cancel(id);
            }
        }
    }
}

/// One full service-clock tick (protocol steps 1–5) against a single
/// engine. Returns whether the engine step made progress.
pub fn clock_tick<T>(
    engine: &mut BatchEngine<'_>,
    clock: &mut u64,
    queue: &mut ArrivalQueue<T>,
    hooks: &mut impl ClockHooks<T>,
) -> bool {
    queue.inject_due(engine, *clock, hooks);
    let progressed = engine.step();
    hooks.deliver(engine, *clock);
    if progressed || queue.has_pending() {
        *clock += 1;
    }
    progressed
}

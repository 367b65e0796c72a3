//! The modeled prefill→decode KV transfer link.
//!
//! A disaggregated handoff ships the frozen, quantized KV of a finished
//! prefill to its decode replica. The link models that interconnect with
//! a single knob — bytes per service-clock tick — and charges each
//! export its *wire* size (payload bytes plus the self-describing stream
//! headers, [`KvExport::wire_bytes`]): a transfer sent at tick `t`
//! becomes deliverable at `t + ceil(wire_bytes / bytes_per_tick)`
//! (minimum one tick; a zero knob means an infinitely fast link, i.e.
//! deliverable the tick after it was sent). Deliveries the destination
//! cannot yet host (its host tier is full) are requeued for the next
//! tick rather than dropped — backpressure shows up as delay, never as
//! lost KV.
//!
//! The wire is an [`ArrivalQueue`] keyed by delivery tick: a transfer is
//! an arrival at its decode replica, so deliveries due on the same tick
//! come out in the order they entered the link — the ordering rule the
//! service clock already owns, not a second copy of it.

use oaken_service::ArrivalQueue;
use oaken_serving::KvExport;

/// Link accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Exports that entered the link.
    pub transfers: u64,
    /// Wire bytes shipped (payload + stream headers), summed.
    pub wire_bytes: u64,
    /// Ticks spent on the wire, summed over delivered transfers (each
    /// transfer contributes `delivered_at − sent_at`).
    pub delay_ticks: u64,
    /// Deliveries bounced by a full destination and requeued.
    pub retries: u64,
}

/// One export on the wire.
#[derive(Debug)]
struct InFlight {
    export: KvExport,
    replica: usize,
    sent_at: u64,
}

/// The cluster's shared transfer fabric: every prefill→decode handoff,
/// for every replica, rides this one link model.
#[derive(Debug)]
pub struct TransferLink {
    bytes_per_tick: u64,
    in_flight: ArrivalQueue<InFlight>,
    stats: TransferStats,
}

impl TransferLink {
    /// A link shipping `bytes_per_tick` wire bytes per service-clock
    /// tick; `0` models an infinitely fast interconnect (every transfer
    /// still takes the one-tick minimum).
    pub fn new(bytes_per_tick: u64) -> Self {
        Self {
            bytes_per_tick,
            in_flight: ArrivalQueue::new(),
            stats: TransferStats::default(),
        }
    }

    /// The configured bandwidth knob.
    pub fn bytes_per_tick(&self) -> u64 {
        self.bytes_per_tick
    }

    /// Link accounting so far.
    pub fn stats(&self) -> TransferStats {
        self.stats
    }

    /// Whether nothing is on the wire.
    pub fn is_empty(&self) -> bool {
        !self.in_flight.has_pending()
    }

    /// Transfers currently bound for `replica` — router load input.
    pub fn in_flight_to(&self, replica: usize) -> u64 {
        self.in_flight
            .parked()
            .filter(|f| f.replica == replica)
            .count() as u64
    }

    /// Puts an export on the wire toward `replica` at tick `now`.
    pub fn send(&mut self, export: KvExport, replica: usize, now: u64) {
        let wire = export.wire_bytes();
        let ticks = if self.bytes_per_tick == 0 {
            1
        } else {
            wire.div_ceil(self.bytes_per_tick).max(1)
        };
        self.stats.transfers += 1;
        self.stats.wire_bytes += wire;
        let flight = InFlight {
            export,
            replica,
            sent_at: now,
        };
        self.in_flight.schedule(now + ticks, flight);
    }

    /// Puts a bounced delivery back on the wire for the next tick (the
    /// destination's host tier was full); the original send time is kept
    /// so the retry keeps accruing delay.
    pub fn requeue(&mut self, export: KvExport, replica: usize, sent_at: u64, now: u64) {
        self.stats.retries += 1;
        let flight = InFlight {
            export,
            replica,
            sent_at,
        };
        self.in_flight.schedule(now + 1, flight);
    }

    /// Removes and returns the in-flight export for request `id`, if one
    /// is on the wire — how a cancel catches a request mid-handoff. The
    /// frozen KV is simply dropped with the export; the destination never
    /// sees it.
    pub fn cancel(&mut self, id: u64) -> Option<KvExport> {
        let flight = self.in_flight.remove_parked(id, |f| f.export.request.id)?;
        Some(flight.export)
    }

    /// Removes and returns every transfer due by `now`, in `(due tick,
    /// link arrival order)` order: `(replica, export, sent_at)` triples.
    /// The caller ingests each and [`requeue`](Self::requeue)s
    /// rejections.
    pub fn deliver_due(&mut self, now: u64) -> Vec<(usize, KvExport, u64)> {
        let due = self.in_flight.take_due(now);
        due.into_iter()
            .map(|f| {
                self.stats.delay_ticks += now - f.sent_at;
                (f.replica, f.export, f.sent_at)
            })
            .collect()
    }
}

//! Per-request session handles: the client half of the service's
//! streaming delivery.
//!
//! Every submission returns a [`SessionHandle`] wrapping a *bounded*
//! `std::sync::mpsc` channel. The bound is `min(max_new_tokens,
//! max_seq_len) + 1` — enough for every token the request can ever
//! produce plus its terminal [`StreamEvent::Done`] — so the engine
//! thread's sends can **never block** on a slow or absent consumer:
//! streaming delivery is
//! observationally downstream of the engine and cannot perturb its
//! deterministic iteration loop (and a full-channel deadlock is
//! impossible by construction).

use crate::batcher::Batcher;
use oaken_serving::RequestOutcome;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;

/// One streamed decode token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamToken {
    /// 0-based decode index within the request's output. Strictly
    /// increasing per handle: the engine thread dedups the re-emissions
    /// of an evicted-and-restarted request, so the client never sees an
    /// index twice.
    pub index: usize,
    /// The token.
    pub token: u32,
    /// Service-clock tick that delivered the token (iteration time, not
    /// wall clock — the substrate of the TTFT / inter-token metrics).
    pub clock: u64,
}

/// Terminal state of a session, delivered exactly once after the last
/// token.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionEnd {
    /// How the request ended.
    pub outcome: RequestOutcome,
    /// The engine's final output tokens. Equal to the streamed tokens for
    /// finished requests. For a request cancelled between an eviction and
    /// the end of its restart's re-decode it can be a *prefix* of the
    /// streamed tokens: the stream is the user-visible truth (those
    /// tokens were delivered before the eviction; the restart recomputes
    /// the identical values).
    pub generated: Vec<u32>,
    /// Engine iteration (1-based) of the request's first decode token; 0
    /// if it never decoded.
    pub ttft_iteration: u64,
    /// Times the request was preempted (evicted or suspended).
    pub preemptions: usize,
    /// Service-clock tick at which the terminal state was delivered.
    pub clock: u64,
}

/// One delivery on a session's stream.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamEvent {
    /// A decode token.
    Token(StreamToken),
    /// The terminal state; nothing follows it.
    Done(SessionEnd),
}

/// Everything a drained session produced — see [`SessionHandle::wait`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// Request id.
    pub id: u64,
    /// Streamed tokens in index order.
    pub tokens: Vec<u32>,
    /// Service-clock tick of each streamed token (same length as
    /// `tokens`) — the raw material of TTFT / inter-token latency.
    pub token_clocks: Vec<u64>,
    /// The terminal state.
    pub end: SessionEnd,
}

/// The client half of one in-flight request: a live token stream plus
/// mid-decode cancellation. Dropping the handle without draining is safe
/// — the bounded channel absorbs every send — but does *not* cancel the
/// request; call [`cancel`](Self::cancel) to stop the engine-side work.
pub struct SessionHandle {
    id: u64,
    rx: Receiver<StreamEvent>,
    batcher: Arc<Batcher>,
}

impl SessionHandle {
    pub(crate) fn new(id: u64, rx: Receiver<StreamEvent>, batcher: Arc<Batcher>) -> Self {
        Self { id, rx, batcher }
    }

    /// The request id this handle streams.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks for the next delivery; `None` after the terminal
    /// [`StreamEvent::Done`] has been consumed (the sender is dropped
    /// with it).
    pub fn recv(&self) -> Option<StreamEvent> {
        self.rx.recv().ok()
    }

    /// Non-blocking poll: `Ok(Some(_))` on a delivery, `Ok(None)` when
    /// the stream is open but empty, `Err(())` once closed.
    #[allow(clippy::result_unit_err)]
    pub fn try_recv(&self) -> Result<Option<StreamEvent>, ()> {
        match self.rx.try_recv() {
            Ok(ev) => Ok(Some(ev)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(()),
        }
    }

    /// Requests cancellation wherever the request is parked (batcher
    /// schedule, engine queue, active batch, host tier, resume head).
    /// Asynchronous: the terminal outcome still arrives on the stream —
    /// [`RequestOutcome::Cancelled`] if the cancel won the race,
    /// [`RequestOutcome::Finished`] if the request retired first.
    pub fn cancel(&self) {
        self.batcher.cancel(self.id);
    }

    /// Drains the stream to its terminal state, collecting every token.
    ///
    /// # Panics
    ///
    /// Panics if the service dropped the stream without a terminal event
    /// — that is a service bug (the engine thread always delivers
    /// [`StreamEvent::Done`] before releasing a session).
    pub fn wait(self) -> SessionResult {
        let mut tokens = Vec::new();
        let mut token_clocks = Vec::new();
        loop {
            match self.rx.recv() {
                Ok(StreamEvent::Token(t)) => {
                    debug_assert_eq!(t.index, tokens.len(), "stream indices are dense");
                    tokens.push(t.token);
                    token_clocks.push(t.clock);
                }
                Ok(StreamEvent::Done(end)) => {
                    return SessionResult {
                        id: self.id,
                        tokens,
                        token_clocks,
                        end,
                    };
                }
                Err(_) => panic!("session {} stream closed without a terminal event", self.id),
            }
        }
    }
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("id", &self.id)
            .finish()
    }
}

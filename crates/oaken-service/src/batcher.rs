//! The service's request queue: a plain `Mutex` + `Condvar` mailbox
//! between concurrent client threads and the single engine thread.
//!
//! Clients push commands (submissions, cancellations, shutdown) from
//! any thread; the engine thread drains the whole mailbox at the top of
//! every loop iteration (`Batcher::drain`) and blocks on the condvar
//! only when it is completely idle (`Batcher::wait`). No async runtime
//! is involved — `std::thread` only, matching `oaken-runtime`'s style —
//! and the engine's deterministic iteration loop is never entered while
//! holding the lock, so client threads can never stall an engine step.

use crate::session::StreamEvent;
use oaken_serving::EngineRequest;
use std::collections::VecDeque;
use std::sync::mpsc::SyncSender;
use std::sync::{Condvar, Mutex};

/// One submission handed from a client thread to the engine thread.
pub(crate) struct Submission {
    /// The request to run.
    pub req: EngineRequest,
    /// Service-clock tick at which the engine thread injects the request
    /// (the open-loop arrival schedule); `None` injects it as soon as the
    /// engine thread sees it (live-service semantics).
    pub arrival: Option<u64>,
    /// Streaming delivery channel (bounded to every token the request
    /// can produce plus its terminal event, so the engine thread's sends
    /// can never block).
    pub tx: SyncSender<StreamEvent>,
}

/// A client→engine command.
pub(crate) enum Command {
    /// Run a request, streaming its tokens back.
    Submit(Submission),
    /// Cancel a request wherever it is parked — batcher-scheduled, queued
    /// in the engine, active, suspended, or resume head. `at` defers the
    /// cancellation to a service-clock tick (scripted cancels stay
    /// deterministic); `None` applies it as soon as the engine thread
    /// sees it.
    Cancel { id: u64, at: Option<u64> },
}

struct MailboxState {
    commands: VecDeque<Command>,
    shutdown: bool,
}

/// The Mutex + Condvar mailbox. See the module docs.
pub struct Batcher {
    state: Mutex<MailboxState>,
    ready: Condvar,
}

impl Batcher {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(MailboxState {
                commands: VecDeque::new(),
                shutdown: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Pushes one command and wakes the engine thread.
    pub(crate) fn push(&self, cmd: Command) {
        let mut s = self.state.lock().expect("batcher lock");
        s.commands.push_back(cmd);
        self.ready.notify_all();
    }

    /// Pushes a whole batch of commands under one lock acquisition: the
    /// engine thread wakes to the *complete* set, which is what keeps a
    /// pre-built open-loop schedule deterministic (the engine cannot
    /// observe a half-pushed schedule).
    pub(crate) fn push_all(&self, cmds: impl IntoIterator<Item = Command>) {
        let mut s = self.state.lock().expect("batcher lock");
        s.commands.extend(cmds);
        self.ready.notify_all();
    }

    /// Requests a cancellation (client-facing; see `Command::Cancel`).
    pub fn cancel(&self, id: u64) {
        self.push(Command::Cancel { id, at: None });
    }

    /// Flags shutdown and wakes the engine thread. Commands already
    /// queued are still processed; the engine thread exits once it has
    /// drained the mailbox and finished all in-flight work.
    pub fn shutdown(&self) {
        let mut s = self.state.lock().expect("batcher lock");
        s.shutdown = true;
        self.ready.notify_all();
    }

    /// Takes every queued command without blocking; also returns whether
    /// shutdown has been flagged.
    pub(crate) fn drain(&self) -> (Vec<Command>, bool) {
        let mut s = self.state.lock().expect("batcher lock");
        (s.commands.drain(..).collect(), s.shutdown)
    }

    /// Blocks until at least one command arrives or shutdown is flagged,
    /// then drains. Used only when the engine thread is completely idle —
    /// the service clock is frozen while waiting here.
    pub(crate) fn wait(&self) -> (Vec<Command>, bool) {
        let mut s = self.state.lock().expect("batcher lock");
        while s.commands.is_empty() && !s.shutdown {
            s = self.ready.wait(s).expect("batcher condvar");
        }
        (s.commands.drain(..).collect(), s.shutdown)
    }
}

impl Default for Batcher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;
    use std::sync::Arc;

    fn submission(id: u64) -> Command {
        let (tx, _rx) = sync_channel(2);
        Command::Submit(Submission {
            req: EngineRequest::new(id, vec![1, 2], 1),
            arrival: None,
            tx,
        })
    }

    #[test]
    fn drain_is_fifo_and_nonblocking() {
        let b = Batcher::new();
        let (cmds, sd) = b.drain();
        assert!(cmds.is_empty() && !sd);
        b.push(submission(0));
        b.push(Command::Cancel { id: 0, at: None });
        let (cmds, sd) = b.drain();
        assert_eq!(cmds.len(), 2);
        assert!(!sd);
        assert!(matches!(cmds[0], Command::Submit(ref s) if s.req.id == 0));
        assert!(matches!(cmds[1], Command::Cancel { id: 0, at: None }));
    }

    #[test]
    fn wait_wakes_on_push_and_on_shutdown() {
        let b = Arc::new(Batcher::new());
        let b2 = b.clone();
        let t = std::thread::spawn(move || b2.wait());
        b.push(submission(7));
        let (cmds, sd) = t.join().expect("waiter");
        assert_eq!(cmds.len(), 1);
        assert!(!sd);

        let b3 = b.clone();
        let t = std::thread::spawn(move || b3.wait());
        b.shutdown();
        let (cmds, sd) = t.join().expect("waiter");
        assert!(cmds.is_empty());
        assert!(sd);
    }

    #[test]
    fn push_all_is_one_atomic_batch() {
        let b = Batcher::new();
        b.push_all((0..5).map(submission));
        let (cmds, _) = b.drain();
        assert_eq!(cmds.len(), 5);
    }
}

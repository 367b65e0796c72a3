//! Concurrency stress: many client threads submitting, streaming, and
//! cancelling against one live service at once. The obligations are
//! liveness and hygiene, not timing: no deadlock, every handle reaches a
//! terminal state, every delivered stream is a bit-exact prefix of the
//! uninterrupted `Session` decode, the engine's terminal accounting adds
//! up, and the KV pool drains *exactly* empty after shutdown — zero
//! pages, zero shared blocks, zero host residue, zero sequences, on
//! every rank shard — at every point of the engine matrix.

#[path = "../../oaken-serving/tests/support/mod.rs"]
mod support;

use oaken_service::{serve, SessionEnd, StreamEvent};
use oaken_serving::{EngineConfig, RequestOutcome, TokenScheduler};
use support::*;

const CLIENTS: u64 = 6;
const PER_CLIENT: u64 = 5;

/// Drains a handle by hand (recv loop rather than `wait`), optionally
/// firing a cancel after the second token — the racy mid-stream path a
/// real client takes.
fn drain_streaming(
    handle: oaken_service::SessionHandle,
    cancel_after: Option<usize>,
) -> (Vec<u32>, SessionEnd) {
    let mut tokens = Vec::new();
    loop {
        match handle.recv().expect("stream stays open until Done") {
            StreamEvent::Token(t) => {
                assert_eq!(t.index, tokens.len(), "stream indices are dense");
                tokens.push(t.token);
                if Some(tokens.len()) == cancel_after {
                    handle.cancel();
                }
            }
            StreamEvent::Done(end) => return (tokens, end),
        }
    }
}

#[test]
fn concurrent_clients_stream_cancel_and_drain_clean() {
    let model = tiny_model();
    let quantizer = profiled_oaken(&model);
    for_each_point(service_config, |cfg| {
        stress_one_point(&model, &quantizer, cfg)
    });
}

fn stress_one_point(
    model: &oaken_model::Model,
    quantizer: &std::sync::Arc<dyn oaken_core::KvQuantizer>,
    cfg: EngineConfig,
) {
    let pool = service_pool(model, quantizer, 256, 128);

    let (all, report) = serve(model, pool, TokenScheduler::new(4), cfg, |client| {
        std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for c in 0..CLIENTS {
                workers.push(scope.spawn(move || {
                    let mut out = Vec::new();
                    for j in 0..PER_CLIENT {
                        let id = c * 100 + j;
                        let req = request_for(id, 3 + (id as usize % 6), 3 + (id as usize % 5));
                        let want = req.max_new_tokens;
                        let handle = client.submit(req);
                        // Every third request cancels itself mid-stream;
                        // the rest are drained to completion.
                        let cancel_after = (j % 3 == 0).then_some(2);
                        let (tokens, end) = drain_streaming(handle, cancel_after);
                        out.push((id, want, tokens, end));
                    }
                    out
                }));
            }
            // A hostile client: cancels ids that never existed and ids
            // that likely already retired — must be absorbed as no-ops.
            let noise = scope.spawn(move || {
                for k in 0..50u64 {
                    client.cancel(1_000_000 + k);
                    client.cancel(k % (CLIENTS * 100));
                }
            });
            noise.join().expect("noise client");
            let mut all = Vec::new();
            for w in workers {
                all.extend(w.join().expect("client thread"));
            }
            all
        })
    });

    assert_eq!(
        all.len(),
        (CLIENTS * PER_CLIENT) as usize,
        "every handle terminal"
    );
    let mut finished = 0u64;
    let mut cancelled = 0u64;
    for (id, want, tokens, end) in &all {
        // The hostile canceller may have legitimately cancelled a live
        // request (ids overlap by construction), so either terminal is
        // acceptable — but the stream must be a bit-exact prefix of the
        // uninterrupted Session decode either way.
        let prompt = prompt_for(*id, 3 + (*id as usize % 6));
        let reference = reference_tokens(model, quantizer, cfg.kernel, &prompt, *want);
        assert!(
            tokens.len() <= reference.len() && tokens[..] == reference[..tokens.len()],
            "request {id}: stream is not a prefix of the Session reference"
        );
        match end.outcome {
            RequestOutcome::Finished => {
                finished += 1;
                assert_eq!(tokens, &reference, "request {id}: finished but short");
                assert_eq!(&end.generated, tokens, "request {id}: terminal tokens");
            }
            RequestOutcome::Cancelled => cancelled += 1,
            other => panic!("request {id}: unexpected terminal {other:?}"),
        }
    }
    assert!(finished > 0, "some requests must outrun their cancels");
    assert!(cancelled > 0, "self-cancels after two tokens must land");

    // Terminal accounting: every submission is retired, cancelled,
    // failed, or killed — and this workload can only finish or cancel.
    let s = &report.stats;
    assert_eq!(s.failed + s.deadline_kills, 0, "no failures injected");
    assert_eq!(s.retired, finished, "retired == finished handles");
    assert_eq!(
        s.cancellations, cancelled,
        "cancellations == cancelled handles"
    );
    assert_eq!(s.retired + s.cancellations, CLIENTS * PER_CLIENT);

    // The hygiene obligation: the pool drains exactly empty.
    assert!(
        report.drained_empty(),
        "pool residue after shutdown: {:?}",
        report.drain
    );
    for (rank, d) in report.drain.iter().enumerate() {
        assert_eq!(d.free_pages, d.capacity_pages, "rank {rank} free pages");
        assert_eq!(
            (d.private_pages, d.shared_block_pages, d.host_pages_used),
            (0, 0, 0),
            "rank {rank} page residue"
        );
        assert_eq!(
            (d.active_seqs, d.suspended_seqs),
            (0, 0),
            "rank {rank} sequence residue"
        );
    }
}

/// Submissions racing shutdown: the service must still drive every
/// accepted request to a terminal state before the engine thread exits —
/// `serve` only returns after the mailbox and engine are fully drained.
#[test]
fn shutdown_drains_in_flight_work() {
    let model = tiny_model();
    let quantizer = profiled_oaken(&model);
    let three_wide = |point| EngineConfig {
        max_batch: 3,
        ..service_config(point)
    };
    for_each_point(three_wide, |cfg| {
        let pool = service_pool(&model, &quantizer, 256, 128);

        let (handles, report) = serve(&model, pool, TokenScheduler::new(4), cfg, |client| {
            // Submit and return immediately — shutdown is flagged while all
            // of these are still queued or mid-decode.
            (0..8u64)
                .map(|id| client.submit(request_for(id, 5, 6)))
                .collect::<Vec<_>>()
        });
        // The engine thread has already exited; the streams must be complete.
        for h in handles {
            let res = h.wait();
            assert_eq!(
                res.end.outcome,
                RequestOutcome::Finished,
                "request {}",
                res.id
            );
            let prompt = prompt_for(res.id, 5);
            let reference = reference_tokens(&model, &quantizer, cfg.kernel, &prompt, 6);
            assert_eq!(res.tokens, reference, "request {}", res.id);
        }
        assert_eq!(report.stats.retired, 8);
        assert!(report.drained_empty(), "{:?}", report.drain);
    });
}

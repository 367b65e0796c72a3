//! A tour of the memory management unit (§5.2): write a request's
//! quantized KV stream through the page-based MMU the way the paged KV pool
//! lays it out — one dense slab and one sparse log per owner — inspect
//! each stream's per-token sizes and the pages they pack into, and share
//! the request by refcount — the page-sharing primitive behind the pool's
//! prefix cache.
//!
//! Run with: `cargo run --example mmu_tour`

use oaken::core::{KvKind, OakenConfig, OakenQuantizer, OfflineProfiler};
use oaken::mmu::{MmuSim, StreamClass, StreamKey};

fn kv_vector(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let u = ((i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(seed)
                >> 33) as f32
                / (1u64 << 31) as f32;
            let base = (u - 0.5) * 6.0;
            if i % 41 == 0 {
                base * 10.0
            } else {
                base
            }
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three KV heads of 128 channels: 192-byte dense rows, which do not
    // divide a 4 KiB page — row 21 straddles the first page edge.
    let kv_dim = 3 * 128;
    let config = OakenConfig::default();
    let mut profiler = OfflineProfiler::new(config.clone(), 1);
    for s in 0..64 {
        profiler.observe(0, KvKind::Key, &kv_vector(kv_dim, s));
        profiler.observe(0, KvKind::Value, &kv_vector(kv_dim, s));
    }
    let quantizer = OakenQuantizer::new(config, profiler.finish());

    // A small device: 64 pages of 4 KiB.
    let page_size = 4096;
    let mut mmu = MmuSim::new(64, page_size);
    let dense_key = StreamKey {
        request: 7,
        layer: 0,
        head: 0,
        class: StreamClass::Dense,
    };
    let sparse_key = StreamKey {
        class: StreamClass::Sparse,
        ..dense_key
    };

    // Write 32 tokens of one request: each token's whole dense row goes to
    // the request's one dense slab, its outliers to its one sparse log.
    println!("writing 32 tokens x {kv_dim} channels (one dense slab + one sparse log)...");
    for t in 0..32u64 {
        let run = quantizer.quantize_vector(&kv_vector(kv_dim, 1000 + t), 0, KvKind::Key)?;
        let fv = run.row(0);
        mmu.write_token(dense_key, fv.dense_bytes().len() as u32)?;
        // Sparse bytes vary per token — the reason the sparse table exists.
        mmu.write_token(sparse_key, fv.sparse_bytes().len().max(1) as u32)?;
    }

    // Each stream is its pages plus its per-token sizes. The slab's rows
    // are one stride, so row t starts at t x stride and may straddle a page
    // edge; the log's entries vary in size and never span a page.
    let (_, dense_sizes) = mmu.stream(&dense_key).expect("stream exists");
    let stride = dense_sizes[0] as usize;
    println!("\ndense slab (fixed stride {stride} bytes):");
    for (t, size) in dense_sizes.iter().enumerate().skip(19).take(4) {
        let start = t * stride;
        let note = if start / page_size != (start + stride - 1) / page_size {
            "  <- straddles the page edge"
        } else {
            ""
        };
        println!("  token {t}: {size:#04x} bytes at slab offset {start:#06x}{note}");
    }
    let (_, sparse_sizes) = mmu.stream(&sparse_key).expect("stream exists");
    println!("sparse log (first 4 tokens, variable sizes):");
    for (t, size) in sparse_sizes.iter().take(4).enumerate() {
        println!("  token {t}: {size:#04x} bytes");
    }
    println!();
    for (name, key) in [("dense", dense_key), ("sparse", sparse_key)] {
        let (pages, sizes) = mmu.stream(&key).expect("stream exists");
        let ids: Vec<u32> = pages.iter().map(|p| p.0).collect();
        let bytes: u32 = sizes.iter().sum();
        println!(
            "{name} stream: {bytes} bytes on pages {ids:?}, {} bytes free on the tail page",
            mmu.tail_free(&key)
        );
    }
    println!(
        "allocator: {} of {} pages in use, internal fragmentation {:.1}%",
        mmu.allocator().allocated_pages(),
        mmu.allocator().capacity(),
        100.0 * mmu.internal_fragmentation()
    );

    // Sharing: a second sequence adopts request 7's whole history by
    // reference — every page gains a refcount instead of being copied,
    // exactly how the serving pool adopts a sealed prompt block from its
    // prefix trie.
    let retained = mmu.retain_request(7);
    let first = mmu.stream(&dense_key).expect("stream exists").0[0];
    println!(
        "\na second sharer adopts request 7: {retained} pages retained \
         (page {} now has refcount {})",
        first.0,
        mmu.allocator().refcount(first)
    );
    // Sharers depart in any order; pages free only when the last one goes,
    // and the streams stay readable until then.
    let first = mmu.release_request(7);
    println!(
        "one sharer departs: {first} pages freed, streams still readable: {}",
        mmu.stream(&dense_key).is_some()
    );
    let last = mmu.release_request(7);
    println!(
        "the last sharer departs: {last} pages freed, {} free",
        mmu.allocator().free_pages()
    );
    assert_eq!(mmu.allocator().free_pages(), mmu.allocator().capacity());
    Ok(())
}

//! Property tests for the MMU: allocation safety and page-ownership laws
//! under arbitrary interleaved workloads.

use oaken_mmu::{MmuSim, PageAllocator, StreamClass, StreamKey};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::HashSet;

/// The release laws at one point of a sharing history: each request's
/// pages carry its `live` references (none left, no page and no stream),
/// and the allocated pages are exactly the live requests' pages.
fn check_references(
    mmu: &MmuSim,
    keys: &[Vec<StreamKey>],
    live: &[u32],
) -> Result<(), TestCaseError> {
    let mut held = 0;
    for (r, (keys, &live)) in keys.iter().zip(live).enumerate() {
        let streams: Vec<_> = keys.iter().filter_map(|k| mmu.stream(k)).collect();
        if live == 0 {
            prop_assert!(streams.is_empty(), "request {} kept a stream", r);
            continue;
        }
        prop_assert_eq!(streams.len(), keys.len(), "request {} lost a stream", r);
        for &page in streams.iter().flat_map(|(pages, _)| pages.iter()) {
            prop_assert_eq!(
                mmu.allocator().refcount(page),
                live,
                "request {} {:?}",
                r,
                page
            );
            held += 1;
        }
    }
    let alloc = mmu.allocator();
    prop_assert_eq!(alloc.allocated_pages(), held);
    prop_assert_eq!(
        alloc.free_pages() + alloc.allocated_pages(),
        alloc.capacity()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No page is ever handed out twice while allocated.
    #[test]
    fn allocator_never_double_allocates(ops in prop::collection::vec(any::<bool>(), 1..200)) {
        let mut alloc = PageAllocator::new(32, 4096);
        let mut held = Vec::new();
        let mut seen = HashSet::new();
        for op in ops {
            if op || held.is_empty() {
                if let Ok(p) = alloc.alloc() {
                    prop_assert!(seen.insert(p), "page {p:?} double-allocated");
                    held.push(p);
                }
            } else {
                let p = held.swap_remove(0);
                prop_assert_eq!(alloc.release(p), Ok(true));
                seen.remove(&p);
            }
        }
        prop_assert_eq!(
            alloc.allocated_pages() as usize,
            held.len(),
            "book-keeping must match"
        );
    }

    /// Streams never overlap in physical memory: no page is in two
    /// streams' page lists (nothing here is retained, so every page has
    /// one owner), and every allocated page is in one.
    #[test]
    fn streams_are_physically_disjoint(
        writes in prop::collection::vec((0u32..3, 0u16..3, any::<bool>(), 1u32..200), 1..120),
    ) {
        let mut mmu = MmuSim::new(256, 512);
        let mut keys = HashSet::new();
        for (request, head, dense, bytes) in writes {
            let class = if dense { StreamClass::Dense } else { StreamClass::Sparse };
            let key = StreamKey { request, layer: 0, head, class };
            if mmu.write_token(key, bytes).is_ok() {
                keys.insert(key);
            }
        }
        let mut owner = std::collections::HashMap::new();
        for key in &keys {
            for &page in mmu.stream(key).unwrap().0 {
                prop_assert_eq!(mmu.allocator().refcount(page), 1);
                let other = owner.insert(page, *key);
                prop_assert!(other.is_none(), "{:?} is in {:?} and {:?}", page, key, other);
            }
        }
        prop_assert_eq!(owner.len(), mmu.allocator().allocated_pages() as usize);
    }

    /// A stream's size log is exactly what was written, in order: the
    /// sizes sum to the bytes written, and its pages hold them with the
    /// tail headroom to spare.
    #[test]
    fn stream_sizes_sum_to_the_bytes_written(
        sizes in prop::collection::vec(1u32..300, 1..80),
    ) {
        let mut mmu = MmuSim::new(512, 1024);
        let key = StreamKey { request: 1, layer: 0, head: 0, class: StreamClass::Sparse };
        for s in &sizes {
            mmu.write_token(key, *s).unwrap();
        }
        let total: u64 = sizes.iter().map(|&s| u64::from(s)).sum();
        let (pages, logged) = mmu.stream(&key).unwrap();
        prop_assert_eq!(logged, &sizes[..]);
        prop_assert_eq!(mmu.request_bytes(1), total);
        // Padding never goes negative: the pages cover the payload.
        let room = (pages.len() * 1024 - mmu.tail_free(&key)) as u64;
        prop_assert!(room >= total, "{} bytes in {} pages", total, pages.len());
    }

    /// Fragmentation is always in [0, 1) and a release restores it to zero
    /// for a fully-retired MMU.
    #[test]
    fn fragmentation_bounded_and_recoverable(
        sizes in prop::collection::vec(1u32..512, 1..60),
    ) {
        let mut mmu = MmuSim::new(256, 512);
        let key = StreamKey { request: 3, layer: 1, head: 2, class: StreamClass::Dense };
        for s in sizes {
            let _ = mmu.write_token(key, s);
        }
        let frag = mmu.internal_fragmentation();
        prop_assert!((0.0..1.0).contains(&frag), "{frag}");
        mmu.release_request(3);
        prop_assert_eq!(mmu.internal_fragmentation(), 0.0);
        prop_assert_eq!(mmu.allocator().free_pages(), 256);
    }

    /// A freeze/thaw round trip through the host tier preserves every
    /// stream's semantics for arbitrary multi-stream workloads: same
    /// per-token sizes, same page count, same tail headroom, device and
    /// host occupancy balanced at every point.
    #[test]
    fn swap_roundtrip_preserves_streams(
        writes in prop::collection::vec((0u16..2, 0u16..3, 1u32..400), 1..80),
    ) {
        let mut mmu = MmuSim::new(256, 512);
        mmu.attach_host_tier(256);
        let mut keys = std::collections::HashSet::new();
        for &(layer, head, bytes) in &writes {
            let key = StreamKey { request: 9, layer, head, class: StreamClass::Dense };
            mmu.write_token(key, bytes).unwrap();
            keys.insert(key);
        }
        let pages_before = mmu.request_pages(9);
        let bytes_before = mmu.request_bytes(9);
        let tails_before: Vec<(StreamKey, usize)> =
            keys.iter().map(|k| (*k, mmu.tail_free(k))).collect();
        let sizes_before: Vec<(StreamKey, Vec<u32>)> = keys
            .iter()
            .map(|k| (*k, mmu.stream(k).unwrap().1.to_vec()))
            .collect();

        let out = mmu.swap_out_request(9).unwrap();
        prop_assert_eq!(out.pages, pages_before);
        prop_assert_eq!(out.bytes, bytes_before);
        prop_assert_eq!(mmu.allocator().free_pages(), 256);
        prop_assert_eq!(mmu.host_tier().unwrap().used_pages(), pages_before);

        let back = mmu.swap_in_request(9).unwrap();
        prop_assert_eq!(back.pages, pages_before, "no-CoW replay is exact");
        prop_assert_eq!(back.bytes, bytes_before);
        prop_assert_eq!(mmu.host_tier().unwrap().used_pages(), 0);
        prop_assert_eq!(mmu.request_pages(9), pages_before);
        prop_assert_eq!(mmu.request_bytes(9), bytes_before);
        for (k, tail) in tails_before {
            prop_assert_eq!(mmu.tail_free(&k), tail, "tail headroom of {:?}", k);
        }
        for (k, sizes) in sizes_before {
            prop_assert_eq!(mmu.stream(&k).unwrap().1, &sizes[..], "per-token sizes of {:?}", k);
        }
        mmu.release_request(9);
        prop_assert_eq!(mmu.allocator().free_pages(), 256);
    }

    /// The one release path under random sharing: requests are written,
    /// some retained a random number of times, then every reference is
    /// released in a random order. After each step every page's refcount
    /// is its request's live references; a request's pages and streams go
    /// on its last release (its only one, when never retained), which
    /// returns all its pages while earlier ones return none; and free +
    /// allocated = capacity.
    #[test]
    fn release_request_frees_on_the_last_reference(
        requests in prop::collection::vec((1u32..300, 1usize..8, 0u32..4, any::<bool>()), 1..6),
        order in prop::collection::vec(any::<u64>(), 24),
    ) {
        let mut mmu = MmuSim::new(128, 512);
        let mut keys = Vec::new();
        let mut live = Vec::new();
        for (r, &(bytes, tokens, _, dense)) in requests.iter().enumerate() {
            let class = if dense { StreamClass::Dense } else { StreamClass::Sparse };
            let request: Vec<StreamKey> = (0..2)
                .map(|head| StreamKey { request: r as u32, layer: 0, head, class })
                .collect();
            for key in &request {
                for _ in 0..tokens {
                    mmu.write_token(*key, bytes).unwrap();
                }
            }
            keys.push(request);
            live.push(1);
            check_references(&mmu, &keys, &live)?;
        }
        for (r, &(_, _, retains, _)) in requests.iter().enumerate() {
            for _ in 0..retains {
                let pages = mmu.request_pages(r as u32);
                prop_assert_eq!(mmu.retain_request(r as u32), pages);
                live[r] += 1;
                check_references(&mmu, &keys, &live)?;
            }
        }
        let mut releases: Vec<(u64, usize)> = Vec::new();
        for (r, &n) in live.iter().enumerate() {
            for _ in 0..n {
                releases.push((order[releases.len()], r));
            }
        }
        releases.sort_unstable();
        for (_, r) in releases {
            let pages = mmu.request_pages(r as u32);
            let freed = mmu.release_request(r as u32);
            live[r] -= 1;
            prop_assert_eq!(freed, if live[r] == 0 { pages } else { 0 }, "request {}", r);
            check_references(&mmu, &keys, &live)?;
        }
        prop_assert_eq!(mmu.allocator().free_pages(), 128);
    }
}

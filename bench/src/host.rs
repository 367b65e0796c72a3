//! The host a run was measured on: core count, SIMD lane, build, and a
//! fixed reference loop that shows how fast the machine was going around
//! each repeat.

use std::hint::black_box;
use std::time::Instant;

/// A repeat whose reference loop ran this much slower than the
/// process's best is flagged `noisy`.
pub const NOISY_SHARE: f64 = 0.15;

/// The benchmark's own fixed unit of work (about 25 ms): a dependent
/// integer chain plus a strided walk over a buffer that outgrows L2, so
/// both clock drift and a contended memory system show. Returns seconds.
pub fn reference_loop() -> f64 {
    const WORDS: usize = 1 << 20;
    let mut buf = vec![1u64; WORDS];
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..6_000_000usize {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut buf[(i * 4099) & (WORDS - 1)];
        *slot = slot.wrapping_add(x);
    }
    black_box((x, &buf));
    start.elapsed().as_secs_f64()
}

/// Reference loops timed in a row on each side of a repeat: 75 ms or so,
/// as long as a reduction window of the timed repeats, so that the
/// fastest reference reading of a run and its fastest windows had the
/// same chance of finding the host quiet.
pub const REFERENCE_LOOPS: usize = 3;

/// The most [`reference_secs`] reads on the reference host in a run that
/// found the host quiet at least once (20-25 ms is usual, 27 ms the
/// highest seen).
pub const REFERENCE_NOMINAL_SECS: f64 = 0.027;

/// Mean seconds of [`REFERENCE_LOOPS`] consecutive reference loops.
pub fn reference_secs() -> f64 {
    (0..REFERENCE_LOOPS).map(|_| reference_loop()).sum::<f64>() / REFERENCE_LOOPS as f64
}

/// How much slower than a quiet reference host this host was at its
/// best during a run: the fastest of the run's reference readings over
/// [`REFERENCE_NOMINAL_SECS`], and never below 1. A run that saw the
/// host quiet even once gets 1 and its times stand as measured; a run
/// that sat in a slow phase throughout has its times divided by this.
pub fn host_factor(reference_secs: &[f64]) -> f64 {
    let best = reference_secs.iter().copied().fold(f64::INFINITY, f64::min);
    if best.is_finite() {
        (best / REFERENCE_NOMINAL_SECS).max(1.0)
    } else {
        1.0
    }
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1000.0)
}

/// The widest lane the fused attention kernels will take on this CPU
/// with this build's features (the selection `oaken-model` makes).
pub fn simd_lane() -> &'static str {
    if !cfg!(feature = "simd") {
        return "scalar";
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            "avx512"
        } else {
            "sse2"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

/// The revision being measured: `GIT_REV` from the environment, else the
/// checkout's `.git/HEAD`, else `unknown` (the driver's checkout is not a
/// git repository).
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("GIT_REV") {
        return rev;
    }
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or(head.clone(), |s| s.trim().to_owned()),
        None => head,
    }
}

/// One line of host facts, as a JSON object.
pub fn record_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let features = if cfg!(feature = "simd") { "simd" } else { "" };
    format!(
        "{{\"nproc\": {nproc}, \"simd_lane\": \"{}\", \"profile\": \"{profile}\", \"features\": \"{features}\", \"git_rev\": {}}}",
        simd_lane(),
        crate::json::quote(&git_rev())
    )
}

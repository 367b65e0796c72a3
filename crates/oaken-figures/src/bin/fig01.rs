//! Figure 1: the bandwidth–capacity trade-off space of LLM serving
//! solutions, with modelled throughput where the system model covers the
//! platform.

use oaken_accel::tradeoff_space;
use oaken_figures::{banner, f, row};

fn main() {
    banner(
        "Figure 1",
        "effective bandwidth vs effective capacity (Llama2-13B, batch 256, 1K:1K)",
    );
    row(
        &[
            &"solution",
            &"category",
            &"eff-BW (TB/s)",
            &"eff-cap (GB)",
            &"tokens/s",
        ],
        &[12, 12, 14, 13, 10],
    );
    let mut points = tradeoff_space();
    points.sort_by(|a, b| {
        b.throughput
            .unwrap_or(0.0)
            .partial_cmp(&a.throughput.unwrap_or(0.0))
            .unwrap()
    });
    for p in &points {
        let tp = p.throughput.map_or_else(|| "-".to_owned(), |t| f(t, 0));
        row(
            &[
                &p.name,
                &p.category,
                &f(p.eff_bandwidth_tbps, 2),
                &f(p.eff_capacity_gb, 0),
                &tp,
            ],
            &[12, 12, 14, 13, 10],
        );
    }
    println!();
    println!("Expected shape: Oaken occupies the upper-right frontier (both");
    println!("effective bandwidth and capacity multiplied by 16/4.8), with the");
    println!("highest modelled throughput; PIM points are bandwidth-rich but");
    println!("capacity-poor; the A100 sits at raw HBM coordinates.");
}

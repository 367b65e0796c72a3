//! Table 4: area of the Oaken compute-core components on TSMC 28 nm, plus
//! the §6.2 power comparison against the A100's TDP.

use oaken_accel::{AreaModel, PowerModel};
use oaken_figures::{banner, f, row};

fn main() {
    banner("Table 4", "area overhead of the Oaken modules (TSMC 28nm)");
    let model = AreaModel::tsmc28();
    row(&[&"module", &"area (mm^2)", &"ratio (%)"], &[26, 12, 10]);
    for c in model.table4() {
        row(
            &[&c.module, &f(c.area_mm2, 3), &f(c.ratio_percent, 2)],
            &[26, 12, 10],
        );
    }
    println!(
        "\nOaken module overhead (quant + dequant engines): {:.2}% of core",
        model.oaken_overhead_percent()
    );
    println!("(paper: 1.86% + 6.35% = 8.21%)");

    let power = PowerModel::oaken_lpddr().total_w(256, model.core_mm2());
    println!("\nAccelerator power (256 cores + LPDDR): {power:.1} W");
    println!("(paper: 222.7 W, 44.3% below the A100's 400 W TDP)");
    println!(
        "Reduction vs A100 TDP: {:.1}%",
        100.0 * (1.0 - power / 400.0)
    );
}

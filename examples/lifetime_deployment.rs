//! Multi-year lifetime deployment: aging silicon, drifting DRAM, and
//! the maintenance discipline that keeps exploited guardbands safe.
//!
//! A 12-board fleet is cold-characterized and deployed below its
//! guardband, then aged through 48 simulated months of datacenter
//! stress. Every month the drift monitor projects each board's
//! remaining margin and CE pressure; the maintenance scheduler
//! re-characterizes the most urgent boards (warm-started from their
//! previous epoch, under a concurrency budget) before any board's
//! modeled margin reaches zero. The same fleet is then re-aged with
//! maintenance ablated, demonstrating the SDC exposure that accumulates
//! when nobody watches the drift.
//!
//! ```sh
//! cargo run --example lifetime_deployment
//! ```

use armv8_guardbands::lifetime::{run_deployment, DeploymentSpec};

fn main() {
    let spec = DeploymentSpec::quick(12, 2018, 48);

    let maintained = run_deployment(&spec, 4);
    println!("{}", maintained.render());

    let ablation = run_deployment(&spec.clone().without_maintenance(), 4);
    println!("{}", ablation.render());

    // The headline: the scheduler re-characterizes every drifting board
    // before its margin runs out — zero SDC exposure over four years —
    // while the ablated fleet operates below its aged Vmin for months.
    assert_eq!(
        maintained.chronicle.production_sdc_board_months, 0,
        "maintenance must keep every board above its aged Vmin"
    );
    assert!(
        ablation.chronicle.production_sdc_board_months > 0,
        "the ablation must show why maintenance exists"
    );
    assert!(maintained.chronicle.recharacterizations > 0);
    // Warm starts do the re-characterizations at a fraction of the cold
    // walk, and the fleet keeps most of its power savings across epochs.
    assert!(
        maintained.chronicle.warm_walked_steps * 2 <= maintained.chronicle.cold_equivalent_steps,
        "warm-started walks must cost at most half the cold walks"
    );
    assert!(maintained.chronicle.final_savings_watts() > 0.0);

    // And the whole four-year chronicle is byte-reproducible regardless
    // of how many workers play it.
    let serial = run_deployment(&spec, 1);
    assert_eq!(
        serial.chronicle_json(),
        maintained.chronicle_json(),
        "serial and pooled lifetime chronicles must be byte-identical"
    );
    println!("serial re-run produced byte-identical lifetime chronicle ✔");
}

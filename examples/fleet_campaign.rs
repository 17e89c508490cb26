//! Fleet-scale characterization: shard the paper's campaign across a
//! simulated datacenter of X-Gene2 boards.
//!
//! A 24-board fleet is sampled from the process-corner mix, characterized
//! by a 4-worker pool through the resilient `char-fw` runner, and merged
//! into one safe-point database with population statistics and a
//! fleet-wide power projection. Boards whose safety net trips (the DMR
//! sentinels catching real sub-Vmin corruption) are evicted back to
//! nominal and re-queued once with a raised search floor — watch the
//! `fleet_board_evicted` warnings on stderr.
//!
//! The run finishes by re-running the same fleet serially and asserting
//! the headline invariant: the characterization output is byte-identical
//! to the pooled run's.
//!
//! ```sh
//! cargo run --example fleet_campaign
//! ```

use std::rc::Rc;

use armv8_guardbands::fleet::{run_fleet, FleetCampaign, FleetConfig, FleetSpec};
use armv8_guardbands::telemetry::sink::PrettySink;
use armv8_guardbands::telemetry::{Level, Registry, Telemetry};

fn main() {
    let spec = FleetSpec::new(24, 2018);
    let campaign = FleetCampaign::quick();

    // Coordinator-side telemetry: eviction warnings on stderr, fleet
    // counters and the margin histogram in the registry. (Each job keeps
    // its own per-thread registry; the campaign counters come back merged
    // in the report.)
    let registry = Rc::new(Registry::new());
    let pooled = {
        let _telemetry = Telemetry::new()
            .with_sink(PrettySink::stderr().with_min_level(Level::Warn))
            .with_registry(registry.clone())
            .install();
        run_fleet(&spec, &campaign, &FleetConfig::with_workers(4))
    };
    println!("{}", pooled.render());

    println!("fleet metrics:");
    for name in [
        "fleet_jobs_total",
        "fleet_requeues_total",
        "fleet_boards_characterized",
    ] {
        println!("  {name} = {}", registry.counter(name));
    }
    if let Some(margins) = registry.histogram("fleet_margin_mv") {
        println!(
            "  fleet_margin_mv: count {}, p50 {:.0} mV, p95 {:.0} mV",
            margins.count(),
            margins.p50().unwrap_or(0.0),
            margins.p95().unwrap_or(0.0),
        );
    }

    // The invariant the whole crate is built around.
    let serial = run_fleet(&spec, &campaign, &FleetConfig::with_workers(1));
    assert_eq!(
        serial.characterization_json(),
        pooled.characterization_json(),
        "serial and pooled characterization must be byte-identical"
    );
    println!("\nserial re-run produced byte-identical characterization output ✔");
}

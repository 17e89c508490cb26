//! Fleet observatory tour: replay the red-team attack and the aging
//! ablation under full observation, then walk the merged timeline, the
//! reconstructed incidents, the early warnings, and the Chrome trace
//! export.
//!
//! ```text
//! cargo run --release --example observatory_tour
//! ```

use armv8_guardbands::fleet::population::FleetSpec;
use armv8_guardbands::lifetime::deployment::{
    run_deployment, DeploymentSpec, LIFETIME_MARGIN_METRIC,
};
use armv8_guardbands::observatory::IncidentKind;
use armv8_guardbands::redteam::{replay_observatory, AttackScenario, REDTEAM_DROOP_METRIC};
use armv8_guardbands::workload_sim::tenant::benign_neighbor;
use armv8_guardbands::xgene_sim::workload::WorkloadProfile;

fn main() {
    // --- Scenario 1: a crafted dI/dt virus against the hardened net.
    // The attack stays dormant for 8 epochs, then couples its droop
    // into every victim on the shared PDN.
    let fleet = FleetSpec::new(6, 2018);
    let scenario = AttackScenario::hardened(40).with_onset(8);
    let virus = WorkloadProfile::builder("tour-virus")
        .activity(1.0)
        .swing(1.0)
        .resonance_alignment(0.9)
        .build();

    println!("== red-team attack under observation ==\n");
    let (reports, observatory) = replay_observatory(&fleet, Some(&virus), &scenario, 4);
    print!("{}", observatory.render());

    println!("\nearly warnings vs the net's own detection:");
    for report in &reports {
        let Some(warning) = observatory.first_warning(report.board, REDTEAM_DROOP_METRIC) else {
            continue;
        };
        println!(
            "  board {}: droop spike warned at epoch {:>2} (z={:>5.1}); net detected at {:?}, quarantined {}",
            report.board, warning.epoch, warning.zscore, report.detection_epoch, report.attacker_quarantined
        );
    }

    // The merged timeline is byte-identical for any worker count and
    // exports straight into chrome://tracing / Perfetto.
    let trace = observatory.timeline.to_chrome_trace();
    println!(
        "\ntimeline: {} causally ordered events, {} bytes of Chrome trace JSON",
        observatory.timeline.len(),
        trace.len()
    );

    // Control arm: a benign off-resonance neighbor raises nothing.
    let (_, benign) = replay_observatory(&fleet, Some(&benign_neighbor()), &scenario, 4);
    println!(
        "benign-neighbor control arm: {} incidents, {} warnings, {} alerts",
        benign.incidents.len(),
        benign.warnings.len(),
        benign.alerts.len()
    );

    // --- Scenario 2: the aging ablation. With maintenance disabled,
    // silicon margins decay until production SDCs appear; the
    // margin-drift detector sees them coming months ahead.
    println!("\n== aging ablation under observation ==\n");
    let spec = DeploymentSpec::quick(12, 2018, 48).without_maintenance();
    let deployment = run_deployment(&spec, 4);
    print!("{}", deployment.observatory.render());

    println!("\nmargin-drift warnings vs first SDC exposure:");
    let mut exposed: Vec<u32> = deployment
        .observatory
        .incidents_of(IncidentKind::ProductionSdc)
        .map(|i| i.board)
        .collect();
    exposed.sort_unstable();
    exposed.dedup();
    for board in exposed {
        let warning = deployment
            .observatory
            .first_warning(board, LIFETIME_MARGIN_METRIC)
            .expect("every exposed board warned first");
        let first_sdc = deployment
            .observatory
            .incidents_of(IncidentKind::ProductionSdc)
            .filter(|i| i.board == board)
            .map(|i| i.trigger_epoch)
            .min()
            .expect("board has an exposure");
        println!(
            "  board {board}: drift warned at month {:>2}, first SDC at month {:>2} ({} months of lead)",
            warning.epoch,
            first_sdc,
            first_sdc.saturating_sub(warning.epoch)
        );
    }
}

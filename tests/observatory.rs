//! End-to-end fleet observatory: the red-team attack and the lifetime
//! aging ablation, replayed under full observation.
//!
//! Two seeded scenarios anchor the observatory's claims. On the
//! red-team scenario (the PR 6 fleet, hardened net, crafted virus with
//! a delayed onset) the observatory reconstructs every attacker
//! quarantine as an incident with the right board and epoch, the droop
//! spike detector warns at the attack's first epoch — ahead of the
//! net's own quarantine — and a benign-neighbor control arm raises
//! zero warnings. On the aging scenario (the PR 5 lifetime ablation)
//! every production-SDC board-month becomes an incident and the
//! margin-drift detector warns months before the first exposure. Both
//! observatory reports are byte-identical across 1/2/4/8 workers.

use armv8_guardbands::fleet::population::FleetSpec;
use armv8_guardbands::lifetime::deployment::{
    run_deployment, DeploymentSpec, LIFETIME_MARGIN_METRIC,
};
use armv8_guardbands::observatory::{
    reconstruct, FleetTimeline, Incident, IncidentKind, SloAlert, SloMonitor, SloSpec,
    StreamBuilder,
};
use armv8_guardbands::redteam::{replay_observatory, AttackScenario, REDTEAM_DROOP_METRIC};
use armv8_guardbands::telemetry::Level;
use armv8_guardbands::workload_sim::tenant::benign_neighbor;
use armv8_guardbands::xgene_sim::workload::WorkloadProfile;
use proptest::prelude::*;

fn crafted_virus() -> WorkloadProfile {
    WorkloadProfile::builder("e2e-virus")
        .activity(1.0)
        .swing(1.0)
        .resonance_alignment(0.9)
        .build()
}

/// The red-team scenario under observation: quarantines become
/// incidents with the right board and epoch, the spike detector leads
/// the net by at least one epoch, and the report is pool-independent.
#[test]
fn the_observatory_reconstructs_the_redteam_attack_with_early_warning() {
    let fleet = FleetSpec::new(6, 2018);
    let scenario = AttackScenario::hardened(40).with_onset(8);
    let virus = crafted_virus();

    let (reports, observatory) = replay_observatory(&fleet, Some(&virus), &scenario, 4);
    for workers in [1usize, 2, 8] {
        let (_, other) = replay_observatory(&fleet, Some(&virus), &scenario, workers);
        assert_eq!(
            observatory.chronicle_json(),
            other.chronicle_json(),
            "observatory differs at {workers} workers"
        );
    }

    let quarantined: Vec<_> = reports.iter().filter(|r| r.attacker_quarantined).collect();
    assert!(
        !quarantined.is_empty(),
        "the crafted virus must provoke at least one quarantine"
    );
    let incidents: Vec<&Incident> = observatory
        .incidents_of(IncidentKind::AttackerQuarantine)
        .collect();
    assert_eq!(
        incidents.len(),
        quarantined.len(),
        "one incident per quarantine"
    );
    for report in &quarantined {
        let incident = incidents
            .iter()
            .find(|i| i.board == report.board)
            .unwrap_or_else(|| panic!("board {} quarantine missing", report.board));
        // The trigger event the incident points at is the net's own
        // quarantine event, stamped with the detection epoch.
        let trigger = observatory
            .timeline
            .events()
            .iter()
            .find(|te| {
                te.key.board == incident.board
                    && te.key.seq == incident.trigger_seq
                    && te.event.name == "attacker_quarantined"
            })
            .expect("trigger event present in the merged timeline");
        let stamped_epoch = trigger
            .event
            .fields
            .iter()
            .find_map(|(k, v)| match v {
                armv8_guardbands::telemetry::event::FieldValue::U64(e) if k == "epoch" => Some(*e),
                _ => None,
            })
            .expect("quarantine events carry their epoch");
        // The quarantine is never earlier than the net's first
        // detection event (which may be an earlier breaker
        // attribution), and always after the attack's onset.
        let first_detection = report
            .detection_epoch
            .expect("quarantine implies detection");
        assert!(
            stamped_epoch >= first_detection,
            "board {}: quarantine at epoch {stamped_epoch} precedes detection at {first_detection}",
            report.board
        );
        assert!(
            stamped_epoch > u64::from(scenario.onset_epoch),
            "board {}: quarantine at epoch {stamped_epoch} precedes the onset",
            report.board
        );
        // The attack turned on at onset; the incident's latency is
        // measured from there.
        assert_eq!(
            incident.detection_latency_epochs,
            Some(stamped_epoch - u64::from(scenario.onset_epoch)),
            "board {} latency",
            report.board
        );
        // Early warning: the droop spike fires at the attack's edge,
        // at least one epoch before the net quarantines.
        let warning = observatory
            .first_warning(report.board, REDTEAM_DROOP_METRIC)
            .unwrap_or_else(|| panic!("board {} raised no droop warning", report.board));
        assert!(
            warning.epoch < stamped_epoch,
            "board {}: warning at epoch {} does not lead detection at {}",
            report.board,
            warning.epoch,
            stamped_epoch
        );
    }

    // Control arm: a benign off-resonance neighbor provokes neither
    // quarantines nor a single spike warning — zero false alarms.
    let (benign_reports, benign_obs) =
        replay_observatory(&fleet, Some(&benign_neighbor()), &scenario, 4);
    assert!(benign_reports.iter().all(|r| !r.attacker_quarantined));
    assert!(
        benign_obs
            .incidents_of(IncidentKind::AttackerQuarantine)
            .next()
            .is_none(),
        "no quarantine incidents on the benign arm"
    );
    assert!(
        benign_obs.warnings.is_empty(),
        "benign arm raised false alarms: {:?}",
        benign_obs.warnings
    );
    assert!(
        benign_obs.alerts.is_empty(),
        "benign arm burned an SLO: {:?}",
        benign_obs.alerts
    );
}

/// The lifetime aging ablation under observation: every SDC
/// board-month is reconstructed as an incident, and the margin-drift
/// detector warns months before the first exposure.
#[test]
fn the_observatory_sees_the_aging_ablation_coming() {
    let spec = DeploymentSpec::quick(12, 2018, 48).without_maintenance();
    let report = run_deployment(&spec, 4);
    for workers in [1usize, 2, 8] {
        let other = run_deployment(&spec, workers);
        assert_eq!(
            report.observatory_json(),
            other.observatory_json(),
            "observatory differs at {workers} workers"
        );
    }

    let c = &report.chronicle;
    assert!(
        c.production_sdc_board_months > 0,
        "the ablation must expose SDCs for this scenario to mean anything"
    );
    let incidents: Vec<&Incident> = report
        .observatory
        .incidents_of(IncidentKind::ProductionSdc)
        .collect();
    assert_eq!(
        incidents.len() as u64,
        c.production_sdc_board_months,
        "one incident per SDC board-month"
    );
    // Each incident matches the chronicle's ledger: board listed as an
    // SDC exposure in exactly that month.
    for incident in &incidents {
        let month = c
            .months_log
            .iter()
            .find(|m| u64::from(m.month) == incident.trigger_epoch)
            .expect("incident month in the ledger");
        assert!(
            month.sdc_boards.contains(&incident.board),
            "board {} not in month {}'s SDC ledger",
            incident.board,
            month.month
        );
    }
    // Early warning: for every exposed board, the margin-drift
    // detector warned at least one month before the first exposure.
    let first_sdc_month = |board: u32| {
        c.months_log
            .iter()
            .find(|m| m.sdc_boards.contains(&board))
            .map(|m| u64::from(m.month))
            .expect("board has an exposure month")
    };
    let mut exposed: Vec<u32> = incidents.iter().map(|i| i.board).collect();
    exposed.sort_unstable();
    exposed.dedup();
    for board in exposed {
        let warning = report
            .observatory
            .first_warning(board, LIFETIME_MARGIN_METRIC)
            .unwrap_or_else(|| panic!("board {board} decayed without a warning"));
        let sdc_month = first_sdc_month(board);
        assert!(
            warning.epoch < sdc_month,
            "board {board}: warning at month {} does not lead the SDC at month {sdc_month}",
            warning.epoch
        );
    }
}

/// Incident and SLO-alert values survive a JSONL round trip intact.
#[test]
fn incidents_and_alerts_round_trip_through_jsonl() {
    let mut stream = StreamBuilder::synthetic(3, 7);
    for epoch in 1..=4u64 {
        stream.push(
            Level::Debug,
            "attack_epoch",
            vec![
                ("epoch".into(), epoch.into()),
                ("attack_active".into(), (epoch >= 2).into()),
            ],
        );
    }
    stream.push(
        Level::Warn,
        "attacker_quarantined",
        vec![("epoch".into(), 4u64.into())],
    );
    let timeline = FleetTimeline::merge(&[stream.finish()]);
    let incidents = reconstruct(&timeline, &[]);
    assert!(!incidents.is_empty());

    let mut monitor = SloMonitor::new(SloSpec::zero_escapes("no-escapes"));
    let alert = monitor
        .observe(5, Some(7), 2.0)
        .expect("an escape pages immediately");

    let mut jsonl = String::new();
    for incident in &incidents {
        jsonl.push_str(&serde::json::to_string(incident));
        jsonl.push('\n');
    }
    jsonl.push_str(&serde::json::to_string(&alert));
    jsonl.push('\n');

    let mut lines = jsonl.lines();
    for incident in &incidents {
        let back: Incident = serde::json::from_str(lines.next().unwrap()).expect("incident line");
        assert_eq!(&back, incident);
    }
    let back: SloAlert = serde::json::from_str(lines.next().unwrap()).expect("alert line");
    assert_eq!(back, alert);
    assert!(lines.next().is_none());
}

proptest! {
    /// Merging is permutation-invariant: any rotation or reversal of
    /// the same stream set produces a byte-identical timeline.
    #[test]
    fn merged_timelines_are_permutation_invariant(
        shapes in proptest::collection::vec((0u64..3, 0u32..3, 0usize..4), 1..6),
        rotate in 0usize..6,
    ) {
        let streams: Vec<_> = shapes
            .iter()
            .map(|&(epoch, board, events)| {
                let mut builder = StreamBuilder::synthetic(epoch, board);
                for i in 0..events {
                    builder.push(
                        Level::Info,
                        if i % 2 == 0 { "tick" } else { "tock" },
                        vec![("i".into(), (i as u64).into())],
                    );
                }
                builder.finish()
            })
            .collect();
        let baseline = FleetTimeline::merge(&streams).chronicle_json();

        let mut rotated = streams.clone();
        rotated.rotate_left(rotate % streams.len().max(1));
        prop_assert_eq!(&baseline, &FleetTimeline::merge(&rotated).chronicle_json());

        let mut reversed = streams;
        reversed.reverse();
        prop_assert_eq!(&baseline, &FleetTimeline::merge(&reversed).chronicle_json());
    }
}

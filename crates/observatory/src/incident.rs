//! Incident postmortems reconstructed from the merged timeline plus
//! flight-recorder dumps.
//!
//! The reconstructor walks the fleet timeline once, promotes every
//! trigger-class event (breaker trip, quarantine, attacker
//! quarantine, board eviction, production SDC) to a structured
//! [`Incident`], then enriches each incident with the causally
//! preceding evidence on the same board, the matching
//! [`FlightDump`], the detection latency when
//! the trigger carries one, and the resolution visible later in the
//! timeline. The output replaces hand-reading flight-recorder dumps
//! after a failed campaign.

use crate::stream::CausalKey;
use crate::timeline::{FleetTimeline, TimelineEvent};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use telemetry::{FieldValue, FlightDump};

/// Taxonomy of reconstructable incidents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IncidentKind {
    /// A circuit breaker opened (a campaign breaker trip or a DRAM
    /// refresh rollback forced by the breaker).
    BreakerTrip,
    /// A characterization setup was quarantined after repeated
    /// watchdog resets.
    SetupQuarantine,
    /// The safety net attributed a droop to a co-tenant and evicted
    /// the attacker.
    AttackerQuarantine,
    /// The fleet coordinator evicted a board from further walking and
    /// requeued it with a raised floor.
    BoardEviction,
    /// Silent data corruption escaped into production (the lifetime
    /// harness's worst case).
    ProductionSdc,
    /// The orchestration layer itself was disrupted — a coordinator
    /// kill, a worker death mid-job, or a duplicated queue delivery
    /// (the chaos harness's injected faults).
    ChaosDisruption,
    /// Serialized fleet state failed integrity verification: a torn or
    /// bit-flipped checkpoint was rejected, or journal replay found a
    /// damaged tail.
    CheckpointCorruption,
    /// The economic dispatcher let a request blow its latency deadline
    /// on some board (a queue backed up past the QoS budget).
    QosViolation,
    /// The dispatcher drained a board's traffic ahead of a maintenance
    /// window or around a failure, re-routing its load to the rest of
    /// the fleet.
    TrafficDrain,
}

impl IncidentKind {
    /// Human label used in rendered timelines.
    pub fn label(self) -> &'static str {
        match self {
            IncidentKind::BreakerTrip => "breaker-trip",
            IncidentKind::SetupQuarantine => "setup-quarantine",
            IncidentKind::AttackerQuarantine => "attacker-quarantine",
            IncidentKind::BoardEviction => "board-eviction",
            IncidentKind::ProductionSdc => "production-sdc",
            IncidentKind::ChaosDisruption => "chaos-disruption",
            IncidentKind::CheckpointCorruption => "checkpoint-corruption",
            IncidentKind::QosViolation => "qos-violation",
            IncidentKind::TrafficDrain => "traffic-drain",
        }
    }

    fn of_event_name(name: &str) -> Option<Self> {
        match name {
            "campaign_breaker_trip" | "refresh_rollback" => Some(IncidentKind::BreakerTrip),
            "quarantine" => Some(IncidentKind::SetupQuarantine),
            "attacker_quarantined" => Some(IncidentKind::AttackerQuarantine),
            "fleet_board_evicted" => Some(IncidentKind::BoardEviction),
            "production_sdc" => Some(IncidentKind::ProductionSdc),
            "chaos_coordinator_killed" | "chaos_worker_died" | "chaos_duplicate_delivery" => {
                Some(IncidentKind::ChaosDisruption)
            }
            "chaos_corrupt_checkpoint" | "chaos_journal_damage" => {
                Some(IncidentKind::CheckpointCorruption)
            }
            "dispatch_qos_violation" => Some(IncidentKind::QosViolation),
            "dispatch_drain" => Some(IncidentKind::TrafficDrain),
            _ => None,
        }
    }
}

/// How an incident ended, as far as the timeline shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Resolution {
    /// The board was requeued with a raised floor and retried.
    Requeued,
    /// The setup was abandoned for the rest of the campaign.
    SetupAbandoned,
    /// The attacking co-tenant was evicted; the victim kept running.
    AttackerEvicted,
    /// The rolled-back refresh interval was later restored.
    Restored,
    /// The disrupted campaign recovered: a later `fleet_recovered`
    /// event shows the restarted coordinator resumed from its journal.
    Recovered,
    /// No resolution event appears in the timeline.
    Unresolved,
}

impl Resolution {
    /// Human label used in rendered timelines.
    pub fn label(self) -> &'static str {
        match self {
            Resolution::Requeued => "requeued",
            Resolution::SetupAbandoned => "setup-abandoned",
            Resolution::AttackerEvicted => "attacker-evicted",
            Resolution::Restored => "restored",
            Resolution::Recovered => "recovered",
            Resolution::Unresolved => "unresolved",
        }
    }
}

/// One reconstructed incident.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Incident {
    /// What happened.
    pub kind: IncidentKind,
    /// The board it happened on.
    pub board: u32,
    /// The epoch of the trigger event.
    pub trigger_epoch: u64,
    /// The sequence number of the trigger event (with
    /// `trigger_epoch`/`board`, the trigger's full causal key).
    pub trigger_seq: u64,
    /// Epochs between the condition arising and its detection, when
    /// the trigger carries enough information to compute it.
    pub detection_latency_epochs: Option<u64>,
    /// Rendered evidence lines: the causally preceding events on the
    /// same board and any matching flight dump.
    pub evidence: Vec<String>,
    /// How it ended.
    pub resolution: Resolution,
}

/// Event names that count as evidence when they precede a trigger on
/// the same board.
const EVIDENCE_NAMES: [&str; 10] = [
    "attack_epoch",
    "crash_retry",
    "watchdog_reset",
    "sentinel_cadence_tightened",
    "board_health",
    "campaign_breaker_trip",
    "refresh_rollback",
    "chaos_worker_died",
    "chaos_journal_damage",
    "dispatch_drain",
];

/// Most recent evidence lines attached per incident.
const MAX_EVIDENCE_LINES: usize = 3;

/// Reconstructs every incident in the timeline, in causal order.
///
/// `dumps` pairs each [`FlightDump`] with the causal key of its
/// trigger event; a dump is attached to the incident whose trigger
/// has the same key.
pub fn reconstruct(timeline: &FleetTimeline, dumps: &[(CausalKey, FlightDump)]) -> Vec<Incident> {
    let events = timeline.events();
    let mut incidents = Vec::new();
    for (index, te) in events.iter().enumerate() {
        let Some(kind) = IncidentKind::of_event_name(&te.event.name) else {
            continue;
        };
        let mut evidence = collect_evidence(events, index, te.key.board);
        for (key, dump) in dumps {
            if *key == te.key {
                evidence.push(format!(
                    "flight dump `{}`: {} events retained up to the trigger",
                    dump.trigger_name,
                    dump.events.len()
                ));
            }
        }
        incidents.push(Incident {
            kind,
            board: te.key.board,
            trigger_epoch: te.key.epoch,
            trigger_seq: te.key.seq,
            detection_latency_epochs: detection_latency(kind, events, index),
            evidence,
            resolution: resolution(kind, events, index),
        });
    }
    incidents
}

fn field_u64(te: &TimelineEvent, name: &str) -> Option<u64> {
    te.event.fields.iter().find_map(|(k, v)| {
        if k != name {
            return None;
        }
        match v {
            FieldValue::U64(u) => Some(*u),
            FieldValue::I64(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    })
}

fn field_bool(te: &TimelineEvent, name: &str) -> Option<bool> {
    te.event.fields.iter().find_map(|(k, v)| match v {
        FieldValue::Bool(b) if k == name => Some(*b),
        _ => None,
    })
}

/// Walks backward from the trigger collecting the most recent
/// evidence-class events on the same board, returned in causal order.
fn collect_evidence(events: &[TimelineEvent], index: usize, board: u32) -> Vec<String> {
    let mut lines = Vec::new();
    for te in events[..index].iter().rev() {
        if te.key.board != board {
            continue;
        }
        if !EVIDENCE_NAMES.contains(&&*te.event.name) {
            continue;
        }
        let mut line = format!(
            "epoch {:>4} seq {:>3}: {}",
            te.key.epoch,
            te.key.seq.min(999),
            te.event.name
        );
        for (name, value) in &te.event.fields {
            let _ = write!(line, " {name}={value}");
        }
        lines.push(line);
        if lines.len() == MAX_EVIDENCE_LINES {
            break;
        }
    }
    lines.reverse();
    lines
}

fn detection_latency(kind: IncidentKind, events: &[TimelineEvent], index: usize) -> Option<u64> {
    let te = &events[index];
    match kind {
        IncidentKind::AttackerQuarantine => {
            // The net stamps the quarantine with the epoch it acted at;
            // the attack's onset is the first `attack_epoch` evidence
            // event on this board with `attack_active` set.
            let detected_at = field_u64(te, "epoch")?;
            let onset = events[..index]
                .iter()
                .filter(|e| e.key.board == te.key.board && e.event.name == "attack_epoch")
                .find(|e| field_bool(e, "attack_active") == Some(true))
                .and_then(|e| field_u64(e, "epoch"))?;
            Some(detected_at.saturating_sub(onset) + 1)
        }
        IncidentKind::ProductionSdc => field_u64(te, "months_since"),
        _ => None,
    }
}

fn resolution(kind: IncidentKind, events: &[TimelineEvent], index: usize) -> Resolution {
    let te = &events[index];
    match kind {
        IncidentKind::AttackerQuarantine => Resolution::AttackerEvicted,
        IncidentKind::SetupQuarantine => Resolution::SetupAbandoned,
        IncidentKind::BoardEviction => Resolution::Requeued,
        IncidentKind::BreakerTrip => {
            let restored = events[index + 1..].iter().any(|later| {
                later.key.board == te.key.board && later.event.name == "refresh_restore"
            });
            if restored {
                Resolution::Restored
            } else {
                Resolution::Unresolved
            }
        }
        IncidentKind::ProductionSdc => Resolution::Unresolved,
        IncidentKind::QosViolation => {
            let recovered = events[index + 1..].iter().any(|later| {
                later.key.board == te.key.board && later.event.name == "dispatch_qos_recovered"
            });
            if recovered {
                Resolution::Recovered
            } else {
                Resolution::Unresolved
            }
        }
        IncidentKind::TrafficDrain => {
            let resumed = events[index + 1..].iter().any(|later| {
                later.key.board == te.key.board && later.event.name == "dispatch_resumed"
            });
            if resumed {
                Resolution::Recovered
            } else {
                Resolution::Unresolved
            }
        }
        IncidentKind::ChaosDisruption | IncidentKind::CheckpointCorruption => {
            let recovered = events[index + 1..].iter().any(|later| {
                later.key.board == te.key.board && later.event.name == "fleet_recovered"
            });
            if recovered {
                Resolution::Recovered
            } else {
                Resolution::Unresolved
            }
        }
    }
}

/// Renders incidents as a human postmortem timeline.
pub fn render_incidents(incidents: &[Incident]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== fleet incident timeline: {} incident{} ==",
        incidents.len(),
        if incidents.len() == 1 { "" } else { "s" }
    );
    for incident in incidents {
        let latency = match incident.detection_latency_epochs {
            Some(epochs) => format!("  detected in {epochs} epoch{}", plural(epochs)),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "[epoch {:>4} | board {:>3}] {:<19}{}  resolution: {}",
            incident.trigger_epoch,
            incident.board,
            incident.kind.label(),
            latency,
            incident.resolution.label()
        );
        for line in &incident.evidence {
            let _ = writeln!(out, "    · {line}");
        }
    }
    out
}

fn plural(n: u64) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamBuilder;
    use telemetry::Level;

    fn attack_timeline() -> FleetTimeline {
        let mut stream = StreamBuilder::synthetic(0, 2);
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
        FleetTimeline::merge(&[stream.finish()])
    }

    #[test]
    fn an_attacker_quarantine_gets_kind_latency_and_evidence() {
        let incidents = reconstruct(&attack_timeline(), &[]);
        assert_eq!(incidents.len(), 1);
        let incident = &incidents[0];
        assert_eq!(incident.kind, IncidentKind::AttackerQuarantine);
        assert_eq!(incident.board, 2);
        // Attack active from epoch 2, detected at epoch 4: 3 epochs.
        assert_eq!(incident.detection_latency_epochs, Some(3));
        assert_eq!(incident.resolution, Resolution::AttackerEvicted);
        assert!(incident.evidence.iter().all(|l| l.contains("attack_epoch")));
        assert_eq!(incident.evidence.len(), MAX_EVIDENCE_LINES);
    }

    #[test]
    fn a_rolled_back_refresh_resolves_as_restored() {
        let mut stream = StreamBuilder::synthetic(7, 0);
        stream.push(Level::Warn, "refresh_rollback", vec![]);
        stream.push(Level::Info, "refresh_restore", vec![]);
        let timeline = FleetTimeline::merge(&[stream.finish()]);
        let incidents = reconstruct(&timeline, &[]);
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].kind, IncidentKind::BreakerTrip);
        assert_eq!(incidents[0].resolution, Resolution::Restored);
    }

    #[test]
    fn a_recovered_chaos_disruption_resolves_as_recovered() {
        let mut stream = StreamBuilder::synthetic(3, 0);
        stream.push(
            Level::Warn,
            "chaos_worker_died",
            vec![("worker".into(), 1u64.into())],
        );
        stream.push(Level::Warn, "chaos_coordinator_killed", vec![]);
        stream.push(Level::Warn, "chaos_corrupt_checkpoint", vec![]);
        stream.push(Level::Info, "fleet_recovered", vec![]);
        let timeline = FleetTimeline::merge(&[stream.finish()]);
        let incidents = reconstruct(&timeline, &[]);
        assert_eq!(incidents.len(), 3);
        assert_eq!(incidents[0].kind, IncidentKind::ChaosDisruption);
        assert_eq!(incidents[1].kind, IncidentKind::ChaosDisruption);
        assert_eq!(incidents[2].kind, IncidentKind::CheckpointCorruption);
        for incident in &incidents {
            assert_eq!(incident.resolution, Resolution::Recovered);
        }
        // The earlier worker death is evidence for the later kill.
        assert!(incidents[1]
            .evidence
            .iter()
            .any(|l| l.contains("chaos_worker_died")));
    }

    #[test]
    fn dispatch_incidents_resolve_on_recovery_events() {
        // A drain ahead of a maintenance window, later resumed; a QoS
        // violation on the same board, later recovered. The drain is
        // evidence for the violation that follows it.
        let mut stream = StreamBuilder::synthetic(2, 9);
        stream.push(
            Level::Warn,
            "dispatch_drain",
            vec![("reason".into(), "maintenance".into())],
        );
        stream.push(
            Level::Error,
            "dispatch_qos_violation",
            vec![("latency_us".into(), 150_000u64.into())],
        );
        stream.push(Level::Info, "dispatch_qos_recovered", vec![]);
        stream.push(Level::Info, "dispatch_resumed", vec![]);
        let timeline = FleetTimeline::merge(&[stream.finish()]);
        let incidents = reconstruct(&timeline, &[]);
        assert_eq!(incidents.len(), 2);
        assert_eq!(incidents[0].kind, IncidentKind::TrafficDrain);
        assert_eq!(incidents[0].resolution, Resolution::Recovered);
        assert_eq!(incidents[1].kind, IncidentKind::QosViolation);
        assert_eq!(incidents[1].resolution, Resolution::Recovered);
        assert!(incidents[1]
            .evidence
            .iter()
            .any(|l| l.contains("dispatch_drain")));
    }

    #[test]
    fn an_unresumed_drain_stays_unresolved() {
        let mut stream = StreamBuilder::synthetic(1, 3);
        stream.push(Level::Warn, "dispatch_drain", vec![]);
        stream.push(Level::Error, "dispatch_qos_violation", vec![]);
        let timeline = FleetTimeline::merge(&[stream.finish()]);
        let incidents = reconstruct(&timeline, &[]);
        assert_eq!(incidents.len(), 2);
        for incident in &incidents {
            assert_eq!(incident.resolution, Resolution::Unresolved);
        }
        let rendered = render_incidents(&incidents);
        assert!(rendered.contains("traffic-drain"));
        assert!(rendered.contains("qos-violation"));
    }

    #[test]
    fn an_unrecovered_disruption_stays_unresolved() {
        let mut stream = StreamBuilder::synthetic(1, 5);
        stream.push(Level::Warn, "chaos_coordinator_killed", vec![]);
        let timeline = FleetTimeline::merge(&[stream.finish()]);
        let incidents = reconstruct(&timeline, &[]);
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].resolution, Resolution::Unresolved);
    }

    #[test]
    fn dumps_attach_by_causal_key() {
        let timeline = attack_timeline();
        let trigger = timeline
            .events()
            .iter()
            .find(|te| te.event.name == "attacker_quarantined")
            .expect("trigger present");
        let dump = FlightDump {
            trigger_seq: trigger.event.seq,
            trigger_name: "attacker_quarantined".into(),
            events: vec![trigger.event.clone()],
        };
        let incidents = reconstruct(&timeline, &[(trigger.key, dump)]);
        assert!(incidents[0]
            .evidence
            .iter()
            .any(|l| l.contains("flight dump `attacker_quarantined`")));
    }

    #[test]
    fn rendering_mentions_every_incident() {
        let rendered = render_incidents(&reconstruct(&attack_timeline(), &[]));
        assert!(rendered.contains("attacker-quarantine"));
        assert!(rendered.contains("board   2"));
        assert!(rendered.contains("detected in 3 epochs"));
    }
}

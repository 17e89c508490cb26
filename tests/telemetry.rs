//! Cross-crate telemetry integration: a faulty campaign observed through
//! capture sinks, the flight recorder, and the metrics registry, with
//! determinism checked across identical runs.

use std::rc::Rc;

use armv8_guardbands::char_fw::report::campaign_metrics;
use armv8_guardbands::char_fw::resilience::ResilienceConfig;
use armv8_guardbands::char_fw::runner::{CampaignResult, ResilientRunner};
use armv8_guardbands::char_fw::setup::VminCampaign;
use armv8_guardbands::telemetry::sink::CaptureSink;
use armv8_guardbands::telemetry::{Event, FlightRecorder, Registry, Telemetry};
use armv8_guardbands::workload_sim::spec::by_name;
use armv8_guardbands::xgene_sim::fault::FaultPlan;
use armv8_guardbands::xgene_sim::server::XGene2Server;
use armv8_guardbands::xgene_sim::sigma::SigmaBin;

/// A hostile campaign on a slow-corner chip: coarse 150 mV steps put the
/// second setup deep in the crash zone (repeated crashes → quarantine)
/// while the fault plan makes power cycles fail (→ recovery retries).
fn faulty_campaign() -> (XGene2Server, VminCampaign) {
    let mut server = XGene2Server::new(SigmaBin::Tss, 56);
    let core = server.chip().weakest_core();
    server.install_fault_plan(
        FaultPlan::quiet(7)
            .with_power_cycle_failure_rate(0.4)
            .with_boot_loop_rate(0.1)
            .with_setup_loss_rate(0.02)
            .force_hang_at(0)
            .force_setup_loss_at(10),
    );
    let bench = by_name("milc").expect("milc exists").profile();
    let mut campaign = VminCampaign::dsn18(vec![bench], vec![core]);
    campaign.step_mv = 150;
    (server, campaign)
}

/// Runs the faulty campaign under a fresh telemetry context, returning
/// the captured events, the recorder, and the campaign result.
fn observed_run() -> (Vec<Event>, Rc<FlightRecorder>, Rc<Registry>, CampaignResult) {
    let capture = Rc::new(CaptureSink::new());
    let recorder = Rc::new(FlightRecorder::new());
    let registry = Rc::new(Registry::new());
    let (mut server, campaign) = faulty_campaign();
    let result = {
        let _guard = Telemetry::new()
            .with_shared_sink(capture.clone())
            .with_shared_sink(recorder.clone())
            .with_registry(registry.clone())
            .install();
        ResilientRunner::new(&mut server, campaign, ResilienceConfig::dsn18()).run_to_completion()
    };
    (capture.events(), recorder, registry, result)
}

#[test]
fn faulty_campaign_emits_the_expected_retry_and_quarantine_sequence() {
    let (events, _, _, result) = observed_run();
    assert_eq!(result.recovery.quarantined_points, 1);

    // The forced hang at reset 0 makes the very first recovery retry; the
    // crashing setup then accumulates crash retries until quarantine.
    let names: Vec<&str> = events.iter().map(|e| &*e.name).collect();
    let pos = |name: &str| {
        names
            .iter()
            .position(|n| *n == name)
            .unwrap_or_else(|| panic!("missing event `{name}`"))
    };

    // Span tree: the campaign span opens first and every setup/run span
    // nests inside it.
    assert_eq!(names[0], "campaign");
    assert!(pos("setup") < pos("run"), "setup precedes the first run");
    for e in &events {
        if e.name == "setup" || e.name == "run" {
            assert_eq!(e.span_path, vec!["campaign".to_string()]);
        }
    }

    // Failure story, in order: a recovery retry (hung power cycle), then
    // crash retries at the fatal setup, then its quarantine.
    let first_retry = pos("recovery_retry");
    let first_crash_retry = pos("crash_retry");
    let quarantine = pos("quarantine");
    assert!(first_retry < quarantine);
    assert!(first_crash_retry < quarantine);
    assert!(
        names.iter().filter(|n| **n == "crash_retry").count() >= 2,
        "the fatal setup retried before quarantine"
    );
    assert_eq!(
        names.iter().filter(|n| **n == "quarantine").count(),
        1,
        "exactly one quarantine"
    );
    // The forced lost V/F restore surfaced as a setup restore retry.
    assert!(names.contains(&"setup_restore_retry"));
    // And the campaign still completed: the completion event fires, then
    // the campaign span closes as the runner drops.
    assert!(quarantine < pos("campaign_complete"));
    assert_eq!(*names.last().unwrap(), "campaign", "span exit closes trace");
}

#[test]
fn flight_recorder_dumps_the_leadup_to_the_first_quarantine() {
    let (events, recorder, _, _) = observed_run();
    let dumps = recorder.dumps();
    assert!(
        !dumps.is_empty(),
        "quarantine at Error level triggers a dump"
    );
    let dump = &dumps[0];
    assert_eq!(dump.trigger_name, "quarantine");
    assert!(
        dump.events.len() >= 64,
        "expected >= 64 events of context, got {}",
        dump.events.len()
    );

    // The dump is exactly the tail of the full trace up to the trigger,
    // in strictly increasing seq order.
    assert_eq!(dump.events.last().unwrap().seq, dump.trigger_seq);
    assert!(dump.events.windows(2).all(|w| w[0].seq < w[1].seq));
    let trigger_idx = events
        .iter()
        .position(|e| e.seq == dump.trigger_seq)
        .expect("trigger is in the capture");
    let tail = &events[trigger_idx + 1 - dump.events.len()..=trigger_idx];
    assert_eq!(dump.events.as_slice(), tail, "dump matches the live trace");
}

#[test]
fn take_dumps_returns_trigger_order_and_each_dump_is_a_strict_suffix() {
    let (events, recorder, _, result) = observed_run();
    let dumps = recorder.take_dumps();
    assert!(!dumps.is_empty(), "the faulty campaign triggers dumps");
    assert!(
        dumps.len() >= result.recovery.quarantined_points as usize,
        "at least one dump per quarantine"
    );

    // Trigger order: strictly increasing trigger_seq across dumps.
    assert!(
        dumps
            .windows(2)
            .all(|w| w[0].trigger_seq < w[1].trigger_seq),
        "dumps come back in trigger order"
    );

    // Every dump (not just the first) is a strict suffix of the live
    // trace ending at its trigger: same events, same order, trigger
    // last.
    for dump in &dumps {
        assert_eq!(dump.events.last().unwrap().seq, dump.trigger_seq);
        assert_eq!(dump.events.last().unwrap().name, dump.trigger_name);
        let trigger_idx = events
            .iter()
            .position(|e| e.seq == dump.trigger_seq)
            .expect("trigger is in the capture");
        let tail = &events[trigger_idx + 1 - dump.events.len()..=trigger_idx];
        assert_eq!(dump.events.as_slice(), tail, "dump is a strict suffix");
    }

    // take_dumps drains: a second call observes nothing.
    assert!(recorder.take_dumps().is_empty());
}

#[test]
fn flight_dumps_round_trip_through_json() {
    let (_, recorder, _, _) = observed_run();
    let dumps = recorder.dumps();
    let first = &dumps[0];
    let json = serde::json::to_string(first);
    let back: armv8_guardbands::telemetry::FlightDump =
        serde::json::from_str(&json).expect("dump deserializes");
    assert_eq!(&back, first);
}

#[test]
fn observed_campaigns_are_deterministic_across_identical_runs() {
    let (events_a, rec_a, reg_a, result_a) = observed_run();
    let (events_b, rec_b, reg_b, result_b) = observed_run();
    assert_eq!(result_a, result_b, "campaign results are bit-identical");
    assert_eq!(events_a, events_b, "traces are event-for-event identical");
    assert_eq!(rec_a.dumps(), rec_b.dumps(), "flight dumps are identical");

    // Counters and gauges are fully deterministic. Wall-clock histograms
    // (step_wall_seconds) see real time, so only their observation counts
    // are stable — bucket placement legitimately varies run to run.
    let (snap_a, snap_b) = (reg_a.snapshot(), reg_b.snapshot());
    assert_eq!(snap_a.counters, snap_b.counters, "counters are identical");
    assert_eq!(snap_a.gauges, snap_b.gauges, "gauges are identical");
    let counts = |s: &armv8_guardbands::telemetry::MetricsSnapshot| -> Vec<(String, u64)> {
        s.histograms
            .iter()
            .map(|(n, h)| (n.clone(), h.count()))
            .collect()
    };
    assert_eq!(counts(&snap_a), counts(&snap_b), "histogram counts agree");
}

#[test]
fn live_counters_agree_with_the_result_and_the_derived_registry() {
    let (_, _, registry, result) = observed_run();
    assert_eq!(
        registry.counter("campaign_runs_total"),
        result.records.len() as u64
    );
    assert_eq!(
        registry.counter("campaign_quarantines_total"),
        result.recovery.quarantined_points
    );
    assert_eq!(
        registry.counter("recovery_retries_total"),
        result.recovery.reset_retries
    );
    assert_eq!(
        registry.counter("recovery_backoff_ms_total"),
        result.recovery.total_backoff_ms
    );
    assert_eq!(
        registry.counter("setup_restores_total"),
        result.recovery.setup_restores
    );

    // The post-hoc registry derives the same families from the result.
    let derived = campaign_metrics(&result);
    for name in [
        "campaign_runs_total",
        "campaign_quarantines_total",
        "recovery_retries_total",
        "recovery_backoff_ms_total",
        "setup_restores_total",
    ] {
        assert_eq!(derived.counter(name), registry.counter(name), "{name}");
    }

    // Wall-clock step timing flowed into the histogram: one observation
    // per executed run.
    let steps = registry
        .histogram("step_wall_seconds")
        .expect("step timer observed");
    assert_eq!(steps.count(), result.records.len() as u64);
}

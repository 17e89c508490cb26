//! The benchmark's own contract: every workload prints all end-to-end
//! metrics with units, traced runs print every per-layer metric, wrong
//! expected fingerprints turn into failed ops, and `BENCHMARK.json`
//! lists exactly the metrics the code prints.

use perfbench::report::{self, END_TO_END, PER_LAYER};
use perfbench::{Ctx, Expected, Scale, DEFAULT_SEED, WORKLOADS};

fn tiny(workload: &'static str, trace: bool, expected: &Expected) -> report::Report {
    let ctx = Ctx {
        workload,
        seed: DEFAULT_SEED,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
        expected,
    };
    let run = perfbench::run(&ctx);
    report::build(&ctx, &run)
}

#[test]
fn every_workload_prints_all_end_to_end_metrics_with_units() {
    let none = Expected::default();
    for workload in WORKLOADS {
        let report = tiny(workload, false, &none);
        assert!(report.correct, "{workload}: {:?}", report.lines);
        assert_eq!(report.failed, 0, "{workload}");
        assert!(report.attempted >= 21, "{workload}");
        let table = report.lines.join("\n");
        for (name, unit) in END_TO_END.iter().chain(&[("error_rate", "ratio")]) {
            let line = table
                .lines()
                .find(|l| l.starts_with(name))
                .unwrap_or_else(|| panic!("{workload}: no {name} line in\n{table}"));
            assert!(
                line.split_whitespace().nth(2) == Some(unit),
                "{workload}: {name} line lacks its unit {unit}: {line}"
            );
        }
        let json = report::json_line(&report);
        for (name, unit) in END_TO_END {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": "))
                    && json.contains(&format!("\"unit\": \"{unit}\"")),
                "{workload}: {name} missing from {json}"
            );
        }
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_agree_with_untraced_ops() {
    let none = Expected::default();
    for workload in WORKLOADS {
        let report = tiny(workload, true, &none);
        // A traced op whose outputs differ from the untraced op with the
        // same index fails, so `correct` is the equality check.
        assert!(report.correct, "{workload}: {:?}", report.lines);
        let names: Vec<&str> = report.metrics.iter().map(|(n, _, _)| *n).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected, "{workload}");
        let coverage = report
            .metrics
            .iter()
            .find(|(n, _, _)| *n == "trace.coverage")
            .map(|(_, v, _)| *v)
            .expect("coverage is reported");
        assert!(
            coverage > 0.0 && coverage <= 1.0,
            "{workload}: coverage {coverage}"
        );
    }
}

#[test]
fn a_wrong_expected_fingerprint_fails_the_op() {
    for workload in ["fleet-campaign", "redteam-campaign", "dram-relaxed"] {
        let none = Expected::default();
        let honest = tiny(workload, false, &none);
        assert_eq!(honest.failed, 0, "{workload}");

        let mut wrong = Expected::default();
        wrong.insert(workload, 0, 0xdead_beef);
        wrong.insert(workload, 3, 0xdead_beef);
        let report = tiny(workload, false, &wrong);
        assert_eq!(report.failed, 2, "{workload}: ops 0 and 3 must fail");
        assert!(!report.correct, "{workload}");
    }
    // serve-mixed fingerprints what it publishes once per run.
    let mut wrong = Expected::default();
    wrong.insert("serve-mixed", 0, 0xdead_beef);
    let report = tiny("serve-mixed", false, &wrong);
    assert!(!report.correct);
}

#[test]
fn expected_fingerprints_round_trip_through_their_file_format() {
    let mut e = Expected::default();
    e.insert("dram-relaxed", 7, 0x0123_4567_89ab_cdef);
    let parsed = Expected::parse(&e.render());
    assert_eq!(parsed.get("dram-relaxed", 7), Some(0x0123_4567_89ab_cdef));
    assert_eq!(parsed.get("dram-relaxed", 8), None);
    // The shipped file parses and covers every workload.
    let recorded = Expected::recorded();
    for workload in WORKLOADS {
        assert!(recorded.get(workload, 0).is_some(), "{workload}");
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_code_prints() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    assert_eq!(
        json.matches("\"name\": ").count(),
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
    for workload in WORKLOADS {
        assert!(json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")));
    }
}

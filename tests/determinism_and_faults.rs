//! Determinism guarantees and failure-injection behaviour across the
//! workspace: campaigns reproduce bit-for-bit given a seed, and the system
//! degrades the way the paper describes as conditions worsen.

use armv8_guardbands::char_fw::report::records_to_csv;
use armv8_guardbands::char_fw::runner::CampaignRunner;
use armv8_guardbands::char_fw::setup::VminCampaign;
use armv8_guardbands::dram_sim::array::DramArray;
use armv8_guardbands::dram_sim::patterns::DataPattern;
use armv8_guardbands::dram_sim::retention::{PopulationSpec, RetentionModel, WeakCellPopulation};
use armv8_guardbands::power_model::units::{Celsius, Milliseconds, Millivolts};
use armv8_guardbands::workload_sim::spec::SPEC_SUITE;
use armv8_guardbands::xgene_sim::fault::RunOutcome;
use armv8_guardbands::xgene_sim::server::XGene2Server;
use armv8_guardbands::xgene_sim::sigma::SigmaBin;

/// Identical seeds reproduce an identical campaign — records, CSV and all.
#[test]
fn campaigns_are_bit_reproducible() {
    let run = || {
        let mut server = XGene2Server::new(SigmaBin::Tff, 2024);
        let core = server.chip().most_robust_core();
        let suite = vec![SPEC_SUITE[0].profile(), SPEC_SUITE[9].profile()];
        let campaign = VminCampaign::dsn18(suite, vec![core]);
        let result = CampaignRunner::new(&mut server).run(&campaign);
        records_to_csv(&result.records)
    };
    assert_eq!(run(), run());
}

/// Different seeds produce different (but statistically consistent) error
/// populations.
#[test]
fn dram_populations_vary_by_seed_but_agree_statistically() {
    let model = RetentionModel::xgene2_micron();
    let a = WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), 1);
    let b = WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), 2);
    assert_ne!(a.cells(), b.cells());
    let (na, nb) = (a.len() as f64, b.len() as f64);
    assert!((na - nb).abs() / na < 0.05, "population sizes {na} vs {nb}");
}

/// Fault-severity staircase: as voltage drops the outcome worsens from
/// correct → errors → crash, and the watchdog restores the board.
#[test]
fn fault_severity_staircase() {
    let mut server = XGene2Server::new(SigmaBin::Ttt, 99);
    let core = server.chip().most_robust_core();
    let bench = SPEC_SUITE
        .iter()
        .find(|b| b.name == "milc")
        .unwrap()
        .profile();

    // Comfortably above Vmin (885): always correct.
    server.set_pmd_voltage(Millivolts::new(940)).unwrap();
    for _ in 0..20 {
        assert_eq!(
            server.run_on_core(core, &bench).outcome,
            RunOutcome::Correct
        );
    }

    // Far below: guaranteed crash, watchdog reset, reboot at nominal.
    server.set_pmd_voltage(Millivolts::new(820)).unwrap();
    let outcome = server.run_on_core(core, &bench).outcome;
    assert_eq!(outcome, RunOutcome::Crash);
    assert_eq!(server.reset_count(), 1);
    assert_eq!(server.pmd_voltage(), Millivolts::XGENE2_NOMINAL);

    // After the reset the board runs clean again.
    assert_eq!(
        server.run_on_core(core, &bench).outcome,
        RunOutcome::Correct
    );
}

/// Pushing DRAM past the characterized envelope (70 °C with a population
/// generated for it) makes errors grow; SECDED still corrects them because
/// repair keeps weak cells isolated per word.
#[test]
fn dram_beyond_60c_grows_errors_but_stays_correctable() {
    let model = RetentionModel::xgene2_micron();
    let spec = PopulationSpec {
        max_temperature: Celsius::new(70.0),
        max_trefp: Milliseconds::DSN18_RELAXED_TREFP,
    };
    let pop = WeakCellPopulation::generate(&model, spec, 3);
    let run_at = |temp: f64, pop: &WeakCellPopulation| {
        let mut dram = DramArray::new(
            pop.clone(),
            Milliseconds::DSN18_RELAXED_TREFP,
            Celsius::new(temp),
        );
        dram.fill_pattern(DataPattern::Random { seed: 4 });
        dram.advance(Milliseconds::DSN18_RELAXED_TREFP.as_f64() * 1.5);
        dram.scrub()
    };
    let at60 = run_at(60.0, &pop);
    let at70 = run_at(70.0, &pop);
    assert!(at70.flipped_bits > 2 * at60.flipped_bits);
    assert_eq!(at70.ue_events, 0);
}

/// The refresh guardband itself: at the nominal 64 ms no workload, pattern
/// or temperature up to 60 °C produces a single error — the baseline the
/// paper relaxes from.
#[test]
fn nominal_refresh_is_bulletproof_to_60c() {
    let model = RetentionModel::xgene2_micron();
    let pop = WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), 5);
    for temp in [45.0, 50.0, 60.0] {
        let mut dram = DramArray::new(
            pop.clone(),
            Milliseconds::DDR3_NOMINAL_TREFP,
            Celsius::new(temp),
        );
        for pattern in DataPattern::dpbench_suite(8) {
            dram.fill_pattern(pattern);
            dram.advance(10_000.0);
            let report = dram.scrub();
            assert_eq!(report.flipped_bits, 0, "{pattern} at {temp} °C");
        }
    }
}

/// Set in the environment of a re-invoked test binary, which then runs
/// [`dram_encoding_in_a_child_process`] for real.
const ENCODING_CHILD_ENV: &str = "GUARDBAND_DRAM_ENCODING_CHILD";
/// Line prefix under which the child prints its fingerprint.
const ENCODING_MARKER: &str = "dram encoding fnv1a: ";

/// A booted board's encoding, fresh and after a relaxed-refresh scrub.
fn encoded_board() -> (String, String) {
    let mut server = XGene2Server::new(SigmaBin::Ttt, 1);
    let fresh = serde::json::to_string(&server);
    let dram = server.dram_mut();
    dram.set_trefp(Milliseconds::DSN18_RELAXED_TREFP);
    dram.set_temperature(Celsius::new(60.0));
    dram.fill_pattern(DataPattern::Random { seed: 1 });
    dram.advance(Milliseconds::DSN18_RELAXED_TREFP.as_f64() * 2.0);
    assert!(dram.scrub().ce_events > 0);
    (fresh, serde::json::to_string(&server))
}

fn encoding_fingerprint((fresh, scrubbed): &(String, String)) -> u64 {
    rand::fnv1a(
        rand::fnv1a(rand::FNV_OFFSET, fresh.as_bytes()),
        scrubbed.as_bytes(),
    )
}

/// Equal DRAM state encodes to equal bytes: two boards booted from one
/// seed, fresh and after a scrub, and the same boards in another process.
#[test]
fn dram_state_encodes_identically_in_every_instance_and_process() {
    let first = encoded_board();
    let second = encoded_board();
    assert!(first.0 == second.0, "fresh boards encode differently");
    assert!(first.1 == second.1, "scrubbed boards encode differently");

    let child = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "dram_encoding_in_a_child_process",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(ENCODING_CHILD_ENV, "1")
        .output()
        .expect("the test binary re-runs");
    assert!(child.status.success(), "child failed: {child:?}");
    let stdout = String::from_utf8_lossy(&child.stdout);
    let printed = stdout
        .lines()
        .find_map(|line| line.split(ENCODING_MARKER).nth(1))
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no fingerprint in the child's output:\n{stdout}"));
    assert_eq!(printed, format!("{:016x}", encoding_fingerprint(&first)));
}

/// The child half of the test above; a no-op unless re-invoked by it.
#[test]
fn dram_encoding_in_a_child_process() {
    if std::env::var_os(ENCODING_CHILD_ENV).is_some() {
        let fingerprint = encoding_fingerprint(&encoded_board());
        println!("{ENCODING_MARKER}{fingerprint:016x}");
    }
}

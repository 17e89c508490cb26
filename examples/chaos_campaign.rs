//! Chaos campaign: crash the fleet coordinator on purpose and prove the
//! durable orchestration layer recovers byte-identically.
//!
//! Two acts. First, crash recovery across real on-disk restarts: a
//! durable fleet run journals to a [`fleet::DirStore`] in a temp
//! directory, gets its coordinator killed mid-campaign, and a "fresh
//! process" reopens the same directory and finishes the job —
//! re-running only what the journal does not already hold — while a
//! run of another campaign is refused that journal. Second, a
//! full seeded chaos campaign: a handcrafted plan that exercises every
//! fault class (coordinator kill, mid-job worker death, bit-flipped
//! checkpoint, torn journal tail, duplicated deliveries) runs under the
//! chaos harness with live metrics, and the disruption history comes
//! back as observatory postmortems.
//!
//! ```sh
//! cargo run --example chaos_campaign
//! ```

use std::rc::Rc;

use armv8_guardbands::chaos::{
    run_chaos, ChaosConfig, ChaosFault, ChaosPlan, ChaosRound, CorruptionKind,
};
use armv8_guardbands::fleet::{
    run_fleet, run_fleet_durable, DirStore, Disruption, FleetCampaign, FleetConfig,
    FleetInterrupted, FleetJournal, FleetSpec, CHECKPOINT_EVERY,
};
use armv8_guardbands::observatory::IncidentKind;
use armv8_guardbands::telemetry::{Registry, Telemetry};

fn main() {
    // ---- Act 1: kill -9 survival on a real directory ----------------
    let spec = FleetSpec::new(4, 2018);
    let campaign = FleetCampaign::quick();
    let config = FleetConfig::with_workers(2);
    let baseline = run_fleet(&spec, &campaign, &config);

    let dir = std::env::temp_dir().join(format!("guardband_chaos_{}", std::process::id()));
    let mut journal = FleetJournal::new(DirStore::open(&dir));
    let mut kill = Disruption::none();
    kill.kill_coordinator_after = Some(2);
    let interrupt = run_fleet_durable(&spec, &campaign, &config, &mut journal, &kill)
        .expect_err("the injected kill fires before the 4-board campaign finishes");
    println!(
        "incarnation 1: {interrupt} — journal left on disk at {}",
        dir.display()
    );
    assert!(matches!(
        interrupt,
        FleetInterrupted::CoordinatorKilled { completions: 2 }
    ));
    drop(journal); // the "process" dies; only the directory survives

    let mut journal = FleetJournal::new(DirStore::open(&dir)); // reboot
    let resumed = run_fleet_durable(&spec, &campaign, &config, &mut journal, &Disruption::none())
        .expect("a clean incarnation always completes");
    assert_eq!(
        resumed.report.characterization_json(),
        baseline.characterization_json(),
        "recovery must be byte-identical"
    );
    println!(
        "incarnation 2: resumed {} journaled completions, executed {} fresh jobs — \
         characterization byte-identical to the uninterrupted run\n",
        resumed.stats.resumed_completions, resumed.stats.executed_jobs
    );
    assert!(resumed.stats.resumed_completions >= 2);

    // A journal belongs to one campaign: another seed is refused before
    // anything is appended, and no restart cures that.
    let wal = std::fs::read(dir.join("fleet.wal")).expect("the journal is on disk");
    let other = FleetSpec::new(4, 2019);
    let refused = run_fleet_durable(
        &other,
        &campaign,
        &config,
        &mut journal,
        &Disruption::none(),
    )
    .expect_err("the journal began seed 2018");
    println!("another campaign on the same journal: {refused}\n");
    assert!(matches!(refused, FleetInterrupted::ForeignJournal { .. }));
    assert_eq!(std::fs::read(dir.join("fleet.wal")).ok(), Some(wal));
    std::fs::remove_dir_all(&dir).ok();

    // ---- Act 2: the full fault taxonomy under the chaos harness -----
    // Round 1 kills the coordinator right after its first checkpoint
    // commit and takes a worker down mid-job; round 2 bit-flips the
    // checkpoint left behind (rejected, falls back to journal replay)
    // and kills again immediately; round 3 tears the journal tail and
    // duplicates deliveries, then runs to completion.
    let plan = ChaosPlan {
        seed: 2018,
        rounds: vec![
            ChaosRound {
                faults: vec![
                    ChaosFault::WorkerDeath {
                        worker: 0,
                        after_jobs: 1,
                    },
                    ChaosFault::CoordinatorKill {
                        after_completions: CHECKPOINT_EVERY,
                    },
                ],
            },
            ChaosRound {
                faults: vec![
                    ChaosFault::CorruptCheckpoint {
                        kind: CorruptionKind::BitFlip,
                    },
                    ChaosFault::CoordinatorKill {
                        after_completions: 0,
                    },
                ],
            },
            ChaosRound {
                faults: vec![
                    ChaosFault::TornJournalTail { drop_bytes: 9 },
                    ChaosFault::DuplicateDelivery { count: 2 },
                ],
            },
        ],
    };

    let registry = Rc::new(Registry::new());
    let report = {
        let _telemetry = Telemetry::new().with_registry(registry.clone()).install();
        run_chaos(&plan, &ChaosConfig::default())
    };
    print!("{}", report.render());
    assert!(report.survived(), "{:?}", report.invariants);
    assert_eq!(report.incarnations, 3);
    assert_eq!(report.checkpoint_rejections, 1);

    println!("\ninvariants against the uninterrupted baseline:");
    println!("  lost boards          : {}", report.invariants.lost_boards);
    println!(
        "  double-counted merges: {}",
        report.invariants.double_counted_merges
    );
    println!(
        "  store identical      : {}",
        report.invariants.store_identical
    );
    println!(
        "  observatory identical: {}",
        report.invariants.observatory_identical
    );

    // The disruption history is a postmortem timeline, with recovery as
    // each incident's resolution.
    let disruptions = report
        .observatory
        .incidents_of(IncidentKind::ChaosDisruption)
        .count();
    let corruptions = report
        .observatory
        .incidents_of(IncidentKind::CheckpointCorruption)
        .count();
    assert!(disruptions >= 2 && corruptions >= 1);
    println!(
        "\npostmortems: {disruptions} chaos disruptions, {corruptions} checkpoint corruptions"
    );
    print!("{}", report.observatory.render());

    // Every injection landed in the chaos_* metrics family.
    println!("\nchaos metrics (Prometheus excerpt):");
    for line in registry
        .prometheus()
        .lines()
        .filter(|l| l.contains("chaos_") && !l.starts_with("# "))
    {
        println!("  {line}");
    }
}

//! Criterion timing of the Table I DRAM retention pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use dram_sim::array::DramArray;
use dram_sim::patterns::DataPattern;
use dram_sim::retention::{PopulationSpec, RetentionModel, WeakCellPopulation};
use power_model::units::{Celsius, Milliseconds};

fn bench_table1(c: &mut Criterion) {
    let model = RetentionModel::xgene2_micron();
    // `generate` stores the recipe; the first read draws the cells.
    c.bench_function("table1/population_generation", |b| {
        b.iter(|| WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), 7).len())
    });
    let pop = WeakCellPopulation::generate(&model, PopulationSpec::dsn18(), 7);
    c.bench_function("table1/dpbench_round", |b| {
        b.iter(|| {
            let mut dram = DramArray::new(
                pop.clone(),
                Milliseconds::DSN18_RELAXED_TREFP,
                Celsius::new(60.0),
            );
            dram.fill_pattern(DataPattern::Random { seed: 1 });
            dram.advance(Milliseconds::DSN18_RELAXED_TREFP.as_f64() * 1.5);
            dram.scrub()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(4)).warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_table1
}
criterion_main!(benches);

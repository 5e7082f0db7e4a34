//! Network-tier throughput: a 10,000-tag × 1,000-slot city deployment
//! through the discrete-event engine, link physics pre-calibrated into
//! the BER table. The acceptance bar is "simulates in seconds" — the
//! tracked series lives in `BENCH_net.json` via `repro --perf`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fmbs_core::sim::fast::FastSim;
use fmbs_net::prelude::{BerTable, BerTableSpec, Deployment};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    // Calibrate once, outside the timed region: the whole point of the
    // link abstraction is that per-packet physics is amortised away.
    let table = Arc::new(BerTable::calibrate(&FastSim, &BerTableSpec::quick()));

    let mut g = c.benchmark_group("network_capacity");
    g.sample_size(10);
    for (name, n_tags, n_slots) in [
        ("tags10k_slots1k", 10_000, 1_000),
        ("tags500_slots10k", 500, 10_000),
    ] {
        g.throughput(Throughput::Elements(n_tags as u64 * n_slots));
        let sim = Deployment::city(n_tags)
            .slots(n_slots)
            .build()
            .expect("valid deployment")
            .into_sim(table.clone());
        g.bench_function(name, |b| b.iter(|| std::hint::black_box(sim.run())));
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

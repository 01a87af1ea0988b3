//! E30 support: the telemetry overhead A/B.
//!
//! Two comparisons, matching the two sink architectures:
//!
//! * beat-accurate `SuperplaneDriver::<1>`: its one loop,
//!   `run_with_sink`, with a `NullSink` (disabled at compile time; this
//!   is `run`) vs. a null `Arc<dyn TraceSink>` (disabled at run time) —
//!   the cost of the per-beat `enabled()` guard;
//! * scheduler: a null `SinkHandle` vs. a live `MetricsRegistry` — the
//!   price of actually collecting, which the EXPERIMENTS table reports
//!   alongside the free disabled path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pm_bench::workloads;
use pm_chip::telemetry::MetricsRegistry;
use pm_chip::throughput::{Job, ThroughputEngine};
use pm_systolic::superplane::SuperplaneDriver;
use pm_systolic::symbol::{Alphabet, Pattern, Symbol};
use pm_systolic::telemetry::{NullSink, SinkHandle, TraceSink};
use std::sync::Arc;

fn bench_plane_driver_null_sink(c: &mut Criterion) {
    let alphabet = Alphabet::TWO_BIT;
    let pattern = workloads::random_pattern(alphabet, 16, 10, 31);
    let patterns: Vec<Pattern> = (0..64).map(|_| pattern.clone()).collect();
    let texts: Vec<Vec<Symbol>> = (0..64)
        .map(|i| workloads::random_text(alphabet, 1_024, 3100 + i as u64))
        .collect();
    let lanes: Vec<&[Symbol]> = texts.iter().map(|t| t.as_slice()).collect();
    let total = (texts.len() * 1_024) as u64;

    let mut group = c.benchmark_group("plane_driver_sink_ab");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total));
    group.bench_function("static_null_sink", |b| {
        let mut d = SuperplaneDriver::<1>::new(&patterns).expect("ok");
        b.iter(|| d.run_with_sink(&lanes, &NullSink).expect("ok"))
    });
    group.bench_function("dyn_null_sink", |b| {
        let mut d = SuperplaneDriver::<1>::new(&patterns).expect("ok");
        let sink: Arc<dyn TraceSink> = std::hint::black_box(Arc::new(NullSink));
        b.iter(|| d.run_with_sink(&lanes, &*sink).expect("ok"))
    });
    group.finish();
}

fn bench_scheduler_sink_ab(c: &mut Criterion) {
    let alphabet = Alphabet::TWO_BIT;
    let pattern = workloads::random_pattern(alphabet, 16, 10, 30);
    let texts: Vec<Vec<Symbol>> = (0..96)
        .map(|i| workloads::random_text(alphabet, 4_096, 3000 + i as u64))
        .collect();
    let jobs: Vec<Job> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| Job::new(i as u64, pattern.clone(), t.clone()))
        .collect();
    let total = (texts.len() * 4_096) as u64;

    let mut group = c.benchmark_group("scheduler_sink_ab");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total));
    for (name, sink) in [
        ("null_handle", SinkHandle::null()),
        (
            "metrics_registry",
            SinkHandle::new(Arc::new(MetricsRegistry::new())),
        ),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &sink, |b, sink| {
            let engine = ThroughputEngine::with_sink(4, 16, sink.clone());
            b.iter(|| engine.run(&jobs).expect("ok"))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_plane_driver_null_sink,
    bench_scheduler_sink_ab
);
criterion_main!(benches);

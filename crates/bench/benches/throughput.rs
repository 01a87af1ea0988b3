//! E8: simulator beat rate and the modelled chip data rate, plus E18's
//! clocked/self-timed sweep and E29's batched/threaded aggregate rates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pm_bench::workloads;
use pm_chip::multipass::MultipassMatcher;
use pm_chip::throughput::{Job, ThroughputEngine};
use pm_chip::timing::ClockModel;
use pm_systolic::matcher::SystolicMatcher;
use pm_systolic::selftimed::{compare, TimingParams};
use pm_systolic::superplane::SuperMatcher;
use pm_systolic::symbol::{Alphabet, Symbol};

fn bench_beat_rate(c: &mut Criterion) {
    // How many text characters per second the *behavioural simulator*
    // sustains (the chip model's number is analytic: 4 Mchar/s).
    let alphabet = Alphabet::TWO_BIT;
    let mut group = c.benchmark_group("simulator_char_rate");
    group.sample_size(10);
    for &cells in &[8usize, 32] {
        let pattern = workloads::random_pattern(alphabet, cells, 10, 3);
        let text = workloads::random_text(alphabet, 4_096, 4);
        group.throughput(Throughput::Elements(text.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(cells), &cells, |b, _| {
            let mut m = SystolicMatcher::new(&pattern).expect("ok");
            b.iter(|| m.match_symbols(&text))
        });
    }
    group.finish();

    // Sanity anchor for EXPERIMENTS.md: the modelled silicon rate.
    let clock = ClockModel::prototype();
    assert!((clock.char_period_ns() - 250.0).abs() < 5.0);
}

fn bench_batched_rate(c: &mut Criterion) {
    // E29: the bit-plane engine's aggregate rate on a 64-stream
    // workload, and the threaded scheduler on top of it.
    let alphabet = Alphabet::TWO_BIT;
    let pattern = workloads::random_pattern(alphabet, 16, 10, 3);
    let texts: Vec<Vec<Symbol>> = (0..64)
        .map(|i| workloads::random_text(alphabet, 4_096, 100 + i as u64))
        .collect();
    let total = (texts.len() * 4_096) as u64;

    let mut group = c.benchmark_group("batched_char_rate");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total));
    group.bench_function("bit_plane_64_lanes", |b| {
        let m = SuperMatcher::<1>::new(&pattern);
        let lanes: Vec<&[Symbol]> = texts.iter().map(|t| t.as_slice()).collect();
        b.iter(|| m.match_streams(&lanes).expect("ok"))
    });
    for &workers in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("scheduler", workers),
            &workers,
            |b, &workers| {
                let jobs: Vec<Job> = texts
                    .iter()
                    .enumerate()
                    .map(|(i, t)| Job::new(i as u64, pattern.clone(), t.clone()))
                    .collect();
                let engine = ThroughputEngine::new(workers, 8);
                b.iter(|| engine.run(&jobs).expect("ok"))
            },
        );
    }
    group.finish();
}

fn bench_superwide_rate(c: &mut Criterion) {
    // E31: the superplane widths against the one-word W=1 kernel on a
    // 384-stream workload (six words wide — 1.5 × W=4, 0.75 × W=8).
    let alphabet = Alphabet::TWO_BIT;
    let pattern = workloads::random_pattern(alphabet, 16, 10, 3);
    let texts: Vec<Vec<Symbol>> = (0..384)
        .map(|i| workloads::random_text(alphabet, 4_096, 200 + i as u64))
        .collect();
    let lanes: Vec<&[Symbol]> = texts.iter().map(|t| t.as_slice()).collect();
    let total = (texts.len() * 4_096) as u64;

    let mut group = c.benchmark_group("superwide_char_rate");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total));
    group.bench_function("u64_64_lanes", |b| {
        let m = SuperMatcher::<1>::new(&pattern);
        b.iter(|| m.match_streams(&lanes).expect("ok"))
    });
    group.bench_function("superplane_w4_256_lanes", |b| {
        let m = SuperMatcher::<4>::new(&pattern);
        b.iter(|| m.match_streams(&lanes).expect("ok"))
    });
    group.bench_function("superplane_w8_512_lanes", |b| {
        let m = SuperMatcher::<8>::new(&pattern);
        b.iter(|| m.match_streams(&lanes).expect("ok"))
    });
    group.finish();
}

fn bench_multipass(c: &mut Criterion) {
    // §3.4 multi-pass cost: the same text, patterns larger than the
    // array by growing factors.
    let alphabet = Alphabet::TWO_BIT;
    let text = workloads::random_text(alphabet, 2_048, 9);
    let mut group = c.benchmark_group("multipass_pattern_factor");
    group.sample_size(10);
    for &factor in &[1usize, 2, 4] {
        let pattern = workloads::random_pattern(alphabet, 8 * factor, 10, factor as u64);
        group.bench_with_input(BenchmarkId::from_parameter(factor), &factor, |b, _| {
            let m = MultipassMatcher::new(&pattern, 8).expect("ok");
            b.iter(|| m.match_symbols(&text))
        });
    }
    group.finish();
}

fn bench_selftimed_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("selftimed_model");
    group.sample_size(10);
    for &cells in &[8usize, 512] {
        group.bench_with_input(BenchmarkId::from_parameter(cells), &cells, |b, &cells| {
            b.iter(|| compare(cells, 200, TimingParams::default(), 1))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_beat_rate,
    bench_batched_rate,
    bench_superwide_rate,
    bench_multipass,
    bench_selftimed_model
);
criterion_main!(benches);

//! Micro-benches of the substrate primitives behind the kernels: the
//! shared-memory structures of §4.1, the warp intrinsics of §4.2 and the
//! coalescer — the host cost of the layer every propagation kernel stands
//! on, readable without running the full benchmark. Each case is one of
//! the input shapes a host fast path keys on (see DESIGN.md, "Host path of
//! the simulator").

use criterion::{criterion_group, criterion_main, Criterion};
use glp_gpusim::warp::{ballot_sync, match_any_sync, popc, WARP_SIZE};
use glp_gpusim::{DeviceConfig, KernelCtx};
use glp_sketch::{BoundedHashTable, CountMinSketch};
use std::hint::black_box;

fn bench_sketches(c: &mut Criterion) {
    let mut group = c.benchmark_group("sketches");
    group.bench_function("cms_add", |b| {
        let mut cms = CountMinSketch::new(4, 2048);
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(0x9e37);
            black_box(cms.add(k % 512, 1.0))
        });
    });
    group.bench_function("ht_insert_add", |b| {
        let mut ht = BoundedHashTable::new(1024, 32);
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            let r = ht.insert_add(k % 700, 1.0);
            if k.is_multiple_of(700) {
                ht.clear();
            }
            black_box(r)
        });
    });
    group.bench_function("ht_clear_touched", |b| {
        let mut ht = BoundedHashTable::new(4096, 64);
        b.iter(|| {
            for k in 0..256u64 {
                ht.insert_add(k, 1.0);
            }
            ht.clear();
        });
    });
    // What a mid-degree vertex's final scan sees once its neighbours
    // agree: a handful of live keys in a table sized for the worst case.
    group.bench_function("ht_scan_sparse", |b| {
        let mut ht = BoundedHashTable::new(1024, 32);
        for k in [3u64, 141, 592, 653] {
            ht.insert_add(k, 1.0);
        }
        b.iter(|| black_box(black_box(&ht).max_entry()));
    });
    group.finish();
}

fn bench_warp_intrinsics(c: &mut Criterion) {
    let mut group = c.benchmark_group("warp_intrinsics");
    let mut vals = [0u64; WARP_SIZE];
    for (i, v) in vals.iter_mut().enumerate() {
        *v = (i % 7) as u64;
    }
    let preds = [true; WARP_SIZE];
    group.bench_function("ballot_sync", |b| {
        b.iter(|| black_box(ballot_sync(u32::MAX, black_box(&preds))));
    });
    group.bench_function("match_any_sync", |b| {
        b.iter(|| black_box(match_any_sync(u32::MAX, black_box(&vals))));
    });
    // 32 distinct unsorted keys: the table path at its fullest.
    let mut distinct = [0u64; WARP_SIZE];
    for (i, v) in distinct.iter_mut().enumerate() {
        *v = (i as u64 * 0x9e37_79b9) % 1009;
    }
    group.bench_function("match_any_sync/32_distinct", |b| {
        b.iter(|| black_box(match_any_sync(u32::MAX, black_box(&distinct))));
    });
    // Vertex keys of a packed warp: eight ascending runs of four lanes.
    let mut runs = [0u64; WARP_SIZE];
    for (i, v) in runs.iter_mut().enumerate() {
        *v = 1000 + (i / 4) as u64;
    }
    group.bench_function("match_any_sync/vertex_runs", |b| {
        b.iter(|| black_box(match_any_sync(u32::MAX, black_box(&runs))));
    });
    // A half-filled last warp (prefix mask) over unsorted label keys.
    group.bench_function("match_any_sync/partial_mask", |b| {
        b.iter(|| black_box(match_any_sync(0x0000_ffff, black_box(&vals))));
    });
    group.bench_function("popc", |b| {
        b.iter(|| black_box(popc(black_box(0xdead_beef))));
    });
    group.finish();
}

/// Byte address of lane `i` in one lane-address shape.
type LaneAddr = fn(u64) -> u64;

/// One warp-wide `global_read` per iteration, by lane-address shape.
fn bench_coalescing(c: &mut Criterion) {
    let mut group = c.benchmark_group("global_read");
    let cfg = DeviceConfig::titan_v();
    let cases: [(&str, LaneAddr); 3] = [
        // A CSR target run: consecutive 4-byte elements.
        ("monotone", |i| 0x2_0000_0000 + i * 4),
        // Label gather of a packed warp on a lattice: unsorted lanes
        // inside a window of a few KiB.
        ("windowed", |i| {
            0x1_0000_0000 + ((i * 37) % 29) * 4 + (i % 4) * 1200
        }),
        // Label gather of a power-law hub: lanes all over the array.
        ("scattered", |i| {
            0x1_0000_0000 + (i * 0x9e37_79b9 % 1_000_003) * 4
        }),
    ];
    for (name, addr_of) in cases {
        let addrs: Vec<u64> = (0..WARP_SIZE as u64).map(addr_of).collect();
        group.bench_function(name, |b| {
            let mut ctx = KernelCtx::shard(&cfg);
            b.iter(|| ctx.global_read(black_box(&addrs)));
            black_box(ctx.counters.global_read_sectors);
        });
    }
    group.finish();
}

criterion_group!(
    kernels,
    bench_sketches,
    bench_warp_intrinsics,
    bench_coalescing
);
criterion_main!(kernels);

//! Criterion micro-bench: the cuckoo hash map vs `std::HashMap`
//! (supports the §6.2 claim that cuckoo hashing keeps the KV hot path
//! fast). The `*_insert_10k` cases presize the table; the `grow` and
//! `absorb` cases start from an empty one, so they include the cost of
//! growing it — the shape of a KV block absorbing a loaded or split-off
//! image (120 pairs of a 16 B key and a 1 KB value).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use jiffy_cuckoo::CuckooMap;
use jiffy_proto::Blob;
use std::collections::HashMap;

fn bench_cuckoo(c: &mut Criterion) {
    let mut group = c.benchmark_group("cuckoo_vs_std");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function("cuckoo_insert_10k", |b| {
        b.iter(|| {
            let mut m = CuckooMap::with_capacity(16 * 1024);
            for i in 0..10_000u64 {
                m.insert(black_box(i), i);
            }
            m
        })
    });
    group.bench_function("std_insert_10k", |b| {
        b.iter(|| {
            let mut m = HashMap::with_capacity(16 * 1024);
            for i in 0..10_000u64 {
                m.insert(black_box(i), i);
            }
            m
        })
    });
    group.bench_function("cuckoo_grow_from_new_10k", |b| {
        b.iter(|| {
            let mut m = CuckooMap::new();
            for i in 0..10_000u64 {
                m.insert(black_box(i), i);
            }
            m
        })
    });

    let block: Vec<(Blob, Blob)> = (0..120u64)
        .map(|i| {
            let key = format!("key-{i:012}").into_bytes();
            (Blob::new(key), Blob::new(vec![i as u8; 1024]))
        })
        .collect();
    group.bench_function("cuckoo_absorb_120x1k", |b| {
        b.iter_batched(
            || block.clone(),
            |pairs| {
                let mut m = CuckooMap::new();
                for (k, v) in pairs {
                    m.insert(k, v);
                }
                m
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("std_absorb_120x1k", |b| {
        b.iter_batched(
            || block.clone(),
            |pairs| {
                let mut m = HashMap::new();
                for (k, v) in pairs {
                    m.insert(k, v);
                }
                m
            },
            BatchSize::SmallInput,
        )
    });

    let mut cuckoo = CuckooMap::with_capacity(16 * 1024);
    let mut std_map = HashMap::with_capacity(16 * 1024);
    for i in 0..10_000u64 {
        cuckoo.insert(i, i);
        std_map.insert(i, i);
    }
    group.bench_function("cuckoo_get_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 10_000;
            black_box(cuckoo.get(&i))
        })
    });
    group.bench_function("std_get_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 10_000;
            black_box(std_map.get(&i))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cuckoo);
criterion_main!(benches);

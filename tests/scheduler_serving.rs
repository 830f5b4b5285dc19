//! Integration suite for the concurrent batch scheduler (`cuart-host`).
//!
//! Three contracts are pinned here:
//!
//! 1. **Equivalence** — results served through the scheduler (multiple
//!    producers, adaptive batching, sorted execution, inverse-permutation
//!    return) are byte-identical to `CuartIndex::lookup_batch_cpu`, for a
//!    million-lookup four-producer run (scaled down in debug builds; CI
//!    runs the full size under `--release`).
//! 2. **Locality** — packing a batch in sorted key order must beat the
//!    same workload in arrival order on the simulator's memory model:
//!    strictly fewer DRAM transactions and strictly less modeled kernel
//!    time. This is the measurable §3.1 coalescing win the sorted-batch
//!    path exists for.
//! 3. **Telemetry** — a scheduler run records the `cuart.sched.*` series
//!    into the session's registry.

use cuart::{CuartConfig, CuartIndex};
use cuart_art::Art;
use cuart_gpu_sim::batch::NOT_FOUND;
use cuart_gpu_sim::devices;
use cuart_host::scheduler::{Scheduler, SchedulerConfig, SchedulerStats};
use std::sync::Arc;
use std::time::Duration;

/// Dense 8-byte keyed index: value = key * 3 + 1.
fn build_index(n: u64) -> Arc<CuartIndex> {
    let mut art = Art::new();
    for i in 0..n {
        art.insert(&i.to_be_bytes(), i * 3 + 1).unwrap();
    }
    Arc::new(CuartIndex::build(&art, &CuartConfig::default()))
}

/// splitmix64, for deterministic in-test shuffles and key streams.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn four_producers_one_million_lookups_match_cpu_engine() {
    // Full size only in release: the simulator's functional pass is too
    // slow for a million debug-mode lookups. CI runs this suite with
    // `--release` to get the full-size guarantee.
    let total: u64 = if cfg!(debug_assertions) {
        64 * 1024
    } else {
        1024 * 1024
    };
    let producers: u64 = 4;
    let per_producer = total / producers;
    let index = build_index(128 * 1024);
    let cfg = SchedulerConfig {
        batch_target: 16 * 1024,
        deadline: Duration::from_micros(300),
        sort_batches: true,
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::spawn(Arc::clone(&index), devices::gtx1070(), cfg);

    let mut handles = Vec::new();
    for p in 0..producers {
        let client = sched.client().unwrap();
        let index = Arc::clone(&index);
        handles.push(std::thread::spawn(move || {
            let mut rng = p.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
            let mut checked = 0u64;
            const CHUNK: usize = 1024;
            let mut done = 0u64;
            while done < per_producer {
                let count = CHUNK.min((per_producer - done) as usize);
                // Mix of hits (dense range) and misses (shifted range).
                let keys: Vec<Vec<u8>> = (0..count)
                    .map(|_| (splitmix(&mut rng) % (256 * 1024)).to_be_bytes().to_vec())
                    .collect();
                let expect: Vec<u64> = index
                    .lookup_batch_cpu(&keys)
                    .into_iter()
                    .map(|r| r.unwrap_or(NOT_FOUND))
                    .collect();
                let got = client.lookup(keys).expect("scheduler alive");
                assert_eq!(got, expect, "producer {p} diverged at op {done}");
                checked += count as u64;
                done += count as u64;
            }
            checked
        }));
    }
    let checked: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(checked, total);

    let stats = sched.join().unwrap().aggregate();
    assert_eq!(stats.ops_enqueued, total);
    assert_eq!(stats.keys_dispatched, total);
    assert!(stats.batches >= 1);
    assert!(
        stats.sorted_batches == stats.batches,
        "every batch takes the sorted path: {stats:?}"
    );
    assert!(
        stats.mean_batch_fill() > 1024.0,
        "four concurrent producers must coalesce beyond one request: {stats:?}"
    );
}

/// Run one scheduler over `keys` as a single giant batch and return stats.
fn one_batch_stats(index: &Arc<CuartIndex>, keys: &[Vec<u8>], sorted: bool) -> SchedulerStats {
    let cfg = SchedulerConfig {
        batch_target: keys.len(), // flush exactly when the request lands
        deadline: Duration::from_secs(3600),
        sort_batches: sorted,
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::spawn(Arc::clone(index), devices::gtx1070(), cfg);
    let client = sched.client().unwrap();
    let expect_some_hits = client.lookup(keys.to_vec()).expect("scheduler alive");
    assert!(expect_some_hits.iter().any(|&r| r != NOT_FOUND));
    drop(client);
    let stats = sched.join().unwrap().aggregate();
    assert_eq!(stats.batches, 1, "one request, one flush: {stats:?}");
    stats
}

#[test]
fn sorted_batches_beat_arrival_order_on_the_memory_model() {
    // Big enough that the tree does NOT fit the GTX 1070's 2 MiB L2: with
    // capacity pressure, arrival-order batches thrash (large reuse
    // distances) while sorted batches keep each subtree hot. An
    // L2-resident tree would hide the win — every order then pays only
    // compulsory misses.
    let n: u64 = 512 * 1024;
    let index = build_index(n);
    // A shuffled walk over the whole key range: arrival order carries no
    // locality, sorted order recovers all of it.
    let mut keys: Vec<Vec<u8>> = (0..n).map(|i| i.to_be_bytes().to_vec()).collect();
    let mut rng = 0xC0FFEE;
    for i in (1..keys.len()).rev() {
        keys.swap(i, (splitmix(&mut rng) % (i as u64 + 1)) as usize);
    }
    let batch = &keys[..16 * 1024];

    let sorted = one_batch_stats(&index, batch, true);
    let unsorted = one_batch_stats(&index, batch, false);

    assert_eq!(sorted.keys_dispatched, unsorted.keys_dispatched);
    // Identical per-lane work…
    assert_eq!(sorted.raw_accesses, unsorted.raw_accesses);
    // …but sorted packing puts neighboring tree paths in the same warp, so
    // per-warp sector dedup (the §3.1 coalescing model) collapses far more
    // of it. This is the locality win, asserted strictly.
    assert!(
        sorted.sectors < unsorted.sectors,
        "sorted packing must coalesce into fewer memory sectors: \
         sorted {} vs unsorted {}",
        sorted.sectors,
        unsorted.sectors
    );
    assert!(
        sorted.kernel_time_ns < unsorted.kernel_time_ns,
        "sorted packing must be faster on the modeled kernel: \
         sorted {:.0} ns vs unsorted {:.0} ns",
        sorted.kernel_time_ns,
        unsorted.kernel_time_ns
    );
    // Under L2 capacity pressure the coalescing win reaches DRAM too:
    // sorted batches keep subtrees hot, arrival order thrashes.
    assert!(
        sorted.dram_transactions < unsorted.dram_transactions,
        "sorted packing must cut DRAM traffic under L2 pressure: \
         sorted {} vs unsorted {}",
        sorted.dram_transactions,
        unsorted.dram_transactions
    );
}

#[test]
fn scheduler_records_sched_telemetry_series() {
    use cuart_telemetry::{names, Telemetry};
    let telemetry = Arc::new(Telemetry::new());
    let mut art = Art::new();
    for i in 0..4096u64 {
        art.insert(&i.to_be_bytes(), i).unwrap();
    }
    let index = Arc::new(
        CuartIndex::build(&art, &CuartConfig::default()).with_telemetry(Arc::clone(&telemetry)),
    );
    let cfg = SchedulerConfig {
        batch_target: 512,
        deadline: Duration::from_micros(200),
        sort_batches: true,
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::spawn(Arc::clone(&index), devices::gtx1070(), cfg);
    let client = sched.client().unwrap();
    let keys: Vec<Vec<u8>> = (0..512u64).map(|i| i.to_be_bytes().to_vec()).collect();
    client.lookup(keys).unwrap();
    drop(client);
    let stats = sched.join().unwrap().aggregate();

    let snap = telemetry.snapshot();
    assert_eq!(snap.counters.get(names::SCHED_ENQUEUED), Some(&512));
    assert_eq!(
        snap.counters.get(names::SCHED_BATCHES).copied(),
        Some(stats.batches)
    );
    assert_eq!(
        snap.counters.get(names::SCHED_SORTED_BATCHES).copied(),
        Some(stats.sorted_batches)
    );
    assert!(
        snap.counters.contains_key(names::SCHED_SIZE_FLUSHES)
            || snap.counters.contains_key(names::SCHED_DEADLINE_FLUSHES),
        "at least one flush kind must be recorded: {:?}",
        snap.counters
    );
    assert!(
        snap.histograms.contains_key(names::SCHED_BATCH_FILL),
        "batch fill histogram missing: {:?}",
        snap.histograms.keys().collect::<Vec<_>>()
    );
    assert!(
        snap.histograms.contains_key(names::SCHED_QUEUE_LATENCY_NS),
        "queue latency histogram missing"
    );
    // One shard is never routed: no split span, no router counters and no
    // per-shard twins of the global series.
    assert!(
        snap.spans
            .iter()
            .all(|s| s.name != names::spans::SCHED_ROUTE),
        "a 1-shard scheduler records no sched.route span"
    );
    let series = snap.counters.keys().chain(snap.gauges.keys());
    for name in series {
        assert!(
            !name.starts_with("cuart.sched.routed_")
                && !name.starts_with(names::SCHED_SHARD_PREFIX),
            "a 1-shard scheduler records no routed or per-shard series: {name}"
        );
    }
}

#[test]
fn session_staging_survives_shrinking_batches_through_the_scheduler() {
    // Regression companion to the batch-level staging test in
    // `cuart-gpu-sim`: one executor session serves a large batch and then
    // a much smaller one, reusing its staging buffers. The small batch
    // must see only its own keys and results.
    let index = build_index(8192);
    let cfg = SchedulerConfig {
        batch_target: 1024 * 1024,
        deadline: Duration::from_micros(100),
        sort_batches: true,
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::spawn(Arc::clone(&index), devices::gtx1070(), cfg);
    let client = sched.client().unwrap();
    let big: Vec<Vec<u8>> = (0..4096u64).map(|i| i.to_be_bytes().to_vec()).collect();
    let big_results = client.lookup(big).unwrap();
    assert!(big_results.iter().all(|&r| r != NOT_FOUND));
    // Now a 3-key batch into the same (oversized) staging buffer.
    let small = vec![
        7u64.to_be_bytes().to_vec(),
        999_999u64.to_be_bytes().to_vec(), // miss
        8191u64.to_be_bytes().to_vec(),
    ];
    let small_results = client.lookup(small).unwrap();
    assert_eq!(small_results, vec![7 * 3 + 1, NOT_FOUND, 8191 * 3 + 1]);
    drop(client);
    sched.join().unwrap();
}

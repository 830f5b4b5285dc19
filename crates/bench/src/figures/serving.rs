//! Figure 19 (extension) — the concurrent serving layer.
//!
//! Not a paper figure: the paper batches queries offline (§4.1), while
//! this sweep drives the [`cuart_host::scheduler`] end to end — N
//! producer threads submitting small point-lookup requests, the executor
//! coalescing them into adaptive batches. Two knobs are swept:
//!
//! * **producer threads** (x-axis) — more concurrent producers queue more
//!   keys per flush window, so batches fill closer to the size target,
//! * **flush deadline** (series) — a short deadline trades batch fill
//!   (and thus launch-overhead amortisation and sort locality) for
//!   latency.
//!
//! Each (producers, deadline) cell runs twice, with sorted-batch
//! execution on and off, so the figure shows the §3.1 locality win at
//! serving time rather than in an offline batch.
//!
//! The y value is *modeled device throughput*: keys divided by modeled
//! kernel time plus one launch overhead per dispatched batch. Wall-clock
//! simulator overhead is deliberately excluded — it would swamp the
//! modeled effects the figure is about.

use crate::context::RunCtx;
use crate::series::{Figure, Series};
use cuart_host::scheduler::{Scheduler, SchedulerConfig, SchedulerStats};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic Fisher–Yates driven by a splitmix64 stream, so the
/// submitted order is unrelated to key order without pulling in an RNG
/// crate.
fn shuffle<T>(items: &mut [T], mut seed: u64) {
    let mut next = move || {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

/// Keys per client request: small on purpose — the scheduler, not the
/// caller, is supposed to assemble device-sized batches.
const REQUEST_KEYS: usize = 256;

/// Size target for the executor's adaptive batches.
const BATCH_TARGET: usize = 8 * 1024;

/// One (producers, deadline, sorted) cell: run the scheduler to
/// completion and return its stats.
fn run_cell(
    index: &Arc<cuart::CuartIndex>,
    dev: &cuart_gpu_sim::DeviceConfig,
    keys: &[Vec<u8>],
    producers: usize,
    requests_per_producer: usize,
    deadline: Duration,
    sorted: bool,
) -> SchedulerStats {
    let cfg = SchedulerConfig {
        batch_target: BATCH_TARGET,
        deadline,
        sort_batches: sorted,
        ..SchedulerConfig::default()
    };
    let sched = Scheduler::spawn(Arc::clone(index), *dev, cfg);
    let mut handles = Vec::new();
    for p in 0..producers {
        let client = sched.client().expect("fresh scheduler");
        // Each producer walks its own shuffled slice of the key space, so
        // arrival order at the executor is unsorted and interleaved.
        let slice: Vec<Vec<u8>> = keys
            .iter()
            .skip(p)
            .step_by(producers)
            .take(requests_per_producer * REQUEST_KEYS)
            .cloned()
            .collect();
        handles.push(std::thread::spawn(move || {
            for chunk in slice.chunks(REQUEST_KEYS) {
                client.lookup(chunk.to_vec()).expect("scheduler alive");
            }
        }));
    }
    for h in handles {
        h.join().expect("producer thread");
    }
    sched.join().expect("executor alive").aggregate()
}

/// Modeled serving throughput in MOps/s: launch overhead charged once per
/// dispatched batch, so underfilled batches (short deadlines, few
/// producers) pay for their poor amortisation.
fn modeled_mops(stats: &SchedulerStats, dev: &cuart_gpu_sim::DeviceConfig) -> f64 {
    if stats.keys_dispatched == 0 {
        return 0.0;
    }
    let launch_ns = dev.launch_overhead_us * 1_000.0;
    let total_ns = stats.kernel_time_ns + stats.batches as f64 * launch_ns;
    stats.keys_dispatched as f64 * 1_000.0 / total_ns
}

/// Figure 19 — *serving throughput vs producer threads, per flush deadline,
/// sorted vs unsorted batches* (extension; see module docs).
pub fn fig19(ctx: &RunCtx) -> Figure {
    let mut fig = Figure::new(
        "fig19",
        "Serving layer: modeled MOps/s vs producers (scheduler, 8Ki batch target, notebook)",
        "producer threads",
        "modeled MOps/s",
    );
    let (producer_counts, requests_per_producer, n): (&[usize], usize, usize) = if ctx.smoke() {
        (&[1, 4], 2, 16 * 1024)
    } else {
        (&[1, 2, 4, 8], 8, ctx.tree_size(4_000_000))
    };
    let deadlines: &[(u64, &str)] = if ctx.smoke() {
        &[(500, "500us")]
    } else {
        &[(50, "50us"), (500, "500us"), (5_000, "5ms")]
    };

    let (art, mut keys) = ctx.build_art(n, 8, 1901);
    // `RunCtx::cuart` already attaches the context's telemetry, if any.
    let index = Arc::new(ctx.cuart(&art));
    let dev = ctx.notebook();
    // Submission order must be unrelated to key order, or the unsorted
    // control would be accidentally sorted.
    shuffle(&mut keys, 77);

    for &(us, label) in deadlines {
        for sorted in [true, false] {
            let mut s = Series::new(format!(
                "{} deadline {label}",
                if sorted { "sorted" } else { "unsorted" }
            ));
            for &p in producer_counts {
                let stats = run_cell(
                    &index,
                    &dev,
                    &keys,
                    p,
                    requests_per_producer,
                    Duration::from_micros(us),
                    sorted,
                );
                s.push(p as f64, modeled_mops(&stats, &dev));
            }
            fig.series.push(s);
        }
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fig19_has_sorted_and_unsorted_series() {
        let ctx = RunCtx::new(256, std::env::temp_dir().join("cuart-fig19")).with_smoke(true);
        let fig = fig19(&ctx);
        assert_eq!(fig.series.len(), 2);
        for s in &fig.series {
            assert_eq!(s.points.len(), 2);
            assert!(s.max_y() > 0.0, "throughput must be positive: {s:?}");
        }
    }
}

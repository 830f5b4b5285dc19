//! Figure "scaleout" (extension) — multi-device sharded serving.
//!
//! Not a paper figure: the paper serves from one GPU, while the ROADMAP
//! north-star asks for production-scale serving across several devices.
//! This sweep drives a [`Scheduler`] fleet end to end — N producer
//! threads submitting point-lookup requests through its client, the
//! router splitting each request by the §3.3 LUT prefix and dispatching
//! the sub-batches concurrently to one executor per simulated device.
//!
//! * **shard count** (x-axis) — the fleet size, one shard per device,
//! * **fleet mix** (series) — a homogeneous RTX 3090 fleet next to a
//!   mixed fleet that replaces half the devices with GTX 1070s, showing
//!   how the slowest shard gates aggregate throughput.
//!
//! The y value is *modeled aggregate throughput*
//! ([`ShardedStats::modeled_aggregate_mops`]): total keys over the
//! slowest shard's modeled busy time (kernel time plus one launch
//! overhead per batch — the fig19 convention, maxed across shards
//! because shards run concurrently on separate devices). Wall-clock
//! simulator overhead is deliberately excluded.

use crate::context::RunCtx;
use crate::series::{Figure, Series};
use cuart_gpu_sim::DeviceConfig;
use cuart_host::scheduler::{Scheduler, SchedulerConfig, ShardedStats};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic Fisher–Yates driven by a splitmix64 stream (same idiom
/// as fig19), so submission order is unrelated to key order.
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

/// Keys per client request. Deliberately device-sized (half the batch
/// target), unlike fig19's small requests: the router splits every
/// request N ways, so tiny requests would fragment into per-shard
/// batches that pay one launch per round regardless of N and the sweep
/// would measure launch fragmentation, not the kernel-time split that
/// scale-out is about. fig19 covers the small-request coalescing regime.
const REQUEST_KEYS: usize = 4096;

/// Size target for each shard's adaptive batches.
const BATCH_TARGET: usize = 8 * 1024;

/// One fleet cell: run every key through the sharded scheduler from
/// `producers` threads and return the fleet stats.
fn run_cell(
    index: &Arc<cuart::CuartIndex>,
    devices: &[DeviceConfig],
    keys: &[Vec<u8>],
    producers: usize,
) -> ShardedStats {
    let cfg = SchedulerConfig {
        batch_target: BATCH_TARGET,
        deadline: Duration::from_micros(500),
        ..SchedulerConfig::default()
    };
    let sharded = Scheduler::spawn_fleet(Arc::clone(index), devices, cfg).expect("non-empty fleet");
    std::thread::scope(|scope| {
        for p in 0..producers {
            let client = sharded.client().expect("fresh fleet");
            let slice: Vec<Vec<u8>> = keys.iter().skip(p).step_by(producers).cloned().collect();
            scope.spawn(move || {
                for chunk in slice.chunks(REQUEST_KEYS) {
                    client.lookup(chunk.to_vec()).expect("fleet alive");
                }
            });
        }
    });
    sharded.join().expect("executors alive")
}

/// A fleet of `n` devices: homogeneous workstations, or — when `mixed`
/// — workstations with the second half replaced by notebooks.
fn fleet(ctx: &RunCtx, n: usize, mixed: bool) -> Vec<DeviceConfig> {
    (0..n)
        .map(|i| {
            if mixed && i >= n.div_ceil(2) {
                ctx.notebook()
            } else {
                ctx.workstation()
            }
        })
        .collect()
}

/// Figure "scaleout" — *modeled aggregate MOps/s vs shard count,
/// homogeneous vs mixed fleet* (extension; see module docs).
pub fn fig_scaleout(ctx: &RunCtx) -> Figure {
    let mut fig = Figure::new(
        "fig-scaleout",
        "Sharded serving: modeled aggregate MOps/s vs shard count (8Ki batch target)",
        "shards (devices)",
        "modeled aggregate MOps/s",
    );
    let (shard_counts, producers, n): (&[usize], usize, usize) = if ctx.smoke() {
        (&[1, 2], 2, 16 * 1024)
    } else {
        (&[1, 2, 4, 8], 4, ctx.tree_size(4_000_000))
    };

    let (art, mut keys) = ctx.build_art(n, 8, 2113);
    let index = Arc::new(ctx.cuart(&art));
    // Submission order must be unrelated to key order so every request
    // fans out across the whole fleet.
    shuffle(&mut keys, 101);

    let mixes: &[(bool, &str)] = if ctx.smoke() {
        &[(false, "homogeneous rtx3090")]
    } else {
        &[
            (false, "homogeneous rtx3090"),
            (true, "mixed rtx3090+gtx1070"),
        ]
    };
    for &(mixed, label) in mixes {
        let mut s = Series::new(label);
        for &shards in shard_counts {
            let devs = fleet(ctx, shards, mixed);
            let stats = run_cell(&index, &devs, &keys, producers);
            s.push(shards as f64, stats.modeled_aggregate_mops());
        }
        fig.series.push(s);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fig_scaleout_scales_with_shards() {
        let ctx =
            RunCtx::new(256, std::env::temp_dir().join("cuart-fig-scaleout")).with_smoke(true);
        let fig = fig_scaleout(&ctx);
        assert_eq!(fig.series.len(), 1);
        let s = &fig.series[0];
        assert_eq!(s.points.len(), 2);
        for &(x, y) in &s.points {
            assert!(y > 0.0, "throughput must be positive at {x} shards");
        }
        let one = s.points[0].1;
        let two = s.points[1].1;
        assert!(
            two > one,
            "two shards must beat one: {one:.1} vs {two:.1} MOps/s"
        );
    }
}

//! fig-overload (extension) — goodput under overload, per admission policy.
//!
//! Not a paper figure: the paper batches queries offline (§4.1), while
//! this sweep drives the [`cuart_host::scheduler`] past saturation and
//! measures what each overload-protection policy *delivers*. Producer
//! threads submit point lookups as fast as they can (the x-axis is the
//! producer count, our offered-load proxy); every cell runs with a short
//! per-op deadline so ops that sit in the backlog too long are shed at
//! coalesce time instead of being served late. Three series:
//!
//! * **block** — bounded queue, producers block for space. Nothing is
//!   refused, but producers are throttled (backpressure) and the
//!   deadline sheds what still goes stale.
//! * **reject** — bounded queue, `SchedError::QueueFull` when full.
//!   Producers fail fast and the refused ops count against goodput.
//! * **no cap** — unbounded admission, the pre-overload-PR behaviour.
//!   The backlog grows without bound, so under heavy load most ops age
//!   past their deadline and are shed.
//!
//! The y value is the *goodput fraction*: keys actually dispatched to
//! the device divided by keys offered (dispatched + shed + rejected).
//! Wall-clock throughput is deliberately not the metric — simulator
//! overhead would swamp it; what the figure is about is how much of the
//! offered load each policy turns into useful work.

use crate::context::RunCtx;
use crate::series::{Figure, Series};
use cuart_host::scheduler::{AdmissionPolicy, Scheduler, SchedulerConfig, SchedulerStats};
use std::sync::Arc;
use std::time::Duration;

/// Keys per client request: small on purpose, the scheduler assembles
/// device-sized batches.
const REQUEST_KEYS: usize = 64;

/// Size target for the executor's adaptive batches. Small, so flushes
/// are frequent and the per-op deadline is checked often.
const BATCH_TARGET: usize = 2 * 1024;

/// Submission-queue cap for the bounded series. Producers are
/// closed-loop (one outstanding request each), so peak demand is
/// `producers * REQUEST_KEYS`; the cap must sit *below* that at the
/// high end of the sweep or admission never binds and every policy
/// measures the same.
const QUEUE_CAP: usize = 128;

/// One (policy, producers) cell: drive the scheduler to completion with
/// free-running producers and return its stats.
fn run_cell(
    index: &Arc<cuart::CuartIndex>,
    dev: &cuart_gpu_sim::DeviceConfig,
    keys: &[Vec<u8>],
    producers: usize,
    requests_per_producer: usize,
    cfg: SchedulerConfig,
) -> SchedulerStats {
    let sched = Scheduler::spawn(Arc::clone(index), *dev, cfg);
    let mut handles = Vec::new();
    for p in 0..producers {
        let client = sched.client().expect("fresh scheduler");
        let slice: Vec<Vec<u8>> = keys
            .iter()
            .skip(p)
            .step_by(producers)
            .take(requests_per_producer * REQUEST_KEYS)
            .cloned()
            .collect();
        handles.push(std::thread::spawn(move || {
            for chunk in slice.chunks(REQUEST_KEYS) {
                // Overload outcomes (QueueFull, DeadlineExceeded) are the
                // point of the figure; the stats count them for us.
                let _ = client.lookup(chunk.to_vec());
            }
        }));
    }
    for h in handles {
        h.join().expect("producer thread");
    }
    sched.join().expect("executor alive").aggregate()
}

/// Goodput fraction in percent: dispatched keys over offered keys.
fn goodput_pct(stats: &SchedulerStats) -> f64 {
    let offered =
        stats.keys_dispatched + stats.shed_ops + stats.rejected_ops + stats.admission_timeout_ops;
    if offered == 0 {
        return 0.0;
    }
    stats.keys_dispatched as f64 * 100.0 / offered as f64
}

/// fig-overload — *goodput fraction vs producer threads, per admission
/// policy* (extension; see module docs).
pub fn fig_overload(ctx: &RunCtx) -> Figure {
    let mut fig = Figure::new(
        "fig-overload",
        "Overload: goodput fraction vs producers (128-op cap, per-op deadline, notebook)",
        "producer threads",
        "goodput (% of offered keys)",
    );
    let (producer_counts, requests_per_producer, n, op_deadline): (&[usize], usize, usize, u64) =
        if ctx.smoke() {
            (&[1, 4], 4, 8 * 1024, 20_000)
        } else {
            (&[1, 2, 4, 8], 16, ctx.tree_size(1_000_000), 5_000)
        };

    let (art, keys) = ctx.build_art(n, 8, 2203);
    let index = Arc::new(ctx.cuart(&art));
    let dev = ctx.notebook();

    let policies: &[(&str, AdmissionPolicy, usize)] = &[
        ("block (128-op cap)", AdmissionPolicy::Block, QUEUE_CAP),
        ("reject (128-op cap)", AdmissionPolicy::Reject, QUEUE_CAP),
        ("no cap", AdmissionPolicy::Block, 0),
    ];
    for &(label, admission, queue_cap) in policies {
        let mut s = Series::new(label.to_string());
        for &p in producer_counts {
            let cfg = SchedulerConfig {
                batch_target: BATCH_TARGET,
                deadline: Duration::from_micros(200),
                admission,
                queue_cap,
                op_deadline: Some(Duration::from_micros(op_deadline)),
                ..SchedulerConfig::default()
            };
            let stats = run_cell(&index, &dev, &keys, p, requests_per_producer, cfg);
            s.push(p as f64, goodput_pct(&stats));
        }
        fig.series.push(s);
    }
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_fig_overload_has_three_policy_series() {
        let ctx =
            RunCtx::new(256, std::env::temp_dir().join("cuart-fig-overload")).with_smoke(true);
        let fig = fig_overload(&ctx);
        assert_eq!(fig.series.len(), 3);
        for s in &fig.series {
            assert_eq!(s.points.len(), 2, "one point per producer count: {s:?}");
            for &(_, y) in &s.points {
                assert!(
                    (0.0..=100.0).contains(&y),
                    "goodput is a fraction of offered load: {s:?}"
                );
            }
        }
        // The bounded-queue series must deliver at least as much of the
        // offered load as the uncapped control at the highest producer
        // count — that is the whole point of admission control.
        let at_max = |name: &str| {
            fig.series
                .iter()
                .find(|s| s.label.contains(name))
                .expect("series present")
                .points
                .last()
                .expect("points")
                .1
        };
        assert!(at_max("block") > 0.0, "block must deliver something");
        assert!(at_max("no cap") >= 0.0);
    }
}

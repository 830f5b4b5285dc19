//! The traced run: the workload's request stream through each layer in
//! turn — TCP server, in-process scheduler, direct session, bare
//! simulator — so the layers' latencies telescope to the end-to-end one.
//!
//! Passes, each on its own session:
//! 1. the workload's own path, untraced (the `trace.*` baseline);
//! 2. `NetServer` + `Scheduler` with a telemetry registry attached;
//! 3. the same client on an in-process `SchedulerClient`, counting the
//!    bytes their requests would take on the wire;
//! 4. a direct `CuartSession`, a fixed number of calls: on served
//!    workloads at the workload's observed mean fill, keys sorted as the
//!    scheduler sorts them; on session-lookup exactly the untraced run's
//!    stream, so the modeled counts repeat bit for bit;
//! 5. beside pass 4, in blocks, its lookup batches replayed through
//!    `pack_keys_into`, `CuartLookupKernel` and `launch_with_cache`, with
//!    the functional pass timed from inside the launch.

use crate::client::{Client, Kind, Record, Shape, Window};
use crate::conn::{SessionConn, WireCount};
use crate::data::{build, device, Data};
use crate::e2e::{connect, model_calls, start_server, stop_server};
use crate::replay::{Replayer, Split};
use crate::{Args, Metric, Output, Workload};
use cuart::CuartIndex;
use cuart_host::{Scheduler, SchedulerConfig};
use cuart_net::NetReport;
use cuart_telemetry::{names, Telemetry};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Keys the direct-session pass looks up, in fill-sized calls, so small
/// fills still give many samples.
const CORE_KEYS: usize = 512 * 1024;
/// Unmeasured direct-session calls on served workloads.
const CORE_WARM_CALLS: usize = 8;
/// Update, insert and range calls of the direct-session pass.
const CORE_WRITE_CALLS: usize = 16;

/// How far the replay's `gpu_sim.*` wall parts may exceed the session's
/// own `lookup_batch` wall time on session-lookup before the split is
/// refused: the session runs the same kernel plus its own work, so a
/// larger excess means the replay does not measure what the session does.
const SPLIT_TOLERANCE: f64 = 0.05;

struct NetPass {
    rec: Record,
    report: NetReport,
    response_bytes: u64,
}

fn net_pass(
    index: &Arc<CuartIndex>,
    data: &Data,
    w: &Workload,
    seed: u64,
    secs: f64,
    traced: bool,
) -> Result<NetPass, String> {
    let telemetry = traced.then(|| Arc::new(Telemetry::new()));
    let server = start_server(Arc::clone(index), telemetry.clone())?;
    let mut client = connect(&server, data, w, seed)?;
    let rec = client.run(w.warm_calls, window(secs), 0)?;
    drop(client);
    let report = stop_server(server)?;
    let response_bytes = telemetry.map_or(0, |t| t.counter(names::NET_BYTES_OUT).get());
    Ok(NetPass {
        rec,
        report,
        response_bytes,
    })
}

/// The in-process scheduler pass, and the bytes its requests would take
/// on the wire.
fn sched_pass(
    index: &Arc<CuartIndex>,
    data: &Data,
    w: &Workload,
    seed: u64,
    secs: f64,
) -> Result<(Record, u64), String> {
    let sched = Scheduler::spawn(Arc::clone(index), device(), SchedulerConfig::default());
    let conn = WireCount {
        inner: sched.client().map_err(|e| e.to_string())?,
        request_bytes: 0,
    };
    let mut client = Client::new(conn, data, w.shape, seed);
    let rec = client.run(w.warm_calls, window(secs), 0)?;
    let request_bytes = client.conn.request_bytes;
    drop(client);
    sched.join().map_err(|e| format!("scheduler join: {e}"))?;
    Ok((rec, request_bytes))
}

fn window(secs: f64) -> Window {
    Window {
        secs,
        min_calls: 0,
        modeled_calls: 0,
    }
}

pub fn run(args: &Args) -> Result<Output, String> {
    let w = args.workload;
    let dev = device();
    let (data, index, times) = build(args.seed);
    let index = Arc::new(index);
    let slice = args.seconds / 4.0;

    // 1. The workload's own path, untraced.
    let top = if w.serve {
        net_pass(&index, &data, w, args.seed, slice, false)?.rec
    } else {
        let session = index.device_session(&dev);
        Client::new(SessionConn::new(session), &data, w.shape, args.seed).run(
            w.warm_calls,
            window(slice),
            0,
        )?
    };
    // 2-3. Served, then in-process scheduler.
    let net = net_pass(&index, &data, w, args.seed, slice, true)?;
    let (sched_rec, request_bytes) = sched_pass(&index, &data, w, args.seed, slice)?;
    let stats = net.report.sched.aggregate();

    // 4. Direct session. Served workloads: batches at the workload's
    // observed mean fill; a fixed fill keeps the modeled counts
    // repeatable. session-lookup: its own stream.
    let (shape, warm, calls, modeled_calls) = if w.serve {
        let shape = Shape {
            keys: w.fill,
            sort: true,
        };
        let calls = CORE_KEYS / w.fill;
        (shape, CORE_WARM_CALLS, calls, calls)
    } else {
        (
            w.shape,
            w.warm_calls,
            CORE_KEYS / w.shape.keys,
            model_calls(w),
        )
    };
    let expect: HashMap<Vec<u8>, u64> = data
        .keys
        .iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), i as u64 + 1))
        .collect();
    let replayer = Replayer::new(&index, &dev, shape.keys, expect)?;
    let t = Instant::now();
    let session = index.device_session(&dev);
    let session_open_s = t.elapsed().as_secs_f64();
    let mut conn = SessionConn::new(session);
    conn.replay = Some(replayer);
    let mut core = Client::new(conn, &data, shape, args.seed);
    let core_window = Window {
        secs: 0.0,
        min_calls: calls,
        modeled_calls,
    };
    let core_rec = core.run(warm, core_window, CORE_WRITE_CALLS)?;
    let mut replayer = core.conn.replay.take().ok_or("replayer vanished")?;
    replayer.flush();
    if let Some(e) = replayer.error {
        return Err(e);
    }
    // 5. The measured batches' replay splits (warm-up batches come first).
    let mut split = Split::default();
    for s in &replayer.splits[replayer.splits.len().saturating_sub(calls)..] {
        split.add(s);
    }

    let p50 = |r: &Record, kind: Kind| r.latency(&[kind], 50.0);
    // The end-to-end lookup tail, reported here without a bound: host
    // stalls on a small shared machine swing it by more than any usable
    // bound between runs minutes apart.
    let p90_top = top.latency(&[Kind::Lookup], 90.0);
    let core_lookup_ms = p50(&core_rec, Kind::Lookup);
    let sched_ms = p50(&sched_rec, Kind::Lookup);
    let net_ms = p50(&net.rec, Kind::Lookup);
    let core_lookup_s: f64 = core_rec.lat(&[Kind::Lookup]).iter().sum::<f64>() / 1e3;
    let excess = split.total_s() / core_lookup_s - 1.0;
    if !w.serve && excess > SPLIT_TOLERANCE {
        return Err(format!(
            "the replay's gpu_sim parts exceed the session's lookup_batch wall time by {:.1}%",
            excess * 100.0
        ));
    }
    let other_s = (core_lookup_s - split.total_s()).max(0.0);
    // The traced end-to-end path, and the p50 its layers sum to.
    let (untraced_ops, traced_ops, layer_sum_ms) = if w.serve {
        (top.ops_per_s(), net.rec.ops_per_s(), net_ms)
    } else {
        // Pass 4's loop also runs the replay, so both sides count only
        // time inside calls.
        (
            top.lookup_ops_per_call_s(),
            core_rec.lookup_ops_per_call_s(),
            core_lookup_ms,
        )
    };
    let m = &core_rec.modeled;
    let keys = core_rec.modeled_keys as f64;
    let batches = stats.batches.max(1) as f64;
    let served_ops = net.rec.all_ops.max(1) as f64;
    let metrics = vec![
        Metric("art.build_s", times.art_build_s, "s"),
        Metric("core.map_s", times.map_s, "s"),
        Metric("core.session_open_s", session_open_s, "s"),
        Metric("core.lookup_batch_ms", core_lookup_ms, "ms"),
        Metric("core.update_batch_ms", p50(&core_rec, Kind::Update), "ms"),
        Metric("core.insert_batch_ms", p50(&core_rec, Kind::Insert), "ms"),
        Metric("core.range_batch_ms", p50(&core_rec, Kind::Range), "ms"),
        Metric("core.other_s", other_s, "s"),
        Metric("core.other_frac", other_s / core_lookup_s, "frac"),
        Metric("gpu_sim.pack_s", split.pack_s, "s"),
        Metric("gpu_sim.functional_s", split.functional_s, "s"),
        Metric("gpu_sim.timing_s", split.timing_s, "s"),
        Metric("gpu_sim.readback_s", split.readback_s, "s"),
        Metric(
            "gpu_sim.wall_ns_per_access",
            (split.functional_s + split.timing_s) * 1e9 / split.raw_accesses.max(1) as f64,
            "ns",
        ),
        Metric(
            "gpu_sim.raw_accesses_per_key",
            m.raw_accesses as f64 / keys,
            "count",
        ),
        Metric("gpu_sim.sectors_per_key", m.sectors as f64 / keys, "count"),
        Metric(
            "gpu_sim.dram_tx_per_key",
            m.dram_transactions as f64 / keys,
            "count",
        ),
        Metric("gpu_sim.l2_hit_rate", m.l2_hit_rate(), "frac"),
        Metric("gpu_sim.warp_efficiency", m.warp_efficiency(), "frac"),
        Metric(
            "gpu_sim.atomic_conflicts",
            core_rec.write_conflicts as f64,
            "count",
        ),
        Metric("gpu_sim.modeled_mops", keys / m.time_ns * 1e3, "MOps/s"),
        Metric("host.sched.req_p50_ms", sched_ms, "ms"),
        Metric("host.sched.overhead_ms", sched_ms - core_lookup_ms, "ms"),
        Metric("host.sched.batches", stats.batches as f64, "count"),
        Metric("host.sched.mean_fill", stats.mean_batch_fill(), "count"),
        Metric(
            "host.sched.deadline_flush_frac",
            stats.deadline_flushes as f64 / batches,
            "frac",
        ),
        Metric(
            "host.sched.max_queue_depth",
            stats.max_queue_depth as f64,
            "count",
        ),
        Metric("host.sched.shed_ops", stats.shed_ops as f64, "count"),
        Metric(
            "host.sched.rejected_ops",
            stats.rejected_ops as f64,
            "count",
        ),
        Metric(
            "host.sched.failed_batches",
            stats.failed_batches as f64,
            "count",
        ),
        Metric("net.overhead_us", (net_ms - sched_ms) * 1e3, "us"),
        Metric(
            "net.bytes_in_per_op",
            request_bytes as f64 / sched_rec.all_ops.max(1) as f64,
            "B",
        ),
        Metric(
            "net.bytes_out_per_op",
            net.response_bytes as f64 / served_ops,
            "B",
        ),
        Metric(
            "net.window_stalls",
            net.report.window_stalls as f64,
            "count",
        ),
        Metric("net.error_frames", net.report.error_frames as f64, "count"),
        Metric(
            "net.decode_errors",
            net.report.decode_errors as f64,
            "count",
        ),
        Metric(
            "trace.overhead_frac",
            1.0 - traced_ops / untraced_ops,
            "frac",
        ),
        Metric("trace.lookup_p90_ms", p90_top, "ms"),
        Metric(
            "trace.residual_ms",
            p50(&top, Kind::Lookup) - layer_sum_ms,
            "ms",
        ),
    ];
    let recs = [&top, &net.rec, &sched_rec, &core_rec];
    Ok(Output {
        attempted: recs.iter().map(|r| r.attempted).sum(),
        failed: recs.iter().map(|r| r.failed).sum(),
        metrics,
    })
}

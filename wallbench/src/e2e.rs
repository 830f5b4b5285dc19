//! The untraced run: set up, warm up, one timed window, end-to-end metrics.

use crate::affinity;
use crate::client::{Client, Kind, Record, Window};
use crate::conn::{NetConn, SessionConn};
use crate::data::{build, device, Data};
use crate::{peak_rss_mib, percentile, Args, Metric, Output, Workload};
use cuart::CuartIndex;
use cuart_host::{Scheduler, SchedulerConfig};
use cuart_net::{NetClient, NetReport, NetServer, NetServerConfig};
use cuart_telemetry::Telemetry;
use std::sync::Arc;
use std::time::Instant;

/// Independent rounds per run, each with its own set-up, warm-up, window
/// of `--seconds / ROUNDS` and tail. Each round gets a fresh session and,
/// when served, fresh server threads and sockets, so one unlucky thread
/// placement is one round of many, not the whole run.
const ROUNDS: usize = 12;
/// Keys of the lookup calls whose modeled kernel time gives
/// `modeled_mops`: a fixed count, so the value repeats exactly.
const MODEL_KEYS: usize = 128 * 1024;

/// Lookup calls that make up [`MODEL_KEYS`] on workload `w`.
pub fn model_calls(w: &Workload) -> usize {
    MODEL_KEYS / w.shape.keys
}

/// What one round measured.
struct Round {
    rec: Record,
    setup_s: f64,
    /// session-lookup only; served workloads take theirs from
    /// [`served_modeled_mops`].
    modeled_mops: Option<f64>,
}

/// The rounds of one slot.
#[derive(Default)]
struct Slot {
    rec: Record,
    setup_s: Vec<f64>,
    ops_per_s: Vec<f64>,
}

/// session-lookup runs its rounds in turn on each CPU it may use, one slot
/// per CPU (see [`affinity`]); a served workload's threads move between
/// CPUs by themselves, so its rounds share one unpinned slot. Each metric
/// is the mean over slots of the slot's figure: latency percentiles pool
/// every call of the slot's rounds, and `setup_s` and `ops_per_s` are
/// medians over them, so a round that a host stall slowed does not move
/// them. `modeled_mops` is the median over all rounds, which keeps its
/// exact value exact.
pub fn run(args: &Args) -> Result<Output, String> {
    let w = args.workload;
    let calls = if w.serve { 0 } else { model_calls(w) };
    let window = Window {
        secs: args.seconds / ROUNDS as f64,
        min_calls: calls,
        modeled_calls: calls,
    };
    let cpus = if w.serve {
        Vec::new()
    } else {
        affinity::allowed()
    };
    let mut slots: Vec<Slot> = (0..cpus.len().clamp(1, ROUNDS))
        .map(|_| Slot::default())
        .collect();
    let mut modeled = Vec::new();
    for r in 0..ROUNDS {
        let i = r % slots.len();
        // A refused pin leaves the round unpinned: still measured, only
        // less evenly spread.
        if let Some(&cpu) = cpus.get(i) {
            affinity::set(&[cpu]);
        }
        let round = round(w, args.seed, window)?;
        let slot = &mut slots[i];
        slot.setup_s.push(round.setup_s);
        slot.ops_per_s.push(round.rec.ops_per_s());
        slot.rec.merge(round.rec);
        modeled.extend(round.modeled_mops);
    }
    if !cpus.is_empty() {
        affinity::set(&cpus);
    }
    let modeled_mops = if w.serve {
        served_modeled_mops(w, args.seed)?
    } else {
        percentile(&modeled, 50.0)
    };
    let mean = |f: &dyn Fn(&Slot) -> f64| slots.iter().map(f).sum::<f64>() / slots.len() as f64;
    let lat = |kinds: &[Kind]| mean(&|s: &Slot| s.rec.latency(kinds, 50.0));
    let (attempted, failed) = slots
        .iter()
        .fold((0, 0), |(a, f), s| (a + s.rec.attempted, f + s.rec.failed));
    let metrics = vec![
        Metric("setup_s", mean(&|s| percentile(&s.setup_s, 50.0)), "s"),
        Metric(
            "ops_per_s",
            mean(&|s| percentile(&s.ops_per_s, 50.0)),
            "1/s",
        ),
        Metric("lookup_p50_ms", lat(&[Kind::Lookup]), "ms"),
        Metric("write_p50_ms", lat(&[Kind::Update, Kind::Insert]), "ms"),
        Metric("range_p50_ms", lat(&[Kind::Range]), "ms"),
        Metric("modeled_mops", modeled_mops, "MOps/s"),
        Metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        Metric(
            "ok_rate",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "frac",
        ),
    ];
    Ok(Output {
        attempted,
        failed,
        metrics,
    })
}

/// One round. Set-up ends at the first warm-up reply; the window starts
/// after the rest of the warm-up.
fn round(w: &Workload, seed: u64, window: Window) -> Result<Round, String> {
    let t0 = Instant::now();
    let (data, index, _) = build(seed);
    if w.serve {
        let server = start_server(Arc::new(index), None)?;
        let mut client = connect(&server, &data, w, seed)?;
        client.warm(1)?;
        let setup_s = t0.elapsed().as_secs_f64();
        let rec = client.run(w.warm_calls, window, w.tail_calls)?;
        drop(client);
        stop_server(server)?;
        return Ok(Round {
            rec,
            setup_s,
            modeled_mops: None,
        });
    }
    let session = index.device_session(&device());
    let mut client = Client::new(SessionConn::new(session), &data, w.shape, seed);
    client.warm(1)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let rec = client.run(w.warm_calls - 1, window, w.tail_calls)?;
    let modeled_mops = rec.modeled_keys as f64 / rec.modeled.time_ns * 1e3;
    Ok(Round {
        rec,
        setup_s,
        modeled_mops: Some(modeled_mops),
    })
}

/// `modeled_mops` of a served workload: the client's first
/// [`model_calls`] lookups on a server of their own. The scheduler's totals
/// then cover a fixed sequence of batches, one request each, so the value
/// repeats exactly for a seed; the rounds' own totals would mix in a
/// number of window batches that depends on the host's speed.
fn served_modeled_mops(w: &Workload, seed: u64) -> Result<f64, String> {
    let (data, index, _) = build(seed);
    let server = start_server(Arc::new(index), None)?;
    let mut client = connect(&server, &data, w, seed)?;
    let warmed = client.warm(model_calls(w));
    drop(client);
    let report = stop_server(server)?;
    warmed?;
    let stats = report.sched.aggregate();
    Ok(stats.keys_dispatched as f64 / stats.kernel_time_ns * 1e3)
}

/// A default `Scheduler` behind a default `NetServer` on a loopback port.
pub fn start_server(
    index: Arc<CuartIndex>,
    telemetry: Option<Arc<Telemetry>>,
) -> Result<NetServer, String> {
    let sched = Scheduler::spawn(index, device(), SchedulerConfig::default());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    NetServer::serve_single(listener, sched, telemetry, NetServerConfig::default())
        .map_err(|e| format!("serve: {e}"))
}

/// Drain the server and return its report.
pub fn stop_server(server: NetServer) -> Result<NetReport, String> {
    server.shutdown_handle().shutdown();
    server.join().map_err(|e| format!("server drain: {e}"))
}

pub fn connect<'d>(
    server: &NetServer,
    data: &'d Data,
    w: &Workload,
    seed: u64,
) -> Result<Client<'d, NetConn>, String> {
    let conn = NetClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    Ok(Client::new(NetConn(conn), data, w.shape, seed))
}

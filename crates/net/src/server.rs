//! Backpressure-aware multi-threaded TCP server.
//!
//! The server owns a [`Scheduler`] — one device or a sharded fleet — and
//! serves the wire protocol from [`proto`] over any number of
//! connections:
//!
//! * **Per connection**: a reader thread decodes frames and feeds a
//!   *bounded* in-flight window (a `sync_channel` of
//!   [`NetServerConfig::window`] slots); when the window is full the
//!   reader blocks, which stops draining the socket, which backs the TCP
//!   flow-control window up to the client. Overload never silently drops
//!   a connection — backend refusals ([`SchedError`]) come back as typed
//!   error frames.
//! * A small worker pool per connection executes the blocking scheduler
//!   calls, so responses complete (and are written) out of order; the
//!   client matches them by request id.
//! * A writer thread serializes response frames; it is the only writer,
//!   so frames never interleave.
//! * **Malformed input** (bad magic, wrong version, CRC mismatch,
//!   truncated or oversized frames) is answered with a typed error frame
//!   and *that one connection* is closed; the server survives.
//! * **Drain-safe shutdown** ([`ShutdownHandle::shutdown`] or a remote
//!   [`Op::Shutdown`](crate::proto::Op::Shutdown) frame when enabled):
//!   stop accepting, stop reading new frames, finish every admitted
//!   request, flush writers, then `join()` the scheduler so its own FIFO
//!   drain contract applies. [`names::NET_DRAINED`] flips to 1.0 only
//!   after all of that succeeded.

use crate::proto::{self, ErrorCode, Op, RespBody, Response, WireError};
use cuart_host::scheduler::{self as sched, Answer};
use cuart_host::{SchedError, Scheduler, SchedulerClient, ShardedStats};
use cuart_telemetry::{names, SpanNode, Telemetry};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Per-connection in-flight window: at most this many decoded
    /// requests may be queued or executing at once; beyond it the reader
    /// stops draining the socket (TCP backpressure).
    pub window: usize,
    /// Worker threads per connection executing blocking scheduler calls;
    /// also the maximum out-of-order depth of responses.
    pub workers: usize,
    /// Poll tick for reads and accepts; shutdown latency is bounded by
    /// this (it is a poll interval, not a hard idle cutoff).
    pub tick: Duration,
    /// Close a connection that has sent no frame for this long.
    /// `None` keeps idle connections open until shutdown.
    pub idle_timeout: Option<Duration>,
    /// Honor the wire [`Op::Shutdown`](crate::proto::Op::Shutdown)
    /// opcode. Meant for drills and tests; defaults to off so a stray
    /// client cannot stop a server.
    pub allow_remote_shutdown: bool,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            window: 32,
            workers: 2,
            tick: Duration::from_millis(20),
            idle_timeout: None,
            allow_remote_shutdown: false,
        }
    }
}

/// Counters shared by every thread of one server.
#[derive(Default)]
struct NetCounters {
    accepted: AtomicU64,
    open: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    decode_errors: AtomicU64,
    error_frames: AtomicU64,
    window_stalls: AtomicU64,
    served_ops: AtomicU64,
}

/// Final report of a drained server (see [`NetServer::join`]).
#[derive(Debug)]
pub struct NetReport {
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Point/range operations answered with an OK frame.
    pub served_ops: u64,
    /// Frames read (requests decoded or attempted).
    pub frames_in: u64,
    /// Frames written (responses, OK or error).
    pub frames_out: u64,
    /// Wire-level decode failures (each also closed its connection).
    pub decode_errors: u64,
    /// Typed error frames sent (decode failures + backend refusals).
    pub error_frames: u64,
    /// Times a connection's in-flight window was full when a frame
    /// arrived (reader blocked → TCP backpressure).
    pub window_stalls: u64,
    /// The drained scheduler's own per-shard statistics.
    pub sched: ShardedStats,
}

/// Requests the server's drain-safe shutdown from any thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Begin the drain: stop accepting, finish in-flight work, join the
    /// scheduler. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// A running server; see the [module docs](self) for the thread layout.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: JoinHandle<()>,
    sched: Scheduler,
    counters: Arc<NetCounters>,
    telemetry: Option<Arc<Telemetry>>,
}

impl NetServer {
    /// Serve a [`Scheduler`], whatever its shard count.
    pub fn serve_single(
        listener: TcpListener,
        sched: Scheduler,
        telemetry: Option<Arc<Telemetry>>,
        cfg: NetServerConfig,
    ) -> io::Result<NetServer> {
        let client = sched
            .client()
            .map_err(|e| io::Error::other(e.to_string()))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(NetCounters::default());
        if let Some(t) = &telemetry {
            t.gauge_set(names::NET_DRAINED, 0.0);
            t.gauge_set(names::NET_CONNECTIONS, 0.0);
        }
        let accept = {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let telemetry = telemetry.clone();
            std::thread::Builder::new()
                .name("net-accept".into())
                .spawn(move || {
                    accept_loop(listener, stop, client, counters, telemetry, cfg);
                })?
        };
        Ok(NetServer {
            addr,
            stop,
            accept,
            sched,
            counters,
            telemetry,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can request shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            stop: Arc::clone(&self.stop),
        }
    }

    /// Block until a shutdown is requested (via [`Self::shutdown_handle`]
    /// or a remote shutdown frame), drain every connection's in-flight
    /// work, join the scheduler, and return the final report.
    pub fn join(self) -> Result<NetReport, SchedError> {
        // The accept thread owns the per-connection threads and joins
        // them before exiting, so this blocks until all in-flight
        // requests have been answered and flushed.
        if self.accept.join().is_err() {
            return Err(SchedError::ExecutorPanicked("net accept thread".into()));
        }
        let sched = self.sched.join()?;
        if let Some(t) = &self.telemetry {
            t.gauge_set(names::NET_DRAINED, 1.0);
            t.gauge_set(names::NET_CONNECTIONS, 0.0);
        }
        let c = &self.counters;
        Ok(NetReport {
            accepted: c.accepted.load(Ordering::Relaxed),
            served_ops: c.served_ops.load(Ordering::Relaxed),
            frames_in: c.frames_in.load(Ordering::Relaxed),
            frames_out: c.frames_out.load(Ordering::Relaxed),
            decode_errors: c.decode_errors.load(Ordering::Relaxed),
            error_frames: c.error_frames.load(Ordering::Relaxed),
            window_stalls: c.window_stalls.load(Ordering::Relaxed),
            sched,
        })
    }
}

fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    client: SchedulerClient,
    counters: Arc<NetCounters>,
    telemetry: Option<Arc<Telemetry>>,
    cfg: NetServerConfig,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                counters.accepted.fetch_add(1, Ordering::Relaxed);
                let open = counters.open.fetch_add(1, Ordering::Relaxed) + 1;
                if let Some(t) = &telemetry {
                    t.incr(names::NET_ACCEPTED, 1);
                    t.gauge_set(names::NET_CONNECTIONS, open as f64);
                }
                let ctx = ConnCtx {
                    stop: Arc::clone(&stop),
                    client: client.clone(),
                    counters: Arc::clone(&counters),
                    telemetry: telemetry.clone(),
                    cfg: cfg.clone(),
                };
                let h = std::thread::Builder::new()
                    .name("net-conn".into())
                    .spawn(move || connection(stream, ctx));
                match h {
                    Ok(h) => conns.push(h),
                    Err(_) => {
                        counters.open.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                // Reap finished connections so the handle list stays small.
                conns.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(cfg.tick.min(Duration::from_millis(5)));
            }
            Err(_) => std::thread::sleep(cfg.tick),
        }
    }
    // Drain: every connection finishes its admitted requests and exits.
    for h in conns {
        let _ = h.join();
    }
}

/// Everything a connection's threads need.
struct ConnCtx {
    stop: Arc<AtomicBool>,
    client: SchedulerClient,
    counters: Arc<NetCounters>,
    telemetry: Option<Arc<Telemetry>>,
    cfg: NetServerConfig,
}

/// Read exactly `buf.len()` bytes, tolerating read-timeout ticks so the
/// stop flag stays responsive. Partial progress is kept across ticks.
/// Returns `Ok(false)` on clean EOF *before any byte* of `buf`.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    stop: &AtomicBool,
    idle_timeout: Option<Duration>,
    started: &mut Instant,
) -> io::Result<bool> {
    let mut filled = 0;
    let mut stop_seen: Option<Instant> = None;
    while filled < buf.len() {
        // Once draining, stop reading *new* frames; a frame we are midway
        // through gets a short grace to finish arriving, then the
        // connection closes (its request was never admitted).
        if stop.load(Ordering::SeqCst) {
            if filled == 0 {
                return Ok(false);
            }
            let since = *stop_seen.get_or_insert_with(Instant::now);
            if since.elapsed() > Duration::from_millis(500) {
                return Ok(false);
            }
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                };
            }
            Ok(n) => {
                filled += n;
                *started = Instant::now();
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if let Some(idle) = idle_timeout {
                    if filled == 0 && started.elapsed() > idle {
                        return Ok(false);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// One admitted unit of work handed to the worker pool.
struct Job {
    req: proto::Request,
    t0: Instant,
}

fn connection(mut stream: TcpStream, ctx: ConnCtx) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(ctx.cfg.tick));
    let outcome = connection_inner(&mut stream, &ctx);
    let open = ctx.counters.open.fetch_sub(1, Ordering::Relaxed) - 1;
    if let Some(t) = &ctx.telemetry {
        t.gauge_set(names::NET_CONNECTIONS, open as f64);
    }
    // Socket errors mid-connection (including client disconnects) end
    // that one connection only; nothing to escalate.
    let _ = outcome;
}

fn connection_inner(stream: &mut TcpStream, ctx: &ConnCtx) -> io::Result<()> {
    // --- Handshake: exchange hellos before any frame. -----------------
    let mut started = Instant::now();
    let mut hello = [0u8; proto::HELLO_BYTES];
    if !read_full(
        stream,
        &mut hello,
        &ctx.stop,
        ctx.cfg.idle_timeout,
        &mut started,
    )? {
        return Ok(());
    }
    note_bytes_in(ctx, hello.len());
    if let Err(e) = proto::decode_hello(&hello) {
        // Answer with a typed error frame (id 0: no request exists yet)
        // and close; the server survives bad peers.
        note_decode_error(ctx, &e);
        let resp = Response {
            id: 0,
            body: RespBody::Error(proto::wire_error_code(&e), e.to_string()),
        };
        write_response(stream, &resp, ctx)?;
        return Ok(());
    }
    let our_hello = proto::encode_hello(proto::VERSION);
    stream.write_all(&our_hello)?;

    // --- Per-connection pipeline: reader (this thread) → bounded window
    // → workers → writer. --------------------------------------------
    let window = ctx.cfg.window.max(1);
    let (work_tx, work_rx) = sync_channel::<Job>(window);
    let work_rx = Arc::new(Mutex::new(work_rx));
    let (resp_tx, resp_rx) = std::sync::mpsc::channel::<Vec<u8>>();

    let writer = {
        let mut out = stream.try_clone()?;
        let counters = Arc::clone(&ctx.counters);
        let telemetry = ctx.telemetry.clone();
        std::thread::Builder::new()
            .name("net-writer".into())
            .spawn(move || writer_loop(&mut out, resp_rx, counters, telemetry))?
    };

    let mut workers = Vec::new();
    for _ in 0..ctx.cfg.workers.max(1) {
        let work_rx = Arc::clone(&work_rx);
        let resp_tx = resp_tx.clone();
        let client = ctx.client.clone();
        let stop = Arc::clone(&ctx.stop);
        let counters = Arc::clone(&ctx.counters);
        let telemetry = ctx.telemetry.clone();
        let allow_shutdown = ctx.cfg.allow_remote_shutdown;
        workers.push(
            std::thread::Builder::new()
                .name("net-worker".into())
                .spawn(move || {
                    worker_loop(
                        work_rx,
                        resp_tx,
                        client,
                        stop,
                        counters,
                        telemetry,
                        allow_shutdown,
                    )
                })?,
        );
    }
    drop(resp_tx);

    let read_outcome = reader_loop(stream, ctx, &work_tx, &mut started);

    // Close the window: workers drain queued jobs, then their response
    // senders drop, then the writer flushes and exits. Every admitted
    // request is answered before the connection tears down.
    drop(work_tx);
    for w in workers {
        let _ = w.join();
    }
    let _ = writer.join();
    read_outcome
}

fn reader_loop(
    stream: &mut TcpStream,
    ctx: &ConnCtx,
    work_tx: &SyncSender<Job>,
    started: &mut Instant,
) -> io::Result<()> {
    let mut header = [0u8; proto::FRAME_HEADER_BYTES];
    loop {
        if !read_full(
            stream,
            &mut header,
            &ctx.stop,
            ctx.cfg.idle_timeout,
            started,
        )? {
            return Ok(());
        }
        let t0 = Instant::now();
        note_bytes_in(ctx, header.len());
        let decoded = proto::decode_frame_header(&header).and_then(|(len, crc)| {
            let mut payload = vec![0u8; len];
            if !read_full(stream, &mut payload, &ctx.stop, None, started)? {
                // EOF mid-frame: treat as truncation.
                return Err(WireError::Truncated);
            }
            note_bytes_in(ctx, len);
            proto::check_frame_crc(&payload, crc)?;
            proto::decode_request(&payload)
        });
        ctx.counters.frames_in.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &ctx.telemetry {
            t.incr(names::NET_FRAMES_IN, 1);
        }
        let req = match decoded {
            Ok(req) => req,
            Err(e) => {
                note_decode_error(ctx, &e);
                let resp = Response {
                    id: 0,
                    body: RespBody::Error(proto::wire_error_code(&e), e.to_string()),
                };
                write_response(stream, &resp, ctx)?;
                // A peer whose framing we cannot trust gets its
                // connection closed; everyone else is unaffected.
                return Ok(());
            }
        };
        // Bounded in-flight window. A full window blocks the reader —
        // that *is* the backpressure (the socket stops draining).
        let job = Job { req, t0 };
        match work_tx.try_send(job) {
            Ok(()) => {}
            Err(TrySendError::Full(job)) => {
                ctx.counters.window_stalls.fetch_add(1, Ordering::Relaxed);
                if let Some(t) = &ctx.telemetry {
                    t.incr(names::NET_WINDOW_STALLS, 1);
                }
                if work_tx.send(job).is_err() {
                    return Ok(());
                }
            }
            Err(TrySendError::Disconnected(_)) => return Ok(()),
        }
    }
}

/// `read_full` for the payload leg, mapped into `WireError` so it can
/// join the decode pipeline.
impl From<io::Error> for WireError {
    fn from(_: io::Error) -> WireError {
        WireError::Truncated
    }
}

fn worker_loop(
    work_rx: Arc<Mutex<Receiver<Job>>>,
    resp_tx: std::sync::mpsc::Sender<Vec<u8>>,
    client: SchedulerClient,
    stop: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    telemetry: Option<Arc<Telemetry>>,
    allow_shutdown: bool,
) {
    loop {
        let job = {
            let rx = work_rx.lock().expect("net work queue lock");
            rx.recv()
        };
        let Ok(job) = job else { return };
        let id = job.req.id;
        let ops = job.req.op.ops() as u64;
        let opcode = job.req.op.opcode();
        let body = execute(job.req, &client, &stop, allow_shutdown);
        let ok = !matches!(body, RespBody::Error(..));
        if ok {
            counters.served_ops.fetch_add(ops, Ordering::Relaxed);
        } else {
            counters.error_frames.fetch_add(1, Ordering::Relaxed);
        }
        let wall_ns = job.t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if let Some(t) = &telemetry {
            if !ok {
                t.incr(names::NET_ERROR_FRAMES, 1);
            }
            t.observe(names::NET_REQUEST_NS, wall_ns);
            let span = SpanNode::leaf(names::spans::NET_REQUEST, wall_ns)
                .with_attr("op", opcode.as_str())
                .with_attr("ops", ops)
                .with_attr("ok", ok);
            t.record_span_tree(&span);
        }
        let resp = Response { id, body };
        let Ok(payload) = proto::encode_response(&resp) else {
            return;
        };
        if resp_tx.send(proto::encode_frame(&payload)).is_err() {
            // Writer is gone (client disconnected): the backend call
            // already completed and released its scheduler slots, so the
            // result is simply dropped.
            return;
        }
    }
}

/// Execute one decoded request against the scheduler.
fn execute(
    req: proto::Request,
    client: &SchedulerClient,
    stop: &AtomicBool,
    allow_shutdown: bool,
) -> RespBody {
    let op = match req.op {
        Op::Lookup(keys) => sched::Op::Lookup(keys),
        Op::Update(ops) => sched::Op::Update(ops),
        Op::Insert(ops) => sched::Op::Insert(ops),
        Op::Range(ranges) => sched::Op::Range(ranges),
        Op::Ping => return RespBody::Ok,
        Op::Shutdown if allow_shutdown => {
            stop.store(true, Ordering::SeqCst);
            return RespBody::Ok;
        }
        Op::Shutdown => {
            return RespBody::Error(ErrorCode::Unsupported, "remote shutdown disabled".into())
        }
    };
    let deadline =
        (req.deadline_us != 0).then(|| Duration::from_micros(u64::from(req.deadline_us)));
    match client.submit(sched::Request { op, deadline }) {
        Ok(Answer::Values(values)) => RespBody::Values(values),
        Ok(Answer::Rows(rows)) => RespBody::Rows(rows),
        Err(e) => RespBody::Error(proto::error_code_of(&e), e.to_string()),
    }
}

fn writer_loop(
    out: &mut TcpStream,
    resp_rx: std::sync::mpsc::Receiver<Vec<u8>>,
    counters: Arc<NetCounters>,
    telemetry: Option<Arc<Telemetry>>,
) {
    while let Ok(frame) = resp_rx.recv() {
        if out.write_all(&frame).is_err() {
            // Client is gone; keep draining so workers never block on a
            // full response channel (it is unbounded, but be tidy).
            continue;
        }
        counters.frames_out.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &telemetry {
            t.incr(names::NET_FRAMES_OUT, 1);
            t.incr(names::NET_BYTES_OUT, frame.len() as u64);
        }
    }
    let _ = out.flush();
}

fn note_bytes_in(ctx: &ConnCtx, n: usize) {
    if let Some(t) = &ctx.telemetry {
        t.incr(names::NET_BYTES_IN, n as u64);
    }
}

fn note_decode_error(ctx: &ConnCtx, e: &WireError) {
    ctx.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
    let _ = e;
    if let Some(t) = &ctx.telemetry {
        t.incr(names::NET_DECODE_ERRORS, 1);
    }
}

/// Serialize and send one response frame directly from the reader thread
/// (used for handshake/decode failures that bypass the worker pool).
fn write_response(stream: &mut TcpStream, resp: &Response, ctx: &ConnCtx) -> io::Result<()> {
    ctx.counters.error_frames.fetch_add(1, Ordering::Relaxed);
    if let Some(t) = &ctx.telemetry {
        t.incr(names::NET_ERROR_FRAMES, 1);
    }
    let payload = proto::encode_response(resp)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let frame = proto::encode_frame(&payload);
    stream.write_all(&frame)?;
    ctx.counters.frames_out.fetch_add(1, Ordering::Relaxed);
    if let Some(t) = &ctx.telemetry {
        t.incr(names::NET_FRAMES_OUT, 1);
        t.incr(names::NET_BYTES_OUT, frame.len() as u64);
    }
    Ok(())
}

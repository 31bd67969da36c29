//! RPC servers: in-process and TCP.
//!
//! The in-process server is the workhorse of the single-machine DCPerf-RS
//! benchmarks (the paper's benchmarks run all components on one server in
//! most cases); requests still traverse real serialization, so the RPC
//! datacenter tax is paid. The TCP server provides the distributed
//! deployment shape for the benchmarks whose clients run on other
//! machines.
//!
//! Both servers route each request by its [`Lane`], as memcached and
//! TAO do: a fast-lane request (a cache hit) is served on the thread that
//! delivered it — the in-process caller, or the TCP connection's reader
//! — and only slow-lane work (a miss that goes to the database) is
//! queued to the server's [`ThreadPool`] and may complete out of order.

use crate::frame::{append_frame_with, Request, Response, MAX_FRAME};
use crate::pipeline::{InflightGuard, PipelineConfig, PipelineStats};
use crate::pool::{self, BatchEnd, Lane, PoolConfig, ThreadPool};
use crate::stats::RpcStats;
use dcperf_resilience::Deadline;
use dcperf_util::BoundedQueue;
use std::cell::Cell;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The server-side request handler.
pub type Handler = dyn Fn(&Request) -> Response + Send + Sync + 'static;

/// Routes a request to a [`Lane`]: served inline, or queued to the pool.
pub type Classifier = dyn Fn(&Request) -> Lane + Send + Sync + 'static;

pub(crate) struct ServerCore {
    pub(crate) handler: Arc<Handler>,
    pub(crate) classifier: Arc<Classifier>,
    pub(crate) pool: ThreadPool,
    pub(crate) stats: Arc<RpcStats>,
    pub(crate) pipeline: Arc<PipelineStats>,
    pub(crate) pipeline_cfg: PipelineConfig,
    pub(crate) telemetry: dcperf_telemetry::Telemetry,
    /// Fault injector applied on the dispatch path (chaos scenarios only).
    #[cfg(feature = "fault-injection")]
    pub(crate) fault_plan: Mutex<Option<Arc<dcperf_resilience::FaultPlan>>>,
}

/// Builds the shed response for a request whose deadline has expired.
fn expired_response(corr: u64) -> Response {
    Response {
        corr,
        ..Response::deadline_exceeded()
    }
}

impl ServerCore {
    fn new(
        handler: Arc<Handler>,
        classifier: Arc<Classifier>,
        config: PoolConfig,
        pipeline_cfg: PipelineConfig,
    ) -> Self {
        // One registry per server: transport counters (`rpc.*`), pool
        // counters (`rpc.pool.*`), and pipelining depth (`rpc.pipeline.*`,
        // `rpc.batch.*`) land in the same snapshot.
        let telemetry = dcperf_telemetry::Telemetry::new();
        Self {
            handler,
            classifier,
            pool: ThreadPool::with_telemetry(config, &telemetry),
            stats: Arc::new(RpcStats::with_telemetry(
                &telemetry,
                dcperf_telemetry::metrics::PREFIX_RPC,
            )),
            pipeline: Arc::new(PipelineStats::with_telemetry(&telemetry)),
            pipeline_cfg,
            telemetry,
            #[cfg(feature = "fault-injection")]
            fault_plan: Mutex::new(None),
        }
    }

    #[cfg(feature = "fault-injection")]
    pub(crate) fn install_fault_plan(&self, plan: Option<Arc<dcperf_resilience::FaultPlan>>) {
        if let Ok(mut slot) = self.fault_plan.lock() {
            *slot = plan;
        }
    }

    /// Dispatches a request. A [`Lane::Fast`] job runs here, on the thread
    /// that delivered the request; a [`Lane::Slow`] job is queued to the
    /// pool, waiting for queue space. `reply` receives the response.
    ///
    /// Returns the request when it was answered here, so the caller can
    /// decode the next one into it; a queued job keeps it.
    pub(crate) fn dispatch(
        &self,
        req: Request,
        reply: impl FnOnce(Response) + Send + 'static,
    ) -> Option<Request> {
        // Pin the wire budget (relative microseconds) to an absolute
        // instant the moment the request enters the server.
        let deadline = (req.deadline_us > 0).then(|| Deadline::from_budget_us(req.deadline_us));
        // Shed already-expired work before it costs anything more.
        if deadline.is_some_and(|d| d.expired()) {
            self.stats.record_deadline_shed();
            reply(expired_response(req.corr));
            return Some(req);
        }
        #[cfg(feature = "fault-injection")]
        let plan = self.fault_plan.lock().ok().and_then(|slot| slot.clone());
        match (self.classifier)(&req) {
            Lane::Fast => {
                self.pool.stats().record_fast_job();
                serve(
                    &*self.handler,
                    &self.stats,
                    #[cfg(feature = "fault-injection")]
                    plan.as_deref(),
                    deadline,
                    &req,
                    reply,
                );
                Some(req)
            }
            Lane::Slow => {
                let handler = Arc::clone(&self.handler);
                let stats = Arc::clone(&self.stats);
                // A shut-down pool drops the job, and `reply` with it; the
                // caller observes the dropped reply as overload.
                let _ = self.pool.spawn(move || {
                    serve(
                        &*handler,
                        &stats,
                        #[cfg(feature = "fault-injection")]
                        plan.as_deref(),
                        deadline,
                        &req,
                        reply,
                    );
                });
                None
            }
        }
    }
}

/// Runs one request's job wherever its lane put it: the handler-entry
/// deadline check, fault injection, then the handler itself.
fn serve(
    handler: &Handler,
    stats: &RpcStats,
    #[cfg(feature = "fault-injection")] plan: Option<&dcperf_resilience::FaultPlan>,
    deadline: Option<Deadline>,
    req: &Request,
    reply: impl FnOnce(Response),
) {
    let corr = req.corr;
    // Re-check at handler entry: classification and queueing may have
    // consumed the whole budget, and a reply the client already gave up
    // on is pure waste.
    if deadline.is_some_and(|d| d.expired()) {
        stats.record_deadline_shed();
        reply(expired_response(corr));
        return;
    }
    #[cfg(feature = "fault-injection")]
    if let Some(plan) = plan {
        use dcperf_resilience::FaultOutcome;
        let injected = match plan.apply() {
            FaultOutcome::Pass => None,
            FaultOutcome::Error => Some(Response::error("injected fault")),
            FaultOutcome::Overload => Some(Response::overloaded()),
        };
        if let Some(mut resp) = injected {
            resp.corr = corr;
            reply(resp);
            return;
        }
        // Injected latency may have burned the remaining budget.
        if deadline.is_some_and(|d| d.expired()) {
            stats.record_deadline_shed();
            reply(expired_response(corr));
            return;
        }
    }
    let mut resp = handler(req);
    resp.corr = corr;
    reply(resp);
}

/// An in-process RPC server: clients and server share the process, but
/// every call pays serialization. Fast-lane calls run on the caller's
/// thread; slow-lane calls also pay queueing and a cross-thread hand-off.
///
/// # Examples
///
/// See the [crate-level example](crate).
pub struct InProcServer {
    core: Arc<ServerCore>,
}

impl std::fmt::Debug for InProcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcServer")
            .field("workers", &self.core.pool.worker_count())
            .finish()
    }
}

impl InProcServer {
    /// Starts the server with every request routed to the fast lane.
    pub fn start<H>(handler: H, config: PoolConfig) -> Self
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        Self::start_with_classifier(handler, |_| Lane::Fast, config)
    }

    /// Starts the server with a fast/slow classifier (TAO-style).
    pub fn start_with_classifier<H, C>(handler: H, classifier: C, config: PoolConfig) -> Self
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
        C: Fn(&Request) -> Lane + Send + Sync + 'static,
    {
        Self {
            core: Arc::new(ServerCore::new(
                Arc::new(handler),
                Arc::new(classifier),
                config,
                PipelineConfig::default(),
            )),
        }
    }

    /// Creates a client handle. Handles are cheap to clone and share.
    pub fn client(&self) -> crate::client::InProcClient {
        crate::client::InProcClient::new(Arc::clone(&self.core))
    }

    /// Transport counters (shared with all clients).
    pub fn stats(&self) -> &RpcStats {
        &self.core.stats
    }

    /// Pipelining depth and batching telemetry (`rpc.pipeline.*`,
    /// `rpc.batch.*`), shared with in-process pipelined clients.
    pub fn pipeline(&self) -> &PipelineStats {
        &self.core.pipeline
    }

    /// The server's telemetry registry (`rpc.*` transport counters and
    /// `rpc.pool.*` lane counters). Snapshot it to observe everything the
    /// server recorded.
    pub fn telemetry(&self) -> &dcperf_telemetry::Telemetry {
        &self.core.telemetry
    }

    /// Installs (or clears, with `None`) a [`dcperf_resilience::FaultPlan`]
    /// applied to every dispatched request: injected latency is paid on
    /// the thread that runs the job (the delivering thread for the fast
    /// lane, a pool worker for the slow lane), injected errors and
    /// overloads short-circuit the handler. Only compiled with the
    /// `fault-injection` feature, so the default hot path carries no
    /// injector branch.
    #[cfg(feature = "fault-injection")]
    pub fn install_fault_plan(&self, plan: Option<Arc<dcperf_resilience::FaultPlan>>) {
        self.core.install_fault_plan(plan);
    }

    /// Shuts the pool down, draining queued requests.
    pub fn shutdown(self) {
        // Last handle to the core drops the pool, which drains and joins.
        drop(self);
    }
}

/// How long shutdown waits for connection threads to exit. A reader sees
/// the stop flag within its 200 ms read timeout, or once it has served or
/// queued the request it holds.
const CONN_JOIN_WAIT: Duration = Duration::from_secs(2);

/// How long one blocking response write may wait on a peer that stopped
/// reading before the connection is dropped.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Most responses coalesced into one transport write: a connection's
/// outbox is written at once when it holds this many frames.
pub const MAX_BATCH: usize = 16;

thread_local! {
    /// Set on connection readers, which never block on a write (see
    /// [`Connection::flush`]).
    static ON_READER: Cell<bool> = const { Cell::new(false) };
}

/// Encoded response frames waiting to be written as one burst.
#[derive(Default)]
struct Outbox {
    buf: Vec<u8>,
    frames: usize,
    /// A thread is writing the outbox out without holding its lock; it
    /// also writes the frames appended meanwhile.
    writing: bool,
}

/// What shutdown must reach of a server's connections: every open one's
/// socket, held weakly so a closed connection keeps none open, and the
/// flusher threads they started.
#[derive(Default)]
struct OpenConnections {
    conns: Vec<Weak<Connection>>,
    flushers: Vec<JoinHandle<()>>,
}

type Open = Arc<Mutex<OpenConnections>>;

/// The write side of one pipelined connection. The reader (fast lane) and
/// pool workers (slow lane) append their responses to the outbox and
/// write it out; one thread writes at a time, so frames never interleave
/// on the wire.
struct Connection {
    stream: TcpStream,
    outbox: Mutex<Outbox>,
    /// The read-ahead window: the reader queues a permit per request and
    /// parks once `max_inflight` are out; each reply takes one back.
    permits: BoundedQueue<()>,
    pipeline: Arc<PipelineStats>,
    open: Open,
}

/// One request's place in the read-ahead window.
struct WindowSlot {
    conn: Arc<Connection>,
    _inflight: InflightGuard,
}

impl Drop for WindowSlot {
    fn drop(&mut self) {
        // Each slot owns exactly one queued permit, so this never misses;
        // dropping the slot (reply queued, request shed, or closure
        // discarded by a draining pool) reopens the window.
        self.conn.permits.try_recv();
    }
}

impl Connection {
    fn lock_outbox(&self) -> MutexGuard<'_, Outbox> {
        self.outbox.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues `resp` and releases its window slot. The frame is written at
    /// the end of the current batch — a pool worker's dequeue batch, or
    /// the reader's run of buffered frames — at once when the outbox holds
    /// [`MAX_BATCH`] frames, and at once when the reply is made off a batch
    /// context, where no batch end will come.
    ///
    /// A response too large to frame is answered with an error carrying
    /// its `corr`, so its caller is not left waiting for it.
    fn reply(self: &Arc<Self>, resp: Response, slot: WindowSlot) {
        let mut out = self.lock_outbox();
        let error = || Response {
            corr: resp.corr,
            ..Response::error("response exceeds MAX_FRAME")
        };
        if append_frame_with(&mut out.buf, |b| resp.encode_into(b)).is_ok()
            || append_frame_with(&mut out.buf, |b| error().encode_into(b)).is_ok()
        {
            out.frames += 1;
        }
        // Release the slot before any write: once the frame is on the wire
        // the client may send its next request, and the window must
        // already have room for it.
        drop(slot);
        if out.frames >= MAX_BATCH || !pool::defer_to_batch_end(self) {
            self.flush(out);
        }
    }

    /// Writes out every queued frame, unless another thread is already
    /// writing (it takes these frames too).
    ///
    /// The reader never blocks on a write: a client may write a whole
    /// pipelined window before it reads a reply, and then it is blocked
    /// on the requests only the reader drains, while the replies fill the
    /// socket. So the reader writes what the socket takes without waiting
    /// and leaves the rest to a flusher thread. A pool worker writes
    /// everything itself.
    fn flush(self: &Arc<Self>, mut out: MutexGuard<'_, Outbox>) {
        if out.writing || out.frames == 0 {
            return;
        }
        if !ON_READER.get() {
            out.writing = true;
            drop(out);
            self.write_until_drained();
            return;
        }
        if self.write_without_blocking(&mut out) {
            return;
        }
        out.writing = true;
        drop(out);
        let conn = Arc::clone(self);
        let flusher = std::thread::Builder::new()
            .name("rpc-flush".into())
            .spawn(move || conn.write_until_drained());
        match flusher {
            Ok(thread) => {
                let mut open = self.open.lock().unwrap_or_else(|e| e.into_inner());
                open.flushers.retain(|f| !f.is_finished());
                open.flushers.push(thread);
            }
            Err(_) => {
                let _ = self.stream.shutdown(Shutdown::Both);
                let mut out = self.lock_outbox();
                out.buf.clear();
                out.frames = 0;
                out.writing = false;
            }
        }
    }

    /// Writes as much of the outbox as the socket takes at once. Returns
    /// `false` when part of it is left, `true` once nothing is (written,
    /// or dropped with the connection after a failed write).
    fn write_without_blocking(&self, out: &mut Outbox) -> bool {
        // Only the reader switches the socket's mode, and only between
        // its own reads; no other thread writes while it holds the
        // outbox with `writing` unset.
        let mut failed = self.stream.set_nonblocking(true).is_err();
        let mut written = 0;
        while !failed && written < out.buf.len() {
            match (&self.stream).write(&out.buf[written..]) {
                Ok(0) => failed = true,
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => failed = true,
            }
        }
        failed |= self.stream.set_nonblocking(false).is_err();
        if failed {
            let _ = self.stream.shutdown(Shutdown::Both);
        } else if written < out.buf.len() {
            out.buf.drain(..written);
            return false;
        } else {
            self.pipeline.record_flush(out.frames);
        }
        out.buf.clear();
        out.frames = 0;
        true
    }

    /// Writes the outbox out, blocking, until it stays empty; the caller
    /// has set `writing`. The lock is released for each write, so the
    /// reader keeps appending replies and reading requests meanwhile. A
    /// failed write shuts the socket down, which ends the reader too.
    fn write_until_drained(&self) {
        let mut out = self.lock_outbox();
        let mut buf = Vec::new();
        while out.frames > 0 {
            std::mem::swap(&mut buf, &mut out.buf);
            let frames = std::mem::take(&mut out.frames);
            drop(out);
            match (&self.stream).write_all(&buf) {
                Ok(()) => self.pipeline.record_flush(frames),
                Err(_) => {
                    let _ = self.stream.shutdown(Shutdown::Both);
                }
            }
            buf.clear();
            out = self.lock_outbox();
        }
        // Keep the larger allocation for the next burst.
        if buf.capacity() > out.buf.capacity() {
            out.buf = buf;
        }
        out.writing = false;
    }
}

/// The bytes a connection reader has received but not yet served. A
/// frame split across reads stays here until its last byte arrives,
/// however long the sender pauses between the parts.
struct Inbox {
    /// `buf[start..end]` holds the unserved bytes.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Inbox {
    /// Takes the payload of the next frame, if all of it is buffered.
    fn next_frame(&mut self) -> Option<&[u8]> {
        let prefix = self.buf[self.start..self.end].first_chunk::<4>()?;
        let payload = self.start + 4..self.start + 4 + u32::from_be_bytes(*prefix) as usize;
        if payload.end > self.end {
            return None;
        }
        self.start = payload.end;
        Some(&self.buf[payload])
    }

    /// Reads what `stream` has after the unserved bytes, which first move
    /// to the front of the buffer; the buffer grows to fit the frame they
    /// begin. Returns 0 at EOF.
    ///
    /// # Errors
    ///
    /// As the read, or `InvalidData` for a frame over [`MAX_FRAME`].
    fn fill(&mut self, mut stream: &TcpStream) -> std::io::Result<usize> {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if let Some(prefix) = self.buf[..self.end].first_chunk::<4>() {
            let len = u32::from_be_bytes(*prefix);
            if len > MAX_FRAME {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidData,
                    format!("frame length {len} exceeds MAX_FRAME"),
                ));
            }
            self.buf.resize(self.buf.len().max(4 + len as usize), 0);
        }
        let n = stream.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }
}

impl BatchEnd for Connection {
    fn batch_end(self: Arc<Self>) {
        self.flush(self.lock_outbox());
    }
}

/// A TCP RPC server on localhost or beyond, framing requests per
/// [`crate::frame`].
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// One reader thread per open connection, joined on shutdown.
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    open: Open,
    core: Arc<ServerCore>,
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the listener cannot be bound.
    pub fn bind<H>(addr: &str, handler: H, config: PoolConfig) -> std::io::Result<Self>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        Self::bind_full(
            addr,
            handler,
            |_| Lane::Fast,
            config,
            PipelineConfig::default(),
        )
    }

    /// Binds with an explicit pipelining configuration (every request
    /// routed to the fast lane).
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the listener cannot be bound.
    pub fn bind_with_pipeline<H>(
        addr: &str,
        handler: H,
        config: PoolConfig,
        pipeline: PipelineConfig,
    ) -> std::io::Result<Self>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        Self::bind_full(addr, handler, |_| Lane::Fast, config, pipeline)
    }

    /// Binds with a classifier and an explicit pipelining configuration.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the listener cannot be bound.
    pub fn bind_full<H, C>(
        addr: &str,
        handler: H,
        classifier: C,
        config: PoolConfig,
        pipeline: PipelineConfig,
    ) -> std::io::Result<Self>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
        C: Fn(&Request) -> Lane + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let core = Arc::new(ServerCore::new(
            Arc::new(handler),
            Arc::new(classifier),
            config,
            pipeline,
        ));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let open = Open::default();

        let stop2 = Arc::clone(&stop);
        let core2 = Arc::clone(&core);
        let threads2 = Arc::clone(&conn_threads);
        let open2 = Arc::clone(&open);
        let accept_thread = std::thread::Builder::new()
            .name("rpc-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    // ordering: advisory stop flag; shutdown pokes the socket to force a check
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let core = Arc::clone(&core2);
                    let stop = Arc::clone(&stop2);
                    let open = Arc::clone(&open2);
                    let spawned = std::thread::Builder::new()
                        .name("rpc-conn".into())
                        .spawn(move || Self::serve_connection(stream, core, stop, open));
                    if let Ok(handle) = spawned {
                        let mut threads = threads2.lock().unwrap_or_else(|e| e.into_inner());
                        // Closed connections' threads have exited; drop
                        // their handles so the list tracks open ones.
                        threads.retain(|t| !t.is_finished());
                        threads.push(handle);
                    }
                }
            })?;

        Ok(Self {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
            conn_threads,
            open,
            core,
        })
    }

    /// Serves one connection with a pipelined read-ahead window.
    ///
    /// Two moving parts per connection:
    ///
    /// * the *reader* (this thread) decodes frames, serves fast-lane
    ///   requests itself and queues slow-lane ones to the pool. It takes a
    ///   permit from a bounded queue per request, so it blocks once
    ///   `max_inflight` requests are outstanding (the read-ahead window).
    ///   It is a batch context: the replies it makes wait in the outbox
    ///   until it is about to block — on a read with no complete frame
    ///   buffered, on a full window, or on a full pool queue — and are
    ///   then written in one burst. It never waits for that write: what
    ///   the socket does not take at once goes to a flusher thread (see
    ///   [`Connection::flush`]);
    /// * the *pool workers* complete slow requests in whatever order they
    ///   finish and write the responses themselves: each worker appends to
    ///   the connection's outbox and writes the outbox out once per
    ///   dequeue batch.
    ///
    /// Either side writes at once when the outbox holds [`MAX_BATCH`] frames
    /// (see [`Connection::reply`]). Out-of-order completion is matched up
    /// client-side by correlation id.
    ///
    /// With `max_inflight == 1` the window admits a single request at a
    /// time: one request per turn, responses strictly in request order.
    fn serve_connection(
        stream: TcpStream,
        core: Arc<ServerCore>,
        stop: Arc<AtomicBool>,
        open: Open,
    ) {
        let cfg = core.pipeline_cfg;
        // A read timeout lets the loop observe the stop flag even while a
        // client holds the connection open without sending.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let _ = stream.set_write_timeout(Some(WRITE_STALL_TIMEOUT));
        // Response bursts are small; Nagle + the client's delayed ACK
        // would park each one for ~40ms otherwise.
        let _ = stream.set_nodelay(true);
        let Ok(write_half) = stream.try_clone() else {
            return;
        };
        let conn = Arc::new(Connection {
            stream: write_half,
            outbox: Mutex::new(Outbox::default()),
            permits: BoundedQueue::new(cfg.max_inflight),
            pipeline: Arc::clone(&core.pipeline),
            open,
        });
        {
            let mut open = conn.open.lock().unwrap_or_else(|e| e.into_inner());
            open.conns.retain(|c| c.strong_count() > 0);
            open.conns.push(Arc::downgrade(&conn));
        }

        let mut inbox = Inbox {
            buf: vec![0; 8 << 10],
            start: 0,
            end: 0,
        };
        // Each request decodes into the one the last inline serve handed
        // back; only a queued request leaves a new one to be made.
        let mut spare: Option<Request> = None;
        pool::enter_batch_context();
        ON_READER.set(true);
        loop {
            // ordering: advisory stop flag; a stale read serves at most one more frame
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let Some(payload) = inbox.next_frame() else {
                // The read below may block: write out what this run of
                // buffered frames completed first.
                pool::end_batch();
                match inbox.fill(&stream) {
                    Ok(0) => break,
                    Ok(_) => continue,
                    // A timeout keeps a partial frame buffered: re-check
                    // the stop flag, then resume reading.
                    Err(e)
                        if matches!(
                            e.kind(),
                            ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                        ) =>
                    {
                        continue
                    }
                    Err(_) => break,
                }
            };
            let mut req = spare.take().unwrap_or_else(|| Request::new("", Vec::new()));
            if req.decode_into(payload).is_err() {
                break;
            }
            // A full window waits for a slow reply to free a slot.
            if pool::send_or_end_batch(&conn.permits, ()).is_err() {
                break;
            }
            let slot = WindowSlot {
                conn: Arc::clone(&conn),
                _inflight: core.pipeline.track(),
            };
            spare = core.dispatch(req, move |resp| {
                let conn = Arc::clone(&slot.conn);
                conn.reply(resp, slot);
            });
        }
        pool::end_batch();
        // In-flight requests keep the connection alive through their
        // reply closures; the socket closes when the last one has written.
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Transport counters.
    pub fn stats(&self) -> &RpcStats {
        &self.core.stats
    }

    /// The server's telemetry registry (`rpc.*` and `rpc.pool.*`).
    pub fn telemetry(&self) -> &dcperf_telemetry::Telemetry {
        &self.core.telemetry
    }

    /// Pipelining depth and batching telemetry (`rpc.pipeline.*`,
    /// `rpc.batch.*`) across all connections.
    pub fn pipeline(&self) -> &PipelineStats {
        &self.core.pipeline
    }

    /// Installs (or clears) a fault plan on the dispatch path; see
    /// [`InProcServer::install_fault_plan`].
    #[cfg(feature = "fault-injection")]
    pub fn install_fault_plan(&self, plan: Option<Arc<dcperf_resilience::FaultPlan>>) {
        self.core.install_fault_plan(plan);
    }

    /// Stops accepting, joins the connection threads (waiting a bounded
    /// time for each), shuts down the socket of every connection still
    /// open and joins the flushers, then closes the pool once the last
    /// handle to it drops. Replies not yet written when the sockets shut
    /// down are dropped.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Returns how many connection threads were still running when the
    /// bounded wait ran out; those are left to exit on their own.
    fn shutdown_inner(&mut self) -> usize {
        // ordering: advisory stop flag; the joins below are the real synchronization
        self.stop.store(true, Ordering::Relaxed);
        // Poke the accept loop so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let threads =
            std::mem::take(&mut *self.conn_threads.lock().unwrap_or_else(|e| e.into_inner()));
        let give_up = Instant::now() + CONN_JOIN_WAIT;
        let mut still_running = 0;
        for t in threads {
            while !t.is_finished() && Instant::now() < give_up {
                std::thread::sleep(Duration::from_millis(1));
            }
            if t.is_finished() {
                let _ = t.join();
            } else {
                still_running += 1;
            }
        }
        // A flusher or a pool worker can wait in a write for up to
        // WRITE_STALL_TIMEOUT on a peer that stopped reading, once per
        // reply; shutting the socket down ends the write and fails the
        // ones after it at once.
        let open = std::mem::take(&mut *self.open.lock().unwrap_or_else(|e| e.into_inner()));
        for conn in open.conns.iter().filter_map(Weak::upgrade) {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        for flusher in open.flushers {
            let _ = flusher.join();
        }
        still_running
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::TcpClient;
    use crate::frame::{read_frame, Status};
    use std::io::BufReader;

    fn echo(req: &Request) -> Response {
        Response::ok(req.body.clone())
    }

    #[test]
    fn inproc_round_trip() {
        let server = InProcServer::start(echo, PoolConfig::single_lane(2));
        let client = server.client();
        let resp = client.call("echo", vec![1, 2, 3]).unwrap();
        assert_eq!(resp.body, vec![1, 2, 3]);
        assert_eq!(resp.status, Status::Ok);
        server.shutdown();
    }

    #[test]
    fn inproc_concurrent_clients() {
        let server = InProcServer::start(echo, PoolConfig::single_lane(4));
        let mut handles = Vec::new();
        for t in 0..8 {
            let client = server.client();
            handles.push(std::thread::spawn(move || {
                for i in 0..100u8 {
                    let resp = client.call("echo", vec![t, i]).unwrap();
                    assert_eq!(resp.body, vec![t, i]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.stats().responses(), 800);
        server.shutdown();
    }

    #[test]
    fn classifier_routes_methods() {
        use std::sync::atomic::AtomicU64;
        let slow_calls = Arc::new(AtomicU64::new(0));
        let sc = Arc::clone(&slow_calls);
        let server = InProcServer::start_with_classifier(
            move |req: &Request| {
                if req.method == "miss" {
                    sc.fetch_add(1, Ordering::Relaxed);
                }
                Response::ok(vec![])
            },
            |req: &Request| {
                if req.method == "miss" {
                    Lane::Slow
                } else {
                    Lane::Fast
                }
            },
            PoolConfig::fast_slow(1, 1),
        );
        let client = server.client();
        client.call("hit", vec![]).unwrap();
        client.call("miss", vec![]).unwrap();
        client.call("miss", vec![]).unwrap();
        assert_eq!(slow_calls.load(Ordering::Relaxed), 2);
        server.shutdown();
    }

    #[test]
    fn tcp_round_trip() {
        let server = TcpServer::bind("127.0.0.1:0", echo, PoolConfig::single_lane(2)).unwrap();
        let addr = server.local_addr();
        let mut client = TcpClient::connect(addr).unwrap();
        for i in 0..50u8 {
            let resp = client.call("echo", vec![i; 10]).unwrap();
            assert_eq!(resp.body, vec![i; 10]);
        }
        server.shutdown();
    }

    #[test]
    fn tcp_multiple_connections() {
        let server = TcpServer::bind("127.0.0.1:0", echo, PoolConfig::single_lane(4)).unwrap();
        let addr = server.local_addr();
        let mut handles = Vec::new();
        for t in 0..4 {
            handles.push(std::thread::spawn(move || {
                let mut client = TcpClient::connect(addr).unwrap();
                for i in 0..25u8 {
                    let resp = client.call("echo", vec![t, i]).unwrap();
                    assert_eq!(resp.body, vec![t, i]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn tcp_application_error_propagates() {
        let server = TcpServer::bind(
            "127.0.0.1:0",
            |_req: &Request| Response::error("nope"),
            PoolConfig::single_lane(1),
        )
        .unwrap();
        let mut client = TcpClient::connect(server.local_addr()).unwrap();
        let err = client.call("x", vec![]).unwrap_err();
        assert!(err.to_string().contains("nope"));
        server.shutdown();
    }

    /// Classifies every request fast, after sleeping well past any 1 µs
    /// budget it carries. The deadline is pinned before classification, so
    /// such a request has always expired by handler entry.
    fn slow_to_classify(req: &Request) -> Lane {
        if req.deadline_us > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        Lane::Fast
    }

    #[test]
    fn expired_deadline_is_shed_with_status() {
        // A handler that must never run for an already-expired request.
        let ran = Arc::new(AtomicBool::new(false));
        let ran2 = Arc::clone(&ran);
        let server = InProcServer::start_with_classifier(
            move |_req: &Request| {
                ran2.store(true, Ordering::Relaxed);
                Response::ok(vec![])
            },
            slow_to_classify,
            PoolConfig::single_lane(1),
        );
        let client = server.client();
        // 1us budget: expired at dispatch (encode + decode alone take
        // longer) or, at the latest, at handler entry after the slow
        // classifier.
        let err = client
            .call_with_deadline("x", vec![], std::time::Duration::from_micros(1))
            .unwrap_err();
        assert!(matches!(err, crate::frame::RpcError::DeadlineExceeded));
        assert!(!ran.load(Ordering::Relaxed), "expired work must not run");
        assert_eq!(server.stats().deadline_shed(), 1);
        assert_eq!(server.stats().deadline_exceeded(), 1);
        server.shutdown();
    }

    #[test]
    fn generous_deadline_completes_normally() {
        let server = InProcServer::start(echo, PoolConfig::single_lane(2));
        let client = server.client();
        let resp = client
            .call_with_deadline("echo", vec![7], std::time::Duration::from_secs(5))
            .unwrap();
        assert_eq!(resp.body, vec![7]);
        assert_eq!(server.stats().deadline_shed(), 0);
        server.shutdown();
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn installed_fault_plan_injects_errors() {
        use dcperf_resilience::FaultPlan;
        let server = InProcServer::start(echo, PoolConfig::single_lane(2));
        // error_rate 1.0: every request fails by injection.
        let plan = Arc::new(FaultPlan::new(7).with_error_rate(1.0));
        server.install_fault_plan(Some(Arc::clone(&plan)));
        let client = server.client();
        let err = client.call("echo", vec![1]).unwrap_err();
        assert!(matches!(err, crate::frame::RpcError::Application(_)));
        assert_eq!(plan.injected_errors(), 1);
        // Clearing the plan restores normal service.
        server.install_fault_plan(None);
        assert!(client.call("echo", vec![2]).is_ok());
        server.shutdown();
    }

    #[test]
    fn tcp_shutdown_is_idempotent_via_drop() {
        let server = TcpServer::bind("127.0.0.1:0", echo, PoolConfig::single_lane(1)).unwrap();
        drop(server); // must not hang
    }

    /// A connection whose peer end the test reads, with `permits` window
    /// slots already taken.
    fn test_connection(permits: usize) -> (Arc<Connection>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let permit_queue = BoundedQueue::new(permits);
        for _ in 0..permits {
            permit_queue.send(()).unwrap();
        }
        let conn = Arc::new(Connection {
            stream: server_side,
            outbox: Mutex::new(Outbox::default()),
            permits: permit_queue,
            pipeline: Arc::new(PipelineStats::new()),
            open: Open::default(),
        });
        (conn, peer)
    }

    fn slot(conn: &Arc<Connection>) -> WindowSlot {
        WindowSlot {
            conn: Arc::clone(conn),
            _inflight: conn.pipeline.track(),
        }
    }

    fn read_corrs(peer: &TcpStream, n: usize) -> Vec<u64> {
        let mut reader = BufReader::new(peer);
        (0..n)
            .map(|_| {
                let frame = read_frame(&mut reader).unwrap().unwrap();
                Response::decode(&frame).unwrap().corr
            })
            .collect()
    }

    fn ok_with_corr(corr: u64) -> Response {
        let mut resp = Response::ok(vec![]);
        resp.corr = corr;
        resp
    }

    #[test]
    fn reply_off_a_pool_worker_is_written_at_once() {
        let (conn, peer) = test_connection(1);
        conn.reply(ok_with_corr(7), slot(&conn));
        // No batch end will come on this thread: the frame must already
        // be on the wire (the peer's read timeout turns a hang into a
        // failure).
        assert_eq!(read_corrs(&peer, 1), vec![7]);
        assert_eq!(conn.pipeline.flushes(), 1);
        assert_eq!(conn.pipeline.inflight(), 0, "the window slot was released");
        assert!(conn.permits.try_recv().is_none(), "the permit was returned");
    }

    #[test]
    fn replies_in_one_worker_batch_share_one_write() {
        let (conn, peer) = test_connection(3);
        let pool = ThreadPool::new(PoolConfig::single_lane(1));
        let c = Arc::clone(&conn);
        pool.spawn(move || {
            for corr in 1..=3 {
                c.reply(ok_with_corr(corr), slot(&c));
            }
            assert_eq!(c.pipeline.flushes(), 0, "nothing is written mid-batch");
        })
        .unwrap();
        assert_eq!(read_corrs(&peer, 3), vec![1, 2, 3]);
        pool.shutdown();
        assert_eq!(conn.pipeline.flushes(), 1);
        assert_eq!(conn.pipeline.batched_responses(), 3);
    }

    #[test]
    fn a_full_outbox_is_written_without_waiting_for_the_batch_end() {
        let total = MAX_BATCH + 1;
        let (conn, peer) = test_connection(total);
        let pool = ThreadPool::new(PoolConfig::single_lane(1));
        let c = Arc::clone(&conn);
        pool.spawn(move || {
            for corr in 1..=MAX_BATCH as u64 {
                c.reply(ok_with_corr(corr), slot(&c));
            }
            assert_eq!(c.pipeline.flushes(), 1, "MAX_BATCH frames go out at once");
            c.reply(ok_with_corr(total as u64), slot(&c));
        })
        .unwrap();
        let want: Vec<u64> = (1..=total as u64).collect();
        assert_eq!(read_corrs(&peer, total), want);
        pool.shutdown();
        assert_eq!(conn.pipeline.flushes(), 2);
        assert_eq!(conn.pipeline.batched_responses(), total as u64);
    }

    #[test]
    fn an_oversized_reply_is_answered_with_an_error() {
        let (conn, peer) = test_connection(2);
        let pool = ThreadPool::new(PoolConfig::single_lane(1));
        let (tx, rx) = std::sync::mpsc::channel();
        let c = Arc::clone(&conn);
        pool.spawn(move || {
            // On a pool worker the first frame waits for the batch end.
            c.reply(ok_with_corr(1), slot(&c));
            let oversized = Response {
                corr: 2,
                ..Response::ok(vec![0; MAX_FRAME as usize + 1])
            };
            c.reply(oversized, slot(&c));
            tx.send(c.lock_outbox().frames).unwrap();
        })
        .unwrap();
        assert_eq!(rx.recv().unwrap(), 2, "the error frame is queued");
        let mut reader = BufReader::new(&peer);
        let mut next = || Response::decode(&read_frame(&mut reader).unwrap().unwrap()).unwrap();
        assert_eq!(next(), ok_with_corr(1));
        assert_eq!(
            next(),
            Response {
                corr: 2,
                ..Response::error("response exceeds MAX_FRAME")
            }
        );
        pool.shutdown();
        assert_eq!(
            conn.pipeline.inflight(),
            0,
            "both window slots were released"
        );
    }

    #[test]
    fn tcp_expired_deadline_is_shed_without_hanging() {
        let ran = Arc::new(AtomicBool::new(false));
        let ran2 = Arc::clone(&ran);
        let server = TcpServer::bind_full(
            "127.0.0.1:0",
            move |req: &Request| {
                if req.method == "x" {
                    ran2.store(true, Ordering::Relaxed);
                }
                echo(req)
            },
            slow_to_classify,
            PoolConfig::single_lane(1),
            PipelineConfig::default(),
        )
        .unwrap();
        let mut client = TcpClient::connect(server.local_addr()).unwrap();
        // A 1us budget is spent before the handler could run: at dispatch,
        // or at handler entry after the slow classifier. The shed reply is
        // made on the connection thread and must be written, and a reply
        // that never came would read as `Timeout` once the client's read
        // timeout fires.
        for _ in 0..20 {
            let err = client
                .call_with_deadline("x", vec![], Duration::from_micros(1))
                .unwrap_err();
            assert!(
                matches!(err, crate::frame::RpcError::DeadlineExceeded),
                "got {err:?}"
            );
        }
        assert!(!ran.load(Ordering::Relaxed), "expired work must not run");
        assert_eq!(server.stats().deadline_shed(), 20);
        // The connection is still usable afterwards.
        assert_eq!(client.call("echo", vec![5]).unwrap().body, vec![5]);
        server.shutdown();
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn tcp_injected_faults_reply_without_hanging() {
        use dcperf_resilience::FaultPlan;
        let server = TcpServer::bind("127.0.0.1:0", echo, PoolConfig::single_lane(1)).unwrap();
        let mut client = TcpClient::connect(server.local_addr())
            .unwrap()
            .with_window(8);
        server.install_fault_plan(Some(Arc::new(FaultPlan::new(3).with_error_rate(1.0))));
        let outcomes =
            client.call_many_with_deadline("echo", vec![vec![1]; 8], Duration::from_secs(5));
        for outcome in outcomes {
            assert!(
                matches!(outcome, Err(crate::frame::RpcError::Application(_))),
                "got {outcome:?}"
            );
        }
        server.install_fault_plan(None);
        assert!(client.call("echo", vec![2]).is_ok());
        server.shutdown();
    }

    /// Drives `server` with pipelined echo bursts through a `window`-deep
    /// client and returns the server's in-flight peak.
    fn pipelined_echo_peak(server: &TcpServer, window: usize) -> i64 {
        let mut client = TcpClient::connect(server.local_addr())
            .unwrap()
            .with_window(window);
        for burst in 0..300u32 {
            // Alternate full windows with longer bursts, which refill
            // the window one request per response read.
            let n = if burst % 2 == 0 { window } else { 3 * window };
            let outcomes = client.call_many("echo", vec![vec![1, 2, 3]; n]);
            assert!(outcomes.iter().all(Result::is_ok));
        }
        server.pipeline().inflight_peak()
    }

    #[test]
    fn tcp_inflight_peak_never_exceeds_the_client_window() {
        const WINDOW: usize = 16;
        // Only slow-lane work stays in flight, so the echo is routed to
        // the slow lane.
        let server = TcpServer::bind_full(
            "127.0.0.1:0",
            echo,
            |_: &Request| Lane::Slow,
            PoolConfig::single_lane(1),
            PipelineConfig::default(),
        )
        .unwrap();
        let peak = pipelined_echo_peak(&server, WINDOW);
        assert!(peak > 1, "the window must have been used, peak={peak}");
        assert!(
            peak <= WINDOW as i64,
            "in-flight peak {peak} exceeds the client window {WINDOW}"
        );
        server.shutdown();
    }

    #[test]
    fn tcp_fast_lane_requests_complete_before_the_next_is_read() {
        // The reader serves each fast-lane request before it reads the
        // next, so a fast-only connection never has two in flight.
        let server = TcpServer::bind("127.0.0.1:0", echo, PoolConfig::single_lane(1)).unwrap();
        assert_eq!(pipelined_echo_peak(&server, 16), 1);
        assert_eq!(server.core.pool.stats().slow_jobs(), 0);
        server.shutdown();
    }

    #[test]
    fn fast_lane_runs_on_the_calling_thread_and_slow_lane_on_the_pool() {
        let server = InProcServer::start_with_classifier(
            |_: &Request| {
                let here = format!("{:?}", std::thread::current().id());
                Response::ok(here.into_bytes())
            },
            |req: &Request| {
                if req.method == "miss" {
                    Lane::Slow
                } else {
                    Lane::Fast
                }
            },
            PoolConfig::fast_slow(1, 1),
        );
        let client = server.client();
        let caller = format!("{:?}", std::thread::current().id()).into_bytes();
        assert_eq!(client.call("hit", vec![]).unwrap().body, caller);
        assert_ne!(client.call("miss", vec![]).unwrap().body, caller);
        let lanes = server.core.pool.stats();
        assert_eq!((lanes.fast_jobs(), lanes.slow_jobs()), (1, 1));
        server.shutdown();
    }

    #[test]
    fn tcp_shutdown_under_pipelined_load_joins_every_thread() {
        let mut server = TcpServer::bind("127.0.0.1:0", echo, PoolConfig::single_lane(2)).unwrap();
        let addr = server.local_addr();
        let clients: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut client = TcpClient::connect(addr).unwrap().with_window(16);
                    let mut ok = 0u64;
                    // Runs until shutdown breaks the connection.
                    while client
                        .call_many("echo", vec![vec![0u8; 32]; 64])
                        .iter()
                        .all(Result::is_ok)
                    {
                        ok += 1;
                    }
                    ok
                })
            })
            .collect();
        // Let every connection reach steady pipelined load.
        while server.pipeline().batched_responses() < 3_000 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let started = Instant::now();
        assert_eq!(
            server.shutdown_inner(),
            0,
            "a connection thread outlived shutdown"
        );
        assert!(
            started.elapsed() < CONN_JOIN_WAIT,
            "shutdown waited out its bound"
        );
        assert_eq!(
            Arc::strong_count(&server.core),
            1,
            "accept and connection threads must have released the server"
        );
        for c in clients {
            assert!(c.join().unwrap() > 0, "each client completed some bursts");
        }
    }
}

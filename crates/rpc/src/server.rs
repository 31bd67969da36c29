//! RPC servers: in-process and TCP.
//!
//! The in-process server is the workhorse of the single-machine DCPerf-RS
//! benchmarks (the paper's benchmarks run all components on one server in
//! most cases); requests still traverse real serialization, bounded queues,
//! and a worker thread pool, so the RPC datacenter tax is paid. The TCP
//! server provides the distributed deployment shape for the benchmarks
//! whose clients run on other machines.

use crate::frame::{append_frame, read_frame, Request, Response};
use crate::pipeline::{InflightGuard, PipelineConfig, PipelineStats};
use crate::pool::{self, BatchEnd, Lane, PoolConfig, ThreadPool};
use crate::stats::RpcStats;
use crossbeam::channel;
use dcperf_resilience::Deadline;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The server-side request handler.
pub type Handler = dyn Fn(&Request) -> Response + Send + Sync + 'static;

/// Routes a request to a [`Lane`] before it is queued.
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
fn expired_response(seq: u64, corr: u64) -> Response {
    let mut resp = Response::deadline_exceeded();
    resp.seq = seq;
    resp.corr = corr;
    resp
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

    /// Dispatches a request through the pool, waiting for queue space;
    /// `reply` receives the response.
    pub(crate) fn dispatch(&self, req: Request, reply: impl FnOnce(Response) + Send + 'static) {
        // Pin the wire budget (relative microseconds) to an absolute
        // instant the moment the request enters the server.
        let deadline = (req.deadline_us > 0).then(|| Deadline::from_budget_us(req.deadline_us));
        let seq = req.seq;
        let corr = req.corr;
        // Shed already-expired work before it consumes queue space.
        if deadline.is_some_and(|d| d.expired()) {
            self.stats.record_deadline_shed();
            reply(expired_response(seq, corr));
            return;
        }
        let lane = (self.classifier)(&req);
        let handler = Arc::clone(&self.handler);
        let stats = Arc::clone(&self.stats);
        #[cfg(feature = "fault-injection")]
        let plan = self.fault_plan.lock().ok().and_then(|slot| slot.clone());
        let job = move || {
            // Re-check at dequeue / handler entry: queueing delay may have
            // consumed the whole budget, and a reply the client already
            // gave up on is pure waste.
            if deadline.is_some_and(|d| d.expired()) {
                stats.record_deadline_shed();
                reply(expired_response(seq, corr));
                return;
            }
            #[cfg(feature = "fault-injection")]
            if let Some(plan) = &plan {
                use dcperf_resilience::FaultOutcome;
                match plan.apply() {
                    FaultOutcome::Pass => {}
                    FaultOutcome::Error => {
                        let mut resp = Response::error("injected fault");
                        resp.seq = seq;
                        resp.corr = corr;
                        reply(resp);
                        return;
                    }
                    FaultOutcome::Overload => {
                        let mut resp = Response::overloaded();
                        resp.seq = seq;
                        resp.corr = corr;
                        reply(resp);
                        return;
                    }
                }
                // Injected latency may have burned the remaining budget.
                if deadline.is_some_and(|d| d.expired()) {
                    stats.record_deadline_shed();
                    reply(expired_response(seq, corr));
                    return;
                }
            }
            let mut resp = handler(&req);
            resp.seq = seq;
            resp.corr = corr;
            reply(resp);
        };
        // A shut-down pool drops the job, and `reply` with it; the caller
        // observes the dropped reply as overload.
        let _ = self.pool.spawn(lane, job);
    }
}

/// An in-process RPC server: clients and server share the process, but
/// every call pays serialization, queueing, and cross-thread dispatch.
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
    /// the worker thread, injected errors and overloads short-circuit the
    /// handler. Only compiled with the `fault-injection` feature, so the
    /// default hot path carries no injector branch.
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
/// the stop flag within its 200 ms read timeout, or once the request it is
/// blocked on enters the pool.
const CONN_JOIN_WAIT: Duration = Duration::from_secs(2);

/// How long one response write may block on a peer that stopped reading
/// before the connection is dropped. Writes run on pool workers, so a
/// stalled peer must not hold a worker for longer than this.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Encoded response frames waiting to be written as one burst.
#[derive(Default)]
struct Outbox {
    buf: Vec<u8>,
    frames: usize,
}

/// The write side of one pipelined connection. Pool workers append their
/// responses to the outbox and write it out themselves. The outbox lock
/// also serializes writes, so frames never interleave on the wire.
struct Connection {
    stream: TcpStream,
    outbox: Mutex<Outbox>,
    /// The read-ahead window: the reader sends a permit per request and
    /// parks once `max_inflight` are out; each reply takes one back.
    permits: channel::Receiver<()>,
    pipeline: Arc<PipelineStats>,
    max_batch: usize,
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
        let _ = self.conn.permits.try_recv();
    }
}

impl Connection {
    fn lock_outbox(&self) -> MutexGuard<'_, Outbox> {
        self.outbox.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues `resp` and releases its window slot. The frame is written at
    /// the end of the current pool worker's dequeue batch, at once when
    /// the outbox holds `max_batch` frames, and at once when the reply is
    /// made off a pool worker (a request shed on the connection thread),
    /// where no batch end will come.
    fn reply(self: &Arc<Self>, resp: Response, slot: WindowSlot) {
        let payload = resp.encode();
        let mut out = self.lock_outbox();
        if append_frame(&mut out.buf, &payload).is_ok() {
            out.frames += 1;
        }
        // Release the slot before any write: once the frame is on the wire
        // the client may send its next request, and the window must
        // already have room for it.
        drop(slot);
        if out.frames >= self.max_batch || !pool::defer_to_batch_end(self) {
            self.write_out(&mut out);
        }
    }

    /// Writes every queued frame in one `write_all`. A failed write shuts
    /// the socket down, which ends the reader too.
    fn write_out(&self, out: &mut Outbox) {
        if out.frames == 0 {
            return;
        }
        match (&self.stream).write_all(&out.buf) {
            Ok(()) => self.pipeline.record_flush(out.frames),
            Err(_) => {
                let _ = self.stream.shutdown(Shutdown::Both);
            }
        }
        out.buf.clear();
        out.frames = 0;
    }
}

impl BatchEnd for Connection {
    fn batch_end(&self) {
        self.write_out(&mut self.lock_outbox());
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
    /// routed to the fast lane). Use [`PipelineConfig::disabled`] for
    /// strict one-request-per-turn v1 semantics.
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

        let stop2 = Arc::clone(&stop);
        let core2 = Arc::clone(&core);
        let threads2 = Arc::clone(&conn_threads);
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
                    let spawned = std::thread::Builder::new()
                        .name("rpc-conn".into())
                        .spawn(move || Self::serve_connection(stream, core, stop));
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
            core,
        })
    }

    /// Serves one connection with a pipelined read-ahead window.
    ///
    /// Two moving parts per connection:
    ///
    /// * the *reader* (this thread) decodes frames and dispatches them
    ///   into the worker pool, blocking on a bounded permit channel once
    ///   `max_inflight` requests are outstanding (the read-ahead window);
    /// * the *pool workers* complete requests in whatever order their
    ///   lanes finish them and write the responses themselves: each worker
    ///   appends to the connection's outbox and writes the outbox out once
    ///   per dequeue batch, or as soon as it holds `max_batch` frames (see
    ///   [`Connection::reply`]). Out-of-order completion is matched up
    ///   client-side by correlation id.
    ///
    /// With `max_inflight == 1` the window admits a single request at a
    /// time, which degenerates to the v1 one-request-per-turn behavior
    /// (responses strictly in request order).
    fn serve_connection(stream: TcpStream, core: Arc<ServerCore>, stop: Arc<AtomicBool>) {
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
        let (permit_tx, permits) = channel::bounded::<()>(cfg.max_inflight);
        let conn = Arc::new(Connection {
            stream: write_half,
            outbox: Mutex::new(Outbox::default()),
            permits,
            pipeline: Arc::clone(&core.pipeline),
            max_batch: cfg.max_batch,
        });

        let mut reader = BufReader::new(stream);
        loop {
            // ordering: advisory stop flag; a stale read serves at most one more frame
            if stop.load(Ordering::Relaxed) {
                break;
            }
            let frame = match read_frame(&mut reader) {
                Ok(Some(f)) => f,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    // Idle timeout between frames: re-check the stop flag.
                    continue;
                }
                Ok(None) | Err(_) => break,
            };
            let req = match Request::decode(&frame) {
                Ok(r) => r,
                Err(_) => break,
            };
            if permit_tx.send(()).is_err() {
                break;
            }
            let slot = WindowSlot {
                conn: Arc::clone(&conn),
                _inflight: core.pipeline.track(),
            };
            core.dispatch(req, move |resp| {
                let conn = Arc::clone(&slot.conn);
                conn.reply(resp, slot);
            });
        }
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
    /// time for each), then closes the pool once the last handle to it
    /// drops.
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
    use crate::frame::Status;

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

    #[test]
    fn expired_deadline_is_shed_with_status() {
        // A handler that must never run for an already-expired request.
        let ran = Arc::new(AtomicBool::new(false));
        let ran2 = Arc::clone(&ran);
        let server = InProcServer::start(
            move |_req: &Request| {
                ran2.store(true, Ordering::Relaxed);
                Response::ok(vec![])
            },
            PoolConfig::single_lane(1),
        );
        let client = server.client();
        // 1us budget: expired by the time dispatch sees it (encode +
        // decode alone take longer).
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
    fn test_connection(max_batch: usize, permits: usize) -> (Arc<Connection>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        let (permit_tx, permit_rx) = channel::bounded::<()>(permits.max(1));
        for _ in 0..permits {
            permit_tx.send(()).unwrap();
        }
        let conn = Arc::new(Connection {
            stream: server_side,
            outbox: Mutex::new(Outbox::default()),
            permits: permit_rx,
            pipeline: Arc::new(PipelineStats::new()),
            max_batch,
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
        let (conn, peer) = test_connection(16, 1);
        conn.reply(ok_with_corr(7), slot(&conn));
        // No batch end will come on this thread: the frame must already
        // be on the wire (the peer's read timeout turns a hang into a
        // failure).
        assert_eq!(read_corrs(&peer, 1), vec![7]);
        assert_eq!(conn.pipeline.flushes(), 1);
        assert_eq!(conn.pipeline.inflight(), 0, "the window slot was released");
        assert!(conn.permits.try_recv().is_err(), "the permit was returned");
    }

    #[test]
    fn replies_in_one_worker_batch_share_one_write() {
        let (conn, peer) = test_connection(16, 3);
        let pool = ThreadPool::new(PoolConfig::single_lane(1));
        let c = Arc::clone(&conn);
        pool.spawn(Lane::Fast, move || {
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
        let (conn, peer) = test_connection(2, 3);
        let pool = ThreadPool::new(PoolConfig::single_lane(1));
        let c = Arc::clone(&conn);
        pool.spawn(Lane::Fast, move || {
            c.reply(ok_with_corr(1), slot(&c));
            c.reply(ok_with_corr(2), slot(&c));
            assert_eq!(c.pipeline.flushes(), 1, "max_batch frames go out at once");
            c.reply(ok_with_corr(3), slot(&c));
        })
        .unwrap();
        assert_eq!(read_corrs(&peer, 3), vec![1, 2, 3]);
        pool.shutdown();
        assert_eq!(conn.pipeline.flushes(), 2);
        assert_eq!(conn.pipeline.batched_responses(), 3);
    }

    #[test]
    fn tcp_expired_deadline_is_shed_without_hanging() {
        let server = TcpServer::bind("127.0.0.1:0", echo, PoolConfig::single_lane(1)).unwrap();
        let mut client = TcpClient::connect(server.local_addr()).unwrap();
        // A 1us budget is spent before the handler could run. The shed
        // reply comes from the connection thread or from a worker; either
        // way it must be written, and a reply that never came would read
        // as `Timeout` once the client's read timeout fires.
        for _ in 0..20 {
            let err = client
                .call_with_deadline("x", vec![], Duration::from_micros(1))
                .unwrap_err();
            assert!(
                matches!(err, crate::frame::RpcError::DeadlineExceeded),
                "got {err:?}"
            );
        }
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

    #[test]
    fn tcp_inflight_peak_never_exceeds_the_client_window() {
        const WINDOW: usize = 16;
        // The default batch covers the batch-end write; a batch of one
        // writes every reply at once, where a slot released after the
        // write would let the client's next request in first.
        for pipeline in [
            PipelineConfig::default(),
            PipelineConfig::default().with_max_batch(1),
        ] {
            let server = TcpServer::bind_with_pipeline(
                "127.0.0.1:0",
                echo,
                PoolConfig::single_lane(1),
                pipeline,
            )
            .unwrap();
            let mut client = TcpClient::connect(server.local_addr())
                .unwrap()
                .with_window(WINDOW);
            for burst in 0..300u32 {
                // Alternate full windows with longer bursts, which refill
                // the window one request per response read.
                let n = if burst % 2 == 0 { WINDOW } else { 3 * WINDOW };
                let outcomes = client.call_many("echo", vec![vec![1, 2, 3]; n]);
                assert!(outcomes.iter().all(Result::is_ok));
            }
            let peak = server.pipeline().inflight_peak();
            assert!(peak > 1, "the window must have been used, peak={peak}");
            assert!(
                peak <= WINDOW as i64,
                "{pipeline:?}: in-flight peak {peak} exceeds the client window {WINDOW}"
            );
            server.shutdown();
        }
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

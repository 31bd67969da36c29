//! RPC clients: in-process and TCP, with pipelined `call_many` bursts.

use crate::frame::{append_frame, read_frame, write_frame, Request, Response, RpcError, Status};
use crate::server::ServerCore;
use crate::stats::RpcStats;
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Converts a received response into the caller-facing result.
fn response_to_result(resp: Response) -> Result<Response, RpcError> {
    match resp.status {
        Status::Ok => Ok(resp),
        Status::Error => Err(RpcError::Application(
            String::from_utf8_lossy(&resp.body).into_owned(),
        )),
        Status::Overloaded => Err(RpcError::Overloaded),
        Status::DeadlineExceeded => Err(RpcError::DeadlineExceeded),
    }
}

/// A handle for calling an [`InProcServer`](crate::server::InProcServer).
///
/// Cheap to clone; every clone shares the server's pool and stats.
#[derive(Clone)]
pub struct InProcClient {
    core: Arc<ServerCore>,
    seq: Arc<AtomicU64>,
}

impl std::fmt::Debug for InProcClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcClient").finish_non_exhaustive()
    }
}

impl InProcClient {
    pub(crate) fn new(core: Arc<ServerCore>) -> Self {
        Self {
            core,
            seq: Arc::new(AtomicU64::new(1)),
        }
    }

    fn build_request(&self, method: &str, body: Vec<u8>) -> Request {
        let mut req = Request::new(method, body);
        // ordering: seq only needs uniqueness, not ordering with other memory
        req.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        req
    }

    fn call_inner(&self, req: Request, blocking: bool) -> Result<Response, RpcError> {
        // Serialize/deserialize even in-process: the RPC tax must be paid.
        let encoded = req.encode();
        self.core.stats.record_request(encoded.len());
        let req = Request::decode(&encoded)?;

        let (tx, rx) = crossbeam::channel::bounded::<Vec<u8>>(1);
        self.core.dispatch(req, blocking, move |resp| {
            let _ = tx.send(resp.encode());
        });
        match rx.recv() {
            Ok(encoded) => {
                let resp = Response::decode(&encoded)?;
                self.core.stats.record_response(encoded.len(), resp.status);
                response_to_result(resp)
            }
            // The dispatch was shed (queue full) or the pool is gone; the
            // reply sender was dropped without sending.
            Err(_) => {
                self.core.stats.record_response(0, Status::Overloaded);
                Err(RpcError::Overloaded)
            }
        }
    }

    /// Synchronous call; waits for queue space under load (closed loop).
    ///
    /// # Errors
    ///
    /// Returns [`RpcError::Application`] for handler-reported errors,
    /// [`RpcError::Overloaded`] if the server shut down mid-call.
    pub fn call(&self, method: &str, body: Vec<u8>) -> Result<Response, RpcError> {
        self.call_inner(self.build_request(method, body), true)
    }

    /// Synchronous call that is shed immediately when the server queue is
    /// full (open loop): overload becomes an [`RpcError::Overloaded`]
    /// instead of queueing delay.
    ///
    /// # Errors
    ///
    /// As [`InProcClient::call`], plus shed-on-full behavior.
    pub fn try_call(&self, method: &str, body: Vec<u8>) -> Result<Response, RpcError> {
        self.call_inner(self.build_request(method, body), false)
    }

    /// As [`InProcClient::call`], with a deadline budget carried in the
    /// request frame. The server sheds the request once the budget is
    /// spent — before queueing, at dequeue, and at handler entry.
    ///
    /// # Errors
    ///
    /// As [`InProcClient::call`], plus [`RpcError::DeadlineExceeded`]
    /// when the server shed the expired request.
    pub fn call_with_deadline(
        &self,
        method: &str,
        body: Vec<u8>,
        budget: Duration,
    ) -> Result<Response, RpcError> {
        let req = self.build_request(method, body).with_deadline(budget);
        self.call_inner(req, true)
    }

    /// As [`InProcClient::try_call`] (shed-on-full), with a deadline
    /// budget carried in the request frame.
    ///
    /// # Errors
    ///
    /// As [`InProcClient::try_call`], plus
    /// [`RpcError::DeadlineExceeded`].
    pub fn try_call_with_deadline(
        &self,
        method: &str,
        body: Vec<u8>,
        budget: Duration,
    ) -> Result<Response, RpcError> {
        let req = self.build_request(method, body).with_deadline(budget);
        self.call_inner(req, false)
    }

    /// Issues a pipelined batch of same-method calls: all requests enter
    /// the dispatch queue before any reply is awaited, so the batch keeps
    /// the pool busy without one thread per call. Results come back in
    /// issue order regardless of completion order (matched by correlation
    /// id).
    pub fn call_many(&self, method: &str, bodies: Vec<Vec<u8>>) -> Vec<Result<Response, RpcError>> {
        self.call_many_inner(method, bodies, None)
    }

    /// As [`InProcClient::call_many`], with a per-request deadline budget:
    /// each request in the burst is shed individually once its own budget
    /// expires.
    pub fn call_many_with_deadline(
        &self,
        method: &str,
        bodies: Vec<Vec<u8>>,
        budget: Duration,
    ) -> Vec<Result<Response, RpcError>> {
        self.call_many_inner(method, bodies, Some(budget))
    }

    fn call_many_inner(
        &self,
        method: &str,
        bodies: Vec<Vec<u8>>,
        budget: Option<Duration>,
    ) -> Vec<Result<Response, RpcError>> {
        let n = bodies.len();
        let mut results: Vec<Option<Result<Response, RpcError>>> = (0..n).map(|_| None).collect();
        let mut slot_of: HashMap<u64, usize> = HashMap::with_capacity(n);
        let (tx, rx) = crossbeam::channel::bounded::<(u64, Vec<u8>)>(n.max(1));
        let mut dispatched = 0usize;
        for (idx, body) in bodies.into_iter().enumerate() {
            let mut req = self.build_request(method, body);
            req.corr = req.seq;
            if let Some(b) = budget {
                req = req.with_deadline(b);
            }
            // Serialize/deserialize even in-process: the RPC tax is paid
            // per request, batched or not.
            let encoded = req.encode();
            self.core.stats.record_request(encoded.len());
            let req = match Request::decode(&encoded) {
                Ok(r) => r,
                Err(e) => {
                    results[idx] = Some(Err(RpcError::Wire(e)));
                    continue;
                }
            };
            slot_of.insert(req.corr, idx);
            let tx = tx.clone();
            // The guard rides in the reply closure, so depth accounting
            // survives sheds (a dropped closure still drops the guard).
            let guard = self.core.pipeline.track();
            self.core.dispatch(req, true, move |resp| {
                let _guard = guard;
                let _ = tx.send((resp.corr, resp.encode()));
            });
            dispatched += 1;
        }
        drop(tx);
        for _ in 0..dispatched {
            // A recv error means every remaining reply closure was dropped
            // unsent (shed or shutdown); the unfilled slots below cover it.
            let Ok((corr, encoded)) = rx.recv() else {
                break;
            };
            let outcome = match Response::decode(&encoded) {
                Ok(resp) => {
                    self.core.stats.record_response(encoded.len(), resp.status);
                    response_to_result(resp)
                }
                Err(e) => Err(RpcError::Wire(e)),
            };
            if let Some(idx) = slot_of.remove(&corr) {
                results[idx] = Some(outcome);
            }
        }
        results
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    // Shed without a reply: same overload semantics as a
                    // dropped single-call reply channel.
                    self.core.stats.record_response(0, Status::Overloaded);
                    Err(RpcError::Overloaded)
                })
            })
            .collect()
    }

    /// Shared transport counters.
    pub fn stats(&self) -> &RpcStats {
        &self.core.stats
    }

    /// The server's telemetry registry (shared with the server handle):
    /// resilience wrappers register their counters here so one snapshot
    /// covers transport, pool, and resilience activity.
    pub fn telemetry(&self) -> &dcperf_telemetry::Telemetry {
        &self.core.telemetry
    }
}

/// Maps transport I/O errors to typed RPC errors: read timeouts become
/// [`RpcError::Timeout`] so retry policy can treat them distinctly.
fn map_io(e: std::io::Error) -> RpcError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => RpcError::Timeout,
        _ => RpcError::Io(e),
    }
}

/// A synchronous TCP RPC client. [`TcpClient::call`] keeps one
/// outstanding call per connection (classic Thrift sync behavior);
/// [`TcpClient::call_many`] pipelines a batch through an in-flight window
/// so one connection does the work of N single-call clients.
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    seq: u64,
    window: usize,
    stats: RpcStats,
}

impl std::fmt::Debug for TcpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClient")
            .field("seq", &self.seq)
            .field("window", &self.window)
            .finish()
    }
}

/// Default pipelined in-flight window for [`TcpClient::call_many`].
pub const DEFAULT_CLIENT_WINDOW: usize = 32;

impl TcpClient {
    /// Connects to a [`TcpServer`](crate::server::TcpServer).
    ///
    /// # Errors
    ///
    /// Returns the underlying connection error.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        Ok(Self {
            reader,
            writer,
            seq: 1,
            window: DEFAULT_CLIENT_WINDOW,
            stats: RpcStats::new(),
        })
    }

    /// Sets the pipelined in-flight window used by
    /// [`TcpClient::call_many`] (builder style; clamped to ≥ 1, where 1
    /// degenerates to sequential one-request-per-turn calls).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Synchronous call over the connection.
    ///
    /// # Errors
    ///
    /// Returns I/O, wire, application, or overload errors.
    pub fn call(&mut self, method: &str, body: Vec<u8>) -> Result<Response, RpcError> {
        self.call_request(Request::new(method, body))
    }

    /// Synchronous call carrying a deadline budget in the request frame.
    /// The client also arms a matching socket read timeout, so a server
    /// that never replies surfaces as [`RpcError::Timeout`] rather than a
    /// hang.
    ///
    /// # Errors
    ///
    /// As [`TcpClient::call`], plus [`RpcError::DeadlineExceeded`] (server
    /// shed) and [`RpcError::Timeout`] (no reply within ~the budget).
    pub fn call_with_deadline(
        &mut self,
        method: &str,
        body: Vec<u8>,
        budget: Duration,
    ) -> Result<Response, RpcError> {
        // Give the reply a grace window past the server-side budget so an
        // in-flight shed response is read rather than raced.
        let read_timeout = budget + budget / 2 + Duration::from_millis(50);
        let _ = self.reader.get_ref().set_read_timeout(Some(read_timeout));
        let result = self.call_request(Request::new(method, body).with_deadline(budget));
        let _ = self.reader.get_ref().set_read_timeout(None);
        result
    }

    fn call_request(&mut self, mut req: Request) -> Result<Response, RpcError> {
        req.seq = self.seq;
        // corr == seq keeps correlation intact against legacy servers,
        // whose responses decode with `corr` falling back to the echoed
        // sequence number.
        req.corr = self.seq;
        self.seq += 1;
        let payload = req.encode();
        self.stats.record_request(payload.len());
        write_frame(&mut self.writer, &payload).map_err(map_io)?;
        let frame = match read_frame(&mut self.reader) {
            Ok(Some(f)) => f,
            Ok(None) => return Err(RpcError::Disconnected),
            Err(e) => return Err(map_io(e)),
        };
        let resp = Response::decode(&frame)?;
        self.stats.record_response(frame.len(), resp.status);
        if resp.corr != req.corr {
            return Err(RpcError::CorrelationMismatch { got: resp.corr });
        }
        response_to_result(resp)
    }

    /// Issues a pipelined batch of same-method calls over this single
    /// connection: up to [`TcpClient::with_window`] requests ride the wire
    /// concurrently, and the server may complete them out of order.
    /// Results come back in issue order (matched by correlation id). On a
    /// transport failure the whole remaining batch fails with duplicates
    /// of that error — a pipelined connection dies as a unit.
    pub fn call_many(
        &mut self,
        method: &str,
        bodies: Vec<Vec<u8>>,
    ) -> Vec<Result<Response, RpcError>> {
        self.call_many_inner(method, bodies, None)
    }

    /// As [`TcpClient::call_many`], carrying a per-request deadline budget
    /// and arming a read timeout sized to the budget so a silent server
    /// surfaces as [`RpcError::Timeout`].
    pub fn call_many_with_deadline(
        &mut self,
        method: &str,
        bodies: Vec<Vec<u8>>,
        budget: Duration,
    ) -> Vec<Result<Response, RpcError>> {
        // Grace window past the server-side budget, as in
        // `call_with_deadline`.
        let read_timeout = budget + budget / 2 + Duration::from_millis(50);
        let _ = self.reader.get_ref().set_read_timeout(Some(read_timeout));
        let results = self.call_many_inner(method, bodies, Some(budget));
        let _ = self.reader.get_ref().set_read_timeout(None);
        results
    }

    fn call_many_inner(
        &mut self,
        method: &str,
        bodies: Vec<Vec<u8>>,
        budget: Option<Duration>,
    ) -> Vec<Result<Response, RpcError>> {
        let n = bodies.len();
        let mut results: Vec<Option<Result<Response, RpcError>>> = (0..n).map(|_| None).collect();
        let mut slot_of: HashMap<u64, usize> = HashMap::with_capacity(self.window);
        let mut pending: VecDeque<(usize, Vec<u8>)> = bodies.into_iter().enumerate().collect();
        let window = self.window.max(1);

        let failure: Option<RpcError> = 'run: {
            loop {
                // Top up the window: encode a burst of frames and push it
                // with one buffered write + flush.
                if !pending.is_empty() && slot_of.len() < window {
                    let mut burst = Vec::new();
                    while slot_of.len() < window {
                        let Some((idx, body)) = pending.pop_front() else {
                            break;
                        };
                        let mut req = Request::new(method, body);
                        if let Some(b) = budget {
                            req = req.with_deadline(b);
                        }
                        req.seq = self.seq;
                        req.corr = self.seq;
                        self.seq += 1;
                        let payload = req.encode();
                        self.stats.record_request(payload.len());
                        if let Err(e) = append_frame(&mut burst, &payload) {
                            break 'run Some(map_io(e));
                        }
                        slot_of.insert(req.corr, idx);
                    }
                    if let Err(e) = self
                        .writer
                        .write_all(&burst)
                        .and_then(|()| self.writer.flush())
                    {
                        break 'run Some(map_io(e));
                    }
                }
                if slot_of.is_empty() {
                    break 'run None;
                }
                // Await any one completion; the server may answer in any
                // order, so route by correlation id.
                let frame = match read_frame(&mut self.reader) {
                    Ok(Some(f)) => f,
                    Ok(None) => break 'run Some(RpcError::Disconnected),
                    Err(e) => break 'run Some(map_io(e)),
                };
                let resp = match Response::decode(&frame) {
                    Ok(r) => r,
                    Err(e) => break 'run Some(RpcError::Wire(e)),
                };
                self.stats.record_response(frame.len(), resp.status);
                let Some(idx) = slot_of.remove(&resp.corr) else {
                    break 'run Some(RpcError::CorrelationMismatch { got: resp.corr });
                };
                results[idx] = Some(response_to_result(resp));
            }
        };
        if let Some(err) = failure {
            for slot in results.iter_mut() {
                if slot.is_none() {
                    *slot = Some(Err(err.duplicate()));
                }
            }
        }
        results
            .into_iter()
            .map(|slot| slot.unwrap_or(Err(RpcError::Disconnected)))
            .collect()
    }

    /// This connection's counters.
    pub fn stats(&self) -> &RpcStats {
        &self.stats
    }
}

/// A fixed-size pool of pipelined TCP connections.
///
/// Single calls fan out round-robin across the pool; batched
/// [`TcpClientPool::call_many`] sends the whole burst down *one*
/// pipelined connection — the point of multiplexing is that one
/// connection replaces N pool slots.
pub struct TcpClientPool {
    conns: Vec<Mutex<TcpClient>>,
    cursor: AtomicUsize,
}

impl std::fmt::Debug for TcpClientPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClientPool")
            .field("size", &self.conns.len())
            .finish()
    }
}

impl TcpClientPool {
    /// Opens `size` connections (clamped to ≥ 1) to `addr`, each with the
    /// pipelined window `window`.
    ///
    /// # Errors
    ///
    /// Returns the first connection error.
    pub fn connect(addr: SocketAddr, size: usize, window: usize) -> std::io::Result<Self> {
        let mut conns = Vec::with_capacity(size.max(1));
        for _ in 0..size.max(1) {
            conns.push(Mutex::new(TcpClient::connect(addr)?.with_window(window)));
        }
        Ok(Self {
            conns,
            cursor: AtomicUsize::new(0),
        })
    }

    /// Number of pooled connections.
    pub fn size(&self) -> usize {
        self.conns.len()
    }

    fn next(&self) -> &Mutex<TcpClient> {
        // ordering: round-robin cursor only needs per-call uniqueness, not
        // ordering with other memory
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) % self.conns.len();
        &self.conns[i]
    }

    fn lock(conn: &Mutex<TcpClient>) -> std::sync::MutexGuard<'_, TcpClient> {
        conn.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Single call on the next connection, round-robin.
    ///
    /// # Errors
    ///
    /// As [`TcpClient::call`].
    pub fn call(&self, method: &str, body: Vec<u8>) -> Result<Response, RpcError> {
        Self::lock(self.next()).call(method, body)
    }

    /// Single deadline-carrying call on the next connection, round-robin.
    ///
    /// # Errors
    ///
    /// As [`TcpClient::call_with_deadline`].
    pub fn call_with_deadline(
        &self,
        method: &str,
        body: Vec<u8>,
        budget: Duration,
    ) -> Result<Response, RpcError> {
        Self::lock(self.next()).call_with_deadline(method, body, budget)
    }

    /// Pipelines the whole batch down one connection (round-robin pick).
    pub fn call_many(&self, method: &str, bodies: Vec<Vec<u8>>) -> Vec<Result<Response, RpcError>> {
        Self::lock(self.next()).call_many(method, bodies)
    }

    /// As [`TcpClientPool::call_many`] with a per-request deadline budget.
    pub fn call_many_with_deadline(
        &self,
        method: &str,
        bodies: Vec<Vec<u8>>,
        budget: Duration,
    ) -> Vec<Result<Response, RpcError>> {
        Self::lock(self.next()).call_many_with_deadline(method, bodies, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PoolConfig;
    use crate::server::InProcServer;

    #[test]
    fn application_error_maps_to_rpc_error() {
        let server = InProcServer::start(
            |_req: &Request| Response::error("no such key"),
            PoolConfig::single_lane(1),
        );
        let client = server.client();
        match client.call("get", vec![]) {
            Err(RpcError::Application(m)) => assert_eq!(m, "no such key"),
            other => panic!("expected application error, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn stats_track_calls() {
        let server = InProcServer::start(
            |req: &Request| Response::ok(req.body.clone()),
            PoolConfig::single_lane(1),
        );
        let client = server.client();
        for _ in 0..5 {
            client.call("m", vec![0u8; 32]).unwrap();
        }
        assert_eq!(client.stats().requests(), 5);
        assert_eq!(client.stats().responses(), 5);
        assert!(client.stats().bytes_sent() > 5 * 32);
        assert_eq!(client.stats().error_rate(), 0.0);
        server.shutdown();
    }

    #[test]
    fn try_call_sheds_on_saturated_queue() {
        // One worker parked on a gate; depth-1 queue.
        let (gate_tx, gate_rx) = crossbeam::channel::bounded::<()>(0);
        let gate_rx = std::sync::Mutex::new(gate_rx);
        let server = InProcServer::start(
            move |req: &Request| {
                if req.method == "block" {
                    let _ = gate_rx.lock().unwrap().recv();
                }
                Response::ok(vec![])
            },
            PoolConfig::single_lane(1).with_queue_depth(1),
        );
        let client = server.client();
        // Occupy the worker.
        let blocker = {
            let client = client.clone();
            std::thread::spawn(move || client.call("block", vec![]))
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        // Fill the queue.
        let filler = {
            let client = client.clone();
            std::thread::spawn(move || client.call("x", vec![]))
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        // This one must shed.
        match client.try_call("x", vec![]) {
            Err(RpcError::Overloaded) => {}
            other => panic!("expected overload, got {other:?}"),
        }
        gate_tx.send(()).unwrap();
        blocker.join().unwrap().unwrap();
        filler.join().unwrap().unwrap();
        server.shutdown();
    }
}

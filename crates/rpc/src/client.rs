//! RPC clients: in-process and TCP. Each client has one request path,
//! the pipelined `call_many` burst; a single call is a burst of one.

use crate::frame::{self, append_frame_with, read_frame, Request, Response, RpcError, Status};
use crate::server::ServerCore;
use crate::stats::RpcStats;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
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

/// The one outcome of a burst of one. Burst paths return exactly one
/// outcome per body, so the fallback is never taken.
pub(crate) fn single(mut outcomes: Vec<Result<Response, RpcError>>) -> Result<Response, RpcError> {
    outcomes.pop().unwrap_or(Err(RpcError::Disconnected))
}

/// A handle for calling an [`InProcServer`](crate::server::InProcServer).
///
/// Cheap to clone; every clone shares the server's pool and stats.
#[derive(Clone)]
pub struct InProcClient {
    core: Arc<ServerCore>,
}

impl std::fmt::Debug for InProcClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcClient").finish_non_exhaustive()
    }
}

impl InProcClient {
    pub(crate) fn new(core: Arc<ServerCore>) -> Self {
        Self { core }
    }

    /// Synchronous call: a burst of one through
    /// [`InProcClient::call_many`]. A fast-lane call runs on this thread;
    /// a slow-lane call waits for queue space under load (closed loop).
    ///
    /// # Errors
    ///
    /// Returns [`RpcError::Application`] for handler-reported errors,
    /// [`RpcError::Overloaded`] if the server shut down mid-call.
    pub fn call(&self, method: &str, body: Vec<u8>) -> Result<Response, RpcError> {
        single(self.call_many_inner(method, vec![body], None))
    }

    /// Issues a pipelined batch of same-method calls: every request is
    /// dispatched before any reply is awaited, so the slow-lane part of
    /// the batch keeps the pool busy without one thread per call, while
    /// fast-lane requests run on this thread as they are dispatched.
    /// Results come back in issue order regardless of completion order:
    /// each reply carries its request's index in the burst.
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
        let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, Vec<u8>)>(n.max(1));
        let mut dispatched = 0usize;
        // One sender per request: the last request takes the original.
        let senders = std::iter::repeat_n(tx, n);
        for ((idx, body), tx) in bodies.into_iter().enumerate().zip(senders) {
            // Replies are routed by `idx` in the reply closure, so the
            // request needs no correlation id.
            let mut req = Request::new(method, body);
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
            // The guard rides in the reply closure, so depth accounting
            // survives shutdown (a dropped closure still drops the guard).
            let guard = self.core.pipeline.track();
            self.core.dispatch(req, move |resp| {
                let _guard = guard;
                let _ = tx.send((idx, resp.encode()));
            });
            dispatched += 1;
        }
        for _ in 0..dispatched {
            // A recv error means every remaining reply closure was dropped
            // unsent (shutdown); the unfilled slots below cover it.
            let Ok((idx, encoded)) = rx.recv() else {
                break;
            };
            let outcome = match Response::decode(&encoded) {
                Ok(resp) => {
                    self.core.stats.record_response(encoded.len(), resp.status);
                    response_to_result(resp)
                }
                Err(e) => Err(RpcError::Wire(e)),
            };
            results[idx] = Some(outcome);
        }
        results
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    // The pool shut down and dropped the reply unsent.
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

/// Reads the next response frame and returns it with its payload length.
/// A frame that is whole in the read buffer decodes straight from it; one
/// larger than the buffer, or split across reads, goes through
/// [`read_frame`].
fn read_response(reader: &mut BufReader<TcpStream>) -> Result<(Response, usize), RpcError> {
    let buffered = reader.fill_buf().map_err(map_io)?;
    if buffered.is_empty() {
        return Err(RpcError::Disconnected);
    }
    if let Some(prefix) = buffered.first_chunk::<4>() {
        let len = u32::from_be_bytes(*prefix) as usize;
        // A frame that fits the buffer is far below MAX_FRAME.
        if let Some(payload) = buffered.get(4..).and_then(|rest| rest.get(..len)) {
            let resp = Response::decode(payload)?;
            reader.consume(4 + len);
            return Ok((resp, len));
        }
    }
    match read_frame(reader) {
        Ok(Some(payload)) => Ok((Response::decode(&payload)?, payload.len())),
        Ok(None) => Err(RpcError::Disconnected),
        Err(e) => Err(map_io(e)),
    }
}

/// A synchronous TCP RPC client. [`TcpClient::call_many`] pipelines a
/// batch through an in-flight window so one connection does the work of
/// N single-call clients; [`TcpClient::call`] is a burst of one, so it
/// keeps one outstanding call per connection (classic Thrift sync
/// behavior).
pub struct TcpClient {
    /// Replies are read through the buffer; requests are written to the
    /// socket it wraps.
    reader: BufReader<TcpStream>,
    /// The frames of one window top-up, reused from burst to burst.
    burst: Vec<u8>,
    next_corr: u64,
    window: usize,
    stats: RpcStats,
}

impl std::fmt::Debug for TcpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClient")
            .field("next_corr", &self.next_corr)
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
        Ok(Self {
            reader: BufReader::new(stream),
            burst: Vec::new(),
            next_corr: 1,
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

    /// Synchronous call over the connection: a burst of one through
    /// [`TcpClient::call_many`].
    ///
    /// # Errors
    ///
    /// Returns I/O, wire, application, or overload errors.
    pub fn call(&mut self, method: &str, body: Vec<u8>) -> Result<Response, RpcError> {
        single(self.call_many(method, vec![body]))
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
        // Give the replies a grace window past the server-side budget so
        // an in-flight shed response is read rather than raced.
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
        let deadline_us = budget.map_or(0, frame::budget_us);
        // Request `i` of this call carries `base + i`, so a reply's corr
        // names its slot.
        let base = self.next_corr;
        let (mut sent, mut received) = (0, 0);

        let failure: Option<RpcError> = 'run: {
            loop {
                // Top up the window: encode a burst of frames and push it
                // with one write.
                if sent < n && sent - received < self.window {
                    self.burst.clear();
                    while sent < n && sent - received < self.window {
                        let encoded = append_frame_with(&mut self.burst, |out| {
                            frame::encode_request(
                                out,
                                self.next_corr,
                                method,
                                &bodies[sent],
                                deadline_us,
                            );
                        });
                        match encoded {
                            Ok(len) => self.stats.record_request(len),
                            Err(e) => break 'run Some(map_io(e)),
                        }
                        self.next_corr += 1;
                        sent += 1;
                    }
                    if let Err(e) = self.reader.get_ref().write_all(&self.burst) {
                        break 'run Some(map_io(e));
                    }
                }
                if received == sent {
                    break 'run None;
                }
                // Await any one completion; the server may answer in any
                // order.
                let (resp, len) = match read_response(&mut self.reader) {
                    Ok(r) => r,
                    Err(e) => break 'run Some(e),
                };
                self.stats.record_response(len, resp.status);
                // A corr outside this call's sent requests, or one already
                // answered, means the stream cannot be trusted.
                let slot = match usize::try_from(resp.corr.wrapping_sub(base)) {
                    Ok(i) if i < sent && results[i].is_none() => i,
                    _ => break 'run Some(RpcError::CorrelationMismatch { got: resp.corr }),
                };
                results[slot] = Some(response_to_result(resp));
                received += 1;
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
}

//! Request/response messages and their stream framing.
//!
//! Frames are `[u32 length][payload]`. The payload is one fixed field
//! order, written with the [`wire`] primitives: a request is
//! `corr, method, body, deadline_us` and a response is `corr, status,
//! body`. Every field is required, and a payload with bytes left after
//! its last field is rejected. The TCP transport and the in-process
//! transport both use this codec.

use crate::wire::{self, Reader, WireError};
use std::io::Read;

/// Hard cap on frame size (64 MiB): a corrupt length prefix must not
/// trigger an enormous allocation.
pub const MAX_FRAME: u32 = 64 << 20;

/// An RPC request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Correlation id, echoed verbatim in the response so pipelined
    /// connections can match out-of-order completions back to their
    /// requests. A TCP client assigns unique ids per connection.
    pub corr: u64,
    /// Method name, e.g. `"get"`, `"rank_stories"`.
    pub method: String,
    /// Serialized argument payload.
    pub body: Vec<u8>,
    /// Remaining deadline budget in microseconds; 0 means "no deadline".
    ///
    /// Deadlines travel as relative budgets (client and server share no
    /// clock); the server pins the budget to an absolute expiry the
    /// moment it decodes the frame, and sheds the request with
    /// [`Status::DeadlineExceeded`] if it is still queued when the
    /// budget runs out.
    pub deadline_us: u64,
}

impl Request {
    /// Creates a request with correlation id 0 (a TCP client assigns
    /// real ones) and no deadline.
    pub fn new(method: &str, body: Vec<u8>) -> Self {
        Self {
            corr: 0,
            method: method.to_owned(),
            body,
            deadline_us: 0,
        }
    }

    /// Attaches a deadline budget (builder style). Sub-microsecond
    /// budgets are rounded up so a nonzero budget stays nonzero on the
    /// wire.
    pub fn with_deadline(mut self, budget: std::time::Duration) -> Self {
        self.deadline_us = budget_us(budget);
        self
    }

    /// Serializes the request payload (without the frame length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.method.len() + self.body.len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the request payload (without the frame length prefix) to
    /// `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_request(out, self.corr, &self.method, &self.body, self.deadline_us);
    }

    /// Parses a request payload.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input: a payload that stops
    /// short of its last field, or has bytes left after it.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut req = Self::new("", Vec::new());
        req.decode_into(buf)?;
        Ok(req)
    }

    /// Parses a request payload into `self`, reusing the capacity of its
    /// `method` and `body`. The rules are those of [`Request::decode`];
    /// on error `self` holds a partly decoded request.
    ///
    /// # Errors
    ///
    /// As [`Request::decode`].
    pub fn decode_into(&mut self, buf: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::new(buf);
        self.corr = r.read_uvarint()?;
        let method = r.read_str()?;
        self.method.clear();
        self.method.push_str(method);
        let body = r.read_bytes()?;
        self.body.clear();
        self.body.extend_from_slice(body);
        self.deadline_us = r.read_uvarint()?;
        r.finish()
    }
}

/// A deadline budget in whole wire microseconds. Sub-microsecond budgets
/// round up, so a nonzero budget stays nonzero on the wire.
pub(crate) fn budget_us(budget: std::time::Duration) -> u64 {
    u64::try_from(budget.as_micros())
        .unwrap_or(u64::MAX)
        .max(u64::from(!budget.is_zero()))
}

/// Appends a request payload built from its fields, so a caller that
/// holds them apart needs no [`Request`].
pub(crate) fn encode_request(
    out: &mut Vec<u8>,
    corr: u64,
    method: &str,
    body: &[u8],
    deadline_us: u64,
) {
    wire::write_uvarint(out, corr);
    wire::write_str(out, method);
    wire::write_bytes(out, body);
    wire::write_uvarint(out, deadline_us);
}

/// Response status, mirroring Thrift's reply/exception split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// Successful reply.
    Ok,
    /// Application-level error.
    Error,
    /// Server overloaded / queue full (used for SLO error accounting).
    Overloaded,
    /// The request's deadline expired before (or while) it was served;
    /// the work was shed instead of burning a worker.
    DeadlineExceeded,
}

impl Status {
    fn to_byte(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Error => 1,
            Status::Overloaded => 2,
            Status::DeadlineExceeded => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            0 => Ok(Status::Ok),
            1 => Ok(Status::Error),
            2 => Ok(Status::Overloaded),
            3 => Ok(Status::DeadlineExceeded),
            other => Err(WireError::UnknownTag(other)),
        }
    }
}

/// An RPC response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echo of the request's correlation id.
    pub corr: u64,
    /// Outcome status.
    pub status: Status,
    /// Serialized result payload.
    pub body: Vec<u8>,
}

impl Response {
    fn with_status(status: Status, body: Vec<u8>) -> Self {
        Self {
            corr: 0,
            status,
            body,
        }
    }

    /// A successful response carrying `body`.
    pub fn ok(body: Vec<u8>) -> Self {
        Self::with_status(Status::Ok, body)
    }

    /// An application-error response with a message body.
    pub fn error(message: &str) -> Self {
        Self::with_status(Status::Error, message.as_bytes().to_vec())
    }

    /// An overload response (request shed).
    pub fn overloaded() -> Self {
        Self::with_status(Status::Overloaded, Vec::new())
    }

    /// A deadline-exceeded response (expired work shed).
    pub fn deadline_exceeded() -> Self {
        Self::with_status(Status::DeadlineExceeded, Vec::new())
    }

    /// Whether the call succeeded.
    pub fn is_ok(&self) -> bool {
        self.status == Status::Ok
    }

    /// Serializes the response payload (without the frame length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.body.len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the response payload (without the frame length prefix) to
    /// `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        wire::write_uvarint(out, self.corr);
        out.push(self.status.to_byte());
        wire::write_bytes(out, &self.body);
    }

    /// Parses a response payload.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input: a payload that stops
    /// short of its last field, or has bytes left after it.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let resp = Self {
            corr: r.read_uvarint()?,
            status: Status::from_byte(r.read_u8()?)?,
            body: r.read_bytes()?.to_vec(),
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Appends one length-prefixed frame to `out`, with the payload that
/// `encode` appends after the prefix: the prefix is reserved first and
/// filled in once the payload's length is known, so the payload is
/// written straight into the buffer that goes on the wire. Frames
/// appended without a flush between them leave in one `write_all` (the
/// batching half of pipelining). Returns the payload's length.
///
/// # Errors
///
/// Returns `InvalidData`, leaving `out` as it was, if the payload
/// exceeds [`MAX_FRAME`].
pub fn append_frame_with(
    out: &mut Vec<u8>,
    encode: impl FnOnce(&mut Vec<u8>),
) -> std::io::Result<usize> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    encode(out);
    let len = out.len() - start - 4;
    match u32::try_from(len) {
        Ok(prefix) if prefix <= MAX_FRAME => {
            out[start..start + 4].copy_from_slice(&prefix.to_be_bytes());
            Ok(len)
        }
        _ => {
            out.truncate(start);
            Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds MAX_FRAME"),
            ))
        }
    }
}

/// Reads one length-prefixed frame from a stream. Returns `Ok(None)` on a
/// clean EOF at a frame boundary.
///
/// # Errors
///
/// Returns an I/O error from the reader, or `InvalidData` on an oversized
/// length prefix or mid-frame EOF.
pub fn read_frame<R: Read>(mut r: R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    // Distinguish clean EOF (no bytes) from a truncated prefix.
    match r.read(&mut len_buf)? {
        0 => return Ok(None),
        n => r.read_exact(&mut len_buf[n..])?,
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Errors surfaced to RPC callers.
#[derive(Debug)]
pub enum RpcError {
    /// Transport-level failure.
    Io(std::io::Error),
    /// Malformed frame or payload.
    Wire(WireError),
    /// The server reported an application error.
    Application(String),
    /// The server shed the request due to overload.
    Overloaded,
    /// The request's deadline expired before it was served.
    DeadlineExceeded,
    /// The call timed out waiting on the transport.
    Timeout,
    /// A client-side circuit breaker rejected the call without sending.
    CircuitOpen,
    /// The server is shutting down or the channel is closed.
    Disconnected,
    /// A pipelined connection received a response whose correlation id
    /// matches no in-flight request — the peer is confused or the stream
    /// is desynchronized, so the connection cannot be trusted.
    CorrelationMismatch {
        /// The unmatched correlation id from the wire.
        got: u64,
    },
}

impl RpcError {
    /// Whether a retry of the same call could plausibly succeed.
    ///
    /// Transient transport and load conditions (overload, timeout, I/O,
    /// disconnect, expired deadline) are retryable; deterministic
    /// failures (application errors, malformed frames, desynchronized
    /// correlation ids) and breaker rejections (retrying
    /// defeats the breaker) are not.
    pub fn is_retryable(&self) -> bool {
        match self {
            RpcError::Io(_)
            | RpcError::Overloaded
            | RpcError::DeadlineExceeded
            | RpcError::Timeout
            | RpcError::Disconnected => true,
            RpcError::Wire(_)
            | RpcError::Application(_)
            | RpcError::CircuitOpen
            | RpcError::CorrelationMismatch { .. } => false,
        }
    }

    /// Best-effort copy, for fanning one transport failure out to every
    /// request it sank with it (a pipelined batch dies as a unit).
    /// `io::Error` is not `Clone`, so the I/O arm preserves kind and
    /// message rather than the original error value.
    pub fn duplicate(&self) -> Self {
        match self {
            RpcError::Io(e) => RpcError::Io(std::io::Error::new(e.kind(), e.to_string())),
            RpcError::Wire(e) => RpcError::Wire(e.clone()),
            RpcError::Application(m) => RpcError::Application(m.clone()),
            RpcError::Overloaded => RpcError::Overloaded,
            RpcError::DeadlineExceeded => RpcError::DeadlineExceeded,
            RpcError::Timeout => RpcError::Timeout,
            RpcError::CircuitOpen => RpcError::CircuitOpen,
            RpcError::Disconnected => RpcError::Disconnected,
            RpcError::CorrelationMismatch { got } => RpcError::CorrelationMismatch { got: *got },
        }
    }
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Io(e) => write!(f, "rpc i/o error: {e}"),
            RpcError::Wire(e) => write!(f, "rpc wire error: {e}"),
            RpcError::Application(m) => write!(f, "rpc application error: {m}"),
            RpcError::Overloaded => write!(f, "rpc request shed: server overloaded"),
            RpcError::DeadlineExceeded => write!(f, "rpc deadline exceeded: expired work shed"),
            RpcError::Timeout => write!(f, "rpc call timed out"),
            RpcError::CircuitOpen => write!(f, "rpc call rejected: circuit breaker open"),
            RpcError::Disconnected => write!(f, "rpc peer disconnected"),
            RpcError::CorrelationMismatch { got } => {
                write!(f, "rpc response correlation id {got} matches no request")
            }
        }
    }
}

impl std::error::Error for RpcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RpcError::Io(e) => Some(e),
            RpcError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RpcError {
    fn from(e: std::io::Error) -> Self {
        RpcError::Io(e)
    }
}

impl From<WireError> for RpcError {
    fn from(e: WireError) -> Self {
        RpcError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let mut req = Request::new("get_feed", vec![1, 2, 3]);
        req.corr = u64::MAX;
        let back = Request::decode(&req.encode()).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn request_deadline_round_trips() {
        let req = Request::new("get", vec![1]).with_deadline(std::time::Duration::from_millis(250));
        assert_eq!(req.deadline_us, 250_000);
        let back = Request::decode(&req.encode()).unwrap();
        assert_eq!(back.deadline_us, 250_000);
    }

    #[test]
    fn tiny_nonzero_deadline_stays_nonzero_on_wire() {
        let req = Request::new("get", vec![]).with_deadline(std::time::Duration::from_nanos(10));
        assert_eq!(req.deadline_us, 1, "must not collapse to 'no deadline'");
    }

    #[test]
    fn response_round_trips_all_statuses() {
        for resp in [
            Response::ok(vec![9; 100]),
            Response::error("bad key"),
            Response::overloaded(),
            Response::deadline_exceeded(),
        ] {
            let back = Response::decode(&resp.encode()).unwrap();
            assert_eq!(resp, back);
        }
    }

    #[test]
    fn status_accessors() {
        assert!(Response::ok(vec![]).is_ok());
        assert!(!Response::error("x").is_ok());
        assert!(!Response::overloaded().is_ok());
        assert!(!Response::deadline_exceeded().is_ok());
    }

    #[test]
    fn retryability_classification() {
        assert!(RpcError::Overloaded.is_retryable());
        assert!(RpcError::Timeout.is_retryable());
        assert!(RpcError::DeadlineExceeded.is_retryable());
        assert!(RpcError::Disconnected.is_retryable());
        assert!(RpcError::Io(std::io::Error::other("x")).is_retryable());
        assert!(!RpcError::Application("nope".into()).is_retryable());
        assert!(!RpcError::CircuitOpen.is_retryable());
        assert!(!RpcError::Wire(WireError::UnexpectedEof).is_retryable());
        assert!(!RpcError::CorrelationMismatch { got: 7 }.is_retryable());
    }

    #[test]
    fn response_corr_round_trips() {
        let mut resp = Response::ok(vec![5; 10]);
        resp.corr = 12345;
        let back = Response::decode(&resp.encode()).unwrap();
        assert_eq!(back.corr, 12345);
        assert_eq!(resp, back);
    }

    #[test]
    fn append_frame_with_rejects_oversized_payload() {
        let mut out = b"earlier frames".to_vec();
        let err = append_frame_with(&mut out, |b| b.resize(b.len() + MAX_FRAME as usize + 1, 0))
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(
            out, b"earlier frames",
            "nothing may be appended on rejection"
        );
    }

    /// Appends `payload` as one frame.
    fn append(out: &mut Vec<u8>, payload: &[u8]) {
        append_frame_with(out, |b| b.extend_from_slice(payload)).unwrap();
    }

    #[test]
    fn rpc_error_duplicate_preserves_classification() {
        let errors = [
            RpcError::Io(std::io::Error::new(std::io::ErrorKind::TimedOut, "slow")),
            RpcError::Wire(WireError::UnexpectedEof),
            RpcError::Application("boom".into()),
            RpcError::Overloaded,
            RpcError::DeadlineExceeded,
            RpcError::Timeout,
            RpcError::CircuitOpen,
            RpcError::Disconnected,
            RpcError::CorrelationMismatch { got: 8 },
        ];
        for e in &errors {
            let d = e.duplicate();
            assert_eq!(d.is_retryable(), e.is_retryable(), "{e}");
            assert_eq!(d.to_string(), e.to_string());
        }
    }

    #[test]
    fn frame_round_trips_over_a_buffer() {
        let mut stream = Vec::new();
        append(&mut stream, b"abc");
        append(&mut stream, b"");
        append(&mut stream, &[7u8; 1000]);
        let mut cursor = std::io::Cursor::new(stream);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"abc");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), vec![7u8; 1000]);
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let mut stream = Vec::new();
        append(&mut stream, b"abcdef");
        stream.truncate(stream.len() - 2);
        let mut cursor = std::io::Cursor::new(stream);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn oversized_frame_length_rejected() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut cursor = std::io::Cursor::new(stream);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn corrupt_status_byte_rejected() {
        let mut resp = Response::ok(vec![]);
        resp.corr = 1;
        let mut bytes = resp.encode();
        bytes[1] = 0xEE; // status byte follows the 1-byte corr varint
        assert!(Response::decode(&bytes).is_err());
    }

    #[test]
    fn rpc_error_display() {
        let e = RpcError::Application("boom".into());
        assert!(e.to_string().contains("boom"));
        assert!(RpcError::Overloaded.to_string().contains("overloaded"));
    }
}

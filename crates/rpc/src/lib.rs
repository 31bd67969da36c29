//! A Thrift-style RPC stack built from scratch for DCPerf-RS.
//!
//! Every DCPerf benchmark "is designed as a client-server application …
//! \[communicating\] via the Thrift RPC protocol. This emulates not only
//! the communication pattern in production, but also the RPC 'datacenter
//! tax', which consumes a significant amount of CPU cycles and memory"
//! (§3.1). This crate provides that substrate:
//!
//! * [`wire`] — compact binary encoding: ULEB128 varints, zigzag signed
//!   integers, length-prefixed strings and binaries.
//! * [`value`] — a dynamically-typed, Thrift-like value model
//!   ([`Value`]) with tagged struct/list/map encoding, used both as the
//!   RPC payload format and as the serialization "tax" kernel.
//! * [`frame`] — request/response message framing.
//! * [`pipeline`] — pipelining knobs ([`PipelineConfig`]) and the
//!   `rpc.pipeline.*` / `rpc.batch.*` depth and batching telemetry:
//!   connections read ahead, complete out of order by correlation id,
//!   and coalesce response bursts into single writes.
//! * [`pool`] — *fast/slow lane* routing, mirroring TAO's split between
//!   cache hits and misses: fast-lane jobs run inline on the thread that
//!   delivered the request, slow-lane jobs on a bounded worker pool.
//! * [`server`] / [`client`] — in-process and TCP transports. Each
//!   client's one request path is the pipelined `call_many` burst; a
//!   synchronous `call` is a burst of one.
//! * [`resilient`] — a client wrapper adding deadlines, capped retries
//!   with deterministic backoff, and circuit breaking from
//!   [`dcperf_resilience`].
//!
//! # Examples
//!
//! An in-process echo service:
//!
//! ```
//! use dcperf_rpc::{InProcServer, PoolConfig, Request, Response};
//!
//! let server = InProcServer::start(
//!     |req: &Request| Response::ok(req.body.clone()),
//!     PoolConfig::single_lane(2),
//! );
//! let client = server.client();
//! let reply = client.call("echo", b"hello".to_vec())?;
//! assert_eq!(reply.body, b"hello");
//! server.shutdown();
//! # Ok::<(), dcperf_rpc::RpcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod frame;
pub mod pipeline;
pub mod pool;
pub mod resilient;
pub mod server;
pub mod stats;
pub mod value;
pub mod wire;

pub use client::{InProcClient, TcpClient};
pub use frame::{Request, Response, RpcError, Status};
pub use pipeline::{PipelineConfig, PipelineStats};
pub use pool::{Lane, PoolConfig, ThreadPool};
pub use resilient::{ResilientClient, ResilientTransport};
pub use server::{InProcServer, TcpServer};
pub use stats::RpcStats;
pub use value::Value;

//! Cross-crate telemetry integration: drive the load generator against a
//! real RPC echo server and check that every layer's view of the run
//! agrees — the loadgen report, its embedded telemetry snapshot, the RPC
//! client/server stats, and the server's own telemetry registry.

use dcperf_loadgen::{ClosedLoop, EndpointMix, Service, ServiceError};
use dcperf_rpc::{InProcClient, InProcServer, PoolConfig, Request, Response};
use std::time::Duration;

/// Adapts an RPC client to the loadgen `Service` trait: one request per
/// load-generator call, echoing an 8-byte body.
struct EchoService {
    client: InProcClient,
}

impl Service for EchoService {
    fn call(&self, _endpoint: usize, seq: u64) -> Result<usize, ServiceError> {
        match self.client.call("echo", seq.to_le_bytes().to_vec()) {
            Ok(resp) => Ok(resp.body.len()),
            Err(e) => Err(ServiceError::new(e.to_string())),
        }
    }
}

#[test]
fn loadgen_snapshot_matches_rpc_stats() {
    const REQUESTS: u64 = 400;

    let server = InProcServer::start(
        |req: &Request| Response::ok(req.body.clone()),
        PoolConfig::single_lane(2),
    );
    let client = server.client();
    let mix = EndpointMix::uniform(&["echo"]).expect("non-empty mix");
    let report = ClosedLoop::new(mix)
        .workers(2)
        .duration(Duration::from_secs(30)) // the request cap ends the run
        .max_requests(REQUESTS)
        .run(
            &EchoService {
                client: client.clone(),
            },
            0xD0_0D,
        );

    // The echo handler cannot fail, so every attempt completed.
    assert!(report.completed > 0 && report.completed <= REQUESTS);
    assert_eq!(report.errors, 0);

    // The report's embedded snapshot and its plain fields agree.
    assert_eq!(
        report.telemetry.counter("loadgen.completed"),
        Some(report.completed)
    );
    assert_eq!(report.telemetry.counter("loadgen.errors"), Some(0));
    let latency = report
        .telemetry
        .histogram("loadgen.latency_ns")
        .expect("latency digest present");
    assert_eq!(latency.count, report.completed);
    assert_eq!(latency.p50, report.latency_ns.p50());

    // Each completion was exactly one RPC round trip.
    assert_eq!(client.stats().requests(), report.completed);
    assert_eq!(client.stats().responses(), report.completed);
    assert_eq!(client.stats().errors(), 0);
    assert_eq!(client.stats().shed(), 0);

    // The server's registry snapshot agrees with the stats accessors,
    // including the pool-lane counters fed by the same registry.
    let snap = server.telemetry().snapshot();
    assert_eq!(snap.counter("rpc.requests"), Some(report.completed));
    assert_eq!(snap.counter("rpc.responses"), Some(report.completed));
    assert_eq!(
        snap.counter("rpc.bytes_sent"),
        Some(client.stats().bytes_sent())
    );
    assert_eq!(snap.counter("rpc.pool.fast_jobs"), Some(report.completed));
    assert_eq!(snap.counter("rpc.pool.slow_jobs"), Some(0));

    server.shutdown();
}

//! Concurrency stress for the multiplexed RPC path: many client threads,
//! each keeping a pipelined window of requests in flight over its own
//! connection or in-process client, with an echo oracle proving every
//! response was matched to *its* request — a swap anywhere in the window
//! would scramble the payloads.
//!
//! A frame that arrives in parts, with pauses longer than the server's
//! read timeout, must still be served.
//!
//! Runs identically with and without `--features fault-injection` (no
//! plan is installed, so the injection hook must be inert).

use dcperf_rpc::frame::{append_frame_with, read_frame};
use dcperf_rpc::{Lane, PipelineConfig, PoolConfig, Request, Response, TcpClient};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const THREADS: usize = 4;
const BATCHES: usize = 24;
const WINDOW: usize = 16;

/// The expected echo payload for (thread, batch, slot): unique per
/// request so any cross-wiring of correlation ids is caught by content.
fn payload(thread: usize, batch: usize, slot: usize) -> Vec<u8> {
    format!("t{thread}.b{batch}.s{slot}").into_bytes()
}

fn start_echo_server() -> (dcperf_rpc::TcpServer, SocketAddr) {
    let server = dcperf_rpc::TcpServer::bind_with_pipeline(
        "127.0.0.1:0",
        |req: &Request| Response::ok(req.body.clone()),
        PoolConfig::single_lane(4).with_queue_depth(1024),
        PipelineConfig::default(),
    )
    .expect("bind echo server");
    let addr = server.local_addr();
    (server, addr)
}

#[test]
fn pipelined_tcp_clients_match_responses_to_requests() {
    let (server, addr) = start_echo_server();
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            scope.spawn(move || {
                let mut client = TcpClient::connect(addr)
                    .expect("connect")
                    .with_window(WINDOW);
                for batch in 0..BATCHES {
                    let bodies: Vec<Vec<u8>> = (0..WINDOW)
                        .map(|slot| payload(thread, batch, slot))
                        .collect();
                    let outcomes = client.call_many("echo", bodies);
                    assert_eq!(outcomes.len(), WINDOW);
                    for (slot, outcome) in outcomes.into_iter().enumerate() {
                        let resp = outcome
                            .unwrap_or_else(|e| panic!("t{thread} b{batch} s{slot} failed: {e}"));
                        assert_eq!(
                            resp.body,
                            payload(thread, batch, slot),
                            "response body must echo the request that owns the slot"
                        );
                    }
                }
            });
        }
    });
    assert!(
        server.pipeline().flushes() > 0,
        "the batched writer must have flushed at least once"
    );
    server.shutdown();
}

#[test]
fn inproc_call_many_matches_out_of_order_completions() {
    let server = dcperf_rpc::InProcServer::start(
        |req: &Request| Response::ok(req.body.clone()),
        PoolConfig::single_lane(4).with_queue_depth(1024),
    );
    let client = server.client();
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let client = client.clone();
            scope.spawn(move || {
                for batch in 0..BATCHES {
                    let bodies: Vec<Vec<u8>> = (0..WINDOW)
                        .map(|slot| payload(thread, batch, slot))
                        .collect();
                    for (slot, outcome) in client.call_many("echo", bodies).into_iter().enumerate()
                    {
                        let resp = outcome.expect("in-proc batch call succeeds");
                        assert_eq!(resp.body, payload(thread, batch, slot));
                    }
                }
            });
        }
    });
    server.shutdown();
}

#[test]
fn inproc_burst_returns_in_issue_order_when_the_first_request_finishes_last() {
    // The first body goes to the slow lane, whose handler waits until the
    // fast lane has answered every other body, so the first slot's reply
    // arrives last.
    const BURST: usize = 8;
    let bodies: Vec<Vec<u8>> = (0..BURST).map(|slot| payload(0, 0, slot)).collect();
    let slow_body = bodies[0].clone();
    let (gate_tx, gate_rx) = mpsc::channel::<()>();
    let gate_rx = Mutex::new(gate_rx);
    let completed: Arc<Mutex<Vec<Vec<u8>>>> = Arc::default();
    let log = Arc::clone(&completed);
    let server = dcperf_rpc::InProcServer::start_with_classifier(
        move |req: &Request| {
            if req.body == slow_body {
                // A missing gate would turn into a failed order check, not
                // a hang.
                let _ = gate_rx
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(10));
                log.lock().unwrap().push(req.body.clone());
            } else {
                let mut log = log.lock().unwrap();
                log.push(req.body.clone());
                if log.len() == BURST - 1 {
                    let _ = gate_tx.send(());
                }
            }
            Response::ok(req.body.clone())
        },
        {
            let slow_body = bodies[0].clone();
            move |req: &Request| {
                if req.body == slow_body {
                    Lane::Slow
                } else {
                    Lane::Fast
                }
            }
        },
        PoolConfig::fast_slow(1, 1),
    );
    let outcomes = server.client().call_many("echo", bodies.clone());
    let order = completed.lock().unwrap().clone();
    assert_eq!(order.len(), BURST);
    assert_eq!(
        order.last(),
        Some(&bodies[0]),
        "every fast reply must complete before the slow one: {order:?}"
    );
    assert_eq!(outcomes.len(), BURST);
    for (slot, outcome) in outcomes.into_iter().enumerate() {
        let resp = outcome.expect("in-proc burst call succeeds");
        assert_eq!(resp.body, bodies[slot], "slot {slot} got another reply");
    }
    server.shutdown();
}

/// Echoes a window of large bodies through one `call_many`, on a server
/// that serves every request on `lane`. The client writes its whole
/// window before it reads a reply, and the window is far larger than
/// the socket buffers, so the server must keep reading requests while
/// replies it cannot write yet wait: a server that blocks on a reply
/// write stalls until it gives up on the connection.
fn large_bodies_round_trip(lane: Lane) {
    const WINDOW: usize = 32;
    const CALLS: usize = 40;
    const BODY: usize = 1 << 20;
    let server = dcperf_rpc::TcpServer::bind_full(
        "127.0.0.1:0",
        |req: &Request| Response::ok(req.body.clone()),
        move |_: &Request| lane,
        PoolConfig::single_lane(1),
        PipelineConfig::default(),
    )
    .expect("bind echo server");
    let mut client = TcpClient::connect(server.local_addr())
        .expect("connect")
        .with_window(WINDOW);
    let bodies: Vec<Vec<u8>> = (0..CALLS).map(|i| vec![i as u8; BODY]).collect();
    let outcomes = client.call_many("echo", bodies);
    assert_eq!(outcomes.len(), CALLS);
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let resp = outcome.unwrap_or_else(|e| panic!("call {i} failed: {e}"));
        assert_eq!(resp.body.len(), BODY, "call {i}");
        assert!(
            resp.body.iter().all(|&b| b == i as u8),
            "call {i} got another body"
        );
    }
    server.shutdown();
}

#[test]
fn fast_lane_echoes_a_window_of_large_bodies() {
    large_bodies_round_trip(Lane::Fast);
}

#[test]
fn slow_lane_echoes_a_window_of_large_bodies() {
    large_bodies_round_trip(Lane::Slow);
}

#[test]
fn frame_split_by_a_long_pause_is_served() {
    // One 64-byte echo frame in two writes, 400 ms apart: longer than the
    // reader's 200 ms read timeout. The split falls inside the length
    // prefix, on the prefix/payload boundary, and inside the payload.
    let (server, addr) = start_echo_server();
    let mut req = Request::new("echo", vec![0xAB; 52]);
    req.corr = 9;
    let mut frame = Vec::new();
    append_frame_with(&mut frame, |b| req.encode_into(b)).expect("encode frame");
    for split in [2, 4, 30] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        // A lost partial frame fails the test instead of stalling it.
        stream
            .set_read_timeout(Some(Duration::from_secs(3)))
            .expect("read timeout");
        stream
            .write_all(&frame[..split])
            .expect("send the first part");
        std::thread::sleep(Duration::from_millis(400));
        stream.write_all(&frame[split..]).expect("send the rest");
        let reply = read_frame(&mut stream)
            .unwrap_or_else(|e| panic!("split at byte {split}: no reply: {e}"))
            .unwrap_or_else(|| panic!("split at byte {split}: connection closed"));
        let resp = Response::decode(&reply).expect("response decodes");
        assert_eq!(resp.corr, 9, "split at byte {split}");
        assert_eq!(resp.body, req.body, "split at byte {split}");
    }
    server.shutdown();
}

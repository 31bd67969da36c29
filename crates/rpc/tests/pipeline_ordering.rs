//! Out-of-order completion: a slow request at the head of a pipelined
//! connection must not head-of-line-block the fast requests queued behind
//! it. The raw-stream client here writes four frames back-to-back and
//! observes the order responses actually come back in.

use dcperf_rpc::frame::{read_frame, write_frame};
use dcperf_rpc::{Lane, PipelineConfig, PoolConfig, Request, Response, TcpServer};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SLOW_MS: u64 = 150;

fn start_fast_slow_server() -> TcpServer {
    TcpServer::bind_full(
        "127.0.0.1:0",
        |req: &Request| {
            if req.method == "slow" {
                std::thread::sleep(Duration::from_millis(SLOW_MS));
            }
            Response::ok(req.body.clone())
        },
        |req: &Request| {
            if req.method == "slow" {
                Lane::Slow
            } else {
                Lane::Fast
            }
        },
        PoolConfig::fast_slow(2, 2).with_queue_depth(256),
        PipelineConfig::default(),
    )
    .expect("bind fast/slow server")
}

#[test]
fn slow_head_does_not_block_fast_tail() {
    let server = start_fast_slow_server();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // One slow request first, three fast ones right behind it, written
    // back-to-back before reading anything.
    let mut burst = Vec::new();
    for (corr, method) in [(1u64, "slow"), (2, "fast"), (3, "fast"), (4, "fast")] {
        let mut req = Request::new(method, corr.to_le_bytes().to_vec());
        req.seq = corr;
        req.corr = corr;
        write_frame(&mut burst, &req.encode()).expect("encode burst");
    }
    stream.write_all(&burst).expect("send burst");
    stream.flush().expect("flush burst");

    let mut arrived = Vec::new();
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    while arrived.len() < 4 {
        let frame = read_frame(&mut reader)
            .expect("read response frame")
            .expect("connection stays open until all four responses");
        let resp = Response::decode(&frame).expect("response decodes");
        assert!(resp.is_ok(), "all four requests succeed");
        assert_eq!(
            resp.body,
            resp.corr.to_le_bytes().to_vec(),
            "payload rides with its correlation id"
        );
        arrived.push(resp.corr);
    }

    let mut sorted = arrived.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![1, 2, 3, 4], "every correlation id arrives");
    assert_ne!(
        arrived[0], 1,
        "a fast response must overtake the slow head (arrival order {arrived:?})"
    );
    assert_eq!(
        arrived[3], 1,
        "the slow request completes last (arrival order {arrived:?})"
    );
    assert!(
        server.pipeline().inflight_peak() > 1,
        "the window must have held multiple requests in flight, peak={}",
        server.pipeline().inflight_peak()
    );
    server.shutdown();
}

#[test]
fn disabled_pipeline_serializes_the_window() {
    // With max_inflight == 1 the same burst is served strictly in order:
    // the v1 degenerate mode.
    let server = TcpServer::bind_with_pipeline(
        "127.0.0.1:0",
        |req: &Request| {
            if req.method == "slow" {
                std::thread::sleep(Duration::from_millis(40));
            }
            Response::ok(req.body.clone())
        },
        PoolConfig::single_lane(4).with_queue_depth(256),
        PipelineConfig::disabled(),
    )
    .expect("bind serialized server");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    let mut burst = Vec::new();
    for (corr, method) in [(1u64, "slow"), (2, "fast"), (3, "fast")] {
        let mut req = Request::new(method, vec![]);
        req.seq = corr;
        req.corr = corr;
        write_frame(&mut burst, &req.encode()).expect("encode burst");
    }
    stream.write_all(&burst).expect("send burst");

    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let mut arrived = Vec::new();
    while arrived.len() < 3 {
        let frame = read_frame(&mut reader).expect("read").expect("open");
        arrived.push(Response::decode(&frame).expect("decodes").corr);
    }
    assert_eq!(arrived, vec![1, 2, 3], "one-at-a-time mode preserves order");
    server.shutdown();
}

#[test]
fn blocked_slow_lane_batch_does_not_hold_back_fast_responses() {
    // The slow worker may finish "slow_quick", queue its response, and
    // then block on "gated" in the same dequeue batch. The fast response
    // must still be written by the fast worker's own batch end, not wait
    // for the slow worker's.
    /// Opens the gate when dropped, so a failed assertion cannot leave
    /// the slow worker blocked and the server's shutdown hanging.
    struct Gate(Arc<AtomicBool>);
    impl Drop for Gate {
        fn drop(&mut self) {
            // ordering: a test gate; the response carries no data it guards
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let flag = Arc::new(AtomicBool::new(false));
    let gate = Arc::clone(&flag);
    let server = TcpServer::bind_full(
        "127.0.0.1:0",
        move |req: &Request| {
            if req.method == "gated" {
                // ordering: a test gate; the response carries no data it guards
                while !gate.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Response::ok(req.body.clone())
        },
        |req: &Request| {
            if req.method == "fast" {
                Lane::Fast
            } else {
                Lane::Slow
            }
        },
        PoolConfig::fast_slow(1, 1).with_queue_depth(256),
        PipelineConfig::default(),
    )
    .expect("bind fast/slow server");
    // Declared after the server, so it drops (and opens) first.
    let open = Gate(flag);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // A hang fails the test instead of stalling it.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");

    let mut burst = Vec::new();
    for (corr, method) in [(1u64, "slow_quick"), (2, "gated"), (3, "fast")] {
        let mut req = Request::new(method, vec![]);
        req.seq = corr;
        req.corr = corr;
        write_frame(&mut burst, &req.encode()).expect("encode burst");
    }
    stream.write_all(&burst).expect("send burst");

    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let mut arrived = Vec::new();
    while !arrived.contains(&3) {
        let frame = read_frame(&mut reader)
            .expect("the fast response arrives while the slow lane is blocked")
            .expect("open");
        arrived.push(Response::decode(&frame).expect("decodes").corr);
    }
    assert!(!arrived.contains(&2), "the gated request is still blocked");
    drop(open);
    while arrived.len() < 3 {
        let frame = read_frame(&mut reader).expect("read").expect("open");
        arrived.push(Response::decode(&frame).expect("decodes").corr);
    }
    arrived.sort_unstable();
    assert_eq!(arrived, vec![1, 2, 3]);
    server.shutdown();
}

//! Out-of-order completion: a slow request at the head of a pipelined
//! connection must not head-of-line-block the fast requests queued behind
//! it, and a fast reply the connection reader made must be on the wire
//! before the reader blocks. The raw-stream client here writes frames
//! back-to-back and observes the order responses actually come back in.

use dcperf_rpc::frame::{append_frame_with, read_frame};
use dcperf_rpc::{Lane, PipelineConfig, PoolConfig, Request, Response, TcpClient, TcpServer};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SLOW_MS: u64 = 150;

/// Encodes `(corr, method)` requests back-to-back as one burst of frames.
/// Each body is its correlation id, so a reply shows whose it is.
fn burst(requests: &[(u64, &str)]) -> Vec<u8> {
    let mut out = Vec::new();
    for &(corr, method) in requests {
        let mut req = Request::new(method, corr.to_le_bytes().to_vec());
        req.corr = corr;
        append_frame_with(&mut out, |b| req.encode_into(b)).expect("encode burst");
    }
    out
}

/// Opens a test gate when dropped, so a failed assertion cannot leave a
/// slow worker blocked and the server's shutdown hanging.
struct Gate(Arc<AtomicBool>);

impl Drop for Gate {
    fn drop(&mut self) {
        // ordering: a test gate; the response carries no data it guards
        self.0.store(true, Ordering::Relaxed);
    }
}

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
    stream
        .write_all(&burst(&[
            (1u64, "slow"),
            (2, "fast"),
            (3, "fast"),
            (4, "fast"),
        ]))
        .expect("send burst");
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

/// A connection whose read-ahead window holds one request.
const WINDOW_OF_ONE: PipelineConfig = PipelineConfig { max_inflight: 1 };

#[test]
fn window_of_one_serializes_the_connection() {
    // With max_inflight == 1 the same burst is served strictly in order.
    let server = TcpServer::bind_with_pipeline(
        "127.0.0.1:0",
        |req: &Request| {
            if req.method == "slow" {
                std::thread::sleep(Duration::from_millis(40));
            }
            Response::ok(req.body.clone())
        },
        PoolConfig::single_lane(4).with_queue_depth(256),
        WINDOW_OF_ONE,
    )
    .expect("bind serialized server");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    stream
        .write_all(&burst(&[(1u64, "slow"), (2, "fast"), (3, "fast")]))
        .expect("send burst");

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
fn pipelining_client_works_against_a_window_of_one() {
    let server = TcpServer::bind_with_pipeline(
        "127.0.0.1:0",
        |req: &Request| Response::ok(req.body.clone()),
        PoolConfig::single_lane(2).with_queue_depth(64),
        WINDOW_OF_ONE,
    )
    .expect("bind serialized server");
    let mut client = TcpClient::connect(server.local_addr())
        .expect("connect")
        .with_window(8);

    // Single calls.
    for i in 0..4u64 {
        let resp = client.call("echo", i.to_le_bytes().to_vec()).expect("call");
        assert_eq!(resp.body, i.to_le_bytes().to_vec());
    }

    // A full batch: the server serves the window one at a time (in
    // order), which the correlation matching handles transparently.
    let bodies: Vec<Vec<u8>> = (0..8u64).map(|i| i.to_le_bytes().to_vec()).collect();
    for (i, outcome) in client.call_many("echo", bodies).into_iter().enumerate() {
        let resp = outcome.expect("batched call against a window of one succeeds");
        assert_eq!(resp.body, (i as u64).to_le_bytes().to_vec());
    }
    server.shutdown();
}

#[test]
fn blocked_slow_lane_batch_does_not_hold_back_fast_responses() {
    // The slow worker may finish "slow_quick", queue its response, and
    // then block on "gated" in the same dequeue batch. The fast response
    // must still be written by the connection reader, which serves it
    // inline and ends its own batch before it blocks, not wait for the
    // slow worker's batch end.
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

    stream
        .write_all(&burst(&[(1u64, "slow_quick"), (2, "gated"), (3, "fast")]))
        .expect("send burst");

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

#[test]
fn fast_response_is_written_before_the_reader_blocks() {
    // The reader serves the fast request inline and holds its reply in
    // the outbox while more buffered frames follow. The gated slow
    // requests behind it then make the reader block: first on a full
    // read-ahead window, then on a full slow-lane queue. Either way it
    // must write the fast reply out before it blocks, or the reply waits
    // until the gate opens.
    let window_full = (
        PoolConfig::fast_slow(1, 1),
        PipelineConfig { max_inflight: 2 },
    );
    let queue_full = (
        PoolConfig::fast_slow(1, 1).with_queue_depth(1),
        PipelineConfig::default(),
    );
    for (pool, pipeline) in [window_full, queue_full] {
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
            pool,
            pipeline,
        )
        .expect("bind fast/slow server");
        // Declared after the server, so it drops (and opens) first.
        let open = Gate(flag);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        // A hang fails the test instead of stalling it.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");

        stream
            .write_all(&burst(&[
                (1u64, "fast"),
                (2, "gated"),
                (3, "gated"),
                (4, "gated"),
            ]))
            .expect("send burst");

        let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        let frame = read_frame(&mut reader)
            .unwrap_or_else(|e| panic!("{pipeline:?}: no fast response while gated: {e}"))
            .expect("open");
        assert_eq!(Response::decode(&frame).expect("decodes").corr, 1);
        drop(open);
        let mut rest: Vec<u64> = (0..3)
            .map(|_| {
                let frame = read_frame(&mut reader).expect("read").expect("open");
                Response::decode(&frame).expect("decodes").corr
            })
            .collect();
        rest.sort_unstable();
        assert_eq!(rest, vec![2, 3, 4]);
        server.shutdown();
    }
}

#[test]
fn fast_response_is_written_before_a_read_that_could_block() {
    // The reader has the fast frame and the first bytes of the next one
    // buffered. Reading the rest of that frame blocks until the client
    // sends it, and the client sends it only after the fast response
    // arrives: the reader must write that response out before it reads.
    let server = TcpServer::bind_with_pipeline(
        "127.0.0.1:0",
        |req: &Request| Response::ok(req.body.clone()),
        PoolConfig::single_lane(1),
        PipelineConfig::default(),
    )
    .expect("bind echo server");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // A hang fails the test instead of stalling it.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");

    let frames = burst(&[(1u64, "fast"), (2, "fast")]);
    let first_len = frames.len() / 2;
    let (head, tail) = frames.split_at(first_len + 2);
    stream
        .write_all(head)
        .expect("send the first frame and a partial one");

    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let frame = read_frame(&mut reader)
        .expect("the fast response arrives while the next frame is partial")
        .expect("open");
    assert_eq!(Response::decode(&frame).expect("decodes").corr, 1);
    stream.write_all(tail).expect("send the rest");
    let frame = read_frame(&mut reader).expect("read").expect("open");
    assert_eq!(Response::decode(&frame).expect("decodes").corr, 2);
    server.shutdown();
}

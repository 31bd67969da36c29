//! The TCP client's reply path. A reply that is whole in the client's
//! read buffer decodes in place; one larger than the buffer, or split
//! across its end, is read through `read_frame`. Replies are routed to
//! their requests by correlation-id offset, whatever order they come
//! in, and a corr outside the call's sent requests, or one already
//! answered, is a `CorrelationMismatch`. A reply too large for a frame
//! comes back as the server's error, not as a timeout.

use dcperf_rpc::frame::{append_frame_with, read_frame, MAX_FRAME};
use dcperf_rpc::{
    Lane, PipelineConfig, PoolConfig, Request, Response, RpcError, TcpClient, TcpServer,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serves one connection on a raw socket. For each entry of `steps` it
/// reads that many request frames, then writes the responses `reply`
/// makes for them in one write. It returns once the client hangs up.
fn scripted_server(
    steps: Vec<usize>,
    mut reply: impl FnMut(&[Request]) -> Vec<Response> + Send + 'static,
) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        for n in steps {
            let requests: Vec<Request> = (0..n)
                .map(|_| {
                    let frame = read_frame(&mut stream).expect("read").expect("open");
                    Request::decode(&frame).expect("request decodes")
                })
                .collect();
            let mut out = Vec::new();
            for resp in reply(&requests) {
                append_frame_with(&mut out, |b| resp.encode_into(b)).expect("encode reply");
            }
            stream.write_all(&out).expect("write replies");
        }
        let _ = stream.read(&mut [0u8; 1]);
    });
    (addr, server)
}

/// Echoes every request, in order.
fn echo_all(requests: &[Request]) -> Vec<Response> {
    requests
        .iter()
        .map(|req| Response {
            corr: req.corr,
            ..Response::ok(req.body.clone())
        })
        .collect()
}

/// A body of `len` bytes that differs from its neighbours.
fn body(len: usize, tag: u8) -> Vec<u8> {
    (0..len).map(|i| tag.wrapping_add(i as u8)).collect()
}

fn assert_echoed(outcomes: Vec<Result<Response, RpcError>>, bodies: &[Vec<u8>]) {
    assert_eq!(outcomes.len(), bodies.len());
    for (i, (outcome, sent)) in outcomes.into_iter().zip(bodies).enumerate() {
        let resp = outcome.unwrap_or_else(|e| panic!("request {i} failed: {e}"));
        assert_eq!(&resp.body, sent, "request {i} got another body");
    }
}

#[test]
fn replies_larger_than_or_straddling_the_read_buffer_decode() {
    // A reply to a body of `n` bytes is an `n + 8` byte frame, so the
    // first reply ends from 14 bytes before the 8 KiB read buffer's end
    // to 11 bytes past it: the next frame's prefix or payload straddles
    // the end. Then a reply many times the buffer, and a mix.
    let mut calls: Vec<Vec<Vec<u8>>> = (8170..=8195)
        .map(|n| vec![body(n, 1), body(100, 2)])
        .collect();
    calls.push(vec![body(100 << 10, 3)]);
    calls.push(vec![
        body(9000, 4),
        body(0, 5),
        body(100 << 10, 6),
        body(1, 7),
        body(8191, 8),
    ]);
    for bodies in calls {
        let (addr, server) = scripted_server(vec![bodies.len()], echo_all);
        let mut client = TcpClient::connect(addr).expect("connect");
        assert_echoed(client.call_many("echo", bodies.clone()), &bodies);
        assert_eq!(client.stats().responses(), bodies.len() as u64);
        drop(client);
        server.join().expect("scripted server");
    }
}

#[test]
fn a_burst_over_the_window_routes_out_of_order_replies() {
    // Every fourth request goes to the slow lane, where it waits until
    // the fast lane has served a later request: its reply comes back
    // after replies to requests sent after it.
    const BURST: usize = 64;
    const WINDOW: usize = 16;
    let max_fast = Arc::new(AtomicUsize::new(0));
    let completed: Arc<Mutex<Vec<usize>>> = Arc::default();
    let (fast_seen, log) = (Arc::clone(&max_fast), Arc::clone(&completed));
    let index = |req: &Request| usize::from(req.body[0]);
    let server = TcpServer::bind_full(
        "127.0.0.1:0",
        move |req: &Request| {
            let i = index(req);
            if i % 4 == 0 {
                let give_up = Instant::now() + Duration::from_secs(5);
                // ordering: a test counter; the reply carries no data it guards
                while fast_seen.load(Ordering::Relaxed) <= i && Instant::now() < give_up {
                    std::thread::sleep(Duration::from_millis(1));
                }
            } else {
                fast_seen.fetch_max(i, Ordering::Relaxed);
            }
            log.lock().unwrap().push(i);
            Response::ok(req.body.clone())
        },
        move |req: &Request| {
            if index(req) % 4 == 0 {
                Lane::Slow
            } else {
                Lane::Fast
            }
        },
        PoolConfig::single_lane(2),
        PipelineConfig::default(),
    )
    .expect("bind");
    let mut client = TcpClient::connect(server.local_addr())
        .expect("connect")
        .with_window(WINDOW);
    let bodies: Vec<Vec<u8>> = (0..BURST).map(|i| body(1 + i * 37, i as u8)).collect();
    assert_echoed(client.call_many("echo", bodies.clone()), &bodies);
    let order = completed.lock().unwrap().clone();
    assert_eq!(order.len(), BURST);
    let first = order
        .iter()
        .position(|&i| i == 0)
        .expect("request 0 served");
    assert!(
        order[..first].iter().any(|&i| i > 0),
        "request 0 must complete after a later one: {order:?}"
    );
    let peak = server.pipeline().inflight_peak();
    assert!(
        peak <= WINDOW as i64,
        "in-flight peak {peak} over the window"
    );
    server.shutdown();
}

/// Runs `calls` two-request calls against a server that answers call `k`
/// with `reply(k, requests)`, and returns every call's outcomes.
fn replies_to(
    calls: usize,
    reply: impl Fn(usize, &[Request]) -> Vec<Response> + Send + 'static,
) -> Vec<Vec<Result<Response, RpcError>>> {
    let mut call = 0;
    let (addr, server) = scripted_server(vec![2; calls], move |requests| {
        call += 1;
        reply(call - 1, requests)
    });
    let mut client = TcpClient::connect(addr).expect("connect");
    let outcomes = (0..calls)
        .map(|_| client.call_many("echo", vec![vec![1], vec![2]]))
        .collect();
    drop(client);
    server.join().expect("scripted server");
    outcomes
}

fn assert_mismatch(outcome: &Result<Response, RpcError>, corr: u64) {
    assert!(
        matches!(outcome, Err(RpcError::CorrelationMismatch { got }) if *got == corr),
        "expected a mismatch on corr {corr}, got {outcome:?}"
    );
}

#[test]
fn a_duplicate_corr_is_a_mismatch() {
    let outcomes = replies_to(1, |_, requests| {
        let mut replies = echo_all(requests);
        replies[1].corr = requests[0].corr;
        replies
    });
    assert_eq!(outcomes[0][0].as_ref().expect("first reply").body, vec![1]);
    assert_mismatch(&outcomes[0][1], 1);
}

#[test]
fn a_stale_corr_is_a_mismatch() {
    // The second call's first reply repeats a corr of the first call.
    let outcomes = replies_to(2, |call, requests| {
        let mut replies = echo_all(requests);
        if call == 1 {
            replies[0].corr = 2;
        }
        replies
    });
    let [first, second] = <[_; 2]>::try_from(outcomes).expect("two calls");
    assert_echoed(first, &[vec![1], vec![2]]);
    assert_mismatch(&second[0], 2);
    assert_mismatch(&second[1], 2);
}

#[test]
fn a_corr_not_yet_sent_is_a_mismatch() {
    let outcomes = replies_to(1, |_, requests| {
        let mut replies = echo_all(requests);
        replies[0].corr = requests[1].corr + 1;
        replies
    });
    assert_mismatch(&outcomes[0][0], 3);
    assert_mismatch(&outcomes[0][1], 3);
}

#[test]
fn a_reply_over_max_frame_comes_back_as_an_error() {
    let server = TcpServer::bind_with_pipeline(
        "127.0.0.1:0",
        |req: &Request| match req.method.as_str() {
            "big" => Response::ok(vec![0; MAX_FRAME as usize + 1]),
            _ => Response::ok(req.body.clone()),
        },
        PoolConfig::single_lane(1),
        PipelineConfig::default(),
    )
    .expect("bind");
    let mut client = TcpClient::connect(server.local_addr()).expect("connect");
    let outcome = client
        .call_many_with_deadline("big", vec![Vec::new()], Duration::from_millis(500))
        .remove(0);
    assert!(
        matches!(&outcome, Err(RpcError::Application(m)) if m == "response exceeds MAX_FRAME"),
        "expected the server's error, got {outcome:?}"
    );
    // The connection stays usable.
    let resp = client.call("echo", vec![7]).expect("echo after the error");
    assert_eq!(resp.body, vec![7]);
    drop(client);
    server.shutdown();
}

//! Hostile-client conformance for `TcpServer`. Many concurrent clients
//! each run seeded scripts in the shapes real clients take:
//!
//! * frames split at random offsets, with pauses on both sides of the
//!   reader's 200 ms read timeout;
//! * a whole window of large bodies written before any read;
//! * slow readers that take a few bytes at a time, so replies back up;
//! * half-close after the last request;
//! * disconnect mid-frame;
//! * an oversized length prefix, or a payload that fails strict decode.
//!
//! Every complete, well-formed request on a connection the client keeps
//! healthy gets exactly one reply, with its own `corr` and the echoed
//! body. Bad input closes only its own connection. After `shutdown`, no
//! thread the server started is left running, and `shutdown` does not
//! wait out the write timeout on a client that stopped reading.
//!
//! Frames are built by hand (length prefix + `Request::encode`), so the
//! test states the wire format rather than borrowing the server's writer.

use dcperf_rpc::frame::{read_frame, MAX_FRAME};
use dcperf_rpc::{Lane, PipelineConfig, PoolConfig, Request, Response, TcpServer};
use dcperf_util::{Rng, SplitMix64};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

const SEED: u64 = 0x0068_6F53_5449_4C45;
const CLIENTS: usize = 10;
const SCRIPTS_PER_CLIENT: usize = 3;
/// Kinds of script; client `i` starts with kind `i % SCRIPT_KINDS`, so
/// every kind runs at least once.
const SCRIPT_KINDS: u64 = 7;
/// A reply that never comes fails the test instead of stalling it.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// The tests share one process, and the shutdown test counts the
/// process's threads by name, so they run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// An echo server whose `slow` requests go to the pool, so replies on one
/// connection can complete out of order.
fn echo_server() -> TcpServer {
    TcpServer::bind_full(
        "127.0.0.1:0",
        |req: &Request| Response::ok(req.body.clone()),
        |req: &Request| {
            if req.method == "slow" {
                Lane::Slow
            } else {
                Lane::Fast
            }
        },
        PoolConfig::single_lane(2).with_queue_depth(256),
        PipelineConfig::default(),
    )
    .expect("bind echo server")
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .expect("read timeout");
    stream
}

/// A length-prefixed frame around `payload`.
fn frame_of(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

/// The well-formed requests one script sends, and the frames that carry
/// them.
struct Batch {
    /// Echo body by correlation id.
    expected: BTreeMap<u64, Vec<u8>>,
    bytes: Vec<u8>,
}

/// `n` requests with correlation ids from `first_corr`, each with a body
/// of `body_len(rng)` seeded bytes, split at random between the fast and
/// the slow lane.
fn batch(
    rng: &mut SplitMix64,
    first_corr: u64,
    n: usize,
    body_len: impl Fn(&mut SplitMix64) -> usize,
) -> Batch {
    let mut expected = BTreeMap::new();
    let mut bytes = Vec::new();
    for corr in first_corr..first_corr + n as u64 {
        let len = body_len(rng);
        let fill = rng.next_u64() as u8;
        let body: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
        let method = if rng.gen_range(0, 2) == 0 {
            "fast"
        } else {
            "slow"
        };
        let req = Request {
            corr,
            method: method.into(),
            body: body.clone(),
            deadline_us: 0,
        };
        bytes.extend_from_slice(&frame_of(&req.encode()));
        expected.insert(corr, body);
    }
    Batch { expected, bytes }
}

/// A reader that returns at most `chunk` bytes per read and pauses now
/// and then, so the server's replies back up behind it.
struct SlowReader<'a> {
    stream: &'a TcpStream,
    chunk: usize,
    reads: u32,
}

impl Read for SlowReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        if self.reads.is_multiple_of(64) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let n = buf.len().min(self.chunk);
        self.stream.read(&mut buf[..n])
    }
}

/// Reads one reply per expected request and checks each against the
/// request with its `corr`: exactly one reply each, with the echoed body.
fn expect_replies(mut from: impl Read, expected: &BTreeMap<u64, Vec<u8>>, script: &str) {
    let mut waiting = expected.clone();
    for _ in 0..expected.len() {
        let frame = read_frame(&mut from)
            .unwrap_or_else(|e| panic!("{script}: reply not read: {e}"))
            .unwrap_or_else(|| panic!("{script}: connection closed before every reply"));
        let resp = Response::decode(&frame).expect("reply decodes");
        let body = waiting
            .remove(&resp.corr)
            .unwrap_or_else(|| panic!("{script}: unexpected or repeated corr {}", resp.corr));
        assert!(resp.is_ok(), "{script}: corr {} failed", resp.corr);
        assert_eq!(
            resp.body, body,
            "{script}: corr {} got another body",
            resp.corr
        );
    }
}

/// Half-closes a healthy connection and checks that the server sends
/// nothing more before it closes: no reply was repeated.
fn expect_clean_end(stream: &mut TcpStream, script: &str) {
    let _ = stream.shutdown(Shutdown::Write);
    match read_frame(&mut *stream) {
        Ok(None) => {}
        Ok(Some(frame)) => panic!("{script}: {} bytes after the last reply", frame.len()),
        Err(e) => panic!("{script}: no clean end: {e}"),
    }
}

/// Checks that the server closed the connection: EOF or a reset, never a
/// reply and never a read timeout.
fn expect_closed(stream: &mut TcpStream, script: &str) {
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => {}
        Ok(_) => panic!("{script}: the server answered bad input"),
        Err(e) if matches!(e.kind(), ErrorKind::ConnectionReset | ErrorKind::BrokenPipe) => {}
        Err(e) => panic!("{script}: connection not closed: {e}"),
    }
}

/// The pause after part `part` of a split batch: the first is longer
/// than the reader's 200 ms read timeout, the second shorter, and the
/// rest are none or short.
fn pause(rng: &mut SplitMix64, part: usize) {
    let ms = match part {
        0 => rng.gen_range(250, 320),
        1 => rng.gen_range(20, 120),
        _ => rng.gen_range(0, 2) * rng.gen_range(1, 60),
    };
    std::thread::sleep(Duration::from_millis(ms));
}

fn small_body(rng: &mut SplitMix64) -> usize {
    rng.gen_range(0, 2_000) as usize
}

/// Runs one script on a new connection.
fn run_script(addr: SocketAddr, kind: u64, rng: &mut SplitMix64) {
    let mut stream = connect(addr);
    let n = rng.gen_range(1, 12) as usize;
    match kind {
        0 => {
            let script = "split frames";
            let sent = batch(rng, 1, n, small_body);
            let mut cuts: Vec<usize> = (0..rng.gen_range(2, 6))
                .map(|_| rng.gen_range(1, sent.bytes.len() as u64) as usize)
                .collect();
            cuts.push(sent.bytes.len());
            cuts.sort_unstable();
            let mut from = 0;
            for (part, cut) in cuts.into_iter().enumerate() {
                stream.write_all(&sent.bytes[from..cut]).expect("send part");
                from = cut;
                pause(rng, part);
            }
            expect_replies(&stream, &sent.expected, script);
            expect_clean_end(&mut stream, script);
        }
        1 => {
            let script = "window of large bodies";
            let sent = batch(rng, 1, 16, |rng| {
                (192 << 10) + rng.gen_range(0, 64 << 10) as usize
            });
            stream.write_all(&sent.bytes).expect("send the window");
            expect_replies(&stream, &sent.expected, script);
            expect_clean_end(&mut stream, script);
        }
        2 => {
            let script = "slow reader";
            let sent = batch(rng, 1, 24, |rng| {
                (24 << 10) + rng.gen_range(0, 16 << 10) as usize
            });
            stream.write_all(&sent.bytes).expect("send");
            let reader = SlowReader {
                stream: &stream,
                chunk: rng.gen_range(1, 512) as usize,
                reads: 0,
            };
            expect_replies(reader, &sent.expected, script);
            expect_clean_end(&mut stream, script);
        }
        3 => {
            let script = "half-close";
            let sent = batch(rng, 1, n, small_body);
            stream.write_all(&sent.bytes).expect("send");
            stream.shutdown(Shutdown::Write).expect("half-close");
            expect_replies(&stream, &sent.expected, script);
            expect_clean_end(&mut stream, script);
        }
        4 => {
            let script = "mid-frame disconnect";
            let sent = batch(rng, 1, n, small_body);
            stream.write_all(&sent.bytes).expect("send");
            expect_replies(&stream, &sent.expected, script);
            let partial = batch(rng, 100, 1, small_body).bytes;
            let cut = rng.gen_range(1, partial.len() as u64) as usize;
            stream
                .write_all(&partial[..cut])
                .expect("send part of a frame");
            // Dropping the stream disconnects mid-frame.
        }
        5 => {
            let script = "oversized prefix";
            let sent = batch(rng, 1, n, small_body);
            stream.write_all(&sent.bytes).expect("send");
            expect_replies(&stream, &sent.expected, script);
            let len = MAX_FRAME + 1 + rng.gen_range(0, 1 << 20) as u32;
            stream.write_all(&len.to_be_bytes()).expect("send prefix");
            expect_closed(&mut stream, script);
        }
        _ => {
            let script = "payload that fails strict decode";
            let sent = batch(rng, 1, n, small_body);
            stream.write_all(&sent.bytes).expect("send");
            expect_replies(&stream, &sent.expected, script);
            let mut payload = Request::new("fast", vec![1, 2, 3]).encode();
            match rng.gen_range(0, 3) {
                // A byte after the last field.
                0 => payload.push(0),
                // The last field cut short.
                1 => {
                    payload.pop();
                }
                // A method name that is not UTF-8.
                _ => payload[2] = 0xFF,
            }
            stream.write_all(&frame_of(&payload)).expect("send");
            expect_closed(&mut stream, script);
        }
    }
}

#[test]
fn every_well_formed_request_gets_exactly_one_reply() {
    let _serial = serial();
    let server = echo_server();
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            scope.spawn(move || {
                let mut rng = SplitMix64::new(SEED ^ client as u64);
                let first = client as u64 % SCRIPT_KINDS;
                for i in 0..SCRIPTS_PER_CLIENT {
                    let kind = if i == 0 {
                        first
                    } else {
                        rng.gen_range(0, SCRIPT_KINDS)
                    };
                    run_script(addr, kind, &mut rng);
                }
            });
        }
    });
    server.shutdown();
}

/// The names of this process's threads that the RPC crate started.
fn rpc_threads() -> Vec<String> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("list threads");
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_owned())
        .filter(|name| name.starts_with("rpc-"))
        .collect()
}

/// Polls `cond` until it holds or `limit` passes; returns whether it held.
fn eventually(limit: Duration, cond: impl Fn() -> bool) -> bool {
    let give_up = Instant::now() + limit;
    while !cond() {
        if Instant::now() > give_up {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}

#[test]
fn shutdown_under_a_backed_up_slow_reader_leaves_no_rpc_thread() {
    let _serial = serial();
    let server = echo_server();
    let mut stream = connect(server.local_addr());
    // 16 MiB of replies, far more than the socket buffers hold, to a
    // client that never reads: the reader hands the rest to a flusher,
    // which blocks in its write. Every request is fast-lane, so no pool
    // worker is left writing.
    for corr in 1..=16u64 {
        let req = Request {
            corr,
            method: "fast".into(),
            body: vec![corr as u8; 1 << 20],
            deadline_us: 0,
        };
        stream.write_all(&frame_of(&req.encode())).expect("send");
    }
    assert!(
        eventually(Duration::from_secs(5), || rpc_threads()
            .iter()
            .any(|n| n == "rpc-flush")),
        "no flusher started: {:?}",
        rpc_threads()
    );
    server.shutdown();
    // A joined thread may linger in the task list for a moment; a
    // flusher left blocked stays for its whole write timeout (5 s).
    assert!(
        eventually(Duration::from_millis(500), || rpc_threads().is_empty()),
        "threads outlived shutdown: {:?}",
        rpc_threads()
    );
}

#[test]
fn shutdown_ends_pool_workers_stalled_on_a_client_that_never_reads() {
    let _serial = serial();
    let server = echo_server();
    let mut stream = connect(server.local_addr());
    // 16 MiB of slow-lane replies to a client that never reads: the pool
    // workers write their replies themselves and block once the socket
    // buffers fill, each write for up to the server's 5 s write timeout.
    for corr in 1..=16u64 {
        let req = Request {
            corr,
            method: "slow".into(),
            body: vec![corr as u8; 1 << 20],
            deadline_us: 0,
        };
        stream.write_all(&frame_of(&req.encode())).expect("send");
    }
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(5),
        "shutdown waited {took:?} on stalled writes"
    );
    assert!(
        eventually(Duration::from_millis(500), || rpc_threads().is_empty()),
        "threads outlived shutdown: {:?}",
        rpc_threads()
    );
}

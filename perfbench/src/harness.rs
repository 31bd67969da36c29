//! Set-up, warm-up, measured windows, the traced phase and the metrics.
//!
//! One run is one workload in one process. Load comes from a single
//! `loadgen::ClosedLoop` worker thread. The measured phase is a fixed
//! number of requests split into equal windows, each one `ClosedLoop::run`
//! capped with `max_requests`; nothing in a run depends on how fast the
//! host is, only how long it takes.

use crate::trace::{self, Analysis, Group, Name, Tracer};
use crate::{Counters, Gauges, TRACED_PHASE_BASE, WARMUP_PHASE};
use dcperf_loadgen::{ClosedLoop, EndpointMix, Service, ServiceError};
use dcperf_util::Histogram;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// TaoBench, pipelined `mget`/`mset` bursts over in-proc RPC.
    TaoMget,
    /// memcached-style `get`/`set` frames over loopback TCP.
    KvTcp,
    /// FeedSim-style fetch, decode, rank and compose.
    FeedRank,
}

impl WorkloadKind {
    /// Every workload, in the order the docs list them.
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::TaoMget,
        WorkloadKind::KvTcp,
        WorkloadKind::FeedRank,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::TaoMget => "tao_mget",
            WorkloadKind::KvTcp => "kv_tcp",
            WorkloadKind::FeedRank => "feed_rank",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Requests per second the run is sized for: a run of `s` seconds
    /// issues `s × nominal_rps` requests whatever the host's real speed.
    /// Near the 2-vCPU reference host's throughput, so a run takes about
    /// `s` seconds there.
    pub fn nominal_rps(self) -> u64 {
        match self {
            WorkloadKind::TaoMget => 300_000,
            WorkloadKind::KvTcp => 150_000,
            WorkloadKind::FeedRank => 2_200,
        }
    }

    /// Requests per `ClosedLoop` turn.
    pub fn depth(self) -> usize {
        match self {
            WorkloadKind::TaoMget | WorkloadKind::KvTcp => 16,
            WorkloadKind::FeedRank => 1,
        }
    }
}

/// Sizes of one run. Fixed per workload; never derived from the host.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload to run.
    pub kind: WorkloadKind,
    /// Workload seed: keys, values, stories and the GET/SET mix.
    pub seed: u64,
    /// Full-size data sets (`false`: the small sets the tests use).
    pub full_size: bool,
    /// Set-ups per run; `setup_s` is their median and the last is measured.
    pub setup_reps: usize,
    /// Requests in the warm-up that ends each set-up.
    pub warmup_requests: u64,
    /// Measured windows.
    pub windows: usize,
    /// Requests per window (a multiple of the pipeline depth).
    pub window_requests: u64,
    /// Windows in each half of the traced run (halves alternate window by
    /// window: untraced, traced, untraced, ...).
    pub traced_windows: usize,
    /// Where the traced run writes its spans, if anywhere.
    pub trace_out: Option<PathBuf>,
}

/// Measured windows per untraced run.
pub const WINDOWS: usize = 20;
/// Windows per half of a traced run.
pub const TRACED_WINDOWS: usize = 5;
/// Set-ups per run.
pub const SETUP_REPS: usize = 3;

impl Plan {
    /// The full-size plan for a run of `seconds`.
    pub fn for_seconds(kind: WorkloadKind, seed: u64, seconds: u64) -> Self {
        let depth = kind.depth() as u64;
        let total = kind.nominal_rps() * seconds.max(1);
        let window_requests = (total / WINDOWS as u64 / depth).max(1) * depth;
        let warmup_requests = match kind {
            WorkloadKind::TaoMget => 320_000,
            WorkloadKind::KvTcp => 48_000,
            WorkloadKind::FeedRank => 800,
        };
        Self {
            kind,
            seed,
            full_size: true,
            setup_reps: SETUP_REPS,
            warmup_requests,
            windows: WINDOWS,
            window_requests,
            traced_windows: TRACED_WINDOWS,
            trace_out: None,
        }
    }

    /// A plan small enough for unit tests (small data sets, short phases).
    pub fn small(kind: WorkloadKind, seed: u64) -> Self {
        let depth = kind.depth() as u64;
        Self {
            kind,
            seed,
            full_size: false,
            setup_reps: 1,
            warmup_requests: 64 * depth,
            windows: 3,
            window_requests: 32 * depth,
            traced_windows: 2,
            trace_out: None,
        }
    }
}

/// A workload as the harness drives it.
pub trait Workload: Service + Sized {
    /// Builds and populates the system under test.
    ///
    /// # Errors
    ///
    /// A description of what could not be set up.
    fn build(seed: u64, full_size: bool, tracer: Arc<Tracer>) -> Result<Self, String>;
    /// Selects the key stream for the next `ClosedLoop::run`.
    fn set_phase(&self, phase: u64);
    /// The endpoint mix `ClosedLoop` draws from.
    fn mix(&self) -> EndpointMix;
    /// Cumulative counters.
    fn counters(&self) -> Counters;
    /// Current gauges.
    fn gauges(&self) -> Gauges;
    /// The fixed sizes, for the config block.
    fn sizes(&self) -> Vec<(&'static str, String)>;
}

/// The loadgen-facing wrapper: records each turn's latency exactly (the
/// loadgen histogram is bucketed to ~3%) and opens the `service` span
/// that marks where `ClosedLoop` hands control to the workload.
struct Timed<'a, W> {
    inner: &'a W,
    tracer: &'a Tracer,
    turns_ns: Mutex<Vec<u64>>,
}

impl<W: Workload> Timed<'_, W> {
    fn record(&self, t0: Instant) {
        let ns = t0.elapsed().as_nanos() as u64;
        self.turns_ns.lock().expect("turn log poisoned").push(ns);
    }
}

impl<W: Workload> Service for Timed<'_, W> {
    fn call(&self, endpoint: usize, seq: u64) -> Result<usize, ServiceError> {
        let t0 = Instant::now();
        let span = self.tracer.span(Name::Service, 1);
        let out = self.inner.call(endpoint, seq);
        drop(span);
        self.record(t0);
        out
    }

    fn call_many(&self, batch: &[(usize, u64)]) -> Vec<Result<usize, ServiceError>> {
        let t0 = Instant::now();
        let span = self.tracer.span(Name::Service, batch.len() as u64);
        let out = self.inner.call_many(batch);
        drop(span);
        self.record(t0);
        out
    }
}

/// What one window (one `ClosedLoop::run`) measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowStats {
    /// Completed requests ÷ wall time.
    pub rps: f64,
    /// Median turn latency, ns.
    pub p50_ns: f64,
    /// Slowest turn, ns.
    pub max_ns: f64,
    /// Process CPU per completed request, µs.
    pub cpu_us: f64,
}

/// What one phase (a sequence of windows) measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Per-window figures, in run order.
    pub windows: Vec<WindowStats>,
    /// Each turn's latency, ns.
    pub turns_ns: Vec<u64>,
    /// `ClosedLoop`'s own latency histogram, merged over windows.
    pub loadgen_latency: Histogram,
    /// Requests issued.
    pub attempted: u64,
    /// Requests that failed or returned a wrong answer.
    pub failed: u64,
    /// Requests completed with a verified answer.
    pub completed: u64,
    /// Response bytes as the workload reported them.
    pub response_bytes: u64,
    /// Process user+sys CPU over the phase, s.
    pub cpu_s: f64,
    /// Wall time of the phase, s.
    pub wall_s: f64,
    /// Counter change over the phase.
    pub counters: Counters,
}

impl PhaseStats {
    /// Adds another phase's figures to this one.
    fn absorb(&mut self, o: PhaseStats) {
        self.windows.extend(o.windows);
        self.turns_ns.extend(o.turns_ns);
        self.loadgen_latency.merge(&o.loadgen_latency);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.completed += o.completed;
        self.response_bytes += o.response_bytes;
        self.cpu_s += o.cpu_s;
        self.wall_s += o.wall_s;
        self.counters = self.counters + o.counters;
    }

    /// Median window throughput, requests/s.
    pub fn throughput_rps(&self) -> f64 {
        median(&self.windows.iter().map(|w| w.rps).collect::<Vec<_>>())
    }

    /// Per-request latency percentile in ms (every turn in a phase carries
    /// the same number of requests, so turn percentiles are request
    /// percentiles).
    pub fn latency_ms(&self, pct: f64) -> f64 {
        percentile(&self.turns_ns, pct) / 1e6
    }

    /// Process CPU per completed request, µs.
    pub fn cpu_us_per_req(&self) -> f64 {
        self.cpu_s * 1e6 / self.completed.max(1) as f64
    }
}

fn run_phase<W: Workload>(
    w: &W,
    tracer: &Tracer,
    plan: &Plan,
    first_phase: u64,
    windows: usize,
    window_requests: u64,
) -> Result<PhaseStats, String> {
    // Sized up front, so regrowing the log never stalls a window.
    let turns = windows * (window_requests as usize).div_ceil(plan.kind.depth());
    let timed = Timed {
        inner: w,
        tracer,
        turns_ns: Mutex::new(Vec::with_capacity(turns)),
    };
    let mix = w.mix();
    let mut stats = PhaseStats::default();
    let counters0 = w.counters();
    let cpu0 = process_cpu_seconds()?;
    let started = Instant::now();
    for i in 0..windows as u64 {
        let phase = first_phase + i;
        w.set_phase(phase);
        let closed_loop = ClosedLoop::new(mix.clone())
            .workers(1)
            .pipeline_depth(plan.kind.depth())
            .duration(Duration::from_secs(3600))
            .max_requests(window_requests);
        let turns_before = timed.turns_ns.lock().expect("turn log poisoned").len();
        let wcpu0 = process_cpu_seconds()?;
        let report = {
            let _run = tracer.span(Name::LoadgenRun, window_requests);
            closed_loop.run(&timed, crate::mix_seed(plan.seed, phase))
        };
        let wcpu = process_cpu_seconds()? - wcpu0;
        let turns = timed.turns_ns.lock().expect("turn log poisoned");
        let window = &turns[turns_before..];
        stats.windows.push(WindowStats {
            rps: report.throughput_rps(),
            p50_ns: percentile(window, 50.0),
            max_ns: window.iter().copied().max().unwrap_or(0) as f64,
            cpu_us: wcpu * 1e6 / report.completed.max(1) as f64,
        });
        drop(turns);
        let failed = report.errors + report.deadline_exceeded + report.rejected + report.dropped;
        stats.attempted += report.completed + failed;
        stats.failed += failed;
        stats.completed += report.completed;
        stats.response_bytes += report.response_bytes;
        stats.loadgen_latency.merge(&report.latency_ns);
    }
    stats.wall_s = started.elapsed().as_secs_f64();
    stats.cpu_s = process_cpu_seconds()? - cpu0;
    stats.counters = w.counters() - counters0;
    stats.turns_ns = timed.turns_ns.into_inner().expect("turn log poisoned");
    Ok(stats)
}

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No failed request and every check passed.
    pub correct: bool,
    /// Requests attempted over the measured (or both traced) phases.
    pub attempted: u64,
    /// Requests that failed or returned a wrong answer.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Counter change over the measured phase (the traced phase when
    /// tracing); repeats exactly for a fixed seed.
    pub counters: Counters,
    /// Response bytes over that phase; repeats exactly for a fixed seed.
    pub response_bytes: u64,
    /// The workload's fixed sizes.
    pub sizes: Vec<(&'static str, String)>,
}

/// Runs one workload per `plan`; `trace` selects the traced run.
///
/// # Errors
///
/// A description of a set-up failure or unreadable process statistics.
pub fn run(plan: &Plan, trace: bool, process_start: Instant) -> Result<Outcome, String> {
    match plan.kind {
        WorkloadKind::TaoMget => run_with::<crate::tao_mget::TaoMget>(plan, trace, process_start),
        WorkloadKind::KvTcp => run_with::<crate::kv_tcp::KvTcp>(plan, trace, process_start),
        WorkloadKind::FeedRank => {
            run_with::<crate::feed_rank::FeedRank>(plan, trace, process_start)
        }
    }
}

/// Builds one instance and warms it up; returns it with its set-up time
/// (from `t0`) and the warm-up's failed requests.
fn set_up<W: Workload>(
    plan: &Plan,
    tracer: &Arc<Tracer>,
    t0: Instant,
) -> Result<(W, f64, u64), String> {
    let w = W::build(plan.seed, plan.full_size, Arc::clone(tracer))?;
    let depth = plan.kind.depth() as u64;
    let warm_requests = (plan.warmup_requests / depth).max(1) * depth;
    let warm = run_phase(&w, tracer, plan, WARMUP_PHASE, 1, warm_requests)?;
    Ok((w, t0.elapsed().as_secs_f64(), warm.failed))
}

fn run_with<W: Workload>(
    plan: &Plan,
    trace: bool,
    process_start: Instant,
) -> Result<Outcome, String> {
    let tracer = Arc::new(Tracer::new());
    let (w, first_setup_s, mut warm_failed) = set_up::<W>(plan, &tracer, process_start)?;
    let sizes = w.sizes();
    let mut notes = Vec::new();

    if trace {
        let outcome = run_traced(&w, &tracer, plan, &mut notes)?;
        if warm_failed > 0 {
            notes.push(format!("warm-up failures: {warm_failed}"));
        }
        return Ok(Outcome {
            correct: outcome.correct && warm_failed == 0,
            notes,
            sizes,
            ..outcome
        });
    }

    let m = run_phase(&w, &tracer, plan, 1, plan.windows, plan.window_requests)?;
    // The peak is read before any further set-up, so it is one instance's.
    let peak_rss = peak_rss_mib()?;
    drop(w);
    // More set-ups, timed only (each instance dropped before the next):
    // `setup_s` is the median, the first timed from process start.
    let mut setup_s = vec![first_setup_s];
    for _ in 1..plan.setup_reps {
        let (w, secs, failed) = set_up::<W>(plan, &tracer, Instant::now())?;
        drop(w);
        setup_s.push(secs);
        warm_failed += failed;
    }
    notes.push(format!(
        "setup_s per set-up: {}",
        setup_s
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if warm_failed > 0 {
        notes.push(format!("warm-up failures: {warm_failed}"));
    }
    notes.push(phase_note("measured", &m));
    notes.push(format!(
        "windows (throughput_rps/p50 ms/cpu_us_per_req/slowest turn ms): {}",
        m.windows
            .iter()
            .map(|w| format!(
                "{:.0}/{:.4}/{:.3}/{:.3}",
                w.rps,
                w.p50_ns / 1e6,
                w.cpu_us,
                w.max_ns / 1e6
            ))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let metrics = vec![
        metric("throughput_rps", m.throughput_rps(), "1/s"),
        metric("latency_p50_ms", m.latency_ms(50.0), "ms"),
        metric("latency_p90_ms", m.latency_ms(90.0), "ms"),
        metric("cpu_us_per_req", m.cpu_us_per_req(), "us"),
        metric("setup_s", median(&setup_s), "s"),
        metric("peak_rss_mb", peak_rss, "MiB"),
    ];
    Ok(Outcome {
        correct: m.failed == 0 && warm_failed == 0,
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        notes,
        counters: m.counters,
        response_bytes: m.response_bytes,
        sizes,
    })
}

/// The traced run: untraced and traced windows of the same size on fresh
/// key streams; the difference between the halves is the tracing overhead.
fn run_traced<W: Workload>(
    w: &W,
    tracer: &Tracer,
    plan: &Plan,
    notes: &mut Vec<String>,
) -> Result<Outcome, String> {
    // Untraced and traced windows alternate, so host drift during the
    // run falls on both halves alike.
    let mut base = PhaseStats::default();
    let mut traced = PhaseStats::default();
    for i in 0..2 * plan.traced_windows as u64 {
        let on = i % 2 == 1;
        tracer.set_enabled(on);
        let window = run_phase(
            w,
            tracer,
            plan,
            TRACED_PHASE_BASE + i,
            1,
            plan.window_requests,
        );
        tracer.set_enabled(false);
        if on { &mut traced } else { &mut base }.absorb(window?);
    }
    let gauges = w.gauges();
    let spans = tracer.take();
    notes.push(phase_note("untraced", &base));
    notes.push(phase_note("traced", &traced));
    let overhead_rps = pct_change(traced.throughput_rps(), base.throughput_rps());
    let overhead_cpu = pct_change(traced.cpu_us_per_req(), base.cpu_us_per_req());
    notes.push(format!(
        "tracing overhead: throughput_rps {:.1} -> {:.1} ({overhead_rps:+.1}%), cpu_us_per_req {:.3} -> {:.3} ({overhead_cpu:+.1}%), {} spans",
        base.throughput_rps(),
        traced.throughput_rps(),
        base.cpu_us_per_req(),
        traced.cpu_us_per_req(),
        spans.len()
    ));
    if let Some(path) = &plan.trace_out {
        trace::write_tsv(path, &spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
        notes.push(format!("spans written to {}", path.display()));
    }
    let analysis = trace::analyze(&spans);
    let mut metrics = layer_metrics(&analysis, &traced, gauges);
    metrics.push(metric("trace.throughput_overhead_pct", overhead_rps, "%"));
    metrics.push(metric("trace.cpu_overhead_pct", overhead_cpu, "%"));
    metrics.push(metric("trace.spans", spans.len() as f64, "count"));
    metrics.push(metric("diag.latency_p99_ms", traced.latency_ms(99.0), "ms"));
    metrics.push(metric(
        "diag.latency_turns",
        traced.turns_ns.len() as f64,
        "count",
    ));
    let failed = base.failed + traced.failed;
    Ok(Outcome {
        correct: failed == 0,
        attempted: base.attempted + traced.attempted,
        failed,
        metrics,
        notes: Vec::new(),
        counters: traced.counters,
        response_bytes: traced.response_bytes,
        sizes: Vec::new(),
    })
}

fn phase_note(label: &str, m: &PhaseStats) -> String {
    format!(
        "{label}: {} requests in {:.3} s, throughput_rps {:.1} (windows min {:.1} max {:.1}), p50 {:.4} ms p90 {:.4} ms p99 {:.4} ms over {} turns (loadgen histogram p50 {:.4} ms), cpu_us_per_req {:.3}, failed {}",
        m.attempted,
        m.wall_s,
        m.throughput_rps(),
        m.windows.iter().map(|w| w.rps).fold(f64::INFINITY, f64::min),
        m.windows.iter().map(|w| w.rps).fold(0.0, f64::max),
        m.latency_ms(50.0),
        m.latency_ms(90.0),
        m.latency_ms(99.0),
        m.turns_ns.len(),
        m.loadgen_latency.p50() as f64 / 1e6,
        m.cpu_us_per_req(),
        m.failed,
    )
}

/// The per-layer metrics of a traced phase.
fn layer_metrics(a: &Analysis, m: &PhaseStats, gauges: Gauges) -> Vec<Metric> {
    let reqs = m.completed.max(1) as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    let mean_us = |name: Name| {
        let t = a.totals(name);
        us(t.dur_ns) / t.count.max(1) as f64
    };
    let per_req_us = |name: Name| us(a.totals(name).dur_ns) / reqs;
    let per_unit_us = |name: Name| {
        let t = a.totals(name);
        us(t.dur_ns) / t.units.max(1) as f64
    };
    let mbps = |name: Name| {
        let t = a.totals(name);
        if t.dur_ns == 0 {
            0.0
        } else {
            t.units as f64 / (t.dur_ns as f64 / 1e3)
        }
    };
    let c = m.counters;
    let inproc = a.totals(Name::InprocCall);
    let tcp = a.totals(Name::TcpCallMany);
    let get_many = {
        let g = a.totals(Name::KvGetMany);
        let gl = a.totals(Name::KvGetOrLoadMany);
        us(g.self_ns + gl.self_ns) / (g.units + gl.units).max(1) as f64
    };
    let layer_self: u64 = Group::LAYERS
        .iter()
        .map(|g| a.self_by_group.get(g).copied().unwrap_or(0))
        .sum();
    let share = |g: Group| {
        100.0 * a.self_by_group.get(&g).copied().unwrap_or(0) as f64 / layer_self.max(1) as f64
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    let mut out = vec![
        metric(
            "loadgen.self_us_per_req",
            us(a.totals(Name::LoadgenRun).self_ns) / reqs,
            "us",
        ),
        metric("rpc.inproc.calls", inproc.count as f64, "count"),
        metric(
            "rpc.inproc.dispatch_us",
            us(a.dispatch_ns) / a.paired_calls.max(1) as f64,
            "us",
        ),
        metric(
            "rpc.inproc.return_us",
            us(a.return_ns) / a.paired_calls.max(1) as f64,
            "us",
        ),
        metric("rpc.inproc.classify_us", mean_us(Name::Classify), "us"),
        metric(
            "rpc.tcp.self_us_per_req",
            us(tcp.dur_ns.saturating_sub(a.tcp_handler_ns)) / reqs,
            "us",
        ),
        metric(
            "rpc.tcp.responses_per_flush",
            ratio(c.flushed_responses, c.flushes),
            "count",
        ),
        metric(
            "rpc.tcp.inflight_peak",
            gauges.inflight_peak as f64,
            "count",
        ),
        metric(
            "rpc.tcp.bytes_per_req",
            ratio(c.rpc_bytes, m.completed),
            "B",
        ),
        metric(
            "rpc.value.decode_us_per_story",
            per_unit_us(Name::ValueDecode),
            "us",
        ),
        metric(
            "rpc.value.encode_us_per_resp",
            mean_us(Name::ValueEncode),
            "us",
        ),
        metric("kvstore.get_many_us_per_key", get_many, "us"),
        metric(
            "kvstore.set_many_us_per_key",
            per_unit_us(Name::KvSetMany),
            "us",
        ),
        metric("kvstore.get_us", mean_us(Name::KvGet), "us"),
        metric("kvstore.set_us", mean_us(Name::KvSet), "us"),
        metric(
            "kvstore.backing_us_per_fill",
            mean_us(Name::KvBacking),
            "us",
        ),
        metric(
            "kvstore.hit_ratio",
            ratio(c.hits, c.hits + c.misses),
            "ratio",
        ),
        metric("kvstore.hits", c.hits as f64, "count"),
        metric("kvstore.misses", c.misses as f64, "count"),
        metric("kvstore.fills", c.fills as f64, "count"),
        metric(
            "kvstore.fill_amplification",
            ratio(c.fills, c.misses),
            "ratio",
        ),
        metric("kvstore.evictions", c.evictions as f64, "count"),
        metric(
            "kvstore.used_mb",
            gauges.cache_used_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
        metric("tax.compress_us", per_req_us(Name::TaxCompress), "us"),
        metric("tax.compress_mbps", mbps(Name::TaxCompress), "MB/s"),
        metric(
            "tax.compress_ratio",
            ratio(c.compress_in, c.compress_out),
            "ratio",
        ),
        metric("tax.encrypt_us", per_req_us(Name::TaxEncrypt), "us"),
        metric("tax.encrypt_mbps", mbps(Name::TaxEncrypt), "MB/s"),
        metric("tax.mac_us", per_req_us(Name::TaxMac), "us"),
        metric("tax.mac_mbps", mbps(Name::TaxMac), "MB/s"),
        metric("tax.hash_us", per_req_us(Name::TaxHash), "us"),
        metric("tax.hash_mbps", mbps(Name::TaxHash), "MB/s"),
    ];
    for g in Group::LAYERS {
        out.push(metric(&format!("self_share.{}", g.as_str()), share(g), "%"));
    }
    out.push(metric(
        "self_us_per_req.bench",
        us(a.self_by_group.get(&Group::Bench).copied().unwrap_or(0)) / reqs,
        "us",
    ));
    out.push(metric("count.requests", m.completed as f64, "count"));
    out.push(metric(
        "count.response_bytes",
        m.response_bytes as f64,
        "count",
    ));
    out
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn pct_change(new: f64, old: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        100.0 * (new - old) / old
    }
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of `values` (ns); 0 when empty.
pub fn percentile(values: &[u64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((pct / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1] as f64
}

/// Process user+sys CPU seconds from `/proc/self/stat`, which counts
/// threads that have exited. Assumes the Linux `USER_HZ` of 100.
///
/// # Errors
///
/// When the file is missing or malformed.
pub fn process_cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3.
    let rest = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> Result<f64, String> {
        fields
            .get(n - 3)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| format!("malformed /proc/self/stat field {n}"))
    };
    Ok(field(14)? + field(15)?)
}

/// Peak resident set (`VmHWM`) of this process, MiB.
///
/// # Errors
///
/// When `/proc/self/status` is missing or has no `VmHWM`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn proc_readers_work() {
        assert!(process_cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }

    #[test]
    fn run_sizes_are_depth_multiples() {
        for kind in WorkloadKind::ALL {
            let plan = Plan::for_seconds(kind, 1, 10);
            assert_eq!(plan.window_requests % kind.depth() as u64, 0);
            assert!(plan.window_requests > 0);
        }
    }
}

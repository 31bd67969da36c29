//! Outside-in span tracing around calls into each layer's public API.
//!
//! The benchmark wraps every call it makes into `loadgen`, `rpc`,
//! `kvstore` and `tax` in a [`Tracer::span`]; nothing inside those crates
//! is instrumented. A span records its name, start, end, parent span and
//! request id. Spans stay in memory until the run ends, when the harness
//! analyses them (self time = duration minus the part covered by child
//! spans) and writes them out as TSV.
//!
//! Parents are found two ways. On one thread, spans nest through a
//! thread-local stack. Across threads, a span that enters a layer from
//! outside publishes its id in a slot: `loadgen.run` for the service spans
//! that `ClosedLoop`'s worker thread opens, and the client RPC span for
//! the server-side handler and classifier spans. The load generator is one
//! thread and every client call waits for its replies, so each
//! cross-thread child pairs with exactly one open parent.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every span the benchmark records, one per call site kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Name {
    /// One `ClosedLoop::run` (a window).
    LoadgenRun,
    /// One `Service::call`/`call_many` turn, entered by the load generator.
    Service,
    /// The benchmark's server-side request handler.
    Handler,
    /// The benchmark's response check.
    Verify,
    /// `InProcClient::call` / `call_many`.
    InprocCall,
    /// The in-proc server's lane classifier closure.
    Classify,
    /// `TcpClient::call_many`.
    TcpCallMany,
    /// `Value::decode` (units: stories).
    ValueDecode,
    /// `Value::encode` (units: bytes produced).
    ValueEncode,
    /// `Cache::get_many` (units: keys).
    KvGetMany,
    /// `Cache::get_or_load_many` (units: keys).
    KvGetOrLoadMany,
    /// `Cache::set_many` (units: keys).
    KvSetMany,
    /// `Cache::get`.
    KvGet,
    /// `Cache::set`.
    KvSet,
    /// `Cache::contains` over a burst (units: keys).
    KvContains,
    /// `BackingStore::lookup` inside a fill.
    KvBacking,
    /// `tax::hash::dcx64` over feature chunks (units: bytes).
    TaxHash,
    /// `compress::lz_compress` (units: input bytes).
    TaxCompress,
    /// `ChaCha20::apply` (units: bytes).
    TaxEncrypt,
    /// `hmac_sha256` (units: bytes).
    TaxMac,
}

/// The layer a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Group {
    /// `loadgen` (self time of `ClosedLoop::run` outside the service).
    Loadgen,
    /// Benchmark-owned code: key generation, handlers, ranking, checks.
    Bench,
    /// `rpc` in-process transport.
    RpcInproc,
    /// `rpc` TCP transport.
    RpcTcp,
    /// `rpc::Value` codec.
    RpcCodec,
    /// `kvstore`.
    Kvstore,
    /// `tax`.
    Tax,
}

impl Group {
    /// The repository layers (every group except the benchmark's own).
    pub const LAYERS: [Group; 6] = [
        Group::Loadgen,
        Group::RpcInproc,
        Group::RpcTcp,
        Group::RpcCodec,
        Group::Kvstore,
        Group::Tax,
    ];

    /// Metric-name fragment.
    pub fn as_str(self) -> &'static str {
        match self {
            Group::Loadgen => "loadgen",
            Group::Bench => "bench",
            Group::RpcInproc => "rpc_inproc",
            Group::RpcTcp => "rpc_tcp",
            Group::RpcCodec => "rpc_codec",
            Group::Kvstore => "kvstore",
            Group::Tax => "tax",
        }
    }
}

impl Name {
    /// The span name written to the trace file.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::LoadgenRun => "loadgen.run",
            Name::Service => "service",
            Name::Handler => "handler",
            Name::Verify => "verify",
            Name::InprocCall => "rpc.inproc.call",
            Name::Classify => "rpc.inproc.classify",
            Name::TcpCallMany => "rpc.tcp.call_many",
            Name::ValueDecode => "rpc.value.decode",
            Name::ValueEncode => "rpc.value.encode",
            Name::KvGetMany => "kvstore.get_many",
            Name::KvGetOrLoadMany => "kvstore.get_or_load_many",
            Name::KvSetMany => "kvstore.set_many",
            Name::KvGet => "kvstore.get",
            Name::KvSet => "kvstore.set",
            Name::KvContains => "kvstore.contains",
            Name::KvBacking => "kvstore.backing.lookup",
            Name::TaxHash => "tax.hash",
            Name::TaxCompress => "tax.compress",
            Name::TaxEncrypt => "tax.encrypt",
            Name::TaxMac => "tax.mac",
        }
    }

    /// The layer this span's self time belongs to.
    pub fn group(self) -> Group {
        match self {
            Name::LoadgenRun => Group::Loadgen,
            Name::Service | Name::Handler | Name::Verify => Group::Bench,
            Name::InprocCall | Name::Classify => Group::RpcInproc,
            Name::TcpCallMany => Group::RpcTcp,
            Name::ValueDecode | Name::ValueEncode => Group::RpcCodec,
            Name::KvGetMany
            | Name::KvGetOrLoadMany
            | Name::KvSetMany
            | Name::KvGet
            | Name::KvSet
            | Name::KvContains
            | Name::KvBacking => Group::Kvstore,
            Name::TaxHash | Name::TaxCompress | Name::TaxEncrypt | Name::TaxMac => Group::Tax,
        }
    }
}

/// One finished span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (≥ 1): the recording thread's slot in the high bits.
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Request (service turn) id the span belongs to, 0 outside one.
    pub req: u64,
    /// What was called.
    pub name: Name,
    /// Work units the call covered (keys, stories or bytes; see [`Name`]).
    pub units: u64,
    /// Start, ns since the tracer epoch.
    pub start_ns: u64,
    /// End, ns since the tracer epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

/// A thread's recording state for one tracer.
struct Local {
    tracer: u64,
    slot: u64,
    next: u64,
    /// Open spans on this thread, innermost last.
    stack: Vec<u64>,
    buffer: Buffer,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

static NEXT_TRACER: AtomicU64 = AtomicU64::new(1);

/// Span recorder shared by the benchmark's client and server code.
///
/// Disabled by default; while disabled, [`Tracer::span`] costs one
/// relaxed load and records nothing. Each thread records into a buffer of
/// its own, so client and server threads never contend while tracing.
#[derive(Debug)]
pub struct Tracer {
    id: u64,
    enabled: AtomicBool,
    epoch: Instant,
    next_req: AtomicU64,
    current_req: AtomicU64,
    run_slot: AtomicU64,
    call_slot: AtomicU64,
    buffers: Mutex<Vec<Buffer>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A disabled tracer with no spans.
    pub fn new() -> Self {
        Self {
            // ordering: a unique id, publishes nothing
            id: NEXT_TRACER.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_req: AtomicU64::new(1),
            current_req: AtomicU64::new(0),
            run_slot: AtomicU64::new(0),
            call_slot: AtomicU64::new(0),
            buffers: Mutex::new(Vec::new()),
        }
    }

    /// Starts or stops recording.
    pub fn set_enabled(&self, on: bool) {
        // ordering: the flag publishes nothing; span data is behind mutexes
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        // ordering: see set_enabled
        self.enabled.load(Ordering::Relaxed)
    }

    /// Runs `f` on this thread's recording state for this tracer,
    /// registering a fresh buffer on the thread's first span.
    fn with_local<R>(&self, f: impl FnOnce(&mut Local) -> R) -> R {
        LOCAL.with(|cell| {
            let mut local = cell.borrow_mut();
            if local.as_ref().is_none_or(|l| l.tracer != self.id) {
                let buffer: Buffer = Arc::new(Mutex::new(Vec::with_capacity(1 << 12)));
                let mut buffers = self.buffers.lock().expect("buffer list poisoned");
                buffers.push(Arc::clone(&buffer));
                *local = Some(Local {
                    tracer: self.id,
                    slot: buffers.len() as u64,
                    next: 0,
                    stack: Vec::new(),
                    buffer,
                });
            }
            f(local.as_mut().expect("initialised above"))
        })
    }

    /// Opens a span around a call; it is recorded when the guard drops.
    /// Returns `None` (and records nothing) while disabled.
    pub fn span(&self, name: Name, units: u64) -> Option<SpanGuard<'_>> {
        if !self.enabled() {
            return None;
        }
        let (id, top) = self.with_local(|l| {
            l.next += 1;
            let id = l.slot << 40 | l.next;
            let top = l.stack.last().copied();
            l.stack.push(id);
            (id, top)
        });
        // ordering: the slots are read by threads woken through the RPC
        // layer's channels, which order the store before the load
        let parent = match (top, name) {
            (Some(p), _) => p,
            (None, Name::Service) => self.run_slot.load(Ordering::Relaxed),
            (None, Name::Handler | Name::Classify) => self.call_slot.load(Ordering::Relaxed),
            (None, _) => 0,
        };
        match name {
            Name::LoadgenRun => self.run_slot.store(id, Ordering::Relaxed),
            Name::Service => {
                let req = self.next_req.fetch_add(1, Ordering::Relaxed);
                self.current_req.store(req, Ordering::Relaxed);
            }
            Name::InprocCall | Name::TcpCallMany => self.call_slot.store(id, Ordering::Relaxed),
            _ => {}
        }
        let req = self.current_req.load(Ordering::Relaxed);
        Some(SpanGuard {
            tracer: self,
            span: Span {
                id,
                parent,
                req,
                name,
                units,
                start_ns: self.now_ns(),
                end_ns: 0,
            },
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Takes every span recorded so far, sorted by start time.
    pub fn take(&self) -> Vec<Span> {
        let buffers = self.buffers.lock().expect("buffer list poisoned");
        let mut spans = Vec::new();
        for b in buffers.iter() {
            spans.append(&mut b.lock().expect("span buffer poisoned"));
        }
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// An open span; records itself when dropped.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    span: Span,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.span.end_ns = self.tracer.now_ns();
        let span = self.span;
        self.tracer.with_local(|l| {
            if l.stack.last() == Some(&span.id) {
                l.stack.pop();
            }
            if let Ok(mut buf) = l.buffer.lock() {
                buf.push(span);
            }
        });
    }
}

/// Per-span-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded.
    pub count: u64,
    /// Σ duration, ns.
    pub dur_ns: u64,
    /// Σ self time, ns.
    pub self_ns: u64,
    /// Σ units.
    pub units: u64,
}

/// Derived views over one phase's spans.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Totals per span name.
    pub by_name: BTreeMap<Name, NameTotals>,
    /// Σ self time per layer group, ns.
    pub self_by_group: BTreeMap<Group, u64>,
    /// For client RPC spans: Σ (first child handler start − call start), ns.
    pub dispatch_ns: u64,
    /// For client RPC spans: Σ (call end − last child handler end), ns.
    pub return_ns: u64,
    /// Client RPC spans that had at least one handler child.
    pub paired_calls: u64,
    /// Σ handler duration under TCP client spans, ns.
    pub tcp_handler_ns: u64,
}

impl Analysis {
    /// Totals for `name` (zero if never recorded).
    pub fn totals(&self, name: Name) -> NameTotals {
        self.by_name.get(&name).copied().unwrap_or_default()
    }
}

/// Computes self times and the cross-thread pairings.
///
/// Self time is a span's duration minus the union of its children's
/// intervals, clipped to the parent, so children that run concurrently
/// (pipelined handlers) are not subtracted twice.
pub fn analyze(spans: &[Span]) -> Analysis {
    let mut index: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        index.insert(s.id, i);
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push(i);
        }
    }
    let mut out = Analysis::default();
    for (i, s) in spans.iter().enumerate() {
        let mut intervals: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                let c = &spans[c];
                (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
            })
            .filter(|(a, b)| b > a)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for (a, b) in intervals {
            let a = a.max(cursor);
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        let self_ns = s.dur_ns().saturating_sub(covered);
        let t = out.by_name.entry(s.name).or_default();
        t.count += 1;
        t.dur_ns += s.dur_ns();
        t.self_ns += self_ns;
        t.units += s.units;
        *out.self_by_group.entry(s.name.group()).or_default() += self_ns;

        if matches!(s.name, Name::InprocCall | Name::TcpCallMany) {
            let handlers = children[i]
                .iter()
                .map(|&c| &spans[c])
                .filter(|c| c.name == Name::Handler);
            let (mut first, mut last, mut sum) = (u64::MAX, 0u64, 0u64);
            for h in handlers {
                first = first.min(h.start_ns);
                last = last.max(h.end_ns);
                sum += h.dur_ns();
            }
            if s.name == Name::TcpCallMany {
                out.tcp_handler_ns += sum;
            } else if first != u64::MAX {
                out.paired_calls += 1;
                out.dispatch_ns += first.saturating_sub(s.start_ns);
                out.return_ns += s.end_ns.saturating_sub(last);
            }
        }
    }
    out
}

/// Writes spans as TSV: `id parent req name units start_ns end_ns`.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\treq\tname\tunits\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.req,
            s.name.as_str(),
            s.units,
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: Name, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            units: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, Name::TcpCallMany, 0, 100),
            span(2, 1, Name::Handler, 10, 40),
            span(3, 1, Name::Handler, 30, 50),
            span(4, 2, Name::KvGet, 15, 25),
        ];
        let a = analyze(&spans);
        assert_eq!(a.totals(Name::TcpCallMany).self_ns, 60);
        assert_eq!(a.totals(Name::Handler).self_ns, 20 + 20);
        assert_eq!(a.totals(Name::KvGet).self_ns, 10);
        assert_eq!(a.tcp_handler_ns, 50);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let t = Tracer::new();
        t.set_enabled(true);
        {
            let _outer = t.span(Name::Service, 1);
            let _inner = t.span(Name::TaxMac, 32);
        }
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == Name::Service).unwrap();
        let inner = spans.iter().find(|s| s.name == Name::TaxMac).unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.req, outer.req);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        assert!(t.span(Name::Service, 1).is_none());
        assert!(t.take().is_empty());
    }
}

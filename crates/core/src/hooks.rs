//! The extensible hooks framework.
//!
//! DCPerf "is designed as an extensible framework through plugins called
//! hooks. New hooks for monitoring additional performance metrics can be
//! easily added" (§3.1). A [`Hook`] produces named time series sampled on a
//! fixed interval while a benchmark runs; the [`HookManager`] owns the
//! sampler thread and assembles [`HookReport`]s when the run ends.
//!
//! The built-in hooks measure what an unprivileged process can read on
//! the host: CPU utilization with user/system breakdown ([`CpuUtilHook`])
//! and memory ([`MemStatHook`]). No hook reports network traffic or core
//! frequency: every suite workload runs in one process, so it sends no
//! packets, and a VM need not expose `cpufreq`. Power and top-down
//! counters are not portably readable either.

use dcperf_util::RunningStats;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One named, sampled series with summary statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TimeSeries {
    /// Unit label, e.g. `"percent"`, `"MB"`.
    pub unit: String,
    /// Milliseconds since hook start for each sample.
    pub timestamps_ms: Vec<u64>,
    /// The sampled values.
    pub values: Vec<f64>,
    /// Mean of `values` (0.0 when empty).
    pub mean: f64,
    /// Minimum of `values` (0.0 when empty).
    pub min: f64,
    /// Maximum of `values` (0.0 when empty).
    pub max: f64,
}

impl TimeSeries {
    fn finalize(&mut self) {
        let mut stats = RunningStats::new();
        for &v in &self.values {
            stats.push(v);
        }
        self.mean = stats.mean();
        self.min = stats.min();
        self.max = stats.max();
    }
}

/// The output of one hook for one benchmark run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HookReport {
    /// Hook name.
    pub hook: String,
    /// Series keyed by name (e.g. `"cpu_util_total"`).
    pub series: std::collections::BTreeMap<String, TimeSeries>,
    /// Free-form notes from [`Hook::on_stop`].
    pub notes: Vec<String>,
}

/// A sampled measurement: `(series name, unit, value)`.
pub type Sample = (String, &'static str, f64);

/// A monitoring plugin.
///
/// Implementations are polled on the configured interval from a dedicated
/// sampler thread; each returned [`Sample`] is appended to the series of
/// the same name.
pub trait Hook: Send {
    /// Stable hook name.
    fn name(&self) -> &str;

    /// Called once when sampling starts.
    fn on_start(&mut self) {}

    /// Takes one round of samples. May return an empty vector if the
    /// underlying source is unavailable.
    fn sample(&mut self) -> Vec<Sample>;

    /// Called once when sampling stops; may return notes for the report.
    fn on_stop(&mut self) -> Vec<String> {
        Vec::new()
    }
}

/// Owns registered hooks and the background sampler thread.
#[derive(Default)]
pub struct HookManager {
    pending: Vec<Box<dyn Hook>>,
    runner: Option<SamplerHandle>,
    finished: Vec<HookReport>,
}

impl std::fmt::Debug for HookManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HookManager")
            .field("pending_hooks", &self.pending.len())
            .field("running", &self.runner.is_some())
            .field("finished_reports", &self.finished.len())
            .finish()
    }
}

impl std::fmt::Debug for SamplerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplerHandle").finish_non_exhaustive()
    }
}

struct SamplerHandle {
    stop: Arc<AtomicBool>,
    join: std::thread::JoinHandle<Vec<HookReport>>,
}

impl HookManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a hook. Must be called before [`HookManager::start`].
    pub fn register(&mut self, hook: Box<dyn Hook>) {
        self.pending.push(hook);
    }

    /// Registers the default monitoring set (CPU and memory).
    pub fn register_defaults(&mut self) {
        self.register(Box::new(CpuUtilHook::new()));
        self.register(Box::new(MemStatHook::new()));
    }

    /// Starts the sampler thread with the given interval. No-op if no hooks
    /// are registered or sampling is already running.
    pub fn start(&mut self, interval: Duration) {
        if self.pending.is_empty() || self.runner.is_some() {
            return;
        }
        let mut hooks = std::mem::take(&mut self.pending);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("dcperf-hooks".into())
            .spawn(move || {
                let started = Instant::now();
                for h in &mut hooks {
                    h.on_start();
                }
                let mut series_by_hook: Vec<std::collections::BTreeMap<String, TimeSeries>> =
                    (0..hooks.len()).map(|_| Default::default()).collect();
                loop {
                    let t_ms = started.elapsed().as_millis() as u64;
                    for (h, store) in hooks.iter_mut().zip(series_by_hook.iter_mut()) {
                        for (name, unit, value) in h.sample() {
                            let ts = store.entry(name).or_insert_with(|| TimeSeries {
                                unit: unit.to_owned(),
                                ..Default::default()
                            });
                            ts.timestamps_ms.push(t_ms);
                            ts.values.push(value);
                        }
                    }
                    // ordering: advisory stop flag; a late observation only samples once more
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(interval);
                }
                hooks
                    .iter_mut()
                    .zip(series_by_hook)
                    .map(|(h, mut series)| {
                        for ts in series.values_mut() {
                            ts.finalize();
                        }
                        HookReport {
                            hook: h.name().to_owned(),
                            series,
                            notes: h.on_stop(),
                        }
                    })
                    .collect()
            })
            .expect("failed to spawn hook sampler thread");
        self.runner = Some(SamplerHandle { stop, join });
    }

    /// Stops the sampler thread, if running, and stores its reports.
    pub fn stop(&mut self) {
        if let Some(handle) = self.runner.take() {
            // ordering: advisory stop flag; join() below is the real synchronization
            handle.stop.store(true, Ordering::Relaxed);
            if let Ok(mut reports) = handle.join.join() {
                self.finished.append(&mut reports);
            }
        }
    }

    /// Stops sampling and returns every accumulated [`HookReport`].
    pub fn drain_reports(&mut self) -> Vec<HookReport> {
        self.stop();
        std::mem::take(&mut self.finished)
    }
}

impl Drop for HookManager {
    fn drop(&mut self) {
        // Never leave the sampler thread running; ignore its output.
        self.stop();
    }
}

// ---------------------------------------------------------------------------
// Built-in hooks
// ---------------------------------------------------------------------------

/// CPU utilization from `/proc/stat`: total busy % and system (kernel+IRQ) %.
///
/// Mirrors DCPerf's "total CPU utilization and breakdowns, such as the
/// percentage of cycles spent in user space, kernel and IRQs".
#[derive(Debug, Default)]
pub struct CpuUtilHook {
    last: Option<CpuTimes>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CpuTimes {
    user: u64,
    nice: u64,
    system: u64,
    idle: u64,
    iowait: u64,
    irq: u64,
    softirq: u64,
}

impl CpuTimes {
    fn read() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let line = stat.lines().next()?;
        let mut it = line.split_whitespace();
        if it.next()? != "cpu" {
            return None;
        }
        let mut f = || it.next().and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        Some(Self {
            user: f(),
            nice: f(),
            system: f(),
            idle: f(),
            iowait: f(),
            irq: f(),
            softirq: f(),
        })
    }

    fn busy(&self) -> u64 {
        self.user + self.nice + self.system + self.irq + self.softirq
    }

    fn sys(&self) -> u64 {
        self.system + self.irq + self.softirq
    }

    fn total(&self) -> u64 {
        self.busy() + self.idle + self.iowait
    }
}

impl CpuUtilHook {
    /// Creates the hook.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Hook for CpuUtilHook {
    fn name(&self) -> &str {
        "cpu_util"
    }

    fn on_start(&mut self) {
        self.last = CpuTimes::read();
    }

    fn sample(&mut self) -> Vec<Sample> {
        let Some(now) = CpuTimes::read() else {
            return Vec::new();
        };
        let Some(prev) = self.last.replace(now) else {
            return Vec::new();
        };
        let dt = now.total().saturating_sub(prev.total());
        if dt == 0 {
            return Vec::new();
        }
        let busy = now.busy().saturating_sub(prev.busy()) as f64 / dt as f64 * 100.0;
        let sys = now.sys().saturating_sub(prev.sys()) as f64 / dt as f64 * 100.0;
        vec![
            ("cpu_util_total".into(), "percent", busy),
            ("cpu_util_sys".into(), "percent", sys),
        ]
    }
}

/// Memory usage from `/proc/meminfo` (used MB, swap-used MB).
#[derive(Debug, Default)]
pub struct MemStatHook;

impl MemStatHook {
    /// Creates the hook.
    pub fn new() -> Self {
        Self
    }
}

fn meminfo_kb(field: &str, text: &str) -> Option<u64> {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            return rest
                .trim_start_matches(':')
                .trim()
                .trim_end_matches(" kB")
                .trim()
                .parse()
                .ok();
        }
    }
    None
}

impl Hook for MemStatHook {
    fn name(&self) -> &str {
        "mem_stat"
    }

    fn sample(&mut self) -> Vec<Sample> {
        let Ok(text) = std::fs::read_to_string("/proc/meminfo") else {
            return Vec::new();
        };
        let mut out = Vec::new();
        if let (Some(total), Some(avail)) = (
            meminfo_kb("MemTotal", &text),
            meminfo_kb("MemAvailable", &text),
        ) {
            out.push((
                "mem_used_mb".into(),
                "MB",
                (total.saturating_sub(avail)) as f64 / 1024.0,
            ));
        }
        if let (Some(total), Some(free)) = (
            meminfo_kb("SwapTotal", &text),
            meminfo_kb("SwapFree", &text),
        ) {
            out.push((
                "swap_used_mb".into(),
                "MB",
                (total.saturating_sub(free)) as f64 / 1024.0,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic in-memory hook for framework tests.
    #[derive(Debug, Default)]
    struct CountingHook {
        n: u64,
    }

    impl Hook for CountingHook {
        fn name(&self) -> &str {
            "counting"
        }

        fn sample(&mut self) -> Vec<Sample> {
            self.n += 1;
            vec![("count".into(), "n", self.n as f64)]
        }

        fn on_stop(&mut self) -> Vec<String> {
            vec![format!("sampled {} times", self.n)]
        }
    }

    #[test]
    fn manager_collects_series_and_notes() {
        let mut mgr = HookManager::new();
        mgr.register(Box::new(CountingHook::default()));
        mgr.start(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(40));
        let reports = mgr.drain_reports();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.hook, "counting");
        let series = r.series.get("count").expect("series recorded");
        assert!(
            series.values.len() >= 2,
            "got {} samples",
            series.values.len()
        );
        assert_eq!(series.values[0], 1.0);
        assert!(series.mean >= 1.0);
        assert_eq!(r.notes.len(), 1);
    }

    #[test]
    fn drain_twice_is_empty_second_time() {
        let mut mgr = HookManager::new();
        mgr.register(Box::new(CountingHook::default()));
        mgr.start(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(15));
        assert!(!mgr.drain_reports().is_empty());
        assert!(mgr.drain_reports().is_empty());
    }

    #[test]
    fn start_without_hooks_is_noop() {
        let mut mgr = HookManager::new();
        mgr.start(Duration::from_millis(5));
        assert!(mgr.drain_reports().is_empty());
    }

    #[test]
    fn stop_without_start_is_noop() {
        let mut mgr = HookManager::new();
        mgr.register(Box::new(CountingHook::default()));
        mgr.stop();
        assert!(mgr.drain_reports().is_empty());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn cpu_util_hook_samples_on_linux() {
        let mut hook = CpuUtilHook::new();
        hook.on_start();
        std::thread::sleep(Duration::from_millis(30));
        // Burn a little CPU so the delta is non-degenerate.
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i * i);
        }
        std::hint::black_box(x);
        let samples = hook.sample();
        assert!(
            samples
                .iter()
                .any(|(n, _, v)| n == "cpu_util_total" && *v >= 0.0),
            "samples: {samples:?}"
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn mem_stat_hook_samples_on_linux() {
        let mut hook = MemStatHook::new();
        let samples = hook.sample();
        assert!(samples
            .iter()
            .any(|(n, _, v)| n == "mem_used_mb" && *v > 0.0));
    }
}

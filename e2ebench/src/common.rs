//! Shared machinery: argument parsing, output checksums and input digests,
//! reference outputs, latency statistics, process probes (RSS, CPU), the
//! in-memory span recorder, and the result line.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use prosperity_core::engine::{EngineStats, SharedCacheStats};
use spikemat::gemm::{spiking_gemm, OutputMatrix, WeightMatrix};
use spikemat::SpikeMatrix;

/// Command-line arguments: `--workload <name> --seed <n> --seconds <s>
/// --trace <0|1>`.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse().map_err(bad)?),
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                },
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let seconds: u64 = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// SplitMix64 finalizer: derives independent sub-seeds (per request, per
/// tenant, per purpose) from the run seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Cheap per-GeMM output checksum, computed inside the timed loop: a plain
/// and a position-weighted wrapping sum (both vectorize), folded with the
/// shape. Any lost or moved accumulation changes it.
pub fn checksum(out: &OutputMatrix<i64>) -> u64 {
    let mut plain = 0u64;
    let mut weighted = 0u64;
    for (i, &v) in out.as_slice().iter().enumerate() {
        plain = plain.wrapping_add(v as u64);
        weighted = weighted.wrapping_add((v as u64).wrapping_mul(2 * i as u64 + 1));
    }
    mix(
        plain ^ ((out.rows() as u64) << 32 | out.cols() as u64),
        weighted,
    )
}

/// FNV-1a over 64-bit words: the digest of a workload's generated inputs,
/// so two runs with one seed provably served identical inputs.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
    }
    pub fn spikes(&mut self, m: &SpikeMatrix) {
        self.word(m.rows() as u64);
        self.word(m.cols() as u64);
        for i in 0..m.rows() {
            for &limb in m.row(i).limbs() {
                self.word(limb);
            }
        }
    }
    pub fn weights(&mut self, w: &WeightMatrix<i64>) {
        self.word(w.rows() as u64);
        self.word(w.cols() as u64);
        for &v in w.as_slice() {
            self.word(v as u64);
        }
    }
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// `(0..n).map(f)` on `workers` scoped threads, order preserved: input
/// generation and reference outputs run outside timing, on every core.
pub fn par_map<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let chunk = n.div_ceil(workers.max(1)).max(1);
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|lo| s.spawn(move || (lo..(lo + chunk).min(n)).map(f).collect::<Vec<T>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// The reference checksum of one GeMM: [`spiking_gemm`]'s output, hashed.
/// The timed passes compare every output's [`checksum`] against it.
pub fn reference(spikes: &SpikeMatrix, w: &WeightMatrix<i64>) -> u64 {
    checksum(&spiking_gemm(spikes, w))
}

/// The bit-for-bit check of the verification pass: the program's output
/// against [`spiking_gemm`], and against the reference checksum the timed
/// passes will use.
pub fn verify_output(
    out: &OutputMatrix<i64>,
    spikes: &SpikeMatrix,
    w: &WeightMatrix<i64>,
    reference: u64,
) -> bool {
    *out == spiking_gemm(spikes, w) && checksum(out) == reference
}

/// Nearest-rank percentile of an unsorted sample (`q` in `[0, 1]`);
/// 0 for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of an unsorted sample.
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
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so a
/// later [`peak_rss_mb`] covers only what happened after this call.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set since the last [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// User + system CPU time of the whole process (every thread), in seconds.
/// Linux reports it in clock ticks of 1/100 s on every supported target.
pub fn cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Online processors the OS reports (the host's core count).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One recorded span: a call into a layer, timed from the benchmark.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

/// In-memory span recorder. Spans are kept in a vector and written out
/// once, after the measured phase ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Opens a span that children can name as their parent; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, start: Instant, request: Option<u64>) -> usize {
        self.record(name, start, start, None, request)
    }

    pub fn close(&mut self, span: usize, end: Instant) {
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans[span].end_ns = end_ns;
    }

    /// Records a finished span and returns its index (a parent handle).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Summed duration of every span called `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Writes the spans as JSON lines, after a header line with the run's
    /// identity (`meta`).
    pub fn write(&self, path: &Path, meta: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::with_capacity(self.spans.len() * 96);
        text.push_str(meta);
        text.push('\n');
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

/// Request accounting for one phase of a run.
#[derive(Default, Clone, Copy)]
pub struct Phase {
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
}

impl Phase {
    pub fn add(&mut self, ok: bool) {
        self.sent += 1;
        if ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
    }
}

/// What one measured serving pass observed, in workload-independent form.
#[derive(Default)]
pub struct Pass {
    /// Wall time of the pass, first submission to last completion.
    pub wall: Duration,
    /// Per-request latency in ms (closed loop: from submit; open loop:
    /// from the time the request was due).
    pub latencies_ms: Vec<f64>,
    /// Gaps between consecutive GeMM outputs of the same request, in ms.
    pub step_gaps_ms: Vec<f64>,
    pub phase: Phase,
}

impl Pass {
    pub fn req_per_s(&self) -> f64 {
        self.phase.succeeded as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// An ordered list of `(name, unit, value)` metrics.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, &'static str, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.0.push((name, unit, value));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, u, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Prints every metric by name and unit, then the result object as the
/// last line of standard output.
pub fn emit(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    for (n, u, v) in &metrics.0 {
        println!("  {n:<28} {v:>14.4} {u}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    );
}

/// Per-run scratch directory for snapshot stores and trace files, under
/// the working directory (the checkout root).
pub fn run_dir(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(".bench_run").join(format!("{workload}-{seed}-{}", std::process::id()))
}

/// Per-layer totals of one traced pass, read from outside the program:
/// span sums and deltas of the public stats structs. Every workload fills
/// what its layers do and leaves the rest at 0, so every traced run reports
/// the same metric names.
#[derive(Default)]
pub struct Layers {
    pub session: EngineStats,
    pub call_ms: f64,
    pub shared: SharedCacheStats,
    pub batch_steps: u64,
    pub batch_row_tiles: u64,
    pub deadline_misses: u64,
    pub lane_faults: u64,
    pub run_ms: f64,
    pub sink_ms: f64,
    pub snapshots_exported: u64,
    pub gc_evictions: u64,
    pub store_bytes_encoded: u64,
    pub store_io_retries: u64,
    pub store_quarantined: u64,
    pub drain_ms: f64,
    pub load_ms: f64,
    pub import_ms: f64,
    pub plans_restored: u64,
    pub bytes_loaded: u64,
    pub idle_ms: f64,
    pub lag_p90_ms: f64,
    pub backlog_end: f64,
    pub cpu_s: f64,
    /// Summed top-level spans of the pass (the layers the wall time is
    /// split into); the rest of the wall time is the residual.
    pub top_ms: f64,
}

/// `after - before` for every session counter.
pub fn engine_delta(before: &EngineStats, after: &EngineStats) -> EngineStats {
    EngineStats {
        gemms: after.gemms - before.gemms,
        tiles: after.tiles - before.tiles,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        cache_evictions: after.cache_evictions - before.cache_evictions,
        cache_bypasses: after.cache_bypasses - before.cache_bypasses,
        restored_hits: after.restored_hits - before.restored_hits,
        plan_ns: after.plan_ns - before.plan_ns,
        exec_ns: after.exec_ns - before.exec_ns,
    }
}

/// `after - before` for the cumulative shared-cache counters; residency
/// and shard count are taken from `after`.
pub fn shared_delta(before: &SharedCacheStats, after: &SharedCacheStats) -> SharedCacheStats {
    SharedCacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        insertions: after.insertions - before.insertions,
        evictions: after.evictions - before.evictions,
        bypasses: after.bypasses - before.bypasses,
        dedups: after.dedups - before.dedups,
        restored_hits: after.restored_hits - before.restored_hits,
        shard_resets: after.shard_resets - before.shard_resets,
        lock_hold_ns: after.lock_hold_ns - before.lock_hold_ns,
        ..*after
    }
}

impl Layers {
    /// The per-layer metric list, in `BENCHMARK.json` order.
    pub fn metrics(&self, pass: &Pass, untraced_req_per_s: f64) -> Metrics {
        let s = &self.session;
        let ns_ms = |ns: u64| ns as f64 / 1e6;
        let wall_ms = ms(pass.wall);
        let mut m = Metrics::default();
        m.put("session.gemms", "count", s.gemms as f64);
        m.put("session.tiles", "count", s.tiles as f64);
        m.put("session.hit_rate", "ratio", s.hit_rate());
        m.put("session.plan_ms", "ms", ns_ms(s.plan_ns));
        m.put("session.exec_ms", "ms", ns_ms(s.exec_ns));
        m.put("session.call_ms", "ms", self.call_ms);
        m.put("session.bypasses", "count", s.cache_bypasses as f64);
        m.put("session.evictions", "count", s.cache_evictions as f64);
        m.put("session.restored_hits", "count", s.restored_hits as f64);
        m.put("shared.hits", "count", self.shared.hits as f64);
        m.put("shared.misses", "count", self.shared.misses as f64);
        m.put("shared.dedups", "count", self.shared.dedups as f64);
        m.put("shared.evictions", "count", self.shared.evictions as f64);
        m.put("shared.resident", "count", self.shared.resident as f64);
        m.put(
            "shared.shard_resets",
            "count",
            self.shared.shard_resets as f64,
        );
        m.put("shared.lock_hold_ms", "ms", ns_ms(self.shared.lock_hold_ns));
        m.put("batch.steps", "count", self.batch_steps as f64);
        m.put("batch.row_tiles", "count", self.batch_row_tiles as f64);
        m.put(
            "batch.deadline_misses",
            "count",
            self.deadline_misses as f64,
        );
        m.put("batch.lane_faults", "count", self.lane_faults as f64);
        m.put("batch.run_ms", "ms", self.run_ms);
        m.put("batch.sink_ms", "ms", self.sink_ms);
        let overhead = if self.run_ms > 0.0 {
            self.run_ms - ns_ms(s.plan_ns) - ns_ms(s.exec_ns) - self.sink_ms
        } else {
            0.0
        };
        m.put("batch.overhead_ms", "ms", overhead);
        m.put(
            "service.snapshots_exported",
            "count",
            self.snapshots_exported as f64,
        );
        m.put("service.gc_evictions", "count", self.gc_evictions as f64);
        m.put("service.drain_ms", "ms", self.drain_ms);
        m.put(
            "store.bytes_encoded",
            "bytes",
            self.store_bytes_encoded as f64,
        );
        m.put("store.io_retries", "count", self.store_io_retries as f64);
        m.put("store.quarantined", "count", self.store_quarantined as f64);
        m.put("snapshot.load_ms", "ms", self.load_ms);
        m.put("snapshot.import_ms", "ms", self.import_ms);
        m.put(
            "snapshot.plans_restored",
            "count",
            self.plans_restored as f64,
        );
        m.put("snapshot.bytes_loaded", "bytes", self.bytes_loaded as f64);
        m.put("driver.sent", "count", pass.phase.sent as f64);
        m.put("driver.failed", "count", pass.phase.failed as f64);
        m.put("driver.idle_ms", "ms", self.idle_ms);
        m.put("driver.lag_p90_ms", "ms", self.lag_p90_ms);
        m.put("driver.backlog_end", "count", self.backlog_end);
        m.put("process.cpu_s", "s", self.cpu_s);
        m.put(
            "process.threads_effective",
            "count",
            prosperity_core::parallel_threads() as f64,
        );
        m.put("process.nproc", "count", nproc() as f64);
        m.put("trace.wall_ms", "ms", wall_ms);
        m.put("trace.residual_ms", "ms", wall_ms - self.top_ms);
        m.put(
            "trace.overhead_ratio",
            "ratio",
            untraced_req_per_s / pass.req_per_s().max(1e-9),
        );
        m
    }
}

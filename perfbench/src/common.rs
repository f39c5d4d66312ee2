//! Shared plumbing: argument parsing, process memory readings, summary
//! statistics, the benchmark's own span recorder and the result line.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Command-line arguments every workload receives.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let seconds: f64 = seconds.ok_or("missing --seconds")?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.ok_or("missing --trace")?,
        })
    }

    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in MB.
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    /// glibc: return freed heap memory to the operating system.
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the heap a torn-down set-up freed back to the operating system,
/// so repeated set-ups do not stack up in `peak_rss_mb`.
pub fn release_freed_heap() {
    // SAFETY: malloc_trim only walks glibc's own free lists.
    unsafe {
        malloc_trim(0);
    }
}

pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a sample (0 for an empty one).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Time one call, returning its value and its duration in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t))
}

/// One span recorded by the benchmark around a call into a layer.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Default)]
struct SpanLog {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

thread_local! {
    static SPANS: RefCell<SpanLog> = RefCell::new(SpanLog::default());
}

/// Turn span recording on for this thread (the traced run only).
pub fn enable_spans() {
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        s.enabled = true;
        s.origin.get_or_insert_with(Instant::now);
    });
}

/// RAII guard closing a span.
pub struct SpanGuard(Option<usize>);

/// Open a span; nested spans record their parent. Spans stay in memory
/// until [`take_spans_json`] at the end of the run.
pub fn span(name: &'static str) -> SpanGuard {
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        if !s.enabled {
            return SpanGuard(None);
        }
        let origin = *s.origin.get_or_insert_with(Instant::now);
        let idx = s.spans.len();
        let parent = s.open.last().copied();
        let now = origin.elapsed().as_nanos() as u64;
        s.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
        });
        s.open.push(idx);
        SpanGuard(Some(idx))
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        SPANS.with(|s| {
            let mut s = s.borrow_mut();
            let now = s.origin.map_or(0, |o| o.elapsed().as_nanos() as u64);
            s.spans[idx].end_ns = now;
            s.open.retain(|&i| i != idx);
        });
    }
}

/// Per-name span totals: `(count, total ns, self ns)`, where self time
/// is the span's duration minus what its child spans cover.
fn span_summary(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur.saturating_sub(child_ns[i]);
    }
    out
}

/// Drain this thread's spans as a JSON object: the raw spans plus
/// per-name totals with self time.
pub fn take_spans_json() -> String {
    let spans = SPANS.with(|s| std::mem::take(&mut s.borrow_mut().spans));
    let mut out = String::from("{\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.start_ns,
            s.end_ns
        ));
    }
    out.push_str("],\"totals\":{");
    for (i, (name, (count, total, own))) in span_summary(&spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{name}\":{{\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
        ));
    }
    out.push_str("}}");
    out
}

/// The metrics of one run, in the order they were set.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.metrics.iter_mut().find(|m| m.0 == name) {
            Some(m) => {
                m.1 = value;
                m.2 = unit;
            }
            None => self.metrics.push((name.to_string(), value, unit)),
        }
    }

    pub fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*value)
            ));
        }
        out.push('}');
        out
    }
}

/// A finite f64 as a JSON number with all its digits.
pub fn json_number(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:?}")
    }
}

/// Escape a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Latency histogram with buckets 2^(1/128) (about 0.5%) wide and
/// linear interpolation inside a bucket: fixed memory however many
/// operations a run completes, so the benchmark's own bookkeeping does
/// not grow `peak_rss_mb`. The first `EXACT_SAMPLES` latencies are also
/// kept as they are, and quantiles come from them while they cover the
/// whole run: a sparse bucket would round them to its edges.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    counts: Vec<u64>,
    n: u64,
    exact: Vec<f64>,
}

const EXACT_SAMPLES: usize = 4096;

const STEPS_PER_DOUBLING: f64 = 128.0;
/// Up to 2^40 µs (about 12 days).
const HIST_BUCKETS: usize = 40 * 128;

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: vec![0; HIST_BUCKETS],
            n: 0,
            exact: Vec::with_capacity(EXACT_SAMPLES),
        }
    }
}

impl LatencyHist {
    fn bucket(us: f64) -> usize {
        if us <= 1.0 {
            return 0;
        }
        ((us.log2() * STEPS_PER_DOUBLING) as usize).min(HIST_BUCKETS - 1)
    }

    fn lower(b: usize) -> f64 {
        if b == 0 {
            0.0
        } else {
            (b as f64 / STEPS_PER_DOUBLING).exp2()
        }
    }

    pub fn record(&mut self, us: f64) {
        self.counts[Self::bucket(us)] += 1;
        self.n += 1;
        if self.exact.len() < EXACT_SAMPLES {
            self.exact.push(us);
        }
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        let room = EXACT_SAMPLES - self.exact.len();
        self.exact.extend(other.exact.iter().take(room));
    }

    /// The `q`-quantile (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.exact.len() as u64 == self.n {
            return quantile(&self.exact, q);
        }
        let rank = q * (self.n - 1) as f64;
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 > rank {
                let frac = (rank - below as f64 + 0.5) / c as f64;
                let (lo, hi) = (Self::lower(b), Self::lower(b + 1));
                return lo + (hi - lo) * frac.clamp(0.0, 1.0);
            }
            below += c;
        }
        Self::lower(HIST_BUCKETS)
    }
}

/// Tally of operations over a run: attempted, failed, the latency of
/// each completed operation, and throughput samples.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Latencies of the completed (not failed) operations.
    pub latency: LatencyHist,
    /// Total latency of the failed attempts.
    pub failed_us: f64,
    /// Completed operations per second, one sample per round or time
    /// slice; the reported throughput is their median, so a burst of
    /// host noise in one slice does not move it.
    pub rates: Vec<f64>,
}

impl Tally {
    pub fn record(&mut self, secs: f64, failed: bool) {
        self.attempted += 1;
        if failed {
            self.failed += 1;
            self.failed_us += secs * 1e6;
        } else {
            self.latency.record(secs * 1e6);
        }
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Add a throughput sample: `completed` operations in `secs`.
    pub fn push_rate(&mut self, completed: u64, secs: f64) {
        if secs > 0.0 {
            self.rates.push(completed as f64 / secs);
        }
    }

    /// Run one round of sequential operations and add its throughput
    /// sample: completed operations over the round's time less the time
    /// spent in failed ones, so a slow failing call shows in `failed`
    /// rather than as a throughput drop.
    pub fn round<T>(&mut self, f: impl FnOnce(&mut Tally) -> T) -> T {
        let (done0, failed_us0) = (self.completed(), self.failed_us);
        let t = Instant::now();
        let out = f(self);
        let busy = secs(t) - (self.failed_us - failed_us0) / 1e6;
        self.push_rate(self.completed() - done0, busy);
        out
    }

    pub fn ops_per_s(&self) -> f64 {
        median(&self.rates)
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failed_us += other.failed_us;
        self.latency.merge(&other.latency);
        self.rates.extend(other.rates);
    }

    /// The end-to-end throughput and latency metrics. Latency
    /// percentiles cover completed operations: a failed call shows in
    /// `failed`, not in these figures.
    pub fn report_into(&self, report: &mut Report) {
        report.set("ops_per_s", self.ops_per_s(), "1/s");
        report.set("latency_p50_us", self.latency.quantile(0.5), "us");
        report.set("latency_p90_us", self.latency.quantile(0.90), "us");
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub report: Report,
    /// Extra JSON written to the trace file (spans, raw counters).
    pub trace_json: Option<String>,
}

/// The per-layer metrics, with units. Every traced run reports all of
/// them; a layer a workload does not exercise reads 0 (see README).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.text_parse_ms", "ms"),
    ("data.columnar_build_s", "s"),
    ("data.columnar_rss_mb", "MB"),
    ("data.partition_build_ms", "ms"),
    ("query.parse_us", "us"),
    ("query.compile_us", "us"),
    ("query.items_us", "us"),
    ("query.qc_probe_ns", "ns"),
    ("query.bitset_probes", "count"),
    ("core.prepare_us", "us"),
    ("core.solve_us", "us"),
    ("core.frp_ms", "ms"),
    ("core.mbp_ms", "ms"),
    ("core.cpp_ms", "ms"),
    ("core.rpp_ms", "ms"),
    ("core.nodes", "count"),
    ("core.valid_per_node", "ratio"),
    ("core.pruned.cost", "count"),
    ("core.pruned.compat", "count"),
    ("core.pruned.floor", "count"),
    ("core.worker_busy_share", "ratio"),
    ("core.steals", "count"),
    ("sketch.sub_solves", "count"),
    ("sketch.refines_improved", "count"),
    ("sketch.partitions_pruned", "count"),
    ("sketch.refine_share", "ratio"),
    ("sketch.top_val_ratio", "ratio"),
    ("relax.qrpp_ms", "ms"),
    ("relax.candidates", "count"),
    ("adjust.arpp_ms", "ms"),
    ("adjust.arpp_jobs2_ms", "ms"),
    ("adjust.candidates_per_s", "1/s"),
    ("adjust.apply_us", "us"),
    ("adjust.deadline_overrun_x", "ratio"),
    ("serve.decode_us", "us"),
    ("serve.handle_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.plan_cache_hits", "count"),
    ("serve.plan_cache_misses", "count"),
    ("traced.ops_per_s", "1/s"),
];

/// A report with every per-layer metric present at 0.
pub fn per_layer_report() -> Report {
    let mut r = Report::default();
    for (name, unit) in PER_LAYER {
        r.set(name, 0.0, unit);
    }
    r
}

/// Unit of a per-layer metric (for `Report::set`).
pub fn layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("unknown per-layer metric {name}"))
}

/// Set a per-layer metric by name.
pub fn set_layer(report: &mut Report, name: &str, value: f64) {
    report.set(name, value, layer_unit(name));
}

/// Run rounds of a workload until the measuring window is spent,
/// never starting a round that the last round's duration says would
/// end past the window; at least one round always runs.
pub fn run_rounds(window: Duration, mut round: impl FnMut(usize)) -> (usize, f64) {
    let started = Instant::now();
    let mut rounds = 0usize;
    loop {
        let t = Instant::now();
        round(rounds);
        rounds += 1;
        let last = secs(t);
        let elapsed = secs(started);
        if elapsed + last > window.as_secs_f64() {
            return (rounds, elapsed);
        }
    }
}

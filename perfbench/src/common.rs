//! Shared plumbing: arguments, seeded streams, order statistics, process
//! counters, repeated set-up, and the result line.

use std::collections::BTreeMap;
use std::os::raw::{c_int, c_long};
use std::time::{Duration, Instant};

use qfe::core::estimator::CardinalityEstimator;
use qfe::estimators::LearnedEstimator;
use qfe::ml::serialize::regressor_from_bytes;
use qfe::ml::train::Regressor;

/// Width of the program's `qfe_core::parallel` pool, fixed by the
/// benchmark through `QFE_THREADS`.
pub const POOL_WIDTH: usize = 2;

/// Set-ups per run; `setup_s` is the median of their durations.
pub const SETUP_REPS: usize = 3;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
    ("p50_us", "us"),
    ("tail_us", "us"),
    ("throughput_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MiB"),
    ("qerror_p50", "ratio"),
    ("qerror_p95", "ratio"),
];

/// The per-layer metrics every traced run reports, with their units.
/// A workload whose path does not cross a layer reports it as 0.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("setup.generate_s", "s"),
    ("setup.label_s", "s"),
    ("setup.train_s", "s"),
    ("setup.bind_s", "s"),
    ("trace.untraced_p50_us", "us"),
    ("trace.traced_p50_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.residual_us", "us"),
    ("proc.ctx_switches_per_op", "count"),
    ("proto.encode_us", "us"),
    ("proto.decode_us", "us"),
    ("proto.bytes_per_req", "B"),
    ("net.self_us_p50", "us"),
    ("net.proto_errors", "count"),
    ("net.io_errors", "count"),
    ("shard.route_us", "us"),
    ("shard.quota_shed", "count"),
    ("batch.self_us_p50", "us"),
    ("batch.mean_size", "count"),
    ("batch.expired", "count"),
    ("service.self_us_p50", "us"),
    ("service.depth0_frac", "ratio"),
    ("service.floor_answers", "count"),
    ("service.stage_timeouts", "count"),
    ("service.request_p50_us", "us"),
    ("service.request_p99_us", "us"),
    ("estimator.us_p50", "us"),
    ("estimator.self_us_p50", "us"),
    ("estimator.fallbacks", "count"),
    ("featurize.us_per_query", "us"),
    ("featurize.bulk_us_per_query", "us"),
    ("ml.predict_us_per_row", "us"),
    ("ml.boost_s", "s"),
    ("ml.boost_cpu_per_wall", "ratio"),
    ("fingerprint.us_per_query", "us"),
    ("optimizer.self_us_p50", "us"),
    ("optimizer.probes_per_query", "count"),
    ("optimizer.misses_per_query", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.invalidations", "count"),
    ("cache.evictions", "count"),
    ("slot.publish_us", "us"),
    ("slot.swaps", "count"),
    ("adapt.step_us.idle", "us"),
    ("adapt.step_us.suspected", "us"),
    ("adapt.step_us.retrain", "us"),
    ("adapt.step_us.probation", "us"),
    ("adapt.shadow_us", "us"),
    ("adapt.triggered", "count"),
    ("adapt.accepted", "count"),
    ("adapt.rejected", "count"),
    ("adapt.inconclusive", "count"),
    ("adapt.aborted", "count"),
    ("adapt.rolled_back", "count"),
    ("store.save_us", "us"),
    ("store.bytes_per_ckpt", "B"),
    ("store.enqueued", "count"),
    ("store.dropped", "count"),
];

/// SplitMix64: a small seeded generator, so the inputs depend on
/// `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An endless seeded stream over `0..n`: successive shuffled
/// permutations, so every index recurs equally often.
pub struct Cycle {
    order: Vec<usize>,
    pos: usize,
    rng: Rng,
}

impl Cycle {
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n > 0, "a stream needs at least one item");
        let mut rng = Rng::new(seed);
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        Cycle { order, pos: 0, rng }
    }

    pub fn draw(&mut self) -> usize {
        if self.pos == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank `q`-quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// The `q`-quantile of an ascending slice, if at least ten samples lie
/// beyond it; a tail with fewer is not reported.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    (rank >= 1 && sorted.len() - rank.min(sorted.len()) >= 10).then(|| sorted[rank - 1])
}

pub fn pct_label(q: f64) -> String {
    format!("p{}", (q * 1000.0).round() / 10.0)
}

/// What a measured phase's clock saw.
pub struct Clocked<T> {
    pub out: T,
    pub wall_s: f64,
    pub usage: Usage,
    /// Process usage at every window boundary: 0, W, 2W, … up to the
    /// phase's end.
    pub marks: Vec<Usage>,
    pub window_s: f64,
    /// Share of the machine's CPU time the hypervisor stole during the
    /// phase, which no change to the program can move.
    pub steal_frac: f64,
}

/// `(steal, total)` CPU ticks of the whole machine from `/proc/stat`
/// (user, nice, system, idle, iowait, irq, softirq, steal).
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Run `body(epoch, until)` for `seconds`, while a sampler thread reads
/// the process usage at every `window_s` boundary.
pub fn measure<T>(
    seconds: f64,
    window_s: f64,
    body: impl FnOnce(Instant, Instant) -> T,
) -> Clocked<T> {
    let epoch = Instant::now();
    let until = epoch + Duration::from_secs_f64(seconds);
    let usage0 = Usage::now();
    let (steal0, total0) = cpu_ticks();
    std::thread::scope(|s| {
        let sampler = s.spawn(move || {
            let mut marks = vec![usage0];
            for k in 1.. {
                let at = epoch + Duration::from_secs_f64(k as f64 * window_s);
                if at > until {
                    break;
                }
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                marks.push(Usage::now());
            }
            marks
        });
        let out = body(epoch, until);
        let wall_s = epoch.elapsed().as_secs_f64();
        let usage = Usage::now().since(usage0);
        let marks = sampler.join().expect("usage sampler thread");
        let (steal, total) = cpu_ticks();
        Clocked {
            out,
            wall_s,
            usage,
            marks,
            window_s,
            steal_frac: steal.saturating_sub(steal0) as f64
                / total.saturating_sub(total0).max(1) as f64,
        }
    })
}

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` on Linux: two `timeval`s, then fourteen `long`
/// counters, of which the last two are the voluntary and involuntary
/// context switches.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    counters: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// Process CPU time and context switches summed over all threads, live
/// and exited (`getrusage(RUSAGE_SELF)`: the user and system times of
/// `/proc/self/stat`, at microsecond resolution).
#[derive(Clone, Copy)]
pub struct Usage {
    pub cpu_us: f64,
    pub ctx_switches: f64,
}

impl Usage {
    pub fn now() -> Self {
        let mut ru = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            counters: [0; 14],
        };
        // SAFETY: `ru` is a live, writable value with the layout of the C
        // `struct rusage` on Linux (declared above), and RUSAGE_SELF is a
        // valid `who`; getrusage writes only within that struct.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) with a valid buffer cannot fail"
        );
        let micros = |t: &Timeval| t.sec as f64 * 1e6 + t.usec as f64;
        Usage {
            cpu_us: micros(&ru.utime) + micros(&ru.stime),
            ctx_switches: (ru.counters[12] + ru.counters[13]) as f64,
        }
    }

    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu_us: self.cpu_us - earlier.cpu_us,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

/// Peak resident set size (`VmHWM` of `/proc/self/status`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named phase timings of one set-up.
#[derive(Default)]
pub struct Phases(Vec<(&'static str, f64)>);

impl Phases {
    pub fn time<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.0.push((phase, t0.elapsed().as_secs_f64()));
        out
    }
}

/// Durations of every set-up of one run.
pub struct SetupTimes {
    totals: Vec<f64>,
    phases: Vec<Phases>,
    /// `VmHWM` once set-up is done: the program's data, models, threads
    /// and connections, without the benchmark's per-operation samples.
    peak_rss_mb: f64,
}

impl SetupTimes {
    pub fn median_total(&self) -> f64 {
        median(&self.totals)
    }

    pub fn median_phase(&self, phase: &str) -> f64 {
        let per_rep: Vec<f64> = self
            .phases
            .iter()
            .map(|p| {
                p.0.iter()
                    .filter(|(n, _)| *n == phase)
                    .map(|(_, s)| s)
                    .sum()
            })
            .collect();
        median(&per_rep)
    }

    fn describe(&self) -> String {
        let totals: Vec<String> = self.totals.iter().map(|t| format!("{t:.3}")).collect();
        let phases: Vec<String> = ["generate", "label", "train", "bind"]
            .iter()
            .map(|p| format!("{p} {:.3}", self.median_phase(p)))
            .collect();
        format!(
            "median of {} set-ups [{}] s; phase medians: {}",
            self.totals.len(),
            totals.join(", "),
            phases.join(", ")
        )
    }

    /// The `setup.*` per-layer metrics.
    pub fn report_phases(&self, report: &mut Report) {
        for (name, phase) in [
            ("setup.generate_s", "generate"),
            ("setup.label_s", "label"),
            ("setup.train_s", "train"),
            ("setup.bind_s", "bind"),
        ] {
            report.metric(name, self.median_phase(phase), "median over set-ups");
        }
    }
}

/// Build the workload's state [`SETUP_REPS`] times and keep the last.
/// The first set-up is timed from process start, the others from their
/// own start, so `setup_s` (their median) is "process start to first
/// timed operation" with the noise of a single set-up damped.
pub fn repeated_setup<S>(
    started: Instant,
    mut build: impl FnMut(&mut Phases) -> S,
) -> (S, SetupTimes) {
    let mut times = SetupTimes {
        totals: Vec::new(),
        phases: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = if rep == 0 { started } else { Instant::now() };
        let mut phases = Phases::default();
        kept = Some(build(&mut phases));
        times.totals.push(t0.elapsed().as_secs_f64());
        times.phases.push(phases);
    }
    times.peak_rss_mb = peak_rss_mb();
    println!("set-up: {}", times.describe());
    (kept.expect("SETUP_REPS is at least one"), times)
}

/// The tree ensemble inside a trained GB estimator, decoded from the
/// estimator's own snapshot, whose layout `LearnedEstimator` documents:
/// magic and checksum (16 bytes), the QFT name (length-prefixed), the
/// feature dimension and the two scaler bounds (20 bytes), then the
/// length-prefixed model frame.
pub fn regressor_of(est: &LearnedEstimator) -> Box<dyn Regressor + Send + Sync> {
    let bytes = est
        .snapshot_bytes()
        .expect("a trained GB estimator has a snapshot");
    let u32_at = |at: usize| -> usize {
        u32::from_le_bytes(bytes[at..at + 4].try_into().expect("four bytes")) as usize
    };
    let name_len = u32_at(16);
    let model_at = 16 + 4 + name_len + 20;
    let model_len = u32_at(model_at);
    regressor_from_bytes(&bytes[model_at + 4..model_at + 4 + model_len])
        .expect("the estimator's own model frame decodes")
}

/// Where a traced run writes its spans: the build directory, which is
/// inside the working tree and ignored by git.
pub fn trace_path(workload: &str) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into());
    std::path::Path::new(&dir).join(format!("perfbench-trace-{workload}.tsv"))
}

struct Metric {
    unit: &'static str,
    value: f64,
    note: String,
}

/// Everything a run reports: operation counts, gate failures and metrics.
pub struct Report {
    trace: bool,
    pub attempted: u64,
    pub failed: u64,
    gate_failures: Vec<String>,
    metrics: BTreeMap<&'static str, Metric>,
}

impl Report {
    pub fn new(trace: bool) -> Self {
        Report {
            trace,
            attempted: 0,
            failed: 0,
            gate_failures: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    fn expected(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Record metric `name`, which must be one this mode reports.
    pub fn metric(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        let unit = self
            .expected()
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("{name} is not a metric of this mode"));
        self.metrics.insert(
            name,
            Metric {
                unit,
                value,
                note: note.into(),
            },
        );
    }

    /// Count a correctness gate; a failed gate fails the run.
    pub fn gate(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        println!("gate {}: {what}", if ok { "ok" } else { "FAILED" });
        if !ok {
            self.gate_failures.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.gate_failures.is_empty()
            && self.failed == 0
            && self.attempted > 0
            && self.metrics.values().all(|m| m.value.is_finite())
    }

    /// The attribution check of a traced run: the untraced and traced
    /// medians of one `op`, the tracing overhead between them, and the
    /// residual of the untraced median that no layer's self time covers.
    pub fn attribution(
        &mut self,
        untraced_us: &[f64],
        traced_us: &[f64],
        attributed: f64,
        op: &str,
    ) {
        let (untraced, traced) = (median(untraced_us), median(traced_us));
        self.metric(
            "trace.untraced_p50_us",
            untraced,
            format!("{op}, n={}", untraced_us.len()),
        );
        self.metric(
            "trace.traced_p50_us",
            traced,
            format!("{op}, n={}", traced_us.len()),
        );
        self.metric(
            "trace.overhead_frac",
            traced / untraced - 1.0,
            "traced / untraced p50 - 1",
        );
        self.metric(
            "trace.residual_us",
            untraced - attributed,
            format!(
                "untraced p50 minus the sum of the layers' self-time p50s ({attributed:.2} us)"
            ),
        );
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(&mut self, setup: &SetupTimes, run: &Run, tail_q: f64, op: &str) {
        let n = run.latencies_us.len();
        let lat = sorted(run.latencies_us.clone());
        let attempted = (run.ok + run.failed) as f64;
        self.attempted = run.ok + run.failed;
        self.failed = run.failed;
        self.metric("setup_s", setup.median_total(), setup.describe());
        self.metric(
            "ok_frac",
            run.ok as f64 / attempted.max(1.0),
            format!("{} of {} {op}s succeeded", run.ok, self.attempted),
        );
        self.metric(
            "p50_us",
            quantile(&lat, 0.5),
            format!("median of n={n} {op} latencies"),
        );
        // Rate, tail and CPU per operation are medians over fixed time
        // windows, so a burst of host noise in one window cannot move
        // them; each window's tail needs ten samples beyond it.
        let w = run.window_s;
        let windows = run.marks.len().saturating_sub(1);
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
        // Completion time of each window's last operation: a window's rate
        // is its operations over the time since the previous window's last.
        let mut last = vec![0.0f64; windows];
        for (&lat, &t) in run.latencies_us.iter().zip(&run.done_s) {
            let k = (t / w) as usize;
            if let Some(bucket) = per.get_mut(k) {
                bucket.push(lat);
                last[k] = last[k].max(t);
            }
        }
        let rates: Vec<f64> = (0..windows)
            .map(|k| {
                let since = if k == 0 { 0.0 } else { last[k - 1] };
                per[k].len() as f64 / (last[k] - since).max(f64::MIN_POSITIVE)
            })
            .collect();
        let cpu: Vec<f64> = per
            .iter()
            .enumerate()
            .map(|(k, v)| (run.marks[k + 1].cpu_us - run.marks[k].cpu_us) / v.len().max(1) as f64)
            .collect();
        let smallest = per.iter().map(Vec::len).min().unwrap_or(0);
        let tails: Vec<f64> = per
            .into_iter()
            .filter_map(|v| tail(&sorted(v), tail_q))
            .collect();
        let label = pct_label(tail_q);
        if tails.is_empty() {
            self.metric(
                "tail_us",
                0.0,
                format!("no {w} s window has ten samples beyond its {label}"),
            );
            self.gate(false, format!("{n} {op} latencies support no {label} tail"));
        } else {
            self.metric(
                "tail_us",
                median(&tails),
                format!(
                    "median over {} of {windows} windows of {w} s of the window's {label} \
                     (>= {smallest} {op}s per window, >= 10 beyond)",
                    tails.len()
                ),
            );
        }
        self.metric(
            "throughput_per_s",
            median(&rates),
            format!(
                "median over {windows} windows of {w} s; whole run {} {op}s in {:.3} s; \
                 host steal {:.1}% of CPU time",
                self.attempted,
                run.wall_s,
                run.steal_frac * 100.0
            ),
        );
        self.metric(
            "cpu_us_per_op",
            median(&cpu),
            format!(
                "median over {windows} windows of process CPU / {op}s; whole run {:.1} us",
                run.usage.cpu_us / attempted.max(1.0)
            ),
        );
        self.metric(
            "peak_rss_mb",
            setup.peak_rss_mb,
            format!(
                "VmHWM at the end of set-up; {:.2} MiB at the end of the run",
                peak_rss_mb()
            ),
        );
        let q = sorted(run.qerrors.clone());
        let note = |p: &str| format!("{p} of n={} q-errors", q.len());
        self.metric("qerror_p50", quantile(&q, 0.5), note("median"));
        self.metric("qerror_p95", quantile(&q, 0.95), note("p95"));
    }

    /// Print every metric as text, then the JSON result line.
    pub fn print(&mut self) {
        for &(name, unit) in self.expected() {
            self.metrics.entry(name).or_insert_with(|| Metric {
                unit,
                value: 0.0,
                note: "not on this workload's path".into(),
            });
        }
        for &(name, _) in self.expected() {
            let m = &self.metrics[name];
            println!("  {name:<28} {:>16.4} {:<6} {}", m.value, m.unit, m.note);
        }
        let correct = self.correct();
        let metrics: Vec<String> = self
            .expected()
            .iter()
            .map(|&(name, _)| {
                let m = &self.metrics[name];
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// What one timed phase of a workload produced.
pub struct Run {
    pub latencies_us: Vec<f64>,
    /// When each operation completed, in seconds since the phase began.
    pub done_s: Vec<f64>,
    pub ok: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub usage: Usage,
    pub marks: Vec<Usage>,
    pub window_s: f64,
    pub steal_frac: f64,
    pub qerrors: Vec<f64>,
}

impl Run {
    /// A run from the clock of a phase that returned its samples and `T`.
    pub fn new<T>(clock: Clocked<(Samples, T)>) -> (Run, T) {
        let (samples, out) = clock.out;
        let run = Run {
            latencies_us: samples.latencies_us,
            done_s: samples.done_s,
            ok: samples.ok,
            failed: samples.failed,
            wall_s: clock.wall_s,
            usage: clock.usage,
            marks: clock.marks,
            window_s: clock.window_s,
            steal_frac: clock.steal_frac,
            qerrors: samples.qerrors,
        };
        (run, out)
    }
}

/// Per-operation samples a timed loop collects.
#[derive(Default)]
pub struct Samples {
    pub latencies_us: Vec<f64>,
    pub done_s: Vec<f64>,
    pub qerrors: Vec<f64>,
    pub ok: u64,
    pub failed: u64,
}

impl Samples {
    /// Record one operation that ran from `start` to `end`.
    pub fn op(&mut self, epoch: Instant, start: Instant, end: Instant, ok: bool) {
        self.latencies_us.push((end - start).as_secs_f64() * 1e6);
        self.done_s.push((end - epoch).as_secs_f64());
        if ok {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
    }

    pub fn absorb(&mut self, other: Samples) {
        self.latencies_us.extend(other.latencies_us);
        self.done_s.extend(other.done_s);
        self.qerrors.extend(other.qerrors);
        self.ok += other.ok;
        self.failed += other.failed;
    }
}

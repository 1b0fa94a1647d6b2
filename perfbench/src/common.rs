//! Shared pieces of every workload: the seeded generator, the arrival
//! schedule, the nearest-rank percentile helper, phase timing and the
//! process/thread resource probes.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own seeded generator, so the inputs it
/// generates never depend on the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under `seed`; distinct streams are
    /// independent sequences of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Open-loop arrivals at `rate` per second over `span`: the due offset
/// of every request from the phase start, ascending. The count is fixed
/// at `rate × span` and the instants are uniform, which is a Poisson
/// process conditioned on its count: every seed serves the same number
/// of requests, only their timing differs. The same `(seed, stream)`
/// always yields the same schedule.
pub fn arrival_schedule(seed: u64, stream: u64, rate: f64, span: Duration) -> Vec<Duration> {
    let mut rng = Rng::new(seed, stream);
    let n = (rate * span.as_secs_f64()).round() as usize;
    let mut due: Vec<Duration> = (0..n).map(|_| span.mul_f64(rng.next_f64())).collect();
    due.sort_unstable();
    due
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Tail levels tried from the top; p99 is the highest the metrics name.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
const TAIL_SUPPORT: usize = 10;

/// The highest ladder percentile with at least [`TAIL_SUPPORT`] samples
/// beyond its nearest rank, as `(level, value)`; `None` when even the
/// median lacks that support.
pub fn supported_tail(sorted: &[u64]) -> Option<(f64, u64)> {
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (n >= rank + TAIL_SUPPORT && rank > 0).then(|| (p, sorted[rank - 1]))
    })
}

/// Latency summary of one open-loop phase, in microseconds.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub n: usize,
    pub groups: usize,
    pub p50_us: f64,
    pub tail_level: f64,
    pub tail_us: f64,
}

impl Latency {
    /// Summarises latencies listed in due order. The requests are cut into
    /// consecutive groups of `group` (the remainder joins the last group);
    /// the tail level is the highest one every group supports, and each
    /// statistic is the median over groups of that group's value, so a
    /// stretch of requests stalled by the host does not move the result.
    /// `None` when the phase has fewer than `group` samples or a group
    /// cannot support any tail percentile.
    pub fn summarize(lat: &[Duration], group: usize) -> Option<Latency> {
        let groups = lat.len() / group.max(1);
        if groups == 0 {
            return None;
        }
        let mut per: Vec<Vec<u64>> = (0..groups)
            .map(|g| {
                let end = if g + 1 == groups {
                    lat.len()
                } else {
                    (g + 1) * group
                };
                let mut v: Vec<u64> = lat[g * group..end]
                    .iter()
                    .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
                    .collect();
                v.sort_unstable();
                v
            })
            .collect();
        let mut level = f64::INFINITY;
        for v in &mut per {
            level = level.min(supported_tail(v)?.0);
        }
        let (p50, tail): (Vec<f64>, Vec<f64>) = per
            .iter()
            .map(|v| {
                (
                    nearest_rank(v, 50.0) as f64 / 1e3,
                    nearest_rank(v, level) as f64 / 1e3,
                )
            })
            .unzip();
        Some(Latency {
            n: lat.len(),
            groups,
            p50_us: median(p50),
            tail_level: level,
            tail_us: median(tail),
        })
    }
}

/// Closed-loop throughput of one sat slice, counted in equal time
/// windows of work completed per second.
#[derive(Debug, Clone)]
pub struct RateWindows {
    start: Instant,
    span: Duration,
    counts: Vec<f64>,
}

impl RateWindows {
    pub fn new(span: Duration) -> RateWindows {
        RateWindows {
            start: Instant::now(),
            span,
            counts: vec![0.0; SAT_WINDOWS],
        }
    }

    /// `true` while the slice is still open.
    pub fn open(&self) -> bool {
        self.start.elapsed() < self.span
    }

    /// Counts `work` units completed now; ignored once the slice closed.
    pub fn record(&mut self, work: f64) {
        let at = self.start.elapsed();
        if at < self.span {
            let w = self.counts.len();
            let i = (at.as_secs_f64() / self.span.as_secs_f64() * w as f64) as usize;
            self.counts[i.min(w - 1)] += work;
        }
    }

    /// Work per second in each window.
    pub fn rates(&self) -> Vec<f64> {
        let per_s = self.span.as_secs_f64() / self.counts.len() as f64;
        self.counts.iter().map(|c| c / per_s).collect()
    }
}

/// Time windows each sat slice is counted in.
pub const SAT_WINDOWS: usize = 2;

/// One round's slice of each phase. Each round runs a `low`, a `high` and
/// a `sat` slice, so every phase samples the whole run.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub low: Duration,
    pub high: Duration,
    pub sat: Duration,
}

impl Phases {
    pub fn split(seconds: u64, rounds: u64) -> Phases {
        let round = Duration::from_secs(seconds) / rounds as u32;
        Phases {
            low: round.mul_f64(0.35),
            high: round.mul_f64(0.35),
            sat: round.mul_f64(0.30),
        }
    }
}

/// Arrival-schedule stream of open-loop phase `phase` (1 low, 2 high) in
/// round `round`.
pub fn stream(phase: u64, round: u64) -> u64 {
    phase << 16 | round
}

/// Fixed offered load of one workload: open-loop rates for the `low` and
/// `high` phases, the latency group size they are summarised over, the
/// outstanding window of the closed-loop `sat` phase, and the rounds the
/// run is cut into. Rates are constants, never derived from a run.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub low_rps: f64,
    pub high_rps: f64,
    pub group: usize,
    pub sat_window: usize,
    pub rounds: u64,
}

/// Share of the host's CPU time stolen by the hypervisor since `start`.
#[derive(Debug, Clone, Copy)]
pub struct StealMeter((u64, u64));

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter(host_ticks())
    }

    /// Steal since `start`, in percent of all CPU time.
    pub fn pct(&self) -> f64 {
        let now = host_ticks();
        (now.0 - self.0 .0) as f64 / (now.1 - self.0 .1).max(1) as f64 * 100.0
    }
}

/// A phase's per-slice results, each with a score of how much the host
/// disturbed it (lower is cleaner). The phase statistics use the cleaner
/// half of the slices: on a shared virtual machine the host slows the
/// CPUs for seconds at a time, and a slice it hit measures the
/// neighbour, not the program.
#[derive(Debug)]
pub struct Sliced<T>(Vec<(f64, T)>);

impl<T> Default for Sliced<T> {
    fn default() -> Self {
        Sliced(Vec::new())
    }
}

impl<T> Sliced<T> {
    pub fn push(&mut self, score: f64, value: T) {
        self.0.push((score, value));
    }

    pub fn extend(&mut self, other: Sliced<T>) {
        self.0.extend(other.0);
    }

    /// The ⌈n/2⌉ slices with the lowest score, in run order, and the
    /// score of every slice.
    pub fn cleanest(&self) -> (Vec<&T>, Vec<f64>) {
        let mut order: Vec<usize> = (0..self.0.len()).collect();
        order.sort_by(|&a, &b| self.0[a].0.total_cmp(&self.0[b].0));
        order.truncate(self.0.len().div_ceil(2));
        order.sort_unstable();
        (
            order.iter().map(|&i| &self.0[i].1).collect(),
            self.0.iter().map(|s| s.0).collect(),
        )
    }
}

/// Latency samples of one open-loop slice, in due order.
pub type LatSlices = Sliced<Vec<Duration>>;

/// What the interleaved rounds of a single-threaded workload observed.
/// An open-loop slice is scored by the host steal across it, as for the
/// serving workloads. A sat slice is scored by its work rate, negated:
/// one thread does all its work, so a slow host (stolen or in its slow
/// mode) only ever lowers the rate, and the faster half is the cleaner
/// half.
#[derive(Debug, Default)]
pub struct InlineRun {
    pub low: LatSlices,
    pub high: LatSlices,
    /// Work per second in every sat window, per round.
    pub sat: Sliced<Vec<f64>>,
    /// How late each request found an idle server, ns.
    pub late_ns: Vec<u64>,
}

/// Runs the rounds of a workload that one thread serves in arrival
/// order: the open-loop phases are a FIFO queue in front of `serve`, and
/// the sat phase calls it back to back. `serve(i)` serves request `i` of
/// the workload's request sequence and returns the work it completed, or
/// `None` when it failed. Every open-loop slice of a phase serves the
/// same requests, from the start of the sequence, so slices differ only
/// in timing; the sat phase walks on through the sequence across rounds.
pub fn run_inline(
    seed: u64,
    seconds: u64,
    load: &Load,
    report: &mut Report,
    mut serve: impl FnMut(usize) -> Option<f64>,
) -> InlineRun {
    let phases = Phases::split(seconds, load.rounds);
    let mut out = InlineRun::default();
    let mut next_sat = 0usize;
    for round in 0..load.rounds {
        for (phase, rate, span) in [
            (1, load.low_rps, phases.low),
            (2, load.high_rps, phases.high),
        ] {
            let schedule = arrival_schedule(seed, stream(phase, round), rate, span);
            let steal = StealMeter::start();
            let start = Instant::now();
            let mut lat = Vec::with_capacity(schedule.len());
            for (i, offset) in schedule.into_iter().enumerate() {
                let due = start + offset;
                if Instant::now() < due {
                    sleep_until(due);
                    out.late_ns.push(due.elapsed().as_nanos() as u64);
                }
                let ok = serve(i).is_some();
                report.attempted += 1;
                report.failed += u64::from(!ok);
                lat.push(due.elapsed());
            }
            let slices = if phase == 1 {
                &mut out.low
            } else {
                &mut out.high
            };
            slices.push(steal.pct(), lat);
        }
        let mut sat = RateWindows::new(phases.sat);
        while sat.open() {
            match serve(next_sat) {
                Some(work) => sat.record(work),
                None => report.failed += 1,
            }
            next_sat += 1;
            report.attempted += 1;
        }
        let rates = sat.rates();
        out.sat.push(-rates.iter().sum::<f64>(), rates);
    }
    out
}

/// Sleeps until `deadline` (never spins); returns at once if it passed.
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system) the calling thread has used so far, from
/// `/proc/thread-self/stat` at the kernel's 100 Hz tick.
pub fn thread_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Host CPU time counters from `/proc/stat`: `(steal, total)` ticks over
/// all CPUs. Steal is time the hypervisor ran something else while this
/// machine's CPUs had work.
fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Median of a non-empty list (the mean of the middle two for an even
/// count).
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n.is_multiple_of(2) {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    } else {
        values[n / 2]
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Set when any correctness check failed; the reason is on stderr.
    pub incorrect: bool,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed correctness check with its reason.
    pub fn fail_check(&mut self, why: &str) {
        eprintln!("perfbench: correctness check failed: {why}");
        self.incorrect = true;
    }

    /// The three phase metrics every workload reports: latencies from the
    /// cleaner half of each open-loop phase's slices, and `sat_rps`.
    pub fn set_phases(&mut self, low: &LatSlices, high: &LatSlices, sat_rps: f64, group: usize) {
        for (phase, slices, p50, tail) in [
            ("low", low, "low.p50_us", "low.tail_us"),
            ("high", high, "high.p50_us", "high.tail_us"),
        ] {
            let (kept, steal) = slices.cleanest();
            let lat: Vec<Duration> = kept.into_iter().flatten().copied().collect();
            match Latency::summarize(&lat, group) {
                Some(l) => {
                    eprintln!(
                        "perfbench: {phase}: n={} in {} groups, median p50={:.1}us p{}={:.1}us; slice scores {steal:.1?}",
                        l.n, l.groups, l.p50_us, l.tail_level, l.tail_us
                    );
                    self.set(p50, l.p50_us);
                    self.set(tail, l.tail_us);
                }
                None => self.fail_check(&format!("{phase} phase has too few samples")),
            }
        }
        eprintln!("perfbench: sat: {sat_rps:.1} per second");
        self.set("sat.rps", sat_rps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let sorted: Vec<u64> = (1..=1000).collect();
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert_eq!(supported_tail(&sorted), Some((99.0, 990)));
        let sorted: Vec<u64> = (1..=999).collect();
        // One short of p99 support; p95 (rank 950) has 49 beyond.
        assert_eq!(supported_tail(&sorted), Some((95.0, 950)));
        let sorted: Vec<u64> = (1..=150).collect();
        assert_eq!(supported_tail(&sorted), Some((90.0, 135)));
        assert_eq!(supported_tail(&(1..=15).collect::<Vec<u64>>()), None);
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let sorted = [10, 20, 30, 40];
        assert_eq!(nearest_rank(&sorted, 50.0), 20);
        assert_eq!(nearest_rank(&sorted, 51.0), 30);
        assert_eq!(nearest_rank(&sorted, 100.0), 40);
        assert_eq!(nearest_rank(&sorted, 0.1), 10);
    }

    #[test]
    fn arrival_schedule_is_identical_for_the_same_seed() {
        let span = Duration::from_secs(2);
        let a = arrival_schedule(42, 1, 5000.0, span);
        assert_eq!(a, arrival_schedule(42, 1, 5000.0, span));
        assert_ne!(a, arrival_schedule(43, 1, 5000.0, span), "seed changes it");
        assert_ne!(
            a,
            arrival_schedule(42, 2, 5000.0, span),
            "stream changes it"
        );
        assert_eq!(a.len(), 10_000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]) && *a.last().unwrap() < span);
        // Uniform instants: each half of the span holds about half.
        let first = a.iter().filter(|d| **d < span / 2).count();
        assert!((4_800..5_200).contains(&first), "{first}");
    }

    #[test]
    fn group_statistics_are_medians_over_groups() {
        let ms = Duration::from_millis;
        // Three groups of 1000; the middle one is stalled.
        let lat: Vec<Duration> = (0..3000u64)
            .map(|i| {
                if (1000..2000).contains(&i) {
                    ms(50)
                } else {
                    ms(1 + i % 2)
                }
            })
            .collect();
        let l = Latency::summarize(&lat, 1000).unwrap();
        assert_eq!((l.n, l.groups, l.tail_level), (3000, 3, 99.0));
        assert_eq!(
            (l.p50_us, l.tail_us),
            (1000.0, 2000.0),
            "the stalled group is outvoted"
        );
        let l = Latency::summarize(&lat[..2999], 1000).unwrap();
        assert_eq!(
            (l.groups, l.tail_level),
            (2, 99.0),
            "the remainder joins the last group"
        );
        assert_eq!(Latency::summarize(&lat, 400).unwrap().tail_level, 95.0);
        assert!(Latency::summarize(&lat[..999], 1000).is_none());
    }

    #[test]
    fn the_cleaner_half_of_the_slices_is_kept_in_run_order() {
        let mut s = Sliced::default();
        for (steal, v) in [(0.5, 'a'), (9.0, 'b'), (0.1, 'c'), (3.0, 'd'), (0.2, 'e')] {
            s.push(steal, v);
        }
        let (kept, steal) = s.cleanest();
        assert_eq!(kept, [&'a', &'c', &'e']);
        assert_eq!(steal, [0.5, 9.0, 0.1, 3.0, 0.2]);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}

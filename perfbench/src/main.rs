//! `perfbench`: the repository's wall-clock benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_mixed|serve_contention|paper_sweep|compile_sweep|all> \
//!     [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! With `--trace 0` a run prints the end-to-end metrics, measured with
//! tracing off. With `--trace 1` it prints the per-layer metrics of a
//! call-by-call replay of the same work, and writes the replay's spans
//! to `perfbench/out/`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. A failed
//! correctness check exits with code 1. See `perfbench/README.md`.

mod compile_sweep;
mod paper_sweep;
mod serve;
mod trace;

use accfg_bench::json;
use accfg_workloads::SplitMix;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

const WORKLOADS: [&str; 4] = [
    "serve_mixed",
    "serve_contention",
    "paper_sweep",
    "compile_sweep",
];

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "1/s"),
    ("ops_per_cpu_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("config_ops", "count"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload never calls reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("workloads.traffic.gen_s", "s"),
    ("workloads.fill.calls", "count"),
    ("workloads.fill.s", "s"),
    ("workloads.fill.bytes", "bytes"),
    ("workloads.check.calls", "count"),
    ("workloads.check.s", "s"),
    ("workloads.check.macs", "count"),
    ("sim.run.calls", "count"),
    ("sim.run.s", "s"),
    ("sim.insts", "count"),
    ("sim.insts_config", "count"),
    ("sim.cycles", "cycles"),
    ("sim.launches", "count"),
    ("sim.contention_cycles", "cycles"),
    ("sim.minsts_per_s", "Minst/s"),
    ("runtime.serve_s", "s"),
    ("runtime.plan.delta_s", "s"),
    ("runtime.plan.emitted_writes", "count"),
    ("runtime.plan.cold_writes", "count"),
    ("runtime.plan.elided_share", "ratio"),
    ("runtime.plan.from_trace_s", "s"),
    ("runtime.scheduler.calls", "count"),
    ("runtime.scheduler.choose_s", "s"),
    ("runtime.scheduler.commit_s", "s"),
    ("runtime.scheduler.observe_s", "s"),
    ("runtime.cache.builds", "count"),
    ("runtime.cache.hits", "count"),
    ("runtime.cache.build_s", "s"),
    ("runtime.engine.residual_s", "s"),
    ("runtime.engine.residual_share", "ratio"),
    ("runtime.metrics.render_s", "s"),
    ("ir.gen_s", "s"),
    ("core.pipeline_s", "s"),
    ("core.pipeline.passes_changed", "count"),
    ("core.interp_s", "s"),
    ("analyze.validate_s", "s"),
    ("analyze.lint_s", "s"),
    ("analyze.static_writes", "count"),
    ("targets.lower_s", "s"),
    ("targets.static_insts", "count"),
    ("bench.fig11_geomean_speedup", "ratio"),
    ("trace.spans", "count"),
    ("trace.replay_s", "s"),
    ("trace.replay_untraced_s", "s"),
    ("trace.overhead_share", "ratio"),
];

/// Fewest set-up samples a run takes; `setup_s` is the fastest.
const MIN_SETUPS: usize = 5;

/// Shortest stretch one set-up sample spans. A set-up faster than this
/// repeats within the sample, and the sample is the mean, so that a
/// millisecond set-up is not timed by its first, cache-cold run alone.
const SETUP_SAMPLE_S: f64 = 0.01;

/// What a workload run is given.
pub(crate) struct Run {
    /// Workload seed; 0 is the canonical input.
    pub seed: u64,
    /// How long the timed region lasts, at least.
    pub seconds: f64,
}

/// What a workload run measured.
#[derive(Default)]
pub(crate) struct Outcome {
    /// Operations attempted: requests, points or compilations.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed correctness checks beyond single operations.
    pub violations: Vec<String>,
    /// Reported metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Further outcomes printed for the reader: name, value, unit.
    pub notes: Vec<(&'static str, f64, &'static str)>,
    /// Recorded spans (traced runs).
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn note(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.notes.push((name, value, unit));
    }

    /// Reports each metric measured per round as its median over rounds.
    fn per_round(&mut self, rounds: &[BTreeMap<&'static str, f64>]) {
        let Some(first) = rounds.first() else {
            return;
        };
        for &name in first.keys() {
            let values: Vec<f64> = rounds.iter().map(|r| r[name]).collect();
            self.metric(name, median(&values));
        }
    }
}

/// The median of `xs` (mean of the middle two for even lengths).
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Wall-clock and CPU seconds (all threads of this process) one call
/// took.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Cost {
    pub wall: f64,
    pub cpu: f64,
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, other: Cost) -> Cost {
        Cost {
            wall: self.wall + other.wall,
            cpu: self.cpu + other.cpu,
        }
    }
}

/// Runs `f` and returns its result with what it cost.
pub(crate) fn measure<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let (wall, cpu) = (Instant::now(), cpu_seconds());
    let out = f();
    let cost = Cost {
        wall: wall.elapsed().as_secs_f64(),
        cpu: cpu_seconds() - cpu,
    };
    (out, cost)
}

/// The costs of one repeated call, sampled across the whole run.
///
/// On a shared host, other tenants slow the host down by 1.5-2x for
/// seconds to minutes at a time, through stolen time or through
/// contended cores and caches with no steal at all; nothing makes a call
/// faster than the host allows. So a single-threaded call's cost is its
/// fastest sample: the one the other tenants disturbed least. A serve
/// hands every request to a worker thread and back, so its fastest
/// sample is the one whose hand-offs happened to be placed best, which
/// does not repeat from run to run; a serve's cost is its median sample.
#[derive(Debug, Clone, Default)]
pub(crate) struct Samples {
    wall: Vec<f64>,
    cpu: Vec<f64>,
}

impl Samples {
    pub(crate) fn push(&mut self, cost: Cost) {
        self.wall.push(cost.wall);
        self.cpu.push(cost.cpu);
    }

    /// The fewest wall-clock and the fewest CPU seconds.
    pub(crate) fn best(&self) -> Cost {
        let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
        Cost {
            wall: min(&self.wall),
            cpu: min(&self.cpu),
        }
    }

    /// The median wall-clock and the median CPU seconds.
    pub(crate) fn median(&self) -> Cost {
        Cost {
            wall: median(&self.wall),
            cpu: median(&self.cpu),
        }
    }
}

/// The per-call costs of a round's calls, summed; `cost` is
/// [`Samples::best`] or [`Samples::median`].
pub(crate) fn summed(calls: &[Samples], cost: fn(&Samples) -> Cost) -> Cost {
    calls.iter().map(cost).fold(Cost::default(), |a, b| a + b)
}

/// Calls `unit`, one round at a time, until `seconds` of wall-clock time
/// have passed and it ran at least `min` rounds; returns how many ran.
pub(crate) fn repeat_for(seconds: f64, min: usize, mut unit: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min || start.elapsed().as_secs_f64() < seconds {
        unit();
        rounds += 1;
    }
    rounds
}

/// A workload's set-up, sampled once before the timed region and once
/// more after each timed round, so that its samples spread over the run
/// as the timed calls do.
pub(crate) struct SetUps<T, F: FnMut() -> Result<T, String>> {
    set_up: F,
    /// Mean wall-clock seconds of one set-up, per sample.
    samples: Vec<f64>,
}

impl<T, F: FnMut() -> Result<T, String>> SetUps<T, F> {
    /// Sets up for the timed region; the first sample.
    pub(crate) fn first(set_up: F) -> Result<(Self, T), String> {
        let mut setups = SetUps {
            set_up,
            samples: Vec::new(),
        };
        let value = setups.again()?;
        Ok((setups, value))
    }

    /// Takes one more sample and returns the last set-up's result.
    pub(crate) fn again(&mut self) -> Result<T, String> {
        let start = Instant::now();
        let mut last = (self.set_up)()?;
        let mut reps = 1;
        while start.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
            last = (self.set_up)()?;
            reps += 1;
        }
        self.samples
            .push(start.elapsed().as_secs_f64() / reps as f64);
        Ok(last)
    }

    /// The fastest sample, after topping the samples up to
    /// [`MIN_SETUPS`].
    pub(crate) fn best_s(mut self) -> Result<f64, String> {
        while self.samples.len() < MIN_SETUPS {
            self.again()?;
        }
        Ok(self.samples.iter().copied().fold(f64::INFINITY, f64::min))
    }
}

/// CPU time this process has used so far, all its threads included.
pub(crate) fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) through the valid, exclusive pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU-time clock is always available");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// `items` permuted by `seed`; seed 0 keeps their order.
pub(crate) fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    if seed != 0 {
        let mut rng = SplitMix::new(seed);
        for i in (1..items.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
    items
}

/// The repository checkout this benchmark belongs to.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

/// Reads a file at the repository root.
pub(crate) fn repo_file(name: &str) -> Result<String, String> {
    std::fs::read_to_string(repo_root().join(name)).map_err(|e| format!("{name}: {e}"))
}

/// Appends `src` to `dst`, keeping parent links pointing at the same
/// spans.
pub(crate) fn append_spans(dst: &mut Vec<trace::Span>, src: Vec<trace::Span>) {
    let offset = dst.len();
    dst.extend(src.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + offset);
        s
    }));
}

/// This process's peak resident memory, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Stolen and total CPU ticks of all cores so far, from `/proc/stat`:
/// time the hypervisor gave this machine's cores to someone else.
fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The checkout's commit, read from `.git` without running git.
fn git_commit() -> String {
    let git = repo_root().join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host block: cores, compiler, build profile, commit, and the
/// one-minute load average when the run started.
fn host_block() -> (String, bool) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(-1.0);
    // every core already had work queued on average over the last minute
    let busy = load1 >= nproc as f64;
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let block = format!(
        "{{\"nproc\": {nproc}, \"rustc\": \"{}\", \"profile\": \"{profile}\", \
         \"commit\": \"{}\", \"load1\": {load1}, \"busy\": {busy}}}",
        env!("PERFBENCH_RUSTC_VERSION"),
        git_commit()
    );
    (block, busy)
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run_workload(args: &Args) -> Result<bool, String> {
    let run = Run {
        seed: args.seed,
        seconds: args.seconds as f64,
    };
    let steal_before = steal_ticks();
    let mut out = match (args.workload.as_str(), args.trace) {
        ("serve_mixed", false) => serve::run(&serve::MIXED, &run),
        ("serve_mixed", true) => serve::traced(&serve::MIXED, &run),
        ("serve_contention", false) => serve::run(&serve::CONTENTION, &run),
        ("serve_contention", true) => serve::traced(&serve::CONTENTION, &run),
        ("paper_sweep", false) => paper_sweep::run(&run),
        ("paper_sweep", true) => paper_sweep::traced(&run),
        ("compile_sweep", false) => compile_sweep::run(&run),
        ("compile_sweep", true) => compile_sweep::traced(&run),
        _ => unreachable!("workload names are checked when parsed"),
    }?;
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, steal_ticks()) {
        out.note(
            "host_steal_share",
            (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
            "ratio",
        );
    }
    let table: &[(&str, &str)] = if args.trace {
        &PER_LAYER
    } else {
        out.metric("peak_rss_mb", peak_rss_mb()?);
        &END_TO_END
    };
    if args.trace {
        let dir = repo_root().join("perfbench").join("out");
        let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::to_jsonl(&out.spans)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {} ({} spans)", path.display(), out.spans.len());
    }
    for (name, value, unit) in &out.notes {
        println!("  {name:<32} {value:>16.4} {unit}");
    }
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = if args.trace {
            out.metrics.get(name).copied().unwrap_or(0.0)
        } else {
            match out.metrics.get(name) {
                Some(&v) => v,
                None if out.violations.is_empty() => {
                    return Err(format!("{} did not measure {name}", args.workload))
                }
                None => continue,
            }
        };
        if !value.is_finite() {
            out.violations.push(format!("{name} is not finite"));
            continue;
        }
        println!(
            "{:<36} {value:>16.6} {unit}",
            format!("{}.{name}", args.workload)
        );
        metrics.push((name.to_string(), value, unit.to_string()));
    }
    for v in &out.violations {
        println!("FAILED CHECK: {v}");
    }
    let correct = out.violations.is_empty() && out.failed == 0;
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &metrics)
    );
    Ok(correct)
}

/// `--workload all`: each workload in its own process, so each
/// measures its own peak memory; then one combined result line.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("{workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let last = stdout.lines().last().unwrap_or_default();
        let Ok(result) = json::parse(last) else {
            return Err(format!("{workload} printed no result"));
        };
        correct &=
            output.status.success() && result.get("correct") == Some(&json::Json::Bool(true));
        attempted += result
            .get("attempted")
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        failed += result.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
        for (name, m) in result
            .get("metrics")
            .and_then(|m| m.entries())
            .unwrap_or_default()
        {
            let Some(json::Json::Num(value)) = m.get("value") else {
                continue;
            };
            let unit = m.get("unit").and_then(|u| u.as_str()).unwrap_or_default();
            metrics.push((format!("{workload}.{name}"), *value, unit.to_string()));
        }
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (host, busy) = host_block();
    println!("host: {host}");
    if busy {
        eprintln!("perfbench: warning: the host was busy when the run started ({host})");
    }
    let result = if args.workload == "all" {
        run_all(&args)
    } else {
        run_workload(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

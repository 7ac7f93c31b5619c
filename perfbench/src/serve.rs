//! The serving workloads, `serve_mixed` and `serve_contention`.
//!
//! A run sets up a warm runtime, times whole `Runtime::serve` calls over
//! streams generated from the seed, and then serves the canonical stream
//! to check it against its committed row of `BENCH_runtime.json`. The
//! traced run replays each serve one layer call at a time (see
//! [`replay`]).

use crate::{measure, repeat_for, repo_file, summed, trace, Outcome, Run, Samples, SetUps};
use accfg_bench::{json, streams};
use accfg_runtime::{
    CompiledModule, ModuleCache, Policy, PoolConfig, RegMap, Runtime, Scheduler, ServeConfig,
    ServeMetrics, ServeReport,
};
use accfg_sim::{AccelSim, FreqState, Machine};
use accfg_workloads::{
    check_result, fill_inputs, mixed_serving_classes, SplitMix, TrafficConfig, TrafficRequest,
};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;

/// Streams a run serves, and requests in each. A round's 4,000 requests
/// come from many independently drawn streams, so one draw's class mix
/// moves the figure little, and a round stays short enough (under a
/// second) to repeat some thirty times in a run.
const STREAMS: usize = 20;
const REQUESTS: usize = 200;

/// Requests in the canonical serve: the stream length of the committed
/// rows in `BENCH_runtime.json`.
const ROW_REQUESTS: usize = 12_000;

/// Fewest times a run serves every stream, however short `--seconds` is.
const MIN_ROUNDS: usize = 2;

/// One serving workload: a stream family, a pool and a policy.
pub(crate) struct ServeWorkload {
    /// The `BENCH_runtime.json` section and policy row the canonical
    /// stream must reproduce exactly.
    row: (&'static str, &'static str),
    policy: Policy,
    mean_gap: u64,
    /// The `bench::streams` seed `--seed 0` stands for.
    canonical_seed: u64,
    canonical: fn(usize) -> Vec<TrafficRequest>,
    pool: fn() -> PoolConfig,
}

/// The canonical six-shape mix on the uniform pool under `affinity`.
pub(crate) const MIXED: ServeWorkload = ServeWorkload {
    row: ("mixed", "affinity"),
    policy: Policy::ConfigAffinity,
    mean_gap: 200,
    canonical_seed: 0xC0FFEE,
    canonical: streams::mixed_stream,
    pool: streams::uniform_pool,
};

/// The same mix at a tighter gap, on the reference-timing pool under
/// `thermal`.
pub(crate) const CONTENTION: ServeWorkload = ServeWorkload {
    row: ("contention", "thermal"),
    policy: Policy::Thermal,
    mean_gap: 120,
    canonical_seed: 0xC047E47,
    canonical: streams::contention_stream,
    pool: streams::contention_pool,
};

impl ServeWorkload {
    fn cfg(&self) -> ServeConfig {
        ServeConfig {
            policy: self.policy,
            ..ServeConfig::default()
        }
    }

    fn stream(&self, seed: u64, requests: usize) -> Vec<TrafficRequest> {
        TrafficConfig {
            classes: mixed_serving_classes(),
            requests,
            mean_gap: self.mean_gap,
            seed,
        }
        .open_loop_stream()
        .expect("valid traffic mix")
    }

    /// The run's timed streams, drawn from `seed`; 0 stands for the
    /// canonical seed.
    fn streams(&self, seed: u64) -> Vec<Vec<TrafficRequest>> {
        let mut seeds = SplitMix::new(if seed == 0 { self.canonical_seed } else { seed });
        (0..STREAMS)
            .map(|_| self.stream(seeds.next_u64(), REQUESTS))
            .collect()
    }
}

/// The first request of each distinct class, in stream order.
fn one_per_class(stream: &[TrafficRequest]) -> Vec<TrafficRequest> {
    let mut seen = BTreeSet::new();
    stream
        .iter()
        .filter(|r| seen.insert(accfg_runtime::class_label(&r.accelerator, &r.spec)))
        .cloned()
        .collect()
}

fn failures(report: &ServeReport) -> u64 {
    report.metrics.check_failures + report.metrics.sim_failures
}

/// Set-up: stream generation, a fresh runtime, and a warm-up serve of
/// one request per class, which fills the runtime's module cache.
fn set_up(w: &ServeWorkload, seed: u64) -> Result<(Vec<Vec<TrafficRequest>>, Runtime), String> {
    let streams = trace::span("workloads.traffic.gen", 0, || w.streams(seed));
    let mut runtime = Runtime::new((w.pool)());
    let report = runtime
        .serve(&one_per_class(&streams.concat()), &w.cfg())
        .map_err(|e| format!("warm-up serve failed: {e}"))?;
    if failures(&report) > 0 {
        return Err("warm-up serve failed its functional checks".into());
    }
    Ok((streams, runtime))
}

/// Serves `stream`, counting its requests as attempted and failed.
fn serve_counted(
    runtime: &mut Runtime,
    stream: &[TrafficRequest],
    cfg: &ServeConfig,
    out: &mut Outcome,
) -> Option<ServeReport> {
    out.attempted += stream.len() as u64;
    match runtime.serve(stream, cfg) {
        Ok(report) => {
            out.failed += failures(&report);
            Some(report)
        }
        Err(e) => {
            out.failed += stream.len() as u64;
            out.violations.push(format!("serve failed: {e}"));
            None
        }
    }
}

/// The untraced run: end-to-end metrics and the correctness gate.
pub(crate) fn run(w: &ServeWorkload, run: &Run) -> Result<Outcome, String> {
    let (mut setups, (streams, mut runtime)) = SetUps::first(|| set_up(w, run.seed))?;
    let cfg = w.cfg();
    let mut out = Outcome::default();
    let mut serves = vec![Samples::default(); streams.len()];
    let mut first: Vec<Option<ServeReport>> = streams.iter().map(|_| None).collect();
    let rounds = repeat_for(run.seconds, MIN_ROUNDS, || {
        for (k, stream) in streams.iter().enumerate() {
            let (report, cost) = measure(|| serve_counted(&mut runtime, stream, &cfg, &mut out));
            serves[k].push(cost);
            match (report, &first[k]) {
                (Some(report), None) => first[k] = Some(report),
                (Some(report), Some(expected)) if report.metrics != expected.metrics => out
                    .violations
                    .push("two serves of one stream gave different metrics".into()),
                _ => {}
            }
        }
        if let Err(e) = setups.again() {
            out.violations.push(e);
        }
    });
    let Some(canonical) = check_canonical_row(w, &mut runtime, &mut out)? else {
        return Ok(out);
    };

    let setup_s = setups.best_s()?;
    let serve = summed(&serves, Samples::median);
    let requests = (streams.len() * REQUESTS) as f64;
    let insts: u64 = first
        .iter()
        .flatten()
        .flat_map(|r| &r.completions)
        .map(|c| c.counters.insts_total)
        .sum();
    out.metric("ops_per_s", requests / serve.wall);
    out.metric("ops_per_cpu_s", requests / serve.cpu);
    out.metric("setup_s", setup_s);
    out.metric("config_ops", canonical.setup_writes as f64);
    out.note("rounds_timed", rounds as f64, "count");
    out.note("requests_per_round", requests, "count");
    out.note(
        "sim_minsts_per_s",
        insts as f64 / (serve.wall * 1e6),
        "Minst/s",
    );
    out.note(
        "canonical_sim_p50_cycles",
        canonical.latency.p50 as f64,
        "cycles",
    );
    out.note(
        "canonical_sim_p99_cycles",
        canonical.latency.p99 as f64,
        "cycles",
    );
    out.note(
        "canonical_setup_writes",
        canonical.setup_writes as f64,
        "count",
    );
    Ok(out)
}

/// Serves the canonical stream, checks its metrics against the
/// committed row, and returns them.
fn check_canonical_row(
    w: &ServeWorkload,
    runtime: &mut Runtime,
    out: &mut Outcome,
) -> Result<Option<ServeMetrics>, String> {
    let canonical = w.stream(w.canonical_seed, ROW_REQUESTS);
    if canonical != (w.canonical)(ROW_REQUESTS) {
        out.violations
            .push("the canonical seed no longer yields the bench::streams stream".into());
    }
    let Some(report) = serve_counted(runtime, &canonical, &w.cfg(), out) else {
        return Ok(None);
    };
    let rendered = report.metrics.to_json();
    let committed = repo_file("BENCH_runtime.json")?;
    let committed = json::parse(&committed).map_err(|e| format!("BENCH_runtime.json: {e}"))?;
    let (section, policy) = w.row;
    let row = committed
        .get(section)
        .and_then(|s| s.get(policy))
        .ok_or_else(|| format!("BENCH_runtime.json has no {section}/{policy} row"))?;
    let ours = json::parse(&rendered).map_err(|e| format!("serve metrics JSON: {e}"))?;
    if ours != *row {
        let field = |j: &json::Json, key: &str| j.get(key).and_then(|v| v.as_u64());
        let p99 = |j: &json::Json| j.get("latency").and_then(|l| field(l, "p99"));
        out.violations.push(format!(
            "canonical {section} stream under {policy} differs from BENCH_runtime.json: \
             setup_writes {:?} vs {:?}, p99 {:?} vs {:?}",
            field(&ours, "setup_writes"),
            field(row, "setup_writes"),
            p99(&ours),
            p99(row),
        ));
    }
    Ok(Some(report.metrics))
}

/// The pool group that serves `accelerator`.
fn group_of(pool: &PoolConfig, accelerator: &str) -> Result<usize, String> {
    pool.groups
        .iter()
        .position(|g| g.family == accelerator)
        .ok_or_else(|| format!("no pool group serves `{accelerator}`"))
}

/// One pool worker's replay state: the persistent machine, the resident
/// register file and the simulated clock, as `Worker` keeps them.
struct ReplayWorker {
    machine: Machine,
    resident: RegMap,
    clock: u64,
}

/// A replayed dispatch, kept until it retires into the cost refiner.
#[derive(Clone)]
struct Dispatched {
    module: Arc<CompiledModule>,
    bucket: usize,
    cycles: u64,
    freq: FreqState,
}

/// Work counted while replaying one serve.
#[derive(Default)]
struct ReplayCounts {
    fill_bytes: u64,
    check_macs: u64,
    insts: u64,
    insts_config: u64,
    cycles: u64,
    launches: u64,
    contention_cycles: u64,
    emitted_writes: u64,
    cold_writes: u64,
    cache_hits: u64,
}

/// Replays `report`'s serve of `stream` one public layer call at a time
/// and adds the work it did to `counts`,
/// in dispatch order, on the serve's own per-request worker assignment:
/// module lookup, scheduler choose/commit/observe, input fill, delta
/// program, simulator run and reference check. Every dispatch must
/// reproduce the serve's counters, emitted writes and DVFS state, and
/// the replayed scheduler must choose the worker the serve chose.
fn replay(
    stream: &[TrafficRequest],
    report: &ServeReport,
    pool: &PoolConfig,
    cfg: &ServeConfig,
    cache: &mut ModuleCache,
    counts: &mut ReplayCounts,
) -> Result<(), String> {
    let mut descs = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut worker_group = Vec::new();
    for (g, group) in pool.groups.iter().enumerate() {
        groups.push((descs.len()..descs.len() + group.members.len()).collect());
        descs.extend(group.members.iter().cloned());
        worker_group.extend(group.members.iter().map(|_| g));
    }
    let caps = pool.groups.iter().map(|g| g.power_cap).collect();
    let mut scheduler = Scheduler::new(cfg.policy, &descs, groups.len())
        .with_refinement(cfg.refine_cost)
        .with_slack(cfg.load_slack)
        .with_power_caps(worker_group, caps);
    let elide = scheduler.elides();
    let mut workers: Vec<ReplayWorker> = descs
        .iter()
        .map(|d| ReplayWorker {
            machine: Machine::new(
                d.host.clone(),
                AccelSim::with_timing(d.accel.clone(), d.timing),
                pool.mem_bytes,
            ),
            resident: RegMap::new(),
            clock: 0,
        })
        .collect();

    let mut order: Vec<usize> = (0..stream.len()).collect();
    order.sort_by_key(|&i| (stream[i].arrival, stream[i].id, i));
    let mut done: Vec<Option<Dispatched>> = vec![None; stream.len()];
    let mut unretired: BTreeSet<(u64, usize)> = BTreeSet::new();
    for &i in &order {
        let request = &stream[i];
        let id = request.id;
        let served = &report.completions[i];
        trace::span("request", id, || -> Result<(), String> {
            let g = group_of(pool, &request.accelerator)?;
            let hits = cache.stats.hits;
            let module = trace::span("runtime.cache.get_or_build", id, || {
                cache.get_or_build(&pool.groups[g].members[0], request.spec, cfg.opt)
            })
            .map_err(|e| format!("module build failed: {e}"))?;
            counts.cache_hits += cache.stats.hits - hits;

            // retire every dispatch the clock proves complete, in
            // (finish, slot) order, exactly as the serve loop does
            let now = request.arrival;
            while let Some(&(finish, slot)) = unretired.first() {
                if finish > now {
                    break;
                }
                unretired.pop_first();
                let d = done[slot].as_ref().expect("dispatched before it retires");
                let worker = report.completions[slot].worker;
                trace::span("runtime.scheduler.observe", stream[slot].id, || {
                    scheduler.observe(worker, &d.module, d.bucket, d.freq, d.cycles)
                });
            }
            let chosen = trace::span("runtime.scheduler.choose", id, || {
                scheduler.choose(g, &groups[g], &module, now)
            });
            let w = served.worker;
            if chosen != w {
                return Err(format!(
                    "request {id}: replayed scheduler chose worker {chosen}, the serve chose {w}"
                ));
            }
            let outcome = trace::span("runtime.scheduler.commit", id, || {
                scheduler.commit(w, &module, request.arrival)
            });

            let worker = &mut workers[w];
            let spec = module.key.spec;
            trace::span("workloads.fill", id, || {
                fill_inputs(&mut worker.machine.mem, &spec, &module.layout, request.seed)
            })
            .map_err(|e| format!("request {id}: input fill failed: {e}"))?;
            if !elide {
                worker.resident.clear();
            }
            let (program, emitted) = trace::span("runtime.plan.delta", id, || {
                module.plan.delta_program(&mut worker.resident)
            });
            let (start, ran, freq) = trace::span("sim.run", id, || {
                let start = worker.clock.max(request.arrival);
                worker.machine.accel.note_idle(start - worker.clock);
                let ran = worker.machine.run(&program, pool.fuel);
                let freq = worker.machine.accel.last_launch_state();
                if let Ok(c) = &ran {
                    worker.clock = start + c.cycles;
                    worker.machine.accel.reset_clock(c.cycles);
                }
                (start, ran, freq)
            });
            let c = ran.map_err(|e| format!("request {id}: simulation failed: {e}"))?;
            trace::span("workloads.check", id, || {
                check_result(&worker.machine.mem, &spec, &module.layout)
            })
            .map_err(|e| format!("request {id}: functional check failed: {e}"))?;
            if c != served.counters || emitted != served.emitted_writes || freq != served.freq {
                return Err(format!(
                    "request {id}: replayed dispatch differs from the serve's completion"
                ));
            }

            counts.fill_bytes += (spec.m * spec.k + spec.k * spec.n) as u64;
            counts.check_macs += (spec.m * spec.n * spec.k) as u64;
            counts.insts += c.insts_total;
            counts.insts_config += c.insts_config;
            counts.cycles += c.cycles;
            counts.launches += c.launches;
            counts.contention_cycles += c.contention_cycles;
            counts.emitted_writes += emitted;
            counts.cold_writes += module.plan.cold_writes;
            unretired.insert((start + c.cycles, i));
            done[i] = Some(Dispatched {
                module,
                bucket: outcome.bucket,
                cycles: c.cycles,
                freq,
            });
            Ok(())
        })?;
    }
    Ok(())
}

/// The layer calls whose self time a serve is made of; whatever the
/// serve spends beyond their sum is the engine's residual.
const SERVE_LAYERS: [&str; 8] = [
    "runtime.cache.get_or_build",
    "runtime.scheduler.choose",
    "runtime.scheduler.commit",
    "runtime.scheduler.observe",
    "workloads.fill",
    "runtime.plan.delta",
    "sim.run",
    "workloads.check",
];

/// The traced run: per-layer metrics from a call-by-call replay of every
/// serve of a round, and the replay's own tracing overhead.
pub(crate) fn traced(w: &ServeWorkload, run: &Run) -> Result<Outcome, String> {
    let cfg = w.cfg();
    let pool = (w.pool)();
    let mut out = Outcome::default();
    trace::record(true);
    let (streams, mut runtime) = set_up(w, run.seed)?;
    // the replay resolves modules through its own cache, filled the way
    // the warm-up serve filled the runtime's
    let mut cache = ModuleCache::new();
    for request in one_per_class(&streams.concat()) {
        let base = &pool.groups[group_of(&pool, &request.accelerator)?].members[0];
        trace::span("runtime.cache.build", request.id, || {
            cache.get_or_build(base, request.spec, cfg.opt)
        })
        .map_err(|e| format!("module build failed: {e}"))?;
    }
    let setup_spans = trace::take();
    let setup = trace::totals(&setup_spans);
    out.spans = setup_spans;

    let mut rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut first_round = true;
    repeat_for(run.seconds, 1, || {
        let mut counts = ReplayCounts::default();
        let mut rejected = None;
        let (mut replay_s, mut untraced_s) = (0.0, 0.0);
        for stream in &streams {
            let report = trace::span("runtime.serve", 0, || {
                serve_counted(&mut runtime, stream, &cfg, &mut out)
            });
            let Some(report) = report else {
                return;
            };
            let (traced, cost) = measure(|| {
                trace::span("replay", 0, || {
                    replay(stream, &report, &pool, &cfg, &mut cache, &mut counts)
                })
            });
            replay_s += cost.wall;
            trace::record(false);
            let mut ignored = ReplayCounts::default();
            let (untraced, cost) =
                measure(|| replay(stream, &report, &pool, &cfg, &mut cache, &mut ignored));
            untraced_s += cost.wall;
            trace::record(true);
            trace::span("runtime.metrics.render", 0, || {
                black_box(report.metrics.to_json());
            });
            if let Err(e) = traced.and(untraced) {
                rejected.get_or_insert(e);
            }
        }
        let spans = trace::take();
        match rejected {
            Some(e) => out.violations.push(format!("replay rejected: {e}")),
            None => {
                let t = trace::totals(&spans);
                let get = |name: &str| t.get(name).copied().unwrap_or_default();
                let serve_s = get("runtime.serve").total_s;
                let layers_s: f64 = SERVE_LAYERS.iter().map(|l| get(l).self_s).sum();
                let sim_s = get("sim.run").self_s;
                let mut m = BTreeMap::new();
                m.insert("runtime.serve_s", serve_s);
                m.insert("runtime.engine.residual_s", serve_s - layers_s);
                m.insert("runtime.engine.residual_share", 1.0 - layers_s / serve_s);
                m.insert(
                    "runtime.metrics.render_s",
                    get("runtime.metrics.render").self_s,
                );
                m.insert("runtime.cache.hits", counts.cache_hits as f64);
                m.insert("workloads.fill.calls", get("workloads.fill").calls as f64);
                m.insert("workloads.fill.s", get("workloads.fill").self_s);
                m.insert("workloads.fill.bytes", counts.fill_bytes as f64);
                m.insert("workloads.check.calls", get("workloads.check").calls as f64);
                m.insert("workloads.check.s", get("workloads.check").self_s);
                m.insert("workloads.check.macs", counts.check_macs as f64);
                m.insert("sim.run.calls", get("sim.run").calls as f64);
                m.insert("sim.run.s", sim_s);
                m.insert("sim.insts", counts.insts as f64);
                m.insert("sim.insts_config", counts.insts_config as f64);
                m.insert("sim.cycles", counts.cycles as f64);
                m.insert("sim.launches", counts.launches as f64);
                m.insert("sim.contention_cycles", counts.contention_cycles as f64);
                m.insert("sim.minsts_per_s", counts.insts as f64 / (sim_s * 1e6));
                m.insert("runtime.plan.delta_s", get("runtime.plan.delta").self_s);
                m.insert("runtime.plan.emitted_writes", counts.emitted_writes as f64);
                m.insert("runtime.plan.cold_writes", counts.cold_writes as f64);
                m.insert(
                    "runtime.plan.elided_share",
                    1.0 - counts.emitted_writes as f64 / counts.cold_writes as f64,
                );
                let scheduler =
                    ["choose", "commit", "observe"].map(|c| get(&format!("runtime.scheduler.{c}")));
                m.insert(
                    "runtime.scheduler.calls",
                    scheduler.iter().map(|t| t.calls).sum::<u64>() as f64,
                );
                m.insert("runtime.scheduler.choose_s", scheduler[0].self_s);
                m.insert("runtime.scheduler.commit_s", scheduler[1].self_s);
                m.insert("runtime.scheduler.observe_s", scheduler[2].self_s);
                m.insert("trace.spans", spans.len() as f64);
                m.insert("trace.replay_s", replay_s);
                m.insert("trace.replay_untraced_s", untraced_s);
                m.insert("trace.overhead_share", replay_s / untraced_s - 1.0);
                rounds.push(m);
            }
        }
        if std::mem::take(&mut first_round) {
            crate::append_spans(&mut out.spans, spans);
        }
    });
    trace::record(false);
    out.per_round(&rounds);
    let build = setup
        .get("runtime.cache.build")
        .copied()
        .unwrap_or_default();
    out.metric(
        "workloads.traffic.gen_s",
        setup["workloads.traffic.gen"].total_s,
    );
    out.metric("runtime.cache.builds", build.calls as f64);
    out.metric("runtime.cache.build_s", build.total_s);
    Ok(out)
}

//! The `paper_sweep` workload: every Figure 10 point (`run_gemmini`, C
//! vs accfg) and every Figure 11 point (`run_opengemm`, Base vs All).
//! Each point is compiled, simulated on a fresh machine and checked
//! against the reference result. No scheduler, engine or thread runs.
//!
//! The points below the largest size are timed, sweep after sweep. The
//! largest-size points would take most of a sweep, and so leave a run
//! only a few samples of each point; they run once, untimed, after the
//! timed region, for their functional checks and the Figure 11 gate.

use crate::{measure, repeat_for, shuffled, summed, trace, Outcome, Run, Samples, SetUps};
use accfg::{pipeline, OptLevel};
use accfg_bench::{
    geomean, run_gemmini, run_opengemm, GemminiFlavor, Measurement, FIG10_SIZES, FIG11_SIZES,
};
use accfg_sim::{AccelSim, Counters, Machine};
use accfg_targets::{compile, AcceleratorDescriptor};
use accfg_workloads::{
    check_result, fill_inputs, gemmini_ws_ir, matmul_ir, MatmulLayout, MatmulSpec,
};
use std::collections::BTreeMap;
use std::panic::catch_unwind;

/// The Figure 11 geomean speedup `fig11_opengemm` computes (and prints
/// as x1.82). Any change to a Figure 11 point's simulated cycles moves
/// it by far more than the tolerance.
const FIG11_GEOMEAN: f64 = 1.8212814443263161;

/// Fewest timed sweeps a run makes.
const MIN_SWEEPS: usize = 2;

/// Points of this size run once, untimed.
const UNTIMED_SIZE: i64 = 512;

#[derive(Debug, Clone, Copy)]
enum Point {
    Fig10(i64, GemminiFlavor),
    Fig11(i64, OptLevel),
}

impl Point {
    fn timed(self) -> bool {
        let (Point::Fig10(size, _) | Point::Fig11(size, _)) = self;
        size < UNTIMED_SIZE
    }
}

/// Every point, in figure order.
fn points() -> Vec<Point> {
    let fig10 = FIG10_SIZES.iter().flat_map(|&s| {
        [GemminiFlavor::CBaseline, GemminiFlavor::Accfg].map(|f| Point::Fig10(s, f))
    });
    let fig11 = FIG11_SIZES
        .iter()
        .flat_map(|&s| [OptLevel::Base, OptLevel::All].map(|l| Point::Fig11(s, l)));
    fig10.chain(fig11).collect()
}

/// Runs one point through the public harness; a panic (failed check,
/// simulator or compile error) counts as a failed point.
fn measure_point(point: Point) -> Option<Measurement> {
    catch_unwind(|| match point {
        Point::Fig10(size, flavor) => run_gemmini(size, flavor),
        Point::Fig11(size, level) => run_opengemm(size, level),
    })
    .ok()
}

/// `All` over `Base` ops/cycle per Figure 11 size, geomean-reduced the way
/// `fig11_opengemm` reduces it.
fn fig11_geomean(points: &[Point], counters: &[Counters]) -> f64 {
    let perf = |size: i64, level: OptLevel| {
        let i = points
            .iter()
            .position(|p| matches!(p, Point::Fig11(s, l) if *s == size && *l == level))
            .expect("every Figure 11 point is swept");
        let spec = MatmulSpec::opengemm_paper(size).expect("paper size");
        counters[i].ops_per_cycle(spec.total_ops() as u64)
    };
    let speedups: Vec<f64> = FIG11_SIZES
        .iter()
        .map(|&s| perf(s, OptLevel::All) / perf(s, OptLevel::Base))
        .collect();
    geomean(&speedups)
}

fn check_fig11(points: &[Point], counters: &[Counters], out: &mut Outcome) -> f64 {
    let g = fig11_geomean(points, counters);
    // written so that a NaN (a failed point's zero cycles) fails too
    if !((g / FIG11_GEOMEAN - 1.0).abs() <= 1e-12) {
        out.violations.push(format!(
            "Figure 11 geomean speedup is x{g}, fig11_opengemm computes x{FIG11_GEOMEAN}"
        ));
    }
    g
}

/// Set-up: the point list in seed order, and one warm-up run of each
/// series' smallest point.
fn set_up(seed: u64) -> Result<Vec<Point>, String> {
    let points = shuffled(points(), seed);
    for warm in [
        Point::Fig10(FIG10_SIZES[0], GemminiFlavor::CBaseline),
        Point::Fig10(FIG10_SIZES[0], GemminiFlavor::Accfg),
        Point::Fig11(FIG11_SIZES[0], OptLevel::Base),
        Point::Fig11(FIG11_SIZES[0], OptLevel::All),
    ] {
        measure_point(warm).ok_or_else(|| format!("warm-up point {warm:?} failed"))?;
    }
    Ok(points)
}

/// Runs `point`, counting it as attempted and failed; a failed point
/// reads as default counters.
fn run_counted(point: Point, out: &mut Outcome) -> Counters {
    out.attempted += 1;
    match measure_point(point) {
        Some(m) => m.counters,
        None => {
            out.failed += 1;
            Counters::default()
        }
    }
}

/// The untraced run: sweeps the timed points until the time is up, then
/// runs the largest points once.
pub(crate) fn run(run: &Run) -> Result<Outcome, String> {
    let (mut setups, points) = SetUps::first(|| set_up(run.seed))?;
    let mut out = Outcome::default();
    let timed: Vec<usize> = (0..points.len()).filter(|&i| points[i].timed()).collect();
    let mut point_costs = vec![Samples::default(); timed.len()];
    let mut first: Option<Vec<Counters>> = None;
    let sweeps = repeat_for(run.seconds, MIN_SWEEPS, || {
        let mut counters = Vec::with_capacity(timed.len());
        for (k, &i) in timed.iter().enumerate() {
            let (c, cost) = measure(|| run_counted(points[i], &mut out));
            point_costs[k].push(cost);
            counters.push(c);
        }
        match &first {
            None => first = Some(counters),
            Some(expected) if *expected != counters => out
                .violations
                .push("two sweeps gave different simulated counters".into()),
            Some(_) => {}
        }
        if let Err(e) = setups.again() {
            out.violations.push(e);
        }
    });
    let setup_s = setups.best_s()?;
    // every point's counters: the timed points' from the first sweep,
    // the largest points' from their one untimed run
    let mut timed_counters = first.expect("at least one sweep").into_iter();
    let counters: Vec<Counters> = points
        .iter()
        .map(|&p| {
            if p.timed() {
                timed_counters.next().expect("one per timed point")
            } else {
                run_counted(p, &mut out)
            }
        })
        .collect();
    let fig11 = check_fig11(&points, &counters, &mut out);

    let sweep = summed(&point_costs, Samples::best);
    let n = timed.len() as f64;
    let insts: u64 = timed.iter().map(|&i| counters[i].insts_total).sum();
    out.metric("ops_per_s", n / sweep.wall);
    out.metric("ops_per_cpu_s", n / sweep.cpu);
    out.metric("setup_s", setup_s);
    out.metric(
        "config_ops",
        counters.iter().map(|c| c.insts_config).sum::<u64>() as f64,
    );
    out.note("sweeps_timed", sweeps as f64, "count");
    out.note("points_per_sweep", n, "count");
    out.note(
        "untimed_points",
        (points.len() - timed.len()) as f64,
        "count",
    );
    out.note(
        "sim_minsts_per_s",
        insts as f64 / (sweep.wall * 1e6),
        "Minst/s",
    );
    out.note("fig11_geomean_speedup", fig11, "ratio");
    Ok(out)
}

/// What one replayed point did, beyond its counters.
struct Replayed {
    counters: Counters,
    passes_changed: u64,
    fill_bytes: u64,
    macs: u64,
}

/// `accfg_bench::measure` one layer call at a time: IR generation, pass
/// pipeline, lowering, input fill, simulation and reference check, with
/// the same layout, fill seed and fuel.
fn replay_point(point: Point, id: u64) -> Result<Replayed, String> {
    let (desc, spec, mut module, level) = trace::span("ir.gen", id, || match point {
        Point::Fig10(size, flavor) => {
            let desc = AcceleratorDescriptor::gemmini();
            let spec = MatmulSpec::gemmini_paper(size).expect("paper size");
            let module = gemmini_ws_ir(&desc, &spec);
            let level = (flavor == GemminiFlavor::Accfg).then_some(OptLevel::Dedup);
            (desc, spec, module, level)
        }
        Point::Fig11(size, level) => {
            let desc = AcceleratorDescriptor::opengemm();
            let spec = MatmulSpec::opengemm_paper(size).expect("paper size");
            let module = matmul_ir(&desc, &spec);
            (desc, spec, module, Some(level))
        }
    });
    let mut passes_changed = 0;
    if let Some(level) = level {
        let stats = trace::span("core.pipeline", id, || {
            pipeline(level, desc.overlap_filter()).run(&mut module)
        })
        .map_err(|e| format!("{point:?}: pipeline failed: {e}"))?;
        passes_changed = stats.passes.iter().filter(|(_, c)| *c).count() as u64;
    }
    let layout = MatmulLayout::at(0x1000, &spec);
    let args = [layout.a_addr, layout.b_addr, layout.c_addr];
    let program = trace::span("targets.lower", id, || {
        compile(&module, "matmul", &desc, &args)
    })
    .map_err(|e| format!("{point:?}: lowering failed: {e}"))?;
    let mut machine = Machine::new(
        desc.host.clone(),
        AccelSim::new(desc.accel.clone()),
        layout.end as usize,
    );
    trace::span("workloads.fill", id, || {
        fill_inputs(&mut machine.mem, &spec, &layout, 0x5EED + spec.m as u64)
    })
    .map_err(|e| format!("{point:?}: input fill failed: {e}"))?;
    let counters = trace::span("sim.run", id, || machine.run(&program, 1_000_000_000))
        .map_err(|e| format!("{point:?}: simulation failed: {e}"))?;
    trace::span("workloads.check", id, || {
        check_result(&machine.mem, &spec, &layout)
    })
    .map_err(|e| format!("{point:?}: functional check failed: {e}"))?;
    Ok(Replayed {
        counters,
        passes_changed,
        fill_bytes: (spec.m * spec.k + spec.k * spec.n) as u64,
        macs: (spec.m * spec.n * spec.k) as u64,
    })
}

/// Replays a whole sweep; every point must reproduce the counters the
/// public harness measured for it.
fn replay_sweep(points: &[Point], reference: &[Counters]) -> Result<Vec<Replayed>, String> {
    let mut out = Vec::with_capacity(points.len());
    for (i, (&point, expected)) in points.iter().zip(reference).enumerate() {
        let r = trace::span("point", i as u64, || replay_point(point, i as u64))?;
        if r.counters != *expected {
            return Err(format!("{point:?}: replayed counters differ from run_*"));
        }
        out.push(r);
    }
    Ok(out)
}

/// The traced run: per-layer metrics from a call-by-call replay of the
/// sweep, checked against one sweep through the public harness.
pub(crate) fn traced(run: &Run) -> Result<Outcome, String> {
    let points = set_up(run.seed)?;
    let mut out = Outcome::default();
    let reference: Vec<Counters> = points.iter().map(|&p| run_counted(p, &mut out)).collect();
    let fig11 = check_fig11(&points, &reference, &mut out);

    let mut rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    repeat_for(run.seconds, 1, || {
        trace::record(true);
        let (replayed, traced_cost) = measure(|| replay_sweep(&points, &reference));
        let spans = trace::take();
        trace::record(false);
        let (untraced, untraced_cost) = measure(|| replay_sweep(&points, &reference));
        let (replay_s, untraced_s) = (traced_cost.wall, untraced_cost.wall);
        out.attempted += 2 * points.len() as u64;
        match untraced.and(replayed) {
            Err(e) => {
                out.violations.push(format!("replay rejected: {e}"));
            }
            Ok(replayed) => {
                let t = trace::totals(&spans);
                let get = |name: &str| t.get(name).copied().unwrap_or_default();
                let sum = |f: fn(&Replayed) -> u64| replayed.iter().map(f).sum::<u64>() as f64;
                let sim_s = get("sim.run").self_s;
                let mut m = BTreeMap::new();
                m.insert("ir.gen_s", get("ir.gen").self_s);
                m.insert("core.pipeline_s", get("core.pipeline").self_s);
                m.insert("core.pipeline.passes_changed", sum(|r| r.passes_changed));
                m.insert("targets.lower_s", get("targets.lower").self_s);
                m.insert("workloads.fill.calls", get("workloads.fill").calls as f64);
                m.insert("workloads.fill.s", get("workloads.fill").self_s);
                m.insert("workloads.fill.bytes", sum(|r| r.fill_bytes));
                m.insert("workloads.check.calls", get("workloads.check").calls as f64);
                m.insert("workloads.check.s", get("workloads.check").self_s);
                m.insert("workloads.check.macs", sum(|r| r.macs));
                m.insert("sim.run.calls", get("sim.run").calls as f64);
                m.insert("sim.run.s", sim_s);
                m.insert("sim.insts", sum(|r| r.counters.insts_total));
                m.insert("sim.insts_config", sum(|r| r.counters.insts_config));
                m.insert("sim.cycles", sum(|r| r.counters.cycles));
                m.insert("sim.launches", sum(|r| r.counters.launches));
                m.insert(
                    "sim.contention_cycles",
                    sum(|r| r.counters.contention_cycles),
                );
                m.insert(
                    "sim.minsts_per_s",
                    sum(|r| r.counters.insts_total) / (sim_s * 1e6),
                );
                m.insert("bench.fig11_geomean_speedup", fig11);
                m.insert("trace.spans", spans.len() as f64);
                m.insert("trace.replay_s", replay_s);
                m.insert("trace.replay_untraced_s", untraced_s);
                m.insert("trace.overhead_share", replay_s / untraced_s - 1.0);
                rounds.push(m);
                if out.spans.is_empty() {
                    out.spans = spans;
                }
            }
        }
    });
    out.per_round(&rounds);
    Ok(out)
}

//! The `compile_sweep` workload: every module of [`modules`], at every
//! `OptLevel`. Each (module, level) compilation goes through
//! `build_module` (the release serving path) when the module is a
//! serving matmul, then through the pass pipeline under per-pass
//! translation validation, and at `All` through `lint_module` and target
//! lowering. Nothing is simulated.

use crate::{measure, repeat_for, shuffled, summed, trace, Outcome, Run, Samples, SetUps};
use accfg::{interpret, pipeline, OptLevel};
use accfg_analyze::{lint_module, pass_validator};
use accfg_ir::Module;
use accfg_runtime::{build_module, DispatchPlan};
use accfg_sim::Program;
use accfg_targets::{compile, AcceleratorDescriptor};
use accfg_workloads::{
    gemmini_ws_ir, layer_sequence_ir, matmul_ir, mixed_platform_classes, mixed_serving_classes,
    shape_heavy_classes, single_invocation_ir, tiled_collapsed_ir, tiled_nested_ir, MatmulLayout,
    MatmulSpec,
};
use std::collections::BTreeMap;

/// Fewest timed sweeps a run makes.
const MIN_SWEEPS: usize = 3;

/// The interpreter fuel `build_module` derives dispatch plans with.
const PLAN_FUEL: u64 = 50_000_000;

/// One module of the sweep.
struct Entry {
    desc: AcceleratorDescriptor,
    module: Module,
    /// The serving spec, for modules `build_module` compiles
    /// (`matmul_ir` output).
    spec: Option<MatmulSpec>,
    func: &'static str,
    args: Vec<i64>,
}

impl Entry {
    fn matmul(
        desc: &AcceleratorDescriptor,
        spec: MatmulSpec,
        module: Module,
        serving: bool,
    ) -> Self {
        let layout = MatmulLayout::at(0x1000, &spec);
        Entry {
            desc: desc.clone(),
            module,
            spec: serving.then_some(spec),
            func: "matmul",
            args: vec![layout.a_addr, layout.b_addr, layout.c_addr],
        }
    }
}

fn descriptor(name: &str) -> AcceleratorDescriptor {
    match name {
        "gemmini" => AcceleratorDescriptor::gemmini(),
        "opengemm" => AcceleratorDescriptor::opengemm(),
        "gemmini-turbo" => AcceleratorDescriptor::gemmini_turbo(),
        "opengemm-lite" => AcceleratorDescriptor::opengemm_lite(),
        other => panic!("no descriptor named `{other}`"),
    }
}

/// The sweep's modules: for Gemmini and OpenGeMM, the untiled, collapsed
/// and nested tilings of two paper sizes, one single-invocation module
/// and one three-layer sequence; Gemmini's weight-stationary module; and
/// one matmul per distinct class of the serving traffic mixes.
fn modules() -> Vec<Entry> {
    let mut out = Vec::new();
    for name in ["gemmini", "opengemm"] {
        let desc = descriptor(name);
        let paper = |size| {
            if name == "gemmini" {
                MatmulSpec::gemmini_paper(size).expect("paper size")
            } else {
                MatmulSpec::opengemm_paper(size).expect("paper size")
            }
        };
        let sizes = if name == "gemmini" {
            [64, 128]
        } else {
            [32, 64]
        };
        for size in sizes {
            let spec = paper(size);
            out.push(Entry::matmul(&desc, spec, matmul_ir(&desc, &spec), true));
            out.push(Entry::matmul(
                &desc,
                spec,
                tiled_collapsed_ir(&desc, &spec),
                false,
            ));
            out.push(Entry::matmul(
                &desc,
                spec,
                tiled_nested_ir(&desc, &spec),
                false,
            ));
        }
        let single = paper(if name == "gemmini" { 32 } else { 8 });
        out.push(Entry::matmul(
            &desc,
            single,
            single_invocation_ir(&desc, &single),
            false,
        ));
        let layers: Vec<(MatmulSpec, MatmulLayout)> = (0..3)
            .map(|i| (single, MatmulLayout::at(i * 0x10_0000, &single)))
            .collect();
        out.push(Entry {
            desc: desc.clone(),
            module: layer_sequence_ir(&desc, &layers),
            spec: None,
            func: "layers",
            args: Vec::new(),
        });
    }
    let gemmini = descriptor("gemmini");
    let ws = MatmulSpec::gemmini_paper(128).expect("paper size");
    out.push(Entry::matmul(
        &gemmini,
        ws,
        gemmini_ws_ir(&gemmini, &ws),
        false,
    ));
    let mut seen = Vec::new();
    for class in mixed_serving_classes()
        .into_iter()
        .chain(shape_heavy_classes())
        .chain(mixed_platform_classes())
    {
        let key = (class.accelerator.clone(), class.spec);
        if class.weight == 0 || seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let desc = descriptor(&class.accelerator);
        out.push(Entry::matmul(
            &desc,
            class.spec,
            matmul_ir(&desc, &class.spec),
            true,
        ));
    }
    out
}

/// One (module, level) compilation.
#[derive(Clone, Copy)]
struct Op {
    entry: usize,
    level: OptLevel,
}

/// What one compilation produced.
#[derive(Debug, Clone, PartialEq)]
struct Compiled {
    /// `build_module`'s program and plan, for serving modules.
    built: Option<(Program, DispatchPlan)>,
    passes_changed: u64,
    /// At `All`: the lint's static configuration writes and the lowered
    /// program's length.
    static_writes: u64,
    static_insts: u64,
}

/// Compiles one op through the public APIs. `Err` is a failed operation:
/// a build error, a validation rejection or a lint finding.
fn compile_op(entry: &Entry, level: OptLevel, id: u64) -> Result<Compiled, String> {
    compile_with(entry, level, id, |spec| {
        let m = build_module(&entry.desc, spec, level).map_err(|e| e.to_string())?;
        Ok((m.program, m.plan))
    })
}

/// One op, with `build` standing in for `build_module` on serving
/// modules.
fn compile_with(
    entry: &Entry,
    level: OptLevel,
    id: u64,
    build: impl FnOnce(MatmulSpec) -> Result<(Program, DispatchPlan), String>,
) -> Result<Compiled, String> {
    let built = entry.spec.map(build).transpose()?;
    let (opt, passes_changed) = validated_pipeline(entry, level, id)?;
    let mut out = Compiled {
        built,
        passes_changed,
        static_writes: 0,
        static_insts: 0,
    };
    if level == OptLevel::All {
        (out.static_writes, out.static_insts) = lint_and_lower(entry, &opt, &out.built, id)?;
    }
    Ok(out)
}

/// The pass pipeline over a copy of the raw module with every pass
/// translation-validated; returns the output and how many passes
/// changed the IR.
fn validated_pipeline(entry: &Entry, level: OptLevel, id: u64) -> Result<(Module, u64), String> {
    let mut module = entry.module.clone();
    let mut pm = pipeline(level, entry.desc.overlap_filter());
    let validate = pass_validator();
    pm.validate_each(move |before, after, pass| {
        trace::span("analyze.validate", id, || validate(before, after, pass))
    });
    let stats =
        trace::span("core.pipeline", id, || pm.run(&mut module)).map_err(|e| e.to_string())?;
    let changed = stats.passes.iter().filter(|(_, changed)| *changed).count() as u64;
    Ok((module, changed))
}

/// Lints the `All` output (any finding fails the op) and returns its
/// static configuration writes and lowered length.
fn lint_and_lower(
    entry: &Entry,
    opt: &Module,
    built: &Option<(Program, DispatchPlan)>,
    id: u64,
) -> Result<(u64, u64), String> {
    let report = trace::span("analyze.lint", id, || lint_module(opt));
    if let Some(site) = report.sites.first() {
        return Err(format!("lint finding: {site}"));
    }
    let insts = match built {
        Some((program, _)) => program.len(),
        None => trace::span("targets.lower", id, || {
            compile(opt, entry.func, &entry.desc, &entry.args)
        })
        .map_err(|e| e.to_string())?
        .len(),
    };
    Ok((report.static_writes, insts as u64))
}

/// Every op in seed order; set-up also generates every module's IR.
fn set_up(seed: u64) -> Result<(Vec<Entry>, Vec<Op>), String> {
    let entries = modules();
    let ops = (0..entries.len())
        .flat_map(|entry| OptLevel::ALL_LEVELS.map(|level| Op { entry, level }))
        .collect();
    Ok((entries, shuffled(ops, seed)))
}

/// The untraced run: sweeps until the time is up.
pub(crate) fn run(run: &Run) -> Result<Outcome, String> {
    let (mut setups, (entries, ops)) = SetUps::first(|| set_up(run.seed))?;
    let mut out = Outcome::default();
    let mut op_costs = vec![Samples::default(); ops.len()];
    let mut first: Option<Vec<Option<Compiled>>> = None;
    let sweeps = repeat_for(run.seconds, MIN_SWEEPS, || {
        let mut results = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            out.attempted += 1;
            let (result, cost) = measure(|| compile_op(&entries[op.entry], op.level, i as u64));
            op_costs[i].push(cost);
            if let Err(e) = &result {
                out.failed += 1;
                if first.is_none() {
                    out.violations.push(format!("op {i}: {e}"));
                }
            }
            results.push(result.ok());
        }
        match &first {
            None => first = Some(results),
            Some(expected) if *expected != results => out
                .violations
                .push("two sweeps compiled different output".into()),
            Some(_) => {}
        }
        if let Err(e) = setups.again() {
            out.violations.push(e);
        }
    });
    let setup_s = setups.best_s()?;
    let results = first.expect("at least one sweep");
    let sum = |f: fn(&Compiled) -> u64| results.iter().flatten().map(f).sum::<u64>() as f64;
    let sweep = summed(&op_costs, Samples::best);
    let n = ops.len() as f64;
    out.metric("ops_per_s", n / sweep.wall);
    out.metric("ops_per_cpu_s", n / sweep.cpu);
    out.metric("setup_s", setup_s);
    out.metric("config_ops", sum(|c| c.static_writes));
    out.note("sweeps_timed", sweeps as f64, "count");
    out.note("modules", entries.len() as f64, "count");
    out.note("ops_per_sweep", n, "count");
    out.note("static_setup_writes", sum(|c| c.static_writes), "count");
    out.note("static_insts", sum(|c| c.static_insts), "count");
    Ok(out)
}

/// `build_module` one layer call at a time: IR generation, the release
/// pass pipeline, lowering, interpretation and plan extraction. The
/// replayed op must compile to what [`compile_op`] compiled.
fn replay_build(
    entry: &Entry,
    spec: MatmulSpec,
    level: OptLevel,
    id: u64,
) -> Result<(Program, DispatchPlan), String> {
    trace::span("runtime.cache.build", id, || {
        let mut module = trace::span("ir.gen", id, || matmul_ir(&entry.desc, &spec));
        trace::span("core.pipeline", id, || {
            pipeline(level, entry.desc.overlap_filter()).run(&mut module)
        })
        .map_err(|e| e.to_string())?;
        let program = trace::span("targets.lower", id, || {
            compile(&module, entry.func, &entry.desc, &entry.args)
        })
        .map_err(|e| e.to_string())?;
        let exec = trace::span("core.interp", id, || {
            interpret(&module, entry.func, &entry.args, PLAN_FUEL)
        })
        .map_err(|e| e.to_string())?;
        let plan = trace::span("runtime.plan.from_trace", id, || {
            DispatchPlan::from_trace(&exec, &entry.desc)
        })
        .map_err(|e| e.to_string())?;
        Ok((program, plan))
    })
}

fn replay_sweep(
    entries: &[Entry],
    ops: &[Op],
    reference: &[Compiled],
) -> Result<Vec<Compiled>, String> {
    let mut out = Vec::with_capacity(ops.len());
    for (i, (op, expected)) in ops.iter().zip(reference).enumerate() {
        let id = i as u64;
        let entry = &entries[op.entry];
        let r = trace::span("op", id, || {
            compile_with(entry, op.level, id, |spec| {
                replay_build(entry, spec, op.level, id)
            })
        })?;
        if r != *expected {
            return Err(format!(
                "op {i}: replayed compilation differs from build_module"
            ));
        }
        out.push(r);
    }
    Ok(out)
}

/// The traced run: per-layer metrics from a call-by-call replay of the
/// sweep, checked against one sweep through the public APIs.
pub(crate) fn traced(run: &Run) -> Result<Outcome, String> {
    let (entries, ops) = set_up(run.seed)?;
    let mut out = Outcome::default();
    let mut reference = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        out.attempted += 1;
        match compile_op(&entries[op.entry], op.level, i as u64) {
            Ok(c) => reference.push(c),
            Err(e) => {
                out.failed += 1;
                out.violations.push(format!("op {i}: {e}"));
                return Ok(out);
            }
        }
    }
    let mut rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    repeat_for(run.seconds, 1, || {
        trace::record(true);
        let (replayed, traced_cost) = measure(|| replay_sweep(&entries, &ops, &reference));
        let spans = trace::take();
        trace::record(false);
        let (untraced, untraced_cost) = measure(|| replay_sweep(&entries, &ops, &reference));
        let (replay_s, untraced_s) = (traced_cost.wall, untraced_cost.wall);
        out.attempted += 2 * ops.len() as u64;
        match untraced.and(replayed) {
            Err(e) => out.violations.push(format!("replay rejected: {e}")),
            Ok(replayed) => {
                let t = trace::totals(&spans);
                let get = |name: &str| t.get(name).copied().unwrap_or_default();
                let sum = |f: fn(&Compiled) -> u64| replayed.iter().map(f).sum::<u64>() as f64;
                let build = get("runtime.cache.build");
                let mut m = BTreeMap::new();
                m.insert("ir.gen_s", get("ir.gen").self_s);
                m.insert("core.pipeline_s", get("core.pipeline").self_s);
                m.insert("core.pipeline.passes_changed", sum(|c| c.passes_changed));
                m.insert("core.interp_s", get("core.interp").self_s);
                m.insert("analyze.validate_s", get("analyze.validate").self_s);
                m.insert("analyze.lint_s", get("analyze.lint").self_s);
                m.insert("analyze.static_writes", sum(|c| c.static_writes));
                m.insert("targets.lower_s", get("targets.lower").self_s);
                m.insert("targets.static_insts", sum(|c| c.static_insts));
                m.insert(
                    "runtime.plan.from_trace_s",
                    get("runtime.plan.from_trace").self_s,
                );
                m.insert("runtime.cache.builds", build.calls as f64);
                m.insert("runtime.cache.build_s", build.total_s);
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

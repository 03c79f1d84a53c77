//! Traced per-layer passes: `perfbench-trace <setup|measure> --workload W
//! --seed N --dir D [--seconds S]`.
//!
//! Each `measure` iteration runs the workload twice: once untraced
//! through `run_spec` (the reference outcomes and the overhead
//! baseline), and once as a traced replay of the engine's public calls
//! (see [`replay`]). It checks that the replay reproduces the untraced
//! run job for job, with the same counters and artifact bytes, and
//! prints one JSON line with every iteration's layer metrics.

mod recorder;
mod replay;
mod seams;

// qccd-lint: allow(vendored-only) — the benchmark package's own library, kept out of the workspace by design
use perfbench::{
    digest_file, engine_for, json_f64, main_with, remove_dir, workload_pass, Args, Workload,
};
use qccd::engine::{
    merge_spec, ArtifactSink, ExperimentSpec, JsonSink, ResultCache, RunStats, SpecRun,
    STAGE_SUBDIR,
};
use recorder::{Recorder, Trace};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Number and total size of the regular files under `dir`, recursively;
/// `(0, 0)` if it does not exist.
fn tree_size(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    let (mut files, mut bytes) = (0, 0);
    for entry in entries.flatten() {
        let Ok(meta) = entry.metadata() else { continue };
        if meta.is_dir() {
            let (f, b) = tree_size(&entry.path());
            files += f;
            bytes += b;
        } else if meta.is_file() {
            files += 1;
            bytes += meta.len();
        }
    }
    (files, bytes)
}

/// Files and bytes in a result cache directory.
#[derive(Debug, Clone, Copy, Default)]
struct CacheUsage {
    /// Result entries (files outside the stage directory).
    entries: (u64, u64),
    /// Stage files.
    stages: (u64, u64),
}

fn cache_usage(dir: Option<&Path>) -> CacheUsage {
    let Some(dir) = dir else {
        return CacheUsage::default();
    };
    let (files, bytes) = tree_size(dir);
    let stages = tree_size(&dir.join(STAGE_SUBDIR));
    CacheUsage {
        entries: (files - stages.0, bytes - stages.1),
        stages,
    }
}

fn stats_mismatch(a: &RunStats, b: &RunStats) -> Option<String> {
    let pairs = [
        ("jobs", a.jobs, b.jobs),
        ("executed", a.executed, b.executed),
        ("cached", a.cached, b.cached),
        ("compiles", a.compiles, b.compiles),
        ("parses", a.parses, b.parses),
    ];
    pairs
        .iter()
        .find(|(_, x, y)| x != y)
        .map(|(name, x, y)| format!("RunStats.{name}: replay {x}, run_spec {y}"))
}

/// Sum of counter `counter` over spans `name`, added in job order so
/// float totals repeat exactly whatever order the threads ran in.
fn ordered_sum(trace: &Trace, name: &str, counter: &str) -> f64 {
    let mut values: Vec<(Option<usize>, f64)> = trace
        .named(name)
        .map(|s| (s.request, s.counter(counter)))
        .collect();
    values.sort_by_key(|(request, _)| *request);
    values.iter().fold(0.0, |acc, (_, v)| acc + v)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One iteration's results.
struct Iteration {
    untraced_wall_s: f64,
    traced_wall_s: f64,
    digest: String,
    checked: usize,
    failures: Vec<String>,
    layers: Vec<(&'static str, f64)>,
}

impl Iteration {
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"untraced_wall_s\": {}, \"traced_wall_s\": {}, \"digest\": \"{}\", \
             \"checked\": {}, \"failures\": [",
            json_f64(self.untraced_wall_s),
            json_f64(self.traced_wall_s),
            self.digest,
            self.checked,
        );
        for (i, f) in self.failures.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{}\"", f.replace(['"', '\\'], "'"));
        }
        out.push_str("], \"layers\": {");
        for (i, (name, value)) in self.layers.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{name}\": {}", json_f64(*value));
        }
        out.push_str("}}");
        out
    }
}

/// Runs `f` and returns its wall seconds with its result.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// Repetitions of the projection probe; each part takes its minimum.
const PROBE_REPS: usize = 10;

/// Times the projection as the remainder of `merge_spec` after its
/// expand and load children, each timed through the same public call,
/// on a cache that holds every outcome of the grid. Projection is small
/// next to its siblings, so each part takes the minimum of
/// [`PROBE_REPS`] repetitions, which shrugs off one-sided host noise;
/// the remainder is left unclamped so its median over iterations stays
/// unbiased.
fn project_probe(spec: &ExperimentSpec, cache_dir: &Path) -> Result<(f64, SpecRun), String> {
    let cache = ResultCache::open(cache_dir).map_err(|e| e.to_string())?;
    let engine = engine_for(Some(cache_dir.to_path_buf()));
    let (mut expand_s, mut load_s, mut merge_s) = (f64::MAX, f64::MAX, f64::MAX);
    let mut merged = None;
    for _ in 0..PROBE_REPS {
        let (t, grid) = timed(|| spec.expand());
        let grid = grid.map_err(|e| e.to_string())?;
        expand_s = expand_s.min(t);
        let (t, loaded) = timed(|| {
            grid.jobs()
                .iter()
                .filter(|j| cache.load(&j.id).is_some())
                .count()
        });
        load_s = load_s.min(t);
        if loaded != grid.job_count() {
            return Err(format!(
                "probe cache holds {loaded} of {} jobs",
                grid.job_count()
            ));
        }
        let (t, run) = timed(|| merge_spec(spec, &engine));
        merge_s = merge_s.min(t);
        merged = Some(run.map_err(|e| e.to_string())?);
    }
    let merged = merged.expect("PROBE_REPS is positive");
    Ok((merge_s - expand_s - load_s, merged))
}

fn iteration(args: &Args, spec: &ExperimentSpec, workers: f64) -> Result<Iteration, String> {
    let dirs = &args.dirs;
    let (pass, run) = workload_pass(args.workload, spec, dirs)?;

    let cache_dir: Option<PathBuf> = match args.workload {
        Workload::Fig8Cold => None,
        Workload::A5PolicyFreshCache => {
            let dir = dirs.scratch("traced");
            remove_dir(&dir).map_err(|e| e.to_string())?;
            Some(dir)
        }
        Workload::Fig8WarmCache => Some(dirs.warm_cache()),
    };
    let before = cache_usage(cache_dir.as_deref());

    let rec = Recorder::new();
    let grid = rec
        .span("spec.expand", None, None, |_| spec.expand())
        .map_err(|e| e.to_string())?;
    let replayed = rec.span("engine.run", None, None, |run_span| {
        replay::replay(&rec, run_span, &grid, cache_dir.as_deref())
    })?;
    let after = cache_usage(cache_dir.as_deref());

    // Projection is internal to `run_spec`/`merge_spec`; it is measured
    // off the traced pass, through `merge_spec` on a complete cache.
    let probe_dir = match &cache_dir {
        Some(dir) => dir.clone(),
        None => {
            let dir = dirs.scratch("probe");
            remove_dir(&dir).map_err(|e| e.to_string())?;
            let cache = ResultCache::open(&dir).map_err(|e| e.to_string())?;
            for (job, outcome) in grid.jobs().iter().zip(&replayed.outcomes) {
                cache.store(&job.id, outcome);
            }
            dir
        }
    };
    let (project_s, merged) = project_probe(spec, &probe_dir)?;

    let artifact = dirs.scratch("traced-artifact.json");
    rec.span("sink.write", None, None, |_| {
        JsonSink::new(&artifact).emit(&merged.artifact)
    })
    .map_err(|e| e.to_string())?;
    let (digest, sink_bytes) = digest_file(&artifact)?;

    // Layer probes outside the pass: the public calls `expand` makes.
    for circuit in &spec.circuits {
        rec.span("circuit.build", None, None, |_| circuit.resolve())
            .map_err(|e| e.to_string())?;
    }
    for device in &spec.devices {
        rec.span("device.expand", None, None, |_| {
            device.expand(&spec.capacities)
        })
        .map_err(|e| e.to_string())?;
    }

    let mut failures = Vec::new();
    let expected = run.results.job_outcomes();
    if replayed.outcomes.len() != expected.len() {
        failures.push(format!(
            "replay has {} outcomes, run_spec {}",
            replayed.outcomes.len(),
            expected.len()
        ));
    }
    for (i, (a, b)) in replayed.outcomes.iter().zip(expected).enumerate() {
        let id = grid.jobs()[i].id.as_str();
        if a != b {
            failures.push(format!("job {id}: replay outcome differs from run_spec"));
        } else if let Err(e) = a {
            failures.push(format!("job {id} failed: {e}"));
        }
    }
    failures.extend(stats_mismatch(&replayed.stats, &run.stats));
    if digest != pass.digest {
        failures.push(format!(
            "traced artifact digest {digest} != untraced {}",
            pass.digest
        ));
    }

    let trace = Trace {
        spans: rec.into_spans(),
    };
    let spans_file = dirs.scratch("spans.json");
    std::fs::write(&spans_file, trace.to_chrome_json())
        .map_err(|e| format!("{}: {e}", spans_file.display()))?;
    let facts = PassFacts {
        workers,
        project_s,
        cache_before: before,
        cache_after: after,
        sink_bytes,
    };
    Ok(Iteration {
        untraced_wall_s: pass.wall_s,
        // The untraced pass also projects; add the probe's estimate so
        // the two walls cover the same work.
        traced_wall_s: trace.seconds("spec.expand")
            + trace.seconds("engine.run")
            + project_s
            + trace.seconds("sink.write"),
        digest: pass.digest,
        // One check per job, plus outcome count, counters and digest.
        checked: expected.len() + 3,
        failures,
        layers: layer_metrics(&trace, &replayed.stats, &facts),
    })
}

/// What a traced pass measured outside its spans.
struct PassFacts {
    /// Worker threads `parallel_map` runs on.
    workers: f64,
    /// The projection probe's remainder, in seconds.
    project_s: f64,
    /// [`cache_usage`] before the replay.
    cache_before: CacheUsage,
    /// [`cache_usage`] after the replay.
    cache_after: CacheUsage,
    /// Bytes the sink wrote.
    sink_bytes: u64,
}

/// The per-layer metrics of one traced pass, by name.
fn layer_metrics(trace: &Trace, stats: &RunStats, facts: &PassFacts) -> Vec<(&'static str, f64)> {
    let seam = |c: &str| trace.counter("compiler.compile", c);
    let compile_s = trace.seconds("compiler.compile");
    let seams_s = seam("map_s") + seam("route_s") + seam("reorder_s") + seam("evict_s");
    let sim_s = trace.seconds("sim.simulate");
    let sim_insts = trace.counter("sim.simulate", "insts");
    let run_s = trace.seconds("engine.run");
    let loads = trace.calls("cache.load");
    let (before, after) = (facts.cache_before, facts.cache_after);
    let grown = |a: u64, b: u64| a.saturating_sub(b) as f64;
    vec![
        ("spec.expand_s", trace.seconds("spec.expand")),
        ("circuit.build_s", trace.seconds("circuit.build")),
        ("device.expand_s", trace.seconds("device.expand")),
        ("compiler.compile_s", compile_s),
        ("compiler.compiles", trace.calls("compiler.compile")),
        ("compiler.map_s", seam("map_s")),
        ("compiler.route_s", seam("route_s")),
        ("compiler.route_calls", seam("route_calls")),
        ("compiler.reorder_s", seam("reorder_s")),
        ("compiler.reorder_calls", seam("reorder_calls")),
        ("compiler.evict_s", seam("evict_s")),
        ("compiler.evict_calls", seam("evict_calls")),
        ("compiler.schedule_self_s", compile_s - seams_s),
        ("compiler.insts_out", seam("insts_out")),
        (
            "compiler.placement_hit_ratio",
            ratio(
                stats.placement_hits as f64,
                (stats.placement_hits + stats.placement_misses) as f64,
            ),
        ),
        (
            "compiler.route_hit_ratio",
            ratio(
                stats.route_hits as f64,
                (stats.route_hits + stats.route_misses) as f64,
            ),
        ),
        ("sim.simulate_s", sim_s),
        ("sim.insts", sim_insts),
        ("sim.ns_per_inst", ratio(sim_s * 1e9, sim_insts)),
        (
            "sim.shuttle_moves",
            trace.counter("sim.simulate", "shuttle_moves"),
        ),
        (
            "sim.simulated_s",
            ordered_sum(trace, "sim.simulate", "simulated_s"),
        ),
        ("engine.run_s", run_s),
        ("engine.batches", trace.calls("engine.batch")),
        (
            "engine.parallel_efficiency",
            ratio(trace.seconds("engine.group"), run_s * facts.workers),
        ),
        ("engine.project_s", facts.project_s),
        ("cache.store_s", trace.seconds("cache.store")),
        ("cache.stores", trace.calls("cache.store")),
        (
            "cache.store_bytes",
            grown(after.entries.1, before.entries.1),
        ),
        ("cache.load_s", trace.seconds("cache.load")),
        ("cache.loads", loads),
        ("cache.hit_ratio", ratio(stats.cached as f64, loads)),
        ("cache.stage_files", grown(after.stages.0, before.stages.0)),
        ("cache.stage_bytes", grown(after.stages.1, before.stages.1)),
        ("sink.write_s", trace.seconds("sink.write")),
        ("sink.bytes", facts.sink_bytes as f64),
    ]
}

fn measure(args: &Args) -> Result<(), String> {
    let spec = args.spec()?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let iterations = args.repeat(|| iteration(args, &spec, workers))?;
    let records: Vec<String> = iterations.iter().map(Iteration::to_json).collect();
    println!(
        "{{\"iterations\": [{}], \"nproc\": {workers}}}",
        records.join(", ")
    );
    Ok(())
}

fn main() {
    main_with(measure);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-layer names `BENCHMARK.json` declares, read with a plain
    /// scan so the test needs no JSON parser.
    fn declared_per_layer() -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = &text[text.find("\"per_layer\"").expect("a per_layer section")..];
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closing quote")].to_owned())
            .collect()
    }

    #[test]
    fn emitted_layer_metrics_are_exactly_the_declared_ones() {
        let trace = Trace { spans: Vec::new() };
        let facts = PassFacts {
            workers: 2.0,
            project_s: 0.0,
            cache_before: CacheUsage::default(),
            cache_after: CacheUsage::default(),
            sink_bytes: 0,
        };
        let mut emitted: Vec<String> = layer_metrics(&trace, &RunStats::default(), &facts)
            .iter()
            .map(|(name, _)| (*name).to_owned())
            .collect();
        // Computed by run.py from the pass walls this binary reports.
        emitted.push("trace.overhead_ratio".to_owned());
        let mut declared = declared_per_layer();
        emitted.sort();
        declared.sort();
        assert_eq!(emitted, declared);
        for name in &emitted {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
    }
}

//! A traced replay of `Engine::run`.
//!
//! The replay makes the public calls the engine makes, in the same
//! order: cache loads, then per batch of `DEFAULT_BATCH_SIZE` pending
//! jobs, compile groups run through `parallel_map`, each compiling once
//! with its device's stage memo and simulating every member, then the
//! batch's cache stores. A span wraps every call, with the job index as
//! the request id.

use crate::recorder::{Recorder, SpanId};
use crate::seams::{timed_pipeline, SeamStats};
use qccd::compiler::{CompileMemo, CompileMemoRef, StagePersist};
use qccd::engine::{
    JobGrid, JobOutcome, ResultCache, RunStats, StageCache, DEFAULT_BATCH_SIZE, STAGE_SUBDIR,
};
use qccd::sweep::parallel_map;
use qccd::{Toolflow, ToolflowError};
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// What the replay produced: the engine's outcomes and counters.
pub struct Replayed {
    /// Per-job outcomes, in grid job order.
    pub outcomes: Vec<JobOutcome>,
    /// The counters `Engine::run` would report.
    pub stats: RunStats,
}

/// Groups `batch` by `(circuit, device, config)` in first-appearance
/// order, as the engine does: `(first member, members)` per group.
fn group_by_compile_key(batch: &[usize], grid: &JobGrid) -> Vec<(usize, Vec<usize>)> {
    let (nd, ncfg) = (grid.devices().len(), grid.configs().len());
    let mut group_of: Vec<Option<usize>> = vec![None; (grid.circuits().len() * nd * ncfg).max(1)];
    let mut order: Vec<(usize, Vec<usize>)> = Vec::new();
    for &ji in batch {
        let job = &grid.jobs()[ji];
        let key = (job.circuit * nd + job.device) * ncfg + job.config;
        match group_of[key] {
            None => {
                group_of[key] = Some(order.len());
                order.push((ji, vec![ji]));
            }
            Some(g) => order[g].1.push(ji),
        }
    }
    order
}

/// Replays `Engine::run` over `grid` under span `parent`, caching into
/// `cache_dir` when given.
///
/// # Errors
///
/// Returns a message if the cache or stage directory cannot be opened
/// (the engine would fall back to running uncached, which would make
/// the replay diverge from the run it is compared with).
pub fn replay(
    rec: &Recorder,
    parent: SpanId,
    grid: &JobGrid,
    cache_dir: Option<&Path>,
) -> Result<Replayed, String> {
    let jobs = grid.jobs();
    let cache = match cache_dir {
        Some(dir) => Some(ResultCache::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?),
        None => None,
    };
    let mut outcomes: Vec<Option<JobOutcome>> = vec![None; jobs.len()];
    let mut stats = RunStats {
        jobs: jobs.len(),
        parses: grid.parses(),
        ..RunStats::default()
    };
    if let Some(cache) = &cache {
        for (i, job) in jobs.iter().enumerate() {
            if let Some(outcome) =
                rec.span("cache.load", Some(parent), Some(i), |_| cache.load(&job.id))
            {
                outcomes[i] = Some(outcome);
                stats.cached += 1;
            }
        }
    }
    let pending: Vec<usize> = (0..jobs.len()).filter(|&i| outcomes[i].is_none()).collect();

    let persist: Option<Arc<dyn StagePersist>> = match &cache {
        Some(cache) => {
            let dir = cache.dir().join(STAGE_SUBDIR);
            let stages = StageCache::open(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            Some(Arc::new(stages))
        }
        None => None,
    };
    let memos: Vec<OnceLock<CompileMemo<'_>>> =
        (0..grid.devices().len()).map(|_| OnceLock::new()).collect();

    for batch in pending.chunks(DEFAULT_BATCH_SIZE) {
        rec.span("engine.batch", Some(parent), None, |batch_span| {
            let order = group_by_compile_key(batch, grid);
            stats.compiles += order.len();
            let results: Vec<Vec<(usize, JobOutcome)>> =
                parallel_map(&order, |(first, members)| {
                    rec.span("engine.group", Some(batch_span), Some(*first), |group| {
                        run_group(rec, group, grid, &memos, &persist, *first, members)
                    })
                });
            for (ji, outcome) in results.into_iter().flatten() {
                if let Some(cache) = &cache {
                    rec.span("cache.store", Some(batch_span), Some(ji), |_| {
                        cache.store(&jobs[ji].id, &outcome);
                    });
                }
                stats.executed += 1;
                outcomes[ji] = Some(outcome);
            }
            stats.batches += 1;
        });
    }

    for memo in memos.iter().filter_map(OnceLock::get) {
        let counters = memo.counters();
        stats.placement_hits += counters.placement_hits;
        stats.placement_misses += counters.placement_misses;
        stats.route_hits += counters.route_hits;
        stats.route_misses += counters.route_misses;
    }
    let outcomes = outcomes
        .into_iter()
        .map(|o| o.expect("every job is loaded or executed"))
        .collect();
    Ok(Replayed { outcomes, stats })
}

/// Compiles one group's executable once and simulates every member.
fn run_group<'g>(
    rec: &Recorder,
    group: SpanId,
    grid: &'g JobGrid,
    memos: &[OnceLock<CompileMemo<'g>>],
    persist: &Option<Arc<dyn StagePersist>>,
    first: usize,
    members: &[usize],
) -> Vec<(usize, JobOutcome)> {
    let jobs = grid.jobs();
    let lead = &jobs[first];
    let circuit = &grid.circuits()[lead.circuit];
    let device = &grid.devices()[lead.device];
    let config = grid.configs()[lead.config];
    let memo =
        memos[lead.device].get_or_init(|| CompileMemo::with_persist(device, persist.clone()));

    let seams = Arc::new(SeamStats::default());
    let (compile_span, compiled) = rec.span("compiler.compile", Some(group), Some(first), |span| {
        let memo = CompileMemoRef::new(memo, grid.circuit_digest(lead.circuit));
        let out = timed_pipeline(&config, &seams)
            .compile_with(circuit, device, Some(memo))
            .map_err(|e| ToolflowError::from(e).to_string());
        (span, out)
    });
    for (name, value) in [
        ("map_s", seams.map.seconds()),
        ("route_s", seams.route.seconds()),
        ("route_calls", seams.route.calls()),
        ("reorder_s", seams.reorder.seconds()),
        ("reorder_calls", seams.reorder.calls()),
        ("evict_s", seams.evict.seconds()),
        ("evict_calls", seams.evict.calls()),
    ] {
        rec.count(compile_span, name, value);
    }
    let exe = match compiled {
        Err(e) => return members.iter().map(|&ji| (ji, Err(e.clone()))).collect(),
        Ok(exe) => exe,
    };
    rec.count(compile_span, "insts_out", exe.len() as f64);

    members
        .iter()
        .map(|&ji| {
            let toolflow =
                Toolflow::with_config(device.clone(), grid.models()[jobs[ji].model], config);
            let (sim_span, outcome) = rec.span("sim.simulate", Some(group), Some(ji), |span| {
                (span, toolflow.simulate(&exe).map_err(|e| e.to_string()))
            });
            rec.count(sim_span, "insts", exe.len() as f64);
            if let Ok(report) = &outcome {
                rec.count(sim_span, "shuttle_moves", report.counts.moves as f64);
                rec.count(sim_span, "simulated_s", report.total_time_s());
            }
            (ji, outcome)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd::engine::{run_spec, Engine, EngineOptions, ExperimentSpec};
    use qccd::experiments::QUICK_CAPACITIES;

    fn replay_matches_run_spec(cache: Option<&Path>) {
        let spec = ExperimentSpec::fig6(&QUICK_CAPACITIES);
        let engine = Engine::with_options(EngineOptions {
            cache_dir: cache.map(|d| d.join("engine")),
            ..EngineOptions::default()
        });
        let run = run_spec(&spec, &engine).unwrap();
        let rec = Recorder::new();
        let grid = spec.expand().unwrap();
        let replay_dir = cache.map(|d| d.join("replay"));
        let replayed = rec
            .span("engine.run", None, None, |root| {
                replay(&rec, root, &grid, replay_dir.as_deref())
            })
            .unwrap();
        assert_eq!(replayed.outcomes, run.results.job_outcomes());
        assert_eq!(crate::stats_mismatch(&replayed.stats, &run.stats), None);
        // Which racing worker computes a stage first varies from run to
        // run, so only the stage totals are exact.
        let (a, b) = (&replayed.stats, &run.stats);
        assert_eq!(
            a.placement_hits + a.placement_misses,
            b.placement_hits + b.placement_misses
        );
        assert_eq!(a.route_hits + a.route_misses, b.route_hits + b.route_misses);
        let spans = rec.into_spans();
        let simulated = spans.iter().filter(|s| s.name == "sim.simulate").count();
        assert_eq!(simulated, run.stats.executed);
        let compiled = spans
            .iter()
            .filter(|s| s.name == "compiler.compile")
            .count();
        assert_eq!(compiled, run.stats.compiles);
    }

    #[test]
    fn replay_outcomes_and_counters_equal_run_spec_uncached() {
        replay_matches_run_spec(None);
    }

    #[test]
    fn replay_outcomes_and_counters_equal_run_spec_with_a_fresh_cache() {
        let dir = std::env::temp_dir().join(format!("perfbench-replay-{}", std::process::id()));
        replay_matches_run_spec(Some(&dir));
        perfbench::remove_dir(&dir).unwrap();
    }
}

//! Timing wrappers for the compiler's four policy seams.
//!
//! Each wrapper delegates to the built-in policy the config names and
//! reports that policy's `name()`, so stage-memo keys and compiled
//! output are unchanged; it adds the call's duration and count to a
//! shared [`SeamStats`]. The seams do not nest (the scheduler routes an
//! evicted ion after `pick` returns), so their times add up.

use qccd::circuit::Circuit;
use qccd::compiler::policy::{Eviction, EvictionQuery, RouteQuery};
use qccd::compiler::{
    CompileError, CompilerConfig, EvictionPolicy, Inst, MachineState, MappingPolicy, Pipeline,
    Placement, ReorderPolicy, RoutingPolicy,
};
use qccd::device::{Device, IonId, Route, Side, TrapId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Accumulated time and calls of one seam.
#[derive(Debug, Default)]
pub struct Seam {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Seam {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        // Relaxed: these are statistics, read after the compile returns.
        self.ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Total seconds spent in the seam.
    pub fn seconds(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Calls made to the seam.
    pub fn calls(&self) -> f64 {
        self.calls.load(Ordering::Relaxed) as f64
    }
}

/// Per-compile statistics of the four seams.
#[derive(Debug, Default)]
pub struct SeamStats {
    /// `MappingPolicy::place`.
    pub map: Seam,
    /// `RoutingPolicy::next_route`.
    pub route: Seam,
    /// `ReorderPolicy::bring_to_end`.
    pub reorder: Seam,
    /// `EvictionPolicy::pick`.
    pub evict: Seam,
}

struct Timed<P: ?Sized> {
    inner: Box<P>,
    stats: Arc<SeamStats>,
}

impl MappingPolicy for Timed<dyn MappingPolicy> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(
        &self,
        circuit: &Circuit,
        device: &Device,
        buffer_slots: u32,
    ) -> Result<Placement, CompileError> {
        self.stats
            .map
            .time(|| self.inner.place(circuit, device, buffer_slots))
    }
}

impl RoutingPolicy for Timed<dyn RoutingPolicy> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_route(&self, query: &RouteQuery<'_>) -> Result<Route, CompileError> {
        self.stats.route.time(|| self.inner.next_route(query))
    }
}

impl ReorderPolicy for Timed<dyn ReorderPolicy> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn bring_to_end(
        &self,
        state: &mut MachineState,
        out: &mut Vec<Inst>,
        ion: IonId,
        trap: TrapId,
        side: Side,
    ) {
        self.stats
            .reorder
            .time(|| self.inner.bring_to_end(state, out, ion, trap, side));
    }
}

impl EvictionPolicy for Timed<dyn EvictionPolicy> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&self, query: &EvictionQuery<'_>) -> Result<Eviction, CompileError> {
        self.stats.evict.time(|| self.inner.pick(query))
    }
}

/// The pipeline `config` names, with every seam timed into `stats`.
pub fn timed_pipeline(config: &CompilerConfig, stats: &Arc<SeamStats>) -> Pipeline {
    let stats = Arc::clone(stats);
    Pipeline::new(
        Box::new(Timed {
            inner: config.mapping.policy(),
            stats: Arc::clone(&stats),
        }),
        Box::new(Timed {
            inner: config.routing.policy(),
            stats: Arc::clone(&stats),
        }),
        Box::new(Timed {
            inner: config.reorder.policy(),
            stats: Arc::clone(&stats),
        }),
        Box::new(Timed {
            inner: config.eviction.policy(),
            stats,
        }),
        config.buffer_slots,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd::circuit::generators::Benchmark;
    use qccd::device::presets;

    #[test]
    fn timed_pipeline_compiles_bit_identically_and_names_the_inner_policies() {
        let device = presets::l6(16);
        let circuit = Benchmark::Qft.build();
        for config in qccd::sweep::policy_grid(2) {
            let stats = Arc::new(SeamStats::default());
            let timed = timed_pipeline(&config, &stats);
            let plain = Pipeline::from_config(&config);
            assert_eq!(timed.describe(), plain.describe());
            assert_eq!(
                timed.compile(&circuit, &device).unwrap(),
                plain.compile(&circuit, &device).unwrap(),
                "{}",
                plain.describe()
            );
            assert_eq!(stats.map.calls(), 1.0);
            assert!(stats.route.calls() > 0.0);
        }
    }
}

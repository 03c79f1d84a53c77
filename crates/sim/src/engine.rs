//! The resource-timeline simulation engine: [`evaluate`] runs one
//! physical model over a lowered [`SimTape`].

use crate::error::SimError;
use crate::report::{ErrorTotals, SimReport, TimeBreakdown};
use crate::spans::SpanSet;
use crate::tape::{lower, OpKind, SimTape};
use qccd_compiler::Executable;
use qccd_device::Device;
use qccd_physics::PhysicalModel;

/// Simulates `exe` on `device` under `model`, producing timing, fidelity
/// and device-level metrics: [`lower`] followed by [`evaluate`].
///
/// # Errors
///
/// Returns a [`SimError`] if the executable is inconsistent with the
/// device (unknown ids) or internally malformed (split of a non-end ion,
/// gate on in-flight ions, …). [`qccd_compiler::compile()`] is designed
/// to emit executables that pass these checks for the device it compiled
/// against, but the simulator re-validates every stream: hand-authored
/// executables, device/executable mismatches, or compiler bugs all
/// surface here rather than as silent corruption. Each [`SimError`]
/// variant has a negative-path unit test pinning the condition that
/// raises it.
pub fn simulate(
    exe: &Executable,
    device: &Device,
    model: &PhysicalModel,
) -> Result<SimReport, SimError> {
    Ok(evaluate(&lower(exe, device)?, model))
}

/// Runs `model` over a lowered executable. Cannot fail: every check
/// happened in [`lower`].
pub fn evaluate(tape: &SimTape, model: &PhysicalModel) -> SimReport {
    let run = schedule(tape, model);
    let (compute_us, communication_us) = SpanSet::decompose(run.gate_spans, run.comm_spans);
    SimReport {
        name: tape.name.clone(),
        total_time_us: run.makespan,
        log_fidelity: run.log_fidelity,
        counts: tape.counts,
        peak_motional_energy: run.trap_peak.iter().copied().fold(0.0, f64::max),
        trap_peak_energy: run.trap_peak,
        trap_final_energy: run.trap_energy,
        ms_executions: run.ms_executions,
        ms_background_error_sum: run.ms_background_sum,
        ms_motional_error_sum: run.ms_motional_sum,
        errors: run.errors,
        time: TimeBreakdown {
            compute_us,
            communication_us,
            gate_busy_us: run.gate_busy,
            shuttle_busy_us: run.shuttle_busy,
            shuttle_wait_us: run.shuttle_wait,
        },
    }
}

/// The gate and shuttle intervals that [`evaluate`] decomposes into
/// compute and communication time (see [`SpanSet::decompose`]).
pub fn spans_of(tape: &SimTape, model: &PhysicalModel) -> (SpanSet, SpanSet) {
    let run = schedule(tape, model);
    (run.gate_spans, run.comm_spans)
}

/// The accumulated state after list-scheduling a whole tape.
struct Schedule {
    trap_energy: Vec<f64>,
    trap_peak: Vec<f64>,
    log_fidelity: f64,
    errors: ErrorTotals,
    ms_executions: usize,
    ms_background_sum: f64,
    ms_motional_sum: f64,
    gate_spans: SpanSet,
    comm_spans: SpanSet,
    gate_busy: f64,
    shuttle_busy: f64,
    shuttle_wait: f64,
    makespan: f64,
    /// `(instruction index, start, end)` of every executed move, for
    /// the no-double-booking property test.
    #[cfg(test)]
    move_log: Vec<(usize, f64, f64)>,
}

/// What folding one operation's error into the log-fidelity does:
/// clamped, `-inf` on certain failure, `ln_1p` form otherwise. A charge
/// depends only on the error, so one computed per model (or per SWAP)
/// is applied as often as the error recurs.
#[derive(Clone, Copy)]
enum Charge {
    Add(f64),
    Fail,
}

impl Charge {
    fn of(err: f64) -> Charge {
        let err = err.clamp(0.0, 1.0);
        if err >= 1.0 {
            Charge::Fail
        } else {
            Charge::Add((1.0 - err).ln_1p_workaround())
        }
    }

    fn apply(self, log_fidelity: &mut f64) {
        match self {
            Charge::Add(term) => *log_fidelity += term,
            Charge::Fail => *log_fidelity = f64::NEG_INFINITY,
        }
    }
}

/// List-schedules every op of `tape` under `model`: each op starts as
/// soon as its ion(s), trap and path resources are free.
fn schedule(tape: &SimTape, model: &PhysicalModel) -> Schedule {
    let heating = &model.heating;
    let fidelity = &model.fidelity;
    let one_qubit = Charge::of(fidelity.one_qubit_error);
    let measure = Charge::of(fidelity.measure_error);
    let mut ion_ready = vec![0.0f64; tape.num_ions];
    let mut trap_ready = vec![0.0f64; tape.num_traps];
    let mut path_ready = vec![0.0f64; tape.num_resources];
    let mut flight_energy = vec![0.0f64; tape.num_ions];
    let mut run = Schedule {
        trap_energy: vec![0.0; tape.num_traps],
        trap_peak: vec![0.0; tape.num_traps],
        log_fidelity: 0.0,
        errors: ErrorTotals::default(),
        ms_executions: 0,
        ms_background_sum: 0.0,
        ms_motional_sum: 0.0,
        gate_spans: SpanSet::new(),
        comm_spans: SpanSet::new(),
        gate_busy: 0.0,
        shuttle_busy: 0.0,
        shuttle_wait: 0.0,
        makespan: 0.0,
        #[cfg(test)]
        move_log: Vec::new(),
    };
    // Sets a trap's energy after an op left `len` ions in it, tracking
    // the per-mode peak n̄ = E/N.
    let bump = |run: &mut Schedule, trap: usize, energy: f64, len: u32| {
        run.trap_energy[trap] = energy;
        let nbar = energy / f64::from(len.max(1));
        if nbar > run.trap_peak[trap] {
            run.trap_peak[trap] = nbar;
        }
    };
    let mut moves = 0usize;
    for i in 0..tape.kind.len() {
        let a = tape.ion_a[i] as usize;
        let b = tape.ion_b[i] as usize;
        let trap = tape.trap[i] as usize;
        let len = tape.chain_len[i];
        match tape.kind[i] {
            OpKind::OneQubit | OpKind::Measure => {
                let (tau, err, charge, class) = if tape.kind[i] == OpKind::OneQubit {
                    let class = &mut run.errors.one_qubit;
                    (
                        model.one_qubit_time,
                        fidelity.one_qubit_error,
                        one_qubit,
                        class,
                    )
                } else {
                    let class = &mut run.errors.measure;
                    (model.measure_time, fidelity.measure_error, measure, class)
                };
                let start = ion_ready[a].max(trap_ready[trap]);
                let end = start + tau;
                ion_ready[a] = end;
                trap_ready[trap] = end;
                charge.apply(&mut run.log_fidelity);
                *class += err;
                run.gate_spans.add(start, end);
                run.gate_busy += end - start;
                run.makespan = run.makespan.max(end);
            }
            OpKind::Ms | OpKind::SwapGate => {
                let start = ion_ready[a].max(ion_ready[b]).max(trap_ready[trap]);
                // One MS interaction; a SWAP repeats it 3 times (the
                // trap's energy does not change in between) and adds
                // the 4 single-qubit corrections (§IV-C).
                let tau_ms = model.two_qubit_time(tape.distance[i], len);
                let nbar = run.trap_energy[trap] / f64::from(len.max(1));
                let breakdown = fidelity.two_qubit_error(tau_ms, len, nbar);
                let err_ms = breakdown.total();
                let charge_ms = Charge::of(err_ms);
                let interact = |run: &mut Schedule| {
                    run.ms_executions += 1;
                    run.ms_background_sum += breakdown.background;
                    run.ms_motional_sum += breakdown.motional;
                    charge_ms.apply(&mut run.log_fidelity);
                };
                let tau = if tape.kind[i] == OpKind::Ms {
                    interact(&mut run);
                    run.errors.two_qubit += err_ms;
                    tau_ms
                } else {
                    let (mut tau, mut err) = (0.0, 0.0);
                    for _ in 0..3 {
                        interact(&mut run);
                        tau += tau_ms;
                        err += err_ms;
                    }
                    for _ in 0..qccd_compiler::lowering::WRAPPERS_PER_CX {
                        tau += model.one_qubit_time;
                        one_qubit.apply(&mut run.log_fidelity);
                        err += fidelity.one_qubit_error;
                    }
                    run.errors.swap += err;
                    tau
                };
                let end = start + tau;
                ion_ready[a] = end;
                ion_ready[b] = end;
                trap_ready[trap] = end;
                run.gate_spans.add(start, end);
                run.gate_busy += end - start;
                run.makespan = run.makespan.max(end);
            }
            OpKind::IonSwap => {
                let (tau, energy) = if len > 2 {
                    // Split the pair off, rotate it, merge it back.
                    let (pair, rest) = heating.split(run.trap_energy[trap], 2, len - 2);
                    let pair = pair + heating.k1; // rotation agitation
                    (
                        model.shuttle.ion_swap_time(),
                        heating.merge(pair, rest, len),
                    )
                } else {
                    (
                        model.shuttle.ion_rotation,
                        run.trap_energy[trap] + heating.k1,
                    )
                };
                let start = ion_ready[a].max(ion_ready[b]).max(trap_ready[trap]);
                let end = start + tau;
                ion_ready[a] = end;
                ion_ready[b] = end;
                trap_ready[trap] = end;
                bump(&mut run, trap, energy, len);
                run.comm_spans.add(start, end);
                run.shuttle_busy += end - start;
                run.makespan = run.makespan.max(end);
            }
            OpKind::Split => {
                let start = ion_ready[a].max(trap_ready[trap]);
                let end = start + model.shuttle.split;
                let (e_ion, e_rest) = if len > 1 {
                    heating.split(run.trap_energy[trap], 1, len - 1)
                } else {
                    // Splitting the last ion empties the trap.
                    (run.trap_energy[trap] + heating.k1, 0.0)
                };
                flight_energy[a] = e_ion;
                bump(&mut run, trap, e_rest, len - 1);
                ion_ready[a] = end;
                trap_ready[trap] = end;
                run.comm_spans.add(start, end);
                run.shuttle_busy += end - start;
                run.makespan = run.makespan.max(end);
            }
            OpKind::Move => {
                let units = tape.move_units[moves];
                let (y, x) = (tape.move_y[moves], tape.move_x[moves]);
                let path = &tape.path
                    [tape.path_start[moves] as usize..tape.path_start[moves + 1] as usize];
                moves += 1;
                let tau = model.shuttle.move_time(units, y, x);
                let resource_ready = path
                    .iter()
                    .fold(0.0f64, |t, &r| t.max(path_ready[r as usize]));
                let ready = ion_ready[a];
                let start = ready.max(resource_ready);
                run.shuttle_wait += (resource_ready - ready).max(0.0);
                let end = start + tau;
                for &r in path {
                    path_ready[r as usize] = end;
                }
                #[cfg(test)]
                run.move_log.push((i, start, end));
                flight_energy[a] += heating.move_energy(units, y + x);
                ion_ready[a] = end;
                run.comm_spans.add(start, end);
                run.shuttle_busy += end - start;
                run.makespan = run.makespan.max(end);
            }
            OpKind::Merge => {
                let start = ion_ready[a].max(trap_ready[trap]);
                let end = start + model.shuttle.merge;
                let merged = heating.merge(run.trap_energy[trap], flight_energy[a], len + 1);
                flight_energy[a] = 0.0;
                bump(&mut run, trap, merged, len + 1);
                ion_ready[a] = end;
                trap_ready[trap] = end;
                run.comm_spans.add(start, end);
                run.shuttle_busy += end - start;
                run.makespan = run.makespan.max(end);
            }
        }
    }
    run
}

/// `ln(1 - e)` helper with the accuracy-preserving form for tiny errors.
trait Ln1pWorkaround {
    fn ln_1p_workaround(self) -> f64;
}

impl Ln1pWorkaround for f64 {
    /// `self` is already `1 - err`; use `ln_1p(-err)` for small errors to
    /// avoid catastrophic cancellation.
    fn ln_1p_workaround(self) -> f64 {
        let err = 1.0 - self;
        (-err).ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qccd_circuit::{generators, Circuit, Qubit};
    use qccd_compiler::Inst;
    use qccd_compiler::{
        compile, CompilerConfig, EvictionKind, MappingKind, ReorderMethod, RoutingKind,
    };
    use qccd_device::{presets, IonId, Side, TrapId};
    use qccd_physics::GateImpl;

    fn run(
        circuit: &Circuit,
        device: &Device,
        model: &PhysicalModel,
        config: &CompilerConfig,
    ) -> SimReport {
        let exe = compile(circuit, device, config).expect("compiles");
        simulate(&exe, device, model).expect("simulates")
    }

    #[test]
    fn bell_pair_timing_is_exact() {
        // h(5) + ry(5) + ms(100, FM floor) + rx/rx/ry(15) + 2 serial
        // measures (200) = 325 µs.
        let mut c = Circuit::new("bell", 2);
        c.h(Qubit(0));
        c.cx(Qubit(0), Qubit(1));
        c.measure_all();
        let r = run(
            &c,
            &presets::l6(20),
            &PhysicalModel::default(),
            &CompilerConfig::default(),
        );
        assert!(
            (r.total_time_us - 325.0).abs() < 1e-9,
            "got {}",
            r.total_time_us
        );
        assert!(r.fidelity() > 0.99);
        assert_eq!(r.peak_motional_energy, 0.0);
    }

    #[test]
    fn parallel_traps_overlap_in_time() {
        // Two independent gate pairs in different traps: makespan should be
        // far below the serial sum.
        let mut c = Circuit::new("par", 40);
        for i in 0..40 {
            c.h(Qubit(i));
        }
        let r = run(
            &c,
            &presets::l6(12),
            &PhysicalModel::default(),
            &CompilerConfig::default(),
        );
        // 40 H gates of 5 µs over 4 occupied traps: ≥ 10 gates serial per
        // trap → exactly 50 µs if evenly spread.
        assert!(r.total_time_us < 40.0 * 5.0);
        assert!(r.total_time_us >= 50.0 - 1e-9);
    }

    #[test]
    fn cross_trap_gate_heats_chains() {
        let mut c = Circuit::new("x", 40);
        for i in 0..40 {
            c.h(Qubit(i));
        }
        c.cx(Qubit(0), Qubit(39));
        let r = run(
            &c,
            &presets::l6(12),
            &PhysicalModel::default(),
            &CompilerConfig::default(),
        );
        assert!(r.peak_motional_energy > 0.0);
        assert!(r.counts.splits > 0);
        assert!(r.time.shuttle_busy_us > 0.0);
    }

    #[test]
    fn is_reordering_heats_more_than_gs() {
        let mut c = Circuit::new("x", 40);
        for i in 0..40 {
            c.h(Qubit(i));
        }
        c.cx(Qubit(39), Qubit(0));
        let d = presets::l6(12);
        let m = PhysicalModel::default();
        let gs = run(
            &c,
            &d,
            &m,
            &CompilerConfig::with_reorder(ReorderMethod::GateSwap),
        );
        let is = run(
            &c,
            &d,
            &m,
            &CompilerConfig::with_reorder(ReorderMethod::IonSwap),
        );
        assert!(
            is.peak_motional_energy > gs.peak_motional_energy,
            "IS {} vs GS {}",
            is.peak_motional_energy,
            gs.peak_motional_energy
        );
    }

    #[test]
    fn congestion_produces_wait_time() {
        // Many long-range gates force shuttles through the same linear
        // segments; some must queue.
        let c = generators::random_circuit(40, 120, 0.8, 9);
        let r = run(
            &c,
            &presets::l6(12),
            &PhysicalModel::default(),
            &CompilerConfig::default(),
        );
        assert!(r.time.shuttle_wait_us >= 0.0);
        // With 96 two-qubit gates on 4+ traps there is essentially always
        // contention; allow zero but record the metric exists.
        assert!(r.time.shuttle_busy_us > 0.0);
    }

    #[test]
    fn faster_gate_impl_reduces_makespan_for_short_range() {
        let c = generators::qaoa(30, 2, 3);
        let d = presets::l6(10);
        let cfg = CompilerConfig::default();
        let am2 = run(&c, &d, &PhysicalModel::with_gate(GateImpl::Am2), &cfg);
        let pm = run(&c, &d, &PhysicalModel::with_gate(GateImpl::Pm), &cfg);
        assert!(am2.total_time_us < pm.total_time_us);
    }

    #[test]
    fn fidelity_decomposition_matches_log_fidelity() {
        let c = generators::random_circuit(20, 100, 0.3, 4);
        let r = run(
            &c,
            &presets::l6(10),
            &PhysicalModel::default(),
            &CompilerConfig::default(),
        );
        // Σ per-class errors should approximate −log fidelity for small
        // errors.
        let total_err = r.errors.total();
        assert!(
            (total_err + r.log_fidelity).abs() < 0.05 * total_err.max(1e-9) + 1e-6,
            "errors {total_err} vs -logF {}",
            -r.log_fidelity
        );
    }

    #[test]
    fn compute_plus_comm_bounded_by_makespan() {
        let c = generators::random_circuit(30, 200, 0.5, 5);
        let r = run(
            &c,
            &presets::g2x3(10),
            &PhysicalModel::default(),
            &CompilerConfig::default(),
        );
        assert!(r.time.compute_us + r.time.communication_us <= r.total_time_us + 1e-6);
        assert!(r.time.compute_us > 0.0);
    }

    #[test]
    fn simulation_is_deterministic() {
        let c = generators::random_circuit(24, 150, 0.4, 6);
        let d = presets::g2x3(10);
        let exe = compile(&c, &d, &CompilerConfig::default()).unwrap();
        let a = simulate(&exe, &d, &PhysicalModel::default()).unwrap();
        let b = simulate(&exe, &d, &PhysicalModel::default()).unwrap();
        assert_eq!(a, b);
    }

    /// Every float of `r`, as bits, so equality is bit-exact.
    fn float_bits(r: &SimReport) -> Vec<u64> {
        let t = &r.time;
        let e = &r.errors;
        [
            r.total_time_us,
            r.log_fidelity,
            r.peak_motional_energy,
            r.ms_background_error_sum,
            r.ms_motional_error_sum,
            e.one_qubit,
            e.two_qubit,
            e.swap,
            e.measure,
            t.compute_us,
            t.communication_us,
            t.gate_busy_us,
            t.shuttle_busy_us,
            t.shuttle_wait_us,
        ]
        .iter()
        .chain(&r.trap_peak_energy)
        .chain(&r.trap_final_energy)
        .map(|x| x.to_bits())
        .collect()
    }

    #[test]
    fn one_tape_evaluates_like_independent_simulations() {
        // g2x3 routes through junctions; IS reordering adds ion swaps.
        let circuit = generators::random_circuit(30, 240, 0.5, 11);
        for device in [presets::l6(10), presets::g2x3(10)] {
            for reorder in ReorderMethod::ALL {
                let config = CompilerConfig::with_reorder(reorder);
                let exe = compile(&circuit, &device, &config).expect("compiles");
                let tape = lower(&exe, &device).expect("lowers");
                if device.junction_count() > 0 {
                    assert!(tape.counts.junction_crossings > 0);
                }
                for gate in GateImpl::ALL {
                    let model = PhysicalModel::with_gate(gate);
                    let shared = evaluate(&tape, &model);
                    let direct = simulate(&exe, &device, &model).expect("simulates");
                    assert_eq!(shared, direct, "{} {}", device.name(), gate.name());
                    assert_eq!(float_bits(&shared), float_bits(&direct));
                }
            }
        }
    }

    #[test]
    fn malformed_split_is_rejected() {
        // Hand-build an executable splitting a mid-chain ion.
        let exe = Executable::new(
            "bad".into(),
            3,
            vec![
                vec![IonId(0), IonId(1), IonId(2)],
                vec![],
                vec![],
                vec![],
                vec![],
                vec![],
            ],
            vec![Inst::Split {
                ion: IonId(1),
                trap: TrapId(0),
                side: Side::Right,
            }],
            vec![0, 1, 2],
        );
        let d = presets::l6(10);
        let err = simulate(&exe, &d, &PhysicalModel::default()).unwrap_err();
        assert!(matches!(err, SimError::SplitNotAtEnd(..)));
    }

    #[test]
    fn gate_on_separated_ions_is_rejected() {
        let exe = Executable::new(
            "bad".into(),
            2,
            vec![
                vec![IonId(0)],
                vec![IonId(1)],
                vec![],
                vec![],
                vec![],
                vec![],
            ],
            vec![Inst::Ms {
                a: IonId(0),
                b: IonId(1),
            }],
            vec![0, 1],
        );
        let d = presets::l6(10);
        let err = simulate(&exe, &d, &PhysicalModel::default()).unwrap_err();
        assert_eq!(err, SimError::NotColocated(IonId(0), IonId(1)));
    }

    #[test]
    fn mismatched_device_is_rejected() {
        let mut c = Circuit::new("t", 4);
        c.cx(Qubit(0), Qubit(3));
        let d6 = presets::l6(10);
        let exe = compile(&c, &d6, &CompilerConfig::default()).unwrap();
        let d2 = presets::linear(2, 10, 4);
        assert!(simulate(&exe, &d2, &PhysicalModel::default()).is_err());
    }

    // ------------------------------------------------------------------
    // Negative paths: every SimError variant has a pinned raising
    // condition.
    // ------------------------------------------------------------------

    /// A hand-built (usually malformed) executable on `num_ions` ions.
    fn exe_on(num_ions: u32, chains: Vec<Vec<IonId>>, insts: Vec<Inst>) -> Executable {
        let final_map = (0..num_ions).collect();
        Executable::new("bad".into(), num_ions, chains, insts, final_map)
    }

    /// All ions in trap 0 of a 6-trap device.
    fn chains_in_trap0(num_ions: u32) -> Vec<Vec<IonId>> {
        let mut chains = vec![vec![]; 6];
        chains[0] = (0..num_ions).map(IonId).collect();
        chains
    }

    /// The simulator must reject `exe` on the L6 device with exactly
    /// `want`.
    fn assert_rejects(exe: &Executable, want: SimError) {
        let d = presets::l6(10);
        assert_eq!(
            simulate(exe, &d, &PhysicalModel::default()).unwrap_err(),
            want
        );
    }

    #[test]
    fn unknown_trap_when_chain_table_mismatches_device() {
        // 4 chains against the 6-trap L6 device.
        let exe = exe_on(1, vec![vec![IonId(0)], vec![], vec![], vec![]], vec![]);
        assert_rejects(&exe, SimError::UnknownTrap(TrapId(3)));
    }

    #[test]
    fn unknown_trap_when_split_names_a_missing_trap() {
        let exe = exe_on(
            1,
            chains_in_trap0(1),
            vec![Inst::Split {
                ion: IonId(0),
                trap: TrapId(99),
                side: Side::Right,
            }],
        );
        assert_rejects(&exe, SimError::UnknownTrap(TrapId(99)));
    }

    #[test]
    fn unknown_ion_when_chain_exceeds_ion_count() {
        let mut chains = chains_in_trap0(2);
        chains[1] = vec![IonId(7)]; // only ions 0..2 exist
        let exe = exe_on(2, chains, vec![]);
        assert_rejects(&exe, SimError::UnknownIon(IonId(7)));
    }

    #[test]
    fn unknown_ion_when_chains_repeat_an_ion() {
        let mut chains = chains_in_trap0(2);
        chains[1] = vec![IonId(1)]; // ion 1 already placed in trap 0
        let exe = exe_on(2, chains, vec![]);
        assert_rejects(&exe, SimError::UnknownIon(IonId(1)));
    }

    #[test]
    fn unknown_ion_when_instruction_names_a_missing_ion() {
        let exe = exe_on(1, chains_in_trap0(1), vec![Inst::Measure { ion: IonId(3) }]);
        assert_rejects(&exe, SimError::UnknownIon(IonId(3)));
    }

    #[test]
    fn ion_in_flight_when_gating_a_split_ion() {
        // Split ion 1 off, then gate it without merging it first.
        let exe = exe_on(
            2,
            chains_in_trap0(2),
            vec![
                Inst::Split {
                    ion: IonId(1),
                    trap: TrapId(0),
                    side: Side::Right,
                },
                Inst::OneQubit {
                    gate: qccd_circuit::OneQubitGate::H,
                    ion: IonId(1),
                },
            ],
        );
        assert_rejects(&exe, SimError::IonInFlight(IonId(1)));
    }

    #[test]
    fn not_colocated_when_ms_spans_traps() {
        let mut chains = chains_in_trap0(1);
        chains[1] = vec![IonId(1)];
        let exe = exe_on(
            2,
            chains,
            vec![Inst::Ms {
                a: IonId(0),
                b: IonId(1),
            }],
        );
        assert_rejects(&exe, SimError::NotColocated(IonId(0), IonId(1)));
    }

    #[test]
    fn not_adjacent_when_ion_swap_skips_a_neighbour() {
        // Chain [0, 1, 2]: swapping 0 and 2 crosses ion 1.
        let exe = exe_on(
            3,
            chains_in_trap0(3),
            vec![Inst::IonSwap {
                a: IonId(0),
                b: IonId(2),
            }],
        );
        assert_rejects(&exe, SimError::NotAdjacent(IonId(0), IonId(2)));
    }

    #[test]
    fn split_not_at_end_for_a_mid_chain_ion() {
        let exe = exe_on(
            3,
            chains_in_trap0(3),
            vec![Inst::Split {
                ion: IonId(1),
                trap: TrapId(0),
                side: Side::Right,
            }],
        );
        assert_rejects(&exe, SimError::SplitNotAtEnd(IonId(1), TrapId(0)));
    }

    #[test]
    fn split_not_at_end_when_trap_disagrees_with_placement() {
        // Ion 0 ends trap 0's chain, but the split names trap 1.
        let exe = exe_on(
            1,
            chains_in_trap0(1),
            vec![Inst::Split {
                ion: IonId(0),
                trap: TrapId(1),
                side: Side::Right,
            }],
        );
        assert_rejects(&exe, SimError::SplitNotAtEnd(IonId(0), TrapId(1)));
    }

    #[test]
    fn ion_not_in_flight_when_merging_a_trapped_ion() {
        let exe = exe_on(
            2,
            chains_in_trap0(2),
            vec![Inst::Merge {
                ion: IonId(0),
                trap: TrapId(1),
                side: Side::Left,
            }],
        );
        assert_rejects(&exe, SimError::IonNotInFlight(IonId(0)));
    }

    #[test]
    fn ion_not_in_flight_when_moving_a_trapped_ion() {
        let d = presets::l6(10);
        let leg = d.route(TrapId(0), TrapId(1)).unwrap().legs()[0].clone();
        let exe = exe_on(
            1,
            chains_in_trap0(1),
            vec![Inst::Move { ion: IonId(0), leg }],
        );
        assert_rejects(&exe, SimError::IonNotInFlight(IonId(0)));
    }

    // ------------------------------------------------------------------
    // Resource exclusivity: no segment or junction is ever held by two
    // overlapping shuttle legs.
    // ------------------------------------------------------------------

    /// Simulates `exe` and asserts that the logged occupancy intervals of
    /// the legs crossing each segment and each junction never overlap.
    fn assert_no_double_booking(exe: &Executable, device: &Device) {
        let model = PhysicalModel::default();
        let engine = schedule(&lower(exe, device).expect("lowers"), &model);
        let moves = exe
            .instructions()
            .iter()
            .filter(|inst| matches!(inst, Inst::Move { .. }))
            .count();
        assert_eq!(engine.move_log.len(), moves, "every leg is logged once");

        let mut segments = vec![Vec::new(); device.segment_count()];
        let mut junctions = vec![Vec::new(); device.junction_count()];
        for &(i, start, end) in &engine.move_log {
            let Inst::Move { leg, .. } = &exe.instructions()[i] else {
                panic!("instruction {i} is logged as a move but is not one");
            };
            assert!(start <= end, "leg {i} has a negative duration");
            for s in &leg.segments {
                segments[s.index()].push((start, end));
            }
            for j in &leg.junctions {
                junctions[j.index()].push((start, end));
            }
        }
        for (kind, per_resource) in [("segment", segments), ("junction", junctions)] {
            for (idx, mut spans) in per_resource.into_iter().enumerate() {
                spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
                for w in spans.windows(2) {
                    assert!(
                        w[0].1 <= w[1].0 + 1e-12,
                        "{kind} {idx} double-booked: [{}, {}) overlaps [{}, {})",
                        w[0].0,
                        w[0].1,
                        w[1].0,
                        w[1].1
                    );
                }
            }
        }
    }

    /// The `combo`-th entry (0..16) of the compiler's policy grid, in
    /// mapping × routing × reorder × eviction order.
    fn policy_combo(combo: usize) -> CompilerConfig {
        CompilerConfig {
            mapping: MappingKind::ALL[combo >> 3 & 1],
            routing: RoutingKind::ALL[combo >> 2 & 1],
            reorder: ReorderMethod::ALL[combo >> 1 & 1],
            eviction: EvictionKind::ALL[combo & 1],
            buffer_slots: 2,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random circuits on the linear topology, under every policy
        /// combination.
        #[test]
        fn random_linear_circuits_never_double_book(
            n in 2u32..24,
            ops in 1usize..150,
            frac in 0.0f64..0.8,
            seed in 0u64..1000,
            combo in 0usize..16,
        ) {
            let circuit = generators::random_circuit(n, ops, frac, seed);
            let device = presets::l6(8);
            let exe = compile(&circuit, &device, &policy_combo(combo)).expect("compiles");
            assert_no_double_booking(&exe, &device);
        }

        /// The same property on the grid topology, whose
        /// junction-crossing legs exercise the junction resources.
        #[test]
        fn random_grid_circuits_never_double_book(
            n in 2u32..24,
            ops in 1usize..120,
            seed in 0u64..1000,
        ) {
            let circuit = generators::random_circuit(n, ops, 0.5, seed);
            let device = presets::g2x3(8);
            let exe = compile(&circuit, &device, &CompilerConfig::default()).expect("compiles");
            assert_no_double_booking(&exe, &device);
        }
    }
}

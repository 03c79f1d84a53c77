//! Simulator for QCCD executables.
//!
//! Implements §V-B/§VII of the paper: a custom simulator that estimates
//! application run time, reliability and device-level metrics, because
//! state-vector noise simulators are intractable beyond 50–60 qubits.
//!
//! ## Lower, then evaluate
//!
//! Simulation is split at the model boundary:
//!
//! * [`lower`] validates an executable against its device, replays the
//!   machine state once and records a flat, model-independent
//!   [`SimTape`]. Every [`SimError`] is raised here.
//! * [`evaluate`] runs one [`PhysicalModel`](qccd_physics::PhysicalModel)
//!   over a tape and cannot fail, so one tape serves every model of a
//!   sweep (the experiment engine evaluates it once per gate
//!   implementation).
//!
//! [`simulate`] is `evaluate(&lower(exe, device)?, model)`.
//!
//! ## Timing
//!
//! The executable is a dependency-respecting total order, so timing is
//! computed by *resource-timeline list scheduling* in one pass over the
//! tape: every instruction starts as soon as its ion(s) and required
//! resources are free, tracked as a ready time per ion, trap, segment
//! and junction.
//! Resources encode the paper's parallelism constraints (§V-B):
//!
//! * each **trap** executes at most one gate / split / merge at a time
//!   (gates within a trap are serial);
//! * **segments** and **junctions** hold at most one ion: parallel
//!   shuttles queue at shared path elements, and the queueing delay is
//!   reported as shuttle wait time (the paper's inserted "wait
//!   operations");
//! * independent shuttles and gates in different traps run concurrently.
//!
//! Gate and shuttle intervals are split into compute and communication
//! time by [`SpanSet::decompose`](spans::SpanSet::decompose), a sort of
//! scalar keys plus one merge sweep whose result does not depend on the
//! order of tied boundaries. Gate intervals are merged per trap as they
//! are recorded: a gate that starts exactly where its trap's last gate
//! interval ends extends that interval. This leaves both sums
//! bit-identical and, on the paper's Fig. 8 executables, removes about
//! nine in ten gate intervals before the sort.
//! Shuttle intervals are recorded one per op, because merging them would
//! turn two float steps of the communication sum into one.
//!
//! ## Heating and fidelity
//!
//! Per-chain motional energy evolves under `qccd-physics`'s
//! [`HeatingModel`](qccd_physics::HeatingModel) exactly as in §VII-B, and
//! every operation contributes to the application fidelity product
//! (accumulated in log space) with two-qubit errors split into background
//! and motional parts for the Fig. 6g analysis.
//!
//! # Example
//!
//! ```
//! use qccd_circuit::{Circuit, Qubit};
//! use qccd_compiler::{compile, CompilerConfig};
//! use qccd_device::presets;
//! use qccd_physics::{GateImpl, PhysicalModel};
//! use qccd_sim::{evaluate, lower, simulate};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut circuit = Circuit::new("bell", 2);
//! circuit.h(Qubit(0));
//! circuit.cx(Qubit(0), Qubit(1));
//! circuit.measure_all();
//!
//! let device = presets::l6(20);
//! let exe = compile(&circuit, &device, &CompilerConfig::default())?;
//! let report = simulate(&exe, &device, &PhysicalModel::default())?;
//! assert!(report.fidelity() > 0.99);
//! assert!(report.total_time_us > 0.0);
//!
//! // One lowering, evaluated under every gate implementation.
//! let tape = lower(&exe, &device)?;
//! for gate in GateImpl::ALL {
//!     let report = evaluate(&tape, &PhysicalModel::with_gate(gate));
//!     assert_eq!(report, simulate(&exe, &device, &PhysicalModel::with_gate(gate))?);
//! }
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod report;
pub mod spans;
pub mod tape;

pub use engine::{evaluate, simulate, spans_of};
pub use error::SimError;
pub use report::{canonical_float, ErrorTotals, SimReport, TimeBreakdown};
pub use tape::{lower, SimTape};

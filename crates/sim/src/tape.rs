//! Lowering: validate an executable once and flatten it into a
//! model-independent [`SimTape`].

use crate::error::SimError;
use qccd_compiler::{Executable, Inst, MachineState, OpCounts, Placement};
use qccd_device::{Device, IonId, JunctionKind, TrapId};

/// Kind of one lowered instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    OneQubit,
    Ms,
    SwapGate,
    IonSwap,
    Split,
    Move,
    Merge,
    Measure,
}

/// An executable validated against a device and flattened into
/// struct-of-arrays form: everything [`crate::evaluate`] needs, and
/// nothing that depends on the physical model.
///
/// One entry per instruction, in stream order. Which per-op fields are
/// meaningful depends on the op's kind:
///
/// | kind | `ion_a` | `ion_b` | `trap` | `chain_len` | `distance` |
/// |---|---|---|---|---|---|
/// | one-qubit gate, measure | ion | – | its trap | – | – |
/// | MS, SWAP | a | b | shared trap | chain length | separation (≥ 1) |
/// | ion swap | a | b | shared trap | chain length (unchanged) | – |
/// | split | ion | – | trap | length before (after: −1) | – |
/// | merge | ion | – | trap | length before (after: +1) | – |
/// | move | ion | – | – | – | – |
///
/// Moves carry their own arrays, indexed by the move's rank in the
/// stream: length units, Y- and X-junction counts, and a CSR list of the
/// path resources they hold (segment ids, then junction ids offset by
/// the device's segment count).
#[derive(Debug, Clone, PartialEq)]
pub struct SimTape {
    pub(crate) name: String,
    pub(crate) counts: OpCounts,
    pub(crate) num_ions: usize,
    pub(crate) num_traps: usize,
    /// Segments plus junctions of the device.
    pub(crate) num_resources: usize,
    pub(crate) kind: Vec<OpKind>,
    pub(crate) ion_a: Vec<u32>,
    pub(crate) ion_b: Vec<u32>,
    pub(crate) trap: Vec<u32>,
    pub(crate) chain_len: Vec<u32>,
    pub(crate) distance: Vec<u32>,
    pub(crate) move_units: Vec<u32>,
    pub(crate) move_y: Vec<u32>,
    pub(crate) move_x: Vec<u32>,
    /// `path[path_start[m]..path_start[m + 1]]` are the resources of
    /// the `m`-th move.
    pub(crate) path_start: Vec<u32>,
    pub(crate) path: Vec<u32>,
}

impl SimTape {
    fn push(
        &mut self,
        kind: OpKind,
        a: IonId,
        b: IonId,
        trap: TrapId,
        chain_len: usize,
        distance: u32,
    ) {
        self.kind.push(kind);
        self.ion_a.push(a.0);
        self.ion_b.push(b.0);
        self.trap.push(trap.0);
        self.chain_len.push(chain_len as u32);
        self.distance.push(distance);
    }
}

/// Validates `exe` against `device` and replays its machine state once,
/// recording a [`SimTape`] that [`crate::evaluate`] can run under any
/// number of physical models.
///
/// # Errors
///
/// Returns the first violated check as a [`SimError`]: the structural
/// checks (id ranges, chain table shape) run over the whole stream
/// first, then the placement checks (co-location, adjacency, chain
/// ends, in-flight state) in stream order.
pub fn lower(exe: &Executable, device: &Device) -> Result<SimTape, SimError> {
    validate(exe, device)?;
    let insts = exe.instructions();
    let mut tape = SimTape {
        name: exe.name().to_owned(),
        counts: exe.counts(),
        num_ions: exe.num_ions() as usize,
        num_traps: device.trap_count(),
        num_resources: device.segment_count() + device.junction_count(),
        kind: Vec::with_capacity(insts.len()),
        ion_a: Vec::with_capacity(insts.len()),
        ion_b: Vec::with_capacity(insts.len()),
        trap: Vec::with_capacity(insts.len()),
        chain_len: Vec::with_capacity(insts.len()),
        distance: Vec::with_capacity(insts.len()),
        move_units: Vec::new(),
        move_y: Vec::new(),
        move_x: Vec::new(),
        path_start: vec![0],
        path: Vec::new(),
    };
    let junction_base = device.segment_count() as u32;
    let mut st = MachineState::new(&Placement::from_chains(exe.initial_chains().to_vec()));
    let located = |st: &MachineState, ion: IonId| st.trap_of(ion).ok_or(SimError::IonInFlight(ion));
    let colocated = |st: &MachineState, a: IonId, b: IonId| {
        let trap = located(st, a)?;
        if st.trap_of(b) == Some(trap) {
            Ok(trap)
        } else {
            Err(SimError::NotColocated(a, b))
        }
    };
    for inst in insts {
        match *inst {
            Inst::OneQubit { ion, .. } => {
                let trap = located(&st, ion)?;
                tape.push(OpKind::OneQubit, ion, ion, trap, 0, 0);
            }
            Inst::Measure { ion } => {
                let trap = located(&st, ion)?;
                tape.push(OpKind::Measure, ion, ion, trap, 0, 0);
            }
            Inst::Ms { a, b } | Inst::SwapGate { a, b } => {
                let trap = colocated(&st, a, b)?;
                let distance = st.distance(a, b).max(1);
                if let Inst::Ms { .. } = inst {
                    tape.push(OpKind::Ms, a, b, trap, st.chain_len(trap), distance);
                } else {
                    tape.push(OpKind::SwapGate, a, b, trap, st.chain_len(trap), distance);
                    st.swap_states(a, b);
                }
            }
            Inst::IonSwap { a, b } => {
                let trap = colocated(&st, a, b)?;
                if st.distance(a, b) != 1 {
                    return Err(SimError::NotAdjacent(a, b));
                }
                tape.push(OpKind::IonSwap, a, b, trap, st.chain_len(trap), 0);
                st.swap_positions(a, b);
            }
            Inst::Split { ion, trap, side } => {
                if st.trap_of(ion) != Some(trap) || st.end_ion(trap, side) != Some(ion) {
                    return Err(SimError::SplitNotAtEnd(ion, trap));
                }
                tape.push(OpKind::Split, ion, ion, trap, st.chain_len(trap), 0);
                st.remove_end(ion, trap, side);
            }
            Inst::Move { ion, ref leg } => {
                if st.trap_of(ion).is_some() {
                    return Err(SimError::IonNotInFlight(ion));
                }
                let (mut y, mut x) = (0u32, 0u32);
                for j in &leg.junctions {
                    match device.junction(*j).kind() {
                        JunctionKind::Y => y += 1,
                        JunctionKind::X => x += 1,
                    }
                }
                tape.push(OpKind::Move, ion, ion, leg.to, 0, 0);
                tape.move_units.push(leg.length_units);
                tape.move_y.push(y);
                tape.move_x.push(x);
                tape.path.extend(leg.segments.iter().map(|s| s.0));
                tape.path
                    .extend(leg.junctions.iter().map(|j| junction_base + j.0));
                tape.path_start.push(tape.path.len() as u32);
            }
            Inst::Merge { ion, trap, side } => {
                if st.trap_of(ion).is_some() {
                    return Err(SimError::IonNotInFlight(ion));
                }
                tape.push(OpKind::Merge, ion, ion, trap, st.chain_len(trap), 0);
                st.insert_end(ion, trap, side);
            }
        }
    }
    Ok(tape)
}

/// Structural validation of the executable against the device.
fn validate(exe: &Executable, device: &Device) -> Result<(), SimError> {
    if exe.initial_chains().len() != device.trap_count() {
        return Err(SimError::UnknownTrap(TrapId(
            exe.initial_chains().len() as u32 - 1,
        )));
    }
    let n = exe.num_ions();
    let mut seen = vec![false; n as usize];
    for chain in exe.initial_chains() {
        for &ion in chain {
            if ion.0 >= n || seen[ion.index()] {
                return Err(SimError::UnknownIon(ion));
            }
            seen[ion.index()] = true;
        }
    }
    for inst in exe.instructions() {
        for ion in inst.ions() {
            if ion.0 >= n {
                return Err(SimError::UnknownIon(ion));
            }
        }
        match inst {
            Inst::Split { trap, .. } | Inst::Merge { trap, .. }
                if trap.index() >= device.trap_count() =>
            {
                return Err(SimError::UnknownTrap(*trap));
            }
            Inst::Move { leg, .. } => {
                for s in &leg.segments {
                    if s.index() >= device.segment_count() {
                        return Err(SimError::UnknownTrap(leg.to));
                    }
                }
                for j in &leg.junctions {
                    if j.index() >= device.junction_count() {
                        return Err(SimError::UnknownTrap(leg.to));
                    }
                }
            }
            _ => {}
        }
    }
    Ok(())
}

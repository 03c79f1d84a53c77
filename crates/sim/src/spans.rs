//! Interval bookkeeping for the compute/communication time decomposition
//! (the Fig. 6b analysis).

/// Accumulates time intervals for [`SpanSet::decompose`].
///
/// Each interval is kept as two order-preserving `u64` sort keys (see
/// [`key`]), its start and its end in separate arrays: the finaliser
/// only needs the sorted boundary times of a set, never which start
/// belongs to which end.
#[derive(Debug, Clone, Default)]
pub struct SpanSet {
    starts: Vec<u64>,
    ends: Vec<u64>,
}

/// The `u64` whose unsigned order is [`f64::total_cmp`]'s order.
fn key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Inverse of [`key`].
fn value(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// Number of keys equal to `k` at the front of `keys[*at..]`; advances
/// `at` past them.
fn take_equal(keys: &[u64], at: &mut usize, k: u64) -> usize {
    let from = *at;
    while *at < keys.len() && keys[*at] == k {
        *at += 1;
    }
    *at - from
}

impl SpanSet {
    /// Creates an empty span set.
    pub fn new() -> Self {
        SpanSet::default()
    }

    /// Records the interval `[start, end)`. Zero- or negative-length
    /// intervals are ignored.
    pub fn add(&mut self, start: f64, end: f64) {
        if end > start {
            self.starts.push(key(start));
            self.ends.push(key(end));
        }
    }

    /// Decomposes time into `(compute_us, communication_us)`: the length
    /// of the union of `gates`, and the time covered by `shuttles` but
    /// by no gate.
    ///
    /// Each of the four boundary arrays is sorted on its own and one
    /// merge sweep visits every distinct boundary time once, in
    /// increasing order. Both sums depend only on those times and on
    /// the coverage after each, never on the order of equal boundaries:
    ///
    /// * compute adds one `end − start` per merged component, where
    ///   intervals that touch (a start at or before the running end)
    ///   merge — starts count before ends at an equal time;
    /// * communication adds one `t_k − t_{k−1}` per step between
    ///   consecutive boundary times whose coverage is "some shuttle, no
    ///   gate".
    pub fn decompose(gates: SpanSet, shuttles: SpanSet) -> (f64, f64) {
        let SpanSet {
            starts: mut gate_starts,
            ends: mut gate_ends,
        } = gates;
        let SpanSet {
            starts: mut comm_starts,
            ends: mut comm_ends,
        } = shuttles;
        // Equal keys are identical values, so an unstable sort is
        // deterministic.
        gate_starts.sort_unstable();
        gate_ends.sort_unstable();
        comm_starts.sort_unstable();
        comm_ends.sort_unstable();

        let head = |keys: &[u64], at: usize| keys.get(at).copied().unwrap_or(u64::MAX);
        let (mut gs, mut ge, mut cs, mut ce) = (0, 0, 0, 0);
        let mut remaining = 2 * (gate_starts.len() + comm_starts.len());
        let (mut gates_open, mut comm_open) = (0usize, 0usize);
        // The merged gate component being built: (start, end once closed).
        let mut component: Option<(f64, f64)> = None;
        let mut last = f64::NEG_INFINITY;
        let (mut compute, mut communication) = (0.0, 0.0);
        while remaining > 0 {
            let k = head(&gate_starts, gs)
                .min(head(&gate_ends, ge))
                .min(head(&comm_starts, cs))
                .min(head(&comm_ends, ce));
            let t = value(k);
            let opened = take_equal(&gate_starts, &mut gs, k);
            let closed = take_equal(&gate_ends, &mut ge, k);
            let comm_opened = take_equal(&comm_starts, &mut cs, k);
            let comm_closed = take_equal(&comm_ends, &mut ce, k);
            remaining -= opened + closed + comm_opened + comm_closed;

            if comm_open > 0 && gates_open == 0 && last.is_finite() {
                communication += t - last;
            }
            if opened > 0 && gates_open == 0 {
                component = match component {
                    Some((start, end)) if t <= end => Some((start, end)),
                    Some((start, end)) => {
                        compute += end - start;
                        Some((t, t))
                    }
                    None => Some((t, t)),
                };
            }
            gates_open = gates_open + opened - closed;
            comm_open = comm_open + comm_opened - comm_closed;
            if gates_open == 0 && closed > 0 {
                if let Some((_, end)) = &mut component {
                    *end = t;
                }
            }
            last = t;
        }
        if let Some((start, end)) = component {
            compute += end - start;
        }
        (compute, communication)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spans(intervals: &[(f64, f64)]) -> SpanSet {
        let mut s = SpanSet::new();
        for &(start, end) in intervals {
            s.add(start, end);
        }
        s
    }

    fn union_length(s: &SpanSet) -> f64 {
        SpanSet::decompose(s.clone(), SpanSet::new()).0
    }

    fn union_length_excluding(s: &SpanSet, other: &SpanSet) -> f64 {
        SpanSet::decompose(other.clone(), s.clone()).1
    }

    #[test]
    fn union_merges_overlaps() {
        let s = spans(&[(0.0, 10.0), (5.0, 15.0), (20.0, 25.0)]);
        assert!((union_length(&s) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_degenerate_intervals() {
        let mut s = SpanSet::new();
        assert_eq!(union_length(&s), 0.0);
        s.add(5.0, 5.0);
        s.add(7.0, 3.0);
        assert_eq!(union_length(&s), 0.0);
    }

    #[test]
    fn exclusion_subtracts_overlap() {
        let comm = spans(&[(0.0, 10.0)]);
        let gates = spans(&[(4.0, 6.0)]);
        // Communication-only time: [0,4) and [6,10) = 8.
        assert!((union_length_excluding(&comm, &gates) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn exclusion_with_no_overlap_is_full_union() {
        let a = spans(&[(0.0, 3.0), (10.0, 12.0)]);
        let b = SpanSet::new();
        assert!((union_length_excluding(&a, &b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn adjacent_intervals_do_not_double_count() {
        let s = spans(&[(0.0, 5.0), (5.0, 10.0)]);
        assert!((union_length(&s) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn keys_order_like_total_cmp_and_round_trip() {
        let xs = [
            f64::NEG_INFINITY,
            -3.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            2.5e300,
            f64::INFINITY,
        ];
        for (i, &a) in xs.iter().enumerate() {
            assert_eq!(value(key(a)).to_bits(), a.to_bits());
            for &b in &xs[i + 1..] {
                assert!(key(a) < key(b), "{a} vs {b}");
            }
        }
    }

    /// The sort-based finaliser the sweep replaced, kept as the oracle.
    mod reference {
        /// Union length: stable sort by start, merge touching intervals.
        pub fn union_length(intervals: &[(f64, f64)]) -> f64 {
            let mut iv = intervals.to_vec();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut total = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (s, e) in iv {
                match cur {
                    None => cur = Some((s, e)),
                    Some((cs, ce)) => {
                        if s <= ce {
                            cur = Some((cs, ce.max(e)));
                        } else {
                            total += ce - cs;
                            cur = Some((s, e));
                        }
                    }
                }
            }
            if let Some((cs, ce)) = cur {
                total += ce - cs;
            }
            total
        }

        /// Time covered by `mine` but not by `theirs`: a stable-sorted
        /// event sweep over both sets' boundaries.
        pub fn union_length_excluding(mine: &[(f64, f64)], theirs: &[(f64, f64)]) -> f64 {
            let mut events: Vec<(f64, i32, i32)> = Vec::new();
            for &(s, e) in mine {
                events.push((s, 1, 0));
                events.push((e, -1, 0));
            }
            for &(s, e) in theirs {
                events.push((s, 0, 1));
                events.push((e, 0, -1));
            }
            events.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (mut m, mut o) = (0, 0);
            let mut last = f64::NEG_INFINITY;
            let mut total = 0.0;
            for (t, dm, dt) in events {
                if m > 0 && o == 0 && last.is_finite() {
                    total += t - last;
                }
                m += dm;
                o += dt;
                last = t;
            }
            total
        }
    }

    /// Boundary times from a small grid, so starts and ends of different
    /// intervals collide often; `-0.0` sits beside `0.0`, and the
    /// irrational-ish steps make the differences round.
    fn time(slot: u32) -> f64 {
        match slot {
            0 => -0.0,
            1 => 0.0,
            s => f64::from(s - 1) * 0.1 + f64::from(s % 3) * 1e-9,
        }
    }

    /// `count` random intervals on the [`time`] grid as the simulator
    /// records them (`add` drops the empty ones), drawn from a
    /// splitmix64 stream seeded with `seed`.
    fn interval_set(seed: u64, count: usize) -> Vec<(f64, f64)> {
        let mut state = seed;
        let mut next = |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound) as u32
        };
        (0..count)
            .map(|_| {
                let slot = next(24);
                (time(slot), time(slot + next(6)))
            })
            .filter(|&(s, e)| e > s)
            .collect()
    }

    /// Asserts the sweep equals the oracle bit for bit on one pair.
    fn assert_matches_reference(gates: &[(f64, f64)], comm: &[(f64, f64)]) {
        let (compute, communication) = SpanSet::decompose(spans(gates), spans(comm));
        let want_compute = reference::union_length(gates);
        let want_comm = reference::union_length_excluding(comm, gates);
        assert_eq!(
            compute.to_bits(),
            want_compute.to_bits(),
            "compute {compute} vs {want_compute} for gates {gates:?}"
        );
        assert_eq!(
            communication.to_bits(),
            want_comm.to_bits(),
            "communication {communication} vs {want_comm} for gates {gates:?}, comm {comm:?}"
        );
    }

    #[test]
    fn sweep_matches_reference_on_hand_picked_ties() {
        type Intervals<'a> = &'a [(f64, f64)];
        let cases: [(Intervals, Intervals); 6] = [
            (&[], &[]),
            (&[(0.0, 1.0)], &[]),
            (&[], &[(0.0, 1.0), (0.5, 2.0)]),
            // Touching, duplicate and nested gates; shuttles tying with them.
            (
                &[(0.0, 1.0), (1.0, 2.0), (1.0, 2.0), (1.2, 1.5)],
                &[(0.5, 1.0), (2.0, 3.0), (2.0, 2.5)],
            ),
            // A shuttle ending exactly where a gate starts and vice versa.
            (&[(1.0, 2.0), (3.0, 4.0)], &[(0.0, 1.0), (2.0, 3.0)]),
            // Signed zeros on both sides.
            (&[(-1.0, -0.0), (0.0, 1.0)], &[(-2.0, 0.0), (-0.0, 2.0)]),
        ];
        for (gates, comm) in cases {
            assert_matches_reference(gates, comm);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The merge sweep reproduces the sort-based finaliser exactly,
        /// including on forced ties, touching, zero-length and duplicate
        /// intervals, and on an empty set on either side.
        #[test]
        fn sweep_matches_reference_bit_for_bit(
            gate_seed in 0u64..u64::MAX,
            gate_count in 0usize..24,
            comm_seed in 0u64..u64::MAX,
            comm_count in 0usize..24,
            duplicate in 0usize..4,
        ) {
            let mut gates = interval_set(gate_seed, gate_count);
            let mut comm = interval_set(comm_seed, comm_count);
            for k in 0..duplicate.min(gates.len()) {
                gates.push(gates[k]);
            }
            for k in 0..duplicate.min(comm.len()) {
                comm.push(comm[k]);
            }
            assert_matches_reference(&gates, &comm);
            assert_matches_reference(&gates, &[]);
            assert_matches_reference(&[], &comm);
        }
    }
}

//! Property-based tests of the latency-insensitive protocol core.
//!
//! These properties pin down the invariants the rest of the workspace relies
//! on: queues behave like unbounded queues until back-pressure kicks in,
//! relay chains never lose / duplicate / reorder tokens, shells preserve the
//! τ-filtered value streams, and the equivalence definitions behave like the
//! paper's.

use proptest::prelude::*;

use wp_core::{
    check_equivalence, BoundedFifo, ChannelVerdict, PortSet, Process, RelayChain, Shell,
    ShellConfig, Token, TraceArena,
};

// ---------------------------------------------------------------------------
// PortSet behaves like a set of small integers.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn portset_matches_reference_set(ports in prop::collection::vec(0usize..64, 0..40)) {
        let set = PortSet::from_ports(ports.clone());
        let reference: std::collections::BTreeSet<usize> = ports.into_iter().collect();
        prop_assert_eq!(set.len(), reference.len());
        for p in 0..64 {
            prop_assert_eq!(set.contains(p), reference.contains(&p));
        }
        let roundtrip: Vec<usize> = set.iter().collect();
        let sorted: Vec<usize> = reference.into_iter().collect();
        prop_assert_eq!(roundtrip, sorted);
    }

    #[test]
    fn portset_union_intersection_laws(
        a in prop::collection::vec(0usize..64, 0..20),
        b in prop::collection::vec(0usize..64, 0..20),
    ) {
        let sa = PortSet::from_ports(a);
        let sb = PortSet::from_ports(b);
        let union = sa.union(&sb);
        let inter = sa.intersection(&sb);
        prop_assert!(sa.is_subset_of(&union));
        prop_assert!(sb.is_subset_of(&union));
        prop_assert!(inter.is_subset_of(&sa));
        prop_assert!(inter.is_subset_of(&sb));
        prop_assert_eq!(union.len() + inter.len(), sa.len() + sb.len());
    }
}

// The set-bit walk of `PortSet::iter` visits exactly the ports a naive scan
// of all 64 positions finds, in the same order, and reports its exact
// remaining length, on dense (`a`), sparse (`a & b`) and very sparse
// (`a & b & c`) random masks and on the empty, full and bit-63 masks.
proptest! {
    #[test]
    fn portset_iter_equals_a_naive_bit_scan(
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
    ) {
        for mask in [a, a & b, a & b & c, 0, u64::MAX, 1 << 63] {
            let naive: Vec<usize> = (0..64).filter(|&p| (mask >> p) & 1 == 1).collect();
            let set = PortSet::from_ports(naive.iter().copied());
            prop_assert_eq!(set.iter().collect::<Vec<_>>(), naive);
            // The exact size holds before and after every step.
            let mut iter = set.iter();
            for left in (0..=naive.len()).rev() {
                prop_assert_eq!(iter.len(), left);
                iter.next();
            }
            prop_assert_eq!(iter.next(), None);
        }
    }
}

// ---------------------------------------------------------------------------
// BoundedFifo behaves like VecDeque under the same operation sequence.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn fifo_matches_vecdeque(
        capacity in 2usize..16,
        ops in prop::collection::vec(prop::option::of(0u32..1000), 1..200),
    ) {
        let mut fifo = BoundedFifo::new(capacity);
        let mut reference = std::collections::VecDeque::new();
        for op in ops {
            match op {
                Some(value) => {
                    let ok = fifo.push(value).is_ok();
                    prop_assert_eq!(ok, reference.len() < capacity);
                    if ok {
                        reference.push_back(value);
                    }
                }
                None => {
                    prop_assert_eq!(fifo.pop(), reference.pop_front());
                }
            }
            prop_assert_eq!(fifo.len(), reference.len());
            prop_assert_eq!(fifo.is_full(), reference.len() == capacity);
            prop_assert_eq!(fifo.front(), reference.front());
        }
    }
}

// ---------------------------------------------------------------------------
// Relay chains: tokens are delivered exactly once, in order, regardless of
// the chain length and of the back-pressure pattern.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn relay_chain_preserves_the_token_stream(
        chain_len in 0usize..5,
        values in prop::collection::vec(0u32..10_000, 1..60),
        stop_pattern in prop::collection::vec(any::<bool>(), 1..16),
    ) {
        let mut chain: RelayChain<u32> = RelayChain::new(chain_len);
        let mut received = Vec::new();
        let mut next = 0usize;
        // Run long enough to flush everything even with frequent stops; the
        // consumer is forced to accept at least every fourth cycle so the
        // stream always drains.
        let cycles = (values.len() + chain_len + 8) * 6;
        for cycle in 0..cycles {
            let stop_in = stop_pattern[cycle % stop_pattern.len()] && cycle % 4 != 0;
            let blocked = chain.stop_out(stop_in);
            let input = if !blocked && next < values.len() {
                let tok = Token::Valid(values[next]);
                next += 1;
                tok
            } else {
                Token::Void
            };
            if !stop_in {
                if let Token::Valid(v) = chain.output(&input) {
                    received.push(v);
                }
            }
            chain.update(&input, stop_in).expect("no overflow under correct back-pressure");
        }
        prop_assert_eq!(received, values);
    }
}

// ---------------------------------------------------------------------------
// Shells: the τ-filtered output stream of a wrapped accumulator matches the
// un-wrapped reference, for any arrival pattern of the inputs.
// ---------------------------------------------------------------------------

/// A two-input accumulator whose oracle needs port 1 only every third firing.
struct Accumulator {
    total: u64,
    fires: u64,
}

impl Process<u64> for Accumulator {
    fn name(&self) -> &str {
        "acc"
    }
    fn num_inputs(&self) -> usize {
        2
    }
    fn num_outputs(&self) -> usize {
        1
    }
    fn output(&self, _p: usize) -> u64 {
        self.total
    }
    fn required_inputs(&self) -> PortSet {
        if self.fires.is_multiple_of(3) {
            PortSet::all(2)
        } else {
            PortSet::single(0)
        }
    }
    fn fire(&mut self, inputs: &[Option<u64>]) {
        let a = inputs[0].unwrap_or(0);
        let b = if self.fires.is_multiple_of(3) {
            inputs[1].unwrap_or(0)
        } else {
            0
        };
        self.total = self.total.wrapping_add(a).wrapping_add(b).wrapping_add(1);
        self.fires += 1;
    }
    fn reset(&mut self) {
        self.total = 0;
        self.fires = 0;
    }
}

/// Reference: what the accumulator computes when fed `steps` pairs directly.
fn reference_outputs(a_values: &[u64], b_values: &[u64], steps: usize) -> Vec<u64> {
    let mut acc = Accumulator { total: 0, fires: 0 };
    let mut outs = Vec::new();
    for i in 0..steps {
        let needs_b = acc.fires.is_multiple_of(3);
        acc.fire(&[
            Some(a_values[i]),
            if needs_b { Some(b_values[i]) } else { None },
        ]);
        outs.push(acc.total);
    }
    outs
}

proptest! {
    #[test]
    fn shell_preserves_filtered_streams(
        policy_oracle in any::<bool>(),
        a_values in prop::collection::vec(0u64..100, 12..40),
        arrival_gaps in prop::collection::vec(0usize..3, 12..40),
    ) {
        // Port 0 receives a_values with data-dependent gaps; port 1 receives
        // the firing index (so the reference can be computed exactly).
        let steps = a_values.len().min(arrival_gaps.len());
        let b_values: Vec<u64> = (0..steps as u64).collect();
        let config = if policy_oracle {
            ShellConfig::oracle()
        } else {
            ShellConfig::strict()
        };
        let mut shell = Shell::new(Box::new(Accumulator { total: 0, fires: 0 }), config);
        let mut produced = Vec::new();
        let mut sent_a = 0usize;
        let mut sent_b = 0usize;
        let mut gap = 0usize;
        // Feed tokens with irregular arrival, always respecting back-pressure.
        for _cycle in 0..(steps * 8 + 50) {
            let a_tok = if sent_a < steps && gap == 0 && !shell.stop_out(0) {
                let t = Token::Valid(a_values[sent_a]);
                sent_a += 1;
                gap = arrival_gaps[sent_a % arrival_gaps.len()];
                t
            } else {
                gap = gap.saturating_sub(1);
                Token::Void
            };
            let b_tok = if sent_b < steps && !shell.stop_out(1) {
                let t = Token::Valid(b_values[sent_b]);
                sent_b += 1;
                t
            } else {
                Token::Void
            };
            let before = shell.firings();
            shell.update(&[a_tok, b_tok], &[false]).expect("protocol respected");
            if shell.firings() > before {
                if let Token::Valid(v) = shell.output(0) {
                    produced.push(v);
                }
            }
        }
        let expected = reference_outputs(&a_values, &b_values, steps);
        prop_assert_eq!(produced.len(), steps, "all firings completed");
        prop_assert_eq!(produced, expected);
    }
}

// ---------------------------------------------------------------------------
// Equivalence definitions.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn n_equivalence_is_prefix_monotone(values in prop::collection::vec(0u32..50, 1..30), n in 0usize..35) {
        // A sequence is N-equivalent to each of its prefixes, for N up to
        // the prefix length.
        let mut golden = TraceArena::new(["ch"]);
        let mut prefix = TraceArena::new(["ch"]);
        for (i, &v) in values.iter().enumerate() {
            golden.record_valid(0, v);
            if i < n {
                prefix.record_valid(0, v);
            }
        }
        let report = check_equivalence(&golden, &prefix);
        prop_assert!(report.is_equivalent());
        prop_assert_eq!(report.proven_n(), n.min(values.len()));
    }

    #[test]
    fn inserting_void_symbols_never_breaks_equivalence(
        values in prop::collection::vec(0u32..50, 0..30),
        voids in prop::collection::vec(any::<bool>(), 0..60),
    ) {
        let mut golden = TraceArena::new(["ch"]);
        for &v in &values {
            golden.record_valid(0, v);
        }
        // The candidate interleaves the same values with arbitrary τ symbols.
        let mut candidate = TraceArena::new(["ch"]);
        let mut it = values.iter();
        for &is_void in &voids {
            if is_void {
                candidate.record_void(0);
            } else if let Some(&v) = it.next() {
                candidate.record_valid(0, v);
            }
        }
        for &v in it {
            candidate.record_valid(0, v);
        }
        let report = check_equivalence(&golden, &candidate);
        prop_assert!(report.is_equivalent());
        prop_assert_eq!(report.proven_n(), values.len());
    }

    #[test]
    fn corrupting_a_value_breaks_equivalence(
        values in prop::collection::vec(0u32..50, 1..30),
        index in 0usize..30,
        voids in prop::collection::vec(any::<bool>(), 0..60),
    ) {
        let index = index % values.len();
        let mut golden = TraceArena::new(["ch"]);
        let mut candidate = TraceArena::new(["ch"]);
        // The candidate's recording up to (not including) the corruption.
        let mut before = TraceArena::new(["ch"]);
        let mut voids = voids.into_iter();
        for (i, &v) in values.iter().enumerate() {
            golden.record_valid(0, v);
            // τ symbols before a value shift its cycle, never its index.
            while voids.next() == Some(true) {
                candidate.record_void(0);
                if i < index {
                    before.record_void(0);
                }
            }
            candidate.record_valid(0, if i == index { v + 1 } else { v });
            if i < index {
                before.record_valid(0, v);
            }
        }
        let report = check_equivalence(&golden, &candidate);
        prop_assert!(!report.is_equivalent());
        prop_assert_eq!(
            &report.entries()[0].1,
            &ChannelVerdict::Mismatch { position: index }
        );
        // A mismatching report proves nothing; what the two systems agree
        // on is exactly the prefix before the corrupted value.
        prop_assert_eq!(report.proven_n(), 0);
        prop_assert_eq!(check_equivalence(&golden, &before).proven_n(), index);
    }
}

// ---------------------------------------------------------------------------
// Policy sanity: a strict shell and an oracle shell fed identical complete
// inputs fire identically.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn strict_and_oracle_agree_when_all_inputs_arrive(
        values in prop::collection::vec((0u64..50, 0u64..50), 1..40),
    ) {
        let mut strict = Shell::new(Box::new(Accumulator { total: 0, fires: 0 }), ShellConfig::strict());
        let mut oracle = Shell::new(Box::new(Accumulator { total: 0, fires: 0 }), ShellConfig::oracle());
        for &(a, b) in &values {
            strict.update(&[Token::Valid(a), Token::Valid(b)], &[false]).unwrap();
            oracle.update(&[Token::Valid(a), Token::Valid(b)], &[false]).unwrap();
            prop_assert_eq!(strict.output(0), oracle.output(0));
        }
        prop_assert_eq!(strict.firings(), values.len() as u64);
        prop_assert_eq!(oracle.firings(), values.len() as u64);
    }
}

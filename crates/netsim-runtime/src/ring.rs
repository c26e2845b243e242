//! A ring of tick buckets: the one deferral structure of both engines.
//!
//! An engine defers two kinds of item to a later tick: envelopes the
//! fault plan delays (`FaultSpec::Delay`), and, under a heterogeneous
//! [`ClockPlan`](crate::ClockPlan), each node's next step.  Both need one
//! thing: hold an item until tick `t`, then hand back that tick's items.
//! [`DelayRing`] does it with a circular array of buckets indexed by
//! `due % capacity`: push and drain are O(1) bucket lookups, and drained
//! buckets keep their capacity, so after warm-up deferring allocates
//! nothing.  The reference [`SyncEngine`](crate::SyncEngine) keeps its
//! delayed envelopes in one; each shard of the
//! [`ShardedEngine`](crate::ShardedEngine) keeps its delayed envelopes in
//! one and, under a heterogeneous clock plan, its pending node steps in a
//! second.
//!
//! Correctness relies on one invariant the ring enforces itself: every
//! ring-resident due tick lies within one capacity window of the current
//! tick, so each owns a distinct slot.  Delays too large for the ring to
//! cover affordably — the ring never grows past `MAX_BUCKETS` — spill
//! into a `BTreeMap` side table, so a spec with an enormous `Δ` costs
//! O(deferred items) memory instead of an O(Δ) allocation.  All items for
//! one due tick live on one side (a due tick that ever spilled keeps
//! spilling), which keeps each tick's items in push order exactly.
//!
//! A push into the past panics, in release builds too: the ring would
//! file it in a bucket the drain has already passed, and the item would
//! be lost without a trace, breaking the engines' determinism contract
//! where no test looks.

use std::collections::BTreeMap;

/// One bucket: the due tick it currently holds, plus the items.
#[derive(Clone, Debug)]
struct Bucket<T> {
    due: u64,
    items: Vec<T>,
}

/// A circular buffer of tick-indexed buckets with a far-future overflow
/// side table; see the module docs.
#[derive(Clone, Debug)]
pub struct DelayRing<T> {
    buckets: Vec<Bucket<T>>,
    /// Due ticks too far out for the ring ([`MAX_BUCKETS`] cap); the
    /// rare path — realistic delays stay in the ring.
    overflow: BTreeMap<u64, Vec<T>>,
    /// Total items across buckets and overflow.
    in_flight: usize,
}

/// Initial number of buckets (grown on demand).
const INITIAL_BUCKETS: usize = 8;

/// Hard cap on the ring size: delays beyond this window take the overflow
/// path instead of growing the ring, bounding the ring's memory at
/// `MAX_BUCKETS` buckets no matter what `Δ` a spec requests.
const MAX_BUCKETS: usize = 4096;

impl<T> DelayRing<T> {
    /// An empty ring.
    pub fn new() -> Self {
        DelayRing {
            buckets: (0..INITIAL_BUCKETS)
                .map(|_| Bucket {
                    due: 0,
                    items: Vec::new(),
                })
                .collect(),
            overflow: BTreeMap::new(),
            in_flight: 0,
        }
    }

    /// Items currently deferred.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// True when nothing is deferred.
    pub fn is_empty(&self) -> bool {
        self.in_flight == 0
    }

    fn slot(&self, due: u64) -> usize {
        (due % self.buckets.len() as u64) as usize
    }

    /// Defer `item` until tick `due`.
    ///
    /// `due` may equal `current` only while that tick has not been
    /// drained yet: a node's first step is due at tick 0 and is pushed at
    /// tick 0, before the first drain.
    ///
    /// Callers that drain every consecutive tick keep the ring at its
    /// minimal size: ring-resident due ticks then span less than one
    /// capacity window, so every due tick owns a distinct slot.  Skipping
    /// ticks, as sparse ticking does, is still *correct* — a collision
    /// with a bucket holding a different due tick (e.g. a stale, never
    /// drained one) grows the ring until the slots separate (or spills to
    /// the overflow table at the cap); it never misfiles items.
    ///
    /// # Panics
    ///
    /// Panics if `due < current`; see the module docs.
    pub fn push(&mut self, current: u64, due: u64, item: T) {
        assert!(
            due >= current,
            "DelayRing::push: item due at tick {due} is in the past (current tick {current})"
        );
        // A due tick that already has overflow items keeps accumulating
        // there, even once its window shrinks into ring range — one side
        // per due tick is what keeps each tick's push order exact.
        if !self.overflow.is_empty() {
            if let Some(spilled) = self.overflow.get_mut(&due) {
                spilled.push(item);
                self.in_flight += 1;
                return;
            }
        }
        let window = due - current;
        if window >= MAX_BUCKETS as u64 {
            self.overflow.entry(due).or_default().push(item);
            self.in_flight += 1;
            return;
        }
        let window = window as usize;
        if window >= self.buckets.len() {
            self.grow(window + 1);
        }
        loop {
            let slot = self.slot(due);
            let bucket = &mut self.buckets[slot];
            if bucket.items.is_empty() {
                // A drained (or never-used) bucket is free to adopt a new
                // due tick; its kept capacity is what makes the ring
                // allocation-free in steady state.
                bucket.due = due;
            }
            if bucket.due == due {
                bucket.items.push(item);
                self.in_flight += 1;
                return;
            }
            // Slot occupied by a different due tick: grow and retry, or
            // spill once the ring refuses to grow further.  The loop
            // terminates because capacity doubles each iteration and
            // finitely many distinct due ticks are outstanding.
            let doubled = 2 * self.buckets.len();
            if doubled > MAX_BUCKETS {
                self.overflow.entry(due).or_default().push(item);
                self.in_flight += 1;
                return;
            }
            self.grow(doubled);
        }
    }

    /// Feed every item due exactly at `tick` to `consume`, in push
    /// order, keeping ring-bucket capacity for reuse.
    pub fn drain_due(&mut self, tick: u64, mut consume: impl FnMut(T)) {
        if self.in_flight == 0 {
            return;
        }
        let slot = self.slot(tick);
        let bucket = &mut self.buckets[slot];
        if bucket.due == tick && !bucket.items.is_empty() {
            self.in_flight -= bucket.items.len();
            for item in bucket.items.drain(..) {
                consume(item);
            }
        }
        if !self.overflow.is_empty() {
            if let Some(spilled) = self.overflow.remove(&tick) {
                self.in_flight -= spilled.len();
                for item in spilled {
                    consume(item);
                }
            }
        }
    }

    /// The earliest tick at which any item is due, or `None` when the
    /// ring is empty.
    ///
    /// One pass over the ring's occupied buckets plus a first-key peek at
    /// the overflow table — O(capacity), not O(items).  Sparse ticking
    /// consults it once per *executed* tick to find the next tick worth
    /// visiting.
    pub fn next_due(&self) -> Option<u64> {
        let ring_min = self
            .buckets
            .iter()
            .filter(|b| !b.items.is_empty())
            .map(|b| b.due)
            .min();
        let overflow_min = self.overflow.keys().next().copied();
        match (ring_min, overflow_min) {
            (Some(r), Some(o)) => Some(r.min(o)),
            (r, o) => r.or(o),
        }
    }

    /// Grow to at least `min_buckets`, re-slotting outstanding buckets.
    fn grow(&mut self, min_buckets: usize) {
        let new_len = min_buckets.next_power_of_two().max(2 * self.buckets.len());
        let old = std::mem::replace(
            &mut self.buckets,
            (0..new_len)
                .map(|_| Bucket {
                    due: 0,
                    items: Vec::new(),
                })
                .collect(),
        );
        for bucket in old {
            if bucket.items.is_empty() {
                continue;
            }
            let slot = (bucket.due % new_len as u64) as usize;
            debug_assert!(self.buckets[slot].items.is_empty());
            self.buckets[slot] = bucket;
        }
    }
}

impl<T> Default for DelayRing<T> {
    fn default() -> Self {
        DelayRing::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_vec(ring: &mut DelayRing<u32>, round: u64) -> Vec<u32> {
        let mut out = Vec::new();
        ring.drain_due(round, |x| out.push(x));
        out
    }

    #[test]
    fn items_come_out_at_their_due_round_in_order() {
        let mut ring = DelayRing::new();
        ring.push(0, 2, 10);
        ring.push(0, 1, 20);
        ring.push(0, 2, 11);
        assert_eq!(ring.in_flight(), 3);
        assert_eq!(drain_vec(&mut ring, 0), Vec::<u32>::new());
        assert_eq!(drain_vec(&mut ring, 1), vec![20]);
        assert_eq!(drain_vec(&mut ring, 2), vec![10, 11]);
        assert!(ring.is_empty());
        // Draining again is a no-op.
        assert_eq!(drain_vec(&mut ring, 2), Vec::<u32>::new());
    }

    #[test]
    fn slots_are_reused_across_wrapping_rounds() {
        let mut ring = DelayRing::new();
        for round in 0..100u64 {
            ring.push(round, round + 3, round as u32);
            let due: Vec<u32> = drain_vec(&mut ring, round);
            if round >= 3 {
                assert_eq!(due, vec![round as u32 - 3]);
            } else {
                assert!(due.is_empty());
            }
        }
        assert_eq!(ring.in_flight(), 3);
    }

    #[test]
    fn long_delays_grow_the_ring() {
        let mut ring = DelayRing::new();
        ring.push(0, 1, 1);
        ring.push(0, 500, 500); // far past the initial 8 buckets
        ring.push(0, 2, 2);
        assert_eq!(ring.in_flight(), 3);
        assert_eq!(drain_vec(&mut ring, 1), vec![1]);
        assert_eq!(drain_vec(&mut ring, 2), vec![2]);
        for round in 3..500 {
            assert_eq!(drain_vec(&mut ring, round), Vec::<u32>::new());
        }
        assert_eq!(drain_vec(&mut ring, 500), vec![500]);
        assert!(ring.is_empty());
    }

    #[test]
    fn skipped_drain_rounds_never_misfile_items() {
        // A caller that does NOT drain every round (sparse ticking skips
        // idle ticks) must still get every item back at its due round:
        // stale buckets force growth instead of silently absorbing new
        // items.
        let mut ring = DelayRing::new();
        ring.push(0, 5, 5u32); // never drained before the wrap
        ring.push(10, 13, 13); // 13 % 8 == 5: collides with the stale bucket
        assert_eq!(ring.in_flight(), 2);
        assert_eq!(drain_vec(&mut ring, 13), vec![13]);
        assert_eq!(drain_vec(&mut ring, 5), vec![5], "stale item still there");
        assert!(ring.is_empty());
    }

    #[test]
    fn gigantic_delays_take_the_overflow_path_without_growing_the_ring() {
        // Regression test: a spec-valid but enormous Δ must cost
        // O(messages), not an O(Δ) ring allocation.
        let mut ring = DelayRing::new();
        ring.push(0, u64::MAX / 2, 1u32);
        ring.push(0, 1_000_000_000, 2);
        ring.push(0, 3, 3);
        assert_eq!(ring.in_flight(), 3);
        assert!(
            ring.buckets.len() <= MAX_BUCKETS,
            "the ring must never grow past its cap (got {})",
            ring.buckets.len()
        );
        assert_eq!(drain_vec(&mut ring, 3), vec![3]);
        assert_eq!(drain_vec(&mut ring, 1_000_000_000), vec![2]);
        assert_eq!(drain_vec(&mut ring, u64::MAX / 2), vec![1]);
        assert!(ring.is_empty());
    }

    #[test]
    fn overflowed_due_rounds_keep_insertion_order_as_their_window_shrinks() {
        // An item pushed early (window ≥ cap → overflow) and one pushed
        // late (window < cap) for the SAME due round must come out in
        // insertion order: once a due round spills, it stays spilled.
        let mut ring = DelayRing::new();
        let due = 10_000;
        ring.push(0, due, 1u32); // window 10 000 ≥ 4096 → overflow
        ring.push(due - 5, due, 2); // window 5: would fit the ring
        assert_eq!(ring.in_flight(), 2);
        assert_eq!(drain_vec(&mut ring, due), vec![1, 2]);
        assert!(ring.is_empty());
    }

    #[test]
    fn mixed_delays_across_growth_keep_every_item() {
        let mut ring = DelayRing::new();
        let mut expected: std::collections::HashMap<u64, Vec<u32>> = Default::default();
        let mut id = 0u32;
        for round in 0..40u64 {
            for delay in [1u64, 2, 7, 31, 64, 5000] {
                ring.push(round, round + delay, id);
                expected.entry(round + delay).or_default().push(id);
                id += 1;
            }
        }
        let mut seen = 0usize;
        for round in 0..6000u64 {
            let got = drain_vec(&mut ring, round);
            seen += got.len();
            assert_eq!(got, expected.remove(&round).unwrap_or_default());
        }
        assert_eq!(seen, 40 * 6);
        assert!(ring.is_empty());
    }

    #[test]
    #[should_panic(expected = "is in the past")]
    fn pushes_into_the_past_panic() {
        // Regression: a push with `due < current` used to be filed as
        // "due now" into a bucket the drain had already passed, losing the
        // item.  The ring must refuse loudly instead, in release builds too.
        let mut ring = DelayRing::new();
        ring.push(10, 9, 1u32);
    }

    #[test]
    fn next_due_tracks_ring_and_overflow() {
        let mut ring = DelayRing::new();
        assert_eq!(ring.next_due(), None, "an empty ring has nothing due");
        // Far-future first: the overflow table alone answers.
        ring.push(0, 1_000_000, 1u32);
        assert_eq!(ring.next_due(), Some(1_000_000));
        // A nearer ring item wins the min.
        ring.push(0, 7, 2);
        assert_eq!(ring.next_due(), Some(7));
        ring.push(0, 3, 3);
        assert_eq!(ring.next_due(), Some(3));
        // Draining the nearest tick advances the answer.
        assert_eq!(drain_vec(&mut ring, 3), vec![3]);
        assert_eq!(ring.next_due(), Some(7));
        assert_eq!(drain_vec(&mut ring, 7), vec![2]);
        assert_eq!(
            ring.next_due(),
            Some(1_000_000),
            "only the overflow item remains"
        );
        assert_eq!(drain_vec(&mut ring, 1_000_000), vec![1]);
        assert_eq!(ring.next_due(), None);
    }
}

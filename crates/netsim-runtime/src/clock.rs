//! Per-node virtual clocks and the deterministic calendar event queue.
//!
//! A [`ClockPlan`] maps each node's clock onto the global tick counter: a
//! node with period `p` steps every `p` ticks.  Under a synchronous plan
//! every node steps every tick, which is the paper's round model; other
//! plans leave it (slow nodes miss ticks, and their mailboxes batch
//! several ticks' arrivals into one step) while staying fully
//! deterministic per spec and seed.
//!
//! A [`CalendarQueue`] holds a shard's scheduled events: node steps (only
//! under a heterogeneous plan) and deferred deliveries.  Events are
//! totally ordered by `(time, class, node, seq)` — see [`EventKey`] — so
//! permuting the *insertion* order of same-tick events never changes the
//! order in which they fire (locked down by a property test in
//! `tests/property_based.rs`).

use crate::engine::splitmix;
use std::collections::BTreeMap;

/// How each node's virtual clock maps onto the global tick counter.
///
/// A node with period `p` runs one protocol step every `p` ticks (first
/// step at tick 0).  `Uniform` — every period 1 — is the synchronous
/// model, under which every engine layout is contractually
/// byte-identical to [`SyncEngine`](crate::SyncEngine).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ClockPlan {
    /// Every node steps every tick (the synchronous model).
    #[default]
    Uniform,
    /// Every `every`-th node (`node % every == 0`) runs slow, at `period`
    /// ticks per step; the rest step every tick.  A deterministic,
    /// seed-independent heterogeneity: the same nodes are slow in every
    /// run of the spec.
    Stratified {
        /// Stride selecting the slow nodes (≥ 1; `1` = every node slow).
        every: u32,
        /// Step period of the slow nodes (≥ 1).
        period: u32,
    },
    /// Every node draws its period uniformly from `1..=max_period`,
    /// derived from the run seed (SplitMix64 per node) — decorrelated
    /// from every protocol RNG stream, and reproducible per spec+seed.
    Jittered {
        /// Largest period a node can draw (≥ 1; `1` = synchronous).
        max_period: u32,
    },
}

/// Seed-stream tag for [`ClockPlan::Jittered`] period derivation, keeping
/// clock randomness decorrelated from the node RNG streams (which use the
/// plain node index).
const CLOCK_STREAM: u64 = 0xC10C_0000_0000_0000;

impl ClockPlan {
    /// The step period of `node` under this plan (≥ 1), for a run seeded
    /// with `seed`.
    pub fn period_of(&self, node: usize, seed: u64) -> u64 {
        match *self {
            ClockPlan::Uniform => 1,
            ClockPlan::Stratified { every, period } => {
                if node.is_multiple_of(every.max(1) as usize) {
                    period.max(1) as u64
                } else {
                    1
                }
            }
            ClockPlan::Jittered { max_period } => {
                let max = max_period.max(1) as u64;
                splitmix(seed ^ CLOCK_STREAM, node as u64) % max + 1
            }
        }
    }

    /// True when every node's period is 1 — the plans for which the
    /// synchronous-parity contract applies, and under which the engine
    /// schedules no per-node step events.
    pub fn is_synchronous(&self) -> bool {
        match *self {
            ClockPlan::Uniform => true,
            ClockPlan::Stratified { period, .. } => period == 1,
            ClockPlan::Jittered { max_period } => max_period == 1,
        }
    }

    /// Check the plan is well-formed.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ClockPlan::Uniform => Ok(()),
            ClockPlan::Stratified { every: 0, .. } => {
                Err("stratified clocks need a stride of at least 1".into())
            }
            ClockPlan::Stratified { period: 0, .. } => {
                Err("stratified clocks need a period of at least 1".into())
            }
            ClockPlan::Stratified { .. } => Ok(()),
            ClockPlan::Jittered { max_period: 0 } => {
                Err("jittered clocks need a max period of at least 1".into())
            }
            ClockPlan::Jittered { .. } => Ok(()),
        }
    }

    /// Short stable label (used in engine descriptions and bench reports).
    pub fn describe(&self) -> String {
        match *self {
            ClockPlan::Uniform => "uniform".into(),
            ClockPlan::Stratified { every, period } => format!("strat-{every}x{period}"),
            ClockPlan::Jittered { max_period } => format!("jitter-{max_period}"),
        }
    }
}

/// What kind of event fires; the second component of the total order.
///
/// Within one tick all node steps fire before all deliveries, and the
/// engine's adversary cut and routing happen between the two — the
/// synchronous round pipeline, re-expressed as event classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventClass {
    /// Run one node's protocol step.
    NodeStep,
    /// Complete a deferred envelope delivery.
    Deliver,
}

/// The total order on events: `(time, class, node, seq)`, lexicographic.
///
/// `time` is the virtual tick, `class` the event kind, `node` the owning
/// node (stepping node, or envelope recipient), and `seq` a
/// queue-assigned monotone counter that breaks the remaining ties in
/// first-pushed-first-fired order (it only ever decides between events of
/// the same class on the same node at the same tick — e.g. two envelopes
/// deferred to one recipient — where insertion order is itself
/// deterministic).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Virtual tick at which the event fires.
    pub time: u64,
    /// Event kind (orders the classes within a tick).
    pub class: EventClass,
    /// Owning node (tie-break within a class).
    pub node: u32,
    /// Queue-assigned monotone push counter (final tie-break).
    pub seq: u64,
}

/// One scheduled event.
#[derive(Clone, Debug)]
struct Event<E> {
    class: EventClass,
    node: u32,
    seq: u64,
    payload: E,
}

/// A bucket of events for one tick.
#[derive(Clone, Debug)]
struct TickBucket<E> {
    due: u64,
    items: Vec<Event<E>>,
}

/// Initial ring size (grown on demand, like [`DelayRing`](crate::DelayRing)).
const INITIAL_BUCKETS: usize = 8;

/// Hard cap on the ring: events further out than this window spill into a
/// `BTreeMap` side table, bounding ring memory no matter how far ahead a
/// fault plan defers an envelope.
const MAX_BUCKETS: usize = 4096;

/// A calendar queue of tick-bucketed events with the fixed total order of
/// [`EventKey`]; the discrete-event generalization of
/// [`DelayRing`](crate::DelayRing).
///
/// Buckets are a ring indexed by `tick % capacity` with a far-future
/// overflow side table (same memory discipline as the ring: drained
/// buckets keep their capacity, delays beyond the `MAX_BUCKETS` cap cost
/// O(events), never O(Δ)).  Unlike the ring, drained events come out
/// sorted by `(class, node, seq)` — *not* in insertion order — which is
/// what makes the drain order independent of how same-tick events were
/// interleaved at push time.
#[derive(Debug, Default)]
pub struct CalendarQueue<E> {
    buckets: Vec<TickBucket<E>>,
    overflow: BTreeMap<u64, Vec<Event<E>>>,
    scheduled: usize,
    next_seq: u64,
    /// Reusable sort buffer for class drains (capacity kept).
    drain_scratch: Vec<Event<E>>,
}

impl<E> CalendarQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..INITIAL_BUCKETS)
                .map(|_| TickBucket {
                    due: 0,
                    items: Vec::new(),
                })
                .collect(),
            overflow: BTreeMap::new(),
            scheduled: 0,
            next_seq: 0,
            drain_scratch: Vec::new(),
        }
    }

    /// Events currently scheduled (all classes).
    pub fn scheduled(&self) -> usize {
        self.scheduled
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.scheduled == 0
    }

    fn slot(&self, due: u64) -> usize {
        (due % self.buckets.len() as u64) as usize
    }

    /// Schedule `payload` as a `(time, class, node)` event (the `seq`
    /// component is queue-assigned).
    ///
    /// `time` may equal the tick currently being processed, but classes
    /// already drained for that tick will not see the late event until
    /// their next drain, so callers must only push at the current tick for
    /// classes that have not yet drained.
    ///
    /// # Panics
    ///
    /// Panics if `time < current`.  The ring files events by
    /// `time % capacity`, so an event pushed into the past would land in
    /// a bucket the drain cursor has already passed — silently lost until
    /// the tick counter wraps the ring, which is never.  A past push is
    /// always a caller bug (a mis-derived due tick), and losing an event
    /// would break the engines' determinism contract invisibly, so the
    /// queue refuses loudly instead of filing it as "due now".
    pub fn push(&mut self, current: u64, time: u64, class: EventClass, node: u32, payload: E) {
        assert!(
            time >= current,
            "CalendarQueue::push: event due at tick {time} is in the past \
             (current tick {current}); events cannot fire in the past"
        );
        let event = Event {
            class,
            node,
            seq: self.next_seq,
            payload,
        };
        self.next_seq += 1;
        self.scheduled += 1;
        // A tick that already has overflow items keeps accumulating there
        // (one side per tick keeps the drain complete in one pass).
        if let Some(spilled) = self.overflow.get_mut(&time) {
            spilled.push(event);
            return;
        }
        let window = time - current;
        if window >= MAX_BUCKETS as u64 {
            self.overflow.entry(time).or_default().push(event);
            return;
        }
        if window as usize >= self.buckets.len() {
            self.grow(window as usize + 1);
        }
        loop {
            let slot = self.slot(time);
            let bucket = &mut self.buckets[slot];
            if bucket.items.is_empty() {
                bucket.due = time;
            }
            if bucket.due == time {
                bucket.items.push(event);
                return;
            }
            let doubled = 2 * self.buckets.len();
            if doubled > MAX_BUCKETS {
                self.overflow.entry(time).or_default().push(event);
                return;
            }
            self.grow(doubled);
        }
    }

    /// Move every event of `class` due at `tick` into `out`, sorted by
    /// `(node, seq)` — the [`EventKey`] order restricted to one
    /// `(time, class)` cell.  Events of other classes stay scheduled.
    ///
    /// `out` is cleared first; passing the same scratch vector every call
    /// keeps the drain allocation-free in steady state.
    pub fn drain_class_into(&mut self, tick: u64, class: EventClass, out: &mut Vec<(u32, E)>) {
        out.clear();
        if self.scheduled == 0 {
            return;
        }
        let mut scratch = std::mem::take(&mut self.drain_scratch);
        scratch.clear();
        let slot = self.slot(tick);
        let bucket = &mut self.buckets[slot];
        if bucket.due == tick && !bucket.items.is_empty() {
            extract_class(&mut bucket.items, class, &mut scratch);
        }
        if let Some(spilled) = self.overflow.get_mut(&tick) {
            extract_class(spilled, class, &mut scratch);
            if spilled.is_empty() {
                self.overflow.remove(&tick);
            }
        }
        self.scheduled -= scratch.len();
        scratch.sort_by_key(|e| (e.node, e.seq));
        out.extend(scratch.drain(..).map(|e| (e.node, e.payload)));
        self.drain_scratch = scratch;
    }

    /// Drain *every* event due at `tick`, in full `(class, node, seq)`
    /// order.  This is the order contract the engine's per-class pipeline
    /// refines; the tie-break property test drives the queue through this
    /// entry point.
    pub fn drain_due(&mut self, tick: u64, mut consume: impl FnMut(EventKey, E)) {
        if self.scheduled == 0 {
            return;
        }
        let mut drained: Vec<Event<E>> = Vec::new();
        let slot = self.slot(tick);
        let bucket = &mut self.buckets[slot];
        if bucket.due == tick && !bucket.items.is_empty() {
            drained.append(&mut bucket.items);
        }
        if let Some(spilled) = self.overflow.remove(&tick) {
            drained.extend(spilled);
        }
        self.scheduled -= drained.len();
        drained.sort_by_key(|e| (e.class, e.node, e.seq));
        for e in drained {
            let key = EventKey {
                time: tick,
                class: e.class,
                node: e.node,
                seq: e.seq,
            };
            consume(key, e.payload);
        }
    }

    /// The earliest tick at which any scheduled event fires, or `None`
    /// when the queue is empty.
    ///
    /// One pass over the ring's occupied buckets plus a first-key peek at
    /// the overflow table — O(capacity), not O(events).  Sparse ticking
    /// consults it once per *executed* tick to find the next tick worth
    /// visiting, which is the O(events) shape a dense tick loop lacks.
    pub fn next_event_time(&self) -> Option<u64> {
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

    /// Grow the ring to at least `min_buckets`, re-slotting outstanding
    /// buckets (same policy as [`DelayRing`](crate::DelayRing)).
    fn grow(&mut self, min_buckets: usize) {
        let new_len = min_buckets.next_power_of_two().max(2 * self.buckets.len());
        let old = std::mem::replace(
            &mut self.buckets,
            (0..new_len)
                .map(|_| TickBucket {
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

/// Move every event of `class` out of `items` into `into` (order within
/// `items` is irrelevant — callers sort by key afterwards).
fn extract_class<E>(items: &mut Vec<Event<E>>, class: EventClass, into: &mut Vec<Event<E>>) {
    let mut i = 0;
    while i < items.len() {
        if items[i].class == class {
            into.push(items.swap_remove(i));
        } else {
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_drains_in_class_node_seq_order_regardless_of_insertion_order() {
        // Two insertion permutations of the same same-tick event set must
        // drain identically: the order is the key, not the push history.
        let events = [
            (EventClass::Deliver, 3u32, "d3"),
            (EventClass::NodeStep, 7, "s7"),
            (EventClass::NodeStep, 2, "s2"),
            (EventClass::Deliver, 1, "d1"),
        ];
        let drain = |order: &[usize]| {
            let mut q: CalendarQueue<&'static str> = CalendarQueue::new();
            for &i in order {
                let (class, node, tag) = events[i];
                q.push(0, 5, class, node, tag);
            }
            let mut out = Vec::new();
            q.drain_due(5, |key, tag| out.push((key.class, key.node, tag)));
            assert!(q.is_empty());
            out
        };
        let a = drain(&[0, 1, 2, 3]);
        let b = drain(&[3, 2, 1, 0]);
        assert_eq!(a, b);
        assert_eq!(
            a,
            vec![
                (EventClass::NodeStep, 2, "s2"),
                (EventClass::NodeStep, 7, "s7"),
                (EventClass::Deliver, 1, "d1"),
                (EventClass::Deliver, 3, "d3"),
            ]
        );
    }

    #[test]
    fn queue_seq_preserves_fifo_for_equal_keys() {
        // Two envelopes to the same recipient due the same tick keep their
        // push order — `seq` is the last tie-break.
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(0, 2, EventClass::Deliver, 4, 100);
        q.push(0, 2, EventClass::Deliver, 4, 200);
        let mut out = Vec::new();
        q.drain_due(2, |_, v| out.push(v));
        assert_eq!(out, vec![100, 200]);
    }

    #[test]
    fn queue_far_future_events_take_the_overflow_path() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(0, u64::MAX / 2, EventClass::Deliver, 0, 1);
        q.push(0, 1_000_000_000, EventClass::Deliver, 0, 2);
        q.push(0, 3, EventClass::Deliver, 0, 3);
        assert_eq!(q.scheduled(), 3);
        assert!(q.buckets.len() <= MAX_BUCKETS);
        let mut out = Vec::new();
        q.drain_due(3, |_, v| out.push(v));
        q.drain_due(1_000_000_000, |_, v| out.push(v));
        q.drain_due(u64::MAX / 2, |_, v| out.push(v));
        assert_eq!(out, vec![3, 2, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn queue_class_drains_leave_other_classes_scheduled() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(0, 1, EventClass::NodeStep, 2, 20);
        q.push(0, 1, EventClass::Deliver, 1, 10);
        q.push(0, 1, EventClass::NodeStep, 0, 0);
        let mut scratch = Vec::new();
        q.drain_class_into(1, EventClass::NodeStep, &mut scratch);
        assert_eq!(scratch, vec![(0, 0), (2, 20)]);
        assert_eq!(q.scheduled(), 1, "the deliver event must stay scheduled");
        q.drain_class_into(1, EventClass::Deliver, &mut scratch);
        assert_eq!(scratch.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "events cannot fire in the past")]
    fn queue_rejects_pushes_into_the_past() {
        // Regression: a push with `time < current` used to be silently
        // filed as "due now" (`time.saturating_sub(current)` == 0) into a
        // ring bucket the drain had already passed, losing the event.  The
        // queue must refuse loudly instead.
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        q.push(10, 9, EventClass::Deliver, 0, 1);
    }

    #[test]
    fn queue_next_event_time_tracks_ring_and_overflow() {
        let mut q: CalendarQueue<u32> = CalendarQueue::new();
        assert_eq!(q.next_event_time(), None, "empty queue has no next event");
        // Far-future first: the overflow table alone answers.
        q.push(0, 1_000_000, EventClass::Deliver, 0, 1);
        assert_eq!(q.next_event_time(), Some(1_000_000));
        // A nearer ring event wins the min.
        q.push(0, 7, EventClass::NodeStep, 2, 2);
        assert_eq!(q.next_event_time(), Some(7));
        q.push(0, 3, EventClass::NodeStep, 0, 3);
        assert_eq!(q.next_event_time(), Some(3));
        // Draining the nearest tick advances the answer.
        let mut scratch = Vec::new();
        q.drain_class_into(3, EventClass::NodeStep, &mut scratch);
        assert_eq!(q.next_event_time(), Some(7));
        q.drain_class_into(7, EventClass::NodeStep, &mut scratch);
        assert_eq!(
            q.next_event_time(),
            Some(1_000_000),
            "only the overflow event remains"
        );
        q.drain_class_into(1_000_000, EventClass::Deliver, &mut scratch);
        assert_eq!(q.next_event_time(), None);
    }

    #[test]
    fn clock_plans_resolve_and_validate() {
        assert_eq!(ClockPlan::Uniform.period_of(17, 9), 1);
        assert!(ClockPlan::Uniform.is_synchronous());
        let strat = ClockPlan::Stratified {
            every: 3,
            period: 4,
        };
        assert_eq!(strat.period_of(0, 9), 4);
        assert_eq!(strat.period_of(1, 9), 1);
        assert_eq!(strat.period_of(3, 9), 4);
        assert!(!strat.is_synchronous());
        assert!(strat.validate().is_ok());
        assert!(ClockPlan::Stratified {
            every: 0,
            period: 2
        }
        .validate()
        .is_err());
        assert!(ClockPlan::Stratified {
            every: 2,
            period: 0
        }
        .validate()
        .is_err());
        assert!(ClockPlan::Jittered { max_period: 0 }.validate().is_err());
        let jitter = ClockPlan::Jittered { max_period: 3 };
        assert!(jitter.validate().is_ok());
        for node in 0..50 {
            let p = jitter.period_of(node, 123);
            assert!((1..=3).contains(&p));
            assert_eq!(p, jitter.period_of(node, 123), "seed-deterministic");
        }
        assert!(ClockPlan::Jittered { max_period: 1 }.is_synchronous());
        assert_eq!(ClockPlan::Uniform.describe(), "uniform");
        assert_eq!(strat.describe(), "strat-3x4");
        assert_eq!(jitter.describe(), "jitter-3");
    }
}

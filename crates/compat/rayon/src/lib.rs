//! Offline subset of the `rayon` parallel-iterator API.
//!
//! The workspace builds without crates.io access, so this shim provides the
//! slice of rayon it actually uses: `into_par_iter()` on `usize` ranges and
//! vectors, `map`, and the consumers `collect`, `sum` and `max`, plus
//! [`current_num_threads`].
//!
//! # Execution model
//!
//! Parallelism is implemented with `std::thread::scope`: an iterator chain
//! is recursively split in half and the halves run on scoped threads, with
//! results concatenated **in order** — so any `collect()` is byte-identical
//! to the sequential result and determinism is preserved no matter how the
//! OS schedules threads.
//!
//! Splitting is *coarse-grained by design*: sources split down to
//! `MIN_SPLIT` items, which parallelises the workspace's outer trial, batch
//! and per-node graph loops, where each item is an entire simulation run or
//! a BFS.  The rayon API shape is kept so the code reads identically and a
//! real rayon can be swapped back in when the registry is reachable.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Smallest number of items worth moving to another thread.
const MIN_SPLIT: usize = 2;

/// Programmatic worker-count override (0 = none); see
/// [`set_num_threads_override`].
static NUM_THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the worker count programmatically (shim extension, not part of
/// real rayon's API).  `Some(n)` pins it, `None` restores the default
/// `RAYON_NUM_THREADS` / available-parallelism lookup.
///
/// This exists so tests can vary the worker count without
/// `std::env::set_var`, which races against concurrent `getenv` calls from
/// other test threads (undefined behaviour on glibc).  The override is
/// process-global but data-race-free; since determinism never depends on
/// the worker count, a concurrently running test observing it is harmless.
pub fn set_num_threads_override(n: Option<usize>) {
    NUM_THREADS_OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// Number of worker threads to fan out to.
pub fn current_num_threads() -> usize {
    let overridden = NUM_THREADS_OVERRIDE.load(Ordering::SeqCst);
    if overridden >= 1 {
        return overridden;
    }
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run two closures, potentially in parallel, and return both results.
fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    std::thread::scope(|s| {
        let ha = s.spawn(a);
        let rb = b();
        (ha.join().expect("rayon-shim worker panicked"), rb)
    })
}

/// A parallel iterator: a splittable, sequentially-evaluable pipeline.
pub trait ParallelIterator: Sized + Send {
    /// Item type.
    type Item: Send;

    /// Exact number of items this pipeline will yield.
    fn bound(&self) -> usize;

    /// Try to split into a prefix of `at` items and the remainder.
    /// `Err(self)` when `at` leaves one side empty.
    fn try_split(self, at: usize) -> Result<(Self, Self), Self>;

    /// Evaluate sequentially, preserving order.
    fn seq(self) -> Vec<Self::Item>;

    /// Transform every item.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
        R: Send,
    {
        Map {
            base: self,
            f: Arc::new(f),
        }
    }

    /// Evaluate (in parallel where the pipeline allows) and collect.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_vec(drive(self))
    }

    /// Sum of all items.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item> + Send,
    {
        drive(self).into_iter().sum()
    }

    /// Maximum item.
    fn max(self) -> Option<Self::Item>
    where
        Self::Item: Ord,
    {
        drive(self).into_iter().max()
    }
}

/// Evaluate a pipeline, splitting across scoped threads where profitable.
fn drive<I: ParallelIterator>(iter: I) -> Vec<I::Item> {
    let threads = current_num_threads();
    if threads <= 1 {
        return iter.seq();
    }
    // Enough binary splits to occupy every thread.
    let depth = (usize::BITS - (threads - 1).leading_zeros()) as usize;
    drive_rec(iter, depth + 1)
}

fn drive_rec<I: ParallelIterator>(iter: I, splits_left: usize) -> Vec<I::Item> {
    let n = iter.bound();
    if splits_left == 0 || n < MIN_SPLIT {
        return iter.seq();
    }
    match iter.try_split(n / 2) {
        Err(whole) => whole.seq(),
        Ok((left, right)) => {
            let (mut lv, rv) = join(
                move || drive_rec(left, splits_left - 1),
                move || drive_rec(right, splits_left - 1),
            );
            lv.extend(rv);
            lv
        }
    }
}

/// Conversion from an evaluated parallel pipeline.
pub trait FromParallelIterator<T> {
    /// Build the collection from items in pipeline order.
    fn from_par_vec(items: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_par_vec(items: Vec<T>) -> Self {
        items
    }
}

impl<T, E> FromParallelIterator<Result<T, E>> for Result<Vec<T>, E> {
    fn from_par_vec(items: Vec<Result<T, E>>) -> Self {
        items.into_iter().collect()
    }
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// Parallel iterator over an owned vector (splittable).
pub struct VecParIter<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for VecParIter<T> {
    type Item = T;
    fn bound(&self) -> usize {
        self.items.len()
    }
    fn try_split(mut self, at: usize) -> Result<(Self, Self), Self> {
        if at == 0 || at >= self.items.len() {
            return Err(self);
        }
        let tail = self.items.split_off(at);
        Ok((self, VecParIter { items: tail }))
    }
    fn seq(self) -> Vec<T> {
        self.items
    }
}

/// Parallel iterator over a `usize` range (splittable).
pub struct RangeParIter {
    start: usize,
    end: usize,
}

impl ParallelIterator for RangeParIter {
    type Item = usize;
    fn bound(&self) -> usize {
        self.end.saturating_sub(self.start)
    }
    fn try_split(self, at: usize) -> Result<(Self, Self), Self> {
        if at == 0 || at >= self.bound() {
            return Err(self);
        }
        let mid = self.start + at;
        Ok((
            RangeParIter {
                start: self.start,
                end: mid,
            },
            RangeParIter {
                start: mid,
                end: self.end,
            },
        ))
    }
    fn seq(self) -> Vec<usize> {
        (self.start..self.end).collect()
    }
}

// ---------------------------------------------------------------------------
// Adapters
// ---------------------------------------------------------------------------

/// Mapped pipeline.
pub struct Map<I, F: ?Sized> {
    base: I,
    f: Arc<F>,
}

impl<I, R, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    F: Fn(I::Item) -> R + Sync + Send + ?Sized,
    R: Send,
{
    type Item = R;
    fn bound(&self) -> usize {
        self.base.bound()
    }
    fn try_split(self, at: usize) -> Result<(Self, Self), Self> {
        match self.base.try_split(at) {
            Ok((a, b)) => Ok((
                Map {
                    base: a,
                    f: Arc::clone(&self.f),
                },
                Map { base: b, f: self.f },
            )),
            Err(base) => Err(Map { base, f: self.f }),
        }
    }
    fn seq(self) -> Vec<R> {
        let f = self.f;
        self.base.seq().into_iter().map(|x| f(x)).collect()
    }
}

// ---------------------------------------------------------------------------
// Entry-point traits
// ---------------------------------------------------------------------------

/// Owned conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Pipeline type.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Convert.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecParIter<T>;
    fn into_par_iter(self) -> Self::Iter {
        VecParIter { items: self }
    }
}

impl IntoParallelIterator for core::ops::Range<usize> {
    type Item = usize;
    type Iter = RangeParIter;
    fn into_par_iter(self) -> Self::Iter {
        RangeParIter {
            start: self.start,
            end: self.end,
        }
    }
}

/// The usual glob import.
pub mod prelude {
    pub use crate::{FromParallelIterator, IntoParallelIterator, ParallelIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn range_map_collect_matches_sequential() {
        let par: Vec<usize> = (0..1000).into_par_iter().map(|x| x * x).collect();
        let seq: Vec<usize> = (0..1000).map(|x| x * x).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn order_is_preserved_under_heavy_split() {
        let v: Vec<usize> = (0..10_000usize).collect();
        let out: Vec<usize> = v.into_par_iter().map(|x| x + 1).collect();
        assert!(out.windows(2).all(|w| w[1] == w[0] + 1));
        assert_eq!(out[0], 1);
    }

    #[test]
    fn map_sum_max() {
        let sum: f64 = (0..100).into_par_iter().map(|x| x as f64).sum();
        assert_eq!(sum, 4950.0);
        assert_eq!((0..9).into_par_iter().max(), Some(8));
        assert_eq!((0..0).into_par_iter().max(), None);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = super::join(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
    }

    #[test]
    fn collect_into_result_short_circuits_errors() {
        let ok: Result<Vec<usize>, String> = (0..10).into_par_iter().map(Ok).collect();
        assert_eq!(ok.unwrap().len(), 10);
        let err: Result<Vec<usize>, String> = (0..10)
            .into_par_iter()
            .map(|x| {
                if x == 5 {
                    Err("boom".to_string())
                } else {
                    Ok(x)
                }
            })
            .collect();
        assert!(err.is_err());
    }
}

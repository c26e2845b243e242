//! Lookups of a node id in a sorted neighbour row.
//!
//! A row is an ascending slice of node ids, such as a [`Csr`](crate::Csr)
//! row; a multigraph row may repeat an id.  Each lookup is one
//! `partition_point` over the row, so it costs O(log deg) and keeps no
//! state between queries.  The engines' edge test, the counting node's
//! audit and relay lookups and discovery's id-to-position map all use
//! these, so every reader of a position agrees on which one an id maps to.
//!
//! ```
//! use netsim_graph::row;
//!
//! let r = [1, 3, 3, 7];
//! assert_eq!(row::positions(&r, 3), 1..3);
//! assert_eq!(row::first(&r, 3), Some(1));
//! assert_eq!(row::last(&r, 3), Some(2));
//! assert!(row::contains(&r, 7) && !row::contains(&r, 5));
//! assert_eq!(row::positions(&r, 9), 4..4); // absent: empty at its place
//! ```

use std::ops::Range;

/// The positions of `id` in `row`: an empty range at the place `id` would
/// go when the row does not hold it.
#[inline]
pub fn positions(row: &[u32], id: u32) -> Range<usize> {
    let first = row.partition_point(|&x| x < id);
    let repeats = row[first..].iter().take_while(|&&x| x == id).count();
    first..first + repeats
}

/// The first position of `id` in `row`.
#[inline]
pub fn first(row: &[u32], id: u32) -> Option<usize> {
    let at = row.partition_point(|&x| x < id);
    (row.get(at) == Some(&id)).then_some(at)
}

/// The last position of `id` in `row`.
#[inline]
pub fn last(row: &[u32], id: u32) -> Option<usize> {
    let end = row.partition_point(|&x| x <= id);
    (end > 0 && row[end - 1] == id).then(|| end - 1)
}

/// Whether `row` holds `id`.
#[inline]
pub fn contains(row: &[u32], id: u32) -> bool {
    first(row, id).is_some()
}

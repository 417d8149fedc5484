//! SpaceSaving heavy-hitter sketch (Metwally et al.).
//!
//! The offline collapse rule needs per-node totals, which means holding
//! every node in memory. The streaming tier instead tracks only the top-k
//! heavy hitters with bounded error: any item whose true weight exceeds
//! `total_weight / capacity` is guaranteed to be tracked. This is the
//! "focus on the heavy hitters" mitigation of §3.2.

use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;

/// A tracked item with its estimated weight and error bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry<T> {
    /// The item.
    pub item: T,
    /// Estimated weight; never less than the true weight.
    pub count: u64,
    /// Maximum overestimation: `count − error ≤ true ≤ count`.
    pub error: u64,
}

/// SpaceSaving sketch with a fixed number of counters.
///
/// ```
/// use analytics::SpaceSaving;
///
/// let mut ss = SpaceSaving::new(8);
/// ss.insert("elephant".to_string(), 1_000);
/// for i in 0..100u32 { ss.insert(i.to_string(), 1); }
/// assert_eq!(ss.top(1)[0].item, "elephant");
/// ```
#[derive(Debug, Clone)]
pub struct SpaceSaving<T: Hash + Eq + Ord + Clone> {
    capacity: usize,
    counters: HashMap<T, (u64, u64)>, // item -> (count, error)
    /// Count-ordered mirror of `counters`, so the eviction victim (minimum
    /// count) is the first element — O(log n) per update instead of a full
    /// scan per eviction, which dominates on high-cardinality streams.
    order: BTreeSet<(u64, T)>,
    total: u64,
}

impl<T: Hash + Eq + Ord + Clone> SpaceSaving<T> {
    /// Sketch holding at most `capacity` counters.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        SpaceSaving {
            capacity,
            counters: HashMap::with_capacity(capacity),
            order: BTreeSet::new(),
            total: 0,
        }
    }

    /// Total weight offered so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of counters in use.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Offer `weight` for `item`.
    pub fn insert(&mut self, item: T, weight: u64) {
        self.total += weight;
        if let Some((c, _)) = self.counters.get_mut(&item) {
            let old = *c;
            *c += weight;
            let new = *c;
            self.order.remove(&(old, item.clone()));
            self.order.insert((new, item));
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.insert(item.clone(), (weight, 0));
            self.order.insert((weight, item));
            return;
        }
        // Evict the minimum counter; the newcomer inherits its count as
        // the error bound. A zero-capacity sketch has nothing to evict —
        // drop the item (it still counts toward `total`).
        let Some((min_count, min_item)) = self.order.pop_first() else {
            return;
        };
        self.counters.remove(&min_item);
        self.counters.insert(item.clone(), (min_count + weight, min_count));
        self.order.insert((min_count + weight, item));
    }

    /// The top `k` entries by estimated weight, descending.
    pub fn top(&self, k: usize) -> Vec<Entry<T>> {
        let mut v: Vec<Entry<T>> = self
            .counters
            .iter()
            .map(|(item, (count, error))| Entry {
                item: item.clone(),
                count: *count,
                error: *error,
            })
            .collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.count));
        v.truncate(k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_when_under_capacity() {
        let mut s = SpaceSaving::new(10);
        for i in 0..5u32 {
            s.insert(i, (i as u64 + 1) * 10);
        }
        let top = s.top(5);
        assert_eq!(top[0].item, 4);
        assert_eq!(top[0].count, 50);
        assert!(top.iter().all(|e| e.error == 0), "no eviction, no error");
    }

    #[test]
    fn heavy_hitters_survive_eviction_pressure() {
        let mut s = SpaceSaving::new(16);
        // Two elephants in a stream of 2000 mice.
        for round in 0..100u64 {
            s.insert(0u32, 1000);
            s.insert(1u32, 800);
            for m in 0..20u32 {
                s.insert(1000 + (round as u32 * 20 + m) % 500, 1);
            }
        }
        let top = s.top(2);
        let items: Vec<u32> = top.iter().map(|e| e.item).collect();
        assert!(items.contains(&0) && items.contains(&1), "elephants tracked: {items:?}");
        // SpaceSaving guarantee: estimate >= true weight.
        assert!(top.iter().find(|e| e.item == 0).unwrap().count >= 100_000);
    }

    #[test]
    fn count_bounds_hold() {
        let mut s = SpaceSaving::new(4);
        let true_weight_of_7 = 500u64;
        s.insert(7u32, true_weight_of_7);
        for i in 0..100u32 {
            s.insert(i + 100, 10);
        }
        if let Some(e) = s.top(4).into_iter().find(|e| e.item == 7) {
            assert!(e.count >= true_weight_of_7, "never underestimates");
            assert!(e.count - e.error <= true_weight_of_7, "lower bound holds");
        }
    }

    #[test]
    fn total_tracks_all_weight() {
        let mut s = SpaceSaving::new(2);
        s.insert(1u8, 5);
        s.insert(2u8, 5);
        s.insert(3u8, 5);
        assert_eq!(s.total(), 15, "evicted weight still counted in total");
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        SpaceSaving::<u32>::new(0);
    }
}

//! Planning primitives shared by the batch planner, the dictionary
//! planner, and the router's affinity planner.
//!
//! Three schedulers in this crate make the same move: put work of
//! similar pattern length next to each other so that one long pattern
//! cannot inflate the `kmax` (and therefore the per-character cost) of
//! every lane it shares a batch with. `plan_batches` buckets the pool
//! of small pattern groups before cutting it into mixed batches (the
//! sort is stable, so each group's jobs stay contiguous and a mixed
//! batch looks each pattern up once), `PatternDictionary::new` buckets
//! trie survivors before cutting resident groups, and the
//! [`Router`](crate::shard::Router) buckets pattern groups before
//! spreading them across shards. All three call [`bucket_by_len`] so
//! the discipline — a *stable* ascending sort, preserving first-seen
//! order inside each length class — is written exactly once.

/// Stable-sorts `items` ascending by `len_of`, the length-bucketing
/// pass every planner in this crate applies before cutting work into
/// lane-sized groups.
///
/// Stability is the load-bearing part of the contract: equal-length
/// items keep their prior order, so the dictionary's prefix-adjacent
/// trie walk and the batch planner's first-seen job order survive
/// bucketing.
///
/// ```
/// use pm_chip::plan::bucket_by_len;
///
/// let mut words = vec!["bb", "a", "cc", "dddd", "e"];
/// bucket_by_len(&mut words, |w| w.len());
/// // Ascending by length; "bb" still precedes "cc", "a" precedes "e".
/// assert_eq!(words, vec!["a", "e", "bb", "cc", "dddd"]);
/// ```
pub fn bucket_by_len<T>(items: &mut [T], len_of: impl FnMut(&T) -> usize) {
    items.sort_by_key(len_of);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_stable_within_a_length_class() {
        let mut items = vec![(3, 'a'), (1, 'b'), (3, 'c'), (1, 'd'), (2, 'e')];
        bucket_by_len(&mut items, |&(len, _)| len);
        assert_eq!(
            items,
            vec![(1, 'b'), (1, 'd'), (2, 'e'), (3, 'a'), (3, 'c')]
        );
    }
}

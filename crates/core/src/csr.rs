//! Compressed-row grouping: the layout the sealed region's class buckets
//! and the optimizer's DAG adjacency share. Each group is one slice of a
//! flat value array, found through an offset array, so grouping `n`
//! items costs two arrays instead of one vector per group.

/// Groups `(key, value)` items by key, keeping their order within a key:
/// `start[k]..start[k + 1]` indexes key `k`'s values in `values`. One
/// counting pass and one scatter, into the reused `start` and `values`.
///
/// # Panics
/// Panics if an item's key is not below `keys`.
pub fn group_by_key<T: Copy + Default>(
    keys: usize,
    items: &[(u32, T)],
    start: &mut Vec<u32>,
    values: &mut Vec<T>,
) {
    start.clear();
    start.resize(keys + 1, 0);
    for &(k, _) in items {
        start[k as usize + 1] += 1;
    }
    for k in 0..keys {
        start[k + 1] += start[k];
    }
    values.clear();
    values.resize(items.len(), T::default());
    // Scatter with `start[k]` as key `k`'s cursor; each cursor ends at
    // the next key's start, so shifting restores the offsets.
    for &(k, v) in items {
        let at = &mut start[k as usize];
        values[*at as usize] = v;
        *at += 1;
    }
    start.copy_within(0..keys, 1);
    start[0] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_keep_item_order_within_a_key() {
        let items = [(2, 'a'), (0, 'b'), (2, 'c'), (0, 'd'), (1, 'e')];
        let (mut start, mut values) = (Vec::new(), Vec::new());
        group_by_key(4, &items, &mut start, &mut values);
        assert_eq!(start, [0, 2, 3, 5, 5]);
        assert_eq!(values, ['b', 'd', 'e', 'a', 'c']);
        group_by_key(0, &[], &mut start, &mut values);
        assert_eq!(start, [0]);
        assert!(values.is_empty());
    }
}

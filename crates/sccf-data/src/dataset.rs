//! Implicit-feedback dataset with chronological per-user sequences.
//!
//! The paper's preprocessing (§IV-A.1): all numeric ratings / review
//! presence become a "1", items with fewer than 5 actions are dropped,
//! then users with fewer than 5 actions are dropped (applied once more to
//! guarantee every kept user has enough interactions). [`Dataset::core_filter`]
//! implements that pipeline with id re-compaction; [`Dataset::stats`]
//! reproduces the columns of Table I.

use sccf_util::hash::{fx_map, FxHashSet};

/// One implicit-feedback event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interaction {
    pub user: u32,
    pub item: u32,
    /// Coarse event time; the synthetic generator uses day indices.
    pub ts: i64,
}

/// The Table I columns.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    pub n_users: usize,
    pub n_items: usize,
    pub n_actions: usize,
    pub avg_length: f64,
    /// n_actions / (n_users · n_items).
    pub density: f64,
}

/// A preprocessed dataset: dense user/item ids, chronological sequences.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub name: String,
    n_items: usize,
    /// Per-user item sequence in interaction order.
    sequences: Vec<Vec<u32>>,
    /// Per-user event timestamps, aligned with `sequences`.
    timestamps: Vec<Vec<i64>>,
    /// Item id → category id (0 when no category information exists).
    item_category: Vec<u32>,
    n_categories: usize,
}

impl Dataset {
    /// Build from raw interactions. Events are sorted by `(ts, input
    /// order)` per user, so ties preserve arrival order. User/item ids
    /// must already be dense (`0..n`); the loader and generator guarantee
    /// this, and `core_filter` re-compacts after dropping.
    pub fn from_interactions(
        name: impl Into<String>,
        n_users: usize,
        n_items: usize,
        interactions: &[Interaction],
        item_category: Option<Vec<u32>>,
    ) -> Self {
        let mut seqs: Vec<Vec<(i64, usize, u32)>> = vec![Vec::new(); n_users];
        for (order, it) in interactions.iter().enumerate() {
            assert!((it.user as usize) < n_users, "user id out of range");
            assert!((it.item as usize) < n_items, "item id out of range");
            seqs[it.user as usize].push((it.ts, order, it.item));
        }
        let mut sequences = Vec::with_capacity(n_users);
        let mut timestamps = Vec::with_capacity(n_users);
        for mut s in seqs {
            s.sort_unstable_by_key(|&(ts, order, _)| (ts, order));
            timestamps.push(s.iter().map(|&(ts, _, _)| ts).collect());
            sequences.push(s.into_iter().map(|(_, _, item)| item).collect());
        }
        let item_category = item_category.unwrap_or_else(|| vec![0; n_items]);
        assert_eq!(item_category.len(), n_items, "category table length");
        let n_categories = item_category
            .iter()
            .copied()
            .max()
            .map_or(1, |m| m as usize + 1);
        Self {
            name: name.into(),
            n_items,
            sequences,
            timestamps,
            item_category,
            n_categories,
        }
    }

    pub fn n_users(&self) -> usize {
        self.sequences.len()
    }

    pub fn n_items(&self) -> usize {
        self.n_items
    }

    pub fn n_categories(&self) -> usize {
        self.n_categories
    }

    pub fn n_actions(&self) -> usize {
        self.sequences.iter().map(Vec::len).sum()
    }

    /// Chronological item sequence `S_u`.
    pub fn sequence(&self, user: u32) -> &[u32] {
        &self.sequences[user as usize]
    }

    /// Event timestamps aligned with [`Dataset::sequence`].
    pub fn times(&self, user: u32) -> &[i64] {
        &self.timestamps[user as usize]
    }

    pub fn category_of(&self, item: u32) -> u32 {
        self.item_category[item as usize]
    }

    /// The interacted-item set `R⁺_u` as a hash set.
    pub fn positive_set(&self, user: u32) -> FxHashSet<u32> {
        self.sequences[user as usize].iter().copied().collect()
    }

    /// Per-item interaction counts (popularity).
    pub fn item_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.n_items];
        for s in &self.sequences {
            for &i in s {
                counts[i as usize] += 1;
            }
        }
        counts
    }

    /// Table I statistics.
    pub fn stats(&self) -> DatasetStats {
        let n_users = self.n_users();
        let n_items = self.n_items;
        let n_actions = self.n_actions();
        DatasetStats {
            n_users,
            n_items,
            n_actions,
            avg_length: if n_users == 0 {
                0.0
            } else {
                n_actions as f64 / n_users as f64
            },
            density: if n_users == 0 || n_items == 0 {
                0.0
            } else {
                n_actions as f64 / (n_users as f64 * n_items as f64)
            },
        }
    }

    /// The paper's 5-core preprocessing: drop items with fewer than
    /// `min_count` actions, then drop users with fewer than `min_count`
    /// actions, repeated until stable (the paper applies the user filter
    /// twice; running to fixpoint subsumes that), then re-compact ids.
    pub fn core_filter(&self, min_count: usize) -> Dataset {
        let mut keep_item = vec![true; self.n_items];
        let mut keep_user = vec![true; self.n_users()];
        loop {
            let mut changed = false;
            // item pass
            let mut item_counts = vec![0usize; self.n_items];
            for (u, s) in self.sequences.iter().enumerate() {
                if !keep_user[u] {
                    continue;
                }
                for &i in s {
                    if keep_item[i as usize] {
                        item_counts[i as usize] += 1;
                    }
                }
            }
            for (i, &c) in item_counts.iter().enumerate() {
                if keep_item[i] && c < min_count {
                    keep_item[i] = false;
                    changed = true;
                }
            }
            // user pass
            for (u, s) in self.sequences.iter().enumerate() {
                if !keep_user[u] {
                    continue;
                }
                let len = s.iter().filter(|&&i| keep_item[i as usize]).count();
                if len < min_count {
                    keep_user[u] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // id compaction
        let mut item_map = fx_map();
        let mut new_categories = Vec::new();
        for (i, &k) in keep_item.iter().enumerate() {
            if k {
                item_map.insert(i as u32, item_map.len() as u32);
                new_categories.push(self.item_category[i]);
            }
        }
        let mut interactions = Vec::new();
        let mut new_user = 0u32;
        for (u, s) in self.sequences.iter().enumerate() {
            if !keep_user[u] {
                continue;
            }
            for (pos, &i) in s.iter().enumerate() {
                if let Some(&ni) = item_map.get(&i) {
                    interactions.push(Interaction {
                        user: new_user,
                        item: ni,
                        ts: self.timestamps[u][pos],
                    });
                }
            }
            new_user += 1;
        }
        Dataset::from_interactions(
            self.name.clone(),
            new_user as usize,
            item_map.len(),
            &interactions,
            Some(new_categories),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        // user 0: items 0,1,2 ; user 1: items 1,2 ; user 2: item 3
        let inter = vec![
            Interaction {
                user: 0,
                item: 2,
                ts: 3,
            },
            Interaction {
                user: 0,
                item: 0,
                ts: 1,
            },
            Interaction {
                user: 0,
                item: 1,
                ts: 2,
            },
            Interaction {
                user: 1,
                item: 1,
                ts: 1,
            },
            Interaction {
                user: 1,
                item: 2,
                ts: 2,
            },
            Interaction {
                user: 2,
                item: 3,
                ts: 1,
            },
        ];
        Dataset::from_interactions("toy", 3, 4, &inter, Some(vec![0, 0, 1, 1]))
    }

    #[test]
    fn sequences_sorted_by_time() {
        let d = toy();
        assert_eq!(d.sequence(0), &[0, 1, 2]);
        assert_eq!(d.times(0), &[1, 2, 3]);
        assert_eq!(d.sequence(1), &[1, 2]);
    }

    #[test]
    fn ties_keep_input_order() {
        let inter = vec![
            Interaction {
                user: 0,
                item: 5,
                ts: 7,
            },
            Interaction {
                user: 0,
                item: 3,
                ts: 7,
            },
        ];
        let d = Dataset::from_interactions("t", 1, 6, &inter, None);
        assert_eq!(d.sequence(0), &[5, 3]);
    }

    #[test]
    fn stats_match_hand_count() {
        let d = toy();
        let s = d.stats();
        assert_eq!(s.n_users, 3);
        assert_eq!(s.n_items, 4);
        assert_eq!(s.n_actions, 6);
        assert!((s.avg_length - 2.0).abs() < 1e-12);
        assert!((s.density - 6.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn positive_set_and_popularity() {
        let d = toy();
        let ps = d.positive_set(0);
        assert!(ps.contains(&0) && ps.contains(&1) && ps.contains(&2));
        assert!(!ps.contains(&3));
        assert_eq!(d.item_counts(), vec![1, 2, 2, 1]);
    }

    #[test]
    fn core_filter_drops_and_compacts() {
        let d = toy();
        // min_count 2: items 0,3 die (1 action each); user 2 dies (empty);
        // user 0 keeps [1,2], user 1 keeps [1,2].
        let f = d.core_filter(2);
        assert_eq!(f.n_users(), 2);
        assert_eq!(f.n_items(), 2);
        assert_eq!(f.sequence(0), &[0, 1]); // old items 1,2 compacted
        assert_eq!(f.n_actions(), 4);
        // category of old item 1 was 0, old item 2 was 1
        assert_eq!(f.category_of(0), 0);
        assert_eq!(f.category_of(1), 1);
    }

    #[test]
    fn core_filter_cascades_to_fixpoint() {
        // chain: user 1 only touches item that survives through user 0
        let inter = vec![
            Interaction {
                user: 0,
                item: 0,
                ts: 1,
            },
            Interaction {
                user: 0,
                item: 1,
                ts: 2,
            },
            Interaction {
                user: 1,
                item: 1,
                ts: 1,
            },
        ];
        let d = Dataset::from_interactions("c", 2, 2, &inter, None);
        // min_count 2: item 0 has 1 action -> dies; user 0 falls to 1 -> dies;
        // item 1 falls to 1 -> dies; user 1 dies. Everything gone.
        let f = d.core_filter(2);
        assert_eq!(f.n_users(), 0);
        assert_eq!(f.n_items(), 0);
        assert_eq!(f.n_actions(), 0);
    }

    #[test]
    fn categories_default_to_single() {
        let d = Dataset::from_interactions(
            "nc",
            1,
            2,
            &[Interaction {
                user: 0,
                item: 0,
                ts: 0,
            }],
            None,
        );
        assert_eq!(d.n_categories(), 1);
        assert_eq!(d.category_of(1), 0);
    }
}

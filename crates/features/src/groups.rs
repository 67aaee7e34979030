//! Select-time feature groups: the vector's 70 slots partitioned by
//! what it costs to compute them, so selection can pay only for the
//! slots its trees read (see `DESIGN.md` §9).
//!
//! | group | slots | cost |
//! |---|---|---|
//! | [`FeatureGroup::Size`] | sizes, host features | O(1) |
//! | [`FeatureGroup::Means`] | `mean_T` = nnz/K², `mean_RB`, `mean_CB` = nnz/K | O(1) |
//! | [`FeatureGroup::RStats`] | the 8 R statistics | `row_ptr` differences |
//! | [`FeatureGroup::CStats`] | the 8 C statistics | column histogram |
//! | [`FeatureGroup::Tiles`] | T/RB/CB statistics other than the means | row sweep |
//! | [`FeatureGroup::RowIncidence`] | row-side `uniq`/`potReuse` | row sweep levels |
//! | [`FeatureGroup::ColIncidence`] | column-side `uniq`/`potReuse` | transpose + mirrored sweep |

use crate::vector::N_FEATURES;

/// First slot of the 8 statistics of distribution `d` (R, C, T, RB, CB
/// = 0..5); the mean is its first statistic.
pub(crate) const fn dist_base(d: usize) -> usize {
    3 + 8 * d
}
/// First of the 24 locality slots.
pub(crate) const LOC_BASE: usize = dist_base(5);
/// First of the 3 trailing host slots.
pub(crate) const HOST_BASE: usize = LOC_BASE + 24;

/// One select-time extraction group; see the module table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureGroup {
    Size,
    Means,
    RStats,
    CStats,
    Tiles,
    RowIncidence,
    ColIncidence,
}

impl FeatureGroup {
    /// Every group, cheapest first.
    pub const ALL: [FeatureGroup; 7] = [
        FeatureGroup::Size,
        FeatureGroup::Means,
        FeatureGroup::RStats,
        FeatureGroup::CStats,
        FeatureGroup::Tiles,
        FeatureGroup::RowIncidence,
        FeatureGroup::ColIncidence,
    ];

    /// The group computing vector slot `i`.
    pub const fn of_slot(i: usize) -> FeatureGroup {
        assert!(i < N_FEATURES, "feature slot out of range");
        if i < dist_base(0) || i >= HOST_BASE {
            FeatureGroup::Size
        } else if i < dist_base(1) {
            FeatureGroup::RStats
        } else if i < dist_base(2) {
            FeatureGroup::CStats
        } else if i < LOC_BASE {
            if (i - dist_base(2)).is_multiple_of(8) {
                FeatureGroup::Means
            } else {
                FeatureGroup::Tiles
            }
        } else {
            // Locality layout: uniqR, uniqC, 5 GrX_uniqR, 5 GrX_uniqC,
            // then the same 12 for potReuse.
            let j = (i - LOC_BASE) % 12;
            if j == 0 || (j >= 2 && j < 7) {
                FeatureGroup::RowIncidence
            } else {
                FeatureGroup::ColIncidence
            }
        }
    }

    /// The slots this group computes.
    pub const fn slots(self) -> FeatureSet {
        FeatureSet(GROUP_MASKS[self as usize])
    }
}

/// Slot mask of each group, in [`FeatureGroup`] declaration order.
const GROUP_MASKS: [u128; 7] = {
    let mut masks = [0u128; 7];
    let mut i = 0;
    while i < N_FEATURES {
        masks[FeatureGroup::of_slot(i) as usize] |= 1 << i;
        i += 1;
    }
    masks
};

/// A set of feature-vector slots (a 70-bit mask).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureSet(u128);

impl FeatureSet {
    pub const ALL: FeatureSet = FeatureSet((1u128 << N_FEATURES) - 1);

    /// The set of the given slots; panics on a slot `>= N_FEATURES`.
    pub fn from_slots(slots: impl IntoIterator<Item = usize>) -> FeatureSet {
        FeatureSet(slots.into_iter().fold(0, |bits, i| {
            assert!(i < N_FEATURES, "feature slot {i} out of range");
            bits | 1 << i
        }))
    }

    pub fn contains(self, i: usize) -> bool {
        i < N_FEATURES && self.0 >> i & 1 == 1
    }

    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The slots, ascending.
    pub fn slots(self) -> impl Iterator<Item = usize> {
        (0..N_FEATURES).filter(move |&i| self.contains(i))
    }

    /// Whether any slot of `group` is in the set, i.e. whether
    /// extracting this set must compute `group`.
    pub fn touches(self, group: FeatureGroup) -> bool {
        self.0 & group.slots().0 != 0
    }

    /// The groups extracting this set computes, cheapest first.
    pub fn groups(self) -> impl Iterator<Item = FeatureGroup> {
        FeatureGroup::ALL.into_iter().filter(move |&g| self.touches(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureVector;

    fn group_of(name: &str) -> FeatureGroup {
        FeatureGroup::of_slot(FeatureVector::name_index(name).unwrap())
    }

    #[test]
    fn groups_partition_the_vector() {
        for i in 0..N_FEATURES {
            let owners: Vec<FeatureGroup> =
                FeatureGroup::ALL.into_iter().filter(|g| g.slots().contains(i)).collect();
            assert_eq!(owners, [FeatureGroup::of_slot(i)], "slot {i}");
        }
        let sizes: Vec<usize> = FeatureGroup::ALL.iter().map(|g| g.slots().len()).collect();
        assert_eq!(sizes, [6, 3, 8, 8, 21, 12, 12]);
    }

    #[test]
    fn named_slots_land_in_their_groups() {
        use FeatureGroup::*;
        for (name, g) in [
            ("n_rows", Size),
            ("nnz", Size),
            ("host_interleave", Size),
            ("mean_T", Means),
            ("mean_RB", Means),
            ("mean_CB", Means),
            ("p_R", RStats),
            ("ne_C", CStats),
            ("gini_T", Tiles),
            ("std_RB", Tiles),
            ("ne_CB", Tiles),
            ("uniqR", RowIncidence),
            ("Gr64_uniqR", RowIncidence),
            ("potReuseR", RowIncidence),
            ("Gr4_potReuseR", RowIncidence),
            ("uniqC", ColIncidence),
            ("Gr4_uniqC", ColIncidence),
            ("potReuseC", ColIncidence),
            ("Gr64_potReuseC", ColIncidence),
        ] {
            assert_eq!(group_of(name), g, "{name}");
        }
    }

    #[test]
    fn set_operations() {
        let s = FeatureSet::from_slots([2, 19, 69]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(19) && !s.contains(20) && !s.contains(500));
        assert_eq!(s.slots().collect::<Vec<_>>(), [2, 19, 69]);
        let groups: Vec<FeatureGroup> = s.groups().collect();
        assert_eq!(groups, [FeatureGroup::Size, FeatureGroup::Means]);
        assert_eq!(FeatureSet::ALL.groups().count(), 7);
        assert_eq!(FeatureSet::from_slots([]).groups().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_slots_rejects_out_of_range() {
        FeatureSet::from_slots([N_FEATURES]);
    }
}

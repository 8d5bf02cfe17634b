//! The `manage_oversubscription` step of Algorithm 1.
//!
//! The placement algorithm assigns one communicating entity per leaf of the
//! topology tree.  When the application creates more threads than there are
//! processing units, the paper's extension adds a virtual level below the
//! leaves so that the tree has enough (virtual) resources; several threads
//! then end up mapped to the same physical PU.

use orwl_topo::topology::TreeShape;

/// Result of the oversubscription analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OversubPlan {
    /// The (possibly extended) tree shape the grouping loop should use.
    pub shape: TreeShape,
    /// Number of virtual leaves attached below each physical leaf
    /// (1 = no oversubscription).
    pub factor: usize,
}

impl OversubPlan {
    /// Maps a virtual leaf index (0-based, left-to-right over the extended
    /// tree) back to the physical leaf index it lives under.
    pub fn physical_leaf(&self, virtual_leaf: usize) -> usize {
        virtual_leaf / self.factor
    }
}

/// Compares the number of entities to place with the number of leaves and,
/// when needed, extends the tree with a virtual level so that
/// `shape.leaves() >= entities` (the paper's step 2).
///
/// # Panics
/// Panics when `entities == 0` would make the plan meaningless — the caller
/// (Algorithm 1) never invokes it with an empty matrix.
pub fn manage_oversubscription(shape: &TreeShape, entities: usize) -> OversubPlan {
    assert!(entities > 0, "cannot plan a placement for zero entities");
    let leaves = shape.leaves();
    if entities <= leaves {
        return OversubPlan { shape: shape.clone(), factor: 1 };
    }
    let factor = entities.div_ceil(leaves);
    OversubPlan { shape: shape.with_extra_level(factor), factor }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_extension_when_entities_fit() {
        let shape = TreeShape::new(vec![2, 4]); // 8 leaves
        let plan = manage_oversubscription(&shape, 8);
        assert_eq!(plan.factor, 1);
        assert_eq!(plan.shape, shape);
        assert_eq!(plan.physical_leaf(5), 5);

        let plan_small = manage_oversubscription(&shape, 3);
        assert_eq!(plan_small.factor, 1);
    }

    #[test]
    fn extension_factor_is_ceiling() {
        let shape = TreeShape::new(vec![2, 4]); // 8 leaves
                                                // 9..16 entities need factor 2, 17..24 need factor 3.
        let plan9 = manage_oversubscription(&shape, 9);
        assert_eq!(plan9.factor, 2);
        assert_eq!(plan9.shape.leaves(), 16);
        assert_eq!(plan9.shape.arities, vec![2, 4, 2]);

        let plan17 = manage_oversubscription(&shape, 17);
        assert_eq!(plan17.factor, 3);
        assert_eq!(plan17.shape.leaves(), 24);
    }

    #[test]
    fn virtual_to_physical_leaf_mapping() {
        let shape = TreeShape::new(vec![4]); // 4 leaves
        let plan = manage_oversubscription(&shape, 8); // factor 2
        assert_eq!(plan.physical_leaf(0), 0);
        assert_eq!(plan.physical_leaf(1), 0);
        assert_eq!(plan.physical_leaf(2), 1);
        assert_eq!(plan.physical_leaf(7), 3);
    }

    #[test]
    fn exact_multiple_boundary() {
        let shape = TreeShape::new(vec![4]); // 4 leaves
        assert_eq!(manage_oversubscription(&shape, 4).factor, 1);
        assert_eq!(manage_oversubscription(&shape, 5).factor, 2);
        assert_eq!(manage_oversubscription(&shape, 8).factor, 2);
        assert_eq!(manage_oversubscription(&shape, 9).factor, 3);
    }

    #[test]
    #[should_panic]
    fn zero_entities_panics() {
        manage_oversubscription(&TreeShape::new(vec![2]), 0);
    }
}

//! Topology objects: the nodes of the hardware tree.
//!
//! Mirrors HWLOC's `hwloc_obj_t`: every object has a type (machine, NUMA
//! node, package, cache, core, processing unit…), a cpuset describing which
//! PUs it spans, and tree links expressed as indices into the owning
//! [`Topology`](crate::topology::Topology) arena.

use crate::bitmap::CpuSet;
use std::fmt;

/// Identifier of an object inside its [`Topology`](crate::topology::Topology)
/// arena.  Stable for the lifetime of the topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub(crate) u32);

impl ObjId {
    /// Raw arena index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ObjId({})", self.0)
    }
}

/// The kind of hardware resource an object describes.
///
/// The ordering of the variants follows the usual containment order of a
/// NUMA machine, from the whole machine down to a single hardware thread
/// (processing unit, "PU" in HWLOC parlance).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ObjectType {
    /// The whole shared-memory machine (root of the tree).
    Machine,
    /// An arbitrary grouping level (e.g. a board or a processor group).
    Group,
    /// A NUMA node: memory plus the cores with local access to it.
    NumaNode,
    /// A physical processor package (socket).
    Package,
    /// Level-3 cache, usually shared by the cores of a package or die.
    L3Cache,
    /// Level-2 cache, usually private per core or shared by a pair.
    L2Cache,
    /// Level-1 cache, private per core.
    L1Cache,
    /// A physical core (may expose several hardware threads).
    Core,
    /// A processing unit: one hardware thread, the leaf the OS schedules on.
    PU,
}

impl ObjectType {
    /// True for the cache levels.
    pub fn is_cache(self) -> bool {
        matches!(self, ObjectType::L1Cache | ObjectType::L2Cache | ObjectType::L3Cache)
    }

    /// True for the leaf level (PU).
    pub(crate) fn is_leaf(self) -> bool {
        self == ObjectType::PU
    }

    /// Short lower-case name used by the synthetic-description parser and by
    /// `Display`: `machine`, `group`, `numa`, `package`, `l3`, `l2`, `l1`,
    /// `core`, `pu`.
    pub fn short_name(self) -> &'static str {
        match self {
            ObjectType::Machine => "machine",
            ObjectType::Group => "group",
            ObjectType::NumaNode => "numa",
            ObjectType::Package => "package",
            ObjectType::L3Cache => "l3",
            ObjectType::L2Cache => "l2",
            ObjectType::L1Cache => "l1",
            ObjectType::Core => "core",
            ObjectType::PU => "pu",
        }
    }

    /// Parses the short names accepted by [`ObjectType::short_name`], plus a
    /// few common aliases (`socket`, `node`, `numanode`, `thread`, `smt`).
    pub fn parse(s: &str) -> Result<Self, String> {
        Ok(match s.to_ascii_lowercase().as_str() {
            "machine" => ObjectType::Machine,
            "group" | "board" => ObjectType::Group,
            "numa" | "numanode" | "node" => ObjectType::NumaNode,
            "package" | "socket" | "pack" => ObjectType::Package,
            "l3" | "l3cache" => ObjectType::L3Cache,
            "l2" | "l2cache" => ObjectType::L2Cache,
            "l1" | "l1cache" => ObjectType::L1Cache,
            "core" => ObjectType::Core,
            "pu" | "thread" | "smt" | "hwthread" => ObjectType::PU,
            other => return Err(format!("unknown object type {other:?}")),
        })
    }
}

impl fmt::Display for ObjectType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// Type-specific attributes of an object.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObjectAttr {
    /// Cache size in bytes (caches only).
    pub cache_size: Option<u64>,
    /// Local memory in bytes (machine and NUMA nodes).
    pub local_memory: Option<u64>,
}

/// One node of the topology tree.
#[derive(Clone, Debug)]
pub struct TopoObject {
    /// Identifier inside the arena.
    pub id: ObjId,
    /// What kind of resource this is.
    pub obj_type: ObjectType,
    /// Depth in the tree; the machine root is at depth 0.
    pub depth: usize,
    /// Index of this object among the objects of the same depth, in
    /// left-to-right tree order ("logical index" in HWLOC terms).
    pub logical_index: usize,
    /// OS-assigned index when known (e.g. the PU number used by
    /// `sched_setaffinity`); equals `logical_index` for synthetic topologies.
    pub os_index: usize,
    /// All PU indices covered by this object.
    pub cpuset: CpuSet,
    /// Parent object, `None` for the root.
    pub parent: Option<ObjId>,
    /// Children in left-to-right order.
    pub children: Vec<ObjId>,
    /// Type-specific attributes.
    pub attr: ObjectAttr,
}

impl TopoObject {
    /// Number of children.
    pub(crate) fn arity(&self) -> usize {
        self.children.len()
    }

    /// True for the leaf level (PU).
    pub(crate) fn is_leaf(&self) -> bool {
        self.obj_type.is_leaf()
    }

    /// Human-readable one-line description, e.g. `package#3 cpuset=24-31`.
    pub(crate) fn describe(&self) -> String {
        format!("{}#{} cpuset={}", self.obj_type, self.logical_index, self.cpuset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names_roundtrip() {
        for ty in [
            ObjectType::Machine,
            ObjectType::Group,
            ObjectType::NumaNode,
            ObjectType::Package,
            ObjectType::L3Cache,
            ObjectType::L2Cache,
            ObjectType::L1Cache,
            ObjectType::Core,
            ObjectType::PU,
        ] {
            assert_eq!(ObjectType::parse(ty.short_name()).unwrap(), ty);
            assert_eq!(format!("{ty}"), ty.short_name());
        }
    }

    #[test]
    fn type_aliases() {
        assert_eq!(ObjectType::parse("socket").unwrap(), ObjectType::Package);
        assert_eq!(ObjectType::parse("NUMANODE").unwrap(), ObjectType::NumaNode);
        assert_eq!(ObjectType::parse("thread").unwrap(), ObjectType::PU);
        assert!(ObjectType::parse("quux").is_err());
    }

    #[test]
    fn type_predicates() {
        assert!(ObjectType::L2Cache.is_cache());
        assert!(!ObjectType::Core.is_cache());
        assert!(ObjectType::PU.is_leaf());
        assert!(!ObjectType::Machine.is_leaf());
    }

    #[test]
    fn containment_order_matches_variant_order() {
        assert!(ObjectType::Machine < ObjectType::NumaNode);
        assert!(ObjectType::NumaNode < ObjectType::Package);
        assert!(ObjectType::Package < ObjectType::Core);
        assert!(ObjectType::Core < ObjectType::PU);
    }

    #[test]
    fn describe_mentions_type_and_cpuset() {
        let o = TopoObject {
            id: ObjId(0),
            obj_type: ObjectType::Package,
            depth: 1,
            logical_index: 3,
            os_index: 3,
            cpuset: CpuSet::from_indices(24..32),
            parent: None,
            children: vec![],
            attr: ObjectAttr::default(),
        };
        assert_eq!(o.describe(), "package#3 cpuset=24-31");
        assert_eq!(o.arity(), 0);
        assert!(!o.is_leaf());
    }
}

//! The hardware topology tree.
//!
//! A [`Topology`] is an arena of [`TopoObject`]s arranged as a rooted tree:
//! the machine at the root, processing units (PUs) at the leaves, and
//! containment levels (NUMA nodes, packages, caches, cores) in between.
//! This is the information the placement algorithm of the paper obtains from
//! HWLOC; here it is built either synthetically (see
//! [`crate::synthetic`]) or from the operating system (see
//! [`crate::discover`]).

use crate::bitmap::CpuSet;
use crate::object::{ObjId, ObjectAttr, ObjectType, TopoObject};
use std::fmt;

/// Errors produced while building or validating a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A level specification was empty or had a zero count.
    InvalidLevel(String),
    /// The tree violated a structural invariant (detail in the message).
    Invariant(String),
    /// A synthetic description string could not be parsed.
    Parse(String),
    /// Operating-system discovery failed (detail in the message).
    Discovery(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::InvalidLevel(m) => write!(f, "invalid topology level: {m}"),
            TopologyError::Invariant(m) => write!(f, "topology invariant violated: {m}"),
            TopologyError::Parse(m) => write!(f, "cannot parse topology description: {m}"),
            TopologyError::Discovery(m) => write!(f, "topology discovery failed: {m}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// One level of a balanced synthetic topology: `count` children of type
/// `obj_type` under every object of the previous level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelSpec {
    /// Object type instantiated at this level.
    pub obj_type: ObjectType,
    /// Number of children of this type under each parent.
    pub count: usize,
}

impl LevelSpec {
    /// Convenience constructor.
    pub fn new(obj_type: ObjectType, count: usize) -> Self {
        LevelSpec { obj_type, count }
    }
}

/// The "shape" of a balanced topology tree: the arity of every internal
/// level from the root downwards.  This is the only structural information
/// the TreeMatch algorithm consumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeShape {
    /// `arities[d]` is the number of children of every node at depth `d`.
    /// The last entry corresponds to the level right above the leaves.
    pub arities: Vec<usize>,
}

impl TreeShape {
    /// Creates a shape from per-level arities.
    pub fn new(arities: Vec<usize>) -> Self {
        TreeShape { arities }
    }

    /// Total number of leaves of the balanced tree.
    pub fn leaves(&self) -> usize {
        self.arities.iter().product()
    }

    /// Appends a new deepest level with the given arity, returning the
    /// extended shape.  Used by the oversubscription extension of
    /// Algorithm 1 (adding virtual resources below the physical leaves).
    pub fn with_extra_level(&self, arity: usize) -> TreeShape {
        let mut arities = self.arities.clone();
        arities.push(arity);
        TreeShape { arities }
    }
}

/// A complete hardware topology tree.
///
/// Objects are stored in an arena; [`ObjId`]s index into it.  Levels are
/// pre-indexed so that "all objects at depth *d*" and "all PUs" are O(1)
/// lookups, which is what both the placement algorithm and the simulator
/// need on their hot paths.
#[derive(Clone, Debug)]
pub struct Topology {
    objects: Vec<TopoObject>,
    levels: Vec<Vec<ObjId>>,
    /// `pu_of_os[os_index]` is the PU with that OS index, if any.  Built
    /// once with the levels, so per-pair distance queries neither scan nor
    /// allocate.
    pu_of_os: Vec<Option<ObjId>>,
    /// Levels used to build this topology when it was synthetic.
    spec: Vec<LevelSpec>,
    name: String,
}

impl Topology {
    /// Builds a balanced topology from level specifications.
    ///
    /// `levels` describes the tree below the implicit machine root, e.g.
    /// `[package:24, core:8, pu:1]` is the paper's 192-core SMP machine.
    /// The final level must be of type [`ObjectType::PU`].
    pub fn from_levels(name: &str, levels: &[LevelSpec]) -> Result<Self, TopologyError> {
        if levels.is_empty() {
            return Err(TopologyError::InvalidLevel("no levels given".into()));
        }
        for l in levels {
            if l.count == 0 {
                return Err(TopologyError::InvalidLevel(format!("level {} has count 0", l.obj_type)));
            }
            if l.obj_type == ObjectType::Machine {
                return Err(TopologyError::InvalidLevel(
                    "the machine root is implicit and must not appear in the level list".into(),
                ));
            }
        }
        if levels.last().unwrap().obj_type != ObjectType::PU {
            return Err(TopologyError::InvalidLevel("deepest level must be of type pu".into()));
        }

        let mut topo = Topology {
            objects: Vec::new(),
            levels: Vec::new(),
            pu_of_os: Vec::new(),
            spec: levels.to_vec(),
            name: name.to_string(),
        };

        // Root.
        let root = topo.push_object(ObjectType::Machine, 0, 0, None);
        let mut frontier = vec![root];

        // Build level by level, then assign PU indices and propagate cpusets.
        for (depth, spec) in levels.iter().enumerate() {
            let mut next = Vec::with_capacity(frontier.len() * spec.count);
            for &parent in &frontier {
                for _ in 0..spec.count {
                    let logical = next.len();
                    let child = topo.push_object(spec.obj_type, depth + 1, logical, Some(parent));
                    topo.objects[parent.index()].children.push(child);
                    next.push(child);
                }
            }
            frontier = next;
        }

        // The frontier now holds the PUs in left-to-right order: their
        // logical index is also their OS index for a synthetic machine.
        for (i, &pu) in frontier.iter().enumerate() {
            topo.objects[pu.index()].os_index = i;
            topo.objects[pu.index()].cpuset = CpuSet::singleton(i);
        }
        topo.propagate_cpusets(root);
        topo.rebuild_levels();
        topo.validate()?;
        Ok(topo)
    }

    fn push_object(
        &mut self,
        obj_type: ObjectType,
        depth: usize,
        logical_index: usize,
        parent: Option<ObjId>,
    ) -> ObjId {
        let id = ObjId(self.objects.len() as u32);
        self.objects.push(TopoObject {
            id,
            obj_type,
            depth,
            logical_index,
            os_index: logical_index,
            cpuset: CpuSet::new(),
            parent,
            children: Vec::new(),
            attr: ObjectAttr::default(),
        });
        id
    }

    fn propagate_cpusets(&mut self, node: ObjId) -> CpuSet {
        let children = self.objects[node.index()].children.clone();
        if children.is_empty() {
            return self.objects[node.index()].cpuset.clone();
        }
        let mut acc = CpuSet::new();
        for c in children {
            let cs = self.propagate_cpusets(c);
            acc.or_assign(&cs);
        }
        self.objects[node.index()].cpuset = acc.clone();
        acc
    }

    fn rebuild_levels(&mut self) {
        let max_depth = self.objects.iter().map(|o| o.depth).max().unwrap_or(0);
        self.levels = vec![Vec::new(); max_depth + 1];
        for o in &self.objects {
            self.levels[o.depth].push(o.id);
        }
        // Keep each level sorted by logical index (left-to-right order).
        for level in &mut self.levels {
            let objs = &self.objects;
            level.sort_by_key(|id| objs[id.index()].logical_index);
        }
        // The PU table: first PU in left-to-right order wins, so a tree
        // `validate` is about to reject for duplicate OS indices still
        // answers lookups the way a scan of `pus()` would.
        let pus = self.pus();
        let mut table = vec![None; pus.iter().map(|pu| pu.os_index + 1).max().unwrap_or(0)];
        for pu in pus {
            table[pu.os_index].get_or_insert(pu.id);
        }
        self.pu_of_os = table;
    }

    /// Constructs a topology directly from pre-built objects.  Used by the
    /// OS discovery code; the objects must already form a consistent tree.
    pub(crate) fn from_objects(name: &str, objects: Vec<TopoObject>) -> Result<Self, TopologyError> {
        let mut topo = Topology {
            objects,
            levels: Vec::new(),
            pu_of_os: Vec::new(),
            spec: Vec::new(),
            name: name.to_string(),
        };
        topo.rebuild_levels();
        topo.validate()?;
        Ok(topo)
    }

    /// Human-readable name of this topology (e.g. `"cluster2016-smp192"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The level specification this topology was synthesised from, empty for
    /// discovered topologies.
    pub fn level_spec(&self) -> &[LevelSpec] {
        &self.spec
    }

    /// The root (machine) object.
    pub fn root(&self) -> &TopoObject {
        &self.objects[0]
    }

    /// Access an object by id.
    pub(crate) fn object(&self, id: ObjId) -> &TopoObject {
        &self.objects[id.index()]
    }

    /// Iterates over all objects in arena order.
    #[cfg(test)]
    pub(crate) fn objects(&self) -> impl Iterator<Item = &TopoObject> {
        self.objects.iter()
    }

    /// Depth of the tree: number of levels including machine and PU levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Objects at the given depth, in left-to-right order.
    pub fn objects_at_depth(&self, depth: usize) -> impl Iterator<Item = &TopoObject> {
        self.levels.get(depth).into_iter().flatten().map(move |id| self.object(*id))
    }

    /// Number of objects at the given depth.
    pub(crate) fn nb_objects_at_depth(&self, depth: usize) -> usize {
        self.levels.get(depth).map_or(0, |l| l.len())
    }

    /// Depth of the first level whose objects have the given type, if any.
    pub(crate) fn depth_of_type(&self, ty: ObjectType) -> Option<usize> {
        (0..self.depth()).find(|&d| self.levels[d].first().map(|id| self.object(*id).obj_type) == Some(ty))
    }

    /// All objects of a given type, in left-to-right order.
    pub fn objects_of_type(&self, ty: ObjectType) -> Vec<&TopoObject> {
        match self.depth_of_type(ty) {
            Some(d) => self.objects_at_depth(d).collect(),
            None => Vec::new(),
        }
    }

    /// The processing units (leaves), in left-to-right order.
    pub fn pus(&self) -> Vec<&TopoObject> {
        self.objects_of_type(ObjectType::PU)
    }

    /// Number of processing units.
    pub fn nb_pus(&self) -> usize {
        self.nb_objects_at_depth(self.depth() - 1)
    }

    /// Number of physical cores (falls back to the PU count when the
    /// topology has no explicit core level).
    pub fn nb_cores(&self) -> usize {
        match self.depth_of_type(ObjectType::Core) {
            Some(d) => self.nb_objects_at_depth(d),
            None => self.nb_pus(),
        }
    }

    /// True when cores expose more than one hardware thread.
    pub fn has_hyperthreading(&self) -> bool {
        self.nb_pus() > self.nb_cores()
    }

    /// Returns the PU object with the given OS index, if any.
    pub fn pu_by_os_index(&self, os_index: usize) -> Option<&TopoObject> {
        self.pu_of_os.get(os_index).copied().flatten().map(|id| self.object(id))
    }

    /// Walks up from `id` to the root, yielding every ancestor (excluding
    /// `id` itself, including the root): the reference the table lookups
    /// are checked against.
    #[cfg(test)]
    pub(crate) fn ancestors(&self, id: ObjId) -> Vec<ObjId> {
        let mut v = Vec::new();
        let mut cur = self.object(id).parent;
        while let Some(p) = cur {
            v.push(p);
            cur = self.object(p).parent;
        }
        v
    }

    /// Deepest common ancestor of two objects.
    pub(crate) fn common_ancestor(&self, a: ObjId, b: ObjId) -> ObjId {
        let mut pa = Some(a);
        let mut pb = Some(b);
        // Equalise depths first.
        while let (Some(x), Some(y)) = (pa, pb) {
            let (da, db) = (self.object(x).depth, self.object(y).depth);
            if da > db {
                pa = self.object(x).parent;
            } else if db > da {
                pb = self.object(y).parent;
            } else if x == y {
                return x;
            } else {
                pa = self.object(x).parent;
                pb = self.object(y).parent;
            }
        }
        self.root().id
    }

    /// Depth of the deepest common ancestor of two PUs given by OS index.
    /// The larger the value, the "closer" the PUs are in the hierarchy
    /// (higher values mean a more deeply shared resource, e.g. an L2 cache).
    pub fn shared_level_of_pus(&self, pu_a: usize, pu_b: usize) -> usize {
        let a = self.pu_by_os_index(pu_a).map(|o| o.id);
        let b = self.pu_by_os_index(pu_b).map(|o| o.id);
        match (a, b) {
            (Some(a), Some(b)) => self.object(self.common_ancestor(a, b)).depth,
            _ => 0,
        }
    }

    /// Hop distance between two PUs: the number of tree edges on the path
    /// between them (0 for the same PU).  This is the structural distance
    /// used by the locality metrics.
    pub fn hop_distance(&self, pu_a: usize, pu_b: usize) -> usize {
        if pu_a == pu_b {
            return 0;
        }
        let leaf_depth = self.depth() - 1;
        let shared = self.shared_level_of_pus(pu_a, pu_b);
        2 * (leaf_depth - shared)
    }

    /// The balanced tree shape consumed by the TreeMatch algorithm.
    ///
    /// For irregular (discovered) trees the arity of each level is the
    /// *maximum* arity observed at that level; TreeMatch then works on the
    /// virtualised balanced tree, which is the standard approach.
    pub fn shape(&self) -> TreeShape {
        let mut arities = Vec::new();
        for d in 0..self.depth() - 1 {
            let max_arity = self.objects_at_depth(d).map(|o| o.arity()).max().unwrap_or(0).max(1);
            arities.push(max_arity);
        }
        TreeShape { arities }
    }

    /// OS indices of all PUs in left-to-right (locality-preserving) order.
    pub fn pu_os_indices(&self) -> Vec<usize> {
        self.pus().iter().map(|pu| pu.os_index).collect()
    }

    /// Checks structural invariants; returns the first violation found.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.objects.is_empty() {
            return Err(TopologyError::Invariant("empty topology".into()));
        }
        if self.root().parent.is_some() {
            return Err(TopologyError::Invariant("root has a parent".into()));
        }
        for o in &self.objects {
            for &c in &o.children {
                let child = self.object(c);
                if child.parent != Some(o.id) {
                    return Err(TopologyError::Invariant(format!(
                        "child {} of {} has wrong parent link",
                        child.describe(),
                        o.describe()
                    )));
                }
                if child.depth != o.depth + 1 {
                    return Err(TopologyError::Invariant(format!(
                        "child {} of {} has depth {} (expected {})",
                        child.describe(),
                        o.describe(),
                        child.depth,
                        o.depth + 1
                    )));
                }
                if !child.cpuset.is_subset_of(&o.cpuset) {
                    return Err(TopologyError::Invariant(format!(
                        "cpuset of child {} is not contained in parent {}",
                        child.describe(),
                        o.describe()
                    )));
                }
            }
            if !o.children.is_empty() {
                let union = o.children.iter().fold(CpuSet::new(), |acc, c| acc.or(&self.object(*c).cpuset));
                if union != o.cpuset {
                    return Err(TopologyError::Invariant(format!(
                        "cpuset of {} is not the union of its children",
                        o.describe()
                    )));
                }
            }
            if o.is_leaf() && o.cpuset.weight() != 1 {
                return Err(TopologyError::Invariant(format!(
                    "PU {} does not have a singleton cpuset",
                    o.describe()
                )));
            }
        }
        // PUs must have distinct OS indices.
        let mut seen = std::collections::HashSet::new();
        for pu in self.pus() {
            if !seen.insert(pu.os_index) {
                return Err(TopologyError::Invariant(format!("duplicate PU os_index {}", pu.os_index)));
            }
        }
        Ok(())
    }

    /// Renders the tree as an indented ASCII outline (one object per line),
    /// similar to `lstopo --of console`.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        self.render_rec(self.root().id, 0, &mut out);
        out
    }

    fn render_rec(&self, id: ObjId, indent: usize, out: &mut String) {
        let o = self.object(id);
        out.push_str(&" ".repeat(indent * 2));
        out.push_str(&o.describe());
        out.push('\n');
        // Collapse long runs of identical leaves for readability.
        if o.children.len() > 8 && self.object(o.children[0]).is_leaf() {
            let first = self.object(o.children[0]);
            let last = self.object(*o.children.last().unwrap());
            out.push_str(&" ".repeat((indent + 1) * 2));
            out.push_str(&format!(
                "{} .. {} ({} PUs)\n",
                first.describe(),
                last.describe(),
                o.children.len()
            ));
            return;
        }
        for &c in &o.children {
            self.render_rec(c, indent + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smp(packages: usize, cores: usize) -> Topology {
        Topology::from_levels(
            "test",
            &[
                LevelSpec::new(ObjectType::Package, packages),
                LevelSpec::new(ObjectType::Core, cores),
                LevelSpec::new(ObjectType::PU, 1),
            ],
        )
        .unwrap()
    }

    #[test]
    fn build_paper_machine() {
        let t = smp(24, 8);
        assert_eq!(t.nb_pus(), 192);
        assert_eq!(t.nb_cores(), 192);
        assert!(!t.has_hyperthreading());
        assert_eq!(t.depth(), 4); // machine, package, core, pu
        assert_eq!(t.nb_objects_at_depth(1), 24);
        assert_eq!(t.nb_objects_at_depth(2), 192);
        assert_eq!(t.root().cpuset.weight(), 192);
        t.validate().unwrap();
    }

    #[test]
    fn shape_matches_levels() {
        let t = smp(24, 8);
        let shape = t.shape();
        assert_eq!(shape.arities, vec![24, 8, 1]);
        assert_eq!(shape.leaves(), 192);
        let extended = shape.with_extra_level(2);
        assert_eq!(extended.leaves(), 384);
    }

    #[test]
    fn rejects_bad_levels() {
        assert!(Topology::from_levels("x", &[]).is_err());
        assert!(Topology::from_levels("x", &[LevelSpec::new(ObjectType::Core, 0)]).is_err());
        assert!(Topology::from_levels("x", &[LevelSpec::new(ObjectType::Core, 4)]).is_err());
        assert!(Topology::from_levels(
            "x",
            &[LevelSpec::new(ObjectType::Machine, 1), LevelSpec::new(ObjectType::PU, 2)]
        )
        .is_err());
    }

    #[test]
    fn pu_cpusets_are_singletons_in_order() {
        let t = smp(2, 3);
        let pus = t.pus();
        assert_eq!(pus.len(), 6);
        for (i, pu) in pus.iter().enumerate() {
            assert_eq!(pu.os_index, i);
            assert_eq!(pu.cpuset, CpuSet::singleton(i));
        }
    }

    #[test]
    fn ancestors_and_common_ancestor() {
        let t = smp(2, 2);
        let pus = t.pus();
        let p0 = pus[0].id;
        let p1 = pus[1].id;
        let p2 = pus[2].id;
        // Same package → common ancestor is that package.
        let ca01 = t.object(t.common_ancestor(p0, p1));
        assert_eq!(ca01.obj_type, ObjectType::Package);
        // Different packages → machine.
        let ca02 = t.object(t.common_ancestor(p0, p2));
        assert_eq!(ca02.obj_type, ObjectType::Machine);
        // Self → self.
        assert_eq!(t.common_ancestor(p0, p0), p0);
        let anc = t.ancestors(p0);
        assert_eq!(anc.len(), 3); // core, package, machine
        assert_eq!(t.object(*anc.last().unwrap()).obj_type, ObjectType::Machine);
    }

    #[test]
    fn shared_level_and_hop_distance() {
        let t = Topology::from_levels(
            "smt",
            &[
                LevelSpec::new(ObjectType::Package, 2),
                LevelSpec::new(ObjectType::Core, 2),
                LevelSpec::new(ObjectType::PU, 2),
            ],
        )
        .unwrap();
        // PUs 0 and 1 share a core (depth 2 within machine/package/core/pu).
        assert_eq!(t.shared_level_of_pus(0, 1), 2);
        // PUs 0 and 2 share only the package (depth 1).
        assert_eq!(t.shared_level_of_pus(0, 2), 1);
        // PUs 0 and 4 share only the machine (depth 0).
        assert_eq!(t.shared_level_of_pus(0, 4), 0);
        assert_eq!(t.hop_distance(0, 0), 0);
        assert!(t.hop_distance(0, 1) < t.hop_distance(0, 2));
        assert!(t.hop_distance(0, 2) < t.hop_distance(0, 4));
    }

    #[test]
    fn depth_of_type_queries() {
        let t = smp(4, 2);
        assert_eq!(t.depth_of_type(ObjectType::Machine), Some(0));
        assert_eq!(t.depth_of_type(ObjectType::Package), Some(1));
        assert_eq!(t.depth_of_type(ObjectType::Core), Some(2));
        assert_eq!(t.depth_of_type(ObjectType::PU), Some(3));
        assert_eq!(t.depth_of_type(ObjectType::L3Cache), None);
        assert_eq!(t.objects_of_type(ObjectType::Package).len(), 4);
    }

    #[test]
    fn pu_by_os_index_lookup() {
        let t = smp(2, 2);
        assert_eq!(t.pu_by_os_index(3).unwrap().os_index, 3);
        assert!(t.pu_by_os_index(99).is_none());
    }

    /// The answers the OS-index table gives are those of the scan and the
    /// ancestor walk it replaced, on every PU pair and on absent indices.
    #[test]
    fn table_lookups_equal_the_scan_and_the_ancestor_walk() {
        for t in
            [crate::synthetic::cluster2016_smp192(), crate::synthetic::laptop(), crate::discover::discover()]
        {
            let pus = t.pus();
            let leaf_depth = t.depth() - 1;
            let max_os = pus.iter().map(|pu| pu.os_index).max().unwrap();
            for os in 0..=max_os + 2 {
                let scanned = pus.iter().find(|pu| pu.os_index == os).map(|pu| pu.id);
                assert_eq!(t.pu_by_os_index(os).map(|pu| pu.id), scanned, "{}: os index {os}", t.name());
            }
            for a in &pus {
                // Ancestors of `a`, root last.
                let up_a = t.ancestors(a.id);
                for b in &pus {
                    let shared = if a.id == b.id {
                        leaf_depth
                    } else {
                        let up_b = t.ancestors(b.id);
                        let common = up_a.iter().find(|x| up_b.contains(x)).unwrap();
                        t.object(*common).depth
                    };
                    let (oa, ob) = (a.os_index, b.os_index);
                    assert_eq!(t.shared_level_of_pus(oa, ob), shared, "{}: PUs {oa},{ob}", t.name());
                    assert_eq!(
                        t.hop_distance(oa, ob),
                        2 * (leaf_depth - shared),
                        "{}: PUs {oa},{ob}",
                        t.name()
                    );
                }
            }
            assert_eq!(t.shared_level_of_pus(0, max_os + 1), 0, "an absent PU shares only the root");
        }
    }

    #[test]
    fn hyperthreading_detection() {
        let smt = Topology::from_levels(
            "smt",
            &[
                LevelSpec::new(ObjectType::Package, 1),
                LevelSpec::new(ObjectType::Core, 4),
                LevelSpec::new(ObjectType::PU, 2),
            ],
        )
        .unwrap();
        assert!(smt.has_hyperthreading());
        assert_eq!(smt.nb_cores(), 4);
        assert_eq!(smt.nb_pus(), 8);
        assert!(!smp(2, 4).has_hyperthreading());
    }

    #[test]
    fn render_ascii_contains_root_and_levels() {
        let t = smp(2, 2);
        let txt = t.render_ascii();
        assert!(txt.contains("machine#0"));
        assert!(txt.contains("package#1"));
    }

    #[test]
    fn deep_hierarchy_with_caches_and_numa() {
        let t = Topology::from_levels(
            "deep",
            &[
                LevelSpec::new(ObjectType::NumaNode, 4),
                LevelSpec::new(ObjectType::Package, 1),
                LevelSpec::new(ObjectType::L3Cache, 1),
                LevelSpec::new(ObjectType::L2Cache, 4),
                LevelSpec::new(ObjectType::Core, 2),
                LevelSpec::new(ObjectType::PU, 2),
            ],
        )
        .unwrap();
        assert_eq!(t.nb_pus(), 4 * 4 * 2 * 2);
        assert_eq!(t.shape().arities, vec![4, 1, 1, 4, 2, 2]);
        assert_eq!(t.nb_cores(), 32);
        t.validate().unwrap();
    }
}

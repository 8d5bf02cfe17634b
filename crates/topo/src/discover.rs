//! Best-effort discovery of the host topology from the operating system.
//!
//! On Linux the canonical source is sysfs:
//! `/sys/devices/system/cpu/cpu<N>/topology/{physical_package_id,core_id}`
//! and `/sys/devices/system/node/node<N>/cpulist`.  This module reads those
//! files when they exist and falls back to a flat topology derived from
//! [`std::thread::available_parallelism`] otherwise (containers frequently
//! hide sysfs).  On non-Linux platforms only the fallback is available.
//!
//! Discovery is intentionally conservative: the placement algorithm only
//! needs the containment tree (package → core → PU), so cache levels are
//! not probed here; use a synthetic description when full detail is needed.

use crate::bitmap::CpuSet;
use crate::object::{ObjId, ObjectAttr, ObjectType, TopoObject};
use crate::topology::{LevelSpec, Topology, TopologyError};
use std::collections::BTreeMap;

/// Discovers the host topology, falling back to a flat `package:1 core:N`
/// description when the OS gives no detail.  Never fails: the worst case is
/// a uniprocessor topology.
pub fn discover() -> Topology {
    discover_sysfs(std::path::Path::new("/sys/devices/system/cpu")).unwrap_or_else(|_| fallback_flat())
}

/// Flat topology with one core per available hardware thread.
pub(crate) fn fallback_flat() -> Topology {
    let n = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    Topology::from_levels(
        "discovered-flat",
        &[
            LevelSpec::new(ObjectType::Package, 1),
            LevelSpec::new(ObjectType::Core, n),
            LevelSpec::new(ObjectType::PU, 1),
        ],
    )
    .expect("flat topology is always valid")
}

/// Information about one online CPU as read from sysfs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CpuInfo {
    os_index: usize,
    package_id: usize,
    core_id: usize,
}

/// Reads the sysfs CPU directory rooted at `base` and assembles a
/// package → core → PU tree.  Public only to the crate so tests can point it
/// at a fabricated directory layout.
pub(crate) fn discover_sysfs(base: &std::path::Path) -> Result<Topology, TopologyError> {
    let entries = std::fs::read_dir(base)
        .map_err(|e| TopologyError::Discovery(format!("cannot read {}: {e}", base.display())))?;

    let mut cpus = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(rest) = name.strip_prefix("cpu") else { continue };
        let Ok(os_index) = rest.parse::<usize>() else { continue };
        let topo_dir = entry.path().join("topology");
        let package_id = read_usize(&topo_dir.join("physical_package_id")).unwrap_or(0);
        let core_id = read_usize(&topo_dir.join("core_id")).unwrap_or(os_index);
        cpus.push(CpuInfo { os_index, package_id, core_id });
    }
    if cpus.is_empty() {
        return Err(TopologyError::Discovery("no cpu* entries found".into()));
    }
    cpus.sort_by_key(|c| c.os_index);
    Ok(build_from_cpuinfo("discovered-sysfs", &cpus))
}

fn read_usize(path: &std::path::Path) -> Option<usize> {
    std::fs::read_to_string(path).ok()?.trim().parse().ok()
}

/// Builds the tree from the (package, core, pu) triples.  Cores with the same
/// `core_id` in the same package host several PUs (hyperthreads).
fn build_from_cpuinfo(name: &str, cpus: &[CpuInfo]) -> Topology {
    // package_id -> core_id -> [os_index]
    let mut packages: BTreeMap<usize, BTreeMap<usize, Vec<usize>>> = BTreeMap::new();
    for c in cpus {
        packages.entry(c.package_id).or_default().entry(c.core_id).or_default().push(c.os_index);
    }

    fn push(
        objects: &mut Vec<TopoObject>,
        obj_type: ObjectType,
        depth: usize,
        logical: usize,
        os_index: usize,
        parent: Option<ObjId>,
    ) -> ObjId {
        let id = ObjId(objects.len() as u32);
        objects.push(TopoObject {
            id,
            obj_type,
            depth,
            logical_index: logical,
            os_index,
            cpuset: CpuSet::new(),
            parent,
            children: Vec::new(),
            attr: ObjectAttr::default(),
        });
        id
    }

    let mut objects: Vec<TopoObject> = Vec::new();
    let root = push(&mut objects, ObjectType::Machine, 0, 0, 0, None);
    let mut core_logical = 0;
    let mut pu_logical = 0;
    for (pkg_logical, (pkg_id, cores)) in packages.iter().enumerate() {
        let pkg = push(&mut objects, ObjectType::Package, 1, pkg_logical, *pkg_id, Some(root));
        for (core_id, pus) in cores {
            let core = push(&mut objects, ObjectType::Core, 2, core_logical, *core_id, Some(pkg));
            core_logical += 1;
            for &pu_os in pus {
                let pu = push(&mut objects, ObjectType::PU, 3, pu_logical, pu_os, Some(core));
                pu_logical += 1;
                // Fill cpusets bottom-up as we go.
                let set = CpuSet::singleton(pu_os);
                objects[pu.index()].cpuset = set.clone();
                objects[core.index()].cpuset.or_assign(&set);
                objects[pkg.index()].cpuset.or_assign(&set);
                objects[root.index()].cpuset.or_assign(&set);
                objects[core.index()].children.push(pu);
            }
            objects[pkg.index()].children.push(core);
        }
        objects[root.index()].children.push(pkg);
    }

    Topology::from_objects(name, objects).expect("sysfs-derived tree is structurally consistent")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fallback_flat_matches_available_parallelism() {
        let t = fallback_flat();
        let n = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        assert_eq!(t.nb_pus(), n);
        t.validate().unwrap();
    }

    #[test]
    fn discover_never_panics() {
        let t = discover();
        assert!(t.nb_pus() >= 1);
        t.validate().unwrap();
    }

    #[test]
    fn build_from_cpuinfo_groups_hyperthreads() {
        // 1 package, 2 cores, 2 threads per core; sibling threads have
        // non-contiguous OS indices as on real Intel machines.
        let cpus = vec![
            CpuInfo { os_index: 0, package_id: 0, core_id: 0 },
            CpuInfo { os_index: 1, package_id: 0, core_id: 1 },
            CpuInfo { os_index: 2, package_id: 0, core_id: 0 },
            CpuInfo { os_index: 3, package_id: 0, core_id: 1 },
        ];
        let t = build_from_cpuinfo("test", &cpus);
        assert_eq!(t.nb_pus(), 4);
        assert_eq!(t.nb_cores(), 2);
        assert!(t.has_hyperthreading());
        // PUs 0 and 2 are on the same core.
        assert_eq!(t.shared_level_of_pus(0, 2), 2);
        assert_eq!(t.shared_level_of_pus(0, 1), 1);
        t.validate().unwrap();
    }

    #[test]
    fn build_from_cpuinfo_multiple_packages() {
        let mut cpus = Vec::new();
        for pkg in 0..2 {
            for core in 0..4 {
                cpus.push(CpuInfo { os_index: pkg * 4 + core, package_id: pkg, core_id: core });
            }
        }
        let t = build_from_cpuinfo("two-socket", &cpus);
        assert_eq!(t.nb_pus(), 8);
        assert_eq!(t.objects_of_type(ObjectType::Package).len(), 2);
        assert!(!t.has_hyperthreading());
        t.validate().unwrap();
    }

    #[test]
    fn discover_sysfs_from_fabricated_tree() {
        let dir = std::env::temp_dir().join(format!("orwl_topo_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for cpu in 0..4 {
            let topo = dir.join(format!("cpu{cpu}")).join("topology");
            std::fs::create_dir_all(&topo).unwrap();
            std::fs::write(topo.join("physical_package_id"), format!("{}\n", cpu / 2)).unwrap();
            std::fs::write(topo.join("core_id"), format!("{}\n", cpu % 2)).unwrap();
        }
        // A non-cpu entry must be ignored.
        std::fs::create_dir_all(dir.join("cpufreq")).unwrap();
        let t = discover_sysfs(&dir).unwrap();
        assert_eq!(t.nb_pus(), 4);
        assert_eq!(t.objects_of_type(ObjectType::Package).len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn discover_sysfs_missing_dir_errors() {
        assert!(discover_sysfs(std::path::Path::new("/nonexistent/orwl")).is_err());
    }
}

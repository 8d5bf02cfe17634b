//! Synthetic topology descriptions and named machine presets.
//!
//! HWLOC can instantiate a topology from a "synthetic" description string
//! such as `"package:24 core:8 pu:1"` instead of probing the operating
//! system; this module provides the same facility.  It also ships the named
//! presets used throughout the reproduction, most importantly
//! [`cluster2016_smp192`], the 24-socket × 8-core SMP machine the paper's
//! evaluation ran on.

use crate::object::ObjectType;
use crate::topology::{LevelSpec, Topology, TopologyError};

/// Parses a synthetic description string into level specifications.
///
/// The grammar is a whitespace-separated list of `type:count` items, e.g.
/// `"package:24 core:8 pu:1"`.  Types accept the aliases documented on
/// [`ObjectType::parse`].  A trailing `pu:N` level is required (it describes
/// hardware threads per core); if the description omits it, `pu:1` is
/// appended automatically for convenience.
pub(crate) fn parse_synthetic(desc: &str) -> Result<Vec<LevelSpec>, TopologyError> {
    let mut levels = Vec::new();
    for item in desc.split_whitespace() {
        let (ty, count) = item
            .split_once(':')
            .ok_or_else(|| TopologyError::Parse(format!("item {item:?} is not of the form type:count")))?;
        let ty = ObjectType::parse(ty).map_err(TopologyError::Parse)?;
        let count: usize =
            count.parse().map_err(|e| TopologyError::Parse(format!("bad count in {item:?}: {e}")))?;
        levels.push(LevelSpec::new(ty, count));
    }
    if levels.is_empty() {
        return Err(TopologyError::Parse("empty synthetic description".into()));
    }
    if levels.last().unwrap().obj_type != ObjectType::PU {
        levels.push(LevelSpec::new(ObjectType::PU, 1));
    }
    Ok(levels)
}

/// Builds a topology from a synthetic description string (see
/// `parse_synthetic` for the grammar).
pub fn from_synthetic(name: &str, desc: &str) -> Result<Topology, TopologyError> {
    let levels = parse_synthetic(desc)?;
    Topology::from_levels(name, &levels)
}

/// The evaluation machine of the paper: an SMP system with 24 sockets of
/// 8 cores each (192 cores total), no hyperthreading.  Each socket is a NUMA
/// node with its own L3 cache.
pub fn cluster2016_smp192() -> Topology {
    from_synthetic("cluster2016-smp192", "numa:24 package:1 l3:1 core:8 pu:1").expect("preset is valid")
}

/// The same machine as [`cluster2016_smp192`] but restricted to the first
/// `sockets` sockets — used for the core-count sweep of Figure 1.
pub fn cluster2016_subset(sockets: usize) -> Result<Topology, TopologyError> {
    if sockets == 0 || sockets > 24 {
        return Err(TopologyError::InvalidLevel(format!("socket count {sockets} outside 1..=24")));
    }
    from_synthetic(
        &format!("cluster2016-smp{}", sockets * 8),
        &format!("numa:{sockets} package:1 l3:1 core:8 pu:1"),
    )
}

/// A common dual-socket server with SMT: 2 sockets × 16 cores × 2 hardware
/// threads (64 PUs).
pub fn dual_socket_smt() -> Topology {
    from_synthetic("dual-socket-smt", "numa:2 package:1 l3:1 core:16 pu:2").expect("preset is valid")
}

/// A quad-socket NUMA machine with two L3 groups per socket:
/// 4 × 2 × 8 cores (64 cores, no SMT).
pub fn quad_socket_l3_groups() -> Topology {
    from_synthetic("quad-socket-l3", "numa:4 package:1 l3:2 core:8 pu:1").expect("preset is valid")
}

/// A laptop-class machine: 1 socket, 4 cores, 2 hardware threads per core.
pub fn laptop() -> Topology {
    from_synthetic("laptop", "package:1 l2:4 core:1 pu:2").expect("preset is valid")
}

/// A single-core fallback machine (what discovery reports in minimal
/// containers).
pub fn uniprocessor() -> Topology {
    from_synthetic("uniprocessor", "package:1 core:1 pu:1").expect("preset is valid")
}

/// All named presets, keyed by name.  Useful for command-line tools.
pub fn preset(name: &str) -> Option<Topology> {
    match name {
        "cluster2016-smp192" | "smp192" | "paper" => Some(cluster2016_smp192()),
        "dual-socket-smt" => Some(dual_socket_smt()),
        "quad-socket-l3" => Some(quad_socket_l3_groups()),
        "laptop" => Some(laptop()),
        "uniprocessor" => Some(uniprocessor()),
        _ => None,
    }
}

/// Names of all available presets.
pub fn preset_names() -> &'static [&'static str] {
    &["cluster2016-smp192", "dual-socket-smt", "quad-socket-l3", "laptop", "uniprocessor"]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic_description() {
        let levels = parse_synthetic("package:24 core:8 pu:1").unwrap();
        assert_eq!(levels.len(), 3);
        assert_eq!(levels[0], LevelSpec::new(ObjectType::Package, 24));
        assert_eq!(levels[2], LevelSpec::new(ObjectType::PU, 1));
    }

    #[test]
    fn parse_appends_missing_pu_level() {
        let levels = parse_synthetic("socket:2 core:4").unwrap();
        assert_eq!(levels.last().unwrap(), &LevelSpec::new(ObjectType::PU, 1));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_synthetic("").is_err());
        assert!(parse_synthetic("core").is_err());
        assert!(parse_synthetic("core:x").is_err());
        assert!(parse_synthetic("gadget:4 pu:1").is_err());
    }

    #[test]
    fn from_synthetic_keeps_the_level_spec() {
        let t = from_synthetic("t", "numa:2 core:4 pu:2").unwrap();
        assert_eq!(t.level_spec(), parse_synthetic("numa:2 core:4 pu:2").unwrap());
        assert_eq!(t.nb_pus(), 16);
    }

    #[test]
    fn paper_machine_preset() {
        let t = cluster2016_smp192();
        assert_eq!(t.nb_pus(), 192);
        assert_eq!(t.nb_cores(), 192);
        assert_eq!(t.objects_of_type(ObjectType::NumaNode).len(), 24);
        assert!(!t.has_hyperthreading());
        t.validate().unwrap();
    }

    #[test]
    fn subset_machines_scale_with_sockets() {
        for sockets in [1, 2, 4, 12, 24] {
            let t = cluster2016_subset(sockets).unwrap();
            assert_eq!(t.nb_pus(), sockets * 8);
        }
        assert!(cluster2016_subset(0).is_err());
        assert!(cluster2016_subset(25).is_err());
    }

    #[test]
    fn other_presets_are_valid() {
        assert_eq!(dual_socket_smt().nb_pus(), 64);
        assert!(dual_socket_smt().has_hyperthreading());
        assert_eq!(quad_socket_l3_groups().nb_pus(), 64);
        assert_eq!(laptop().nb_pus(), 8);
        assert_eq!(uniprocessor().nb_pus(), 1);
        for name in preset_names() {
            assert!(preset(name).is_some(), "preset {name} should resolve");
            preset(name).unwrap().validate().unwrap();
        }
        assert!(preset("nonexistent").is_none());
    }
}

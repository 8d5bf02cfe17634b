//! Calibration parameters of the NUMA machine model.
//!
//! The reproduction runs on a single-core container, so the paper's
//! evaluation machine (24 sockets × 8 cores) is *simulated*: task execution
//! times are derived from an analytical cost model whose constants live in
//! [`CostParams`].  The constants are order-of-magnitude values for a
//! 2010s-era x86 SMP machine; they are documented in EXPERIMENTS.md and are
//! deliberately simple — the reproduction target is the *shape* of Figure 1
//! (who wins and by roughly what factor), not absolute seconds.

use orwl_topo::cluster::FabricClass;
use orwl_topo::object::ObjectType;

/// Per-byte transfer cost between two PUs, by the deepest hardware level the
/// PUs share.  Units: seconds per byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCosts {
    /// Hardware threads of the same core (transfer through L1/L2).
    pub same_core: f64,
    /// Cores sharing an L2 cache.
    pub shared_l2: f64,
    /// Cores sharing an L3 cache / the same die.
    pub shared_l3: f64,
    /// Cores of the same NUMA node without a shared cache level modelled.
    pub same_numa: f64,
    /// Cores on different NUMA nodes (traverses the interconnect).
    pub remote_numa: f64,
}

impl LinkCosts {
    /// Picks the cost matching the deepest shared object type.
    pub(crate) fn for_shared_type(&self, ty: Option<ObjectType>) -> f64 {
        match ty {
            Some(ObjectType::Core) | Some(ObjectType::PU) => self.same_core,
            Some(ObjectType::L1Cache) | Some(ObjectType::L2Cache) => self.shared_l2,
            Some(ObjectType::L3Cache) => self.shared_l3,
            Some(ObjectType::NumaNode) | Some(ObjectType::Package) | Some(ObjectType::Group) => {
                self.same_numa
            }
            Some(ObjectType::Machine) | None => self.remote_numa,
        }
    }
}

/// All calibration constants of the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Seconds of pure computation per grid element per iteration
    /// (amortised cost of the LK23 update: ~10 flops plus loads/stores).
    pub sec_per_element: f64,
    /// Seconds per byte for the task's own working-set accesses when the
    /// data is in the local NUMA node's memory and uncontended.
    pub local_byte_cost: f64,
    /// Multiplier applied to working-set accesses that target a *remote*
    /// NUMA node (typical NUMA factor: 2–3×).
    pub remote_access_factor: f64,
    /// Per-byte transfer costs for halo/frontier exchanges between PUs.
    pub link: LinkCosts,
    /// Sustainable memory bandwidth of one NUMA node's controller, in
    /// bytes/second.  Concurrent accessors of the same node share it.
    pub node_bandwidth: f64,
    /// Aggregate bandwidth of the global interconnect (backplane) crossed by
    /// every inter-node transfer, in bytes/second.
    pub interconnect_bandwidth: f64,
    /// Multiplier on compute time for threads that the OS may migrate
    /// (cache refills after migration, scheduler noise).
    pub migration_penalty: f64,
    /// Cost of one fork-join barrier, in seconds per participating thread
    /// (OpenMP-style implicit barrier at the end of every parallel region).
    pub barrier_cost_per_thread: f64,
}

impl CostParams {
    /// Constants calibrated against the paper's evaluation machine
    /// (24 × 8-core sockets, 16384² doubles, 100 iterations): the
    /// topology-bound ORWL run lands near the reported ≈11 s, the unbound
    /// run near 2.8× that, and the OpenMP-style run near 5× that.
    pub fn cluster2016() -> Self {
        CostParams {
            // ~0.8 ns per element of the 5-point implicit update.
            sec_per_element: 0.8e-9,
            // 8 GB/s effective per-core streaming rate → 0.125 ns per byte.
            local_byte_cost: 0.125e-9,
            remote_access_factor: 2.6,
            link: LinkCosts {
                same_core: 0.02e-9,
                shared_l2: 0.04e-9,
                shared_l3: 0.08e-9,
                same_numa: 0.25e-9,
                remote_numa: 0.8e-9,
            },
            // 20 GB/s per NUMA-node memory controller.
            node_bandwidth: 20.0e9,
            // 100 GB/s aggregate cross-node backplane.
            interconnect_bandwidth: 100.0e9,
            migration_penalty: 1.25,
            barrier_cost_per_thread: 1.0e-6,
        }
    }

    /// A fast, exaggerated parameter set for unit tests: big NUMA penalties
    /// and tiny compute so locality effects dominate and tests run quickly.
    #[cfg(test)]
    pub(crate) fn test_exaggerated() -> Self {
        CostParams {
            sec_per_element: 1.0e-9,
            local_byte_cost: 1.0e-9,
            remote_access_factor: 4.0,
            link: LinkCosts {
                same_core: 0.5e-9,
                shared_l2: 1.0e-9,
                shared_l3: 2.0e-9,
                same_numa: 4.0e-9,
                remote_numa: 16.0e-9,
            },
            node_bandwidth: 1.0e9,
            interconnect_bandwidth: 2.0e9,
            migration_penalty: 1.5,
            barrier_cost_per_thread: 1.0e-6,
        }
    }
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams::cluster2016()
    }
}

/// One class of inter-node fabric link: a latency per message plus a
/// per-flow sustainable bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricLink {
    /// One-way message latency, in seconds (paid per fabric message, e.g. a
    /// remote lock grant or the header of a location transfer).
    pub latency: f64,
    /// Sustainable bandwidth of one flow over the link, in bytes/second.
    pub bandwidth: f64,
}

impl FabricLink {
    /// Seconds per byte streamed over the link.
    pub(crate) fn per_byte(&self) -> f64 {
        1.0 / self.bandwidth
    }
}

/// The inter-node fabric cost model: one [`FabricLink`] per
/// [`FabricClass`], plus the aggregate bandwidth of the whole fabric
/// (the analogue of [`CostParams::interconnect_bandwidth`] one level up —
/// the sum of all node-crossing bytes of an iteration cannot move faster
/// than this, whatever the per-link overlap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricParams {
    /// Links between nodes of the same rack (one switch hop).
    pub same_rack: FabricLink,
    /// Links between racks (through the spine).
    pub cross_rack: FabricLink,
    /// Aggregate bandwidth of the whole fabric, in bytes/second.
    pub aggregate_bandwidth: f64,
}

impl FabricParams {
    /// A commodity 10 GbE-class fabric to go with
    /// [`CostParams::cluster2016`]: per-flow bandwidth well below any
    /// on-node link, microsecond-scale latencies, a spine that halves the
    /// per-flow rate across racks.
    pub fn cluster2016() -> Self {
        FabricParams {
            same_rack: FabricLink { latency: 5.0e-6, bandwidth: 1.0e9 },
            cross_rack: FabricLink { latency: 12.0e-6, bandwidth: 0.5e9 },
            aggregate_bandwidth: 8.0e9,
        }
    }

    /// The link serving a fabric class; `None` for
    /// [`FabricClass::SameNode`], which crosses no fabric.
    pub(crate) fn link(&self, class: FabricClass) -> Option<FabricLink> {
        match class {
            FabricClass::SameNode => None,
            FabricClass::SameRack => Some(self.same_rack),
            FabricClass::CrossRack => Some(self.cross_rack),
        }
    }

    /// Seconds per byte over the given class (`0` within a node).
    pub fn per_byte(&self, class: FabricClass) -> f64 {
        self.link(class).map_or(0.0, |l| l.per_byte())
    }

    /// One-way latency of the given class (`0` within a node).
    pub fn latency(&self, class: FabricClass) -> f64 {
        self.link(class).map_or(0.0, |l| l.latency)
    }
}

impl Default for FabricParams {
    fn default() -> Self {
        FabricParams::cluster2016()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_costs_are_ordered() {
        for params in [CostParams::cluster2016(), CostParams::test_exaggerated()] {
            let l = params.link;
            assert!(l.same_core < l.shared_l2);
            assert!(l.shared_l2 < l.shared_l3);
            assert!(l.shared_l3 < l.same_numa);
            assert!(l.same_numa < l.remote_numa);
        }
    }

    #[test]
    fn shared_type_selection() {
        let l = CostParams::cluster2016().link;
        assert_eq!(l.for_shared_type(Some(ObjectType::Core)), l.same_core);
        assert_eq!(l.for_shared_type(Some(ObjectType::L3Cache)), l.shared_l3);
        assert_eq!(l.for_shared_type(Some(ObjectType::NumaNode)), l.same_numa);
        assert_eq!(l.for_shared_type(None), l.remote_numa);
        assert_eq!(l.for_shared_type(Some(ObjectType::Machine)), l.remote_numa);
    }

    #[test]
    fn fabric_links_are_ordered_and_slower_than_on_node_links() {
        let (params, fabric) = (CostParams::cluster2016(), FabricParams::cluster2016());
        assert_eq!(FabricParams::default(), fabric);
        // Per-byte: on-node remote-NUMA < same-rack fabric < cross-rack.
        assert!(params.link.remote_numa < fabric.per_byte(FabricClass::SameRack));
        assert!(fabric.per_byte(FabricClass::SameRack) < fabric.per_byte(FabricClass::CrossRack));
        // Latency ordering and the free same-node class.
        assert!(fabric.latency(FabricClass::SameRack) < fabric.latency(FabricClass::CrossRack));
        assert_eq!(fabric.per_byte(FabricClass::SameNode), 0.0);
        assert_eq!(fabric.latency(FabricClass::SameNode), 0.0);
        assert!(fabric.link(FabricClass::SameNode).is_none());
        assert!(fabric.aggregate_bandwidth > 0.0);
    }

    #[test]
    fn cluster_params_are_physically_sensible() {
        let p = CostParams::cluster2016();
        assert!(p.remote_access_factor > 1.0);
        assert!(p.migration_penalty >= 1.0);
        assert!(p.node_bandwidth > 0.0);
        assert!(p.interconnect_bandwidth >= p.node_bandwidth);
        // Default is the paper calibration.
        assert_eq!(CostParams::default(), p);
    }
}

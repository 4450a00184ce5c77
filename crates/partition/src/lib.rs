//! # plum-partition — multilevel k-way graph partitioning
//!
//! The repartitioning substrate for the PLUM reproduction, in the mold of
//! (parallel) MeTiS \[15\]: heavy-edge-matching coarsening, greedy graph
//! growing on the coarsest graph, and boundary-greedy refinement during
//! uncoarsening. A dedicated repartitioning entry point seeds from the
//! previous partition so most dual vertices stay put and remapping volume
//! stays low — the property §4.2 of the paper relies on. Mild imbalance
//! takes the cheap path instead: boundary diffusion along a space-filling
//! curve ([`sfc_diffuse`]).
//!
//! ```
//! use plum_partition::{Graph, PartitionConfig, partition_kway, quality};
//!
//! // An 8-vertex ring.
//! let xadj = vec![0, 2, 4, 6, 8, 10, 12, 14, 16];
//! let adjncy = vec![7, 1, 0, 2, 1, 3, 2, 4, 3, 5, 4, 6, 5, 7, 6, 0];
//! let g = Graph::from_csr(xadj, adjncy, vec![1; 8]);
//! let part = partition_kway(&g, &PartitionConfig::new(2));
//! let q = quality(&g, &part, 2);
//! assert_eq!(q.cut, 2); // a ring's optimal bisection cuts exactly 2 edges
//! ```

mod bisect;
mod coarsen;
mod distributed;
mod graph;
mod kway;
mod metrics;
#[cfg(test)]
mod proptests;
mod repart;
mod rng;
mod sfc;

pub use bisect::{bisect, grow_bisection, refine_bisection};
pub use coarsen::{coarsen_once, contract, heavy_edge_matching};
pub use distributed::{
    multilevel_route, repartition_body, repartition_body_dual, repartition_distributed,
    DistPartition, MultilevelRoute,
};
pub use graph::{Graph, GraphView};
pub use kway::{
    partition_kway, partition_kway_dual, partition_kway_weighted, quality, PartitionConfig,
    PartitionQuality,
};
pub use metrics::{
    dual_uniform, edge_cut, imbalance, imbalance_dual, imbalance_weighted, migration, part_weights,
    partition_imbalance, weights_of,
};
pub use repart::{
    multilevel_serial, repartition_kway, repartition_kway_dual, repartition_kway_weighted,
};
pub use rng::Rng;
pub use sfc::{sfc_diffuse, sfc_diffuse_body, sfc_distributed, sfc_effective_imbalance, sfc_order};

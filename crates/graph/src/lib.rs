//! # mesh-graph
//!
//! The theory kit for the Mesh reproduction: everything §5 of *Mesh:
//! Compacting Memory Management for C/C++ Applications* (PLDI 2019)
//! formalizes, as runnable code.
//!
//! * [`string`] — spans as binary strings and the meshability predicate
//!   (Definition 5.1).
//! * [`graph`] — the meshing graph `G(S)` (Figure 5), with the triangle
//!   census showing edges are *not* independent (Observation 1).
//! * [`clique_cover`] — `MinCliqueCover`: exact (small-instance) and
//!   greedy solvers; meshing `k` spans in a clique frees `k − 1`.
//! * [`matching`] — maximum and greedy `Matching`: the relaxation §5.2
//!   argues loses little because triangles are rare.
//! * [`blossom`] — Edmonds' `O(V³)` maximum-matching algorithm, the exact
//!   optimum at realistic span counts (SplitMesher's quality reference).
//! * [`erdos_renyi`] — `G(n, p)` random graphs for contrast: §5.2 and §7
//!   argue meshing graphs are *not* Erdős–Renyi, and the census here
//!   quantifies the difference.
//! * [`split_mesher`] — the paper's SplitMesher procedure (Figure 2) on
//!   pure strings, for Lemma 5.3 validation and probe-limit ablations.
//! * [`first_fit`] — the multi-way first fit a heap pass runs in
//!   SplitMesher's place, on the same strings.
//! * [`probability`] — closed forms for mesh probabilities, the §2.2
//!   randomized-allocation bound, Lemma 5.3's matching bound, and the
//!   Robson fragmentation factor.
//!
//! ## Example: how much can a random heap compact?
//!
//! ```
//! use mesh_core::rng::Rng;
//! use mesh_graph::{graph::MeshGraph, matching, probability};
//!
//! let mut rng = Rng::with_seed(7);
//! // 24 spans, 32 slots each, 8 objects per span.
//! let g = MeshGraph::random(24, 32, 8, &mut rng);
//! let released = matching::maximum_matching_size(&g);
//! let q = probability::mesh_probability(32, 8, 8);
//! println!("released {released} of 24 spans (pair mesh probability {q:.3})");
//! ```

pub mod blossom;
pub mod clique_cover;
pub mod erdos_renyi;
pub mod first_fit;
pub mod graph;
pub mod matching;
pub mod probability;
pub mod split_mesher;
pub mod string;

pub use graph::MeshGraph;
pub use string::SpanString;

//! A pure (string-level) implementation of the SplitMesher procedure of
//! Figure 2, used for the §5.3 experiments (Lemma 5.3 validation and the
//! probe-limit ablation) without involving a live heap.
//!
//! ```text
//! SplitMesher(S, t)
//!   Sl, Sr = S[1 : n/2], S[n/2+1 : n]
//!   for i in 0..t:
//!     for j in 0..|Sl|:
//!       if Meshable(Sl(j), Sr((j+i) % |Sl|)):
//!         remove and mesh the pair
//! ```

use crate::string::SpanString;
use mesh_core::meshing::split_mesher_pairs;
use mesh_core::rng::Rng;

/// Result of one SplitMesher run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMesherOutcome {
    /// Meshed pairs as indices into the input slice.
    pub pairs: Vec<(usize, usize)>,
    /// Mesh tests performed (bounded by `t·n/2`).
    pub probes: usize,
}

impl SplitMesherOutcome {
    /// Spans released: one per meshed pair.
    pub fn released(&self) -> usize {
        self.pairs.len()
    }
}

/// Runs SplitMesher over `strings` with probe limit `t` (Figure 2).
///
/// The input order is randomized first (the paper's `S` is "the randomly
/// ordered span list"), then split into halves; element `j` of the left
/// half is probed against elements `(j+i) mod len` of the right half for
/// `i < t`. Matched pairs drop out of both halves.
pub fn split_mesher(strings: &[SpanString], t: usize, rng: &mut Rng) -> SplitMesherOutcome {
    let n = strings.len();
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let half = n / 2;
    let (left, right) = order.split_at(half);
    split_mesher_presplit(strings, left, right, t)
}

/// SplitMesher over a caller-provided split (deterministic; used by tests
/// and by the probe-limit ablation to hold the split fixed while varying
/// `t`).
pub fn split_mesher_presplit(
    strings: &[SpanString],
    left: &[usize],
    right: &[usize],
    t: usize,
) -> SplitMesherOutcome {
    let mut probes = 0;
    let pairs = split_mesher_pairs(left, right, t, &mut probes, |a, b| {
        strings[a].meshes_with(&strings[b])
    });
    SplitMesherOutcome { pairs, probes }
}

/// The empirical setting of Lemma 5.3: `n` random spans of length `b` at
/// occupancy `r`; returns `(outcome, q)` where `q` is the pairwise mesh
/// probability for this occupancy (needed to express `t = k/q`).
pub fn lemma53_trial(
    n: usize,
    b: usize,
    r: usize,
    t: usize,
    rng: &mut Rng,
) -> (SplitMesherOutcome, f64) {
    let strings: Vec<SpanString> = (0..n)
        .map(|_| SpanString::random_with_occupancy(b, r, rng))
        .collect();
    let q = crate::probability::mesh_probability(b, r, r);
    (split_mesher(&strings, t, rng), q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MeshGraph;
    use crate::matching::{is_valid_matching, maximum_matching_size};

    #[test]
    fn finds_pairs_on_disjoint_halves() {
        // Evens occupy low slots, odds occupy high slots: all cross pairs
        // mesh, so SplitMesher must pair everything even with t = 1.
        let strings: Vec<SpanString> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    SpanString::from_bits(16, &[0, 1])
                } else {
                    SpanString::from_bits(16, &[8, 9])
                }
            })
            .collect();
        let mut rng = Rng::with_seed(1);
        let out = split_mesher(&strings, 16, &mut rng);
        assert_eq!(out.released(), 4, "all spans pair up");
        // Every pair must be one even + one odd.
        for &(a, b) in &out.pairs {
            assert_ne!(a % 2, b % 2);
        }
    }

    #[test]
    fn output_is_a_valid_matching() {
        let mut rng = Rng::with_seed(2);
        for trial in 0..20 {
            let strings: Vec<SpanString> = (0..40)
                .map(|_| SpanString::random_with_occupancy(32, 6, &mut rng))
                .collect();
            let out = split_mesher(&strings, 64, &mut rng);
            let g = MeshGraph::from_strings(strings);
            assert!(
                is_valid_matching(&g, &out.pairs),
                "trial {trial}: invalid matching"
            );
        }
    }

    #[test]
    fn probe_budget_respected() {
        let strings: Vec<SpanString> = (0..64)
            .map(|i| SpanString::from_bits(32, &[i % 32]))
            .collect();
        let mut rng = Rng::with_seed(3);
        for t in [1usize, 4, 16, 64] {
            let out = split_mesher(&strings, t, &mut rng);
            assert!(
                out.probes <= t * 32,
                "t={t}: {} probes exceeds t·n/2",
                out.probes
            );
        }
    }

    #[test]
    fn more_probes_never_fewer_meshes_on_fixed_split() {
        let mut rng = Rng::with_seed(4);
        let strings: Vec<SpanString> = (0..60)
            .map(|_| SpanString::random_with_occupancy(32, 8, &mut rng))
            .collect();
        let mut order: Vec<usize> = (0..60).collect();
        rng.shuffle(&mut order);
        let (l, r) = order.split_at(30);
        let mut prev = 0;
        for t in [1usize, 2, 4, 8, 16, 32, 64] {
            let out = split_mesher_presplit(&strings, l, r, t);
            assert!(
                out.released() >= prev,
                "t={t} released {} < previous {prev}",
                out.released()
            );
            prev = out.released();
        }
    }

    #[test]
    fn approaches_half_of_maximum_matching() {
        // Lemma 5.3's qualitative content: with t ≫ 1/q, SplitMesher
        // finds at least ~half the optimum (restricted to the split).
        let mut rng = Rng::with_seed(5);
        let mut ratio_sum = 0.0;
        let mut trials = 0;
        for _ in 0..15 {
            let strings: Vec<SpanString> = (0..20)
                .map(|_| SpanString::random_with_occupancy(32, 8, &mut rng))
                .collect();
            let out = split_mesher(&strings, 256, &mut rng);
            let g = MeshGraph::from_strings(strings);
            let opt = maximum_matching_size(&g);
            if opt > 0 {
                ratio_sum += out.released() as f64 / opt as f64;
                trials += 1;
            }
        }
        let avg = ratio_sum / trials as f64;
        assert!(avg >= 0.5, "average quality {avg} below the 1/2 guarantee");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let mut rng = Rng::with_seed(6);
        assert_eq!(split_mesher(&[], 64, &mut rng).released(), 0);
        let one = vec![SpanString::zeros(8)];
        assert_eq!(split_mesher(&one, 64, &mut rng).released(), 0);
        let two = vec![SpanString::zeros(8), SpanString::zeros(8)];
        assert_eq!(split_mesher(&two, 64, &mut rng).released(), 1);
    }
}

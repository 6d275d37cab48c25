//! Multi-way first fit on pure strings: the pairing step of a heap pass
//! (`mesh_core`'s meshing module), run on §5's strings so that it can be
//! set beside SplitMesher and the optima on the same inputs.
//!
//! The strings are taken fullest first. Each joins the first clique, in
//! the order they opened, whose union it is disjoint from; a clique whose
//! occupancy and the string's together overflow the span is passed over
//! without a test. A string that joins none opens a clique of its own.
//! The search is exact, as the heap's is within its budget of word
//! operations. So one run approximates `MinCliqueCover` (§5.1) where
//! SplitMesher approximates a matching: `k` strings in a clique release
//! `k − 1` spans.

use crate::clique_cover::CliqueCover;
use crate::string::SpanString;

/// Result of one first-fit run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirstFitOutcome {
    /// The cliques, as indices into the input slice; every string is in
    /// exactly one.
    pub cover: CliqueCover,
    /// Mesh tests performed.
    pub probes: usize,
}

impl FirstFitOutcome {
    /// Spans released: `k − 1` per clique of `k`.
    pub fn released(&self) -> usize {
        self.cover.iter().map(|clique| clique.len() - 1).sum()
    }
}

/// Runs first fit over `strings`, testing every open clique.
pub fn first_fit(strings: &[SpanString]) -> FirstFitOutcome {
    let mut order: Vec<usize> = (0..strings.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(strings[i].occupancy()));
    // The cliques, in the order they opened: their members and union.
    let mut cliques: Vec<(Vec<usize>, SpanString)> = Vec::new();
    let mut probes = 0;
    for i in order {
        let s = &strings[i];
        let fit = cliques.iter().position(|(_, union)| {
            union.occupancy() + s.occupancy() <= s.len() && {
                probes += 1;
                union.meshes_with(s)
            }
        });
        match fit {
            Some(k) => {
                let (members, union) = &mut cliques[k];
                members.push(i);
                *union = union.union(s);
            }
            None => cliques.push((vec![i], s.clone())),
        }
    }
    let cover = cliques.into_iter().map(|(members, _)| members).collect();
    FirstFitOutcome { cover, probes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blossom::blossom_matching_size;
    use crate::clique_cover::{greedy_cover, is_valid_cover, spans_released};
    use crate::graph::MeshGraph;
    use crate::split_mesher::split_mesher;
    use mesh_core::rng::Rng;

    /// First fit as the heap ran it under §3.3's probe limit: each string
    /// tests at most `t` of the open cliques, from a random one on, and a
    /// full clique closes.
    fn probed_first_fit(strings: &[SpanString], t: usize, rng: &mut Rng) -> usize {
        let mut order: Vec<usize> = (0..strings.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(strings[i].occupancy()));
        let (mut open, mut released): (Vec<SpanString>, _) = (Vec::new(), 0);
        for i in order {
            let s = &strings[i];
            let start = if open.is_empty() { 0 } else { rng.below(open.len() as u32) as usize };
            let fit = (0..open.len().min(t))
                .map(|k| (start + k) % open.len())
                .filter(|&k| open[k].occupancy() + s.occupancy() <= s.len())
                .find(|&k| open[k].meshes_with(s));
            let Some(k) = fit else {
                open.push(s.clone());
                continue;
            };
            released += 1;
            open[k] = open[k].union(s);
            if open[k].occupancy() == s.len() {
                open.swap_remove(k);
            }
        }
        released
    }

    #[test]
    fn four_disjoint_quarters_make_one_clique() {
        let strings: Vec<SpanString> = (0..4)
            .map(|q| SpanString::from_bits(16, &[4 * q, 4 * q + 1, 4 * q + 2, 4 * q + 3]))
            .collect();
        let out = first_fit(&strings);
        assert_eq!(out.cover.len(), 1, "{:?}", out.cover);
        assert_eq!(out.released(), 3);
        // The clique fills the span and closes; every join took one test.
        assert_eq!(out.probes, 3);
    }

    #[test]
    fn output_is_a_valid_cover() {
        let mut rng = Rng::with_seed(2);
        for ones in [1usize, 5, 12] {
            let strings: Vec<SpanString> = (0..60)
                .map(|_| SpanString::random_with_occupancy(32, ones, &mut rng))
                .collect();
            let out = first_fit(&strings);
            assert!(out.probes <= 60 * 59 / 2, "{ones} ones: {} probes", out.probes);
            let g = MeshGraph::from_strings(strings);
            assert!(is_valid_cover(&g, &out.cover), "{ones} ones: invalid cover");
        }
    }

    #[test]
    fn a_full_string_set_releases_nothing() {
        let strings = vec![SpanString::from_bits(8, &[0, 1, 2, 3, 4, 5, 6, 7]); 3];
        let out = first_fit(&strings);
        assert_eq!(out.released(), 0);
        assert_eq!(out.probes, 0, "the occupancy filter tests no bitmap");
        assert_eq!(first_fit(&[]).released(), 0);
    }

    /// DESIGN.md §6 E22: spans released by exact first fit, by first fit
    /// and SplitMesher at t = 64, by the unbounded greedy clique cover, and
    /// by the maximum matching (blossom), on §5's random strings (b = 64
    /// slots, r live). Run with `--nocapture` for the table.
    #[test]
    fn first_fit_against_split_mesher_and_the_optima() {
        let mut rng = Rng::with_seed(0xE22);
        let b = 64;
        println!("n    r   exact_ff  ff_t64  split_mesher  greedy_cover  blossom");
        for &(n, r) in &[(256usize, 4usize), (256, 8), (256, 12), (256, 16)] {
            let trials = 4;
            let mut sums = [0usize; 5];
            for _ in 0..trials {
                let strings: Vec<SpanString> = (0..n)
                    .map(|_| SpanString::random_with_occupancy(b, r, &mut rng))
                    .collect();
                let out = first_fit(&strings);
                sums[0] += out.released();
                sums[1] += probed_first_fit(&strings, 64, &mut rng);
                sums[2] += split_mesher(&strings, 64, &mut rng).released();
                let g = MeshGraph::from_strings(strings);
                assert!(is_valid_cover(&g, &out.cover), "n={n} r={r}");
                sums[3] += spans_released(n, &greedy_cover(&g));
                sums[4] += blossom_matching_size(&g);
            }
            let [ff, t64, sm, gc, bl] = sums.map(|s| s as f64 / trials as f64);
            println!("{n:<4} {r:<3} {ff:>8.1} {t64:>7.1} {sm:>13.1} {gc:>13.1} {bl:>8.1}");
            assert!(ff >= t64, "n={n} r={r}: exact first fit {ff} below t = 64's {t64}");
            assert!(t64 >= sm, "n={n} r={r}: first fit {t64} below SplitMesher {sm}");
            assert!(sm <= bl, "SplitMesher finds a matching, at most the maximum");
        }
    }
}

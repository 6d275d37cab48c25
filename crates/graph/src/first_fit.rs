//! Multi-way first fit on pure strings: the pairing step of a heap pass
//! (`mesh_core`'s meshing module), run on §5's strings so that it can be
//! set beside SplitMesher and the optima on the same inputs.
//!
//! The strings are taken fullest first. Each probes at most `t` of the
//! cliques opened so far, from a random one on, and joins the first whose
//! union it is disjoint from; a clique whose occupancy and the string's
//! together overflow the span is passed over without a test, and a full
//! one closes. A string that joins none opens a clique of its own. So one
//! run approximates `MinCliqueCover` (§5.1) where SplitMesher approximates
//! a matching: `k` strings in a clique release `k − 1` spans.

use crate::clique_cover::CliqueCover;
use crate::string::SpanString;
use mesh_core::rng::Rng;

/// Result of one first-fit run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirstFitOutcome {
    /// The cliques, as indices into the input slice; every string is in
    /// exactly one.
    pub cover: CliqueCover,
    /// Mesh tests performed (at most `t` per string).
    pub probes: usize,
}

impl FirstFitOutcome {
    /// Spans released: `k − 1` per clique of `k`.
    pub fn released(&self) -> usize {
        self.cover.iter().map(|clique| clique.len() - 1).sum()
    }
}

/// Runs first fit over `strings` with probe limit `t`.
pub fn first_fit(strings: &[SpanString], t: usize, rng: &mut Rng) -> FirstFitOutcome {
    let mut order: Vec<usize> = (0..strings.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(strings[i].occupancy()));
    // The open cliques: their members and their union.
    let mut open: Vec<(Vec<usize>, SpanString)> = Vec::new();
    let mut cover = CliqueCover::new();
    let mut probes = 0;
    for i in order {
        let s = &strings[i];
        let start = match open.len() {
            0 => 0,
            len => rng.below(len as u32) as usize,
        };
        let fit = (0..open.len().min(t))
            .map(|k| (start + k) % open.len())
            .filter(|&k| open[k].1.occupancy() + s.occupancy() <= s.len())
            .find(|&k| {
                probes += 1;
                open[k].1.meshes_with(s)
            });
        let Some(k) = fit else {
            open.push((vec![i], s.clone()));
            continue;
        };
        let (members, union) = &mut open[k];
        members.push(i);
        *union = union.union(s);
        if union.occupancy() == s.len() {
            cover.push(open.swap_remove(k).0);
        }
    }
    cover.extend(open.into_iter().map(|(members, _)| members));
    FirstFitOutcome { cover, probes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blossom::blossom_matching_size;
    use crate::clique_cover::{greedy_cover, is_valid_cover, spans_released};
    use crate::graph::MeshGraph;
    use crate::split_mesher::split_mesher;

    #[test]
    fn four_disjoint_quarters_make_one_clique() {
        let strings: Vec<SpanString> = (0..4)
            .map(|q| SpanString::from_bits(16, &[4 * q, 4 * q + 1, 4 * q + 2, 4 * q + 3]))
            .collect();
        let out = first_fit(&strings, 64, &mut Rng::with_seed(1));
        assert_eq!(out.cover.len(), 1, "{:?}", out.cover);
        assert_eq!(out.released(), 3);
        // The clique fills the span and closes; every join took one test.
        assert_eq!(out.probes, 3);
    }

    #[test]
    fn output_is_a_valid_cover_within_the_probe_limit() {
        let mut rng = Rng::with_seed(2);
        for t in [1usize, 4, 64] {
            let strings: Vec<SpanString> = (0..60)
                .map(|_| SpanString::random_with_occupancy(32, 5, &mut rng))
                .collect();
            let out = first_fit(&strings, t, &mut rng);
            assert!(
                out.probes <= t * strings.len(),
                "t={t}: {} probes",
                out.probes
            );
            let g = MeshGraph::from_strings(strings);
            assert!(is_valid_cover(&g, &out.cover), "t={t}: invalid cover");
        }
    }

    #[test]
    fn a_full_string_set_releases_nothing() {
        let strings = vec![SpanString::from_bits(8, &[0, 1, 2, 3, 4, 5, 6, 7]); 3];
        let out = first_fit(&strings, 64, &mut Rng::with_seed(3));
        assert_eq!(out.released(), 0);
        assert_eq!(out.probes, 0, "the occupancy filter tests no bitmap");
        assert_eq!(first_fit(&[], 64, &mut Rng::with_seed(3)).released(), 0);
    }

    /// DESIGN.md §6 E22: spans released by first fit and SplitMesher at
    /// t = 64, by the unbounded greedy clique cover, and by the maximum
    /// matching (blossom), on §5's random strings (b = 64 slots, r live).
    /// Run with `--nocapture` for the table.
    #[test]
    fn first_fit_against_split_mesher_and_the_optima() {
        let mut rng = Rng::with_seed(0xE22);
        let b = 64;
        println!("n    r   first_fit  split_mesher  greedy_cover  blossom");
        for &(n, r) in &[(256usize, 4usize), (256, 8), (256, 12), (256, 16)] {
            let trials = 4;
            let mut sums = [0usize; 4];
            for _ in 0..trials {
                let strings: Vec<SpanString> = (0..n)
                    .map(|_| SpanString::random_with_occupancy(b, r, &mut rng))
                    .collect();
                sums[0] += first_fit(&strings, 64, &mut rng).released();
                sums[1] += split_mesher(&strings, 64, &mut rng).released();
                let g = MeshGraph::from_strings(strings);
                sums[2] += spans_released(n, &greedy_cover(&g));
                sums[3] += blossom_matching_size(&g);
            }
            let [ff, sm, gc, bl] = sums.map(|s| s as f64 / trials as f64);
            println!("{n:<4} {r:<3} {ff:>9.1} {sm:>13.1} {gc:>13.1} {bl:>8.1}");
            assert!(
                ff >= sm,
                "n={n} r={r}: first fit {ff} below SplitMesher {sm}"
            );
            assert!(
                sm <= bl,
                "SplitMesher finds a matching, at most the maximum"
            );
        }
    }
}

//! The paper's §5 maths, checked on sampled meshing graphs.
//!
//! * §2.2: 64 spans with one 16-byte object each (b = 256 slots) are all
//!   pairwise-unmeshable with probability 10⁻¹⁵².
//! * §5.2: for b = 32, r = 10, n = 1000, the expected number of
//!   triangles is < 2, versus 167 if edges were independent (hence
//!   Erdős–Renyi reasoning is invalid on meshing graphs), and solving
//!   Matching instead of MinCliqueCover loses almost nothing, because
//!   cliques of size ≥ 3 are rare.
//! * Lemma 5.3: with probe limit `t = k/q` (where `q` is the pairwise
//!   mesh probability), SplitMesher finds a matching of size at least
//!   `n(1 − e^{−2k})/4` with probability approaching 1 as `n` grows, and
//!   at least half of the maximum matching.

use mesh::core::rng::Rng;
use mesh::graph::blossom::blossom_matching_size;
use mesh::graph::clique_cover::min_clique_cover_size;
use mesh::graph::erdos_renyi::compare_models;
use mesh::graph::graph::MeshGraph;
use mesh::graph::matching::maximum_matching_size;
use mesh::graph::probability::{
    expected_triangles_actual, expected_triangles_independent, lemma53_bound,
    log10_all_same_offset, mesh_probability,
};
use mesh::graph::split_mesher::{lemma53_trial, split_mesher};
use mesh::graph::string::SpanString;

#[test]
fn sec5_analysis() {
    // §2.2 — probability that randomization fails.
    let log10 = log10_all_same_offset(256, 64);
    assert!(log10 < -150.0);

    // §5.2 — triangle counts: meshing-graph edges are not independent.
    let (n, b, r) = (1000, 32, 10);
    let actual = expected_triangles_actual(n, b, r);
    let indep = expected_triangles_independent(n, b, r);
    assert!(actual < 2.0 && (160.0..175.0).contains(&indep));

    // Empirical edge density on sampled graphs (20 × n=200 graphs).
    let mut rng = Rng::with_seed(5252);
    let (sn, trials) = (200, 20);
    let mut edge_sum = 0usize;
    for _ in 0..trials {
        let g = MeshGraph::random(sn, b, r, &mut rng);
        edge_sum += g.edge_count();
    }
    let q = mesh_probability(b, r, r);
    let emp_q = edge_sum as f64 / (trials * sn * (sn - 1) / 2) as f64;
    assert!((emp_q - q).abs() < 0.01);

    // Sampled head-to-head against G(n, p) at equal density — the §7
    // point about DRM's flawed analysis: assuming a simple random graph
    // wildly overestimates clique structure.
    let mesh_g = MeshGraph::random(400, b, r, &mut rng);
    let cmp = compare_models(&mesh_g, &mut rng);
    assert!(
        (cmp.gnp_triangles as f64) > 4.0 * (cmp.mesh_triangles as f64 + 1.0),
        "independent-edge model should show far more triangles: {cmp:?}"
    );

    // §5.2 — Matching vs MinCliqueCover on small meshing graphs.
    let mut rng = Rng::with_seed(99);
    for &(n, b, r) in &[
        (16usize, 32usize, 2usize),
        (16, 32, 4),
        (16, 32, 8),
        (20, 64, 8),
        (20, 64, 16),
    ] {
        let trials = 12;
        let (mut m_sum, mut c_sum) = (0usize, 0usize);
        for _ in 0..trials {
            let g = MeshGraph::random(n, b, r, &mut rng);
            m_sum += maximum_matching_size(&g);
            // An optimal cover of k cliques releases n − k spans.
            c_sum += n - min_clique_cover_size(&g);
        }
        let ratio = if c_sum > 0 {
            m_sum as f64 / c_sum as f64
        } else {
            1.0
        };
        // §5.2 argues Matching ≈ MinCliqueCover *because triangles are
        // rare*; that premise (and hence the claim) only holds when the
        // expected triangle count is small. Low-occupancy rows where
        // cliques of size ≥ 3 abound are outside the claim's regime.
        let tri = expected_triangles_actual(n, b, r);
        let in_regime = tri < 1.0;
        if in_regime {
            assert!(
                ratio > 0.75,
                "matching should capture most of the cover's savings \
                 where triangles are rare (got {ratio:.2} at n={n} b={b} r={r})"
            );
        }
    }
}

#[test]
fn lemma53_matching() {
    // Lemma 5.3 — SplitMesher matching size ≥ n(1 − e^(−2k))/4 w.h.p.
    let mut rng = Rng::with_seed(0x1e553);
    let trials = 20;
    let b = 64;
    let mut all_ok = true;
    // Occupancies where meshing is plausible (q not astronomically small:
    // the lemma targets exactly the "significant meshing opportunities"
    // regime, §5). t = k/q stays ≤ ~10³ probes here.
    for &n in &[64usize, 256, 1024] {
        for &r in &[8usize, 12, 16] {
            let q = mesh_probability(b, r, r);
            for &k in &[0.5f64, 1.0, 2.0] {
                let t = ((k / q).ceil() as usize).max(1);
                let bound = lemma53_bound(n, k);
                let mut satisfied = 0usize;
                for _ in 0..trials {
                    let (outcome, _) = lemma53_trial(n, b, r, t, &mut rng);
                    if (outcome.released() as f64) >= bound {
                        satisfied += 1;
                    }
                }
                let rate = satisfied as f64 / trials as f64;
                // Lemma 5.3's hypotheses: k > 1 and n ≥ 2k/q ("as n ...
                // grows"). Rows outside that regime (k ≤ 1, or n too
                // small for the Chernoff tail to bite) carry no guarantee.
                let in_regime = k > 1.0 && n as f64 >= 2.0 * k / q;
                if in_regime && rate < 0.95 {
                    all_ok = false;
                }
            }
        }
    }
    assert!(all_ok, "Lemma 5.3 bound violated in its stated regime");

    // SplitMesher at the paper's t = 64 vs the true maximum matching
    // (Edmonds' blossom).
    for &(n, r) in &[
        (128usize, 4usize),
        (128, 8),
        (128, 12),
        (512, 4),
        (512, 8),
        (512, 12),
    ] {
        let q = mesh_probability(b, r, r);
        let trials = 8;
        let (mut found_sum, mut opt_sum) = (0usize, 0usize);
        for _ in 0..trials {
            let strings: Vec<SpanString> = (0..n)
                .map(|_| SpanString::random_with_occupancy(b, r, &mut rng))
                .collect();
            found_sum += split_mesher(&strings, 64, &mut rng).released();
            opt_sum += blossom_matching_size(&MeshGraph::from_strings(strings));
        }
        let ratio = found_sum as f64 / opt_sum.max(1) as f64;
        // Lemma 5.3 promises ≥ (1 − e^{−2k})/2 of the optimum for
        // t = k/q; at t = 64 and q ≳ 0.05 that is effectively 1/2.
        if q >= 0.05 {
            assert!(
                ratio >= 0.5,
                "SplitMesher below the 1/2-of-optimum guarantee ({ratio:.2})"
            );
        }
    }
}

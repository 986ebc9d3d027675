//! Floyd–Warshall all-pairs shortest paths as a GEP instance.
//!
//! `Σ` is the full set `[0,n)³` and `f(x, u, v, ·) = min(x, u ⊗ v)` —
//! the classic relaxation `d[i][j] = min(d[i][j], d[i][k] + d[k][j])`,
//! i.e. the closure update of the tropical semiring. I-GEP is exact for
//! this spec (it is one of the paper's motivating applications).
//!
//! The distance-only spec is simply the generic algebraic closure
//! [`SemiringSpec`] instantiated at the tropical algebra of the weight
//! type ([`MinPlusI64`] / [`MinPlusF64`]); [`FwSpec`] names it.
//! [`FwPredSpec`] additionally carries a predecessor matrix for path
//! reconstruction ([`extract_path_pred`] walks backward from the
//! destination — the representation `gep-serve` caches, since a point
//! query then touches a single row).
//!
//! Historical note: `i64` weight addition used to be plain `+`, which
//! both wrapped on large finite weights and let `INFINITY + negative`
//! undercut the sentinel (a missing edge could "win" a relaxation). The
//! algebra's `⊗` ([`MinPlusI64::mul`]) saturates and absorbs at
//! [`TROPICAL_INF`](gep_core::algebra::TROPICAL_INF); [`Weight::wadd`]
//! now delegates to it, so every caller inherits the fix.

use crate::closure::SemiringSpec;
use gep_core::algebra::{MinPlusF64, MinPlusI64, UpdateAlgebra, TROPICAL_INF};
use gep_kernels::AlgebraKernels;
use gep_matrix::Matrix;

/// Scalar-to-algebra bridge for shortest-path weights: names the tropical
/// algebra of an element type and re-exposes its sentinels under the
/// historical names (`INFINITY` = tropical `ZERO`, `ZERO` = tropical
/// `ONE`).
///
/// Reduced to a façade over [`UpdateAlgebra`]: the update logic and the
/// backend kernel hook both live on [`Weight::Alg`] now.
pub trait Weight: Copy + Send + Sync + PartialEq + PartialOrd + std::fmt::Debug + 'static {
    /// The tropical algebra this weight type instantiates.
    type Alg: AlgebraKernels<Elem = Self>;
    /// "No edge" marker — the algebra's `⊕`-identity / `⊗`-annihilator.
    const INFINITY: Self;
    /// Path-length identity — the algebra's `⊗`-identity.
    const ZERO: Self;
    /// Tropical `⊗` (path concatenation). Delegates to the algebra, which
    /// makes it absorbing at `INFINITY` and overflow-safe.
    #[inline(always)]
    fn wadd(self, other: Self) -> Self {
        <Self::Alg as UpdateAlgebra>::mul(self, other)
    }
}

impl Weight for i64 {
    type Alg = MinPlusI64;
    /// The shared sentinel [`TROPICAL_INF`](gep_core::algebra::TROPICAL_INF).
    const INFINITY: i64 = TROPICAL_INF;
    const ZERO: i64 = 0;
}

impl Weight for f64 {
    type Alg = MinPlusF64;
    const INFINITY: f64 = f64::INFINITY;
    const ZERO: f64 = 0.0;
}

/// Distance-only Floyd–Warshall spec: the algebraic closure over the
/// weight type's tropical algebra.
pub type FwSpec<W = i64> = SemiringSpec<<W as Weight>::Alg>;

/// Distance + *predecessor* spec for path reconstruction.
///
/// Element `(d, p)`: `d` is the current shortest distance from `i` to
/// `j`, `p` the vertex immediately *before* `j` on that path
/// ([`NO_PRED`] = none/self). When the relaxation through `k` strictly
/// improves `d[i][j]`, the predecessor of `(i, j)` becomes the
/// predecessor of `(k, j)` — the last hop of the `k → j` suffix.
#[derive(Clone, Copy, Debug, Default)]
pub struct FwPredSpec;

/// Sentinel "no predecessor".
pub const NO_PRED: u32 = u32::MAX;

impl gep_core::GepSpec for FwPredSpec {
    type Elem = (i64, u32);

    #[inline(always)]
    fn update(
        &self,
        _i: usize,
        _j: usize,
        _k: usize,
        x: (i64, u32),
        u: (i64, u32),
        v: (i64, u32),
        _w: (i64, u32),
    ) -> (i64, u32) {
        let cand = u.0.wadd(v.0);
        if cand < x.0 {
            (cand, v.1)
        } else {
            x
        }
    }

    #[inline(always)]
    fn in_sigma(&self, _i: usize, _j: usize, _k: usize) -> bool {
        true
    }

    #[inline(always)]
    fn tau(&self, n: usize, _i: usize, _j: usize, l: i64) -> Option<usize> {
        (l >= 0 && n > 0).then(|| (l as usize).min(n - 1))
    }
}

/// Builds the initial distance matrix from an edge list
/// (`n` vertices, directed edges `(from, to, weight)`).
///
/// `d[i][i] = 0`, absent edges are [`Weight::INFINITY`]; parallel edges
/// keep the minimum weight.
pub fn distance_matrix<W: Weight>(n: usize, edges: &[(usize, usize, W)]) -> Matrix<W> {
    let mut m = Matrix::from_fn(n, n, |i, j| if i == j { W::ZERO } else { W::INFINITY });
    for &(a, b, w) in edges {
        if w < m[(a, b)] {
            m[(a, b)] = w;
        }
    }
    m
}

/// Builds the initial `(dist, pred)` matrix for [`FwPredSpec`].
pub fn pred_matrix(n: usize, edges: &[(usize, usize, i64)]) -> Matrix<(i64, u32)> {
    let mut m = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            (0i64, NO_PRED)
        } else {
            (<i64 as Weight>::INFINITY, NO_PRED)
        }
    });
    for &(a, b, w) in edges {
        if a != b && w < m[(a, b)].0 {
            m[(a, b)] = (w, a as u32);
        }
    }
    m
}

/// Extracts the vertex sequence of a shortest `src → dst` path from a
/// solved [`FwPredSpec`] matrix, or `None` if unreachable. Walks
/// backward from `dst` along predecessors, touching only row `src`.
pub fn extract_path_pred(
    solved: &Matrix<(i64, u32)>,
    src: usize,
    dst: usize,
) -> Option<Vec<usize>> {
    if src == dst {
        return Some(vec![src]);
    }
    if solved[(src, dst)].0 >= <i64 as Weight>::INFINITY {
        return None;
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        let pred = solved[(src, cur)].1;
        debug_assert_ne!(pred, NO_PRED, "finite distance but missing predecessor");
        cur = pred as usize;
        path.push(cur);
        assert!(path.len() <= solved.n(), "cycle in predecessor matrix");
    }
    path.reverse();
    Some(path)
}

/// Convenience: solve APSP with the optimised sequential I-GEP engine.
///
/// # Panics
/// Panics unless `dist` is square with a power-of-two side (pad with
/// [`Weight::INFINITY`] via [`Matrix::padded`] first if needed).
pub fn apsp<W: Weight>(dist: &mut Matrix<W>, base_size: usize) {
    gep_core::igep_opt(&FwSpec::<W>::new(), dist, base_size);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::fw_reference;
    use gep_core::{cgep_full, gep_iterative, igep, igep_opt};

    fn random_graph(n: usize, seed: u64) -> Matrix<i64> {
        let mut s = seed;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0
            } else if rng() % 3 == 0 {
                <i64 as Weight>::INFINITY
            } else {
                (rng() % 50) as i64 + 1
            }
        })
    }

    #[test]
    fn all_engines_agree_with_reference() {
        for n in [2usize, 4, 8, 16, 32] {
            let init = random_graph(n, 0xF00D + n as u64);
            let oracle = fw_reference(&init);
            let mut g = init.clone();
            gep_iterative(&FwSpec::<i64>::new(), &mut g);
            assert_eq!(g, oracle, "G n={n}");
            let mut f = init.clone();
            igep(&FwSpec::<i64>::new(), &mut f, 1);
            assert_eq!(f, oracle, "igep n={n}");
            let mut opt = init.clone();
            igep_opt(&FwSpec::<i64>::new(), &mut opt, 4);
            assert_eq!(opt, oracle, "abcd n={n}");
            let mut h = init.clone();
            cgep_full(&FwSpec::<i64>::new(), &mut h, 2);
            assert_eq!(h, oracle, "cgep n={n}");
        }
    }

    #[test]
    fn kernel_override_matches_generic_on_all_base_sizes() {
        let n = 32;
        let init = random_graph(n, 77);
        let oracle = fw_reference(&init);
        for base in [1usize, 2, 4, 8, 16, 32] {
            let mut c = init.clone();
            apsp(&mut c, base);
            assert_eq!(c, oracle, "base={base}");
        }
    }

    /// Regression for the historical `wadd` overflow bug: with plain `+`,
    /// `INFINITY + (−w)` is *less than* `INFINITY`, so relaxing through a
    /// missing edge fabricated reachability; and two near-sentinel finite
    /// weights wrapped `i64`. Neither may happen now.
    #[test]
    fn missing_edges_and_near_sentinel_weights_do_not_undercut_infinity() {
        let inf = <i64 as Weight>::INFINITY;
        // Vertex 1 has *no* outgoing edges; 2 → 1 is a negative edge.
        // Old bug: d[0][1] = d[0][2] + d[2][1] with d[0][2] = INF gave
        // INF − 5 < INF. Correct: 0 cannot reach 1.
        let init = Matrix::from_rows(&[
            vec![0, inf, inf, 3],
            vec![inf, 0, inf, inf],
            vec![-5, -5, 0, inf],
            vec![inf, inf, inf, 0],
        ]);
        for base in [1usize, 2, 4] {
            let mut d = init.clone();
            apsp(&mut d, base);
            assert_eq!(d[(0, 1)], inf, "missing edge undercut, base={base}");
            assert_eq!(d[(3, 2)], inf);
            assert_eq!(d[(0, 3)], 3);
            assert_eq!(d[(2, 3)], -2, "finite relaxation must still work");
        }

        // Near-sentinel finite weights: the concatenation saturates to
        // INFINITY instead of wrapping negative and "winning".
        let big = inf - 1;
        let init = Matrix::from_rows(&[
            vec![0, big, inf, inf],
            vec![inf, 0, big, inf],
            vec![inf, inf, 0, inf],
            vec![inf, inf, inf, 0],
        ]);
        let mut d = init.clone();
        apsp(&mut d, 2);
        assert_eq!(d[(0, 1)], big);
        assert_eq!(d[(0, 2)], inf, "big + big must saturate, not wrap");
        assert_eq!(d, fw_reference(&init));
    }

    #[test]
    fn wadd_is_absorbing_and_saturating() {
        let inf = <i64 as Weight>::INFINITY;
        assert_eq!(inf.wadd(-100), inf);
        assert_eq!((-100).wadd(inf), inf);
        assert_eq!((inf - 1).wadd(inf - 1), inf);
        assert_eq!(5i64.wadd(7), 12);
        assert_eq!(f64::INFINITY.wadd(-100.0), f64::INFINITY);
    }

    #[test]
    fn f64_weights() {
        let n = 16;
        let mut s = 5u64;
        let init = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                if s.is_multiple_of(4) {
                    f64::INFINITY
                } else {
                    ((s >> 33) % 100) as f64 / 10.0
                }
            }
        });
        let mut a = init.clone();
        let mut b = init.clone();
        gep_iterative(&FwSpec::<f64>::new(), &mut a);
        apsp(&mut b, 4);
        // G and I-GEP may associate path sums differently, so distances
        // can differ by rounding; both are valid FW outputs.
        assert!(a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn paths_are_valid_and_optimal() {
        let edges = vec![
            (0usize, 1, 7i64),
            (0, 2, 2),
            (2, 1, 3),
            (1, 3, 1),
            (2, 3, 8),
            (3, 0, 4),
        ];
        let mut m = pred_matrix(4, &edges);
        igep_opt(&FwPredSpec, &mut m, 1);
        // 0 -> 1 via 2: cost 5.
        assert_eq!(m[(0, 1)].0, 5);
        assert_eq!(extract_path_pred(&m, 0, 1), Some(vec![0, 2, 1]));
        // 0 -> 3 via 2,1: 2 + 3 + 1 = 6.
        assert_eq!(m[(0, 3)].0, 6);
        assert_eq!(extract_path_pred(&m, 0, 3), Some(vec![0, 2, 1, 3]));
        // Self path.
        assert_eq!(extract_path_pred(&m, 2, 2), Some(vec![2]));
    }

    /// Pred-spec distances equal the distance-only spec's, and every
    /// reconstructed path walks to its destination with total weight
    /// equal to the distance.
    #[test]
    fn path_spec_distances_match_distance_spec() {
        let n = 16;
        for seed in [99u64, 0xD0A1] {
            let init_d = random_graph(n, seed);
            let mut d = init_d.clone();
            let mut p = pred_init(&init_d);
            apsp(&mut d, 4);
            igep_opt(&FwPredSpec, &mut p, 4);
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(p[(i, j)].0, d[(i, j)], "seed={seed} ({i},{j})");
                    if let Some(path) = extract_path_pred(&p, i, j) {
                        let total: i64 = path.windows(2).map(|w| init_d[(w[0], w[1])]).sum();
                        assert_eq!(total, d[(i, j)], "seed={seed} path {i}->{j}");
                    }
                }
            }
        }
    }

    #[test]
    fn unreachable_is_none() {
        // Two isolated vertices.
        let mut m = pred_matrix(2, &[]);
        igep_opt(&FwPredSpec, &mut m, 1);
        assert_eq!(extract_path_pred(&m, 0, 1), None);
    }

    /// Converts a distance matrix into the [`FwPredSpec`] initial state.
    fn pred_init(d: &Matrix<i64>) -> Matrix<(i64, u32)> {
        let n = d.n();
        Matrix::from_fn(n, n, |i, j| {
            let w = d[(i, j)];
            if i != j && w < <i64 as Weight>::INFINITY {
                (w, i as u32)
            } else if i == j {
                (0, NO_PRED)
            } else {
                (w, NO_PRED)
            }
        })
    }

    /// Differential: pred-spec distances match the independent Dijkstra
    /// oracle from every source, and every reconstructed path walks real
    /// edges of the input with total weight equal to that distance.
    #[test]
    fn pred_spec_differential_vs_dijkstra_oracle() {
        for (n, seed) in [(4usize, 0xBEEFu64), (8, 0xB0A7), (16, 0x1CEB), (32, 0x5EED)] {
            let init_d = random_graph(n, seed);
            let mut p = pred_init(&init_d);
            igep_opt(&FwPredSpec, &mut p, 4);
            for src in 0..n {
                let oracle = crate::reference::dijkstra_reference(&init_d, src);
                for dst in 0..n {
                    assert_eq!(p[(src, dst)].0, oracle[dst], "n={n} {src}->{dst}");
                    match extract_path_pred(&p, src, dst) {
                        Some(path) => {
                            assert_eq!(path[0], src);
                            assert_eq!(*path.last().unwrap(), dst);
                            let mut total = 0i64;
                            for win in path.windows(2) {
                                let w = init_d[(win[0], win[1])];
                                assert!(
                                    w < <i64 as Weight>::INFINITY,
                                    "path uses a missing edge {}->{}",
                                    win[0],
                                    win[1]
                                );
                                total += w;
                            }
                            assert_eq!(total, oracle[dst], "path weight {src}->{dst}");
                        }
                        None => assert_eq!(
                            oracle[dst],
                            <i64 as Weight>::INFINITY,
                            "no path returned but oracle reaches {src}->{dst}"
                        ),
                    }
                }
            }
        }
    }

    /// Differential on unit-weight graphs: pred-spec distances equal BFS
    /// hop counts, and every reconstructed path has exactly that many
    /// hops (shortest unweighted paths).
    #[test]
    fn pred_spec_differential_vs_bfs_oracle_on_unit_graphs() {
        fn bfs_hops(adj: &Matrix<i64>, src: usize) -> Vec<i64> {
            let n = adj.n();
            let inf = <i64 as Weight>::INFINITY;
            let mut hops = vec![inf; n];
            hops[src] = 0;
            let mut queue = std::collections::VecDeque::from([src]);
            while let Some(u) = queue.pop_front() {
                for v in 0..n {
                    if u != v && adj[(u, v)] == 1 && hops[v] == inf {
                        hops[v] = hops[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            hops
        }
        for (n, seed) in [(8usize, 0x8F5u64), (16, 0xFACE), (32, 0xD06)] {
            // Sparse unit-weight digraph: edge probability 1/4.
            let mut s = seed | 1;
            let mut rng = move || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s
            };
            let init_d = Matrix::from_fn(n, n, |i, j| {
                if i == j {
                    0
                } else if rng() % 4 == 0 {
                    1
                } else {
                    <i64 as Weight>::INFINITY
                }
            });
            let mut p = pred_init(&init_d);
            igep_opt(&FwPredSpec, &mut p, 4);
            for src in 0..n {
                let hops = bfs_hops(&init_d, src);
                for dst in 0..n {
                    assert_eq!(p[(src, dst)].0, hops[dst], "n={n} {src}->{dst}");
                    if let Some(path) = extract_path_pred(&p, src, dst) {
                        assert_eq!(path.len() as i64 - 1, hops[dst], "hops {src}->{dst}");
                    }
                }
            }
        }
    }

    /// No-path and self-loop edge cases: isolated vertices reconstruct to
    /// `None`, self paths are the single vertex, and explicit self-loop
    /// edges are ignored by the builder (a self loop never shortens a
    /// shortest path under nonnegative weights).
    #[test]
    fn pred_spec_no_path_and_self_loop_edge_cases() {
        // Vertex 3 is isolated; vertex 1 carries a self loop.
        let edges = vec![(0usize, 1, 2i64), (1, 1, 5), (1, 2, 3), (2, 0, 7)];
        let mut m = pred_matrix(4, &edges);
        assert_eq!(
            m[(1, 1)],
            (0, NO_PRED),
            "self loop must not enter the matrix"
        );
        igep_opt(&FwPredSpec, &mut m, 1);
        assert_eq!(extract_path_pred(&m, 0, 2), Some(vec![0, 1, 2]));
        assert_eq!(m[(0, 2)].0, 5);
        assert_eq!(extract_path_pred(&m, 1, 1), Some(vec![1]), "self path");
        for v in 0..3 {
            assert_eq!(extract_path_pred(&m, v, 3), None, "{v}->3 unreachable");
            assert_eq!(extract_path_pred(&m, 3, v), None, "3->{v} unreachable");
        }
        assert_eq!(extract_path_pred(&m, 3, 3), Some(vec![3]));
    }

    #[test]
    fn distance_matrix_takes_min_of_parallel_edges() {
        let m = distance_matrix::<i64>(2, &[(0, 1, 9), (0, 1, 4), (0, 1, 6)]);
        assert_eq!(m[(0, 1)], 4);
        assert_eq!(m[(1, 0)], <i64 as Weight>::INFINITY);
        assert_eq!(m[(0, 0)], 0);
    }
}

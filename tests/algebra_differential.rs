//! Algebra differential suite: every registered update algebra, every
//! engine, against an independent scalar oracle — plus the matmul
//! embed-vs-recursion invariant per algebra.
//!
//! All algebras exercised here are exact, so every comparison is
//! bitwise. CI runs this suite twice: once with the default kernel
//! backend and once under `GEP_KERNELS=portable`, pinning the vectorised
//! per-algebra kernels and the scalar generic base case to the same
//! results.

use gep::apps::matmul::{matmul, MatMulEmbedSpec};
use gep::apps::reference::{
    fw_reference, gf2_block_elim_reference, gfp_elim_reference, maxmin_reference, tc_reference,
};
use gep::apps::{ElimSpec, SemiringSpec};
use gep::core::algebra::{
    EliminationAlgebra, Gf2, Gf2Block, Gf2x64, GfMersenne31, MaxMinI64, MinPlusI64, OrAndBool,
    TROPICAL_INF,
};
use gep::core::{cgep_full, gep_iterative, igep, igep_opt};
use gep::kernels::AlgebraKernels;
use gep::matrix::Matrix;

fn rand64(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Every engine on a closure (semiring) instance, bitwise against the
/// oracle.
fn assert_closure_engines<A: AlgebraKernels>(
    init: &Matrix<A::Elem>,
    oracle: &Matrix<A::Elem>,
    base: usize,
) {
    let spec = SemiringSpec::<A>::new();
    let mut g = init.clone();
    gep_iterative(&spec, &mut g);
    assert_eq!(&g, oracle, "{}: G", A::NAME);
    let mut f = init.clone();
    igep(&spec, &mut f, base);
    assert_eq!(&f, oracle, "{}: igep base {base}", A::NAME);
    let mut o = init.clone();
    igep_opt(&spec, &mut o, base);
    assert_eq!(&o, oracle, "{}: igep_opt base {base}", A::NAME);
    let mut h = init.clone();
    cgep_full(&spec, &mut h, base);
    assert_eq!(&h, oracle, "{}: cgep base {base}", A::NAME);
}

/// Every engine on an elimination instance, bitwise against the oracle.
fn assert_elim_engines<A: AlgebraKernels + EliminationAlgebra>(
    init: &Matrix<A::Elem>,
    oracle: &Matrix<A::Elem>,
    base: usize,
) {
    let spec = ElimSpec::<A>::new();
    let mut g = init.clone();
    gep_iterative(&spec, &mut g);
    assert_eq!(&g, oracle, "{}: G", A::NAME);
    let mut o = init.clone();
    igep_opt(&spec, &mut o, base);
    assert_eq!(&o, oracle, "{}: igep_opt base {base}", A::NAME);
    let mut h = init.clone();
    cgep_full(&spec, &mut h, base);
    assert_eq!(&h, oracle, "{}: cgep base {base}", A::NAME);
}

/// The matmul embed-vs-recursion bitwise invariant for one algebra.
fn assert_embed_matches_recursion<A: AlgebraKernels>(
    a: &Matrix<A::Elem>,
    b: &Matrix<A::Elem>,
    base: usize,
) {
    let n = a.n();
    let dac = matmul::<A>(a, b, base);
    let mut emb = Matrix::from_fn(2 * n, 2 * n, |i, j| match (i < n, j < n) {
        (true, false) => b[(i, j - n)],
        (false, true) => a[(i - n, j)],
        _ => A::ZERO,
    });
    igep_opt(&MatMulEmbedSpec::<A>::new(n), &mut emb, base);
    let emb_c = Matrix::from_fn(n, n, |i, j| emb[(n + i, n + j)]);
    assert_eq!(emb_c, dac, "{}: embed vs recursion, base {base}", A::NAME);
}

#[test]
fn min_plus_engines_match_reference_with_sentinels() {
    for n in [4usize, 8, 16, 32] {
        let mut s = 0xD1F_u64 + n as u64;
        let init = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0i64
            } else {
                match rand64(&mut s) % 8 {
                    0 | 1 => TROPICAL_INF,
                    2 => TROPICAL_INF - 1 - (rand64(&mut s) % 50) as i64,
                    _ => (rand64(&mut s) % 100) as i64 + 1,
                }
            }
        });
        let oracle = fw_reference(&init);
        for base in [1usize, 4] {
            assert_closure_engines::<MinPlusI64>(&init, &oracle, base);
        }
    }
}

#[test]
fn max_min_engines_match_reference() {
    for n in [4usize, 8, 16, 32] {
        let mut s = 0xAB5_u64 + n as u64;
        let init = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                i64::MAX
            } else if rand64(&mut s).is_multiple_of(4) {
                i64::MIN
            } else {
                (rand64(&mut s) % 1000) as i64
            }
        });
        let oracle = maxmin_reference(&init);
        for base in [1usize, 4] {
            assert_closure_engines::<MaxMinI64>(&init, &oracle, base);
        }
    }
}

#[test]
fn or_and_engines_match_reference() {
    for n in [4usize, 8, 16, 32] {
        let mut s = 0x0AB_u64 + n as u64;
        let init = Matrix::from_fn(n, n, |i, j| i == j || rand64(&mut s).is_multiple_of(4));
        let oracle = tc_reference(&init);
        for base in [1usize, 4] {
            assert_closure_engines::<OrAndBool>(&init, &oracle, base);
        }
    }
}

/// Random invertible 64×64 bit block (unit-lower · unit-upper product).
fn gf2_invertible_block(s: &mut u64) -> Gf2Block {
    let mut lo = Gf2Block::IDENTITY;
    let mut up = Gf2Block::IDENTITY;
    for r in 0..64 {
        lo.0[r] |= rand64(s) & (((1u128 << r) - 1) as u64);
        up.0[r] |= rand64(s) & !(((1u128 << (r + 1)) - 1) as u64);
    }
    lo.mul(&up)
}

/// Block matrix with nonsingular leading block minors.
fn gf2_matrix_lu(n: usize, seed: u64) -> Matrix<Gf2Block> {
    let mut s = seed | 1;
    let rnd = |s: &mut u64| Gf2Block(std::array::from_fn(|_| rand64(s)));
    let mut lo = Matrix::square(n, Gf2Block::ZERO);
    let mut up = Matrix::square(n, Gf2Block::ZERO);
    for i in 0..n {
        for j in 0..n {
            if i == j {
                lo[(i, j)] = Gf2Block::IDENTITY;
                up[(i, j)] = gf2_invertible_block(&mut s);
            } else if i > j {
                lo[(i, j)] = rnd(&mut s);
            } else {
                up[(i, j)] = rnd(&mut s);
            }
        }
    }
    Matrix::from_fn(n, n, |i, j| {
        let mut acc = Gf2Block::ZERO;
        for m in 0..n {
            acc.xor_assign(&lo[(i, m)].mul(&up[(m, j)]));
        }
        acc
    })
}

#[test]
fn gf2_bitsliced_engines_match_scalar_block_reference() {
    for n in [1usize, 2, 4] {
        let init = gf2_matrix_lu(n, 0xF2B + n as u64);
        let oracle = gf2_block_elim_reference(&init);
        for base in [1usize, 2] {
            assert_elim_engines::<Gf2x64>(&init, &oracle, base.min(n));
        }
    }
}

#[test]
#[allow(clippy::needless_range_loop)] // textbook index form, on purpose
fn gf2_scalar_elimination_matches_naive_bit_ge() {
    // ElimSpec<Gf2> over plain bools against a textbook bit-level GE on
    // the Σ = {i > k ∧ j > k} region. The input is a unit-LU product, so
    // every pivot bit is 1.
    for n in [8usize, 16, 32] {
        let mut s = 0x61F + n as u64;
        let mut lo = vec![vec![false; n]; n];
        let mut up = vec![vec![false; n]; n];
        for r in 0..n {
            lo[r][r] = true;
            up[r][r] = true;
            for c in 0..r {
                lo[r][c] = rand64(&mut s) & 1 == 1;
            }
            for c in r + 1..n {
                up[r][c] = rand64(&mut s) & 1 == 1;
            }
        }
        let init = Matrix::from_fn(n, n, |i, j| {
            let mut acc = false;
            for k in 0..=i.min(j) {
                acc ^= lo[i][k] && up[k][j];
            }
            acc
        });

        let mut bits: Vec<Vec<bool>> = (0..n)
            .map(|i| (0..n).map(|j| init[(i, j)]).collect())
            .collect();
        for k in 0..n {
            assert!(bits[k][k], "pivot {k} vanished");
            for i in k + 1..n {
                if bits[i][k] {
                    for j in k + 1..n {
                        bits[i][j] ^= bits[k][j];
                    }
                }
            }
            // GEP's Σ leaves row k and column k untouched from step k on;
            // the naive GE above only rewrites j > k, matching it.
        }
        let oracle = Matrix::from_fn(n, n, |i, j| bits[i][j]);
        for base in [1usize, 4, 8] {
            assert_elim_engines::<Gf2>(&init, &oracle, base);
        }
    }
}

#[test]
fn gfp_engines_match_naive_mod_reference() {
    const P: u64 = 2_147_483_647;
    for n in [4usize, 8, 16] {
        let mut s = 0x3F0 + n as u64;
        let init = Matrix::from_fn(n, n, |i, j| {
            let x = rand64(&mut s) % P;
            if i == j && x == 0 {
                1
            } else {
                x
            }
        });
        let oracle = gfp_elim_reference(&init, P);
        for base in [1usize, 4] {
            assert_elim_engines::<GfMersenne31>(&init, &oracle, base);
        }
    }
}

#[test]
fn embed_vs_recursion_holds_per_algebra() {
    for n in [4usize, 8, 16] {
        let mut s = 0xE4B + n as u64;
        let ai = Matrix::from_fn(n, n, |_, _| (rand64(&mut s) % 200) as i64);
        let bi = Matrix::from_fn(n, n, |_, _| (rand64(&mut s) % 200) as i64);
        let ab = Matrix::from_fn(n, n, |_, _| rand64(&mut s).is_multiple_of(3));
        let bb = Matrix::from_fn(n, n, |_, _| rand64(&mut s).is_multiple_of(3));
        let ag = Matrix::from_fn(n, n, |_, _| {
            Gf2Block(std::array::from_fn(|_| rand64(&mut s)))
        });
        let bg = Matrix::from_fn(n, n, |_, _| {
            Gf2Block(std::array::from_fn(|_| rand64(&mut s)))
        });
        for base in [1usize, 4] {
            assert_embed_matches_recursion::<MinPlusI64>(&ai, &bi, base);
            assert_embed_matches_recursion::<MaxMinI64>(&ai, &bi, base);
            assert_embed_matches_recursion::<OrAndBool>(&ab, &bb, base);
            assert_embed_matches_recursion::<Gf2x64>(&ag, &bg, base);
        }
    }
}

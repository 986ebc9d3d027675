//! The paper's structural index functions: aligned intervals/subsquares,
//! `π`, `δ` (Definition 2.2) and helpers for Theorem 2.2.
//!
//! ## State-index convention
//!
//! The paper writes `c_k(i,j)` for the value of `c[i,j]` after all updates
//! `⟨i,j,k'⟩ ∈ Σ` with `k' ≤ k` (1-based). We use 0-based indices and
//! *prefix states*: state `m ∈ [0, n]` means "all updates with `k' < m`
//! applied". The translation is `state m ⇔ paper's c_{m}` read with the
//! 1-based/0-based shift absorbed: paper's `c_k` (1-based) = our state `k`.
//!
//! Under this convention, Theorem 2.2 reads: immediately before I-GEP
//! applies `⟨i,j,k⟩`,
//!
//! * `c[i,j]` is in state `k`,
//! * `c[i,k]` is in state [`pi_state`]`(n, j, k)`,
//! * `c[k,j]` is in state [`pi_state`]`(n, i, k)`,
//! * `c[k,k]` is in state [`delta_state`]`(n, i, j, k)`,
//!
//! while iterative GEP (Table 1, column G) reads
//!
//! * `c[i,k]` in state `k + [j > k]`,
//! * `c[k,j]` in state `k + [i > k]`,
//! * `c[k,k]` in state `k + [(i > k) ∨ (i = k ∧ j > k)]`.

/// An aligned interval for a power-of-two universe (0-based):
/// `[a, b]` with `b - a + 1 = 2^r` and `2^r | a`.
///
/// Returns `(a, b)` of the size-`2^r` aligned block containing `z`.
#[inline]
pub fn aligned_block(z: usize, r: u32) -> (usize, usize) {
    let size = 1usize << r;
    let a = z & !(size - 1);
    (a, a + size - 1)
}

/// True if `[a, b]` is an aligned subinterval of `[0, n)` (Definition
/// 2.1(a), 0-based).
pub fn is_aligned_interval(n: usize, a: usize, b: usize) -> bool {
    if a > b || b >= n {
        return false;
    }
    let len = b - a + 1;
    len.is_power_of_two() && a.is_multiple_of(len)
}

/// `π(x, z)` as a *state index* (Definition 2.2(b), 0-based).
///
/// For `x ≠ z`: let `[a, b]` be the largest aligned subinterval containing
/// `z` but not `x`; the result is `b + 1` ("all updates with `k' ≤ b`
/// applied"). For `x = z` the result is `z` (paper: `π(x,z) = z − 1`,
/// 1-based).
///
/// `n` must be a power of two and `x, z < n`.
#[inline]
pub fn pi_state(n: usize, x: usize, z: usize) -> usize {
    debug_assert!(n.is_power_of_two() && x < n && z < n);
    if x == z {
        return z;
    }
    // The aligned block of size 2^r containing z also contains x
    // iff x >> r == z >> r. The largest r where they differ is the
    // position of the most significant set bit of x ^ z.
    let r = usize::BITS - 1 - (x ^ z).leading_zeros();
    aligned_block(z, r).1 + 1
}

/// `δ(x, y, z)` as a *state index* (Definition 2.2(a), 0-based).
///
/// For `(x, y) ≠ (z, z)`: let `[a, b] × [a, b]` be the largest aligned
/// subsquare containing `(z, z)` but not `(x, y)`; the result is `b + 1`.
/// For `x = y = z` the result is `z`.
#[inline]
pub fn delta_state(n: usize, x: usize, y: usize, z: usize) -> usize {
    debug_assert!(n.is_power_of_two() && x < n && y < n && z < n);
    if x == z && y == z {
        return z;
    }
    // The aligned square of size 2^r centered on z's block contains (x, y)
    // iff both coordinates share z's block at scale r.
    let d = (x ^ z) | (y ^ z);
    let r = usize::BITS - 1 - d.leading_zeros();
    aligned_block(z, r).1 + 1
}

/// State index read by iterative GEP for `c[i,k]` before `⟨i,j,k⟩`
/// (Table 1, column G).
#[inline]
pub fn g_state_u(_i: usize, j: usize, k: usize) -> usize {
    k + usize::from(j > k)
}

/// State index read by iterative GEP for `c[k,j]` before `⟨i,j,k⟩`.
#[inline]
pub fn g_state_v(i: usize, _j: usize, k: usize) -> usize {
    k + usize::from(i > k)
}

/// State index read by iterative GEP for `c[k,k]` before `⟨i,j,k⟩`.
#[inline]
pub fn g_state_w(i: usize, j: usize, k: usize) -> usize {
    k + usize::from(i > k || (i == k && j > k))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference π by brute force over all aligned blocks.
    fn pi_brute(n: usize, x: usize, z: usize) -> usize {
        if x == z {
            return z;
        }
        let q = n.trailing_zeros();
        for r in (0..=q).rev() {
            let (a, b) = aligned_block(z, r);
            if !(a <= x && x <= b) {
                return b + 1;
            }
        }
        unreachable!("x != z always separated at r = 0");
    }

    /// Reference δ by brute force.
    fn delta_brute(n: usize, x: usize, y: usize, z: usize) -> usize {
        if x == z && y == z {
            return z;
        }
        let q = n.trailing_zeros();
        for r in (0..=q).rev() {
            let (a, b) = aligned_block(z, r);
            if !(a <= x && x <= b && a <= y && y <= b) {
                return b + 1;
            }
        }
        unreachable!("(x,y) != (z,z) always separated at r = 0");
    }

    #[test]
    fn pi_matches_brute_force() {
        for n in [2usize, 4, 8, 16, 32] {
            for x in 0..n {
                for z in 0..n {
                    assert_eq!(pi_state(n, x, z), pi_brute(n, x, z), "n={n} x={x} z={z}");
                }
            }
        }
    }

    #[test]
    fn delta_matches_brute_force() {
        for n in [2usize, 4, 8, 16] {
            for x in 0..n {
                for y in 0..n {
                    for z in 0..n {
                        assert_eq!(
                            delta_state(n, x, y, z),
                            delta_brute(n, x, y, z),
                            "n={n} x={x} y={y} z={z}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pi_examples() {
        // n = 8, z = 2 (block ladder: [2,2] ⊂ [2,3] ⊂ [0,3] ⊂ [0,7]).
        assert_eq!(pi_state(8, 2, 2), 2); // x == z
        assert_eq!(pi_state(8, 3, 2), 3); // [2,2] excludes 3 -> b=2
        assert_eq!(pi_state(8, 1, 2), 4); // [2,3] excludes 1 -> b=3
        assert_eq!(pi_state(8, 6, 2), 4); // [0,3] excludes 6 -> b=3
    }

    #[test]
    fn delta_examples() {
        assert_eq!(delta_state(8, 2, 2, 2), 2);
        // (x,y)=(3,1): [2,3]^2 contains x=3 but y=1 outside -> square [2,2]?
        // largest square containing (2,2) but not (3,1): [2,3]^2 contains
        // (3,1)? needs both 3 in [2,3] (yes) and 1 in [2,3] (no) -> [2,3]
        // works, b=3.
        assert_eq!(delta_state(8, 3, 1, 2), 4);
        assert_eq!(delta_state(8, 3, 3, 2), 3); // [2,2] is largest excluding (3,3)
    }

    #[test]
    fn pi_state_always_at_least_k_facts() {
        // π-state >= z always: the excluded block ends at or after z.
        for n in [4usize, 16] {
            for x in 0..n {
                for z in 0..n {
                    assert!(pi_state(n, x, z) >= z);
                    assert!(pi_state(n, x, z) <= n);
                }
            }
        }
    }

    #[test]
    fn aligned_interval_predicate() {
        assert!(is_aligned_interval(8, 0, 7));
        assert!(is_aligned_interval(8, 4, 5));
        assert!(is_aligned_interval(8, 6, 6));
        assert!(!is_aligned_interval(8, 1, 2)); // unaligned
        assert!(!is_aligned_interval(8, 2, 4)); // length 3
        assert!(!is_aligned_interval(8, 6, 9)); // out of range
        assert!(!is_aligned_interval(8, 5, 4)); // empty
    }

    #[test]
    fn g_state_matches_table1() {
        // Spot-check Table 1 (column G), 0-based translation.
        assert_eq!(g_state_u(5, 7, 3), 4); // j > k
        assert_eq!(g_state_u(5, 2, 3), 3); // j <= k
        assert_eq!(g_state_v(7, 5, 3), 4); // i > k
        assert_eq!(g_state_v(2, 5, 3), 3);
        assert_eq!(g_state_w(4, 0, 3), 4); // i > k
        assert_eq!(g_state_w(3, 4, 3), 4); // i == k, j > k
        assert_eq!(g_state_w(3, 3, 3), 3); // the pivot update itself
        assert_eq!(g_state_w(2, 9, 3), 3); // i < k
    }
}

//! Algebra sweep: one I-GEP timing per registered update algebra.
//!
//! Not a paper figure — the paper fixes `(min, +)` and `(+, ×)`; this
//! sweep shows the same cache-oblivious engine carrying every algebra the
//! unified [`gep_core::algebra`] trait family registers, and quantifies
//! the headline win of the bitsliced GF(2) representation: packing 64×64
//! bits into a [`Gf2Block`] turns word-level XOR/AND into 64-way
//! bit-parallel updates, so bitsliced elimination should run roughly an
//! order of magnitude faster than scalar `bool` elimination on the *same
//! bit matrix*.
//!
//! Throughput is reported in million cell updates per second, where a
//! "cell" is one logical element of the algebra's problem (a bit for both
//! GF(2) rows), making the scalar-vs-bitsliced pair directly comparable.

use crate::util::{fmt_secs, print_table, timed_best};
use crate::workloads::random_dist_matrix;
use gep_apps::{ElimSpec, SemiringSpec};
use gep_core::algebra::{Gf2, Gf2Block, Gf2x64, GfMersenne31, MaxMinI64, OrAndBool};
use gep_core::igep_opt;
use gep_matrix::Matrix;

/// One (algebra, n) timing.
#[derive(Clone, Debug)]
pub struct AlgebraRow {
    /// Algebra name (`UpdateAlgebra::NAME`, plus a representation
    /// suffix for the two GF(2) rows).
    pub algebra: &'static str,
    /// `"closure"` or `"elimination"` — which GEP instance was timed.
    pub kind: &'static str,
    /// Logical problem side: elements for the scalar algebras, *bits*
    /// for both GF(2) rows.
    pub n: usize,
    /// Optimised sequential I-GEP seconds.
    pub seconds: f64,
    /// Million logical cell updates per second (`n³ / seconds / 10⁶`).
    pub mcups: f64,
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Random `n × n` bit matrix with every leading principal minor equal
/// to 1 (a unit-lower × unit-upper product over GF(2)), so elimination
/// never meets a zero pivot. Shared by the scalar and bitsliced runs.
fn gf2_nonsingular_bits(n: usize, seed: u64) -> Vec<Vec<bool>> {
    let mut rng = Rng(seed | 1);
    // Row r of L: unit diagonal, random bits strictly below; row r of U:
    // unit diagonal, random bits strictly above. Dense bit product.
    let mut lo = vec![vec![false; n]; n];
    let mut up = vec![vec![false; n]; n];
    for r in 0..n {
        lo[r][r] = true;
        up[r][r] = true;
        for cell in lo[r].iter_mut().take(r) {
            *cell = rng.next() & 1 == 1;
        }
        for cell in up[r].iter_mut().skip(r + 1) {
            *cell = rng.next() & 1 == 1;
        }
    }
    let mut a = vec![vec![false; n]; n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = false;
            // L is unit lower triangular: k ≤ i contributes; U upper:
            // k ≤ j contributes.
            for (k, &l) in lo[i].iter().enumerate().take(i.min(j) + 1) {
                acc ^= l && up[k][j];
            }
            a[i][j] = acc;
        }
    }
    a
}

/// Packs an `n × n` bit matrix (`n` a multiple of 64) into 64×64 blocks.
fn pack_blocks(bits: &[Vec<bool>]) -> Matrix<Gf2Block> {
    let n = bits.len();
    let nb = n / 64;
    Matrix::from_fn(nb, nb, |bi, bj| {
        let mut blk = Gf2Block::ZERO;
        for r in 0..64 {
            for c in 0..64 {
                blk.set(r, c, bits[bi * 64 + r][bj * 64 + c]);
            }
        }
        blk
    })
}

/// Runs the sweep and prints the table. `sizes` are logical sides (bits
/// for GF(2)); every size must be a power of two ≥ 64.
pub fn algebras(sizes: &[usize], reps: usize) -> Vec<AlgebraRow> {
    let mut out = vec![];
    let mut table = vec![];
    let mut push = |row: AlgebraRow, table: &mut Vec<Vec<String>>| {
        table.push(vec![
            row.algebra.into(),
            row.kind.into(),
            row.n.to_string(),
            fmt_secs(row.seconds),
            format!("{:.0}", row.mcups),
        ]);
        out.push(row);
    };

    for &n in sizes {
        assert!(
            n.is_power_of_two() && n >= 64,
            "sizes must be powers of two >= 64"
        );
        let cells = n as f64 * n as f64 * n as f64;
        let mut rng = Rng(0xA16E_B6A5 ^ n as u64);

        // (min, +) closure — APSP (the Figure 8 workload).
        let fw = random_dist_matrix(n, 61608 + n as u64);
        let (_, secs) = timed_best(reps, || {
            let mut c = fw.clone();
            igep_opt(
                &SemiringSpec::<gep_core::algebra::MinPlusI64>::new(),
                &mut c,
                64,
            );
            c
        });
        push(
            AlgebraRow {
                algebra: "min-plus-i64",
                kind: "closure",
                n,
                seconds: secs,
                mcups: cells / secs / 1e6,
            },
            &mut table,
        );

        // (max, min) closure — bottleneck / widest paths.
        let cap = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                i64::MAX
            } else if rng.next().is_multiple_of(4) {
                i64::MIN
            } else {
                (rng.next() % 1000) as i64
            }
        });
        let (_, secs) = timed_best(reps, || {
            let mut c = cap.clone();
            igep_opt(&SemiringSpec::<MaxMinI64>::new(), &mut c, 64);
            c
        });
        push(
            AlgebraRow {
                algebra: "max-min-i64",
                kind: "closure",
                n,
                seconds: secs,
                mcups: cells / secs / 1e6,
            },
            &mut table,
        );

        // (∨, ∧) closure — reachability.
        let adj = Matrix::from_fn(n, n, |i, j| i == j || rng.next().is_multiple_of(8));
        let (_, secs) = timed_best(reps, || {
            let mut c = adj.clone();
            igep_opt(&SemiringSpec::<OrAndBool>::new(), &mut c, 64);
            c
        });
        push(
            AlgebraRow {
                algebra: "or-and-bool",
                kind: "closure",
                n,
                seconds: secs,
                mcups: cells / secs / 1e6,
            },
            &mut table,
        );

        // GF(2) elimination, scalar vs bitsliced on the same bit matrix.
        let bits = gf2_nonsingular_bits(n, 0x6F2 + n as u64);
        let scalar = Matrix::from_fn(n, n, |i, j| bits[i][j]);
        let (_, secs) = timed_best(reps, || {
            let mut c = scalar.clone();
            igep_opt(&ElimSpec::<Gf2>::new(), &mut c, 64);
            c
        });
        push(
            AlgebraRow {
                algebra: "gf2-scalar",
                kind: "elimination",
                n,
                seconds: secs,
                mcups: cells / secs / 1e6,
            },
            &mut table,
        );
        let blocks = pack_blocks(&bits);
        let nb = n / 64;
        let (_, secs) = timed_best(reps, || {
            let mut c = blocks.clone();
            igep_opt(&ElimSpec::<Gf2x64>::new(), &mut c, nb.min(8));
            c
        });
        push(
            AlgebraRow {
                algebra: "gf2-bitsliced",
                kind: "elimination",
                n,
                seconds: secs,
                mcups: cells / secs / 1e6,
            },
            &mut table,
        );

        // GF(2³¹ − 1) elimination — Barrett-reduced prime field.
        let gfp = Matrix::from_fn(n, n, |i, j| {
            let x = rng.next() % 2_147_483_647;
            if i == j && x == 0 {
                1
            } else {
                x
            }
        });
        let (_, secs) = timed_best(reps, || {
            let mut c = gfp.clone();
            igep_opt(&ElimSpec::<GfMersenne31>::new(), &mut c, 64);
            c
        });
        push(
            AlgebraRow {
                algebra: "gf-mersenne31",
                kind: "elimination",
                n,
                seconds: secs,
                mcups: cells / secs / 1e6,
            },
            &mut table,
        );
    }

    print_table(
        "Algebra sweep: optimised I-GEP per update algebra",
        &["algebra", "instance", "n", "time", "Mupd/s"],
        &table,
    );
    for &n in sizes {
        if let Some(s) = bitslice_speedup(&out, n) {
            println!("GF(2) bitsliced vs scalar at n = {n}: {s:.1}x");
        }
    }
    println!("note: n counts logical cells (bits for the GF(2) rows), so the two");
    println!("      GF(2) rows eliminate the same bit matrix and compare directly.");
    out
}

/// Bitsliced-over-scalar GF(2) throughput ratio at size `n`, when both
/// rows are present.
pub fn bitslice_speedup(rows: &[AlgebraRow], n: usize) -> Option<f64> {
    let secs = |name: &str| {
        rows.iter()
            .find(|r| r.algebra == name && r.n == n)
            .map(|r| r.seconds)
    };
    Some(secs("gf2-scalar")? / secs("gf2-bitsliced")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gf2_bit_construction_is_nonsingular_and_packs_consistently() {
        let n = 128;
        let bits = gf2_nonsingular_bits(n, 7);
        // Unit-triangular product ⇒ determinant 1: eliminate and demand a
        // full set of pivots.
        let mut m = bits.clone();
        for k in 0..n {
            assert!(m[k][k], "pivot {k} vanished");
            for i in k + 1..n {
                if m[i][k] {
                    let (top, bottom) = m.split_at_mut(i);
                    let (row_k, row_i) = (&top[k], &mut bottom[0]);
                    for j in 0..n {
                        row_i[j] ^= row_k[j];
                    }
                }
            }
        }
        let blocks = pack_blocks(&bits);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    blocks[(i / 64, j / 64)].get(i % 64, j % 64),
                    bits[i][j],
                    "bit ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn sweep_runs_and_reports_speedup_at_minimum_size() {
        let rows = algebras(&[64], 1);
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.seconds > 0.0 && r.mcups > 0.0));
        assert!(bitslice_speedup(&rows, 64).is_some());
    }
}

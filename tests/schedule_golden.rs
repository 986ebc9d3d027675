//! Golden schedule: the leaf order of the Figure 2 walker and the step
//! counts that checkpoint cursors index.
//!
//! The out-of-core layer records progress as "the first `k` leaves of the
//! Figure 2 schedule are done" (checkpoint manifests, WAL records). A
//! cursor written by one build resumes correctly under another only if
//! both walk the same leaves in the same order. These tests pin that order
//! against a reference enumeration written out here, independent of the
//! recursion, and pin the step counts of two applications to the values
//! earlier builds produced.

use gep::apps::floyd_warshall::FwSpec;
use gep::apps::GaussianSpec;
use gep::core::igep::{walk, Cube};
use gep::core::{igep_step_count, GepSpec, SumSpec};
use std::ops::ControlFlow;

/// Figure 2, lines 5–6: the eight recursive calls of `F` in execution
/// order, as (row half, column half, k half) — forward pass `X11, X12,
/// X21, X22` on the first k-half, backward pass `X22, X21, X12, X11` on
/// the second.
const FIGURE2_CALLS: [(usize, usize, usize); 8] = [
    (0, 0, 0),
    (0, 1, 0),
    (1, 0, 0),
    (1, 1, 0),
    (1, 1, 1),
    (1, 0, 1),
    (0, 1, 1),
    (0, 0, 1),
];

fn cube(i0: usize, j0: usize, k0: usize, s: usize) -> Cube {
    Cube { i0, j0, k0, s }
}

/// The leaves the walker visits, in order.
fn walked<S: GepSpec>(spec: &S, n: usize, base: usize) -> Vec<Cube> {
    let mut leaves = vec![];
    let root = Cube::root(n, base).expect("n > 0");
    let flow = walk(spec, root, base, None, &mut |leaf| {
        leaves.push(leaf);
        ControlFlow::Continue(())
    });
    assert!(flow.is_continue());
    leaves
}

/// Reference enumeration without recursion. A leaf at depth `d` is named
/// by the `d` child calls taken on the way down from the root; `F` runs
/// the leaves in lexicographic order of those names, each call ranked by
/// [`FIGURE2_CALLS`]. Counting through all `8^d` names in that order and
/// keeping the boxes that contain an update of Σ (checked cell by cell)
/// gives the schedule.
fn reference<S: GepSpec>(spec: &S, n: usize, base: usize) -> Vec<Cube> {
    let depth = (n / base).trailing_zeros() as usize;
    let mut leaves = vec![];
    for name in 0..8usize.pow(depth as u32) {
        let (mut i0, mut j0, mut k0, mut s) = (0, 0, 0, n);
        for level in (0..depth).rev() {
            let (di, dj, dk) = FIGURE2_CALLS[(name >> (3 * level)) & 7];
            s /= 2;
            i0 += di * s;
            j0 += dj * s;
            k0 += dk * s;
        }
        let meets = (k0..k0 + s)
            .any(|k| (i0..i0 + s).any(|i| (j0..j0 + s).any(|j| spec.in_sigma(i, j, k))));
        if meets {
            leaves.push(cube(i0, j0, k0, s));
        }
    }
    leaves
}

#[test]
fn full_sigma_n8_base2_follows_figure2() {
    let leaves = walked(&SumSpec, 8, 2);
    assert_eq!(leaves, reference(&SumSpec, 8, 2));
    assert_eq!(leaves.len(), 64);
    // Written out: the first top-level call F(X11, k ∈ [0, 4)) visits its
    // own eight children first, in Figure 2 order ...
    assert_eq!(
        leaves[..8],
        [
            cube(0, 0, 0, 2),
            cube(0, 2, 0, 2),
            cube(2, 0, 0, 2),
            cube(2, 2, 0, 2),
            cube(2, 2, 2, 2),
            cube(2, 0, 2, 2),
            cube(0, 2, 2, 2),
            cube(0, 0, 2, 2),
        ]
    );
    // ... then F(X12, k ∈ [0, 4)) starts, and the last call of all is
    // F(X11, k ∈ [4, 8))'s last child.
    assert_eq!(leaves[8], cube(0, 4, 0, 2));
    assert_eq!(leaves[63], cube(0, 0, 6, 2));
}

#[test]
fn gaussian_sigma_n16_base4_follows_figure2() {
    let leaves = walked(&GaussianSpec, 16, 4);
    assert_eq!(leaves, reference(&GaussianSpec, 16, 4));
    // Σ = {i > k ∧ j > k}: leaf (I, J, K) of the 4×4×4 grid survives iff
    // I ≥ K and J ≥ K, i.e. 16 + 9 + 4 + 1 of them.
    assert_eq!(leaves.len(), 30);
    assert_eq!(leaves[0], cube(0, 0, 0, 4));
    // The whole second k-half runs inside F(X22): its backward pass
    // starts with the last surviving box and prunes the other three.
    assert_eq!(
        leaves[25..],
        [
            cube(8, 8, 8, 4),
            cube(8, 12, 8, 4),
            cube(12, 8, 8, 4),
            cube(12, 12, 8, 4),
            cube(12, 12, 12, 4),
        ]
    );
}

/// Step counts recorded before the Figure 2 engines shared one walker.
/// Checkpoints written then store these totals in their manifests.
#[test]
fn step_counts_match_recorded_values() {
    let fw = FwSpec::<i64>::new();
    assert_eq!(igep_step_count(&fw, 64, 8), 512);
    assert_eq!(igep_step_count(&fw, 256, 64), 64);
    assert_eq!(igep_step_count(&GaussianSpec, 64, 8), 204);
    assert_eq!(igep_step_count(&GaussianSpec, 256, 64), 30);
}

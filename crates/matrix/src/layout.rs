//! Address maps from matrix coordinates to linear memory addresses.
//!
//! The cache simulator (`gep-cachesim`) replays the exact sequence of
//! element addresses an algorithm touches. How `(i, j)` maps to an address
//! depends on the storage layout, so the map is factored out here as the
//! [`Layout`] trait with the three layouts the paper's experiments involve:
//! plain row-major, column-major (for contrast), and the Morton-tiled
//! layout of Section 4.2.

use crate::morton::interleave;

/// Maps a 2-D coordinate in an `n x n` matrix to a linear element index.
pub trait Layout: Send + Sync {
    /// Linear element index of `(i, j)` in an `n x n` matrix.
    fn index(&self, n: usize, i: usize, j: usize) -> usize;

    /// Human-readable layout name for reports.
    fn name(&self) -> &'static str;
}

/// Row-major layout: `index = i * n + j`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RowMajor;

impl Layout for RowMajor {
    #[inline]
    fn index(&self, n: usize, i: usize, j: usize) -> usize {
        i * n + j
    }
    fn name(&self) -> &'static str {
        "row-major"
    }
}

/// Column-major layout: `index = j * n + i`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ColMajor;

impl Layout for ColMajor {
    #[inline]
    fn index(&self, n: usize, i: usize, j: usize) -> usize {
        j * n + i
    }
    fn name(&self) -> &'static str {
        "col-major"
    }
}

/// Morton-ordered tiles of side `tile`, row-major within a tile
/// (the Section 4.2 layout).
#[derive(Clone, Copy, Debug)]
pub struct MortonTiled {
    /// Tile side; must be a power of two dividing `n`.
    pub tile: usize,
}

impl Layout for MortonTiled {
    #[inline]
    fn index(&self, n: usize, i: usize, j: usize) -> usize {
        debug_assert!(self.tile.is_power_of_two() && n.is_multiple_of(self.tile));
        let b = self.tile;
        let z = interleave((i / b) as u32, (j / b) as u32) as usize;
        z * b * b + (i % b) * b + (j % b)
    }
    fn name(&self) -> &'static str {
        "morton-tiled"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_bijective(layout: &dyn Layout, n: usize) {
        let mut seen = vec![false; n * n];
        for i in 0..n {
            for j in 0..n {
                let k = layout.index(n, i, j);
                assert!(k < n * n, "{} out of range", layout.name());
                assert!(!seen[k], "{} collision", layout.name());
                seen[k] = true;
            }
        }
    }

    #[test]
    fn row_major_is_bijective_and_contiguous_rows() {
        assert_bijective(&RowMajor, 8);
        assert_eq!(RowMajor.index(8, 3, 0), 24);
        assert_eq!(RowMajor.index(8, 3, 7), 31);
    }

    #[test]
    fn col_major_is_bijective_and_contiguous_cols() {
        assert_bijective(&ColMajor, 8);
        assert_eq!(ColMajor.index(8, 0, 3), 24);
        assert_eq!(ColMajor.index(8, 7, 3), 31);
    }

    #[test]
    fn morton_tiled_is_bijective() {
        assert_bijective(&MortonTiled { tile: 2 }, 8);
        assert_bijective(&MortonTiled { tile: 4 }, 16);
    }

    #[test]
    fn morton_tiled_matches_tiled_matrix_offsets() {
        let t = crate::TiledMatrix::filled(16, 4, 0u8);
        let l = MortonTiled { tile: 4 };
        for i in 0..16 {
            for j in 0..16 {
                assert_eq!(l.index(16, i, j), t.offset(i, j));
            }
        }
    }

    #[test]
    fn tile_interior_is_contiguous() {
        let l = MortonTiled { tile: 4 };
        let base = l.index(16, 4, 8); // tile (1, 2), local (0, 0)
        assert_eq!(l.index(16, 4, 9), base + 1);
        assert_eq!(l.index(16, 5, 8), base + 4);
        assert_eq!(l.index(16, 7, 11), base + 15);
    }
}

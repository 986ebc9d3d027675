//! Borrowed rectangular windows into a dense matrix.
//!
//! The recursive GEP algorithms operate on *aligned subsquares* of the input
//! matrix. A view is a `(base, rows, cols, row_stride)` window: element
//! `(i, j)` lives at linear offset `i * row_stride + j` from the base.
//! Splitting a view into its four quadrants is the structural step of every
//! algorithm in this workspace (Figures 2, 3 and 6 of the paper).
//!
//! [`MatViewMut`] is pointer-based rather than slice-based: the four
//! quadrants of a strided window interleave within the backing allocation
//! (top-left and top-right share rows), so they cannot be represented as
//! disjoint `&mut [T]` sub-slices. Holding a raw base pointer plus a
//! lifetime lets us hand out simultaneously-live quadrant views whose
//! *element sets* are provably disjoint, without ever materialising
//! overlapping `&mut` references.

use std::marker::PhantomData;
use std::ops::Index;

/// Immutable strided view of a `rows x cols` window.
#[derive(Clone, Copy)]
pub struct MatView<'a, T> {
    data: &'a [T],
    rows: usize,
    cols: usize,
    stride: usize,
}

impl<'a, T> MatView<'a, T> {
    /// Creates a view over `data` with the given shape and row stride.
    ///
    /// # Panics
    /// Panics if the window described by `(rows, cols, stride)` does not fit
    /// inside `data`.
    pub fn new(data: &'a [T], rows: usize, cols: usize, stride: usize) -> Self {
        assert!(cols <= stride || rows <= 1, "cols must not exceed stride");
        if rows > 0 {
            assert!(
                (rows - 1) * stride + cols <= data.len(),
                "view out of bounds"
            );
        }
        Self {
            data,
            rows,
            cols,
            stride,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row stride of the underlying storage.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Sub-window at `(top, left)` of shape `rows x cols`.
    pub fn window(&self, top: usize, left: usize, rows: usize, cols: usize) -> MatView<'a, T> {
        assert!(top + rows <= self.rows && left + cols <= self.cols);
        MatView::new(
            &self.data[top * self.stride + left..],
            rows,
            cols,
            self.stride,
        )
    }

    /// Splits a square, even-sided view into its four quadrants
    /// `[top-left, top-right, bottom-left, bottom-right]`.
    pub fn quadrants(&self) -> [MatView<'a, T>; 4] {
        assert_eq!(self.rows, self.cols, "quadrants need a square view");
        assert!(self.rows.is_multiple_of(2), "quadrants need an even side");
        let h = self.rows / 2;
        [
            self.window(0, 0, h, h),
            self.window(0, h, h, h),
            self.window(h, 0, h, h),
            self.window(h, h, h, h),
        ]
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.stride..i * self.stride + self.cols]
    }
}

impl<T: Copy> MatView<'_, T> {
    /// Element at `(i, j)` (copy).
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.stride + j]
    }

    /// Materialises the window as an owned [`crate::Matrix`].
    pub fn to_matrix(&self) -> crate::Matrix<T> {
        crate::Matrix::from_fn(self.rows, self.cols, |i, j| self.get(i, j))
    }
}

impl<T> Index<(usize, usize)> for MatView<'_, T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.stride + j]
    }
}

/// Mutable strided view of a `rows x cols` window.
///
/// Internally a raw base pointer plus shape; see the module docs for why.
/// The view logically holds a unique borrow of its *element set* (not of the
/// whole backing allocation), which is what allows
/// [`MatViewMut::quadrants_mut`] to return four simultaneously usable views.
pub struct MatViewMut<'a, T> {
    base: *mut T,
    rows: usize,
    cols: usize,
    stride: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: a MatViewMut owns unique access to its element set, exactly like
// `&mut [T]`; sending it to another thread is as safe as sending `&mut [T]`.
unsafe impl<T: Send> Send for MatViewMut<'_, T> {}

impl<'a, T> MatViewMut<'a, T> {
    /// Creates a mutable view over `data` with the given shape and stride.
    ///
    /// # Panics
    /// Panics if the window does not fit inside `data`.
    pub fn new(data: &'a mut [T], rows: usize, cols: usize, stride: usize) -> Self {
        assert!(cols <= stride || rows <= 1, "cols must not exceed stride");
        if rows > 0 {
            assert!(
                (rows - 1) * stride + cols <= data.len(),
                "view out of bounds"
            );
        }
        Self {
            base: data.as_mut_ptr(),
            rows,
            cols,
            stride,
            _marker: PhantomData,
        }
    }

    /// Creates a view from a raw base pointer.
    ///
    /// # Safety
    /// `base` must point to an allocation in which every element
    /// `(i, j)` with `i < rows`, `j < cols` at offset `i * stride + j` is
    /// valid, uniquely accessible through this view for the lifetime `'a`,
    /// and not accessed through any other reference while the view lives.
    pub unsafe fn from_raw(base: *mut T, rows: usize, cols: usize, stride: usize) -> Self {
        Self {
            base,
            rows,
            cols,
            stride,
            _marker: PhantomData,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row stride of the underlying storage.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Raw base pointer of the window.
    #[inline]
    pub fn as_ptr(&self) -> *mut T {
        self.base
    }

    #[inline(always)]
    fn offset(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        i * self.stride + j
    }

    /// Reference to element `(i, j)`.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> &T {
        // SAFETY: offset() checks bounds in debug; the constructor
        // guarantees in-window offsets are valid, and `&self` allows shared
        // reads of elements this view uniquely borrows.
        unsafe { &*self.base.add(self.offset(i, j)) }
    }

    /// Mutable reference to element `(i, j)`.
    #[inline(always)]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut T {
        let off = self.offset(i, j);
        // SAFETY: as above, with `&mut self` giving unique access.
        unsafe { &mut *self.base.add(off) }
    }

    /// Immutable snapshot view of the same window.
    pub fn as_view(&self) -> MatView<'_, T> {
        // SAFETY: the element set of this view is valid for reads; the
        // returned MatView borrows `self`, preventing mutation while alive.
        // The slice covers the full strided extent of the window, all of
        // which lies inside the original allocation (constructor contract).
        let len = if self.rows == 0 {
            0
        } else {
            (self.rows - 1) * self.stride + self.cols
        };
        let slice = unsafe { std::slice::from_raw_parts(self.base, len) };
        MatView::new(slice, self.rows, self.cols, self.stride)
    }

    /// Reborrows a mutable sub-window at `(top, left)` of shape
    /// `rows x cols`.
    pub fn window_mut(
        &mut self,
        top: usize,
        left: usize,
        rows: usize,
        cols: usize,
    ) -> MatViewMut<'_, T> {
        assert!(top + rows <= self.rows && left + cols <= self.cols);
        MatViewMut {
            // SAFETY: in-bounds offset within the window.
            base: unsafe { self.base.add(top * self.stride + left) },
            rows,
            cols,
            stride: self.stride,
            _marker: PhantomData,
        }
    }

    /// Splits a square, even-sided view into four *disjoint* mutable
    /// quadrants `[top-left, top-right, bottom-left, bottom-right]`,
    /// consuming the view so the quadrants can outlive `&mut self` reborrow
    /// scopes (they inherit lifetime `'a`).
    pub fn split_quadrants(self) -> [MatViewMut<'a, T>; 4] {
        assert_eq!(self.rows, self.cols, "quadrants need a square view");
        assert!(self.rows.is_multiple_of(2), "quadrants need an even side");
        let h = self.rows / 2;
        let q = |top: usize, left: usize| MatViewMut {
            // SAFETY: offsets stay inside the window; the four quadrants'
            // element sets are pairwise disjoint (disjoint row ranges or
            // disjoint column ranges), so unique access is preserved.
            base: unsafe { self.base.add(top * self.stride + left) },
            rows: h,
            cols: h,
            stride: self.stride,
            _marker: PhantomData,
        };
        [q(0, 0), q(0, h), q(h, 0), q(h, h)]
    }

    /// Splits into four disjoint mutable quadrants borrowed from `self`.
    pub fn quadrants_mut(&mut self) -> [MatViewMut<'_, T>; 4] {
        assert_eq!(self.rows, self.cols, "quadrants need a square view");
        assert!(self.rows.is_multiple_of(2), "quadrants need an even side");
        let h = self.rows / 2;
        let q = |top: usize, left: usize| MatViewMut {
            // SAFETY: see `split_quadrants`.
            base: unsafe { self.base.add(top * self.stride + left) },
            rows: h,
            cols: h,
            stride: self.stride,
            _marker: PhantomData,
        };
        [q(0, 0), q(0, h), q(h, 0), q(h, h)]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        assert!(i < self.rows);
        // SAFETY: row i occupies `cols` contiguous valid elements owned by
        // this view; `&mut self` guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.base.add(i * self.stride), self.cols) }
    }
}

impl<T: Copy> MatViewMut<'_, T> {
    /// Element at `(i, j)` (copy).
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> T {
        *self.at(i, j)
    }

    /// Sets element `(i, j)`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        *self.at_mut(i, j) = v;
    }

    /// Fills the window with `v`.
    pub fn fill(&mut self, v: T) {
        for i in 0..self.rows {
            self.row_mut(i).fill(v);
        }
    }

    /// Materialises the window as an owned [`crate::Matrix`].
    pub fn to_matrix(&self) -> crate::Matrix<T> {
        crate::Matrix::from_fn(self.rows, self.cols, |i, j| self.get(i, j))
    }
}

#[cfg(test)]
mod tests {
    use crate::Matrix;

    #[test]
    fn view_windows() {
        let m = Matrix::from_fn(4, 4, |i, j| i * 4 + j);
        let v = m.view();
        let w = v.window(1, 2, 2, 2);
        assert_eq!(w[(0, 0)], 6);
        assert_eq!(w[(1, 1)], 11);
        assert_eq!(w.rows(), 2);
        assert_eq!(w.to_matrix().as_slice(), &[6, 7, 10, 11]);
    }

    #[test]
    fn quadrants_immutable() {
        let m = Matrix::from_fn(4, 4, |i, j| (i, j));
        let [tl, tr, bl, br] = m.view().quadrants();
        assert_eq!(tl[(0, 0)], (0, 0));
        assert_eq!(tr[(0, 0)], (0, 2));
        assert_eq!(bl[(0, 0)], (2, 0));
        assert_eq!(br[(1, 1)], (3, 3));
    }

    #[test]
    fn quadrants_mut_disjoint_writes() {
        let mut m = Matrix::square(4, 0u32);
        {
            let mut v = m.view_mut();
            let [mut tl, mut tr, mut bl, mut br] = v.quadrants_mut();
            tl.fill(1);
            tr.fill(2);
            bl.fill(3);
            br.fill(4);
        }
        let expect = Matrix::from_fn(4, 4, |i, j| match (i < 2, j < 2) {
            (true, true) => 1,
            (true, false) => 2,
            (false, true) => 3,
            (false, false) => 4,
        });
        assert_eq!(m, expect);
    }

    #[test]
    fn split_quadrants_moves_lifetime() {
        let mut m = Matrix::square(4, 0u32);
        let [mut tl, _, _, mut br] = m.view_mut().split_quadrants();
        tl.set(0, 0, 1);
        br.set(1, 1, 4);
        assert_eq!(m[(0, 0)], 1);
        assert_eq!(m[(3, 3)], 4);
    }

    #[test]
    fn nested_windows_share_stride() {
        let mut m = Matrix::from_fn(8, 8, |i, j| (i * 8 + j) as i32);
        let mut v = m.view_mut();
        let mut w = v.window_mut(2, 2, 4, 4);
        let mut inner = w.window_mut(1, 1, 2, 2);
        inner.set(0, 0, -1);
        assert_eq!(m[(3, 3)], -1);
    }

    #[test]
    fn row_access() {
        let mut m = Matrix::from_fn(3, 3, |i, j| i * 3 + j);
        let mut v = m.view_mut();
        v.row_mut(1)[2] = 99;
        assert_eq!(m.view().row(1), &[3, 4, 99]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_bounds_checked() {
        let data = vec![0u8; 7];
        let _ = crate::MatView::new(&data, 2, 4, 4);
    }

    #[test]
    fn view_mut_fill_respects_window() {
        let mut m = Matrix::square(4, 0i32);
        m.view_mut().window_mut(1, 1, 2, 2).fill(5);
        assert_eq!(m[(0, 0)], 0);
        assert_eq!(m[(1, 1)], 5);
        assert_eq!(m[(2, 2)], 5);
        assert_eq!(m[(3, 3)], 0);
        assert_eq!(m[(1, 3)], 0);
    }

    #[test]
    fn as_view_snapshots() {
        let mut m = Matrix::from_fn(2, 2, |i, j| i + j);
        let vm = m.view_mut();
        let snap = vm.as_view();
        assert_eq!(snap[(1, 1)], 2);
    }

    #[test]
    fn quadrant_views_send_across_threads() {
        let mut m = Matrix::square(64, 0u64);
        let [mut tl, mut tr, mut bl, mut br] = m.view_mut().split_quadrants();
        std::thread::scope(|s| {
            s.spawn(move || tl.fill(1));
            s.spawn(move || tr.fill(2));
            s.spawn(move || bl.fill(3));
            s.spawn(move || br.fill(4));
        });
        assert_eq!(m[(0, 0)], 1);
        assert_eq!(m[(0, 63)], 2);
        assert_eq!(m[(63, 0)], 3);
        assert_eq!(m[(63, 63)], 4);
    }
}

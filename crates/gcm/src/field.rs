//! Tile-local field storage with halo regions.
//!
//! A field covers a tile's interior (`nx × ny` columns) plus a halo of
//! width `h` on all four sides, duplicating data owned by neighboring
//! tiles (Figure 5). Indices are signed: the interior is `0..nx` /
//! `0..ny`, the halo extends to `-h..0` and `nx..nx+h`.
//!
//! Storage is level-major (`k` slowest), so horizontal stencil sweeps walk
//! contiguous memory.
//!
//! Two ways in. `at`/`set` address one cell; their index is checked in
//! debug builds only, so in a release build an `i` beyond the halo lands
//! in a neighbouring row. `row`/`row_mut`/`block_mut` hand out spans of
//! rows as slices and check the span once, in every build — the form
//! every kernel of the PS and DS phases and the halo exchange sweep;
//! `at`/`set` are for set-up, diagnostics and tests.
//!
//! A PS kernel writes through a `Band`: whole rows of every level,
//! which `split_off` cuts into two disjoint bands that two threads can
//! write at once.

use std::ops::Range;

/// Positions of columns `is` of row `j` within one stored level
/// (`(nx + 2h) × (ny + 2h)` words).
#[inline]
fn row_span(nx: usize, ny: usize, h: usize, j: i64, is: Range<i64>) -> Range<usize> {
    let hi = h as i64;
    assert!(
        -hi <= j
            && j < ny as i64 + hi
            && -hi <= is.start
            && is.start <= is.end
            && is.end <= nx as i64 + hi,
        "row {j}, columns {is:?} outside field ({nx}x{ny}, halo {h})"
    );
    let row = (j + hi) as usize * (nx + 2 * h);
    row + (is.start + hi) as usize..row + (is.end + hi) as usize
}

/// Columns `is` of each row in `js` (neither empty) of one stored level,
/// in row order.
#[inline]
fn block_mut(
    level: &mut [f64],
    (nx, ny, h): (usize, usize, usize),
    is: Range<i64>,
    js: Range<i64>,
) -> impl Iterator<Item = &mut [f64]> {
    // Between the block's first and last word a row's columns start
    // every `nx + 2h` words.
    let width = (is.end - is.start) as usize;
    level[block_span((nx, ny, h), is, js)]
        .chunks_mut(nx + 2 * h)
        .map(move |row| &mut row[..width])
}

/// From the first of columns `is` in row `js.start` to the last in row
/// `js.end − 1` (neither range empty): the spans of the two rows bound
/// the block, and each is checked.
#[inline]
fn block_span((nx, ny, h): (usize, usize, usize), is: Range<i64>, js: Range<i64>) -> Range<usize> {
    let first = row_span(nx, ny, h, js.start, is.clone());
    let last = row_span(nx, ny, h, js.end - 1, is);
    first.start..last.end
}

/// The whole rows `js` of every level of a field, to write: all of them
/// (`Field2::band`, `Field3::band`), or one of the two disjoint parts
/// [`split_off`](Band::split_off) cuts a band into. Rows and columns are
/// addressed as in the field, and a span outside the band panics.
#[derive(Debug)]
pub(crate) struct Band<'a> {
    nx: usize,
    ny: usize,
    h: usize,
    js: Range<i64>,
    /// Rows `js` of each level, halo columns included.
    levels: Vec<&'a mut [f64]>,
}

impl<'a> Band<'a> {
    fn new(data: &'a mut [f64], (nx, ny, h): (usize, usize, usize)) -> Band<'a> {
        let hi = h as i64;
        Band {
            nx,
            ny,
            h,
            js: -hi..ny as i64 + hi,
            levels: data.chunks_mut((nx + 2 * h) * (ny + 2 * h)).collect(),
        }
    }

    pub(crate) fn nx(&self) -> usize {
        self.nx
    }

    pub(crate) fn nz(&self) -> usize {
        self.levels.len()
    }

    pub(crate) fn halo(&self) -> usize {
        self.h
    }

    /// The rows of the interior extended by `ext` rings (`-ext..ny + ext`)
    /// that this band holds; empty when it holds none of them.
    pub(crate) fn rows(&self, ext: i64) -> Range<i64> {
        // `i64::max`, not `.max`: `hyades-lint` resolves a method on a
        // receiver it cannot type by name (DESIGN §11), and the rows a
        // kernel sweeps must not look rank-dependent to it.
        let start = i64::max(self.js.start, -ext);
        start..i64::max(start, i64::min(self.js.end, self.ny as i64 + ext))
    }

    /// Cut the band at row `mid`: it keeps the rows below, and the rows
    /// from `mid` on are returned. Either part may be empty.
    pub(crate) fn split_off(&mut self, mid: i64) -> Band<'a> {
        assert!(
            self.js.start <= mid && mid <= self.js.end,
            "split row {mid} outside band {:?}",
            self.js
        );
        let at = (mid - self.js.start) as usize * (self.nx + 2 * self.h);
        let upper = self
            .levels
            .iter_mut()
            .map(|level| {
                let (below, above) = std::mem::take(level).split_at_mut(at);
                *level = below;
                above
            })
            .collect();
        let js = mid..self.js.end;
        self.js.end = mid;
        Band {
            js,
            levels: upper,
            ..*self
        }
    }

    /// Where columns `is` of row `j` lie in each level's rows.
    #[inline]
    fn span(&self, j: i64, is: Range<i64>) -> Range<usize> {
        assert!(self.js.contains(&j), "row {j} outside band {:?}", self.js);
        let skip = (self.js.start + self.h as i64) as usize * (self.nx + 2 * self.h);
        let row = row_span(self.nx, self.ny, self.h, j, is);
        row.start - skip..row.end - skip
    }

    #[inline]
    pub(crate) fn row_mut(&mut self, j: i64, k: usize, is: Range<i64>) -> &mut [f64] {
        let span = self.span(j, is);
        &mut self.levels[k][span]
    }

    /// Cell `(i, j)` on level `k`, for sweeps that visit scattered cells.
    #[inline]
    pub(crate) fn cell_mut(&mut self, i: i64, j: i64, k: usize) -> &mut f64 {
        let span = self.span(j, i..i + 1);
        &mut self.levels[k][span.start]
    }

    /// Columns `is` of row `j` on two different levels: `k_read` to read,
    /// `k_write` to write. For level-by-level sweeps whose carry is the
    /// field's own previous level.
    #[inline]
    pub(crate) fn row_pair(
        &mut self,
        j: i64,
        k_read: usize,
        k_write: usize,
        is: Range<i64>,
    ) -> (&[f64], &mut [f64]) {
        assert_ne!(k_read, k_write, "row_pair needs two different levels");
        let span = self.span(j, is);
        let (read, write) = if k_read < k_write {
            let (lo, hi) = self.levels.split_at_mut(k_write);
            (&lo[k_read], &mut hi[0])
        } else {
            let (lo, hi) = self.levels.split_at_mut(k_read);
            (&hi[0], &mut lo[k_write])
        };
        (&read[span.clone()], &mut write[span])
    }
}

/// Width of the lane blocks the bookkeeping scans fold: independent
/// accumulators, so the loop vectorises and does not wait on one chain.
const LANES: usize = 8;

/// Max of `acc` and `|x|` over `xs`. `f64::max` drops a NaN, and a max
/// of non-negative values is the same in any order, so the lane-blocked
/// fold is exactly the scalar `xs.iter().fold(acc, |m, x| m.max(x.abs()))`.
fn max_abs(acc: f64, xs: &[f64]) -> f64 {
    let mut lanes = [acc; LANES];
    let mut blocks = xs.chunks_exact(LANES);
    for block in &mut blocks {
        for (m, x) in lanes.iter_mut().zip(block) {
            *m = m.max(x.abs());
        }
    }
    let tail = blocks.remainder().iter().fold(acc, |m, x| m.max(x.abs()));
    lanes.iter().fold(tail, |m, &x| m.max(x))
}

/// Whether every value is finite. `x · 0` is a zero for every finite `x`
/// and NaN for ±∞ and NaN, so a lane's sum stays a zero exactly until it
/// meets one that is not.
fn all_finite(xs: &[f64]) -> bool {
    let mut lanes = [0.0; LANES];
    let mut blocks = xs.chunks_exact(LANES);
    for block in &mut blocks {
        for (s, x) in lanes.iter_mut().zip(block) {
            *s += x * 0.0;
        }
    }
    lanes.iter().all(|&s| s == 0.0) && blocks.remainder().iter().all(|x| x.is_finite())
}

/// A 2-D (single-level) field with halo.
#[derive(Clone, Debug, PartialEq)]
pub struct Field2 {
    nx: usize,
    ny: usize,
    h: usize,
    data: Vec<f64>,
}

/// A 3-D field with halo in the horizontal only (the vertical dimension
/// stays within a node, §3.2).
#[derive(Clone, Debug, PartialEq)]
pub struct Field3 {
    nx: usize,
    ny: usize,
    nz: usize,
    h: usize,
    data: Vec<f64>,
}

impl Field2 {
    pub fn new(nx: usize, ny: usize, h: usize) -> Field2 {
        Field2 {
            nx,
            ny,
            h,
            data: vec![0.0; (nx + 2 * h) * (ny + 2 * h)],
        }
    }

    pub fn nx(&self) -> usize {
        self.nx
    }
    pub fn ny(&self) -> usize {
        self.ny
    }
    pub fn halo(&self) -> usize {
        self.h
    }

    #[inline]
    fn idx(&self, i: i64, j: i64) -> usize {
        let h = self.h as i64;
        debug_assert!(
            i >= -h && i < self.nx as i64 + h && j >= -h && j < self.ny as i64 + h,
            "index ({i},{j}) outside field with halo {h}"
        );
        ((j + h) as usize) * (self.nx + 2 * self.h) + (i + h) as usize
    }

    #[inline]
    pub fn at(&self, i: i64, j: i64) -> f64 {
        self.data[self.idx(i, j)]
    }

    #[inline]
    pub fn set(&mut self, i: i64, j: i64, v: f64) {
        let ix = self.idx(i, j);
        self.data[ix] = v;
    }

    #[inline]
    pub fn add(&mut self, i: i64, j: i64, v: f64) {
        let ix = self.idx(i, j);
        self.data[ix] += v;
    }

    /// Columns `is` of row `j`; halo rows and columns are in range.
    #[inline]
    pub fn row(&self, j: i64, is: Range<i64>) -> &[f64] {
        &self.data[row_span(self.nx, self.ny, self.h, j, is)]
    }

    #[inline]
    pub fn row_mut(&mut self, j: i64, is: Range<i64>) -> &mut [f64] {
        &mut self.data[row_span(self.nx, self.ny, self.h, j, is)]
    }

    /// Columns `is` of each row in `js` (neither empty), in row order.
    #[inline]
    pub fn block_mut(
        &mut self,
        is: Range<i64>,
        js: Range<i64>,
    ) -> impl Iterator<Item = &mut [f64]> + '_ {
        block_mut(&mut self.data, (self.nx, self.ny, self.h), is, js)
    }

    /// Where the whole rows `js` (not empty), halo columns included, lie
    /// in the storage.
    #[inline]
    fn rows_span(&self, js: Range<i64>) -> Range<usize> {
        let is = -(self.h as i64)..(self.nx + self.h) as i64;
        block_span((self.nx, self.ny, self.h), is, js)
    }

    /// The whole rows `js` (not empty) as one slice: cell `(i, j)` is at
    /// `(j − js.start)·(nx + 2h) + h + i`. For sweeps that address
    /// several rows of several equally shaped fields with one index.
    #[inline]
    pub fn rows(&self, js: Range<i64>) -> &[f64] {
        &self.data[self.rows_span(js)]
    }

    #[inline]
    pub fn rows_mut(&mut self, js: Range<i64>) -> &mut [f64] {
        let span = self.rows_span(js);
        &mut self.data[span]
    }

    /// Every row, to write as a band of one level.
    pub(crate) fn band(&mut self) -> Band<'_> {
        Band::new(&mut self.data, (self.nx, self.ny, self.h))
    }

    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Interior iterator (excludes halo).
    pub fn interior(&self) -> impl Iterator<Item = (i64, i64)> + '_ {
        let nx = self.nx as i64;
        (0..self.ny as i64).flat_map(move |j| (0..nx).map(move |i| (i, j)))
    }

    /// Raw storage (tests, serialization).
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    pub fn raw_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Sum over the interior.
    pub fn interior_sum(&self) -> f64 {
        self.interior().map(|(i, j)| self.at(i, j)).sum()
    }

    /// Max |v| over the interior (a NaN is passed over).
    pub fn interior_max_abs(&self) -> f64 {
        let nx = self.nx as i64;
        (0..self.ny as i64).fold(0.0, |m, j| max_abs(m, self.row(j, 0..nx)))
    }
}

impl Field3 {
    pub fn new(nx: usize, ny: usize, nz: usize, h: usize) -> Field3 {
        Field3 {
            nx,
            ny,
            nz,
            h,
            data: vec![0.0; (nx + 2 * h) * (ny + 2 * h) * nz],
        }
    }

    pub fn nx(&self) -> usize {
        self.nx
    }
    pub fn ny(&self) -> usize {
        self.ny
    }
    pub fn nz(&self) -> usize {
        self.nz
    }
    pub fn halo(&self) -> usize {
        self.h
    }

    #[inline]
    fn idx(&self, i: i64, j: i64, k: usize) -> usize {
        let h = self.h as i64;
        debug_assert!(
            i >= -h && i < self.nx as i64 + h && j >= -h && j < self.ny as i64 + h && k < self.nz,
            "index ({i},{j},{k}) outside field ({}x{}x{} halo {h})",
            self.nx,
            self.ny,
            self.nz
        );
        (k * (self.ny + 2 * self.h) + (j + h) as usize) * (self.nx + 2 * self.h) + (i + h) as usize
    }

    #[inline]
    pub fn at(&self, i: i64, j: i64, k: usize) -> f64 {
        self.data[self.idx(i, j, k)]
    }

    #[inline]
    pub fn set(&mut self, i: i64, j: i64, k: usize, v: f64) {
        let ix = self.idx(i, j, k);
        self.data[ix] = v;
    }

    #[inline]
    pub fn add(&mut self, i: i64, j: i64, k: usize, v: f64) {
        let ix = self.idx(i, j, k);
        self.data[ix] += v;
    }

    /// Where columns `is` of row `j` on level `k` lie in the storage.
    #[inline]
    fn row_span(&self, j: i64, k: usize, is: Range<i64>) -> Range<usize> {
        let level = k * (self.nx + 2 * self.h) * (self.ny + 2 * self.h);
        let row = row_span(self.nx, self.ny, self.h, j, is);
        level + row.start..level + row.end
    }

    /// Columns `is` of row `j` on level `k`; halo rows and columns are in
    /// range.
    #[inline]
    pub fn row(&self, j: i64, k: usize, is: Range<i64>) -> &[f64] {
        &self.data[self.row_span(j, k, is)]
    }

    #[inline]
    pub fn row_mut(&mut self, j: i64, k: usize, is: Range<i64>) -> &mut [f64] {
        let span = self.row_span(j, k, is);
        &mut self.data[span]
    }

    /// Every row of every level, to write as a band.
    pub(crate) fn band(&mut self) -> Band<'_> {
        Band::new(&mut self.data, (self.nx, self.ny, self.h))
    }

    /// Columns `is` of each row in `js` (neither empty) on level `k`, in
    /// row order.
    #[inline]
    pub fn block_mut(
        &mut self,
        k: usize,
        is: Range<i64>,
        js: Range<i64>,
    ) -> impl Iterator<Item = &mut [f64]> + '_ {
        let level = (self.nx + 2 * self.h) * (self.ny + 2 * self.h);
        block_mut(
            &mut self.data[k * level..(k + 1) * level],
            (self.nx, self.ny, self.h),
            is,
            js,
        )
    }

    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// A single horizontal level as an owned `Field2` (diagnostics).
    pub fn level(&self, k: usize) -> Field2 {
        let mut f = Field2::new(self.nx, self.ny, self.h);
        let h = self.h as i64;
        for j in -h..self.ny as i64 + h {
            for i in -h..self.nx as i64 + h {
                f.set(i, j, self.at(i, j, k));
            }
        }
        f
    }

    pub fn interior(&self) -> impl Iterator<Item = (i64, i64, usize)> + '_ {
        let nx = self.nx as i64;
        let ny = self.ny as i64;
        (0..self.nz).flat_map(move |k| (0..ny).flat_map(move |j| (0..nx).map(move |i| (i, j, k))))
    }

    pub fn interior_sum(&self) -> f64 {
        self.interior().map(|(i, j, k)| self.at(i, j, k)).sum()
    }

    /// Max |v| over the interior (a NaN is passed over).
    pub fn interior_max_abs(&self) -> f64 {
        let (nx, ny) = (self.nx as i64, self.ny as i64);
        let mut max = 0.0f64;
        for k in 0..self.nz {
            for j in 0..ny {
                max = max_abs(max, self.row(j, k, 0..nx));
            }
        }
        max
    }

    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    pub fn raw_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Check every value is finite (stability tripwire).
    pub fn all_finite(&self) -> bool {
        all_finite(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field2_halo_addressing() {
        let mut f = Field2::new(4, 3, 2);
        f.set(-2, -2, 1.0);
        f.set(5, 4, 2.0);
        f.set(0, 0, 3.0);
        assert_eq!(f.at(-2, -2), 1.0);
        assert_eq!(f.at(5, 4), 2.0);
        assert_eq!(f.at(0, 0), 3.0);
        assert_eq!(f.raw().len(), 8 * 7);
    }

    #[test]
    #[should_panic(expected = "outside field")]
    #[cfg(debug_assertions)]
    fn field2_out_of_bounds_panics() {
        let f = Field2::new(4, 3, 1);
        let _ = f.at(5, 0);
    }

    #[test]
    fn row_slices_alias_the_cells_at_addresses() {
        let mut f = Field2::new(4, 3, 2);
        let mut g = Field3::new(4, 3, 2, 2);
        for j in -2..5i64 {
            for i in -2..6i64 {
                f.set(i, j, (100 * j + i) as f64);
                g.set(i, j, 1, (100 * j + i) as f64 + 0.5);
            }
        }
        for j in -2..5i64 {
            assert_eq!(f.row(j, -2..6).len(), 8);
            for (i, &v) in (-1..5i64).zip(f.row(j, -1..5)) {
                assert_eq!(v, f.at(i, j));
            }
        }
        assert!(f.row(0, 3..3).is_empty());
        f.row_mut(4, 5..6)[0] = -1.0;
        assert_eq!(f.at(5, 4), -1.0);

        // Whole rows as one slice: a row every `nx + 2h` words, the
        // halo column first.
        let rows = f.rows(-1..2);
        assert_eq!(rows.len(), 3 * 8);
        assert_eq!(
            (rows[0], rows[8 + 2], rows[23]),
            (f.at(-2, -1), f.at(0, 0), f.at(5, 1))
        );
        f.rows_mut(2..3)[2 + 3] = -2.0;
        assert_eq!(f.at(3, 2), -2.0);

        // A block is its rows in order, each cut to the columns.
        let want: Vec<Vec<f64>> = (-1..2i64)
            .map(|j| (4..6i64).map(|i| f.at(i, j)).collect())
            .collect();
        let got: Vec<Vec<f64>> = f.block_mut(4..6, -1..2).map(|r| r.to_vec()).collect();
        assert_eq!(got, want);
        assert_eq!(g.block_mut(0, -2..6, -2..5).count(), 7);
        assert!(g.block_mut(0, -2..6, -2..5).all(|r| r == [0.0; 8]));
        let want: Vec<Vec<f64>> = (0..3i64)
            .map(|j| (-2..1i64).map(|i| g.at(i, j, 1)).collect())
            .collect();
        let got: Vec<Vec<f64>> = g.block_mut(1, -2..1, 0..3).map(|r| r.to_vec()).collect();
        assert_eq!(got, want);
        // A `Field3` row is the same span of one level.
        for j in -2..5i64 {
            assert!(g.row(j, 0, -2..6).iter().all(|&v| v == 0.0));
            for (i, &v) in (-1..5i64).zip(g.row(j, 1, -1..5)) {
                assert_eq!(v, g.at(i, j, 1));
            }
        }
        g.row_mut(4, 1, 5..6)[0] = -1.5;
        assert_eq!(g.at(5, 4, 1), -1.5);
        g.row_mut(4, 1, 5..6)[0] = 405.5;
        // Two levels of one row of a band at once, either way round.
        let mut band = g.band();
        let (read, write) = band.row_pair(1, 1, 0, -2..3);
        write.copy_from_slice(read);
        let (read, write) = band.row_pair(2, 0, 1, 0..4);
        assert_eq!(read, [0.0; 4]);
        assert_eq!(write, [200.5, 201.5, 202.5, 203.5]);
        write[3] = 8.0;
        assert_eq!(
            (g.at(-2, 1, 0), g.at(2, 1, 0), g.at(3, 1, 0), g.at(3, 2, 1)),
            (98.5, 102.5, 0.0, 8.0)
        );
        g.row_mut(1, 0, -2..3).fill(0.0);
        g.set(3, 2, 1, 203.5);

        g.block_mut(0, -2..0, -2..-1).for_each(|r| r.fill(7.0));
        assert_eq!(
            (
                g.at(-2, -2, 0),
                g.at(-1, -2, 0),
                g.at(0, -2, 0),
                g.at(-2, -1, 0)
            ),
            (7.0, 7.0, 0.0, 0.0)
        );
    }

    // Unlike `at` (previous test), the slice accessors check their span
    // in release builds too.
    #[test]
    #[should_panic(expected = "outside field")]
    fn row_columns_beyond_the_halo_panic() {
        let f = Field2::new(4, 3, 1);
        let _ = f.row(0, 0..6);
    }

    #[test]
    #[should_panic(expected = "outside field")]
    fn row_above_the_halo_panics() {
        let mut f = Field2::new(4, 3, 1);
        let _ = f.row_mut(4, 0..4);
    }

    #[test]
    #[should_panic(expected = "outside field")]
    fn rows_below_the_halo_panic() {
        let f = Field2::new(4, 3, 1);
        let _ = f.rows(-2..1);
    }

    #[test]
    #[should_panic(expected = "outside field")]
    fn field3_row_columns_beyond_the_halo_panic() {
        // In range of the storage (the next row follows), out of range of
        // the row.
        let f = Field3::new(4, 3, 2, 1);
        let _ = f.row(0, 1, 0..6);
    }

    #[test]
    #[should_panic(expected = "outside field")]
    fn field3_row_below_the_halo_panics() {
        // Level 1 has a level before it in the storage.
        let mut f = Field3::new(4, 3, 2, 1);
        let _ = f.row_mut(-2, 1, 0..4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn field3_row_level_out_of_range_panics() {
        let f = Field3::new(4, 3, 2, 1);
        let _ = f.row(0, 2, 0..4);
    }

    #[test]
    #[should_panic(expected = "outside field")]
    fn row_pair_beyond_the_halo_panics() {
        let mut f = Field3::new(4, 3, 2, 1);
        let _ = f.band().row_pair(0, 0, 1, -2..4);
    }

    #[test]
    #[should_panic(expected = "two different levels")]
    fn row_pair_of_one_level_panics() {
        let mut f = Field3::new(4, 3, 2, 1);
        let _ = f.band().row_pair(0, 1, 1, 0..4);
    }

    /// Cut at every row, halo rows and both ends included: the two bands
    /// hold the rows on either side of the cut, address every cell where
    /// the field does, and say which rows of a sweep each holds.
    #[test]
    fn a_band_splits_into_the_rows_on_either_side() {
        let (nx, ny, nz, h) = (4usize, 3usize, 2usize, 2usize);
        let (hi, top) = (h as i64, (ny + h) as i64);
        let mut f = Field3::new(nx, ny, nz, h);
        let mut g = Field2::new(nx, ny, h);
        for mid in -hi..=top {
            let mut lower = f.band();
            let mut upper = lower.split_off(mid);
            assert_eq!((lower.nx(), upper.nz()), (nx, nz));
            for (band, rows) in [(&mut lower, -hi..mid), (&mut upper, mid..top)] {
                for j in rows.clone() {
                    for k in 0..nz {
                        band.row_mut(j, k, -hi..nx as i64 + hi)
                            .fill((mid + 100 * j) as f64);
                        band.row_mut(j, k, 1..2)[0] = (k as i64 - mid) as f64;
                    }
                }
                for ext in 0..=hi {
                    let sweep = -ext..ny as i64 + ext;
                    let want: Vec<i64> = sweep.filter(|j| rows.contains(j)).collect();
                    assert_eq!(
                        band.rows(ext).collect::<Vec<_>>(),
                        want,
                        "cut {mid}, ext {ext}"
                    );
                }
            }
            for j in -hi..top {
                for k in 0..nz {
                    assert_eq!(f.at(3, j, k), (mid + 100 * j) as f64);
                    assert_eq!(f.at(1, j, k), (k as i64 - mid) as f64);
                }
            }
            let mut lower = g.band();
            let mut upper = lower.split_off(mid);
            for j in -hi..top {
                let band = if j < mid { &mut lower } else { &mut upper };
                band.row_mut(j, 0, 0..1)[0] = (mid - j) as f64;
            }
            assert!((-hi..top).all(|j| g.at(0, j) == (mid - j) as f64));
        }
        // A band cut again, below and above.
        let mut lower = f.band();
        let mut upper = lower.split_off(1);
        let middle = lower.split_off(0);
        let top_row = upper.split_off(top - 1);
        assert_eq!(
            (middle.rows(3), top_row.rows(0), upper.rows(1)),
            (0..1, 4..4, 1..top - 1)
        );
    }

    #[test]
    #[should_panic(expected = "row 1 outside band")]
    fn a_row_beyond_the_cut_panics() {
        let mut f = Field3::new(4, 3, 2, 1);
        let mut lower = f.band();
        let _upper = lower.split_off(1);
        let _ = lower.row_mut(1, 0, 0..4);
    }

    #[test]
    #[should_panic(expected = "row -1 outside band")]
    fn a_row_below_the_cut_panics() {
        let mut f = Field2::new(4, 3, 1);
        let mut upper = f.band().split_off(0);
        let _ = upper.row_mut(-1, 0, 0..4);
    }

    #[test]
    #[should_panic(expected = "split row 5 outside band")]
    fn a_cut_beyond_the_halo_panics() {
        let mut f = Field3::new(4, 3, 2, 1);
        let _ = f.band().split_off(5);
    }

    #[test]
    #[should_panic(expected = "outside field")]
    fn block_columns_before_the_halo_panic() {
        let mut f = Field3::new(4, 3, 2, 1);
        let _ = f.block_mut(1, -2..4, 0..3);
    }

    #[test]
    #[should_panic(expected = "outside field")]
    fn block_rows_beyond_the_halo_panic() {
        // In range of the storage (level 0 is followed by level 1), out
        // of range of the level.
        let mut f = Field3::new(4, 3, 2, 1);
        let _ = f.block_mut(0, 0..4, 0..5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_level_out_of_range_panics() {
        let mut f = Field3::new(4, 3, 2, 1);
        let _ = f.block_mut(2, 0..4, 0..3);
    }

    #[test]
    fn field3_level_extraction() {
        let mut f = Field3::new(3, 2, 4, 1);
        f.set(1, 1, 2, 42.0);
        f.set(-1, 0, 2, 7.0);
        let lvl = f.level(2);
        assert_eq!(lvl.at(1, 1), 42.0);
        assert_eq!(lvl.at(-1, 0), 7.0);
        assert_eq!(f.level(1).at(1, 1), 0.0);
    }

    #[test]
    fn interior_iteration_counts() {
        let f = Field2::new(4, 3, 2);
        assert_eq!(f.interior().count(), 12);
        let f3 = Field3::new(4, 3, 5, 1);
        assert_eq!(f3.interior().count(), 60);
    }

    #[test]
    fn sums_ignore_halo() {
        let mut f = Field2::new(2, 2, 1);
        f.fill(9.0); // fills halo too
        for (i, j) in [(0i64, 0i64), (1, 0), (0, 1), (1, 1)] {
            f.set(i, j, 1.0);
        }
        assert_eq!(f.interior_sum(), 4.0);
        assert_eq!(f.interior_max_abs(), 1.0);
    }

    #[test]
    fn field3_max_ignores_halo_and_nan() {
        let mut f = Field3::new(3, 2, 2, 1);
        f.fill(-9.0);
        for (n, (i, j, k)) in f.clone().interior().enumerate() {
            f.set(i, j, k, n as f64 - 7.5);
        }
        f.set(1, 1, 0, f64::NAN);
        assert_eq!(f.interior_max_abs(), 7.5);
    }

    #[test]
    fn finite_check() {
        let mut f = Field3::new(2, 2, 1, 0);
        assert!(f.all_finite());
        f.set(0, 0, 0, f64::NAN);
        assert!(!f.all_finite());
    }

    /// A finite word from random bits: `±0`, a subnormal, or a normal
    /// value of any magnitude, either sign.
    fn finite(kind: u8, bits: u64) -> f64 {
        let sign = bits & (1 << 63);
        let mantissa = bits & 0x000f_ffff_ffff_ffff;
        // Any exponent but the all-ones one (∞ and NaN).
        let exponent = ((bits >> 52) & 0x7ff) % 0x7ff;
        f64::from_bits(match kind % 4 {
            0 => sign,
            1 => sign | mantissa.max(1),
            _ => sign | (exponent << 52) | mantissa,
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// The lane-blocked scans against the scalar folds they replaced,
        /// bit for bit, on fields of every shape with `±0`, subnormals,
        /// and now and then a NaN (with a payload, either sign) or `±∞`,
        /// in the halo or the interior.
        #[test]
        fn lane_blocked_scans_match_the_scalar_folds(
            (nx, ny, nz, h) in (1usize..20, 1usize..6, 1usize..4, 0usize..3),
            words in proptest::collection::vec((0u8..4, proptest::prelude::any::<u64>()), 1..64),
            specials in proptest::collection::vec((proptest::prelude::any::<usize>(), 0u8..3, proptest::prelude::any::<u64>()), 0..3),
        ) {
            let mut f3 = Field3::new(nx, ny, nz, h);
            let mut f2 = Field2::new(nx, ny, h);
            for f in [f3.raw_mut(), f2.raw_mut()] {
                for (n, (x, &(kind, bits))) in f.iter_mut().zip(words.iter().cycle()).enumerate() {
                    *x = finite(kind, bits.rotate_left(n as u32));
                }
                for &(at, kind, bits) in &specials {
                    let sign = bits & (1 << 63);
                    f[at % f.len()] = f64::from_bits(match kind {
                        0 => sign | f64::INFINITY.to_bits(),
                        _ => sign | f64::NAN.to_bits() | (bits & 0x0007_ffff_ffff_ffff),
                    });
                }
            }
            assert_eq!(f3.all_finite(), f3.raw().iter().all(|x| x.is_finite()));
            let scalar3 = f3.interior().fold(0.0, |m: f64, (i, j, k)| m.max(f3.at(i, j, k).abs()));
            assert_eq!(f3.interior_max_abs().to_bits(), scalar3.to_bits());
            let scalar2 = f2.interior().fold(0.0, |m: f64, (i, j)| m.max(f2.at(i, j).abs()));
            assert_eq!(f2.interior_max_abs().to_bits(), scalar2.to_bits());
        }
    }

    /// The finite words the proptest draws are of every class it names.
    #[test]
    fn finite_words_cover_zeros_subnormals_and_normals() {
        let words: Vec<f64> = (0..64u64)
            .map(|n| finite(n as u8, n.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        assert!(words.iter().all(|x| x.is_finite()));
        assert!(words.iter().any(|x| x.to_bits() == (-0.0f64).to_bits()));
        assert!(words.iter().any(|x| x.is_subnormal()));
        assert!(words.iter().any(|x| x.abs() > 1e100));
    }
}

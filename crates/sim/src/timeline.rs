//! Per-cell busy-until tracking.

use ftqc_arch::{Coord, Grid, Ticks};

/// Tracks, for every cell of a grid, the instant it becomes free.
///
/// Cells never touched are free from time zero. The timeline is the
/// contention model of the scheduler: two operations sharing any cell are
/// serialised, operations on disjoint cells overlap freely.
///
/// State is one dense row-major slot per grid cell, so a probe or a
/// reservation is an array access and a clone (the differential editor's
/// timer snapshots, the engine's checkpoints) is one `memcpy`. Every cell
/// passed in must lie on the grid the timeline was built for; untrusted op
/// sequences are bounds-checked before they are timed.
///
/// # Example
///
/// ```
/// use ftqc_arch::{CellKind, Coord, Grid, Ticks};
/// use ftqc_sim::ResourceTimeline;
///
/// let mut tl = ResourceTimeline::new(&Grid::filled(4, 4, CellKind::Bus));
/// let cells = [Coord::new(0, 0), Coord::new(0, 1)];
/// let start = tl.earliest_start(cells.iter().copied(), Ticks::ZERO);
/// tl.reserve(cells.iter().copied(), start, Ticks::from_d(2.0));
/// assert_eq!(tl.busy_until(Coord::new(0, 0)), Ticks::from_d(2.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceTimeline {
    rows: u32,
    cols: u32,
    /// Per cell: 0 when never reserved, otherwise busy-until + 1 (raw
    /// ticks). The offset keeps "reserved, free at time zero" (a
    /// zero-length reservation at the origin) apart from "never reserved",
    /// which is what [`ResourceTimeline::touched_cells`] counts.
    slots: Vec<u64>,
}

impl ResourceTimeline {
    /// An empty timeline over `grid` (everything free at time zero).
    pub fn new(grid: &Grid) -> Self {
        ResourceTimeline {
            rows: grid.rows(),
            cols: grid.cols(),
            slots: vec![0; grid.num_cells() as usize],
        }
    }

    /// The slot of `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` lies off the grid.
    #[inline]
    fn slot(&self, c: Coord) -> usize {
        assert!(
            c.row >= 0 && c.col >= 0 && (c.row as u32) < self.rows && (c.col as u32) < self.cols,
            "cell {c} outside the {}x{} timeline",
            self.rows,
            self.cols
        );
        c.row as usize * self.cols as usize + c.col as usize
    }

    /// When `cell` becomes free.
    #[inline]
    pub fn busy_until(&self, cell: Coord) -> Ticks {
        Ticks(self.slots[self.slot(cell)].saturating_sub(1))
    }

    /// Earliest instant ≥ `not_before` at which every cell in `cells` is
    /// free.
    pub fn earliest_start(
        &self,
        cells: impl IntoIterator<Item = Coord>,
        not_before: Ticks,
    ) -> Ticks {
        cells
            .into_iter()
            .map(|c| self.busy_until(c))
            .fold(not_before, Ticks::max)
    }

    /// Marks `cell` busy until at least `end`.
    #[inline]
    pub fn reserve_until(&mut self, cell: Coord, end: Ticks) {
        let i = self.slot(cell);
        self.slots[i] = self.slots[i].max(end.0.saturating_add(1));
    }

    /// Marks every cell in `cells` busy during `[start, start + duration)`.
    ///
    /// Reservations are expected to be issued in non-decreasing start order
    /// per cell (the scheduler's discipline); a reservation never shortens
    /// an existing one.
    pub fn reserve(
        &mut self,
        cells: impl IntoIterator<Item = Coord>,
        start: Ticks,
        duration: Ticks,
    ) {
        let end = start + duration;
        for c in cells {
            self.reserve_until(c, end);
        }
    }

    /// The latest busy-until across all cells (the resource makespan).
    pub fn horizon(&self) -> Ticks {
        Ticks(self.slots.iter().max().map_or(0, |&s| s.saturating_sub(1)))
    }

    /// Number of cells ever reserved.
    pub fn touched_cells(&self) -> usize {
        self.slots.iter().filter(|&&s| s != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_arch::CellKind;

    fn timeline() -> ResourceTimeline {
        ResourceTimeline::new(&Grid::filled(10, 10, CellKind::Bus))
    }

    #[test]
    fn untouched_cells_are_free() {
        let tl = timeline();
        for r in 0..10 {
            for c in 0..10 {
                assert_eq!(tl.busy_until(Coord::new(r, c)), Ticks::ZERO);
            }
        }
        assert_eq!(tl.horizon(), Ticks::ZERO);
        assert_eq!(tl.touched_cells(), 0);
    }

    #[test]
    fn earliest_start_respects_not_before() {
        let tl = timeline();
        let t = tl.earliest_start([Coord::new(0, 0)], Ticks::from_d(3.0));
        assert_eq!(t, Ticks::from_d(3.0));
    }

    #[test]
    fn reserve_serialises_overlapping_ops() {
        let mut tl = timeline();
        let a = [Coord::new(0, 0), Coord::new(0, 1)];
        let b = [Coord::new(0, 1), Coord::new(0, 2)];
        tl.reserve(a.iter().copied(), Ticks::ZERO, Ticks::from_d(2.0));
        let start_b = tl.earliest_start(b.iter().copied(), Ticks::ZERO);
        assert_eq!(start_b, Ticks::from_d(2.0), "shared cell (0,1) serialises");
        // Disjoint cells overlap.
        let c = [Coord::new(5, 5)];
        assert_eq!(
            tl.earliest_start(c.iter().copied(), Ticks::ZERO),
            Ticks::ZERO
        );
    }

    #[test]
    fn reserve_never_shrinks() {
        let mut tl = timeline();
        let c = Coord::new(1, 1);
        tl.reserve([c], Ticks::ZERO, Ticks::from_d(5.0));
        tl.reserve([c], Ticks::from_d(1.0), Ticks::from_d(1.0));
        assert_eq!(tl.busy_until(c), Ticks::from_d(5.0));
    }

    #[test]
    fn horizon_tracks_max() {
        let mut tl = timeline();
        tl.reserve([Coord::new(0, 0)], Ticks::ZERO, Ticks::from_d(2.0));
        tl.reserve([Coord::new(9, 9)], Ticks::from_d(4.0), Ticks::from_d(3.0));
        assert_eq!(tl.horizon(), Ticks::from_d(7.0));
        assert_eq!(tl.touched_cells(), 2);
    }

    #[test]
    fn touched_cells_counts_reservations_not_busy_time() {
        // A zero-length reservation at the origin leaves the cell free at
        // time zero but still counts as touched; re-reserving a cell does
        // not count it twice.
        let mut tl = timeline();
        let c = Coord::new(3, 4);
        tl.reserve([c], Ticks::ZERO, Ticks::ZERO);
        assert_eq!(tl.busy_until(c), Ticks::ZERO);
        assert_eq!(tl.touched_cells(), 1);
        tl.reserve([c], Ticks::ZERO, Ticks::from_d(1.0));
        tl.reserve(
            [c, Coord::new(3, 5)],
            Ticks::from_d(1.0),
            Ticks::from_d(1.0),
        );
        assert_eq!(tl.touched_cells(), 2);
    }

    #[test]
    fn clones_are_independent_snapshots() {
        let mut tl = timeline();
        let c = Coord::new(2, 2);
        tl.reserve([c], Ticks::ZERO, Ticks::from_d(2.0));
        let snap = tl.clone();
        tl.reserve(
            [c, Coord::new(7, 7)],
            Ticks::from_d(2.0),
            Ticks::from_d(3.0),
        );
        assert_eq!(snap.busy_until(c), Ticks::from_d(2.0), "snapshot unmoved");
        assert_eq!(snap.busy_until(Coord::new(7, 7)), Ticks::ZERO);
        assert_eq!(snap.touched_cells(), 1);
        assert_eq!(tl.busy_until(c), Ticks::from_d(5.0));
        // And the other way round: writing the snapshot leaves the source.
        let mut snap = snap;
        snap.reserve([Coord::new(0, 9)], Ticks::ZERO, Ticks::from_d(9.0));
        assert_eq!(tl.busy_until(Coord::new(0, 9)), Ticks::ZERO);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn off_grid_cells_panic_instead_of_aliasing() {
        // Row 1, column -1 would alias (0, 9) under unchecked row-major
        // arithmetic; the timeline refuses it.
        timeline().busy_until(Coord::new(1, -1));
    }
}

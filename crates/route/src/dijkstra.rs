//! Penalty-weighted Dijkstra pathfinding (paper §V.B, Fig 5).
//!
//! The paper's cost function is `C(a,b) = d(a,b) · p`, where `d` is the path
//! length and `p` the number of cells occupied by data qubits along it:
//! "movement to an unoccupied cell incurs zero cost, whereas moves over
//! occupied cells accrue a penalty". Dijkstra needs an additive objective,
//! so we minimise `Σ (1 + w·occupied(cell))` over entered cells — the same
//! ordering (shortest path among least-disturbing ones) with the penalty
//! weight `w` making one crossed data qubit cost as much as a `w`-cell
//! detour. The returned [`Path`] exposes both components (`length`,
//! `occupied`), so the paper's multiplicative product is available too.

use ftqc_arch::{Coord, Grid};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// A view of grid occupancy supplied by the scheduler.
///
/// `is_blocked` removes a cell from the search entirely (outside the grid,
/// reserved by an in-flight operation); `is_occupied` marks cells holding
/// data qubits, which may be crossed at a penalty.
pub trait Occupancy {
    /// Whether `c` can be entered at all.
    fn is_blocked(&self, c: Coord) -> bool;
    /// Whether `c` currently holds a data qubit (penalised crossing).
    fn is_occupied(&self, c: Coord) -> bool;
}

/// Occupancy backed by closures — convenient for tests and ad-hoc callers.
pub struct FnOccupancy<B, O>
where
    B: Fn(Coord) -> bool,
    O: Fn(Coord) -> bool,
{
    blocked: B,
    occupied: O,
}

impl<B, O> FnOccupancy<B, O>
where
    B: Fn(Coord) -> bool,
    O: Fn(Coord) -> bool,
{
    /// Wraps two predicates as an [`Occupancy`].
    pub fn new(blocked: B, occupied: O) -> Self {
        Self { blocked, occupied }
    }
}

impl<B, O> Occupancy for FnOccupancy<B, O>
where
    B: Fn(Coord) -> bool,
    O: Fn(Coord) -> bool,
{
    fn is_blocked(&self, c: Coord) -> bool {
        (self.blocked)(c)
    }
    fn is_occupied(&self, c: Coord) -> bool {
        (self.occupied)(c)
    }
}

/// Pathfinding cost parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Additive cost of entering an occupied cell, in units of one step.
    /// The paper's default makes one crossed data qubit as expensive as a
    /// five-cell detour.
    pub penalty_weight: u64,
}

impl CostModel {
    /// Cost of entering `c`.
    pub(crate) fn enter_cost(&self, occupied: bool) -> u64 {
        1 + if occupied { self.penalty_weight } else { 0 }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self { penalty_weight: 5 }
    }
}

/// A path found by [`find_path`], from `from` (inclusive) to `to`
/// (inclusive).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Path {
    /// The cells along the path, starting at the source.
    pub cells: Vec<Coord>,
    /// Number of steps (`cells.len() - 1`).
    pub length: u32,
    /// Number of *entered* cells that were occupied by data qubits.
    pub occupied: u32,
    /// The additive Dijkstra cost.
    pub cost: u64,
}

impl Path {
    /// The paper's multiplicative cost `d(a,b) · p` (with `p ≥ 1` so that
    /// undisturbed paths rank by length).
    pub fn paper_cost(&self) -> u64 {
        self.length as u64 * (1 + self.occupied as u64)
    }
}

/// Finds a minimum-cost 4-connected path on `grid` from `from` to `to`.
///
/// The source cell is never charged; the destination is charged like any
/// entered cell. Blocked cells are impassable (except `from`/`to`
/// themselves, which only need to be in bounds — callers route *to* an
/// occupied delivery site or *from* an occupied qubit cell routinely).
/// Ties between equal-cost paths break deterministically (row-major
/// neighbour order), keeping compilation reproducible.
///
/// Returns `None` when `to` is unreachable.
///
/// # Example
///
/// ```
/// use ftqc_arch::{CellKind, Coord, Grid};
/// use ftqc_route::{find_path, CostModel};
/// use ftqc_route::dijkstra::FnOccupancy;
///
/// let grid = Grid::filled(3, 3, CellKind::Bus);
/// let occ = FnOccupancy::new(|_| false, |_| false);
/// let p = find_path(&grid, &occ, Coord::new(0, 0), Coord::new(2, 2), &CostModel::default())
///     .expect("reachable");
/// assert_eq!(p.length, 4);
/// assert_eq!(p.occupied, 0);
/// ```
pub fn find_path(
    grid: &Grid,
    occ: &impl Occupancy,
    from: Coord,
    to: Coord,
    cost: &CostModel,
) -> Option<Path> {
    if !grid.in_bounds(from) || !grid.in_bounds(to) {
        return None;
    }
    if from == to {
        return Some(Path {
            cells: vec![from],
            length: 0,
            occupied: 0,
            cost: 0,
        });
    }

    let mut dist: HashMap<Coord, u64> = HashMap::new();
    let mut prev: HashMap<Coord, Coord> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(u64, i32, i32)>> = BinaryHeap::new();
    dist.insert(from, 0);
    heap.push(Reverse((0, from.row, from.col)));

    while let Some(Reverse((d, row, col))) = heap.pop() {
        let u = Coord::new(row, col);
        if u == to {
            break;
        }
        if dist.get(&u).copied().unwrap_or(u64::MAX) < d {
            continue; // stale heap entry
        }
        for v in u.neighbours() {
            if !grid.in_bounds(v) {
                continue;
            }
            if v != to && occ.is_blocked(v) {
                continue;
            }
            let nd = d + cost.enter_cost(occ.is_occupied(v));
            if nd < dist.get(&v).copied().unwrap_or(u64::MAX) {
                dist.insert(v, nd);
                prev.insert(v, u);
                heap.push(Reverse((nd, v.row, v.col)));
            }
        }
    }

    let total = *dist.get(&to)?;
    let mut cells = vec![to];
    let mut cur = to;
    while cur != from {
        cur = *prev.get(&cur)?;
        cells.push(cur);
    }
    cells.reverse();
    let occupied = cells[1..].iter().filter(|&&c| occ.is_occupied(c)).count() as u32;
    Some(Path {
        length: (cells.len() - 1) as u32,
        occupied,
        cost: total,
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc_arch::CellKind;
    use std::collections::HashSet;

    struct SetOcc {
        blocked: HashSet<Coord>,
        occupied: HashSet<Coord>,
    }

    impl Occupancy for SetOcc {
        fn is_blocked(&self, c: Coord) -> bool {
            self.blocked.contains(&c)
        }
        fn is_occupied(&self, c: Coord) -> bool {
            self.occupied.contains(&c)
        }
    }

    fn empty_occ() -> SetOcc {
        SetOcc {
            blocked: HashSet::new(),
            occupied: HashSet::new(),
        }
    }

    fn grid5() -> Grid {
        Grid::filled(5, 5, CellKind::Bus)
    }

    #[test]
    fn straight_line_path() {
        let p = find_path(
            &grid5(),
            &empty_occ(),
            Coord::new(2, 0),
            Coord::new(2, 4),
            &CostModel::default(),
        )
        .unwrap();
        assert_eq!(p.length, 4);
        assert_eq!(p.cells.first(), Some(&Coord::new(2, 0)));
        assert_eq!(p.cells.last(), Some(&Coord::new(2, 4)));
        assert_eq!(p.cost, 4);
        assert_eq!(p.paper_cost(), 4);
    }

    #[test]
    fn trivial_path_same_cell() {
        let p = find_path(
            &grid5(),
            &empty_occ(),
            Coord::new(1, 1),
            Coord::new(1, 1),
            &CostModel::default(),
        )
        .unwrap();
        assert_eq!(p.length, 0);
        assert_eq!(p.cells, vec![Coord::new(1, 1)]);
    }

    #[test]
    fn detours_around_occupied_cells() {
        // Wall of occupied cells across row 2 except a gap at col 4. With a
        // high penalty the detour (12 steps) must win over crossing
        // (4 steps + penalty).
        let mut occ = empty_occ();
        for c in 0..4 {
            occ.occupied.insert(Coord::new(2, c));
        }
        let p = find_path(
            &grid5(),
            &occ,
            Coord::new(0, 0),
            Coord::new(4, 0),
            &CostModel { penalty_weight: 20 },
        )
        .unwrap();
        assert_eq!(p.occupied, 0, "path should avoid all occupied cells");
        assert!(p.length > 4, "detour is longer than the direct path");

        // With the default weight (5), crossing one qubit (cost 9) beats the
        // 12-step detour — the trade-off the paper's penalty factor encodes.
        let p = find_path(
            &grid5(),
            &occ,
            Coord::new(0, 0),
            Coord::new(4, 0),
            &CostModel::default(),
        )
        .unwrap();
        assert_eq!(p.occupied, 1);
        assert_eq!(p.length, 4);
    }

    #[test]
    fn crosses_when_detour_too_expensive() {
        // Full wall: crossing one occupied cell is the only option.
        let mut occ = empty_occ();
        for c in 0..5 {
            occ.occupied.insert(Coord::new(2, c));
        }
        let p = find_path(
            &grid5(),
            &occ,
            Coord::new(0, 2),
            Coord::new(4, 2),
            &CostModel::default(),
        )
        .unwrap();
        assert_eq!(p.occupied, 1);
        assert_eq!(p.length, 4);
        assert_eq!(p.cost, 4 + 5);
        assert_eq!(p.paper_cost(), 8);
    }

    #[test]
    fn blocked_cells_are_impassable() {
        let mut occ = empty_occ();
        for c in 0..5 {
            occ.blocked.insert(Coord::new(2, c));
        }
        assert!(find_path(
            &grid5(),
            &occ,
            Coord::new(0, 2),
            Coord::new(4, 2),
            &CostModel::default(),
        )
        .is_none());
    }

    #[test]
    fn destination_may_be_blocked() {
        // Routing *to* a reserved delivery cell is allowed.
        let mut occ = empty_occ();
        occ.blocked.insert(Coord::new(0, 1));
        let p = find_path(
            &grid5(),
            &occ,
            Coord::new(0, 0),
            Coord::new(0, 1),
            &CostModel::default(),
        )
        .unwrap();
        assert_eq!(p.length, 1);
    }

    #[test]
    fn out_of_bounds_endpoints_rejected() {
        assert!(find_path(
            &grid5(),
            &empty_occ(),
            Coord::new(-1, 0),
            Coord::new(0, 0),
            &CostModel::default(),
        )
        .is_none());
        assert!(find_path(
            &grid5(),
            &empty_occ(),
            Coord::new(0, 0),
            Coord::new(9, 9),
            &CostModel::default(),
        )
        .is_none());
    }

    #[test]
    fn penalty_weight_zero_ignores_occupancy() {
        let mut occ = empty_occ();
        for c in 0..4 {
            occ.occupied.insert(Coord::new(2, c));
        }
        let p = find_path(
            &grid5(),
            &occ,
            Coord::new(0, 0),
            Coord::new(4, 0),
            &CostModel { penalty_weight: 0 },
        )
        .unwrap();
        // With no penalty the direct 4-step path through the wall wins.
        assert_eq!(p.length, 4);
        assert_eq!(p.occupied, 1);
    }

    #[test]
    fn path_is_contiguous_and_deduplicated() {
        let mut occ = empty_occ();
        occ.occupied.insert(Coord::new(1, 1));
        occ.occupied.insert(Coord::new(3, 3));
        let p = find_path(
            &grid5(),
            &occ,
            Coord::new(0, 0),
            Coord::new(4, 4),
            &CostModel::default(),
        )
        .unwrap();
        for w in p.cells.windows(2) {
            assert!(w[0].is_adjacent(w[1]), "path must be 4-connected");
        }
        let mut seen = HashSet::new();
        for c in &p.cells {
            assert!(seen.insert(*c), "no cell visited twice on a shortest path");
        }
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two equal-cost L-paths: repeated runs must return the same one.
        let a = find_path(
            &grid5(),
            &empty_occ(),
            Coord::new(0, 0),
            Coord::new(1, 1),
            &CostModel::default(),
        )
        .unwrap();
        for _ in 0..5 {
            let b = find_path(
                &grid5(),
                &empty_occ(),
                Coord::new(0, 0),
                Coord::new(1, 1),
                &CostModel::default(),
            )
            .unwrap();
            assert_eq!(a, b);
        }
    }
}

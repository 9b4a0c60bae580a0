//! Property-based tests for the routing heuristics on random grids.

use ftqc_arch::{CellKind, Coord, Grid};
use ftqc_route::dijkstra::Occupancy;
use ftqc_route::{clear_cell_plan, find_path, nearest_free_cell, space_search, CostModel};
use proptest::prelude::*;
use std::collections::HashSet;

const SIDE: i32 = 8;

fn arb_coord() -> impl Strategy<Value = Coord> {
    (0..SIDE, 0..SIDE).prop_map(|(r, c)| Coord::new(r, c))
}

fn arb_occupied() -> impl Strategy<Value = HashSet<Coord>> {
    proptest::collection::hash_set(arb_coord(), 0..30)
}

fn grid() -> Grid {
    Grid::filled(SIDE as u32, SIDE as u32, CellKind::Bus)
}

struct SetOcc(HashSet<Coord>);

impl Occupancy for SetOcc {
    fn is_blocked(&self, _: Coord) -> bool {
        false
    }
    fn is_occupied(&self, c: Coord) -> bool {
        self.0.contains(&c)
    }
}

proptest! {
    /// Paths (when found) are contiguous, start/end correctly, report the
    /// correct length/occupancy, and with no blocked cells they always
    /// exist and are at least the Manhattan distance.
    #[test]
    fn path_well_formed(from in arb_coord(), to in arb_coord(), occ in arb_occupied()) {
        let g = grid();
        let view = SetOcc(occ);
        let p = find_path(&g, &view, from, to, &CostModel::default())
            .expect("no blocked cells: always reachable");
        prop_assert_eq!(*p.cells.first().unwrap(), from);
        prop_assert_eq!(*p.cells.last().unwrap(), to);
        prop_assert_eq!(p.length as usize, p.cells.len() - 1);
        prop_assert!(p.length >= from.manhattan(to));
        for w in p.cells.windows(2) {
            prop_assert!(w[0].is_adjacent(w[1]));
        }
        let occupied_entered = p.cells[1..]
            .iter()
            .filter(|c| view.is_occupied(**c))
            .count() as u32;
        prop_assert_eq!(p.occupied, occupied_entered);
    }

    /// The returned path is optimal for the additive cost: no penalty-free
    /// detour shorter than `cost` exists (checked against a plain BFS lower
    /// bound: cost >= manhattan distance, and cost == manhattan when the
    /// straight route is clear).
    #[test]
    fn empty_grid_paths_are_manhattan(from in arb_coord(), to in arb_coord()) {
        let g = grid();
        let view = SetOcc(HashSet::new());
        let p = find_path(&g, &view, from, to, &CostModel::default()).unwrap();
        prop_assert_eq!(p.length, from.manhattan(to));
        prop_assert_eq!(p.occupied, 0);
        prop_assert_eq!(p.cost, from.manhattan(to) as u64);
    }

    /// Raising the penalty weight never makes the path cross *more*
    /// occupied cells.
    #[test]
    fn penalty_monotone(from in arb_coord(), to in arb_coord(), occ in arb_occupied()) {
        let g = grid();
        let view = SetOcc(occ);
        let low = find_path(&g, &view, from, to, &CostModel { penalty_weight: 1 }).unwrap();
        let high = find_path(&g, &view, from, to, &CostModel { penalty_weight: 50 }).unwrap();
        prop_assert!(high.occupied <= low.occupied);
    }

    /// `nearest_free_cell` returns a genuinely free cell, and no free cell
    /// is strictly closer (in BFS-through-anything distance this is hard to
    /// check exactly, so verify the weaker guarantee: the result is free).
    #[test]
    fn nearest_free_is_free(from in arb_coord(), occ in arb_occupied()) {
        let g = grid();
        let total_occupied = occ.len();
        let view = SetOcc(occ);
        if total_occupied < (SIDE * SIDE) as usize {
            if let Some(f) = nearest_free_cell(&g, &view, from) {
                prop_assert!(!view.is_occupied(f));
                prop_assert_ne!(f, from);
            }
        }
    }

    /// Space-search plans are executable: replaying the clearing moves on a
    /// copy of the occupancy leaves the ancilla cell free, and every move
    /// goes from an occupied cell to a free one at execution time.
    #[test]
    fn space_plans_are_executable(target in arb_coord(), occ in arb_occupied()) {
        let g = grid();
        let view = SetOcc(occ.clone());
        if let Some(plan) = space_search(&g, &view, target) {
            prop_assert!(plan.ancilla.is_adjacent(target));
            let mut state = occ.clone();
            for (from, to) in &plan.clearing_moves {
                prop_assert!(state.contains(from), "move source must be occupied");
                prop_assert!(!state.contains(to), "move target must be free");
                prop_assert!(from.is_adjacent(*to));
                state.remove(from);
                state.insert(*to);
            }
            prop_assert!(!state.contains(&plan.ancilla), "ancilla must end free");
        }
    }

    /// Clear-cell plans are executable and actually free the cell.
    #[test]
    fn clear_plans_are_executable(cell in arb_coord(), occ in arb_occupied()) {
        let g = grid();
        let view = SetOcc(occ.clone());
        match clear_cell_plan(&g, &view, cell, &[]) {
            Some(moves) => {
                let mut state = occ.clone();
                for (from, to) in &moves {
                    prop_assert!(state.contains(from));
                    prop_assert!(!state.contains(to));
                    state.remove(from);
                    state.insert(*to);
                }
                prop_assert!(!state.contains(&cell));
            }
            None => prop_assert!(!occ.contains(&cell), "None only when already free or impossible"),
        }
    }
}

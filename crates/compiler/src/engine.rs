//! The greedy routing engine (paper §V).
//!
//! The engine consumes the circuit DAG front layer in earliest-ready order
//! (a lazy min-heap on `(ready time, gate id)` that re-checks a popped
//! key, since ready times only grow) and realises each gate on the grid:
//!
//! * data-qubit relocations are planned with penalty-weighted Dijkstra and
//!   executed one cell per move (1d each, Fig 7(d)), displacing blocking
//!   qubits with space-search push chains when the block is packed;
//! * CNOT configurations come from the gate-dependent move heuristic
//!   (cheapest of the eight diagonal placements when look-ahead is on).
//!   When the mover's destination is already free, its relocation starts
//!   on the route the heuristic planned, if that route avoids the cells
//!   the relocation blocks, instead of searching for the same path again;
//! * magic states are granted by the earliest-available factory and routed
//!   along a bus corridor to a cell vertically adjacent to the consumer;
//! * single-patch Cliffords borrow the nearest free neighbouring ancilla.
//!
//! The engine emits [`RoutedOp`]s in issue order together with provisional
//! times; the authoritative timing happens in [`crate::timer`] after the
//! redundant-move pass.
//!
//! # Per-cell state
//!
//! Everything the engine tracks per grid cell is a dense row-major array
//! sized from the layout's grid: the occupant of each cell (one `u32`,
//! `EMPTY` for a free cell) and the provisional [`ResourceTimeline`].
//! The routing searches probe occupancy on every neighbour relaxation, so
//! each probe is one bounds check and one load. The few cells a query must
//! not enter (operand cells, a planned ancilla, cells a relocation gave
//! up on) are a short slice scanned linearly.

use crate::error::CompileError;
use crate::mapping::InitialMapping;
use crate::options::CompilerOptions;
use crate::routed::RoutedOp;
use ftqc_arch::{
    cnot_ancilla, CellKind, Coord, FactoryBank, Grid, Layout, SingleQubitKind, SurgeryOp, Ticks,
};
use ftqc_circuit::{Circuit, Gate, NodeId};
use ftqc_route::dijkstra::{CostModel, Occupancy, Path};
use ftqc_route::incremental::{RouteCounters, Router, RouterMode, RouterParts};
use ftqc_route::moves::{best_cnot_config_with, Mover};
use ftqc_sim::ResourceTimeline;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The occupant slot of a free cell.
const EMPTY: u32 = u32::MAX;

/// Occupancy view over the engine's state: the dense cell → qubit array
/// plus the query's extra blocked cells.
struct OccView<'a> {
    grid: &'a Grid,
    occ: &'a [u32],
    extra_blocked: &'a [Coord],
}

impl Occupancy for OccView<'_> {
    fn is_blocked(&self, c: Coord) -> bool {
        !self.grid.in_bounds(c) || self.extra_blocked.contains(&c)
    }
    fn is_occupied(&self, c: Coord) -> bool {
        self.grid
            .cell_index(c)
            .is_some_and(|i| self.occ[i] != EMPTY)
    }
}

/// The routing engine. Create with [`Engine::new`], run with
/// [`Engine::run`], then take the emitted ops with [`Engine::into_ops`].
pub struct Engine<'a> {
    layout: &'a Layout,
    options: &'a CompilerOptions,
    bank: FactoryBank,
    /// The incremental routing facade: cost model and reusable search
    /// arena.
    router: Router,
    /// qubit -> current cell
    pos: Vec<Coord>,
    /// Row-major cell -> occupying qubit, [`EMPTY`] when free.
    occ: Vec<u32>,
    /// Provisional per-cell timeline guiding greedy ordering decisions.
    timeline: ResourceTimeline,
    qubit_ready: Vec<Ticks>,
    ops: Vec<RoutedOp>,
    current_gate: usize,
    /// Cells no operation may enter while the current gate executes
    /// (operand positions).
    protected: Vec<Coord>,
    /// Cells displacement chains may pass *through* but never park a qubit
    /// in (the planned merge ancilla of the current gate).
    no_park: Vec<Coord>,
    n_magic_states: u64,
}

impl<'a> Engine<'a> {
    /// Creates an engine over `layout` with qubits placed by `mapping`,
    /// routing through the incremental engine.
    pub fn new(
        layout: &'a Layout,
        mapping: &InitialMapping,
        bank: FactoryBank,
        options: &'a CompilerOptions,
    ) -> Self {
        Self::with_mode(layout, mapping, bank, options, RouterMode::Incremental)
    }

    /// [`Engine::new`] with an explicit [`RouterMode`] — the seam the
    /// differential tests and the bench baseline use to run the exact same
    /// engine over the seed (reference) routing implementations.
    pub fn with_mode(
        layout: &'a Layout,
        mapping: &InitialMapping,
        bank: FactoryBank,
        options: &'a CompilerOptions,
        mode: RouterMode,
    ) -> Self {
        Self::with_parts(layout, mapping, bank, options, mode, RouterParts::default())
    }

    /// [`Engine::with_mode`] seeded with a previously warmed search arena.
    /// Warmth never changes results; it only skips re-allocating buffers.
    pub fn with_parts(
        layout: &'a Layout,
        mapping: &InitialMapping,
        bank: FactoryBank,
        options: &'a CompilerOptions,
        mode: RouterMode,
        parts: RouterParts,
    ) -> Self {
        let grid = layout.grid();
        let pos: Vec<Coord> = mapping.cells().to_vec();
        let mut occ = vec![EMPTY; grid.num_cells() as usize];
        for (q, &c) in pos.iter().enumerate() {
            let i = grid
                .cell_index(c)
                .unwrap_or_else(|| panic!("initial placement {c} off the grid"));
            occ[i] = q as u32;
        }
        Self {
            layout,
            options,
            bank,
            router: Router::from_parts(cost_model(options), mode, parts),
            qubit_ready: vec![Ticks::ZERO; pos.len()],
            pos,
            occ,
            timeline: ResourceTimeline::new(grid),
            ops: Vec::new(),
            current_gate: 0,
            protected: Vec::new(),
            no_park: Vec::new(),
            n_magic_states: 0,
        }
    }

    /// Reconstructs an engine mid-run from `ckpt`, exactly as it stood when
    /// the checkpoint was captured: gates `0..ckpt.cut` complete,
    /// `prefix_ops` already emitted (the caller passes the first
    /// `ckpt.ops_len` ops of the run that captured the checkpoint — they
    /// are identical by determinism). The router is rebuilt around the
    /// warm `parts`. Continue with
    /// [`Engine::run_from`]`(circuit, ckpt.cut, ..)`.
    pub fn resume(
        layout: &'a Layout,
        options: &'a CompilerOptions,
        ckpt: &EngineCheckpoint,
        prefix_ops: Vec<RoutedOp>,
        mode: RouterMode,
        parts: RouterParts,
    ) -> Self {
        debug_assert_eq!(prefix_ops.len(), ckpt.ops_len);
        Self {
            layout,
            options,
            bank: ckpt.bank.clone(),
            router: Router::from_parts(cost_model(options), mode, parts),
            pos: ckpt.pos.clone(),
            occ: ckpt.occ.clone(),
            timeline: ckpt.timeline.clone(),
            qubit_ready: ckpt.qubit_ready.clone(),
            ops: prefix_ops,
            current_gate: 0,
            protected: Vec::new(),
            no_park: Vec::new(),
            n_magic_states: ckpt.n_magic_states,
        }
    }

    /// A deep snapshot of the engine's mutable state; the caller asserts
    /// the completed-gate set is exactly `0..cut` (a causal cut).
    fn checkpoint(&self, cut: usize) -> EngineCheckpoint {
        EngineCheckpoint {
            cut,
            ops_len: self.ops.len(),
            bank: self.bank.clone(),
            pos: self.pos.clone(),
            occ: self.occ.clone(),
            timeline: self.timeline.clone(),
            qubit_ready: self.qubit_ready.clone(),
            n_magic_states: self.n_magic_states,
        }
    }

    /// Routes every gate of `circuit` (already lowered to the surgery gate
    /// set), consuming the DAG front layer in earliest-ready order.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::RoutingFailed`] if a gate cannot be realised.
    pub fn run(&mut self, circuit: &Circuit) -> Result<(), CompileError> {
        self.run_from(circuit, 0, 0, &mut Vec::new())
    }

    /// [`Engine::run`], generalised for the differential recompile path:
    /// gates `0..resume_cut` are marked complete without executing (the
    /// engine state must already reflect them — see [`Engine::resume`]),
    /// and whenever `checkpoint_every > 0`, a deep state snapshot is pushed
    /// onto `checkpoints` each time the completed set grows past a *causal
    /// cut* — an instant where the completed gates are exactly a prefix
    /// `0..c` of the gate sequence. Only causal cuts are snapshotted:
    /// resuming from one replays the remainder byte-identically because no
    /// out-of-prefix gate has influenced the state yet.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::RoutingFailed`] if a gate cannot be realised.
    pub fn run_from(
        &mut self,
        circuit: &Circuit,
        resume_cut: usize,
        checkpoint_every: usize,
        checkpoints: &mut Vec<EngineCheckpoint>,
    ) -> Result<(), CompileError> {
        let dag = circuit.dag();
        let mut tracker = dag.tracker();
        let total = circuit.len();
        // Pre-mark the resumed prefix complete. Ascending order is always
        // legal: every predecessor of a gate has a smaller id.
        for id in 0..resume_cut {
            tracker.complete(id);
        }
        let mut completed = vec![false; total];
        completed[..resume_cut].fill(true);
        // `contiguous` = length of the completed prefix; the completed set
        // is exactly {0..contiguous} iff `done == contiguous`.
        let mut contiguous = resume_cut;
        let mut done = resume_cut;
        let mut last_snap = resume_cut;
        // Earliest-ready selection: a min-heap on `(ready time, id)`. Keys
        // only grow (`emit` moves a qubit's clock to `end >= start >=`
        // its old value), so a stored key is a lower bound on the live
        // one; a popped gate whose key is unchanged is the true minimum,
        // otherwise it goes back with its fresh key.
        let ready_at = |qubit_ready: &[Ticks], id: NodeId| {
            dag.node(id)
                .gate
                .qubits()
                .map(|q| qubit_ready[q as usize])
                .fold(Ticks::ZERO, Ticks::max)
        };
        let mut heap: BinaryHeap<Reverse<(Ticks, NodeId)>> = tracker
            .ready()
            .iter()
            .map(|&id| Reverse((ready_at(&self.qubit_ready, id), id)))
            .collect();
        while !tracker.is_done() {
            if checkpoint_every > 0
                && done == contiguous
                && contiguous >= last_snap + checkpoint_every
            {
                checkpoints.push(self.checkpoint(contiguous));
                last_snap = contiguous;
            }
            let gate_id = loop {
                let Reverse((key, id)) = heap
                    .pop()
                    .expect("tracker not done implies non-empty ready set");
                let live = ready_at(&self.qubit_ready, id);
                if live == key {
                    break id;
                }
                heap.push(Reverse((live, id)));
            };
            self.current_gate = gate_id;
            self.schedule_gate(&dag.node(gate_id).gate)?;
            for &id in tracker.complete(gate_id) {
                heap.push(Reverse((ready_at(&self.qubit_ready, id), id)));
            }
            completed[gate_id] = true;
            done += 1;
            while contiguous < total && completed[contiguous] {
                contiguous += 1;
            }
        }
        Ok(())
    }

    /// The emitted operations, in issue order.
    pub fn into_ops(self) -> (Vec<RoutedOp>, u64) {
        (self.ops, self.n_magic_states)
    }

    /// [`Engine::into_ops`] that also detaches the router's warm parts for
    /// the next differential recompile.
    pub fn into_ops_and_parts(self) -> (Vec<RoutedOp>, u64, RouterParts) {
        (self.ops, self.n_magic_states, self.router.into_parts())
    }

    /// The incremental router's activity counters so far.
    pub fn route_counters(&self) -> RouteCounters {
        self.router.counters()
    }

    fn grid(&self) -> &Grid {
        self.layout.grid()
    }

    /// The occupancy slot of the in-grid cell `c`.
    fn slot(&self, c: Coord) -> usize {
        self.grid()
            .cell_index(c)
            .unwrap_or_else(|| panic!("cell {c} off the grid"))
    }

    /// Whether `c` holds a data qubit (off-grid cells never do).
    fn occ_has(&self, c: Coord) -> bool {
        self.grid()
            .cell_index(c)
            .is_some_and(|i| self.occ[i] != EMPTY)
    }

    /// Replaces the protected set with `cells`.
    fn protect(&mut self, cells: &[Coord]) {
        self.protected.clear();
        self.protected.extend_from_slice(cells);
    }

    fn fail(&self, reason: impl Into<String>) -> CompileError {
        CompileError::RoutingFailed {
            gate_index: self.current_gate,
            reason: reason.into(),
        }
    }

    /// Emits an op: assigns a provisional start (per-cell timeline + qubit
    /// readiness + `extra_dep`), reserves resources, updates qubit clocks.
    fn emit(
        &mut self,
        op: SurgeryOp,
        patches: Vec<u32>,
        factory: Option<usize>,
        extra_dep: Ticks,
    ) -> Ticks {
        debug_assert!(op.validate().is_ok(), "emitting invalid op {op}");
        let mut start = patches
            .iter()
            .map(|&q| self.qubit_ready[q as usize])
            .fold(extra_dep, Ticks::max);
        op.for_each_cell(|c| start = start.max(self.timeline.busy_until(c)));
        let end = start + op.duration(&self.options.target.timing);
        op.for_each_cell(|c| self.timeline.reserve_until(c, end));
        for &q in &patches {
            self.qubit_ready[q as usize] = end;
        }
        self.ops.push(RoutedOp {
            op,
            patches,
            factory,
            gate: Some(self.current_gate),
        });
        end
    }

    /// Moves the qubit occupying `from` one step to `to` (must be free).
    fn raw_move(&mut self, from: Coord, to: Coord) {
        let (fi, ti) = (self.slot(from), self.slot(to));
        let q = self.occ[fi];
        assert_ne!(q, EMPTY, "raw move from empty cell {from}");
        debug_assert_eq!(self.occ[ti], EMPTY, "raw move into occupied {to}");
        self.emit(SurgeryOp::Move { from, to }, vec![q], None, Ticks::ZERO);
        self.occ[fi] = EMPTY;
        self.occ[ti] = q;
        self.pos[q as usize] = to;
    }

    /// Frees `cell` (if occupied) by pushing its occupant — and any chain of
    /// occupants — toward the nearest free cell, never entering `avoid`
    /// cells or protected operand cells.
    fn ensure_free(&mut self, cell: Coord, avoid: &[Coord]) -> Result<(), CompileError> {
        if !self.occ_has(cell) {
            return Ok(());
        }
        // Preferred: keep the planned ancilla (no_park) clear. If that boxes
        // the occupant in, allow parking there — the ancilla gets its own
        // clearing pass before the merge, so this is recoverable.
        let relaxed: Vec<Coord> = avoid
            .iter()
            .chain(&self.protected)
            .copied()
            .filter(|&c| c != cell)
            .collect();
        let mut strict = relaxed.clone();
        strict.extend(self.no_park.iter().copied().filter(|&c| c != cell));
        let plan = {
            let grid = self.layout.grid();
            let view = OccView {
                grid,
                occ: &self.occ,
                extra_blocked: &[],
            };
            self.router
                .clear_cell_plan(grid, &view, cell, &strict)
                .or_else(|| self.router.clear_cell_plan(grid, &view, cell, &relaxed))
        };
        match plan {
            Some(moves) => {
                for (f, t) in moves {
                    self.raw_move(f, t);
                }
                Ok(())
            }
            None => Err(self.fail(format!("cannot clear cell {cell}"))),
        }
    }

    /// Walks qubit `q` to `dest` along a planned path, displacing blockers
    /// on the way. The path is committed to (no per-step re-planning, which
    /// can oscillate under displacement churn); re-planning happens only
    /// when a blocker cannot be displaced, with that cell banned. Protected
    /// cells are never entered.
    ///
    /// `planned`, when given, is the first plan: the path the first search
    /// would return on the current state.
    fn relocate(
        &mut self,
        q: u32,
        dest: Coord,
        mut planned: Option<Path>,
    ) -> Result<(), CompileError> {
        let budget = (self.grid().num_cells() as usize) * 8;
        let mut steps = 0usize;
        let mut banned: Vec<Coord> = Vec::new();
        'replan: while self.pos[q as usize] != dest {
            let from = self.pos[q as usize];
            let path = match planned.take() {
                Some(path) => {
                    debug_assert_eq!(
                        (path.cells.first(), path.cells.last()),
                        (Some(&from), Some(&dest))
                    );
                    path
                }
                None => {
                    let mut blocked = self.protected.clone();
                    blocked.extend_from_slice(&banned);
                    let grid = self.layout.grid();
                    let view = OccView {
                        grid,
                        occ: &self.occ,
                        extra_blocked: &blocked,
                    };
                    self.router
                        .find_path(grid, &view, from, dest)
                        .ok_or_else(|| self.fail(format!("no path from {from} to {dest}")))?
                }
            };
            for i in 1..path.cells.len() {
                steps += 1;
                if steps > budget {
                    return Err(self.fail(format!("relocation of q{q} to {dest} did not converge")));
                }
                let here = self.pos[q as usize];
                let next = path.cells[i];
                if self.occ_has(next) && self.ensure_free(next, &[here]).is_err() {
                    if next == dest {
                        // The destination itself cannot be cleared: this
                        // relocation target is infeasible.
                        return Err(
                            self.fail(format!("destination {dest} cannot be cleared for q{q}"))
                        );
                    }
                    // The occupant of `next` is boxed in: ban the cell and
                    // route around it.
                    banned.push(next);
                    continue 'replan;
                }
                self.raw_move(here, next);
            }
        }
        Ok(())
    }

    /// Finds (clearing if necessary) a free ancilla adjacent to `cell`.
    fn acquire_ancilla(&mut self, cell: Coord) -> Result<Coord, CompileError> {
        let plan = {
            let grid = self.layout.grid();
            let view = OccView {
                grid,
                occ: &self.occ,
                extra_blocked: &self.protected,
            };
            self.router.space_search(grid, &view, cell)
        };
        match plan {
            Some(p) => {
                for (f, t) in p.clearing_moves {
                    self.raw_move(f, t);
                }
                Ok(p.ancilla)
            }
            None => Err(self.fail(format!("no ancilla available near {cell}"))),
        }
    }

    fn schedule_gate(&mut self, gate: &Gate) -> Result<(), CompileError> {
        match *gate {
            Gate::X(q) | Gate::Y(q) | Gate::Z(q) => {
                let cell = self.pos[q as usize];
                self.emit(SurgeryOp::PauliFrame { cell }, vec![q], None, Ticks::ZERO);
                Ok(())
            }
            Gate::H(q) => self.exec_single(q, SingleQubitKind::H),
            Gate::S(q) => self.exec_single(q, SingleQubitKind::S),
            Gate::Sdg(q) => self.exec_single(q, SingleQubitKind::Sdg),
            Gate::Sx(q) => self.exec_single(q, SingleQubitKind::Sx),
            Gate::Sxdg(q) => self.exec_single(q, SingleQubitKind::Sxdg),
            Gate::Rz(q, a) if a.is_clifford() => {
                // Rz(kπ/2): k≡0,2 are frame updates; k≡1,3 are S/S†.
                let halves = (a.turns_of_pi() * 2.0).round() as i64;
                match halves.rem_euclid(4) {
                    0 | 2 => {
                        let cell = self.pos[q as usize];
                        self.emit(SurgeryOp::PauliFrame { cell }, vec![q], None, Ticks::ZERO);
                        Ok(())
                    }
                    1 => self.exec_single(q, SingleQubitKind::S),
                    _ => self.exec_single(q, SingleQubitKind::Sdg),
                }
            }
            Gate::T(q) | Gate::Tdg(q) => {
                let n = self.options.t_state_policy.states_per_t.max(1);
                self.exec_magic(q, n)
            }
            Gate::Rz(q, _) => {
                let n = self.options.t_state_policy.states_per_rz.max(1);
                self.exec_magic(q, n)
            }
            Gate::Cnot { control, target } => self.exec_cnot(control, target),
            Gate::Measure(q) => {
                let cell = self.pos[q as usize];
                self.emit(SurgeryOp::MeasureZ { cell }, vec![q], None, Ticks::ZERO);
                Ok(())
            }
            Gate::Cz(_, _) | Gate::Swap(_, _) => {
                Err(self
                    .fail("CZ/SWAP must be lowered before routing (Compiler::compile does this)"))
            }
        }
    }

    fn exec_single(&mut self, q: u32, kind: SingleQubitKind) -> Result<(), CompileError> {
        let cell = self.pos[q as usize];
        self.protect(&[cell]);
        let ancilla = self.acquire_ancilla(cell)?;
        self.emit(
            SurgeryOp::Single {
                kind,
                cell,
                ancilla,
            },
            vec![q],
            None,
            Ticks::ZERO,
        );
        self.protected.clear();
        self.no_park.clear();
        Ok(())
    }

    fn exec_magic(&mut self, q: u32, states: u32) -> Result<(), CompileError> {
        for _ in 0..states {
            let tq = self.pos[q as usize];
            self.protect(&[tq]);
            // Delivery cell: vertical neighbour (M_ZZ constraint), preferring
            // a free one, then the cheaper to clear.
            let candidates: Vec<Coord> = [
                Coord::new(tq.row - 1, tq.col),
                Coord::new(tq.row + 1, tq.col),
            ]
            .into_iter()
            .filter(|&c| self.grid().in_bounds(c))
            .collect();
            if candidates.is_empty() {
                return Err(self.fail(format!("no vertical neighbour for magic at {tq}")));
            }
            let dest = candidates
                .iter()
                .copied()
                .min_by_key(|&c| {
                    let occupied = self.occ_has(c);
                    let bus_bias = match self.grid().kind(c) {
                        CellKind::Bus => 0,
                        CellKind::Data => 1,
                    };
                    (occupied as u32, bus_bias, c.row, c.col)
                })
                .expect("candidates non-empty");
            self.ensure_free(dest, &[tq])?;

            let grant = self.bank.acquire(self.qubit_ready[q as usize]);
            let path = {
                let grid = self.layout.grid();
                let view = OccView {
                    grid,
                    occ: &self.occ,
                    extra_blocked: &self.protected,
                };
                self.router.find_path(grid, &view, grant.port, dest)
            }
            .ok_or_else(|| self.fail(format!("no delivery path {} -> {dest}", grant.port)))?;
            self.n_magic_states += 1;
            if path.cells.len() >= 2 {
                self.emit(
                    SurgeryOp::DeliverMagic { path: path.cells },
                    vec![],
                    Some(grant.factory),
                    grant.available,
                );
                self.emit(
                    SurgeryOp::ConsumeMagic {
                        target: tq,
                        magic: dest,
                    },
                    vec![q],
                    None,
                    Ticks::ZERO,
                );
            } else {
                // The factory port *is* the delivery cell: the state appears
                // in place and the consumption carries the grant itself.
                self.emit(
                    SurgeryOp::ConsumeMagic {
                        target: tq,
                        magic: dest,
                    },
                    vec![q],
                    Some(grant.factory),
                    grant.available,
                );
            }
            self.protected.clear();
            self.no_park.clear();
        }
        Ok(())
    }

    /// Whether the occupant of `ancilla` (if any) can escape once the
    /// operands sit at `cp`/`tp`: it needs at least one in-bounds neighbour
    /// that is not an operand cell. Prevents committing to boxed-corner
    /// configurations whose ancilla can never be cleared.
    fn ancilla_clearable(&self, ancilla: Coord, cp: Coord, tp: Coord) -> bool {
        if !self.occ_has(ancilla) {
            return true;
        }
        ancilla
            .neighbours()
            .into_iter()
            .any(|n| self.grid().in_bounds(n) && n != cp && n != tp)
    }

    fn exec_cnot(&mut self, control: u32, target: u32) -> Result<(), CompileError> {
        let (c_pos, t_pos) = (self.pos[control as usize], self.pos[target as usize]);
        self.protect(&[c_pos, t_pos]);

        // Preferred: the gate-dependent move heuristic over free cells.
        let cfg = {
            let grid = self.layout.grid();
            let view = OccView {
                grid,
                occ: &self.occ,
                extra_blocked: &[],
            };
            best_cnot_config_with(
                &mut self.router,
                grid,
                &view,
                c_pos,
                t_pos,
                self.options.lookahead,
            )
        }
        .filter(|cfg| self.ancilla_clearable(cfg.ancilla, cfg.control, cfg.target));

        let (mover, dest, route) = match cfg {
            Some(cfg) => match cfg.mover {
                Mover::None => (None, None, None),
                Mover::Control => (Some(control), Some(cfg.control), cfg.route),
                Mover::Target => (Some(target), Some(cfg.target), cfg.route),
            },
            None => {
                // Packed block (or the heuristic's pick was a boxed corner):
                // allow occupied destinations, scored by distance plus a
                // clearing estimate.
                let mut best: Option<(u32, Coord, u32)> = None;
                for (mq, anchor, from) in [(control, t_pos, c_pos), (target, c_pos, t_pos)] {
                    for d in anchor.diagonals() {
                        if !self.grid().in_bounds(d) || d == from || d == anchor {
                            continue;
                        }
                        let (cp, tp) = if mq == control {
                            (d, t_pos)
                        } else {
                            (c_pos, d)
                        };
                        let anc = match cnot_ancilla(cp, tp) {
                            Some(a) => a,
                            None => continue,
                        };
                        if !self.grid().in_bounds(anc) || anc == cp || anc == tp {
                            continue;
                        }
                        if !self.ancilla_clearable(anc, cp, tp) {
                            continue;
                        }
                        let est = from.manhattan(d)
                            + 2 * self.occ_has(d) as u32
                            + 2 * self.occ_has(anc) as u32;
                        if best.is_none_or(|(_, _, b)| est < b) {
                            best = Some((mq, d, est));
                        }
                    }
                }
                let (mq, d, _) =
                    best.ok_or_else(|| self.fail("no CNOT configuration reachable"))?;
                (Some(mq), Some(d), None)
            }
        };

        if let (Some(mq), Some(d)) = (mover, dest) {
            // Protect the anchor operand and the *planned* ancilla cell so
            // displacement chains never park a qubit where the merge must
            // happen; the mover itself walks freely.
            let from = self.pos[mq as usize];
            self.protected.retain(|&c| c != from);
            let planned = if mq == control {
                cnot_ancilla(d, t_pos)
            } else {
                cnot_ancilla(c_pos, d)
            };
            if let Some(a) = planned {
                if !self.occ_has(a) {
                    // Only freeze it when free — a pre-existing occupant
                    // still needs to escape through normal clearing. The
                    // mover may pass through; nothing may park there.
                    self.no_park.push(a);
                }
            }
            // The heuristic searched `route` on this occupancy with no
            // cells blocked. It is still the search's answer if clearing
            // `d` moves nothing and it avoids the cells `relocate` blocks:
            // blocking cells off a cheapest path leaves every path cell's
            // distance unchanged and removes only parents not chosen.
            let route = route.filter(|p| {
                !self.occ_has(d) && !p.cells.iter().any(|c| self.protected.contains(c))
            });
            self.ensure_free(d, &[])?;
            self.relocate(mq, d, route)?;
            self.protected.push(d);
        }

        let (cp, tp) = (self.pos[control as usize], self.pos[target as usize]);
        let ancilla = cnot_ancilla(cp, tp)
            .ok_or_else(|| self.fail("operands not diagonal after relocation"))?;
        self.protect(&[cp, tp]);
        self.ensure_free(ancilla, &[])?;
        self.emit(
            SurgeryOp::Cnot {
                control: cp,
                target: tp,
                ancilla,
            },
            vec![control, target],
            None,
            Ticks::ZERO,
        );
        self.protected.clear();
        self.no_park.clear();
        Ok(())
    }
}

/// A deep snapshot of the routing engine's mutable state at a *causal
/// cut* — an instant where the completed-gate set is exactly the prefix
/// `0..cut` of the lowered gate sequence. Captured by
/// [`Engine::run_from`], restored by [`Engine::resume`].
///
/// The emitted ops themselves are not stored: the first `ops_len` ops of
/// the run that captured the checkpoint are identical in any resumed run
/// (the engine is deterministic), so the caller re-supplies them.
#[derive(Debug, Clone)]
pub struct EngineCheckpoint {
    /// Gates `0..cut` are complete, nothing else has run.
    pub cut: usize,
    /// Ops emitted so far when the snapshot was taken.
    pub ops_len: usize,
    bank: FactoryBank,
    pos: Vec<Coord>,
    occ: Vec<u32>,
    timeline: ResourceTimeline,
    qubit_ready: Vec<Ticks>,
    n_magic_states: u64,
}

/// Everything the map stage produces for a lowered circuit: the layout,
/// the initial placement, the routed operation sequence, and the routing
/// engine's activity counters.
#[derive(Debug, Clone)]
pub struct RoutedProgram {
    /// The layout the circuit was routed on.
    pub layout: Layout,
    /// The initial qubit placement.
    pub mapping: InitialMapping,
    /// Logical patches consumed by the factory bank.
    pub factory_patches: u32,
    /// The routed operations, in issue order.
    pub ops: Vec<RoutedOp>,
    /// Magic states the routed program consumes.
    pub n_magic_states: u64,
    /// The incremental router's counters for this compile.
    pub route: RouteCounters,
}

/// Runs the map stage — target validation, layout construction, initial
/// placement, factory docking, and greedy routing — over an already
/// *lowered* circuit, with an explicit [`RouterMode`].
///
/// [`RouterMode::Incremental`] is what the pipeline uses;
/// [`RouterMode::Reference`] re-routes through the seed (allocation-heavy)
/// implementations and is the baseline of `tests/route_differential.rs`.
/// Both modes produce byte-identical routed programs.
///
/// # Errors
///
/// [`CompileError::Target`], [`CompileError::Layout`], or
/// [`CompileError::RoutingFailed`] — exactly as the map stage reports
/// them (untagged; [`CompileSession`](crate::CompileSession) adds the
/// stage tag).
pub fn route_circuit(
    lowered: &Circuit,
    options: &CompilerOptions,
    mode: RouterMode,
) -> Result<RoutedProgram, CompileError> {
    let target = &options.target;
    target.validate(lowered.num_qubits(), lowered.t_count() as u64)?;
    let layout = target.build_layout(lowered.num_qubits())?;
    let mapping = InitialMapping::for_circuit(&layout, lowered, options.mapping);
    let bank = target.factory_bank(&layout);
    let factory_patches = bank.total_tiles();
    let mut engine = Engine::with_mode(&layout, &mapping, bank, options, mode);
    engine.run(lowered)?;
    let route = engine.route_counters();
    let (ops, n_magic_states) = engine.into_ops();
    Ok(RoutedProgram {
        layout,
        mapping,
        factory_patches,
        ops,
        n_magic_states,
        route,
    })
}

/// The router's cost model for `options`.
fn cost_model(options: &CompilerOptions) -> CostModel {
    CostModel {
        penalty_weight: options.penalty_weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MappingStrategy;
    use ftqc_circuit::Circuit;

    fn run_engine(circuit: &Circuit, r: u32, factories: u32) -> (Vec<RoutedOp>, u64) {
        let options = CompilerOptions::default()
            .routing_paths(r)
            .factories(factories);
        let layout = Layout::with_routing_paths(circuit.num_qubits(), r);
        let mapping = InitialMapping::new(&layout, circuit.num_qubits(), MappingStrategy::Snake);
        let bank = FactoryBank::dock(&layout, factories, options.target.timing.magic_production);
        let mut engine = Engine::new(&layout, &mapping, bank, &options);
        engine.run(circuit).expect("engine routes the circuit");
        engine.into_ops()
    }

    #[test]
    fn hadamard_emits_single_with_ancilla() {
        let mut c = Circuit::new(4);
        c.h(0);
        let (ops, magic) = run_engine(&c, 4, 1);
        assert_eq!(magic, 0);
        assert!(ops.iter().any(|o| matches!(
            o.op,
            SurgeryOp::Single {
                kind: SingleQubitKind::H,
                ..
            }
        )));
        for o in &ops {
            o.op.validate().expect("all emitted ops valid");
        }
    }

    #[test]
    fn pauli_gates_are_frame_updates() {
        let mut c = Circuit::new(4);
        c.x(0).y(1).z(2);
        let (ops, _) = run_engine(&c, 4, 1);
        assert_eq!(ops.len(), 3);
        assert!(ops
            .iter()
            .all(|o| matches!(o.op, SurgeryOp::PauliFrame { .. })));
    }

    #[test]
    fn t_gate_delivers_and_consumes() {
        let mut c = Circuit::new(4);
        c.t(0);
        let (ops, magic) = run_engine(&c, 4, 1);
        assert_eq!(magic, 1);
        let deliver = ops
            .iter()
            .find(|o| matches!(o.op, SurgeryOp::DeliverMagic { .. }))
            .expect("delivery emitted");
        assert_eq!(deliver.factory, Some(0));
        let consume = ops
            .iter()
            .find(|o| matches!(o.op, SurgeryOp::ConsumeMagic { .. }))
            .expect("consumption emitted");
        assert_eq!(consume.patches, vec![0]);
        // Delivery ends at the consume's magic cell.
        if let (SurgeryOp::DeliverMagic { path }, SurgeryOp::ConsumeMagic { magic, .. }) =
            (&deliver.op, &consume.op)
        {
            assert_eq!(path.last(), Some(magic));
        }
    }

    #[test]
    fn clifford_rz_needs_no_magic() {
        let mut c = Circuit::new(4);
        c.rz_pi(0, 0.5).rz_pi(1, 1.0).rz_pi(2, -0.5).rz_pi(3, 2.0);
        let (ops, magic) = run_engine(&c, 4, 1);
        assert_eq!(magic, 0);
        // S, frame, Sdg, frame.
        let singles = ops
            .iter()
            .filter(|o| matches!(o.op, SurgeryOp::Single { .. }))
            .count();
        let frames = ops
            .iter()
            .filter(|o| matches!(o.op, SurgeryOp::PauliFrame { .. }))
            .count();
        assert_eq!(singles, 2);
        assert_eq!(frames, 2);
    }

    #[test]
    fn synthesis_policy_multiplies_states() {
        let mut c = Circuit::new(4);
        c.rz_pi(0, 0.1);
        let options = CompilerOptions::default()
            .routing_paths(4)
            .t_state_policy(crate::options::TStatePolicy::synthesis(3));
        let layout = Layout::with_routing_paths(4, 4);
        let mapping = InitialMapping::new(&layout, 4, MappingStrategy::Snake);
        let bank = FactoryBank::dock(&layout, 1, options.target.timing.magic_production);
        let mut engine = Engine::new(&layout, &mapping, bank, &options);
        engine.run(&c).unwrap();
        let (_, magic) = engine.into_ops();
        assert_eq!(magic, 3);
    }

    #[test]
    fn adjacent_cnot_requires_one_move() {
        // Snake mapping on 2x2: qubits 0,1 horizontally adjacent.
        let mut c = Circuit::new(4);
        c.cnot(0, 1);
        let (ops, _) = run_engine(&c, 6, 1);
        let moves = ops.iter().filter(|o| o.is_movement()).count();
        assert!(moves >= 1, "horizontal pair needs at least one move");
        assert!(ops.iter().any(|o| matches!(o.op, SurgeryOp::Cnot { .. })));
        for o in &ops {
            o.op.validate().expect("valid ops");
        }
    }

    #[test]
    fn cnot_in_packed_block_displaces() {
        // 3x3 fully packed, r=2 (top+left bus only): interior CNOTs force
        // displacement chains.
        let mut c = Circuit::new(9);
        c.cnot(4, 7).cnot(1, 4).cnot(3, 4);
        let (ops, _) = run_engine(&c, 2, 1);
        assert_eq!(
            ops.iter()
                .filter(|o| matches!(o.op, SurgeryOp::Cnot { .. }))
                .count(),
            3
        );
        for o in &ops {
            o.op.validate().expect("valid ops");
        }
    }

    #[test]
    fn measure_emits_measure_op() {
        let mut c = Circuit::new(4);
        c.h(0).measure(0);
        let (ops, _) = run_engine(&c, 4, 1);
        assert!(ops
            .iter()
            .any(|o| matches!(o.op, SurgeryOp::MeasureZ { .. })));
    }

    #[test]
    fn engine_positions_stay_consistent() {
        // A busy little program: every op must stay valid, implying the
        // internal position/occupancy maps never diverge.
        let mut c = Circuit::new(9);
        for q in 0..9 {
            c.h(q);
        }
        for (a, b) in [(0u32, 1u32), (3, 4), (7, 8), (2, 5), (4, 7)] {
            c.cnot(a, b);
        }
        for q in [0u32, 4, 8] {
            c.t(q);
        }
        let (ops, magic) = run_engine(&c, 4, 2);
        assert_eq!(magic, 3);
        for o in &ops {
            o.op.validate()
                .unwrap_or_else(|e| panic!("invalid op {}: {e}", o.op));
        }
    }

    #[test]
    fn occupancy_array_mirrors_positions_after_displacement() {
        // Packed r=2 block: CNOTs force push chains, so qubits move many
        // times. Afterwards the dense cell -> qubit array must hold exactly
        // one slot per qubit, at that qubit's position.
        let mut c = Circuit::new(9);
        c.cnot(4, 7).cnot(1, 4).cnot(3, 4).cnot(0, 8).t(4);
        let options = CompilerOptions::default().routing_paths(2);
        let layout = Layout::with_routing_paths(9, 2);
        let mapping = InitialMapping::new(&layout, 9, MappingStrategy::Snake);
        let bank = FactoryBank::dock(&layout, 1, options.target.timing.magic_production);
        let mut engine = Engine::new(&layout, &mapping, bank, &options);
        engine.run(&c).expect("routes");
        assert!(engine.ops.iter().any(|o| o.is_movement()), "qubits moved");
        for (q, &cell) in engine.pos.iter().enumerate() {
            assert_eq!(engine.occ[engine.slot(cell)], q as u32, "q{q} at {cell}");
        }
        let occupied = engine.occ.iter().filter(|&&q| q != EMPTY).count();
        assert_eq!(occupied, engine.pos.len());
    }

    #[test]
    fn two_factories_split_deliveries() {
        let mut c = Circuit::new(16);
        for q in 0..8 {
            c.t(q);
        }
        let (ops, _) = run_engine(&c, 4, 2);
        let mut used: Vec<usize> = ops.iter().filter_map(|o| o.factory).collect();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used, vec![0, 1], "both factories used");
    }
}

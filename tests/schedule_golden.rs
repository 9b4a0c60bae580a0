//! Golden schedule digests for the paper's Table I circuits.
//!
//! `route_differential.rs` compares the reference and incremental routers,
//! but both sides run through the same engine bookkeeping (occupancy,
//! provisional timelines, op emission) and the same timing replays, so a
//! change to that shared machinery cannot show up there. This suite pins
//! the *output* instead: a stable FNV-1a digest over every scheduled op
//! (kind, cells, patches, factory, start, duration) plus the headline
//! metrics, for each Table I circuit at the default options and, on the
//! smaller circuits and the two synthetic routing workloads, at a sparse
//! and a rich layout.
//!
//! A mismatch means the compiler's output changed. The failure message
//! prints the full actual row so an intentional change can be re-pinned.

use ftqc::arch::SurgeryOp;
use ftqc::compiler::{CompiledProgram, Compiler, CompilerOptions};
use ftqc::service::resolve::load_circuit_spec;

/// 64-bit FNV-1a over a stream of little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A tag per op kind (and per single-qubit gate), independent of any
/// `Debug`/`Display` formatting.
fn kind_tag(op: &SurgeryOp) -> u64 {
    match op {
        SurgeryOp::Move { .. } => 1,
        SurgeryOp::DeliverMagic { .. } => 2,
        SurgeryOp::MergeZz { .. } => 3,
        SurgeryOp::MergeXx { .. } => 4,
        SurgeryOp::Cnot { .. } => 5,
        SurgeryOp::Single { kind, .. } => {
            let name = kind.name().bytes().fold(0u64, |h, b| h * 31 + b as u64);
            6 ^ (name << 8)
        }
        SurgeryOp::ConsumeMagic { .. } => 7,
        SurgeryOp::MeasureZ { .. } => 8,
        SurgeryOp::PauliFrame { .. } => 9,
    }
}

fn schedule_digest(program: &CompiledProgram) -> u64 {
    let mut h = Fnv::new();
    for item in program.schedule().items() {
        let routed = &item.op;
        h.word(kind_tag(&routed.op));
        let mut n_cells = 0u64;
        routed.op.for_each_cell(|c| {
            h.word(c.row as i64 as u64);
            h.word(c.col as i64 as u64);
            n_cells += 1;
        });
        h.word(n_cells);
        h.word(routed.patches.len() as u64);
        for &q in &routed.patches {
            h.word(q as u64);
        }
        h.word(routed.factory.map_or(u64::MAX, |f| f as u64));
        h.word(item.start.raw());
        h.word(item.duration.raw());
    }
    h.0
}

/// One pinned compile: circuit spec, `(routing_paths, factories)` (or the
/// defaults), and the expected
/// `(digest, execution_time, unit_cost_time, n_surgery_ops, n_moves_eliminated)`.
type Row = (
    &'static str,
    Option<(u32, u32)>,
    (u64, u64, u64, usize, usize),
);

fn check(rows: &[Row]) {
    let mut failures = Vec::new();
    for &(spec, layout, want) in rows {
        let circuit = load_circuit_spec(spec).expect("known benchmark");
        let mut options = CompilerOptions::default();
        if let Some((r, f)) = layout {
            options = options.routing_paths(r).factories(f);
        }
        let program = Compiler::new(options).compile(&circuit).expect("compiles");
        let m = program.metrics();
        let got = (
            schedule_digest(&program),
            m.execution_time.raw(),
            m.unit_cost_time.raw(),
            m.n_surgery_ops,
            m.n_moves_eliminated,
        );
        if got != want {
            failures.push(format!(
                "(\"{spec}\", {layout:?}, (0x{:016x}, {}, {}, {}, {})),",
                got.0, got.1, got.2, got.3, got.4
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "schedules changed; actual rows:\n{}",
        failures.join("\n")
    );
}

#[test]
fn table1_default_schedules_are_pinned() {
    check(&[
        ("ising:10", None, (0x168803bfd14834e2, 6256, 6210, 3788, 16)),
        (
            "heisenberg:10",
            None,
            (0x847314af4d36f394, 12083, 12006, 7759, 16),
        ),
        (
            "fermi-hubbard:10",
            None,
            (0x02b3a1fa337b4b07, 3443, 3354, 2630, 18),
        ),
        ("ghz", None, (0xc963ee2e11d7e979, 1637, 1134, 973, 4)),
        ("adder", None, (0x9ea02a38ef3dd155, 5360, 5302, 1375, 4)),
        (
            "multiplier",
            None,
            (0x9c9a1c63c77d464c, 7420, 7190, 1502, 6),
        ),
    ]);
}

#[test]
fn heisenberg_20_default_schedule_is_pinned() {
    check(&[(
        "heisenberg:20",
        None,
        (0x82117d91b1eded95, 52904, 52388, 49687, 314),
    )]);
}

#[test]
fn sparse_layout_schedules_are_pinned() {
    check(&[
        (
            "ising:10",
            Some((2, 1)),
            (0xfeb4d565039a98cb, 6899, 6740, 5148, 56),
        ),
        (
            "ghz",
            Some((2, 1)),
            (0xbb86ff0c6834ab45, 1971, 1474, 1331, 6),
        ),
        (
            "adder",
            Some((2, 1)),
            (0xfd514e7e91768c62, 5332, 5298, 1329, 4),
        ),
        (
            "multiplier",
            Some((2, 1)),
            (0xbed99a5be301be01, 7596, 7370, 1753, 14),
        ),
    ]);
}

#[test]
fn rich_layout_schedules_are_pinned() {
    check(&[
        (
            "ising:10",
            Some((8, 4)),
            (0x6ccf28ba4f32d48e, 1883, 1824, 2792, 2),
        ),
        ("ghz", Some((8, 4)), (0x7c1330370a263307, 1325, 814, 655, 0)),
        (
            "adder",
            Some((8, 4)),
            (0x25a2037296bc5529, 1986, 1738, 1108, 0),
        ),
        (
            "multiplier",
            Some((8, 4)),
            (0x53df0fee4c0d50f6, 2762, 2420, 1291, 0),
        ),
    ]);
}

#[test]
fn synthetic_workload_schedules_are_pinned() {
    check(&[
        (
            "magic-rounds",
            None,
            (0x1ca4f7404b0d530b, 4231, 4228, 469, 0),
        ),
        (
            "magic-rounds",
            Some((2, 1)),
            (0x022ba2d81079401c, 4231, 4228, 483, 0),
        ),
        (
            "magic-rounds",
            Some((8, 4)),
            (0x86cd4107c939f8d7, 1086, 1070, 423, 0),
        ),
        (
            "cnot-bricks",
            None,
            (0xc276f252f2a6643c, 2408, 2232, 6296, 26),
        ),
        (
            "cnot-bricks",
            Some((2, 1)),
            (0xd2574c550f054d4a, 3128, 2954, 8637, 62),
        ),
        (
            "cnot-bricks",
            Some((8, 4)),
            (0x0d0da8a4dcb1ec24, 636, 566, 3490, 4),
        ),
    ]);
}

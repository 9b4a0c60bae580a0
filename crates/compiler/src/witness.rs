//! Compile witnesses: the proof object an untrusted worker returns next to
//! its metrics, and the coordinator-side checker that accepts or rejects
//! the pair **without re-routing**.
//!
//! A [`Witness`] carries the post-elimination routed-op *sequence* (no
//! start times), the four per-stage cache keys, and the target digest.
//! That is enough for [`verify_witness`] to
//!
//! 1. re-derive the stage keys from the circuit + options (cheap: only the
//!    prepare/lower front end runs, cache-assisted),
//! 2. rebuild the layout and factory bank from the target,
//! 3. reject any op whose cells leave the grid or whose patch indices
//!    exceed the circuit's qubits, before anything indexes replay state,
//! 4. deterministically re-time the op sequence with [`time_ops`] (greedy
//!    replay — the same function the schedule stage uses, so a faithful
//!    worker's makespan is reproduced exactly),
//! 5. run the six-invariant physical checker [`verify_items`] over the
//!    re-timed schedule, and
//! 6. re-derive the full [`Metrics`] document and require equality with
//!    the claimed one.
//!
//! Everything is O(schedule): the expensive map stage (routing) never runs
//! on the verifying side. Two counters are informational pass-throughs the
//! witness cannot re-derive (`n_moves_eliminated` and the incremental
//! router's `route` counters — both describe how the worker *got* to the
//! op sequence, not the sequence itself); the trust model in the README
//! documents this residual gap.

use crate::codec::target_digest;
use crate::error::CompileError;
use crate::metrics::{lower_bound, Metrics};
use crate::options::CompilerOptions;
use crate::pipeline::CompiledProgram;
use crate::routed::RoutedOp;
use crate::session::{CompileSession, StageCache};
use crate::timer::{replay_makespan, time_ops, CostKind};
use crate::verify::{verify_items, VerifyError};
use ftqc_arch::{Coord, SingleQubitKind, SurgeryOp, Ticks};
use ftqc_circuit::Circuit;
use ftqc_service::fingerprint;
use ftqc_service::json::{FromJson, JsonError, ToJson, Value};

/// Wire version of the witness document.
pub const WITNESS_VERSION: u64 = 1;

/// The compact proof a worker attaches to a `JobResult`: enough for the
/// coordinator to re-verify the compilation in O(schedule).
#[derive(Debug, Clone, PartialEq)]
pub struct Witness {
    /// The four per-stage cache keys (prepare, lower, map, schedule) the
    /// worker compiled under — the coordinator re-derives and compares
    /// them, pinning circuit and options.
    pub stage_keys: [u64; 4],
    /// Digest of the hardware target the schedule was compiled for.
    pub target_digest: u64,
    /// The routed operation sequence after redundant-move elimination, in
    /// schedule order. Start times are *not* carried: re-timing is
    /// deterministic, so the coordinator replays rather than trusts.
    pub ops: Vec<RoutedOp>,
}

/// Why a witness was rejected. Any variant other than [`Compile`] means
/// the worker's claim is inconsistent and the job must be recomputed
/// locally.
///
/// [`Compile`]: WitnessError::Compile
#[derive(Debug, Clone, PartialEq)]
pub enum WitnessError {
    /// The coordinator-side front end (prepare/lower) failed — the job
    /// itself is bad, not the worker.
    Compile(String),
    /// A re-derived stage key disagrees with the witness.
    StageKeyMismatch {
        /// Index into the prepare/lower/map/schedule key array.
        index: usize,
        /// The key the coordinator derived.
        expected: u64,
        /// The key the witness carried.
        got: u64,
    },
    /// The witness was produced for a different hardware target.
    TargetDigestMismatch {
        /// Digest of the target the coordinator resolved.
        expected: u64,
        /// Digest the witness carried.
        got: u64,
    },
    /// The target rejects the program shape or the layout cannot be built.
    Target(String),
    /// An op names a program qubit the circuit does not have.
    PatchOutOfRange {
        /// Index in the op sequence.
        index: usize,
        /// The offending patch index.
        patch: u32,
        /// Qubits in the lowered circuit.
        num_qubits: u32,
    },
    /// An op carries a grant from a factory the target does not have.
    FactoryOutOfRange {
        /// Index in the op sequence.
        index: usize,
        /// The offending factory index.
        factory: usize,
        /// Factories on the target (at least one).
        factories: usize,
    },
    /// The re-timed schedule violates a physical invariant.
    Invariant(VerifyError),
    /// The metrics derived from the witness disagree with the claimed
    /// ones; `field` names the first differing member.
    MetricsMismatch {
        /// Name of the first differing metrics field.
        field: &'static str,
    },
}

impl std::fmt::Display for WitnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WitnessError::Compile(e) => write!(f, "cannot re-derive stage keys: {e}"),
            WitnessError::StageKeyMismatch {
                index,
                expected,
                got,
            } => write!(
                f,
                "stage key {index} mismatch: expected {} got {}",
                fingerprint::to_hex(*expected),
                fingerprint::to_hex(*got)
            ),
            WitnessError::TargetDigestMismatch { expected, got } => write!(
                f,
                "target digest mismatch: expected {} got {}",
                fingerprint::to_hex(*expected),
                fingerprint::to_hex(*got)
            ),
            WitnessError::Target(e) => write!(f, "target rejects witness: {e}"),
            WitnessError::PatchOutOfRange {
                index,
                patch,
                num_qubits,
            } => write!(
                f,
                "op {index} names patch {patch} of a {num_qubits}-qubit circuit"
            ),
            WitnessError::FactoryOutOfRange {
                index,
                factory,
                factories,
            } => write!(
                f,
                "op {index} names factory {factory} of a {factories}-factory target"
            ),
            WitnessError::Invariant(e) => write!(f, "invariant violated: {e}"),
            WitnessError::MetricsMismatch { field } => {
                write!(f, "derived metrics disagree on {field:?}")
            }
        }
    }
}

impl std::error::Error for WitnessError {}

/// Extracts the witness for a compiled program: the session's stage keys,
/// the target digest, and the scheduled op sequence in order.
///
/// # Errors
///
/// Any [`CompileError`] from the cheap stage-key derivation (prepare/lower
/// re-run, cache-assisted).
pub fn extract_witness(
    session: &CompileSession,
    circuit: &Circuit,
    program: &CompiledProgram,
) -> Result<Witness, CompileError> {
    Ok(Witness {
        stage_keys: session.stage_keys(circuit)?,
        target_digest: target_digest(&session.options().target),
        ops: program
            .schedule()
            .items()
            .iter()
            .map(|item| item.op.clone())
            .collect(),
    })
}

/// First differing field of two metrics documents, for the rejection
/// message. `None` when equal.
fn first_metrics_diff(a: &Metrics, b: &Metrics) -> Option<&'static str> {
    if a.execution_time != b.execution_time {
        return Some("execution_time");
    }
    if a.unit_cost_time != b.unit_cost_time {
        return Some("unit_cost_time");
    }
    if a.lower_bound != b.lower_bound {
        return Some("lower_bound");
    }
    if a.grid_patches != b.grid_patches {
        return Some("grid_patches");
    }
    if a.factory_patches != b.factory_patches {
        return Some("factory_patches");
    }
    if a.routing_paths != b.routing_paths {
        return Some("routing_paths");
    }
    if a.factories != b.factories {
        return Some("factories");
    }
    if a.n_gates != b.n_gates {
        return Some("n_gates");
    }
    if a.n_surgery_ops != b.n_surgery_ops {
        return Some("n_surgery_ops");
    }
    if a.n_moves != b.n_moves {
        return Some("n_moves");
    }
    if a.n_moves_eliminated != b.n_moves_eliminated {
        return Some("n_moves_eliminated");
    }
    if a.n_magic_states != b.n_magic_states {
        return Some("n_magic_states");
    }
    if a.route != b.route {
        return Some("route");
    }
    None
}

/// Verifies a worker's `(metrics, witness)` claim for `circuit` compiled
/// under `options`, in O(schedule): stage keys and target digest are
/// re-derived and compared, the op sequence is re-timed deterministically,
/// the six physical invariants are checked, and the metrics are
/// re-assembled from the replay and compared member-wise with the claim.
///
/// `stages` (when given) lets the cheap front-end re-runs share the
/// coordinator's stage cache. On success the *derived* metrics document is
/// returned; it is equal to `claimed` and safe to serve.
///
/// # Errors
///
/// The first failed check, as a [`WitnessError`].
pub fn verify_witness(
    circuit: &Circuit,
    options: &CompilerOptions,
    witness: &Witness,
    claimed: &Metrics,
    stages: Option<&StageCache>,
) -> Result<Metrics, WitnessError> {
    let mut session = CompileSession::new(options.clone());
    if let Some(cache) = stages {
        session = session.with_cache(cache.clone());
    }

    // 1. Stage keys: pins (circuit, options) — a witness replayed from a
    // different job or option set fails here before any replay work.
    let keys = session
        .stage_keys(circuit)
        .map_err(|e| WitnessError::Compile(e.to_string()))?;
    for (index, (expected, got)) in keys.iter().zip(witness.stage_keys.iter()).enumerate() {
        if expected != got {
            return Err(WitnessError::StageKeyMismatch {
                index,
                expected: *expected,
                got: *got,
            });
        }
    }
    let expected_digest = target_digest(&options.target);
    if expected_digest != witness.target_digest {
        return Err(WitnessError::TargetDigestMismatch {
            expected: expected_digest,
            got: witness.target_digest,
        });
    }

    // 2. The machine: shape validation, layout, factory bank — all from
    // the target, none from the witness.
    let prepared = session
        .prepare(circuit)
        .map_err(|e| WitnessError::Compile(e.to_string()))?;
    let input_gates = circuit.len();
    let lowered = prepared.lower();
    let num_qubits = lowered.circuit().num_qubits();
    let t_count = lowered.circuit().t_count() as u64;
    options
        .target
        .validate(num_qubits, t_count)
        .map_err(|e| WitnessError::Target(e.to_string()))?;
    let layout = options
        .target
        .build_layout(num_qubits)
        .map_err(|e| WitnessError::Target(e.to_string()))?;
    let bank = options.target.factory_bank(&layout);

    // 3. The trust boundary: the replay indexes per-cell, per-qubit and
    // per-factory state directly, so every cell must lie on the grid, every
    // patch index name a circuit qubit and every grant a target factory
    // before anything is re-timed.
    let grid = layout.grid();
    let factories = (options.target.factories as usize).max(1);
    check_ranges(&witness.ops, num_qubits, factories, |c| grid.in_bounds(c))?;

    // 4 + 5. Deterministic re-timing and the physical invariants. The
    // same greedy replay the schedule stage runs, so a faithful worker's
    // makespans are reproduced bit-for-bit.
    let timing = options.effective_schedule_timing();
    let unit_makespan = replay_makespan(
        &witness.ops,
        grid,
        num_qubits,
        options.target.factories as usize,
        timing,
        CostKind::UnitCost,
        options.target.unbounded_magic,
    );
    let schedule = time_ops(
        witness.ops.clone(),
        grid,
        num_qubits,
        options.target.factories as usize,
        timing,
        CostKind::Realistic,
        options.target.unbounded_magic,
    );
    verify_items(schedule.items(), timing, |c| grid.in_bounds(c))
        .map_err(WitnessError::Invariant)?;

    // 6. Metrics re-assembly — the schedule stage's recipe, with the two
    // non-derivable informational counters passed through from the claim.
    let n_magic_states = witness
        .ops
        .iter()
        .filter(|o| matches!(o.op, SurgeryOp::ConsumeMagic { .. }))
        .count() as u64;
    let derived = Metrics {
        execution_time: schedule.makespan(),
        unit_cost_time: unit_makespan,
        lower_bound: if options.target.unbounded_magic {
            Ticks::ZERO
        } else {
            lower_bound(
                n_magic_states,
                timing.magic_production,
                options.target.factories,
            )
        },
        grid_patches: layout.total_patches(),
        factory_patches: bank.total_tiles(),
        routing_paths: options.target.routing_paths(),
        factories: options.target.factories,
        n_gates: input_gates,
        n_surgery_ops: witness.ops.len(),
        n_moves: witness.ops.iter().filter(|o| o.is_movement()).count(),
        n_moves_eliminated: claimed.n_moves_eliminated,
        n_magic_states,
        route: claimed.route,
    };
    if let Some(field) = first_metrics_diff(&derived, claimed) {
        return Err(WitnessError::MetricsMismatch { field });
    }
    Ok(derived)
}

/// Rejects the first op that touches a cell off the grid, names a patch
/// `≥ num_qubits` or carries a grant from a factory `≥ factories`.
fn check_ranges(
    ops: &[RoutedOp],
    num_qubits: u32,
    factories: usize,
    in_bounds: impl Fn(Coord) -> bool,
) -> Result<(), WitnessError> {
    for (index, routed) in ops.iter().enumerate() {
        let mut off_grid = None;
        routed.op.for_each_cell(|c| {
            if off_grid.is_none() && !in_bounds(c) {
                off_grid = Some(c);
            }
        });
        if let Some(cell) = off_grid {
            return Err(WitnessError::Invariant(VerifyError::OffGrid {
                index,
                cell,
            }));
        }
        if let Some(&patch) = routed.patches.iter().find(|&&q| q >= num_qubits) {
            return Err(WitnessError::PatchOutOfRange {
                index,
                patch,
                num_qubits,
            });
        }
        if let Some(factory) = routed.factory.filter(|&f| f >= factories) {
            return Err(WitnessError::FactoryOutOfRange {
                index,
                factory,
                factories,
            });
        }
    }
    Ok(())
}

// --- JSON codec -----------------------------------------------------------
//
// Compact encoding: coordinates as two-element arrays, op fields flattened
// next to a "k" kind tag (the names `to_csv` uses), routed-op extras under
// short keys ("q" patches, "f" factory, "g" gate) omitted when empty.
// Fingerprints travel as hex strings — a u64 does not survive an f64.

fn num(v: u64) -> Value {
    Value::Num(v as f64)
}

fn coord_to_json(c: Coord) -> Value {
    Value::Arr(vec![
        Value::Num(f64::from(c.row)),
        Value::Num(f64::from(c.col)),
    ])
}

fn coord_from_json(v: &Value) -> Result<Coord, JsonError> {
    let items = v
        .as_arr()
        .filter(|items| items.len() == 2)
        .ok_or_else(|| JsonError::schema("coordinate must be a [row, col] pair"))?;
    let int = |v: &Value| {
        v.as_f64()
            .filter(|n| n.fract() == 0.0 && (-1e9..=1e9).contains(n))
            .map(|n| n as i32)
            .ok_or_else(|| JsonError::schema("coordinate entries must be integers"))
    };
    Ok(Coord::new(int(&items[0])?, int(&items[1])?))
}

fn kind_from_name(name: &str) -> Result<SingleQubitKind, JsonError> {
    match name {
        "h" => Ok(SingleQubitKind::H),
        "s" => Ok(SingleQubitKind::S),
        "sdg" => Ok(SingleQubitKind::Sdg),
        "sx" => Ok(SingleQubitKind::Sx),
        "sxdg" => Ok(SingleQubitKind::Sxdg),
        other => Err(JsonError::schema(format!(
            "unknown single-qubit kind {other:?}"
        ))),
    }
}

fn op_fields(op: &SurgeryOp) -> Vec<(String, Value)> {
    match op {
        SurgeryOp::Move { from, to } => vec![
            ("k".into(), Value::Str("move".into())),
            ("from".into(), coord_to_json(*from)),
            ("to".into(), coord_to_json(*to)),
        ],
        SurgeryOp::DeliverMagic { path } => vec![
            ("k".into(), Value::Str("deliver".into())),
            (
                "path".into(),
                Value::Arr(path.iter().map(|c| coord_to_json(*c)).collect()),
            ),
        ],
        SurgeryOp::MergeZz { a, b } => vec![
            ("k".into(), Value::Str("mzz".into())),
            ("a".into(), coord_to_json(*a)),
            ("b".into(), coord_to_json(*b)),
        ],
        SurgeryOp::MergeXx { a, b } => vec![
            ("k".into(), Value::Str("mxx".into())),
            ("a".into(), coord_to_json(*a)),
            ("b".into(), coord_to_json(*b)),
        ],
        SurgeryOp::Cnot {
            control,
            target,
            ancilla,
        } => vec![
            ("k".into(), Value::Str("cnot".into())),
            ("control".into(), coord_to_json(*control)),
            ("target".into(), coord_to_json(*target)),
            ("ancilla".into(), coord_to_json(*ancilla)),
        ],
        SurgeryOp::Single {
            kind,
            cell,
            ancilla,
        } => vec![
            ("k".into(), Value::Str("single".into())),
            ("kind".into(), Value::Str(kind.name().into())),
            ("cell".into(), coord_to_json(*cell)),
            ("ancilla".into(), coord_to_json(*ancilla)),
        ],
        SurgeryOp::ConsumeMagic { target, magic } => vec![
            ("k".into(), Value::Str("consume".into())),
            ("target".into(), coord_to_json(*target)),
            ("magic".into(), coord_to_json(*magic)),
        ],
        SurgeryOp::MeasureZ { cell } => vec![
            ("k".into(), Value::Str("measure".into())),
            ("cell".into(), coord_to_json(*cell)),
        ],
        SurgeryOp::PauliFrame { cell } => vec![
            ("k".into(), Value::Str("frame".into())),
            ("cell".into(), coord_to_json(*cell)),
        ],
    }
}

fn coord_field(v: &Value, key: &str) -> Result<Coord, JsonError> {
    coord_from_json(
        v.get(key)
            .ok_or_else(|| JsonError::schema(format!("op needs field {key:?}")))?,
    )
}

fn op_from_json(v: &Value) -> Result<SurgeryOp, JsonError> {
    let kind = v
        .get("k")
        .and_then(Value::as_str)
        .ok_or_else(|| JsonError::schema("op needs a string \"k\" kind tag"))?;
    match kind {
        "move" => Ok(SurgeryOp::Move {
            from: coord_field(v, "from")?,
            to: coord_field(v, "to")?,
        }),
        "deliver" => {
            let path = v
                .get("path")
                .and_then(Value::as_arr)
                .ok_or_else(|| JsonError::schema("deliver needs a \"path\" array"))?;
            Ok(SurgeryOp::DeliverMagic {
                path: path.iter().map(coord_from_json).collect::<Result<_, _>>()?,
            })
        }
        "mzz" => Ok(SurgeryOp::MergeZz {
            a: coord_field(v, "a")?,
            b: coord_field(v, "b")?,
        }),
        "mxx" => Ok(SurgeryOp::MergeXx {
            a: coord_field(v, "a")?,
            b: coord_field(v, "b")?,
        }),
        "cnot" => Ok(SurgeryOp::Cnot {
            control: coord_field(v, "control")?,
            target: coord_field(v, "target")?,
            ancilla: coord_field(v, "ancilla")?,
        }),
        "single" => Ok(SurgeryOp::Single {
            kind: kind_from_name(
                v.get("kind")
                    .and_then(Value::as_str)
                    .ok_or_else(|| JsonError::schema("single needs a string \"kind\""))?,
            )?,
            cell: coord_field(v, "cell")?,
            ancilla: coord_field(v, "ancilla")?,
        }),
        "consume" => Ok(SurgeryOp::ConsumeMagic {
            target: coord_field(v, "target")?,
            magic: coord_field(v, "magic")?,
        }),
        "measure" => Ok(SurgeryOp::MeasureZ {
            cell: coord_field(v, "cell")?,
        }),
        "frame" => Ok(SurgeryOp::PauliFrame {
            cell: coord_field(v, "cell")?,
        }),
        other => Err(JsonError::schema(format!("unknown op kind {other:?}"))),
    }
}

impl ToJson for RoutedOp {
    fn to_json(&self) -> Value {
        let mut fields = op_fields(&self.op);
        if !self.patches.is_empty() {
            fields.push((
                "q".into(),
                Value::Arr(self.patches.iter().map(|&q| num(u64::from(q))).collect()),
            ));
        }
        if let Some(f) = self.factory {
            fields.push(("f".into(), num(f as u64)));
        }
        if let Some(g) = self.gate {
            fields.push(("g".into(), num(g as u64)));
        }
        Value::Obj(fields)
    }
}

impl FromJson for RoutedOp {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let patches = match value.get("q") {
            None => Vec::new(),
            Some(q) => q
                .as_arr()
                .ok_or_else(|| JsonError::schema("\"q\" must be an array"))?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| JsonError::schema("\"q\" entries must be u32 qubits"))
                })
                .collect::<Result<_, _>>()?,
        };
        let index_of = |key: &str| -> Result<Option<usize>, JsonError> {
            match value.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(|n| Some(n as usize))
                    .ok_or_else(|| JsonError::schema(format!("{key:?} must be an index"))),
            }
        };
        Ok(RoutedOp {
            op: op_from_json(value)?,
            patches,
            factory: index_of("f")?,
            gate: index_of("g")?,
        })
    }
}

impl ToJson for Witness {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("v".into(), num(WITNESS_VERSION)),
            (
                "keys".into(),
                Value::Arr(
                    self.stage_keys
                        .iter()
                        .map(|k| Value::Str(fingerprint::to_hex(*k)))
                        .collect(),
                ),
            ),
            (
                "target".into(),
                Value::Str(fingerprint::to_hex(self.target_digest)),
            ),
            (
                "ops".into(),
                Value::Arr(self.ops.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for Witness {
    fn from_json(value: &Value) -> Result<Self, JsonError> {
        let version = value
            .get("v")
            .and_then(Value::as_u64)
            .ok_or_else(|| JsonError::schema("witness needs a numeric \"v\""))?;
        if version != WITNESS_VERSION {
            return Err(JsonError::schema(format!(
                "unsupported witness version {version}"
            )));
        }
        let hex = |v: &Value| {
            v.as_str()
                .and_then(fingerprint::from_hex)
                .ok_or_else(|| JsonError::schema("witness keys must be hex fingerprints"))
        };
        let keys = value
            .get("keys")
            .and_then(Value::as_arr)
            .filter(|k| k.len() == 4)
            .ok_or_else(|| JsonError::schema("witness needs a 4-element \"keys\" array"))?;
        let mut stage_keys = [0u64; 4];
        for (slot, v) in stage_keys.iter_mut().zip(keys.iter()) {
            *slot = hex(v)?;
        }
        let ops = value
            .get("ops")
            .and_then(Value::as_arr)
            .ok_or_else(|| JsonError::schema("witness needs an \"ops\" array"))?
            .iter()
            .map(RoutedOp::from_json)
            .collect::<Result<_, _>>()?;
        Ok(Witness {
            stage_keys,
            target_digest: hex(value
                .get("target")
                .ok_or_else(|| JsonError::schema("witness needs a \"target\" digest"))?)?,
            ops,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::CompileSession;

    fn testbed() -> (Circuit, CompilerOptions) {
        let mut c = Circuit::new(4);
        c.h(0).cnot(0, 1).t(1).cnot(1, 2).s(2).cnot(2, 3).measure(3);
        (c, CompilerOptions::default().routing_paths(4))
    }

    fn compile_witnessed(circuit: &Circuit, options: &CompilerOptions) -> (Witness, Metrics) {
        let session = CompileSession::new(options.clone());
        let program = session.compile(circuit).expect("compiles");
        let witness = extract_witness(&session, circuit, &program).expect("extracts");
        (witness, *program.metrics())
    }

    #[test]
    fn faithful_witness_verifies_and_reproduces_metrics() {
        let (circuit, options) = testbed();
        let (witness, claimed) = compile_witnessed(&circuit, &options);
        let derived = verify_witness(&circuit, &options, &witness, &claimed, None)
            .expect("faithful witness accepted");
        assert_eq!(derived, claimed);
    }

    #[test]
    fn witness_roundtrips_through_json() {
        let (circuit, options) = testbed();
        let (witness, _) = compile_witnessed(&circuit, &options);
        let doc = witness.to_json().render();
        let back = Witness::from_json(&Value::parse(&doc).unwrap()).unwrap();
        assert_eq!(back, witness);
        // Canonical: render-parse-render is a fixed point.
        assert_eq!(back.to_json().render(), doc);
    }

    #[test]
    fn wrong_option_set_rejected_on_stage_keys() {
        let (circuit, options) = testbed();
        let (witness, claimed) = compile_witnessed(&circuit, &options);
        let other = CompilerOptions::default().routing_paths(6);
        let err = verify_witness(&circuit, &other, &witness, &claimed, None).unwrap_err();
        assert!(
            matches!(err, WitnessError::StageKeyMismatch { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn tampered_target_digest_rejected() {
        let (circuit, options) = testbed();
        let (mut witness, claimed) = compile_witnessed(&circuit, &options);
        witness.target_digest ^= 1;
        let err = verify_witness(&circuit, &options, &witness, &claimed, None).unwrap_err();
        assert!(
            matches!(err, WitnessError::TargetDigestMismatch { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn inflated_metrics_rejected() {
        let (circuit, options) = testbed();
        let (witness, mut claimed) = compile_witnessed(&circuit, &options);
        claimed.execution_time += Ticks(2);
        let err = verify_witness(&circuit, &options, &witness, &claimed, None).unwrap_err();
        assert_eq!(
            err,
            WitnessError::MetricsMismatch {
                field: "execution_time"
            }
        );
    }

    #[test]
    fn dropped_op_rejected() {
        let (circuit, options) = testbed();
        let (mut witness, claimed) = compile_witnessed(&circuit, &options);
        // Dropping any op changes n_surgery_ops (and usually the timing);
        // the claim no longer matches the replay.
        witness.ops.pop();
        let err = verify_witness(&circuit, &options, &witness, &claimed, None).unwrap_err();
        assert!(
            matches!(err, WitnessError::MetricsMismatch { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn out_of_range_patch_rejected_before_retiming() {
        let (circuit, options) = testbed();
        let (mut witness, claimed) = compile_witnessed(&circuit, &options);
        let i = witness
            .ops
            .iter()
            .position(|o| !o.patches.is_empty())
            .expect("some op carries a patch");
        witness.ops[i].patches[0] = 1_000_000;
        let err = verify_witness(&circuit, &options, &witness, &claimed, None).unwrap_err();
        assert_eq!(
            err,
            WitnessError::PatchOutOfRange {
                index: i,
                patch: 1_000_000,
                num_qubits: 4
            }
        );
    }

    #[test]
    fn out_of_range_factory_rejected_before_retiming() {
        let (circuit, options) = testbed();
        assert_eq!(options.target.factories, 1);
        let (mut witness, claimed) = compile_witnessed(&circuit, &options);
        let i = witness
            .ops
            .iter()
            .position(|o| o.factory.is_some())
            .expect("the T gate's delivery carries a grant");
        witness.ops[i].factory = Some(1_000_000);
        let err = verify_witness(&circuit, &options, &witness, &claimed, None).unwrap_err();
        assert_eq!(
            err,
            WitnessError::FactoryOutOfRange {
                index: i,
                factory: 1_000_000,
                factories: 1
            }
        );
        // The first index past the bank is out of range too.
        witness.ops[i].factory = Some(1);
        assert!(matches!(
            verify_witness(&circuit, &options, &witness, &claimed, None),
            Err(WitnessError::FactoryOutOfRange { factory: 1, .. })
        ));
    }

    #[test]
    fn off_grid_cells_rejected_before_retiming() {
        let (circuit, options) = testbed();
        let (witness, claimed) = compile_witnessed(&circuit, &options);
        for cell in [
            Coord::new(-1, 0),
            Coord::new(0, -3),
            Coord::new(1_000_000, 2),
            Coord::new(i32::MAX, i32::MAX),
        ] {
            let mut forged = witness.clone();
            let last = forged.ops.len() - 1;
            forged.ops[last].op = SurgeryOp::PauliFrame { cell };
            let err = verify_witness(&circuit, &options, &forged, &claimed, None).unwrap_err();
            assert_eq!(
                err,
                WitnessError::Invariant(VerifyError::OffGrid { index: last, cell }),
                "{cell}"
            );
        }
    }

    #[test]
    fn bad_witness_documents_rejected() {
        for text in [
            r#"{"keys":["0","0","0","0"],"target":"0","ops":[]}"#,
            r#"{"v":99,"keys":["0","0","0","0"],"target":"0","ops":[]}"#,
            r#"{"v":1,"keys":["0","0"],"target":"0","ops":[]}"#,
            r#"{"v":1,"keys":["0","0","0","0"],"target":"0","ops":[{"k":"banana"}]}"#,
            r#"{"v":1,"keys":["0","0","0","0"],"target":"0","ops":[{"k":"move","from":[0],"to":[0,1]}]}"#,
        ] {
            let v = Value::parse(text).unwrap();
            assert!(Witness::from_json(&v).is_err(), "accepted {text}");
        }
    }
}

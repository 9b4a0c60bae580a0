//! Synthetic *workload* circuits — not part of the paper's Table I suite.
//!
//! These exist to exercise compiler machinery whose behaviour the
//! evaluation circuits cannot isolate. [`magic_rounds`] is a
//! delivery-heavy routing workload: a large block of stationary T-state
//! consumers whose delivery corridors repeat identically round after
//! round, plus a small knot of CNOT churn far away that keeps moving
//! qubits. [`cnot_bricks`] is a CNOT-wide workload whose ready front
//! stays half the register wide.

use ftqc_circuit::Circuit;

/// The repeat-heavy magic-state delivery workload: `rounds` rounds, each
/// applying T to the first `n / 2` qubits (stationary consumers) and one
/// CNOT among the last four qubits (the churn knot), with the churn
/// pairing rotating so every round moves qubits.
///
/// # Panics
///
/// Panics if `n < 8` or `rounds == 0`.
///
/// # Example
///
/// ```
/// use ftqc_benchmarks::magic_rounds;
///
/// let c = magic_rounds(24, 16);
/// assert_eq!(c.num_qubits(), 24);
/// assert_eq!(c.t_count(), 12 * 16);
/// assert_eq!(c.counts().cnot, 16);
/// ```
pub fn magic_rounds(n: u32, rounds: u32) -> Circuit {
    assert!(n >= 8, "magic_rounds needs at least 8 qubits");
    assert!(rounds > 0, "magic_rounds needs at least one round");
    let mut c = Circuit::with_name(n, format!("magic-rounds-{n}x{rounds}"));
    let consumers = n / 2;
    let churn = [(n - 4, n - 3), (n - 3, n - 2), (n - 2, n - 1)];
    for r in 0..rounds {
        for q in 0..consumers {
            c.t(q);
        }
        let (a, b) = churn[(r % 3) as usize];
        c.cnot(a, b);
    }
    c
}

/// The CNOT-wide parallel-routing workload: `layers` brick-pattern layers
/// of nearest-neighbour CNOTs over `n` qubits. Within a layer every CNOT
/// is qubit-disjoint from every other (even pairs on even layers, odd
/// pairs on odd layers), so the engine's ready front stays `n / 2` wide.
/// On a large register the per-CNOT route searches are long and the
/// corridors spatially spread.
///
/// # Panics
///
/// Panics if `n < 4` or `layers == 0`.
///
/// # Example
///
/// ```
/// use ftqc_benchmarks::cnot_bricks;
///
/// let c = cnot_bricks(8, 3);
/// assert_eq!(c.num_qubits(), 8);
/// // Layers alternate 4 and 3 disjoint CNOTs on 8 qubits.
/// assert_eq!(c.counts().cnot, 4 + 3 + 4);
/// ```
pub fn cnot_bricks(n: u32, layers: u32) -> Circuit {
    assert!(n >= 4, "cnot_bricks needs at least 4 qubits");
    assert!(layers > 0, "cnot_bricks needs at least one layer");
    let mut c = Circuit::with_name(n, format!("cnot-bricks-{n}x{layers}"));
    for layer in 0..layers {
        let first = layer % 2;
        let mut q = first;
        while q + 1 < n {
            c.cnot(q, q + 1);
            q += 2;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magic_rounds_shape() {
        let c = magic_rounds(24, 16);
        assert_eq!(c.num_qubits(), 24);
        let k = c.counts();
        assert_eq!(k.t + k.tdg, 12 * 16);
        assert_eq!(k.cnot, 16);
        // Consumers repeat every round: the T load dominates the churn.
        assert!(c.t_count() > 10 * k.cnot);
    }

    #[test]
    fn churn_rotates_pairings() {
        let c = magic_rounds(16, 6);
        // Rounds 0..6 use three distinct churn pairs, each twice.
        let cnots: Vec<_> = c
            .gates()
            .iter()
            .filter_map(|g| match *g {
                ftqc_circuit::Gate::Cnot { control, target } => Some((control, target)),
                _ => None,
            })
            .collect();
        assert_eq!(cnots.len(), 6);
        let distinct: std::collections::HashSet<_> = cnots.iter().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least 8")]
    fn rejects_tiny_registers() {
        magic_rounds(4, 2);
    }

    #[test]
    fn bricks_layers_are_qubit_disjoint() {
        let c = cnot_bricks(10, 2);
        let cnots: Vec<_> = c
            .gates()
            .iter()
            .filter_map(|g| match *g {
                ftqc_circuit::Gate::Cnot { control, target } => Some((control, target)),
                _ => None,
            })
            .collect();
        // Even layer: (0,1)(2,3)(4,5)(6,7)(8,9); odd: (1,2)(3,4)(5,6)(7,8).
        assert_eq!(cnots.len(), 5 + 4);
        for layer in [&cnots[..5], &cnots[5..]] {
            let mut seen = std::collections::HashSet::new();
            for &(a, b) in layer {
                assert!(seen.insert(a) && seen.insert(b), "layer reuses a qubit");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn bricks_reject_zero_layers() {
        cnot_bricks(8, 0);
    }
}

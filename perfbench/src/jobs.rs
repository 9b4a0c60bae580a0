//! Seeded compile jobs for the serving workloads, and the in-process
//! reference compiles their results are checked against.

use crate::util::Rng;
use ftqc::circuit::write_qasm;
use ftqc::compiler::{Compiler, CompilerOptions, Metrics};
use ftqc::service::{CircuitSource, CompileJob};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A compile job as the client sends it.
pub type Job = CompileJob<CompilerOptions>;

/// The grid of small named circuits: each condensed-matter family at side
/// 3..=6, plus the adder and the multiplier.
fn grid_sources() -> Vec<CircuitSource> {
    let mut sources = Vec::new();
    for name in ["ising", "heisenberg", "fermi-hubbard"] {
        for size in 3..=6 {
            sources.push(CircuitSource::Benchmark {
                name: name.into(),
                size: Some(size),
            });
        }
    }
    for name in ["adder", "multiplier"] {
        sources.push(CircuitSource::Benchmark {
            name: name.into(),
            size: None,
        });
    }
    sources
}

/// Share of jobs drawn from the grid of named circuits; the rest are
/// random circuits. Fixed, so every stretch of a run sees the same mix.
pub const GRID_SHARE: f64 = 0.3;

/// The grid's option axes: `routing_paths` 2..=8 × `factories` 1..=4 ×
/// router lookahead on/off × redundant-move elimination on/off.
fn grid_options() -> Vec<CompilerOptions> {
    let mut out = Vec::new();
    for r in 2..=8 {
        for f in 1..=4 {
            for lookahead in [true, false] {
                for eliminate in [true, false] {
                    out.push(
                        CompilerOptions::default()
                            .routing_paths(r)
                            .factories(f)
                            .lookahead(lookahead)
                            .eliminate_redundant_moves(eliminate),
                    );
                }
            }
        }
    }
    out
}

/// Distinct compile jobs for one seed, in a seeded order: each job is a
/// grid entry (named circuit × options) with odds [`GRID_SHARE`], or else
/// a seeded random Clifford+T circuit sent as inline QASM. No two jobs are
/// equal, so each is new to a server the first time it is sent.
pub struct JobSource {
    seed: u64,
    rng: Rng,
    grid: Vec<(CircuitSource, CompilerOptions)>,
    next: usize,
}

impl JobSource {
    pub fn new(seed: u64) -> Self {
        // Stratified order: every run of 14 consecutive grid entries holds
        // each named circuit once, so the mix of circuit sizes a run sees
        // does not depend on the seed; only options and order do.
        let mut rng = Rng::new(seed, 2);
        let sources = grid_sources();
        let per_source: Vec<Vec<CompilerOptions>> = sources
            .iter()
            .map(|_| {
                let mut opts = grid_options();
                rng.shuffle(&mut opts);
                opts
            })
            .collect();
        let mut grid = Vec::new();
        for round in 0..grid_options().len() {
            let mut block: Vec<(CircuitSource, CompilerOptions)> = sources
                .iter()
                .zip(&per_source)
                .map(|(source, opts)| (source.clone(), opts[round].clone()))
                .collect();
            rng.shuffle(&mut block);
            grid.extend(block);
        }
        grid.reverse();
        JobSource {
            seed,
            rng: Rng::new(seed, 6),
            grid,
            next: 0,
        }
    }

    /// The next job.
    pub fn next_job(&mut self) -> Job {
        let j = self.next;
        self.next += 1;
        let from_grid = self.rng.unit() < GRID_SHARE;
        let (source, opts) = match if from_grid { self.grid.pop() } else { None } {
            Some(entry) => entry,
            None => {
                let mut rng = Rng::new(self.seed, 1000 + j as u64);
                let n = 5 + rng.below(8) as u32;
                let gates = 40 + rng.below(121) as usize;
                let circuit = ftqc::benchmarks::random_clifford_t(n, gates, rng.next_u64());
                let opts = CompilerOptions::default()
                    .routing_paths(2 + rng.below(7) as u32)
                    .factories(1 + rng.below(4) as u32);
                (
                    CircuitSource::QasmInline {
                        qasm: write_qasm(&circuit),
                    },
                    opts,
                )
            }
        };
        CompileJob::new(format!("j{j}"), source, opts)
    }
}

/// The first `count` jobs of [`JobSource`] for `seed`.
pub fn pool(seed: u64, count: usize) -> Vec<Job> {
    let mut source = JobSource::new(seed);
    (0..count).map(|_| source.next_job()).collect()
}

/// The metrics an in-process compile of `job` produces.
///
/// # Errors
///
/// The resolution or compile error, as text.
pub fn reference_metrics(job: &Job) -> Result<Metrics, String> {
    let circuit = ftqc::service::resolve::resolve_source_remote(&job.source)?;
    Compiler::new(job.options.clone())
        .compile(&circuit)
        .map(|p| *p.metrics())
        .map_err(|e| e.to_string())
}

/// Reference metrics for the given job indices, computed on up to two
/// threads (outside every timed section).
pub fn reference_all(
    jobs: &[Job],
    indices: impl IntoIterator<Item = usize>,
) -> BTreeMap<usize, Result<Metrics, String>> {
    let todo: Vec<usize> = {
        let mut v: Vec<usize> = indices.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let out = Mutex::new(BTreeMap::new());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let threads = std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(2);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(&j) = todo.get(k) else { break };
                let m = reference_metrics(&jobs[j]);
                out.lock().expect("reference map poisoned").insert(j, m);
            });
        }
    });
    out.into_inner().expect("reference map poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftqc::service::ToJson;

    #[test]
    fn pools_repeat_per_seed_and_hold_distinct_jobs() {
        let render = |seed| {
            pool(seed, 60)
                .iter()
                .map(|j| {
                    let mut doc = j.to_json().render();
                    doc.replace_range(..doc.find(",").unwrap_or(0), "");
                    doc
                })
                .collect::<Vec<_>>()
        };
        let a = render(7);
        assert_eq!(a, render(7));
        assert_ne!(a, render(8));
        let mut distinct = a.clone();
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), a.len());
    }
}

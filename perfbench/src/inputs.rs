//! Everything a run feeds the program, generated from seeds — the graph
//! and the update stream from the workload's structure seed, the query
//! operands from the run's — plus the truth mirror every answer is
//! checked against.

use amd_graph::generators::datasets::DatasetKind;
use amd_sparse::{ops, CooMatrix, CsrMatrix, DenseMatrix};
use amd_stream::Update;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// The graph of a workload: integer-valued (0/1 adjacency), so every
/// answer of the integer operands below is exact in f64 and can be
/// compared bit for bit.
pub fn graph(kind: DatasetKind, n: u32, seed: u64) -> CsrMatrix<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0067_7261_7068); // "graph"
    kind.generate(n, &mut rng).to_adjacency()
}

/// Query operands: columns of small integers in `-5..=5`, eight per
/// 64-bit draw (`byte % 11`; the slight skew toward low values does not
/// matter to an operand).
pub struct Operands {
    rng: ChaCha8Rng,
    n: u32,
}

impl Operands {
    pub fn new(n: u32, seed: u64) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x006f_7065_7261_6e64), // "operand"
            n,
        }
    }

    pub fn next(&mut self) -> Vec<f64> {
        let mut x = Vec::with_capacity(self.n as usize + 7);
        while x.len() < self.n as usize {
            let bytes = self.rng.next_u64().to_le_bytes();
            x.extend(bytes.iter().map(|b| (b % 11) as f64 - 5.0));
        }
        x.truncate(self.n as usize);
        x
    }
}

/// Side by side as the columns of an `n × k` operand.
pub fn columns<V: AsRef<[f64]>>(n: u32, xs: &[V]) -> DenseMatrix<f64> {
    DenseMatrix::from_fn(n, xs.len() as u32, |r, c| {
        xs[c as usize].as_ref()[r as usize]
    })
}

/// The CLI `stream` mutation shape: inserts, re-weightings and removals
/// in rotation, drawn from a window of `n/50` vertices that slides by
/// half its width every 64 steps. Real update streams are localized, and
/// locality is what lets a refresh splice instead of re-decomposing.
pub struct UpdateStream {
    rng: ChaCha8Rng,
    n: u32,
    window: u32,
    step: u64,
}

impl UpdateStream {
    pub fn new(n: u32, seed: u64) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x7570_6461_7465), // "update"
            n,
            window: (n / 50).clamp(8.min(n), n),
            step: 0,
        }
    }

    /// The next update, as the one or two calls of its symmetric pair
    /// (one for a diagonal entry).
    pub fn next(&mut self) -> Vec<Update> {
        let (n, w, step) = (self.n, self.window, self.step);
        self.step += 1;
        let start = ((step / 64) * (w as u64 / 2) % n as u64) as u32;
        let u = (start + self.rng.gen_range(0..w)) % n;
        let v = (start + self.rng.gen_range(0..w)) % n;
        let update = match step % 3 {
            0 => Update::Add {
                row: u,
                col: v,
                delta: 1.0 + (step % 4) as f64,
            },
            1 => Update::Set {
                row: u,
                col: v,
                value: (step % 5) as f64,
            },
            _ => Update::Set {
                row: u,
                col: v,
                value: 0.0,
            },
        };
        let pair = update.sym_pair();
        if u == v {
            vec![pair[0]]
        } else {
            pair.to_vec()
        }
    }
}

/// What a tenant's matrix should be: its base plus every update applied
/// so far, kept as the current value of each touched entry and
/// materialized only when an answer is checked.
pub struct Truth {
    base: CsrMatrix<f64>,
    touched: BTreeMap<(u32, u32), f64>,
}

impl Truth {
    pub fn new(base: CsrMatrix<f64>) -> Self {
        Self {
            base,
            touched: BTreeMap::new(),
        }
    }

    pub fn apply(&mut self, update: Update) {
        let (r, c) = update.position();
        let base = &self.base;
        let value = self.touched.entry((r, c)).or_insert_with(|| base.get(r, c));
        *value = match update {
            Update::Add { delta, .. } => *value + delta,
            Update::Set { value, .. } => value,
        };
    }

    /// Nonzero difference from the base.
    pub fn delta(&self) -> CsrMatrix<f64> {
        let n = self.base.rows();
        let mut coo = CooMatrix::new(n, n);
        for (&(r, c), &v) in &self.touched {
            let d = v - self.base.get(r, c);
            if d != 0.0 {
                coo.push(r, c, d).expect("touched entries are in bounds");
            }
        }
        coo.to_csr()
    }

    /// Vertices incident to a changed entry.
    pub fn touched_vertices(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.touched.keys().flat_map(|&(r, c)| [r, c]).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    pub fn matrix(&self) -> CsrMatrix<f64> {
        if self.touched.is_empty() {
            return self.base.clone();
        }
        ops::apply_delta(&self.base, &self.delta()).expect("delta has the base's shape")
    }
}

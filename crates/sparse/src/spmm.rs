//! Sparse-times-dense multiplication kernels (CSRMM).
//!
//! These are the local, per-rank kernels of the paper's distributed
//! algorithms — the role played by cuSPARSE CSRMM in the original
//! evaluation. Every multiply in the crate, including the fused level
//! kernels of [`crate::kernel`], runs one register-blocked micro-kernel:
//! one output row at a time, in column blocks of 8, then 4, then 1, each
//! block's accumulator a fixed-size array the compiler keeps in
//! registers. The parallel variant splits over output rows on
//! the shared `amd-exec` pool, which is the natural decomposition for
//! CSR × row-major dense.
//!
//! # Exactness
//!
//! Each output element sees the products of its row's nonzeros in CSR
//! order, whatever the block width, so two summation contracts hold bit
//! for bit: [`spmm`] and [`spmm_acc`] start from `y` and add each product
//! in turn; the fused level kernels start from `+0.0` and add the
//! finished sum to `y` once.

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::{SparseError, SparseResult};
use crate::scalar::{Dtype, Scalar};

/// Output rows per pool task in [`spmm_parallel`].
const ROWS_PER_TASK: usize = 64;

/// How [`csr_row`] combines a row's products with the output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowSum {
    /// `out = ((out + p₀) + p₁) + …`: the contract of [`spmm_acc`].
    Into,
    /// `out = out + ((+0.0 + p₀) + p₁ + …)`: the contract of the fused
    /// level kernels, whose reference runs the level SpMM into zeros and
    /// adds the result to `y` once.
    Fresh,
}

/// The CSR × dense micro-kernel: one output row
/// `out[j] ⊕= Σ prod(vals[i], x[xrow(cols[i])][j])`, combined per `sum`.
///
/// `x` is the flat row-major operand with `out.len()` columns and `xrow`
/// maps a column index of the sparse row to its operand row. Columns run
/// in blocks of 8, then 4, then 1; within a block the nonzeros are added
/// in CSR order, so the per-element operation sequence does not depend
/// on the block width. An empty row leaves `out` untouched (not even
/// rewritten, so untouched zero pages of a fresh output stay unmapped).
#[inline(always)]
pub(crate) fn csr_row<T: Scalar>(
    cols: &[u32],
    vals: &[T],
    x: &[T],
    xrow: impl Fn(u32) -> usize + Copy,
    out: &mut [T],
    sum: RowSum,
    prod: impl Fn(T, T) -> T + Copy,
) {
    if cols.is_empty() {
        return;
    }
    let k = out.len();
    if k == 1 {
        // A plain running sum.
        block::<T, 1>(cols, vals, x, 1, 0, xrow, out, sum, prod);
        return;
    }
    let mut j = 0;
    while j + 8 <= k {
        block::<T, 8>(cols, vals, x, k, j, xrow, out, sum, prod);
        j += 8;
    }
    if j + 4 <= k {
        block::<T, 4>(cols, vals, x, k, j, xrow, out, sum, prod);
        j += 4;
    }
    while j < k {
        block::<T, 1>(cols, vals, x, k, j, xrow, out, sum, prod);
        j += 1;
    }
}

/// Columns `j0..j0 + W` of [`csr_row`], accumulated in a `[T; W]`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn block<T: Scalar, const W: usize>(
    cols: &[u32],
    vals: &[T],
    x: &[T],
    k: usize,
    j0: usize,
    xrow: impl Fn(u32) -> usize,
    out: &mut [T],
    sum: RowSum,
    prod: impl Fn(T, T) -> T,
) {
    let out: &mut [T; W] = (&mut out[j0..j0 + W]).try_into().expect("W-wide slice");
    let mut acc = match sum {
        RowSum::Into => *out,
        RowSum::Fresh => [T::ZERO; W],
    };
    for (&c, &v) in cols.iter().zip(vals) {
        let base = xrow(c) * k + j0;
        let xr: &[T; W] = x[base..base + W].try_into().expect("W-wide slice");
        for i in 0..W {
            acc[i] += prod(v, xr[i]);
        }
    }
    match sum {
        RowSum::Into => *out = acc,
        RowSum::Fresh => {
            for i in 0..W {
                out[i] += acc[i];
            }
        }
    }
}

/// `y[r0 + i] += Σ prod(A[r0 + i, c], x[c])` for every row of `y`, a
/// block of whole output rows; a zero-width `x` is a no-op.
#[inline(always)]
fn spmm_rows<T: Scalar>(
    a: &CsrMatrix<T>,
    x: &DenseMatrix<T>,
    r0: usize,
    y: &mut [T],
    prod: impl Fn(T, T) -> T + Copy,
) {
    let k = x.cols() as usize;
    if k == 0 {
        return;
    }
    let (indices, values) = (a.indices(), a.values());
    for (w, out) in a.indptr()[r0..].windows(2).zip(y.chunks_exact_mut(k)) {
        let (s, e) = (w[0], w[1]);
        csr_row(
            &indices[s..e],
            &values[s..e],
            x.data(),
            |c| c as usize,
            out,
            RowSum::Into,
            prod,
        );
    }
}

/// Serial `Y = A · X` for CSR `A` and dense `X`.
pub fn spmm<T: Scalar>(a: &CsrMatrix<T>, x: &DenseMatrix<T>) -> SparseResult<DenseMatrix<T>> {
    check_shapes(a, x)?;
    let mut y = DenseMatrix::zeros(a.rows(), x.cols());
    spmm_rows(a, x, 0, y.data_mut(), |v, xv| v * xv);
    Ok(y)
}

/// Serial `Y += A · X` into a pre-allocated output (no allocation).
pub fn spmm_acc<T: Scalar>(
    a: &CsrMatrix<T>,
    x: &DenseMatrix<T>,
    y: &mut DenseMatrix<T>,
) -> SparseResult<()> {
    check_acc_shapes(a, x, y)?;
    spmm_rows(a, x, 0, y.data_mut(), |v, xv| v * xv);
    Ok(())
}

/// Parallel `Y = A · X` on the shared `amd-exec` pool, splitting work
/// over blocks of output rows. Bit-identical to [`spmm`]: each row is
/// computed by one task with the same operation sequence.
pub fn spmm_parallel<T: Scalar>(
    a: &CsrMatrix<T>,
    x: &DenseMatrix<T>,
) -> SparseResult<DenseMatrix<T>> {
    check_shapes(a, x)?;
    let k = x.cols() as usize;
    let mut y = DenseMatrix::zeros(a.rows(), x.cols());
    if k > 0 {
        let tasks: Vec<&mut [T]> = y.data_mut().chunks_mut(ROWS_PER_TASK * k).collect();
        amd_exec::global().for_each_take(tasks, |i, out| {
            spmm_rows(a, x, i * ROWS_PER_TASK, out, |v, xv| v * xv)
        });
    }
    Ok(y)
}

/// Serial `Y += A · X` at a selectable serving precision, over `f64`
/// containers.
///
/// `Dtype::F64` is exactly [`spmm_acc`]. `Dtype::F32` emulates the
/// half-bandwidth kernel of an f32 serving rank: matrix values and gathered
/// `x` entries are narrowed to `f32` and multiplied in `f32`, while the
/// running sums stay `f64` — which is the wire format the simulated machine
/// transports between ranks, so cross-rank reduction order and precision
/// are unchanged. Each emulated product therefore carries relative error at
/// most `(1 + u)³ − 1` with `u = 2⁻²⁴` (narrow `a`, narrow `x`, round the
/// product); see the error-bound helpers in `arrow-core` for the summed
/// per-entry bound.
pub fn spmm_acc_dtype(
    a: &CsrMatrix<f64>,
    x: &DenseMatrix<f64>,
    y: &mut DenseMatrix<f64>,
    dtype: Dtype,
) -> SparseResult<()> {
    check_acc_shapes(a, x, y)?;
    match dtype {
        Dtype::F64 => spmm_rows(a, x, 0, y.data_mut(), |v, xv| v * xv),
        Dtype::F32 => spmm_rows(a, x, 0, y.data_mut(), |v, xv| (v as f32 * xv as f32) as f64),
    }
    Ok(())
}

/// Allocating variant of [`spmm_acc_dtype`]: `Y = A · X` at `dtype`.
pub fn spmm_dtype(
    a: &CsrMatrix<f64>,
    x: &DenseMatrix<f64>,
    dtype: Dtype,
) -> SparseResult<DenseMatrix<f64>> {
    let mut y = DenseMatrix::zeros(a.rows(), x.cols());
    spmm_acc_dtype(a, x, &mut y, dtype)?;
    Ok(y)
}

/// Flop count of `A · X`: 2 · nnz(A) · k, the quantity charged to the
/// simulated compute clock by the distributed algorithms.
pub fn spmm_flops<T: Scalar>(a: &CsrMatrix<T>, k: u32) -> f64 {
    2.0 * a.nnz() as f64 * k as f64
}

/// Dense reference multiply used by tests: `O(n² k)`, only for tiny inputs.
pub fn spmm_dense_reference<T: Scalar>(
    a: &CsrMatrix<T>,
    x: &DenseMatrix<T>,
) -> SparseResult<DenseMatrix<T>> {
    check_shapes(a, x)?;
    let mut y = DenseMatrix::zeros(a.rows(), x.cols());
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            let v = a.get(r, c);
            if v != T::ZERO {
                for j in 0..x.cols() {
                    let cur = y.get(r, j);
                    y.set(r, j, cur + v * x.get(c, j));
                }
            }
        }
    }
    Ok(y)
}

fn check_shapes<T: Scalar>(a: &CsrMatrix<T>, x: &DenseMatrix<T>) -> SparseResult<()> {
    if a.cols() != x.rows() {
        return Err(SparseError::ShapeMismatch {
            left: (a.rows(), a.cols()),
            right: (x.rows(), x.cols()),
        });
    }
    Ok(())
}

fn check_acc_shapes<T: Scalar>(
    a: &CsrMatrix<T>,
    x: &DenseMatrix<T>,
    y: &DenseMatrix<T>,
) -> SparseResult<()> {
    check_shapes(a, x)?;
    if y.rows() != a.rows() || y.cols() != x.cols() {
        return Err(SparseError::ShapeMismatch {
            left: (a.rows(), x.cols()),
            right: (y.rows(), y.cols()),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn small() -> (CsrMatrix<f64>, DenseMatrix<f64>) {
        // A = [0 1; 2 3], X = [1 2; 3 4]
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0).unwrap();
        coo.push(1, 0, 2.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        let x = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        (coo.to_csr(), x)
    }

    #[test]
    fn serial_matches_hand_computation() {
        let (a, x) = small();
        let y = spmm(&a, &x).unwrap();
        // Y = [3 4; 11 16]
        assert_eq!(y.data(), &[3.0, 4.0, 11.0, 16.0]);
    }

    #[test]
    fn parallel_matches_serial() {
        let (a, x) = small();
        let ys = spmm(&a, &x).unwrap();
        let yp = spmm_parallel(&a, &x).unwrap();
        assert_eq!(ys, yp);
    }

    #[test]
    fn zero_width_rhs_gives_empty_output() {
        let (a, _) = small();
        let x = DenseMatrix::<f64>::zeros(2, 0);
        let want = DenseMatrix::<f64>::zeros(2, 0);
        assert_eq!(spmm(&a, &x).unwrap(), want);
        assert_eq!(spmm_parallel(&a, &x).unwrap(), want);
        assert_eq!(spmm_dtype(&a, &x, Dtype::F32).unwrap(), want);
    }

    #[test]
    fn dense_reference_matches() {
        let (a, x) = small();
        assert_eq!(spmm(&a, &x).unwrap(), spmm_dense_reference(&a, &x).unwrap());
    }

    #[test]
    fn accumulating_variant_adds() {
        let (a, x) = small();
        let mut y = DenseMatrix::from_fn(2, 2, |_, _| 100.0);
        spmm_acc(&a, &x, &mut y).unwrap();
        assert_eq!(y.data(), &[103.0, 104.0, 111.0, 116.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (a, _) = small();
        let bad = DenseMatrix::<f64>::zeros(3, 2);
        assert!(spmm(&a, &bad).is_err());
        let mut y = DenseMatrix::<f64>::zeros(3, 2);
        let x = DenseMatrix::<f64>::zeros(2, 2);
        assert!(spmm_acc(&a, &x, &mut y).is_err());
    }

    #[test]
    fn rectangular_spmm() {
        // 2x3 sparse times 3x1 dense
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 2, 1.0).unwrap();
        coo.push(1, 0, 2.0).unwrap();
        let a = coo.to_csr();
        let x = DenseMatrix::from_vec(3, 1, vec![5.0, 6.0, 7.0]).unwrap();
        let y = spmm(&a, &x).unwrap();
        assert_eq!(y.data(), &[7.0, 10.0]);
    }

    #[test]
    fn empty_matrix_gives_zero_output() {
        let a = CsrMatrix::<f64>::zeros(4, 4);
        let x = DenseMatrix::from_fn(4, 3, |r, c| (r + c) as f64);
        let y = spmm(&a, &x).unwrap();
        assert_eq!(y.frobenius_norm(), 0.0);
    }

    #[test]
    fn flop_count() {
        let (a, _) = small();
        assert_eq!(spmm_flops(&a, 2), 2.0 * 3.0 * 2.0);
    }

    #[test]
    fn dtype_f64_is_exact_spmm() {
        let (a, x) = small();
        assert_eq!(
            spmm_dtype(&a, &x, Dtype::F64).unwrap(),
            spmm(&a, &x).unwrap()
        );
    }

    #[test]
    fn dtype_f32_exact_on_small_integers() {
        // Integer data well inside f32's 24-bit mantissa is exact.
        let (a, x) = small();
        assert_eq!(
            spmm_dtype(&a, &x, Dtype::F32).unwrap(),
            spmm(&a, &x).unwrap()
        );
    }

    #[test]
    fn dtype_f32_narrows_products() {
        // 0.1 is not representable in f32, so the emulated product must
        // differ from the f64 one — and match the hand-narrowed value.
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 0.1).unwrap();
        let a = coo.to_csr();
        let x = DenseMatrix::from_vec(1, 1, vec![0.3]).unwrap();
        let y = spmm_dtype(&a, &x, Dtype::F32).unwrap();
        assert_eq!(y.get(0, 0), (0.1f32 * 0.3f32) as f64);
        assert_ne!(y.get(0, 0), 0.1 * 0.3);
    }

    #[test]
    fn dtype_shape_mismatch_rejected() {
        let (a, _) = small();
        let bad = DenseMatrix::<f64>::zeros(3, 2);
        assert!(spmm_dtype(&a, &bad, Dtype::F32).is_err());
        let x = DenseMatrix::<f64>::zeros(2, 2);
        let mut y = DenseMatrix::<f64>::zeros(3, 2);
        assert!(spmm_acc_dtype(&a, &x, &mut y, Dtype::F32).is_err());
    }
}

//! The benchmark's own serial reference multiply. It checks every served
//! answer, and, timed on the checking thread's CPU clock, it is also the
//! host-speed probe the end-to-end times are scaled by.
//!
//! The probe is the benchmark's code on the run's own inputs, so no
//! change to the program moves it; only the host does. On a shared VM the
//! same binary runs 20% faster or slower from one minute to the next
//! (neighbours' cache and memory traffic), and the probe, interleaved
//! with the flushes, slows down with them. The thread CPU clock leaves
//! out the time other threads of this process (the stream's refresh
//! worker) hold the one CPU the run is pinned to.

use amd_sparse::CsrMatrix;
use std::time::Duration;

/// `A^iters · X` for the columns `xs`, row-major (`n × xs.len()`).
/// Integer data keeps every product and sum exact, so the result equals
/// any other correct multiply bit for bit.
pub fn iterated(a: &CsrMatrix<f64>, xs: &[&[f64]], iters: u32) -> Vec<f64> {
    let (n, k) = (a.rows() as usize, xs.len());
    let mut x = vec![0.0; n * k];
    for (j, col) in xs.iter().enumerate() {
        for (r, &v) in col.iter().enumerate().take(n) {
            x[r * k + j] = v;
        }
    }
    let mut y = vec![0.0; n * k];
    let (indptr, indices, values) = (a.indptr(), a.indices(), a.values());
    for _ in 0..iters {
        for (r, out) in y.chunks_exact_mut(k.max(1)).enumerate() {
            out.fill(0.0);
            for p in indptr[r]..indptr[r + 1] {
                let c = indices[p] as usize;
                let row = &x[c * k..(c + 1) * k];
                for (o, xv) in out.iter_mut().zip(row) {
                    *o += values[p] * xv;
                }
            }
        }
        std::mem::swap(&mut x, &mut y);
    }
    x
}

/// [`iterated`], and the thread CPU µs it took per column.
pub fn timed(a: &CsrMatrix<f64>, xs: &[&[f64]], iters: u32) -> (Vec<f64>, f64) {
    let start = thread_cpu();
    let y = iterated(a, xs, iters);
    let cpu = thread_cpu() - start;
    (y, cpu.as_secs_f64() * 1e6 / xs.len().max(1) as f64)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const THREAD_CPUTIME: i32 = 3;

/// CPU time the calling thread has used.
pub fn thread_cpu() -> Duration {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec; the clock id exists on
    // every Linux the benchmark runs on (it reads /proc as well).
    let rc = unsafe { clock_gettime(THREAD_CPUTIME, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    Duration::new(t.tv_sec as u64, t.tv_nsec as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amd_sparse::CooMatrix;

    #[test]
    fn matches_the_program_reference() {
        let mut coo = CooMatrix::new(4, 4);
        for (r, c, v) in [
            (0, 1, 1.0),
            (1, 0, 2.0),
            (1, 3, 1.0),
            (2, 2, 3.0),
            (3, 0, 1.0),
        ] {
            coo.push(r, c, v).unwrap();
        }
        let a = coo.to_csr();
        let cols = [vec![1.0, -2.0, 3.0, 4.0], vec![0.0, 5.0, -1.0, 2.0]];
        let xs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let got = iterated(&a, &xs, 2);
        let want =
            amd_spmm::reference::iterated_spmm(&a, &crate::inputs::columns(4, &cols), 2).unwrap();
        for r in 0..4 {
            for j in 0..2 {
                assert_eq!(got[r * 2 + j], want.get(r as u32, j as u32));
            }
        }
    }

    #[test]
    fn thread_clock_advances_with_work() {
        let t = thread_cpu();
        let mut s = 0u64;
        for i in 0..2_000_000u64 {
            s = s.wrapping_add(std::hint::black_box(i * i));
        }
        std::hint::black_box(s);
        assert!(thread_cpu() > t);
    }
}

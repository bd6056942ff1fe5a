"""Simple-C kernel sources — the *inputs* to the AUGEM pipeline.

These are the paper's Figs. 12 (GEMM), 15 (GEMV), 16 (AXPY), 17 (DOT),
written in the C subset the mini-POET parser accepts.  The blocking drivers
in :mod:`repro.blas` call the *generated* kernels on packed panels, so the
index expressions here describe packed-panel layouts:

- ``gemm`` (paper Fig. 12 layout, drives the *Vdup* vectorization method):
  A packed Kc x Mc with ``A[l*Mc + i]`` (row of Mc contiguous per l),
  B packed Nc x Kc with ``B[j*Kc + l]`` (column per j), C row chunk with
  leading dimension LDC.
- ``gemm_shuf`` (B packed j-fastest, drives the *Shuf* method): B packed
  Kc x Nc with ``B[l*Nc + j]`` so consecutive j elements are contiguous
  and can be loaded with a single vector load then shuffled.
- ``gemv`` (column-sweep, y += A(:,i) * x[i]): A column-major with leading
  dimension LDA.
- ``ger`` (rank-1 update, A(i,:) += x[i] * y): A row-major with leading
  dimension LDA — the GEMV column sweep with the roles of the matrix and
  the output vector swapped, so it maps onto the same mvUnrolledCOMP
  template (one broadcast of ``X[i]`` per row).
- ``axpy`` / ``dot``: classic Level-1 loops.

All kernels use unit increments and double precision (the paper evaluates
DGEMM/DGEMV/DAXPY/DDOT); alpha/beta handling lives in the drivers.
"""

from __future__ import annotations

GEMM_SIMPLE_C = """
void dgemm_kernel(long Mc, long Nc, long Kc, double* A, double* B, double* C, long LDC) {
    long i;
    long j;
    long l;
    for (j = 0; j < Nc; j += 1) {
        for (i = 0; i < Mc; i += 1) {
            double res = 0.0;
            for (l = 0; l < Kc; l += 1) {
                res += A[l * Mc + i] * B[j * Kc + l];
            }
            C[j * LDC + i] += res;
        }
    }
}
"""

GEMM_SHUF_SIMPLE_C = """
void dgemm_kernel(long Mc, long Nc, long Kc, double* A, double* B, double* C, long LDC) {
    long i;
    long j;
    long l;
    for (j = 0; j < Nc; j += 1) {
        for (i = 0; i < Mc; i += 1) {
            double res = 0.0;
            for (l = 0; l < Kc; l += 1) {
                res += A[l * Mc + i] * B[l * Nc + j];
            }
            C[j * LDC + i] += res;
        }
    }
}
"""

GEMV_SIMPLE_C = """
void dgemv_kernel(long M, long N, double* A, long LDA, double* X, double* Y) {
    long i;
    long j;
    for (i = 0; i < N; i += 1) {
        double scal = X[i];
        for (j = 0; j < M; j += 1) {
            Y[j] += A[i * LDA + j] * scal;
        }
    }
}
"""

#: dot-form GEMV (y[i] += row_i . x): the non-transposed variant for
#: row-major matrices — each row reduction uses the DOT machinery
#: (paired mmUnrolledCOMP + sumREDUCE), the update is an mmSTORE.
GEMV_N_SIMPLE_C = """
void dgemv_n_kernel(long M, long N, double* A, long LDA, double* X, double* Y) {
    long i;
    long j;
    for (i = 0; i < M; i += 1) {
        double res = 0.0;
        for (j = 0; j < N; j += 1) {
            res += A[i * LDA + j] * X[j];
        }
        Y[i] += res;
    }
}
"""

#: DGER — listed among the routines built on the generated kernels
#: (paper §4.4, Table 6).  The whole rank-1 update is one kernel; the
#: driver folds alpha into X.
GER_SIMPLE_C = """
void dger_kernel(long M, long N, double* X, double* Y, double* A, long LDA) {
    long i;
    long j;
    for (i = 0; i < M; i += 1) {
        double scal = X[i];
        for (j = 0; j < N; j += 1) {
            A[i * LDA + j] += Y[j] * scal;
        }
    }
}
"""

AXPY_SIMPLE_C = """
void daxpy_kernel(long N, double alpha, double* X, double* Y) {
    long i;
    for (i = 0; i < N; i += 1) {
        Y[i] += X[i] * alpha;
    }
}
"""

#: DSCAL — not one of the paper's four kernels; included to demonstrate
#: §7's "extending our template-based approach": the mvSCALE template
#: (Load-Mul-Store) was added exactly the way the paper prescribes.
SCAL_SIMPLE_C = """
void dscal_kernel(long N, double alpha, double* X) {
    long i;
    for (i = 0; i < N; i += 1) {
        X[i] = X[i] * alpha;
    }
}
"""

DOT_SIMPLE_C = """
double ddot_kernel(long N, double* X, double* Y) {
    long i;
    double res = 0.0;
    for (i = 0; i < N; i += 1) {
        res += X[i] * Y[i];
    }
    return res;
}
"""

#: kernel name -> (source, entry function name)
KERNEL_SOURCES = {
    "gemm": (GEMM_SIMPLE_C, "dgemm_kernel"),
    "gemm_shuf": (GEMM_SHUF_SIMPLE_C, "dgemm_kernel"),
    "gemv": (GEMV_SIMPLE_C, "dgemv_kernel"),
    "gemv_n": (GEMV_N_SIMPLE_C, "dgemv_n_kernel"),
    "ger": (GER_SIMPLE_C, "dger_kernel"),
    "axpy": (AXPY_SIMPLE_C, "daxpy_kernel"),
    "dot": (DOT_SIMPLE_C, "ddot_kernel"),
    "scal": (SCAL_SIMPLE_C, "dscal_kernel"),
}

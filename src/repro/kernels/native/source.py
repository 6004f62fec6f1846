"""C source of the native kernel extension.

The extension is deliberately a thin, allocation-free layer: every function
operates on caller-provided NumPy buffers with the dtypes
:class:`~repro.sparse.csr.CSRMatrix` guarantees at construction —
``float64`` data, ``int32`` indices/indptr — plus ``int64`` row-selection
and segment-length arrays (``gather_rows`` returns ``int64`` lengths so
cumulative sums cannot overflow).

Objectives are dispatched by integer id (see ``OBJECTIVE_IDS``); the scalar
loss derivatives mirror the Python implementations branch for branch,
including the numerically stable logistic sigmoid/log1pexp forms.  The
separable regulariser is passed as ``(has_reg, r1, r2)`` covering none /
L1 / L2 / elastic-net uniformly: ``grad_j = r1 * sign(w_j) + r2 * w_j``.

The two fused primitives encode the engine semantics exactly:

* ``repro_run_sample_block`` — strictly sequential SGD steps; step ``t``
  reads every earlier step's writes (the per-sample tier).
* ``repro_run_frozen_block`` — a frozen-margin macro-step; all margins and
  regulariser gradients are evaluated at the block-start iterate, then the
  per-entry deltas are scattered in gather order (the batched tier).
"""

from __future__ import annotations

#: Integer dispatch ids for the objectives the extension understands.
OBJECTIVE_IDS = {
    "logistic": 1,
    "hinge": 2,
    "squared_hinge": 3,
    "least_squares": 4,
}

CDEF = """
void repro_matvec(int64_t n_rows, const int32_t *indptr, const int32_t *indices,
                  const double *data, const double *w, double *out);
void repro_margins_rows(int64_t n_sel, const int64_t *rows, const int32_t *indptr,
                        const int32_t *indices, const double *data,
                        const double *w, double *out);
void repro_segment_margins(int64_t n_seg, const int64_t *lengths, const int32_t *idx,
                           const double *val, const double *w, double *out);
void repro_scatter_add(int64_t nnz, const int32_t *idx, const double *weights,
                       double *w);
void repro_losses(int obj_id, int64_t n, const double *margins, const double *y,
                  double *out);
int64_t repro_sample_update(int obj_id, int has_reg, double r1, double r2,
                            const int32_t *indptr, const int32_t *indices,
                            const double *data, int64_t i, double y_i,
                            double scale, double *w);
int64_t repro_run_sample_block(int obj_id, int has_reg, double r1, double r2,
                               const int32_t *indptr, const int32_t *indices,
                               const double *data, const double *y,
                               int64_t n_steps, const int64_t *rows,
                               const double *scales, double *w);
int64_t repro_run_frozen_block(int obj_id, int has_reg, double r1, double r2,
                               int64_t n_seg, const int64_t *lengths,
                               const int32_t *idx, const double *val,
                               const double *y_rows, const double *scales,
                               double *margins_buf, double *entry_buf, double *w);
"""

SOURCE = """
#include <stdint.h>
#include <math.h>

/* Scalar loss derivative w.r.t. the margin; ids: 1=logistic, 2=hinge,
   3=squared_hinge, 4=least_squares.  Branches mirror the Python
   objectives exactly (stable sigmoid split at z = 0). */
static double repro_loss_deriv(int obj_id, double m, double y)
{
    switch (obj_id) {
    case 1: { /* -y * sigmoid(-y * m) */
        double z = -y * m;
        double s;
        if (z >= 0.0) {
            s = 1.0 / (1.0 + exp(-z));
        } else {
            double e = exp(z);
            s = e / (1.0 + e);
        }
        return -y * s;
    }
    case 2:
        return (1.0 - y * m > 0.0) ? -y : 0.0;
    case 3: {
        double slack = 1.0 - y * m;
        return (slack <= 0.0) ? 0.0 : -2.0 * y * slack;
    }
    case 4:
        return m - y;
    }
    return 0.0;
}

/* The hinge clamps test slack <= 0 so that a NaN slack stays NaN, as
   np.maximum(0, slack) keeps it in the Python objectives. */
static double repro_loss_value(int obj_id, double m, double y)
{
    switch (obj_id) {
    case 1: { /* log1pexp(-y * m) = max(z, 0) + log1p(exp(-|z|)) */
        double z = -y * m;
        return fmax(z, 0.0) + log1p(exp(-fabs(z)));
    }
    case 2: {
        double slack = 1.0 - y * m;
        return slack <= 0.0 ? 0.0 : slack;
    }
    case 3: {
        double slack = 1.0 - y * m;
        slack = slack <= 0.0 ? 0.0 : slack;
        return slack * slack;
    }
    case 4: {
        double r = m - y;
        return 0.5 * r * r;
    }
    }
    return 0.0;
}

/* Separable regulariser gradient at one coordinate:
   r1 * sign(w_j) + r2 * w_j, with sign(0) = 0 (the L1 subgradient
   convention of the Python regularisers).  Pure L1 has r2 = 0, and
   0 * w_j is NaN at an infinite w_j where Python adds no L2 term; for
   finite w_j the skipped term is +-0, so the sum is bit-identical. */
static double repro_reg_grad(int has_reg, double r1, double r2, double wj)
{
    if (!has_reg) return 0.0;
    double s = (double)((wj > 0.0) - (wj < 0.0));
    double g = r1 * s;
    if (r2 != 0.0) g += r2 * wj;
    return g;
}

void repro_matvec(int64_t n_rows, const int32_t *indptr, const int32_t *indices,
                  const double *data, const double *w, double *out)
{
    for (int64_t i = 0; i < n_rows; ++i) {
        double acc = 0.0;
        for (int32_t k = indptr[i]; k < indptr[i + 1]; ++k)
            acc += data[k] * w[indices[k]];
        out[i] = acc;
    }
}

void repro_margins_rows(int64_t n_sel, const int64_t *rows, const int32_t *indptr,
                        const int32_t *indices, const double *data,
                        const double *w, double *out)
{
    for (int64_t t = 0; t < n_sel; ++t) {
        int64_t i = rows[t];
        double acc = 0.0;
        for (int32_t k = indptr[i]; k < indptr[i + 1]; ++k)
            acc += data[k] * w[indices[k]];
        out[t] = acc;
    }
}

void repro_segment_margins(int64_t n_seg, const int64_t *lengths, const int32_t *idx,
                           const double *val, const double *w, double *out)
{
    int64_t pos = 0;
    for (int64_t t = 0; t < n_seg; ++t) {
        double acc = 0.0;
        int64_t len = lengths[t];
        for (int64_t k = 0; k < len; ++k)
            acc += val[pos + k] * w[idx[pos + k]];
        out[t] = acc;
        pos += len;
    }
}

void repro_scatter_add(int64_t nnz, const int32_t *idx, const double *weights,
                       double *w)
{
    for (int64_t p = 0; p < nnz; ++p)
        w[idx[p]] += weights[p];
}

void repro_losses(int obj_id, int64_t n, const double *margins, const double *y,
                  double *out)
{
    for (int64_t i = 0; i < n; ++i)
        out[i] = repro_loss_value(obj_id, margins[i], y[i]);
}

/* One fused SGD step: w += scale * (phi'(<x_i, w>) * x_i + nabla r(w)|_supp).
   Canonical CSR rows are duplicate-free, so the in-place read-modify-write
   per coordinate is exact; the regulariser reads w_j before the write. */
int64_t repro_sample_update(int obj_id, int has_reg, double r1, double r2,
                            const int32_t *indptr, const int32_t *indices,
                            const double *data, int64_t i, double y_i,
                            double scale, double *w)
{
    int32_t lo = indptr[i], hi = indptr[i + 1];
    if (lo == hi) return 0;
    double acc = 0.0;
    for (int32_t k = lo; k < hi; ++k)
        acc += data[k] * w[indices[k]];
    double coef = repro_loss_deriv(obj_id, acc, y_i);
    for (int32_t k = lo; k < hi; ++k) {
        int32_t j = indices[k];
        w[j] += scale * (coef * data[k] + repro_reg_grad(has_reg, r1, r2, w[j]));
    }
    return (int64_t)(hi - lo);
}

/* A whole schedule block of sequential per-sample steps in one call; step t
   observes every earlier step's writes.  Returns the total nnz touched. */
int64_t repro_run_sample_block(int obj_id, int has_reg, double r1, double r2,
                               const int32_t *indptr, const int32_t *indices,
                               const double *data, const double *y,
                               int64_t n_steps, const int64_t *rows,
                               const double *scales, double *w)
{
    int64_t total = 0;
    for (int64_t t = 0; t < n_steps; ++t) {
        int64_t i = rows[t];
        total += repro_sample_update(obj_id, has_reg, r1, r2, indptr, indices,
                                     data, i, y[i], scales[t], w);
    }
    return total;
}

/* Frozen-margin macro-step over already-gathered rows: phase 1 evaluates
   every margin at the block-start iterate, phase 2 computes all per-entry
   deltas (regulariser also at the block-start iterate) into the scratch
   buffer, phase 3 scatters them in gather order.  The phases must not be
   interleaved — entries may alias coordinates across segments. */
int64_t repro_run_frozen_block(int obj_id, int has_reg, double r1, double r2,
                               int64_t n_seg, const int64_t *lengths,
                               const int32_t *idx, const double *val,
                               const double *y_rows, const double *scales,
                               double *margins_buf, double *entry_buf, double *w)
{
    int64_t pos = 0;
    for (int64_t t = 0; t < n_seg; ++t) {
        double acc = 0.0;
        int64_t len = lengths[t];
        for (int64_t k = 0; k < len; ++k)
            acc += val[pos + k] * w[idx[pos + k]];
        margins_buf[t] = acc;
        pos += len;
    }
    int64_t nnz = pos;
    pos = 0;
    for (int64_t t = 0; t < n_seg; ++t) {
        double coef = repro_loss_deriv(obj_id, margins_buf[t], y_rows[t]);
        double scale = scales[t];
        int64_t len = lengths[t];
        for (int64_t k = 0; k < len; ++k) {
            int64_t p = pos + k;
            entry_buf[p] = scale * (coef * val[p]
                                    + repro_reg_grad(has_reg, r1, r2, w[idx[p]]));
        }
        pos += len;
    }
    for (int64_t p = 0; p < nnz; ++p)
        w[idx[p]] += entry_buf[p];
    return nnz;
}
"""

__all__ = ["CDEF", "SOURCE", "OBJECTIVE_IDS"]

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

``repro_run_shared_block`` is the same frozen-margin step as one process
worker runs it on the cluster's shared weights: rows come straight from
the CSR, and around the scatter it reads the fleet's logical clock, counts
conflicts against the per-coordinate write stamps and stamps what it wrote
(the process tier).
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
void repro_run_shared_block(int obj_id, int has_reg, double r1, double r2,
                            const int32_t *indptr, const int32_t *indices,
                            const double *data, const double *y,
                            int64_t n_steps, const int64_t *rows,
                            const double *scales, double *margins_buf,
                            int32_t *table, int table_bits, int32_t *uniq,
                            double *sums, double *w, int32_t wid,
                            int64_t t_read, int64_t n_workers,
                            const int64_t *progress, int32_t *last_writer,
                            int64_t *write_clock, int64_t n_ranges,
                            const int64_t *bounds, int64_t *tally_buf,
                            int64_t *range_writes, int64_t *out);
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

/* Other worker processes write w, progress and the stamps while this runs.
   The full fence keeps the clock read between the compute and the stamp
   reads, where the composable path reads it, for compiler and CPU alike. */
#if defined(__GNUC__) || defined(__clang__)
#define REPRO_FENCE() __atomic_thread_fence(__ATOMIC_SEQ_CST)
#else
#define REPRO_FENCE() ((void)0)
#endif

/* The equal coordinate range of coordinate j: the largest r < n_ranges with
   bounds[r] <= j, for non-decreasing bounds from 0 to d and 0 <= j < d. */
static int64_t repro_range_of(int64_t n_ranges, const int64_t *bounds, int64_t j)
{
    int64_t lo = 0, hi = n_ranges;
    while (hi - lo > 1) {
        int64_t mid = lo + (hi - lo) / 2;
        if (bounds[mid] <= j) lo = mid; else hi = mid;
    }
    return lo;
}

/* One process-tier worker block on the shared weights, in the composable
   path's order: every margin and entry delta at the live block-start
   iterate (rows read straight from the CSR, the regulariser after all
   margins), then t_write = sum(progress), then the conflicts (rows with a
   coordinate another worker last wrote after t_read), then the scatter,
   then the stamps: write_clock = t_write, last_writer = wid and one tally
   per entry in its coordinate range.  out = {t_write, conflicts, nnz}.

   Peers write the same hot coordinates, and every store to a line a peer
   holds moves it between their cores, so the block sums a coordinate's
   deltas first and writes each weight and stamp once: sums[s] belongs to
   coordinate uniq[s], found through an open-addressing table of
   2^table_bits slots (at least 2 nnz, all -1 on entry).  The tallies
   gather in the zeroed tally_buf and reach range_writes once, since the
   workers' tally rows share cache lines. */
void repro_run_shared_block(int obj_id, int has_reg, double r1, double r2,
                            const int32_t *indptr, const int32_t *indices,
                            const double *data, const double *y,
                            int64_t n_steps, const int64_t *rows,
                            const double *scales, double *margins_buf,
                            int32_t *table, int table_bits, int32_t *uniq,
                            double *sums, double *w, int32_t wid,
                            int64_t t_read, int64_t n_workers,
                            const int64_t *progress, int32_t *last_writer,
                            int64_t *write_clock, int64_t n_ranges,
                            const int64_t *bounds, int64_t *tally_buf,
                            int64_t *range_writes, int64_t *out)
{
    for (int64_t t = 0; t < n_steps; ++t) {
        int64_t i = rows[t];
        double acc = 0.0;
        for (int32_t k = indptr[i]; k < indptr[i + 1]; ++k)
            acc += data[k] * w[indices[k]];
        margins_buf[t] = acc;
    }
    const uint64_t mask = ((uint64_t)1 << table_bits) - 1;
    int64_t nnz = 0, n_uniq = 0;
    for (int64_t t = 0; t < n_steps; ++t) {
        int64_t i = rows[t];
        double coef = repro_loss_deriv(obj_id, margins_buf[t], y[i]);
        double scale = scales[t];
        for (int32_t k = indptr[i]; k < indptr[i + 1]; ++k, ++nnz) {
            int32_t j = indices[k];
            double delta = scale * (coef * data[k]
                                    + repro_reg_grad(has_reg, r1, r2, w[j]));
            uint64_t h = ((uint64_t)(uint32_t)j * 0x9E3779B97F4A7C15ull) >> (64 - table_bits);
            int32_t s;
            while ((s = table[h]) >= 0 && uniq[s] != j)
                h = (h + 1) & mask;
            if (s >= 0) {
                sums[s] += delta;
            } else {
                table[h] = (int32_t)n_uniq;
                uniq[n_uniq] = j;
                sums[n_uniq++] = delta;
            }
            tally_buf[repro_range_of(n_ranges, bounds, j)] += 1;
        }
    }

    REPRO_FENCE();
    const volatile int64_t *clock = progress;
    int64_t t_write = 0;
    for (int64_t k = 0; k < n_workers; ++k)
        t_write += clock[k];
    REPRO_FENCE();

    int64_t conflicts = 0;
    for (int64_t t = 0; t < n_steps; ++t) {
        int64_t i = rows[t];
        for (int32_t k = indptr[i]; k < indptr[i + 1]; ++k) {
            int32_t j = indices[k];
            int32_t writer = last_writer[j];
            if (writer >= 0 && writer != wid && write_clock[j] > t_read) {
                ++conflicts;
                break;
            }
        }
    }

    for (int64_t u = 0; u < n_uniq; ++u)
        w[uniq[u]] += sums[u];
    for (int64_t u = 0; u < n_uniq; ++u) {
        write_clock[uniq[u]] = t_write;
        last_writer[uniq[u]] = wid;
    }
    for (int64_t r = 0; r < n_ranges; ++r)
        range_writes[r] += tally_buf[r];
    out[0] = t_write;
    out[1] = conflicts;
    out[2] = nnz;
}
"""

__all__ = ["CDEF", "SOURCE", "OBJECTIVE_IDS"]

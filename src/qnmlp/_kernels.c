/* Compiled kernels of qnmlp, built and loaded at first use by mlp._kernels().
 *
 * Every entry is computed as written, in IEEE double arithmetic: the build flags
 * forbid fused multiply-add (-ffp-contract=off) and reassociation (-fno-fast-math),
 * and entries are independent (each of hidden_delta's column sums runs down its own
 * column), so vectorizing a loop changes no bit. rank_two_update adds products to H, and
 * hidden_delta adds each delta, a product, to its column's running sum; -ffp-contract=off
 * keeps those additions unfused. The file is one build, so the update kernel's canary
 * checks that flag for all of it.
 */
#include <math.h>
#include <stddef.h>

/* h[i*n + j] += u[i]*s[j] + s[i]*u[j] for i, j < n, where h is C-contiguous n x n,
 * u = us and s = us + n; us must not overlap h. */
void rank_two_update(double *restrict h, ptrdiff_t n, const double *restrict us)
{
    const double *u = us, *s = us + n;
    for (ptrdiff_t i = 0; i < n; i++) {
        double *row = h + i * n;
        const double ui = u[i], si = s[i];
        for (ptrdiff_t j = 0; j < n; j++)
            row[j] += ui * s[j] + si * u[j];
    }
}

/* The sigmoid's first half over a C-contiguous rows x cols z and bias b of length
 * cols: z[i, j] += b[j], then t[i, j] = -|z[i, j]|, the argument of exp. */
void sigmoid_begin(double *restrict z, double *restrict t, const double *restrict b,
                   ptrdiff_t rows, ptrdiff_t cols)
{
    for (ptrdiff_t i = 0; i < rows; i++) {
        double *zi = z + i * cols, *ti = t + i * cols;
        for (ptrdiff_t j = 0; j < cols; j++) {
            zi[j] += b[j];
            ti[j] = -fabs(zi[j]);
        }
    }
}

/* The sigmoid's second half, once t holds exp(-|z|): 1 / (1 + t) where z >= 0 and
 * t / (1 + t) elsewhere, so exp never overflows; a NaN z gives NaN. */
void sigmoid_end(double *restrict z, const double *restrict t, ptrdiff_t size)
{
    for (ptrdiff_t k = 0; k < size; k++)
        z[k] = (z[k] >= 0.0 ? 1.0 : t[k]) / (1.0 + t[k]);
}

/* The output layer's delta for one output unit over rows outputs o and targets t: with
 * r = o[i] - t[i], d[i] = ((2/rows r) o[i]) (1 - o[i]), and o[i] is overwritten with r r. */
void output_delta(double *restrict d, double *restrict o, const double *restrict t, ptrdiff_t rows)
{
    const double scale = 2.0 / (double)rows;
    for (ptrdiff_t i = 0; i < rows; i++) {
        const double oi = o[i], r = oi - t[i];
        d[i] = ((scale * r) * oi) * (1.0 - oi);
        o[i] = r * r;
    }
}

/* The hidden layer's delta for one output unit: d[i, j] = ((d_out[i] w2[j]) h[i, j])
 * (1 - h[i, j]) over C-contiguous rows x cols d and h, and s[j] the sum of column j of d,
 * added in row order from +0.0 as numpy's reduction is (a column of -0.0 sums to +0.0). */
void hidden_delta(double *restrict d, double *restrict s, const double *restrict d_out,
                  const double *restrict w2, const double *restrict h, ptrdiff_t rows, ptrdiff_t cols)
{
    for (ptrdiff_t j = 0; j < cols; j++)
        s[j] = 0.0;
    for (ptrdiff_t i = 0; i < rows; i++) {
        double *di = d + i * cols;
        const double *hi = h + i * cols;
        const double oi = d_out[i];
        for (ptrdiff_t j = 0; j < cols; j++) {
            di[j] = ((oi * w2[j]) * hi[j]) * (1.0 - hi[j]);
            s[j] += di[j];
        }
    }
}

/* Compiled kernels of qnmlp, built and loaded at first use by mlp._kernels().
 *
 * Every entry is computed as written, in IEEE double arithmetic: the build flags
 * forbid fused multiply-add (-ffp-contract=off) and reassociation (-fno-fast-math),
 * and entries are independent, so vectorizing a loop changes no bit. Only
 * rank_two_update has a product plus an addend; the perceptron's loops below it
 * have none, so a fused multiply-add cannot reach them, and the update's canary
 * is the only one needed.
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

/* The hidden layer's delta for one output unit: d[i, j] = ((d_out[i] w2[j]) h[i, j])
 * (1 - h[i, j]) over C-contiguous rows x cols d and h. */
void hidden_delta(double *restrict d, const double *restrict d_out, const double *restrict w2,
                  const double *restrict h, ptrdiff_t rows, ptrdiff_t cols)
{
    for (ptrdiff_t i = 0; i < rows; i++) {
        double *di = d + i * cols;
        const double *hi = h + i * cols;
        const double oi = d_out[i];
        for (ptrdiff_t j = 0; j < cols; j++)
            di[j] = ((oi * w2[j]) * hi[j]) * (1.0 - hi[j]);
    }
}

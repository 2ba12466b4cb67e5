/* Compiled kernel of qnmlp.optim, built and loaded at first use by optim._kernels().
 *
 * Every entry is computed as written, h_ij + (u_i s_j + s_i u_j), in IEEE double
 * arithmetic: the build flags forbid fused multiply-add (-ffp-contract=off) and
 * reassociation (-fno-fast-math), so each product is rounded before the add, and
 * entries are independent, so vectorizing the loop changes no bit.
 */
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

/* The compiled form of growbp.kernel: a whole online epoch, the batch
 * forward pass and the per-pattern error, in the order that module's
 * docstring states.
 *
 * Every sum runs left to right with the bias last, every product and sum
 * is rounded on its own (build with -ffp-contract=off, never -ffast-math),
 * and the logistic is 1 / (1 + exp(-s)) with libm's exp, the function
 * Python's math.exp calls.  Where exp overflows to +inf the quotient is
 * exactly 0.0, which is the Python kernel's OverflowError branch.  So the
 * weights and outputs equal the Python kernel's bit for bit.
 *
 * Only growbp_epoch, growbp_forward and growbp_error are exported, each
 * with the package's prefix: an unprefixed name such as error would
 * share glibc's error(3), and a call from inside the library could bind
 * to that one.  The helpers are static.
 *
 * Arrays are row-major float64: hw is h x (n_in + 1), ow is
 * n_out x (h + 1), X is n x n_in, T and Y are n x n_out and E holds n
 * values.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

static double logistic(double s)
{
    return 1.0 / (1.0 + exp(-s));
}

/* Activations of the units whose weight rows are w (len + 1 columns,
 * bias last) on the inputs a; written to out. */
static void layer(const double *w, int64_t units, const double *a,
                  int64_t len, double *out)
{
    for (int64_t j = 0; j < units; j++, w += len + 1) {
        double s = w[0] * a[0];
        for (int64_t i = 1; i < len; i++)
            s = s + w[i] * a[i];
        out[j] = logistic(s + w[len]);
    }
}

/* Add eta * delta_j * a_i to every weight of row j, and eta * delta_j to
 * its bias. */
static void update(double *w, int64_t units, const double *a, int64_t len,
                   const double *delta, double eta)
{
    for (int64_t j = 0; j < units; j++, w += len + 1) {
        double dj = delta[j];
        for (int64_t i = 0; i < len; i++)
            w[i] = w[i] + eta * (dj * a[i]);
        w[len] = w[len] + eta * dj;
    }
}

/* One online pass over the patterns in the given order, updating hw and
 * ow in place.  Returns 0, 1 when order is not a permutation of 0..n-1
 * (the weights are then untouched), or 2 when memory runs out. */
int64_t growbp_epoch(double *hw, double *ow, const double *X,
                     const double *T, const int64_t *order, int64_t n,
                     int64_t n_in, int64_t h, int64_t n_out, double eta)
{
    unsigned char *seen = calloc((size_t)n + 1, 1);
    if (seen == NULL)
        return 2;
    for (int64_t p = 0; p < n; p++) {
        int64_t i = order[p];
        if (i < 0 || i >= n || seen[i]) {
            free(seen);
            return 1;
        }
        seen[i] = 1;
    }
    free(seen);

    double *hidden = malloc((size_t)(2 * h + 2 * n_out) * sizeof(double));
    if (hidden == NULL)
        return 2;
    double *g = hidden + h;
    double *y = g + h;
    double *e = y + n_out;
    for (int64_t p = 0; p < n; p++) {
        const double *x = X + order[p] * n_in;
        const double *d = T + order[p] * n_out;
        layer(hw, h, x, n_in, hidden);
        layer(ow, n_out, hidden, h, y);
        for (int64_t k = 0; k < n_out; k++)
            e[k] = (d[k] - y[k]) * y[k] * (1.0 - y[k]);
        /* The hidden deltas use the output weights before this step. */
        for (int64_t j = 0; j < h; j++) {
            double s = ow[j] * e[0];
            for (int64_t k = 1; k < n_out; k++)
                s = s + ow[k * (h + 1) + j] * e[k];
            g[j] = s * hidden[j] * (1.0 - hidden[j]);
        }
        update(ow, n_out, hidden, h, e, eta);
        update(hw, h, x, n_in, g, eta);
    }
    free(hidden);
    return 0;
}

/* The output activations of every row of X, written to the rows of Y.
 * Returns 0, or 2 when memory runs out. */
int64_t growbp_forward(const double *hw, const double *ow, const double *X,
                       double *Y, int64_t n, int64_t n_in, int64_t h,
                       int64_t n_out)
{
    double *hidden = malloc((size_t)h * sizeof(double));
    if (hidden == NULL)
        return 2;
    for (int64_t p = 0; p < n; p++) {
        layer(hw, h, X + p * n_in, n_in, hidden);
        layer(ow, n_out, hidden, h, Y + p * n_out);
    }
    free(hidden);
    return 0;
}

/* Each pattern's error 0.5 * (e_0*e_0 + e_1*e_1 + ...), e_k = T_k - y_k
 * summed left to right over the outputs, written to E.  Returns 0, or 2
 * when memory runs out. */
int64_t growbp_error(const double *hw, const double *ow, const double *X,
                     const double *T, double *E, int64_t n, int64_t n_in,
                     int64_t h, int64_t n_out)
{
    double *hidden = malloc((size_t)(h + n_out) * sizeof(double));
    if (hidden == NULL)
        return 2;
    double *y = hidden + h;
    for (int64_t p = 0; p < n; p++) {
        const double *d = T + p * n_out;
        layer(hw, h, X + p * n_in, n_in, hidden);
        layer(ow, n_out, hidden, h, y);
        double e = d[0] - y[0];
        double s = e * e;
        for (int64_t k = 1; k < n_out; k++) {
            e = d[k] - y[k];
            s = s + e * e;
        }
        E[p] = 0.5 * s;
    }
    free(hidden);
    return 0;
}

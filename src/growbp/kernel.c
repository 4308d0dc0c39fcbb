/* The compiled form of growbp.kernel: a whole online epoch, one
 * evaluation pass that gives any of the output rows, the per-pattern
 * errors, their mean and the count of correctly classified patterns, and
 * an epoch's random permutation, in the order that module's docstring
 * states; and the parse of a dataset's data rows.
 *
 * Every sum runs left to right, a net input with the bias last and the
 * mean of the errors from 0.0; every product and sum is rounded on its
 * own (build with -ffp-contract=off, never -ffast-math), and the logistic
 * is 1 / (1 + exp(-s)) with libm's exp, the function Python's math.exp
 * calls.  Where exp overflows to +inf the quotient is exactly 0.0, which
 * is the Python kernel's OverflowError branch.  So the weights, outputs,
 * errors and means equal the Python kernel's bit for bit.
 *
 * The epoch runs one pattern at a time, as the online step must.  The
 * evaluation pass runs BLOCK (8) rows at a time with layer_block, a
 * schedule of layer that has no Python twin: each row keeps its own sum
 * and adds in layer's order, so no sum is reblocked and every row gets
 * the bits layer gives it.  The BLOCK sums are independent, which is what
 * lets them run side by side.  A last block of fewer rows is copied into
 * a zero-padded tile, so there is one code path and nothing past X is
 * read; the padded rows' outputs are never used.
 *
 * Only the growbp_ functions are exported, each with the package's
 * prefix: an unprefixed name such as error would share glibc's error(3),
 * and a call from inside the library could bind to that one.  The
 * helpers are static.  Nothing here checks its input: the Python entry
 * points do, and hand a shuffled epoch the order they drew.
 *
 * growbp_parse reads the data rows of a .dt body, or of a CSV after its
 * header row, straight into X and T.  It takes only finite ASCII
 * decimals, those Python's float() reads: an optional sign, digits with
 * single underscores between them, a '.' and an optional exponent.  On
 * anything else, and on any doubt, it returns 1, and growbp.dataset
 * reads the rows again with its Python reader, which is the spec: it
 * gives the same values, or raises the error of the first bad row.
 *
 * Arrays are row-major float64: hw is h x (n_in + 1), ow is
 * n_out x (h + 1), X is n x n_in, T and Y are n x n_out and E holds n
 * values.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* PCG64's 128-bit state; __extension__ keeps -Wpedantic quiet. */
__extension__ typedef unsigned __int128 u128;

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

/* One online pass over the patterns, updating hw and ow in place: in
 * file order when order is NULL, else in the order of the permutation
 * of 0..n-1 it holds.  Returns 0, or 2 when memory runs out. */
int64_t growbp_epoch(double *hw, double *ow, const double *X,
                     const double *T, const int64_t *order, int64_t n,
                     int64_t n_in, int64_t h, int64_t n_out, double eta)
{
    double *hidden = malloc((size_t)(2 * h + 2 * n_out) * sizeof(double));
    if (hidden == NULL)
        return 2;
    double *g = hidden + h;
    double *y = g + h;
    double *e = y + n_out;
    for (int64_t p = 0; p < n; p++) {
        int64_t i = order == NULL ? p : order[p];
        const double *x = X + i * n_in;
        const double *d = T + i * n_out;
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

/* Rows per block.  The unroll pragmas spell it out, because GCC does not
 * expand a macro in them. */
#define BLOCK 8

/* layer for the BLOCK rows of a (len values each): the activations of
 * the units whose weight rows are w, written to the rows of out (units
 * values each).  The unrolled lane loops keep the BLOCK sums in
 * registers; each lane adds in layer's order. */
static void layer_block(const double *w, int64_t units, const double *a,
                        int64_t len, double *out)
{
    for (int64_t j = 0; j < units; j++, w += len + 1) {
        double s[BLOCK];
#pragma GCC unroll 8
        for (int b = 0; b < BLOCK; b++)
            s[b] = w[0] * a[b * len];
        for (int64_t i = 1; i < len; i++)
#pragma GCC unroll 8
            for (int b = 0; b < BLOCK; b++)
                s[b] = s[b] + w[i] * a[b * len + i];
#pragma GCC unroll 8
        for (int b = 0; b < BLOCK; b++)
            out[b * units + j] = logistic(s[b] + w[len]);
    }
}

/* The output tile of the block of X that starts at row p, in the tiles
 * t: a padded input block, then the hidden and the output tile, BLOCK
 * rows each.  A last block of fewer than BLOCK rows is copied into the
 * zeroed pad first. */
static const double *block_outputs(const double *hw, const double *ow,
                                   const double *X, int64_t p, int64_t n,
                                   int64_t n_in, int64_t h, int64_t n_out,
                                   double *t)
{
    const double *x = X + p * n_in;
    double *hidden = t + BLOCK * n_in, *y = hidden + BLOCK * h;
    if (n - p < BLOCK) {
        memset(t, 0, (size_t)(BLOCK * n_in) * sizeof(double));
        memcpy(t, x, (size_t)((n - p) * n_in) * sizeof(double));
        x = t;
    }
    layer_block(hw, h, x, n_in, hidden);
    layer_block(ow, n_out, hidden, h, y);
    return y;
}

/* The class of an output or target vector: with one value, 1 where it is
 * >= 0.5; with more, the index of the largest, the lowest on ties, and
 * the first NaN where there is one, as numpy's argmax picks. */
static int64_t label(const double *v, int64_t n)
{
    if (n == 1)
        return v[0] >= 0.5;
    int64_t arg = 0;
    double best = v[0];
    for (int64_t k = 1; k < n && best == best; k++)
        if (!(v[k] <= best)) {
            best = v[k];
            arg = k;
        }
    return arg;
}

/* One pass of the net over the rows of X, writing what is asked for: the
 * output rows to Y; each pattern's error 0.5 * (e_0*e_0 + e_1*e_1 + ...),
 * e_k = T_k - y_k summed left to right over the outputs, to E; their mean,
 * the errors summed left to right from 0.0 and divided by n, to mean; and
 * how many rows the net puts in the class of their row of T to count.  Any
 * of the four may be NULL, and T may be NULL when E, mean and count all
 * are.  Labels are taken only for count, since their argmax branch is slow
 * on random targets.  Returns 0, or 2 when memory runs out. */
int64_t growbp_evaluate(const double *hw, const double *ow, const double *X,
                        const double *T, double *Y, double *E, int64_t n,
                        int64_t n_in, int64_t h, int64_t n_out, double *mean,
                        int64_t *count)
{
    double *t = malloc((size_t)(BLOCK * (n_in + h + n_out)) * sizeof(double));
    double sum = 0.0;
    int64_t c = 0;
    if (t == NULL)
        return 2;
    for (int64_t p = 0; p < n; p += BLOCK) {
        const double *y = block_outputs(hw, ow, X, p, n, n_in, h, n_out, t);
        int64_t rows = n - p < BLOCK ? n - p : BLOCK;
        if (Y != NULL)
            memcpy(Y + p * n_out, y, (size_t)(rows * n_out) * sizeof(double));
        for (int64_t b = 0; b < rows; b++, y += n_out) {
            if (E != NULL || mean != NULL) {
                const double *d = T + (p + b) * n_out;
                double e = d[0] - y[0];
                double s = e * e;
                for (int64_t k = 1; k < n_out; k++) {
                    e = d[k] - y[k];
                    s = s + e * e;
                }
                s = 0.5 * s;
                if (E != NULL)
                    E[p + b] = s;
                sum = sum + s;
            }
            if (count != NULL)
                c += label(y, n_out) == label(T + (p + b) * n_out, n_out);
        }
    }
    if (mean != NULL)
        *mean = sum / (double)n;
    if (count != NULL)
        *count = c;
    free(t);
    return 0;
}

/* PCG64's next 64-bit output: a 128-bit LCG step, then XSL-RR. */
static uint64_t next64(u128 *state, u128 inc)
{
    const u128 mult = ((u128)0x2360ed051fc65da4ULL << 64)
                      | 0x4385df649fccf645ULL;
    *state = *state * mult + inc;
    uint64_t x = (uint64_t)(*state >> 64) ^ (uint64_t)*state;
    unsigned rot = (unsigned)(*state >> 122);
    return (x >> rot) | (x << ((64 - rot) & 63));
}

/* numpy's Generator.permutation(n) into order: a Fisher-Yates pass from
 * the last index down, each draw in [0, i] by masked rejection, on
 * 32-bit halves of the output while i fits in 32 bits.  g is the
 * generator, {state high, state low, increment high, increment low,
 * a half is buffered, that half}, and is updated in place.  Returns 0. */
int64_t growbp_permutation(uint64_t *g, int64_t *order, int64_t n)
{
    u128 state = ((u128)g[0] << 64) | g[1];
    u128 inc = ((u128)g[2] << 64) | g[3];
    for (int64_t i = 0; i < n; i++)
        order[i] = i;
    for (int64_t i = n - 1; i > 0; i--) {
        uint64_t max = (uint64_t)i, mask = max, value;
        for (int shift = 1; shift < 64; shift *= 2)
            mask |= mask >> shift;
        do {
            if (max > 0xffffffffULL) {
                value = next64(&state, inc);
            } else if (g[4]) {
                g[4] = 0;
                value = g[5];
            } else {
                value = next64(&state, inc);
                g[4] = 1;
                g[5] = value >> 32;
                value &= 0xffffffffULL;
            }
            value &= mask;
        } while (value > max);
        int64_t j = (int64_t)value, t = order[i];
        order[i] = order[j];
        order[j] = t;
    }
    g[0] = (uint64_t)(state >> 64);
    g[1] = (uint64_t)state;
    return 0;
}

/* Longest number growbp_parse reads, in characters less its underscores;
 * a longer one is left to the Python reader. */
#define TOKEN 64

/* p moved past the spaces and tabs before end. */
static const char *skip_blanks(const char *p, const char *end)
{
    while (p < end && (*p == ' ' || *p == '\t'))
        p++;
    return p;
}

static int digit(char c)
{
    return c >= '0' && c <= '9';
}

/* The number that starts at *p, read into *v, with *p moved past it: the
 * longest run before end of digits, signs, '.', 'e', 'E' and '_' with a
 * digit on each side, the underscores dropped.  Returns 0, or 1 where the
 * run is empty or too long, or strtod stops short of its end or gives a
 * value that is not finite.  So the numbers read are the finite ASCII
 * decimals that Python's float() reads, and strtod, correctly rounded as
 * float() is, gives them the same bits; in a locale whose decimal point
 * is not '.', strtod stops short and the row is left to Python. */
static int number(const char **p, const char *end, double *v)
{
    char s[TOKEN + 1], *stop;
    int n = 0;
    const char *q = *p;
    for (; q < end; q++) {
        if (*q == '_') {
            if (n == 0 || !digit(q[-1]) || q + 1 == end || !digit(q[1]))
                return 1;
        } else if (digit(*q) || *q == '.' || *q == '+' || *q == '-'
                   || *q == 'e' || *q == 'E') {
            if (n == TOKEN)
                return 1;
            s[n++] = *q;
        } else {
            break;
        }
    }
    s[n] = '\0';
    *v = strtod(s, &stop);
    *p = q;
    return n == 0 || stop != s + n || !isfinite(*v);
}

/* The rows data rows of buf[start, len) into X (n_in values a row) and T
 * (n_out values a row), as growbp.dataset's Python reader takes them.  A
 * line ends at "\n", "\r\n" or a "\r" that ends the buffer, and a line
 * of blanks (spaces and tabs) only is skipped.  A row is n_in + n_out
 * numbers, the last n_out of them exactly 0 or 1, with blanks around
 * them, split by runs of blanks where sep is 0 and by the character sep
 * with optional blanks around it otherwise.  Returns 0, or 1 on anything
 * else, such as another control character, a number that is not read
 * (see number) or a count of numbers or rows other than these; X and T
 * are then partly written.  Nothing is read from or past buf + len. */
int64_t growbp_parse(const char *buf, int64_t start, int64_t len,
                     int64_t sep, int64_t rows, int64_t n_in, int64_t n_out,
                     double *X, double *T)
{
    const char *p = buf + start, *end = buf + len;
    int64_t row = 0;
    while (p < end) {
        p = skip_blanks(p, end);
        if (p < end && *p != '\n' && *p != '\r') {
            if (row == rows)
                return 1;
            /* A number ends only at a character no number holds, so two
             * numbers without a separator between them fail in number. */
            for (int64_t k = 0; k < n_in + n_out; k++) {
                double v;
                if (k > 0 && sep != 0 && (p == end || *p++ != sep))
                    return 1;
                p = skip_blanks(p, end);
                if (number(&p, end, &v))
                    return 1;
                if (k < n_in)
                    X[row * n_in + k] = v;
                else if (v == 0.0 || v == 1.0)
                    T[row * n_out + k - n_in] = v;
                else
                    return 1;
                p = skip_blanks(p, end);
            }
            row++;
        }
        if (p < end && *p == '\r')
            p++;
        if (p < end && *p++ != '\n')
            return 1;
    }
    return row != rows;
}

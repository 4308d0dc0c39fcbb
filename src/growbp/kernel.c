/* The compiled form of growbp.kernel: a whole online epoch, one
 * evaluation pass that gives any of the output rows, the per-pattern
 * errors, their mean and the count of correctly classified patterns, and
 * an epoch's random permutation, in the order that module's docstring
 * states; and the parse of a dataset's data rows.
 *
 * Every sum runs left to right, a net input with the bias last and the
 * mean of the errors from 0.0; every product and sum is rounded on its
 * own (build with -ffp-contract=off, never -ffast-math), and the logistic
 * is 1 / (1 + exp(-s)) with growbp_exp, glibc's exp written out below in
 * plain IEEE operations, which growbp.kernel.exp transcribes; no libm exp
 * is called.  Where exp overflows to +inf the quotient is exactly 0.0.
 * So the weights, outputs, errors and means equal the Python kernel's
 * bit for bit, on any IEEE-754 host.
 *
 * The epoch runs one pattern at a time, as the online step must.  The
 * evaluation pass runs BLOCK (8) rows at a time with layer_block, a
 * schedule of layer that has no Python twin: each row keeps its own sum
 * and adds in layer's order, so no sum is reblocked and every row gets
 * the bits layer gives it.  The BLOCK sums are independent, which is what
 * lets them run side by side, and so are the BLOCK exps of a unit, which
 * logistic_block runs as four pairs, two doubles per instruction, with
 * the bits the scalar exp gives each lane.  A last block of fewer rows is
 * copied into a zero-padded tile, so there is one code path and nothing
 * past X is read; the padded rows' outputs are never used.
 *
 * Only the entry points are exported, each with the package's prefix:
 * an unprefixed name such as error would share glibc's error(3), and a
 * call from inside the library could bind to that one.  The helpers,
 * growbp_exp among them, are static.  Nothing here checks its input: the
 * Python entry points do, and hand a shuffled epoch the order they drew.
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

/* exp(x) as glibc's generic exp computes it (sysdeps/ieee754/dbl-64/
 * e_exp.c, from Arm's optimized-routines), after Tang, "Table-driven
 * implementation of the exponential function in IEEE floating-point
 * arithmetic", ACM TOMS 15(2), 1989: x = k ln2/128 + r with |r| <=
 * ln2/256, and exp(x) = 2^(k/128) (1 + tail + r + r^2 (C2 + r C3) +
 * r^4 (C4 + r C5)) with 2^(j/128) = H (1 + tail) read from a table.
 *
 * exp_table[2j] holds the bits of the tail of 2^(j/128), the nearest
 * double to (2^(j/128) - H) / H, and exp_table[2j + 1] those of H, the
 * nearest double to 2^(j/128), less j << 45, so that adding k << 45 gives
 * the bits of 2^(k >> 7) H.  scripts/exp_table.py generates it. */
static const uint64_t exp_table[2 * 128] = {
    0x0000000000000000, 0x3ff0000000000000, 0x3c9b3b4f1a88bf6e,
    0x3feff63da9fb3335, 0xbc7160139cd8dc5d, 0x3fefec9a3e778061,
    0xbc905e7a108766d1, 0x3fefe315e86e7f85, 0x3c8cd2523567f613,
    0x3fefd9b0d3158574, 0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8, 0x3c90a3e45b33d399,
    0x3fefbe3ecac6f383, 0x3c979aa65d837b6d, 0x3fefb5586cf9890f,
    0x3c8eb51a92fdeffc, 0x3fefac922b7247f7, 0x3c3ebe3d702f9cd1,
    0x3fefa3ec32d3d1a2, 0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51, 0xbc5080ef8c4eea55,
    0x3fef8abdc06c31cc, 0xbc91c923b9d5f416, 0x3fef829aaea92de0,
    0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51, 0xbc801b15eaa59348,
    0x3fef72b83c7d517b, 0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75, 0xbc96d99c7611eb26,
    0x3fef5be084045cd4, 0x3c9aecf73e3a2f60, 0x3fef54873168b9aa,
    0xbc8fe782cb86389d, 0x3fef4d5022fcd91d, 0x3c8a6f4144a6c38d,
    0x3fef463b88628cd6, 0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238, 0x3c875e18f274487d,
    0x3fef31ce4fb2a63f, 0x3c80472b981fe7f2, 0x3fef2b4565e27cdd,
    0xbc96b87b3f71085e, 0x3fef24dfe1f56381, 0x3c82f7e16d09ab31,
    0x3fef1e9df51fdee1, 0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b, 0x3c6e149289cecb8f,
    0x3fef0cafa93e2f56, 0x3c834d754db0abb6, 0x3fef06fe0a31b715,
    0x3c864201e2ac744c, 0x3fef0170fc4cd831, 0x3c8fdd395dd3f84a,
    0x3feefc08b26416ff, 0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb, 0xbc9907f81b512d8e,
    0x3feeecae6d05d866, 0xbc71d1e83e9436d2, 0x3feee7db34e59ff7,
    0xbc991919b3ce1b15, 0x3feee32dc313a8e5, 0x3c859f48a72a4c6d,
    0x3feedea64c123422, 0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a, 0xbc7c2c9b67499a1b,
    0x3feed1f5d950a897, 0x3c4363ed60c2ac11, 0x3feece086061892d,
    0x3c9666093b0664ef, 0x3feeca41ed1d0057, 0x3c6ecce1daa10379,
    0x3feec6a2b5c13cd0, 0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27, 0x3c931dbdeb54e077,
    0x3feebcb299fddd0d, 0xbc8f94340071a38e, 0x3feeb9b2769d2ca7,
    0xbc87deccdc93a349, 0x3feeb6daa2cf6642, 0xbc78dec6bd0f385f,
    0x3feeb42b569d4f82, 0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da, 0x3c7b98b72f8a9b05,
    0x3feead12d497c7fd, 0x3c9063e1e21c5409, 0x3feeab07dd485429,
    0x3c34c7855019c6ea, 0x3feea9268a5946b7, 0x3c9432e62b64c035,
    0x3feea76f15ad2148, 0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585, 0xbc845378892be9ae,
    0x3feea34634ccc320, 0xbc93cedd78565858, 0x3feea23882552225,
    0x3c5710aa807e1964, 0x3feea155d44ca973, 0xbc93b3efbf5e2228,
    0x3feea09e667f3bcd, 0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f, 0xbc80dc3d54e08851,
    0x3fee9f7df9519484, 0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74,
    0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174, 0xbc8619321e55e68a,
    0x3fee9feb564267c9, 0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187, 0x3c94ecfd5467c06b,
    0x3feea1ed0130c132, 0x3c65ebe1abd66c55, 0x3feea2f336cf4e62,
    0xbc88a1c52fb3cf42, 0x3feea427543e1a12, 0xbc9369b6f13b3734,
    0x3feea589994cce13, 0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed, 0x3c90ad675b0e8a00,
    0x3feeaac7d98a6699, 0x3c8db72fc1f0eab4, 0x3feeace5422aa0db,
    0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c, 0x3c7bf68359f35f44,
    0x3feeb1ae99157736, 0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5, 0xbc6c23f97c90b959,
    0x3feeba44cbc8520f, 0xbc92434322f4f9aa, 0x3feebd829fde4e50,
    0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba, 0x3c71affc2b91ce27,
    0x3feec49182a3f090, 0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565, 0x3c8b1c86e3e231d5,
    0x3feed09bec4a2d33, 0xbc91bbd1d3bcbb15, 0x3feed503b23e255d,
    0x3c90cc319cee31d2, 0x3feed99e1330b358, 0x3c8469846e735ab3,
    0x3feede6b5579fdbf, 0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad, 0xbc907b8f4ad1d9fa,
    0x3feeee07298db666, 0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb,
    0xbc90a40e3da6f640, 0x3feef9728de5593a, 0xbc68d6f438ad9334,
    0x3feeff76f2fb5e47, 0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2, 0xbc91bdfbfa9298ac,
    0x3fef12c25bd71e09, 0x3c736eae30af0cb3, 0x3fef199bdd85529c,
    0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a, 0x3c84e08fd10959ac,
    0x3fef27f12e57d14b, 0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069, 0xbc808a1883ccb5d2,
    0x3fef3f0b555dc3fa, 0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c,
    0xbc900dae3875a949, 0x3fef4f87080d89f2, 0x3c74a385a63d07a7,
    0x3fef5818dcfba487, 0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285, 0x3c843a59ac016b4b,
    0x3fef7321f301b460, 0xbc82d52107b43e1f, 0x3fef7c97337b9b5f,
    0xbc892ab93b470dc9, 0x3fef864614f5a129, 0x3c74b604603a88d3,
    0x3fef902ee78b3ff6, 0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da, 0xbc8dae98e223747d,
    0x3fefaf482d8e67f1, 0x3c8ec3bc41aa2008, 0x3fefba1bee615a27,
    0x3c842b94c3a9eb32, 0x3fefc52b376bba97, 0x3c8a64a931d185ee,
    0x3fefd0765b6e4540, 0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8, 0x3c5305c14160cc89,
    0x3feff3c22b8f71f1,
};

static double from_bits(uint64_t i)
{
    double d;
    memcpy(&d, &i, sizeof d);
    return d;
}

static uint64_t to_bits(double d)
{
    uint64_t i;
    memcpy(&i, &d, sizeof i);
    return i;
}

/* 1 where |x| < 512, the range exp_body takes with big 0.  glibc gives
 * 1 + x where |x| < 2^-54, and so does exp_body: there k is 0, r is x
 * and tmp rounds to x. */
static int main_range(double x)
{
    return fabs(x) < 512.0;
}

/* glibc's specialcase: scale (1 + tmp) for 512 <= |x| < 1024, where the
 * exponent k >> 7 of scale's bits sbits may have left the double range.
 * A result in the subnormal range is rounded once, before its scaling. */
static double exp_special(double tmp, uint64_t sbits, uint64_t ki)
{
    if ((ki & 0x80000000) == 0) {
        double scale = from_bits(sbits - (1009ULL << 52));
        return 0x1p1009 * (scale + scale * tmp);
    }
    double scale = from_bits(sbits + (1022ULL << 52));
    double y = scale + scale * tmp;
    if (y < 1.0) {
        double lo = scale - y + scale * tmp;
        double hi = 1.0 + y;
        lo = 1.0 - hi + y + lo;
        y = (hi + lo) - 1.0;
    }
    return 0x1p-1022 * y;
}

/* exp(x) for |x| < 512 where big is 0, and for 512 <= |x| < 1024 where
 * it is 1.  Adding 1.5 * 2^52 rounds x * 128/ln2 to the integer k,
 * held in the low bits of ki; ln2/128 is split into a part whose product
 * with k is exact and the rest.  exp_pair below is its main range on
 * two lanes at once. */
static inline double exp_body(double x, int big)
{
    double kd = 0x1.71547652b82fep7 * x + 0x1.8p52;
    uint64_t ki = to_bits(kd);
    kd = kd - 0x1.8p52;
    double r = x + kd * -0x1.62e42fefa0000p-8 + kd * -0x1.cf79abc9e3b3ap-47;
    double r2 = r * r;
    const uint64_t *t = exp_table + 2 * (ki % 128);
    double tmp = from_bits(t[0]) + r
                 + r2 * (0x1.ffffffffffdbdp-2 + r * 0x1.555555555543cp-3)
                 + r2 * r2 * (0x1.55555cf172b91p-5 + r * 0x1.1111167a4d017p-7);
    uint64_t sbits = t[1] + (ki << 45);
    if (big)
        return exp_special(tmp, sbits, ki);
    double scale = from_bits(sbits);
    return scale + scale * tmp;
}

/* exp(x) for every double x. */
static double growbp_exp(double x)
{
    if (main_range(x))
        return exp_body(x, 0);
    if (fabs(x) < 1024.0)
        return exp_body(x, 1);
    if (x < 0.0)
        return 0.0;
    return x > 0.0 ? HUGE_VAL : 1.0 + x;  /* +inf, or NaN */
}

static double logistic(double s)
{
    return 1.0 / (1.0 + growbp_exp(-s));
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

/* Two doubles, and their bits, that each operator takes lane by lane, as
 * one SSE2 (x86-64) or NEON (aarch64) instruction. */
typedef double pair __attribute__((vector_size(16)));
typedef uint64_t pair_bits __attribute__((vector_size(16)));

/* exp_body(x, 0) on both lanes of x: the same operations in the same
 * order on each lane, so each gets the bits exp_body gives it.  Only the
 * table reads are made lane by lane. */
static inline pair exp_pair(pair x)
{
    pair kd = 0x1.71547652b82fep7 * x + 0x1.8p52;
    pair_bits ki = (pair_bits)kd;
    kd = kd - 0x1.8p52;
    pair r = x + kd * -0x1.62e42fefa0000p-8 + kd * -0x1.cf79abc9e3b3ap-47;
    pair r2 = r * r;
    const uint64_t *t0 = exp_table + 2 * (ki[0] % 128);
    const uint64_t *t1 = exp_table + 2 * (ki[1] % 128);
    pair tail = (pair)(pair_bits){t0[0], t1[0]};
    pair tmp = tail + r
               + r2 * (0x1.ffffffffffdbdp-2 + r * 0x1.555555555543cp-3)
               + r2 * r2 * (0x1.55555cf172b91p-5 + r * 0x1.1111167a4d017p-7);
    pair scale = (pair)((pair_bits){t0[1], t1[1]} + (ki << 45));
    return scale + scale * tmp;
}

/* Rows per block.  The unroll pragmas spell it out, because GCC does not
 * expand a macro in them. */
#define BLOCK 8

/* 1 / (1 + exp(v)), which is logistic(-v), in place for the BLOCK values
 * v[0], v[stride], ...: where all of them lie in exp's main range, one
 * branch-free loop runs exp_pair on the lanes two at a time, so their
 * exps run side by side; otherwise each lane takes growbp_exp.  Both give
 * the bits logistic gives. */
static void logistic_block(double *v, int64_t stride)
{
    double x[BLOCK];
    int in_range = 1;
#pragma GCC unroll 8
    for (int b = 0; b < BLOCK; b++) {
        x[b] = v[b * stride];
        in_range &= main_range(x[b]);
    }
    if (in_range) {
#pragma GCC unroll 4
        for (int b = 0; b < BLOCK; b += 2) {
            pair y = 1.0 / (1.0 + exp_pair((pair){x[b], x[b + 1]}));
            v[b * stride] = y[0];
            v[(b + 1) * stride] = y[1];
        }
    } else {
        for (int b = 0; b < BLOCK; b++)
            v[b * stride] = 1.0 / (1.0 + growbp_exp(x[b]));
    }
}

/* layer for the BLOCK rows of a (len values each): the activations of
 * the units whose weight rows are w, written to the rows of out (units
 * values each).  The unrolled lane loops keep the BLOCK sums in
 * registers; each lane adds in layer's order.  The negated net inputs
 * are stored first, and logistic_block takes each unit's BLOCK of them. */
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
            out[b * units + j] = -(s[b] + w[len]);
    }
    for (int64_t j = 0; j < units; j++)
        logistic_block(out + j, units);
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

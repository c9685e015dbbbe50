/* Compiled kernels of holecount, loaded through ctypes.PyDLL by _fastdel.py.
 *
 *   hc_morton_dedup insertion order along a Z-order curve (stable radix
 *                   sort of 32-bit Morton keys), which also marks the
 *                   repeated points (each one equal to an earlier point
 *                   inside its run of equal keys) and returns the order of
 *                   the kept points
 *   hc_build        incremental Delaunay triangulation (triangle and edge
 *                   splits, Lawson flips), compacted in place
 *   hc_edge_table   each edge's two faces and squared length
 *   hc_births       per-triangle birth scales, with the borderline right
 *                   angles of integer-like rows decided exactly
 *   hc_sweep        the descending elder-rule union-find sweep
 *   hc_staircase    the hole-count staircase of a diagram by one merge of its
 *                   ascending births and sorted deaths, and the share of the
 *                   scale range that each count holds
 *   hc_bottleneck   the exact bottleneck distance of two diagrams: rounds of
 *                   mutual nearest neighbours, edge searches along the sorted
 *                   births and Hopcroft-Karp feasibility tests
 *
 * Arrays are C-contiguous: points (n, 2) float64, triangles and neighbours
 * (k, 3) int32, edge faces (E, 2) int32, diagram pairs (m, 2) float64.
 * Each exported function takes them as Python objects and borrows their
 * memory through the buffer protocol (see borrow), which checks each one's
 * layout, element kind and size, length and, where it is written,
 * writability, and checks the ids it indexes with, before the kernel runs;
 * a failed check sets a Python exception, which ctypes raises.  Every
 * kernel writes only into buffers the caller allocated, apart from scratch
 * space that it frees before it returns: O(n) for the builder and the
 * Morton pass, the union-find forest of hc_sweep, O(m1 + m2 + edges) for
 * hc_bottleneck.
 *
 * The builder's predicates are exact, in the stages of Shewchuk's adaptive
 * predicates (1997) with the cheapest exact stage first: a float filter
 * decides almost every call; an integer stage decides the rest when the
 * coordinates are small integers times one power of two, as on lattices
 * (see fixed_point); and Shewchuk's expansion arithmetic in long double
 * decides what is left.  Exact in-circle ties are broken by a symbolic
 * perturbation keyed on the points' (x, y) order, so lattices, cocircular
 * cells and points on edges are triangulated here, the same way whatever
 * the input order.  hc_births decides the borderline right angles of such
 * integer-like triangles with the same integer test.
 *
 * Build with -ffp-contract=off and without -ffast-math: the expansions need
 * every operation rounded on its own, and the births and the edge lengths
 * must round exactly as the numpy fallback in forest.py and delaunay.py
 * does, so that both paths give bit-identical diagrams.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define STATUS_OK 0
/* No triangulation with every point a vertex: fewer than 3 points, a point
 * repeated, or the locate walk's guard fired. */
#define STATUS_DECLINED 1
#define STATUS_OVERFLOW 2 /* fewer than 2n - 2 slots, or no flip stack */
#define STATUS_COLLINEAR 3 /* every point on one line: no triangle at all */

/* Error filters of the float predicates (Shewchuk 1997, loose static form). */
#define ORIENT_FILTER (8.0 * DBL_EPSILON)
#define INCIRCLE_FILTER (32.0 * DBL_EPSILON)
#define UNCERTAIN (-2) /* a stage of a predicate could not decide */
/* The filters bound rounding, not underflow.  A nonzero coordinate
 * difference below 2^-255 could make a product of four of them subnormal,
 * so the filters leave such inputs to the exact stage.
 *
 * hc_build decides once per cloud whether this can happen: when every
 * nonzero coordinate has magnitude at least MIN_COORD = 2^-200, no
 * difference is tiny.  Such a coordinate's ulp is at least 2^-252, so every
 * coordinate is a multiple of 2^-252.  The exact difference of two of them
 * is then 0 or at least 2^-252 in magnitude, and rounding, which is
 * monotonic, cannot take it below the representable 2^-252 > MIN_DIFF.  So
 * for those clouds the predicates skip tiny() and return exactly what they
 * return with it. */
#define MIN_DIFF 0x1p-255
#define MIN_COORD 0x1p-200

/* The exact stage runs in long double.  It multiplies up to four
 * coordinate differences, each held as two parts whose lowest bits are no
 * finer than the coordinates' (2^-1074 at worst).  With a long double
 * exponent range of at least four times a double's, as the 15-bit exponents
 * of x86-64 and aarch64 long doubles give, every such product and sum of
 * finite doubles stays within the normal range, so no expansion component
 * underflows or overflows and the sign is exact.  Where long double is
 * narrower the build stops here and _fastdel.py takes the Python path. */
_Static_assert(LDBL_MANT_DIG > DBL_MANT_DIG && LDBL_MAX_EXP > 4 * DBL_MAX_EXP + 8
                   && LDBL_MIN_EXP < 4 * (DBL_MIN_EXP - DBL_MANT_DIG - 56),
               "the exact predicates need a long double with a 15-bit exponent");
/* The integer stage's in-circle determinant needs 120 bits (see
 * incircle_fixed); where there is no 128-bit integer the build stops too. */
#ifndef __SIZEOF_INT128__
#error "the integer stage of the exact predicates needs __int128"
#endif
/* 2^ceil(p/2) + 1 for the p-bit long double significand (Dekker's split) */
#define SPLITTER ((real)(1ULL << ((LDBL_MANT_DIG + 1) / 2)) + 1.0L)

typedef long double real;

#define PX(i) pts[2 * (int64_t)(i)]
#define PY(i) pts[2 * (int64_t)(i) + 1]
#define TRI(t, j) tris[3 * (int64_t)(t) + (j)]
#define NB(t, j) neigh[3 * (int64_t)(t) + (j)]

static int tiny(double d)
{
    return d != 0.0 && fabs(d) < MIN_DIFF;
}

/* -- expansion arithmetic (Shewchuk 1997) ----------------------------------
 * An expansion is an array of nonoverlapping reals in increasing order of
 * magnitude whose exact sum is the value; zero components are dropped, and
 * zero itself is the one-component expansion {0}.  Its sign is the sign of
 * its last component.  Every routine returns the length it wrote. */

/* a + b == *hi + *lo exactly (Knuth's two-sum). */
static void two_sum(real a, real b, real *hi, real *lo)
{
    real s = a + b, bv = s - a, av = s - bv;
    *hi = s;
    *lo = (a - av) + (b - bv);
}

/* a == hi + lo, each half with at most half the significand bits. */
static void split(real a, real *hi, real *lo)
{
    real c = SPLITTER * a, big = c - a;
    *hi = c - big;
    *lo = a - *hi;
}

/* a * b == *hi + *lo exactly (Dekker's two-product). */
static void two_product(real a, real b, real *hi, real *lo)
{
    real ahi, alo, bhi, blo, p = a * b;
    split(a, &ahi, &alo);
    split(b, &bhi, &blo);
    *hi = p;
    *lo = alo * blo - (((p - ahi * bhi) - alo * bhi) - ahi * blo);
}

/* h = e * b; h holds 2 * elen components. */
static int scale_expansion(int elen, const real *e, real b, real *h)
{
    int n = 0;
    real q, hi, lo, sum;
    two_product(e[0], b, &q, &lo);
    if (lo != 0.0)
        h[n++] = lo;
    for (int i = 1; i < elen; i++) {
        two_product(e[i], b, &hi, &lo);
        two_sum(q, lo, &sum, &lo);
        if (lo != 0.0)
            h[n++] = lo;
        two_sum(hi, sum, &q, &lo);
        if (lo != 0.0)
            h[n++] = lo;
    }
    if (q != 0.0 || n == 0)
        h[n++] = q;
    return n;
}

/* h = e + f, merging the components by magnitude (fast expansion sum);
 * h holds elen + flen components and may not overlap e or f. */
static int expansion_sum(int elen, const real *e, int flen, const real *f,
                         real *h)
{
    int i = 0, j = 0, n = 0;
    real q = fabsl(e[0]) <= fabsl(f[0]) ? e[i++] : f[j++], lo;
    while (i < elen || j < flen) {
        real g = j == flen || (i < elen && fabsl(e[i]) <= fabsl(f[j]))
                       ? e[i++] : f[j++];
        two_sum(q, g, &q, &lo);
        if (lo != 0.0)
            h[n++] = lo;
    }
    if (q != 0.0 || n == 0)
        h[n++] = q;
    return n;
}

/* h = e * f; h holds 2 * elen * flen components, work 2 * elen * (flen + 1). */
static int expansion_product(int elen, const real *e, int flen,
                             const real *f, real *h, real *work)
{
    real *term = work, *acc = work + 2 * elen;
    int n = scale_expansion(elen, e, f[0], h);
    for (int j = 1; j < flen; j++) {
        int m = scale_expansion(elen, e, f[j], term);
        memcpy(acc, h, (size_t)n * sizeof *h);
        n = expansion_sum(n, acc, m, term, h);
    }
    return n;
}

/* A coordinate difference, exactly, as an expansion of one or two parts. */
typedef struct {
    int n;
    real c[2];
} Diff;

static Diff difference(double a, double b)
{
    Diff d = {0, {0.0L, 0.0L}};
    real hi, lo;
    two_sum(a, -(real)b, &hi, &lo);
    if (lo != 0.0)
        d.c[d.n++] = lo;
    d.c[d.n++] = hi;
    return d;
}

/* h = x * y - z * w; h holds 16 components. */
static int cross_difference(Diff x, Diff y, Diff z, Diff w, real *h)
{
    real xy[8], zw[8], work[12];
    int n = expansion_product(x.n, x.c, y.n, y.c, xy, work);
    int m = expansion_product(z.n, z.c, w.n, w.c, zw, work);
    for (int i = 0; i < m; i++)
        zw[i] = -zw[i];
    return expansion_sum(n, xy, m, zw, h);
}

static int sign_of(int n, const real *e)
{
    return (e[n - 1] > 0.0) - (e[n - 1] < 0.0);
}

/* Exact sign of the CCW test. */
static int orient_exact(const double *pts, int32_t a, int32_t b, int32_t c)
{
    real det[16];
    int n = cross_difference(difference(PX(a), PX(c)), difference(PY(b), PY(c)),
                             difference(PY(a), PY(c)), difference(PX(b), PX(c)),
                             det);
    return sign_of(n, det);
}

/* Exact sign of the in-circle test: the sum over the vertices v of CCW
 * (a, b, c) of |v - p|^2 times the cross product of the next two
 * vertices' offsets from p. */
static int incircle_exact(const double *pts, int32_t a, int32_t b, int32_t c,
                          int32_t p)
{
    const int32_t v[3] = {a, b, c};
    Diff dx[3], dy[3];
    for (int i = 0; i < 3; i++) {
        dx[i] = difference(PX(v[i]), PX(p));
        dy[i] = difference(PY(v[i]), PY(p));
    }
    real lift[16], minor[16], term[512], work[544], acc[1024], det[1536];
    int n = 1;
    det[0] = 0.0L;
    for (int i = 0; i < 3; i++) {
        const int j = (i + 1) % 3, k = (i + 2) % 3;
        Diff neg_dy = dy[i]; /* |v - p|^2 = dx * dx - dy * (-dy) */
        neg_dy.c[0] = -neg_dy.c[0];
        neg_dy.c[1] = -neg_dy.c[1];
        int nl = cross_difference(dx[i], dx[i], dy[i], neg_dy, lift);
        int nm = cross_difference(dx[j], dy[k], dx[k], dy[j], minor);
        int nt = expansion_product(nl, lift, nm, minor, term, work);
        memcpy(acc, det, (size_t)n * sizeof *det);
        n = expansion_sum(n, acc, nt, term, det);
    }
    return sign_of(n, det);
}

/* -- integer stage ----------------------------------------------------------
 * The determinants are homogeneous in the coordinate differences, so scaling
 * every coordinate by one power of two keeps their signs.  When that makes
 * every coordinate a small integer, as on lattices and on grids of spacing
 * 2^k, the sign is decided in integer arithmetic, far cheaper than the
 * expansions. */

/* The coordinates x[0..n), n <= 8, in fixed point: when each one is an
 * integer multiple of 2^(E - s), E the frexp exponent of their largest
 * magnitude (2^(E-1) <= max |x| < 2^E), writes those integers, each below
 * 2^s in magnitude, to q and returns 1; otherwise returns 0.  This is the
 * narrow test of forest.acute_exact: x scaled by 2^(s - E) is an integer
 * that scales back exactly.  E and the shifts are read off the bit
 * patterns, subnormals included: with frexp and ldexp, hc_births took 2.6
 * times and hc_build 1.5 times as long on a 20x20 lattice. */
static int fixed_point(const double *x, int n, int s, int64_t *q)
{
    /* the bits below the sign order finite doubles by magnitude */
    uint64_t bits[8], top = 0;
    for (int i = 0; i < n; i++) {
        memcpy(&bits[i], &x[i], sizeof bits[i]);
        const uint64_t mag = bits[i] & ~(1ULL << 63);
        top = mag > top ? mag : top;
    }
    /* E as frexp gives it, from the exponent field or, below the normal
     * range, from the bit length (any E will do when all are zero) */
    const int top_biased = (int)(top >> 52);
    const int e = top_biased ? top_biased - 1022 : 64 - __builtin_clzll(top | 1) - 1074;
    const int unit = e - s; /* each x must be a multiple of 2^unit */
    for (int i = 0; i < n; i++) {
        const int biased = (int)(bits[i] >> 52 & 0x7FF);
        uint64_t m = bits[i] & ((1ULL << 52) - 1); /* |x| = m * 2^lsb */
        if (biased)
            m |= 1ULL << 52;
        const int lsb = (biased ? biased : 1) - 1075, shift = lsb - unit;
        if (m && shift < 0) {
            if (shift <= -DBL_MANT_DIG || (m & ((1ULL << -shift) - 1)))
                return 0;
            m >>= -shift;
        } else if (m) {
            m <<= shift; /* m * 2^shift = |x| * 2^(s - E) < 2^s */
        }
        q[i] = bits[i] >> 63 ? -(int64_t)m : (int64_t)m;
    }
    return 1;
}

/* Sign of the CCW test in int64, or UNCERTAIN when the coordinates have no
 * fixed-point form with s = 28: the differences are below 2^29 and the
 * determinant below 2^59. */
static int orient_fixed(const double *pts, int32_t a, int32_t b, int32_t c)
{
    const double x[6] = {PX(a), PY(a), PX(b), PY(b), PX(c), PY(c)};
    int64_t q[6];
    if (!fixed_point(x, 6, 28, q))
        return UNCERTAIN;
    const int64_t det = (q[0] - q[4]) * (q[3] - q[5]) - (q[1] - q[5]) * (q[2] - q[4]);
    return (det > 0) - (det < 0);
}

/* Sign of the in-circle test of incircle_exact in __int128, or UNCERTAIN
 * when the coordinates have no fixed-point form with s = 28: the
 * differences are below 2^29, each lift and minor below 2^59 and the
 * determinant below 3 * 2^118 < 2^120. */
static int incircle_fixed(const double *pts, int32_t a, int32_t b, int32_t c,
                          int32_t p)
{
    const double x[8] = {PX(a), PY(a), PX(b), PY(b), PX(c), PY(c), PX(p), PY(p)};
    int64_t q[8], dx[3], dy[3];
    if (!fixed_point(x, 8, 28, q))
        return UNCERTAIN;
    for (int i = 0; i < 3; i++) {
        dx[i] = q[2 * i] - q[6];
        dy[i] = q[2 * i + 1] - q[7];
    }
    __int128 det = 0;
    for (int i = 0; i < 3; i++) {
        const int j = (i + 1) % 3, k = (i + 2) % 3;
        det += (__int128)(dx[i] * dx[i] + dy[i] * dy[i])
               * (dx[j] * dy[k] - dx[k] * dy[j]);
    }
    return (det > 0) - (det < 0);
}

/* orient() where the float filter could not decide: the integer stage, then
 * the long double stage, counted in counts[3].  Kept out of line, like
 * incircle_slow, so the filter's callers stay small. */
__attribute__((noinline))
static int orient_slow(const double *pts, int32_t a, int32_t b, int32_t c,
                       int64_t *counts)
{
    const int sgn = orient_fixed(pts, a, b, c);
    if (sgn != UNCERTAIN)
        return sgn;
    counts[3]++;
    return orient_exact(pts, a, b, c);
}

/* Sign of the CCW test of points a, b and c: the float filter, then the
 * exact stages (orient_slow), counted in counts[0].  may_underflow says
 * whether a coordinate difference can be tiny (see MIN_DIFF). */
static int orient(const double *pts, int32_t a, int32_t b, int32_t c,
                  int may_underflow, int64_t *counts)
{
    const double ax = PX(a), ay = PY(a), bx = PX(b), by = PY(b);
    const double cx = PX(c), cy = PY(c);
    if (!(may_underflow
          && (tiny(ax - cx) || tiny(by - cy) || tiny(ay - cy) || tiny(bx - cx)))) {
        double t1 = (ax - cx) * (by - cy);
        double t2 = (ay - cy) * (bx - cx);
        double det = t1 - t2;
        double bound = ORIENT_FILTER * (fabs(t1) + fabs(t2));
        if (det > bound)
            return 1;
        if (det < -bound)
            return -1;
        if (bound == 0.0)
            return 0;
    }
    counts[0]++;
    return orient_slow(pts, a, b, c, counts);
}

/* Whether point a precedes point b in (x, y) order. */
static int lex_less(const double *pts, int32_t a, int32_t b)
{
    return PX(a) < PX(b) || (PX(a) == PX(b) && PY(a) < PY(b));
}

/* incircle() where the filter found an exact 0 (sgn == 0) or could not
 * decide (sgn == UNCERTAIN): the exact stages, counted in counts[0] (the
 * integer stage, then the long double one, counted in counts[3]), then an
 * exact tie (p on the circle, counted in counts[1]) broken by lifting each
 * point by an infinitesimal that grows with its rank in (x, y) order
 * (Edelsbrunner and Mücke 1990; Devillers and Teillaud 2011).  The
 * lex-largest point then moves most: p is outside when it is that point,
 * and otherwise inside iff (a, b, c) with that vertex replaced by p stays
 * CCW.  No three points of a circle are collinear, so that test is never 0.
 * Kept out of line: inlined into hc_build's flip loop, it made uniform
 * clouds, which never get here, about 3% slower to triangulate. */
__attribute__((noinline))
static int incircle_slow(const double *pts, int32_t a, int32_t b, int32_t c,
                         int32_t p, int sgn, int may_underflow, int64_t *counts)
{
    if (sgn == UNCERTAIN) {
        counts[0]++;
        sgn = incircle_fixed(pts, a, b, c, p);
    }
    if (sgn == UNCERTAIN) {
        counts[3]++;
        sgn = incircle_exact(pts, a, b, c, p);
    }
    if (sgn != 0)
        return sgn;
    counts[1]++;
    int32_t top = p;
    if (lex_less(pts, top, a))
        top = a;
    if (lex_less(pts, top, b))
        top = b;
    if (lex_less(pts, top, c))
        top = c;
    if (top == p)
        return -1;
    return orient(pts, top == a ? p : a, top == b ? p : b, top == c ? p : c,
                  may_underflow, counts);
}

/* Whether p lies strictly inside the circle of CCW (a, b, c): +1 or -1.
 * Filtered like orient; see incircle_slow for the rest. */
static int incircle(const double *pts, int32_t a, int32_t b, int32_t c,
                    int32_t p, int may_underflow, int64_t *counts)
{
    const double px = PX(p), py = PY(p);
    const double adx = PX(a) - px, ady = PY(a) - py;
    const double bdx = PX(b) - px, bdy = PY(b) - py;
    const double cdx = PX(c) - px, cdy = PY(c) - py;
    int sgn = UNCERTAIN;
    if (!(may_underflow && (tiny(adx) || tiny(ady) || tiny(bdx) || tiny(bdy)
                            || tiny(cdx) || tiny(cdy)))) {
        double ad = adx * adx + ady * ady;
        double bd = bdx * bdx + bdy * bdy;
        double cd = cdx * cdx + cdy * cdy;
        double m1 = adx * (bdy * cd - cdy * bd);
        double m2 = ady * (bdx * cd - cdx * bd);
        double m3 = ad * (bdx * cdy - cdx * bdy);
        double det = m1 - m2 + m3;
        double mag = fabs(adx) * (fabs(bdy) * cd + fabs(cdy) * bd)
                     + fabs(ady) * (fabs(bdx) * cd + fabs(cdx) * bd)
                     + ad * (fabs(bdx) * fabs(cdy) + fabs(cdx) * fabs(bdy));
        double bound = INCIRCLE_FILTER * mag;
        if (det > bound)
            return 1;
        if (det < -bound)
            return -1;
        if (bound == 0.0)
            sgn = 0;
    }
    return incircle_slow(pts, a, b, c, p, sgn, may_underflow, counts);
}

/* Slot of the infinite vertex in a ghost triangle, or -1 for a real one. */
static int ghost_slot(const int32_t *tri, int32_t inf)
{
    for (int j = 0; j < 3; j++)
        if (tri[j] == inf)
            return j;
    return -1;
}

/* Slot of triangle t whose neighbour link points to triangle u. */
static int facing(const int32_t *neigh, int32_t t, int32_t u)
{
    return NB(t, 0) == u ? 0 : NB(t, 1) == u ? 1 : 2;
}

/* Compact the slots of hc_build in place: drop the ghosts and renumber the
 * neighbours (-1 across hull edges).  Each triangle keeps the vertex order
 * its slot had, CCW; nothing downstream reads more of it, as the births
 * depend on the triangle's point set alone (see clamped_circumradius).
 * Returns the number of triangles kept. */
static int64_t compact(int32_t n, int32_t *tris, int32_t *neigh, int64_t n_tris)
{
    int64_t k = 0;
    for (int64_t t = 0; t < n_tris; t++) {
        if (ghost_slot(&TRI(t, 0), n) >= 0)
            continue;
        k++;
        for (int j = 0; j < 3; j++)
            if (ghost_slot(&TRI(NB(t, j), 0), n) >= 0)
                NB(t, j) = -1;
    }
    /* move the real triangles above slot k into the ghost slots below it */
    for (int64_t lo = 0, hi = n_tris;; lo++) {
        while (lo < k && ghost_slot(&TRI(lo, 0), n) < 0)
            lo++;
        if (lo == k)
            break;
        do
            hi--;
        while (ghost_slot(&TRI(hi, 0), n) >= 0);
        for (int j = 0; j < 3; j++) {
            int32_t nb = NB(hi, j);
            TRI(lo, j) = TRI(hi, j);
            NB(lo, j) = nb;
            if (nb >= 0)
                NB(nb, facing(neigh, nb, (int32_t)hi)) = (int32_t)lo;
        }
    }
    return k;
}

/* Whether p lies strictly between a and b; the three are collinear, so
 * (x, y) order is their order along the line. */
static int between(const double *pts, int32_t a, int32_t p, int32_t b)
{
    return lex_less(pts, a, b) ? lex_less(pts, a, p) && lex_less(pts, p, b)
                               : lex_less(pts, b, p) && lex_less(pts, p, a);
}

static int same_point(const double *pts, int32_t a, int32_t b)
{
    return PX(a) == PX(b) && PY(a) == PY(b);
}

/* Spread the 16 low bits of v to the even bits of the result. */
static uint32_t spread_bits(uint32_t v)
{
    v = (v | (v << 8)) & 0x00FF00FFu;
    v = (v | (v << 4)) & 0x0F0F0F0Fu;
    v = (v | (v << 2)) & 0x33333333u;
    v = (v | (v << 1)) & 0x55555555u;
    return v;
}

/* (x - lo) * scale truncated to 16 bits; NaN and out-of-range values (from
 * a span that overflows) are clamped, so every point gets a key. */
static uint32_t morton_cell(double x, double lo, double scale)
{
    double v = (x - lo) * scale;
    if (!(v > 0.0))
        return 0;
    return v < 65535.0 ? (uint32_t)v : 65535u;
}

/* Sort the points stably by their Z-order keys into order and return the
 * sorted keys.  Each axis is cut into 2^16 cells over the larger of the two
 * coordinate spans, from the per-axis minimum, and the cell numbers are
 * interleaved (x in the even bits) into a 32-bit key.  The keys are sorted
 * by an LSD radix sort, one pass per key byte, with the passes whose byte is
 * the same for every key left out.  When the span is 0 (all points equal)
 * every key is 0 and the order is the identity.  key has room for 2n keys
 * and spare for n indices; the sorted keys are in one half of key. */
static const uint32_t *morton_sort(const double *pts, int32_t n, int32_t *order,
                                   uint32_t *key, int32_t *spare)
{
    for (int32_t i = 0; i < n; i++)
        order[i] = i;
    double lo_x = PX(0), hi_x = PX(0), lo_y = PY(0), hi_y = PY(0);
    for (int32_t i = 1; i < n; i++) {
        lo_x = PX(i) < lo_x ? PX(i) : lo_x;
        hi_x = PX(i) > hi_x ? PX(i) : hi_x;
        lo_y = PY(i) < lo_y ? PY(i) : lo_y;
        hi_y = PY(i) > hi_y ? PY(i) : hi_y;
    }
    const double span_x = hi_x - lo_x, span_y = hi_y - lo_y;
    const double span = span_x > span_y ? span_x : span_y;
    if (!(span > 0.0)) {
        memset(key, 0, (size_t)n * sizeof *key);
        return key;
    }
    const double scale = 65535.0 / span;
    uint32_t *key_out = key + n;
    int32_t *idx = order, *idx_out = spare;
    int64_t counts[4][256] = {{0}};
    for (int32_t i = 0; i < n; i++) {
        uint32_t k = spread_bits(morton_cell(PX(i), lo_x, scale))
                     | spread_bits(morton_cell(PY(i), lo_y, scale)) << 1;
        key[i] = k;
        for (int b = 0; b < 4; b++)
            counts[b][(k >> (8 * b)) & 0xFF]++;
    }
    for (int b = 0; b < 4; b++) {
        const int shift = 8 * b;
        if (counts[b][(key[0] >> shift) & 0xFF] == n)
            continue; /* every key has this byte: the pass keeps the order */
        int64_t start[256], sum = 0;
        for (int d = 0; d < 256; d++) {
            start[d] = sum;
            sum += counts[b][d];
        }
        for (int32_t i = 0; i < n; i++) {
            int64_t at = start[(key[i] >> shift) & 0xFF]++;
            key_out[at] = key[i];
            idx_out[at] = idx[i];
        }
        uint32_t *kt = key;
        key = key_out;
        key_out = kt;
        int32_t *it = idx;
        idx = idx_out;
        idx_out = it;
    }
    if (idx != order)
        memcpy(order, idx, (size_t)n * sizeof *order);
    return key;
}

/* A point of a run of equal keys, for sorting the run by coordinates. */
typedef struct {
    double x, y;
    int32_t i;
} run_point;

static int compare_run_points(const void *pa, const void *pb)
{
    const run_point *a = pa, *b = pb;
    if (a->x != b->x)
        return a->x < b->x ? -1 : 1;
    if (a->y != b->y)
        return a->y < b->y ? -1 : 1;
    return (a->i > b->i) - (a->i < b->i);
}

/* Mark the repeats among the points idx[0..len), which share one key: every
 * point equal (==, so -0.0 equals 0.0) to one of lower index.  The run is
 * sorted by (x, y, index) in scratch space, grown as needed, so the first
 * of each group of equal points is its earliest.  Returns 0, or -1 when
 * there is no memory for the scratch space. */
static int mark_run_repeats(const double *pts, const int32_t *idx, int32_t len,
                            uint8_t *repeat, run_point **scratch, int32_t *cap)
{
    if (len > *cap) {
        free(*scratch);
        *scratch = malloc((size_t)len * sizeof **scratch);
        *cap = *scratch ? len : 0;
        if (!*scratch)
            return -1;
    }
    run_point *run = *scratch;
    for (int32_t j = 0; j < len; j++)
        run[j] = (run_point){PX(idx[j]), PY(idx[j]), idx[j]};
    qsort(run, (size_t)len, sizeof *run, compare_run_points);
    for (int32_t j = 1; j < len; j++)
        if (run[j].x == run[j - 1].x && run[j].y == run[j - 1].y)
            repeat[run[j].i] = 1;
    return 0;
}

/* The insertion order along a Z-order curve, which keeps successive points
 * close so the builder's locate walk is short, and the repeated points,
 * from one sort (see morton_sort).  Equal points have equal keys, so a
 * point equal to an earlier one lies in that point's run of equal keys;
 * repeat[i] is set to 1 for each such point and to 0 for the rest, the
 * first occurrences.  order[0..m) then holds the Morton order of the m kept
 * points, numbered by their position among them: the order morton_sort
 * gives the cloud without its repeats, whose lo and span are those of the
 * whole cloud.  Returns m, or -1 when there is no memory for the scratch
 * space. */
static int32_t morton_dedup(const double *pts, int32_t n, int32_t *order, uint8_t *repeat)
{
    if (n <= 0)
        return 0;
    uint32_t *keys = malloc(2 * (size_t)n * sizeof *keys);
    int32_t *spare = malloc((size_t)n * sizeof *spare);
    run_point *scratch = NULL;
    int32_t cap = 0, kept = -1;
    if (keys && spare) {
        const uint32_t *key = morton_sort(pts, n, order, keys, spare);
        memset(repeat, 0, (size_t)n);
        int failed = 0;
        for (int32_t s = 0, e; s < n && !failed; s = e) {
            for (e = s + 1; e < n && key[e] == key[s]; e++)
                ;
            if (e - s > 1)
                failed = mark_run_repeats(pts, order + s, e - s, repeat, &scratch, &cap);
        }
        if (!failed) {
            int32_t *rank = spare; /* free again once the keys are sorted */
            kept = 0;
            for (int32_t i = 0; i < n; i++) {
                rank[i] = kept;
                kept += !repeat[i];
            }
            if (kept < n)
                for (int32_t k = 0, j = 0; k < n; k++)
                    if (!repeat[order[k]])
                        order[j++] = rank[order[k]];
        }
    }
    free(keys);
    free(spare);
    free(scratch);
    return kept;
}

/* Insert the points in the given order, then compact the slots.
 *
 * Triangle slots hold vertex indices, with index n standing for the infinite
 * vertex of ghost triangles (two hull vertices plus infinity), so the splits
 * and the flips treat the outside uniformly.  neigh[t, j] is the triangle
 * across the edge opposite vertex j.  A point strictly inside a triangle,
 * real or ghost, splits it into three: one keeps its slot and two take new
 * ones.  A point exactly on an edge splits the edge's two triangles into
 * four (on a hull edge, the real triangle and the ghost), again two new
 * slots, so the 2n - 2 slots of the finished triangulation are all live.  A
 * point on the line of a hull edge but beyond its ends is located by
 * walking along the hull to a ghost it lies strictly beyond.  Lawson flips
 * (Guibas, Knuth and Sharir 1992) then make every edge opposite the point
 * Delaunay; a ghost's circle is the open half-plane beyond its hull edge,
 * so points on a hull edge's line stay on the hull, and in-circle ties are
 * broken by the perturbation in incircle().  The result is the Delaunay
 * triangulation of the perturbed points, whatever the insertion order.
 *
 * On STATUS_OK the first *n_tris_out rows hold the real triangles,
 * compacted as above.  counts[0] receives the number of predicates the
 * float filter left to the exact stages, counts[1] the number of in-circle
 * ties the perturbation broke, counts[2] 1 when the filters' underflow
 * check was armed (a nonzero coordinate below MIN_COORD), else 0, and
 * counts[3] the number of predicates the integer stage left to the long
 * double one.
 * STATUS_COLLINEAR means the points lie on one line, so there is no
 * triangle; STATUS_DECLINED that a point repeats (or there are fewer than 3),
 * so no triangulation has every point a vertex.
 */
static int32_t build_triangulation(const double *pts, int32_t n, const int32_t *order,
                                   int32_t *tris, int32_t *neigh, int64_t cap,
                                   int64_t *n_tris_out, int64_t *counts)
{
    const int32_t inf = n;
    int64_t n_tris = 0;
    int32_t status = STATUS_OK;
    *n_tris_out = 0;
    counts[0] = counts[1] = counts[2] = counts[3] = 0;
    if (n < 3)
        return STATUS_DECLINED;
    if (cap < 2 * (int64_t)n - 2)
        return STATUS_OVERFLOW;
    int may_underflow = 0;
    for (int64_t i = 0; i < 2 * (int64_t)n; i++)
        may_underflow |= pts[i] != 0.0 && fabs(pts[i]) < MIN_COORD;
    counts[2] = may_underflow;

    /* First triangle from the first non-collinear triple in insertion
     * order; points skipped on the way are inserted with the rest. */
    int32_t a = order[0], b = order[1], c = -1;
    int64_t third = 2;
    int sgn = 0;
    for (; third < n; third++) {
        c = order[third];
        sgn = orient(pts, a, b, c, may_underflow, counts);
        if (sgn != 0)
            break;
    }
    if (third >= n)
        return STATUS_COLLINEAR;
    if (sgn < 0) {
        int32_t tmp = b;
        b = c;
        c = tmp;
    }
    /* triangles around the point being inserted whose far edge is still to
     * be tested; they are distinct, so there are at most n of them */
    int32_t *stack = malloc((size_t)n * sizeof *stack);
    if (!stack)
        return STATUS_OVERFLOW;
    const int32_t first[4][3] = {{a, b, c}, {c, b, inf}, {a, c, inf}, {b, a, inf}};
    /* ghost (c,b,inf): edge opposite c is (b,inf), shared with the ghost of
     * edge (a,b); opposite b is (inf,c), shared with the ghost of (c,a);
     * opposite inf is (c,b), shared with the real triangle. */
    const int32_t first_nb[4][3] = {{1, 2, 3}, {3, 2, 0}, {1, 3, 0}, {2, 1, 0}};
    for (int t = 0; t < 4; t++)
        for (int j = 0; j < 3; j++) {
            TRI(t, j) = first[t][j];
            NB(t, j) = first_nb[t][j];
        }
    n_tris = 4;
    int64_t last = 0;

    for (int64_t idx = 2; idx < n; idx++) {
        if (idx == third)
            continue;
        const int32_t p = order[idx];

        /* -- locate: walk from a triangle around the last point to one that
         * contains p, strictly (on = -1) or on its edge opposite slot on */
        int64_t t = last;
        int on = -1;
        int64_t guard = 0;
        const int64_t max_guard = 4 * n_tris + 64;
        for (;;) {
            /* exact predicates cannot make the walk cycle; a guard anyway */
            if (++guard > max_guard) {
                status = STATUS_DECLINED;
                goto done;
            }
            on = -1;
            int g = ghost_slot(&TRI(t, 0), inf);
            if (g >= 0) {
                /* in this ghost's outer wedge iff left of its hull edge */
                int32_t x = TRI(t, (g + 1) % 3), y = TRI(t, (g + 2) % 3);
                sgn = orient(pts, x, y, p, may_underflow, counts);
                if (sgn > 0)
                    break;
                if (sgn < 0) {
                    t = NB(t, g); /* step back inside across the finite edge */
                    continue;
                }
                if (same_point(pts, p, x) || same_point(pts, p, y)) {
                    status = STATUS_DECLINED;
                    goto done;
                }
                if (between(pts, x, p, y)) {
                    on = g;
                    break;
                }
                /* on the edge's line beyond one end: to the next hull edge
                 * at that end, across the ghost edge (end, inf) */
                t = between(pts, x, y, p) ? NB(t, (g + 1) % 3) : NB(t, (g + 2) % 3);
                continue;
            }
            int moved = 0, zeros = 0;
            for (int j = 0; j < 3; j++) {
                int32_t u = TRI(t, (j + 1) % 3), w = TRI(t, (j + 2) % 3);
                sgn = orient(pts, u, w, p, may_underflow, counts);
                if (sgn < 0) {
                    t = NB(t, j);
                    moved = 1;
                    break;
                }
                if (sgn == 0) {
                    on = j;
                    zeros++;
                }
            }
            if (moved)
                continue;
            if (zeros > 1) { /* p is a vertex of t */
                status = STATUS_DECLINED;
                goto done;
            }
            break;
        }

        /* -- split: (p, ring[i], ring[i+1]) in slot[i], across the ring edge
         * from out[i], whose link back is neigh[out[i], back[i]] ---------- */
        int32_t ring[4], out[4], slot[4], back[4];
        int len;
        if (on < 0) {
            len = 3;
            for (int j = 0; j < 3; j++) {
                ring[j] = TRI(t, (j + 1) % 3);
                out[j] = NB(t, j);
                back[j] = facing(neigh, out[j], (int32_t)t);
            }
            slot[0] = (int32_t)t;
            slot[1] = (int32_t)n_tris;
            slot[2] = (int32_t)n_tris + 1;
        } else {
            /* t = (r0, r1, r3) and o = (r2, r3, r1) share the edge (r1, r3) */
            const int32_t o = NB(t, on);
            const int f = facing(neigh, o, (int32_t)t);
            const int32_t owner[4] = {(int32_t)t, o, o, (int32_t)t};
            len = 4;
            ring[0] = TRI(t, on);
            ring[1] = TRI(t, (on + 1) % 3);
            ring[2] = TRI(o, f);
            ring[3] = TRI(t, (on + 2) % 3);
            out[0] = NB(t, (on + 2) % 3);
            out[1] = NB(o, (f + 1) % 3);
            out[2] = NB(o, (f + 2) % 3);
            out[3] = NB(t, (on + 1) % 3);
            for (int i = 0; i < 4; i++)
                back[i] = facing(neigh, out[i], owner[i]);
            slot[0] = (int32_t)t;
            slot[1] = (int32_t)n_tris;
            slot[2] = o;
            slot[3] = (int32_t)n_tris + 1;
        }
        for (int i = 0; i < len; i++) {
            TRI(slot[i], 0) = p;
            TRI(slot[i], 1) = ring[i];
            TRI(slot[i], 2) = ring[(i + 1) % len];
            NB(slot[i], 0) = out[i];
            NB(slot[i], 1) = slot[(i + 1) % len];
            NB(slot[i], 2) = slot[(i + len - 1) % len];
            NB(out[i], back[i]) = slot[i];
            stack[i] = slot[i];
        }
        n_tris += 2;

        /* -- flip: (p, u, w) and (q, w, u) become (p, u, q) and (p, q, w)
         * while q's triangle has p in its circle --------------------------- */
        int64_t n_stack = len;
        while (n_stack > 0) {
            const int32_t r = stack[--n_stack], o = NB(r, 0);
            const int f = facing(neigh, o, r);
            int g = ghost_slot(&TRI(o, 0), inf);
            if (g >= 0)
                sgn = orient(pts, TRI(o, (g + 1) % 3), TRI(o, (g + 2) % 3), p,
                             may_underflow, counts);
            else
                sgn = incircle(pts, TRI(o, 0), TRI(o, 1), TRI(o, 2), p, may_underflow,
                               counts);
            if (sgn <= 0)
                continue;
            const int32_t u = TRI(r, 1), w = TRI(r, 2), q = TRI(o, f);
            const int32_t ru = NB(r, 2), rw = NB(r, 1);
            const int32_t ou = NB(o, (f + 1) % 3), ow = NB(o, (f + 2) % 3);
            NB(ou, facing(neigh, ou, o)) = r;
            NB(rw, facing(neigh, rw, r)) = o;
            const int32_t new_r[3] = {p, u, q}, new_r_nb[3] = {ou, o, ru};
            const int32_t new_o[3] = {p, q, w}, new_o_nb[3] = {ow, rw, r};
            for (int j = 0; j < 3; j++) {
                TRI(r, j) = new_r[j];
                NB(r, j) = new_r_nb[j];
                TRI(o, j) = new_o[j];
                NB(o, j) = new_o_nb[j];
            }
            stack[n_stack++] = r;
            stack[n_stack++] = o;
        }
        last = t;
    }

done:
    free(stack);
    if (status == STATUS_OK)
        *n_tris_out = compact(n, tris, neigh, n_tris);
    return status;
}

/* One row per undirected edge, contributed by the incident triangle with
 * the smaller id (hull edges by their only triangle, second face -1), in
 * the same order as the numpy edge table in delaunay.py: its two faces and
 * its squared length.  Writes at most `cap` rows and returns how many edges
 * there are in all: (3k + h) / 2 for h hull edges when every neighbour link
 * is mutual. */
static int64_t fill_edge_table(const double *pts, int64_t k, const int32_t *tris,
                               const int32_t *neigh, int64_t cap, int32_t *edge_faces,
                               double *length_sq)
{
    int64_t e = 0;
    for (int64_t t = 0; t < k; t++) {
        for (int j = 0; j < 3; j++) {
            int32_t nb = NB(t, j);
            if (nb >= 0 && nb <= t)
                continue;
            if (e < cap) {
                int32_t u = TRI(t, (j + 1) % 3), v = TRI(t, (j + 2) % 3);
                double dx = PX(v) - PX(u);
                double dy = PY(v) - PY(u);
                edge_faces[2 * e] = (int32_t)t;
                edge_faces[2 * e + 1] = nb < 0 ? -1 : nb;
                length_sq[e] = dx * dx + dy * dy;
            }
            e++;
        }
    }
    return e;
}

/* |(q - p) x (r - p)|: twice the area of the triangle p, q, r, taken at p. */
static double cross_at(double px, double py, double qx, double qy, double rx,
                       double ry)
{
    return fabs((qx - px) * (ry - py) - (qy - py) * (rx - px));
}

/* max(circumradius, half the longest edge) of the triangle a, b, c with
 * squared sides ab, bc and ca, the longest of them longest:
 * R = sqrt(ab bc ca) / (2 |cross|), cross twice the signed area.  It reads
 * the point set alone: |cross| is taken at the vertex opposite a longest
 * side (the largest such value where longest sides tie; fmax skips the
 * NaN it starts from), and the product is (lo * mid) * hi in ascending
 * order, the two sides beside a longest one times the longest.  Relabelling
 * the vertices and the eight axis maps only negate and swap coordinate
 * differences, so they leave the value bit for bit.
 *
 * Error, with u = 2^-53 and no underflow or overflow: each squared side
 * carries a relative error below 4u, the product 14u and its square root
 * 8u.  A born triangle is acute, so the angle theta opposite a longest
 * side, the largest, lies in [60, 90) degrees.  With d1, d2 the differences
 * there, each product in cross carries 3u, and |d1x d2y| + |d1y d2x| <=
 * |d1| |d2| = |cross| / sin(theta) <= (2 / sqrt 3) |cross|, so cross
 * carries (1 + 2 sqrt 3) u < 4.5u.  With the division's u the quotient is
 * within 13.5u of R to first order; the clamp keeps that, as R >= half the
 * longest edge, which carries 3u.  So |birth - R| <= 14u R: 14 ulp at most.
 *
 * The rounded quotient may dip just below half the longest edge, which
 * would flip this death against its own edge's scale; the comparison takes
 * the half edge then, and where the quotient is NaN (0/0 or inf/inf).  Same
 * operations, in the same order, as forest._clamped_circumradius. */
static double clamped_circumradius(double ax, double ay, double bx, double by,
                                   double cx, double cy, double ab, double bc,
                                   double ca, double longest)
{
    double cross = NAN, beside = 0.0;
    if (bc == longest) {
        cross = cross_at(ax, ay, bx, by, cx, cy);
        beside = ab * ca;
    }
    if (ca == longest) {
        cross = fmax(cross, cross_at(bx, by, cx, cy, ax, ay));
        beside = ab * bc;
    }
    if (ab == longest) {
        cross = fmax(cross, cross_at(cx, cy, ax, ay, bx, by));
        beside = bc * ca;
    }
    double radius = sqrt(beside * longest) / (2.0 * cross);
    double half_longest = 0.5 * sqrt(longest);
    return radius > half_longest ? radius : half_longest;
}

/* Whether the triangle with fixed-point vertices q = (ax, ay, bx, by, cx,
 * cy), each below 2^30, is strictly acute: its three vertex dot products
 * are positive, as in forest._dots_positive.  The differences are below
 * 2^31, so each dot product is below 2^63. */
static int acute_fixed(const int64_t *q)
{
    const int64_t ux = q[2] - q[0], uy = q[3] - q[1], vx = q[4] - q[2];
    const int64_t vy = q[5] - q[3], wx = q[0] - q[4], wy = q[1] - q[5];
    return ux * wx + uy * wy < 0 && vx * ux + vy * uy < 0 && wx * vx + wy * vy < 0;
}

/* Per-triangle birth scale: circumradius if acute, 0 otherwise, whatever
 * order the triangle lists its vertices in.  Outside the relative band of a
 * right angle the float test decides correctly in any order; a triangle
 * within the band is decided exactly when its coordinates have a
 * fixed-point form with s = 30 (the int64 branch of forest.acute_exact);
 * the others are marked NaN for the caller to re-decide.  Returns the
 * number of band triangles decided here.  Same operations, in the same
 * order, as the numpy fallback in forest.triangle_births. */
static int64_t triangle_births(const double *pts, int64_t k, const int32_t *tris,
                               double band, double *births)
{
    int64_t decided = 0;
    for (int64_t t = 0; t < k; t++) {
        int32_t i = TRI(t, 0), j = TRI(t, 1), l = TRI(t, 2);
        double ax = PX(i), ay = PY(i), bx = PX(j), by = PY(j);
        double cx = PX(l), cy = PY(l);
        double ab = (bx - ax) * (bx - ax) + (by - ay) * (by - ay);
        double bc = (cx - bx) * (cx - bx) + (cy - by) * (cy - by);
        double ca = (ax - cx) * (ax - cx) + (ay - cy) * (ay - cy);
        double total = ab + bc + ca;
        double longest = bc > ca ? bc : ca;
        longest = ab > longest ? ab : longest;
        double gap = total - 2.0 * longest;
        if (fabs(gap) <= band * total) {
            const double x[6] = {ax, ay, bx, by, cx, cy};
            int64_t q[6];
            if (fixed_point(x, 6, 30, q)) {
                decided++;
                births[t] = acute_fixed(q) ? clamped_circumradius(ax, ay, bx, by, cx, cy,
                                                                  ab, bc, ca, longest)
                                           : 0.0;
            } else {
                births[t] = NAN;
            }
        } else if (gap > band * total) {
            births[t] = clamped_circumradius(ax, ay, bx, by, cx, cy, ab, bc, ca, longest);
        } else {
            births[t] = 0.0;
        }
    }
    return decided;
}

/* Descending sweep over edges in the given order, array union-find: union
 * by weight, no path compression, elder rule on white merges, exactly as
 * the DualForest reference in forest.py.  Face id -1 (the unbounded
 * region) maps to node k, whose birth is +inf and is not stored in
 * `births`.  Writes the (birth, death) pairs with death > birth and returns
 * their number, and the longest root walk of any find in *max_steps_out. */
static int64_t sweep_edges(int64_t m, const int32_t *order, const int32_t *edge_faces,
                           const double *length_sq, int32_t k, int32_t *parent,
                           int32_t *weight, double *births, double *pairs,
                           int64_t *max_steps_out)
{
#define BIRTH(x) ((x) == k ? INFINITY : births[x])
#define SET_BIRTH(x, value) \
    do { \
        if ((x) != k) \
            births[x] = (value); \
    } while (0)
    int64_t n_pairs = 0, links = 0, max_steps = 0;
    for (int64_t i = 0; i < m && links < k; i++) {
        int32_t e = order[i];
        int32_t u = edge_faces[2 * (int64_t)e], v = edge_faces[2 * (int64_t)e + 1];
        if (u < 0)
            u = k;
        if (v < 0)
            v = k;
        double alpha = 0.5 * sqrt(length_sq[e]);
        int64_t steps = 0;
        int32_t r = u, q = v;
        while (parent[r] != r) {
            r = parent[r];
            steps++;
        }
        if (steps > max_steps)
            max_steps = steps;
        steps = 0;
        while (parent[q] != q) {
            q = parent[q];
            steps++;
        }
        if (steps > max_steps)
            max_steps = steps;
        if (r == q)
            continue;
        double bu = BIRTH(r), bv = BIRTH(q);
        if (bu == 0.0) {
            if (bv == 0.0) { /* Case 3: two gray singletons */
                parent[q] = r;
                SET_BIRTH(r, alpha);
                SET_BIRTH(q, alpha);
                weight[r] = 1;
            } else { /* Case 2: gray u joins the white region of v */
                parent[r] = q;
                SET_BIRTH(r, bv);
                weight[q] += 1;
            }
        } else if (bv == 0.0) { /* Case 2 mirrored */
            parent[q] = r;
            SET_BIRTH(q, bu);
            weight[r] += 1;
        } else { /* Case 4: white regions merge, the younger dies */
            double younger = bu < bv ? bu : bv;
            if (younger > alpha) { /* zero-persistence pairs are dropped */
                pairs[2 * n_pairs] = alpha;
                pairs[2 * n_pairs + 1] = younger;
                n_pairs++;
            }
            double elder = bu > bv ? bu : bv;
            if (weight[r] > weight[q]) {
                parent[q] = r;
                weight[r] += weight[q] + 1;
                SET_BIRTH(r, elder);
            } else {
                parent[r] = q;
                weight[q] += weight[r] + 1;
                SET_BIRTH(q, elder);
            }
        }
        links++;
    }
    *max_steps_out = max_steps;
    return n_pairs;
#undef BIRTH
#undef SET_BIRTH
}

/* The staircase of m off-diagonal pairs (birth < death) by one merge of two
 * ascending runs: the births, pairs[2i], which Diagram keeps sorted, and
 * `deaths`, sorted by the caller.  It writes the distinct values of both, in
 * ascending order, to `breakpoints` (2m slots) and, for every breakpoint,
 * the number of pairs with birth <= alpha < death from there to the next
 * one to `counts` (2m slots; the last one, past the largest death, is 0):
 * np.unique's staircase in diagrams.staircase, without its sort of all 2m
 * values and its inverse.
 *
 * Each interval's share of the full range, (b[i+1] - b[i]) / (b[last] -
 * b[0]), is then added to sums[counts[i]], in interval order, as np.bincount
 * adds its weights, starting from 0.0; `present` lists each count at its
 * first interval.  sums holds m + 1 negative entries on entry, which mark
 * the counts not seen yet (a sum of shares is never negative), and present
 * m + 1 slots.
 *
 * Returns the number of breakpoints, with the length of present in
 * *n_present_out.  Returns -1 on input that breaks this contract: births
 * out of order, negative or NaN, deaths out of order or NaN, the largest
 * death not above the largest birth, or a count below 0 (a death below its
 * own birth); also on a birth of -0.0, which np.unique may place on either
 * side of 0.0.  The caller then takes the reference path. */
static int64_t merge_staircase(int64_t m, const double *pairs, const double *deaths,
                               double *breakpoints, int64_t *counts, double *sums,
                               int64_t *present, int64_t *n_present_out)
{
    *n_present_out = 0;
    if (m == 0)
        return 0;
    /* no early exit, so that the checks vectorise */
    int bad = !(pairs[0] >= 0.0) || signbit(pairs[0])
              || !(deaths[m - 1] > pairs[2 * (m - 1)]);
    for (int64_t i = 1; i < m; i++)
        bad |= (signbit(pairs[2 * i]) != 0) | !(pairs[2 * i] >= pairs[2 * i - 2])
               | !(deaths[i] >= deaths[i - 1]);
    if (bad)
        return -1;
    /* Each value goes to slot n, which moves on only when the value
     * changes, so the last write to a slot carries the count after every
     * value equal to it; births go first on a tie.  Branch-free, as the
     * comparison of the two heads is a coin toss on most diagrams.  While
     * births remain, so does a death: the largest death is above them. */
    int64_t i = 0, j = 0, n = -1, count = 0;
    double last = NAN; /* unequal to the first value */
    while (i < m) {
        double b = pairs[2 * i], d = deaths[j];
        int64_t take_birth = b <= d;
        double v = take_birth ? b : d;
        n += v != last;
        last = v;
        count += 2 * take_birth - 1;
        breakpoints[n] = v;
        counts[n] = count;
        i += take_birth;
        j += 1 - take_birth;
    }
    for (; j < m; j++) {
        n += deaths[j] != last;
        last = deaths[j];
        breakpoints[n] = last;
        counts[n] = --count;
    }
    n++;
    const double total = breakpoints[n - 1] - breakpoints[0];
    int64_t n_present = 0;
    for (int64_t t = 0; t + 1 < n; t++) {
        int64_t c = counts[t];
        if (c < 0 || c > m)
            return -1;
        if (sums[c] < 0.0) {
            present[n_present++] = c;
            sums[c] = 0.0;
        }
        sums[c] += (breakpoints[t + 1] - breakpoints[t]) / total;
    }
    *n_present_out = n_present;
    return n;
}

/* The bottleneck distance of two diagrams, the float of the reference in
 * diagrams.bottleneck_distance.
 *
 * p1 (m1, 2) and p2 (m2, 2) hold off-diagonal pairs sorted by birth, as
 * Diagram.off_diagonal keeps them.  A pair costs (death - birth) / 2.0 to
 * send to the diagonal, and two pairs cost their L-infinity distance, the
 * larger of the absolute birth and death differences, rounded as numpy
 * rounds it.  At a threshold delta a point is forced when its diagonal
 * cost exceeds delta, and delta is feasible when the edges of cost <= delta
 * match every forced point across.  By Mendelsohn-Dulmage that holds
 * exactly when one matching covers the forced points of p1 and one covers
 * those of p2, so each test is two Hopcroft-Karp runs, one per side
 * (covers).  The distance is the smallest feasible candidate: a diagonal
 * cost or an edge cost.
 *
 * The steps follow the reference's:
 *   - Rounds of mutual nearest neighbours, each on the points the earlier
 *     rounds left unpaired, until a round pairs none (at most
 *     BOTTLENECK_ROUNDS), give a matching of cost U, an upper bound.
 *   - Each point pays at least its cheapest option, the diagonal or its
 *     nearest neighbour across, which bounds the result from below: the
 *     reference's cheapest kept edge is that neighbour whenever it is
 *     cheaper than the diagonal.
 *   - A test at delta uses only the edges of cost <= delta from a forced
 *     point, and their cost is below that point's diagonal cost.  The
 *     reference keeps every edge of cost <= U with cost < max(diag_i,
 *     diag_j), which decides every delta <= U.  Here a threshold t starts
 *     at the lower bound, which is often the answer, and while t is not
 *     feasible its gap above the bound grows: an eighth of the bound, then
 *     twice the last gap, at most U.  For the tests in [t_prev, t] each
 *     point whose diagonal cost exceeds t_prev lists its edges of cost <= t
 *     below that cost, so the edges kept stay close to the answer in
 *     cost.
 *   - The sorted distinct candidates in the last step (t_prev, t] are
 *     bisected.
 * The result is the smallest feasible candidate whatever U and the steps
 * of t are, so it is the reference's bit for bit.  As the births are
 * sorted, the nearest-neighbour and edge searches scan outward from a
 * binary-searched birth; no spatial tree is built.
 *
 * out[0] gets the distance and out[1] U; counts[0] the number of edges the
 * last graph lists (once for each endpoint that can be forced), counts[1]
 * the rounds run and counts[2] the feasibility tests.  Returns STATUS_OK;
 * STATUS_DECLINED on births out of order, a death below its birth, a value
 * that is not finite or more than 2^31 - 1 pairs; or STATUS_OVERFLOW when
 * there is no memory for the O(m1 + m2 + edges) scratch space, which is
 * freed before it returns. */

#define BOTTLENECK_ROUNDS 64 /* at most this many nearest-neighbour rounds */

static double linf(const double *a, const double *b)
{
    double db = fabs(a[0] - b[0]), dd = fabs(a[1] - b[1]);
    return dd > db ? dd : db;
}

/* The first k of [0, n) whose pair p[idx[k]] (p[k] when idx is NULL) has a
 * birth >= x. */
static int64_t first_birth_at(const double *p, const int32_t *idx, int64_t n, double x)
{
    int64_t lo = 0, hi = n;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (p[2 * (int64_t)(idx ? idx[mid] : mid)] < x)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* The pair p[alive[k]] nearest to q, scanning outward from q's birth; the
 * first one found wins a tie.  Its distance goes to *dist. */
static int32_t nearest(const double *q, const double *p, const int32_t *alive,
                       int64_t n, double *dist)
{
    int64_t start = first_birth_at(p, alive, n, q[0]);
    double best = INFINITY;
    int32_t arg = -1;
    for (int64_t step = 1; step >= -1; step -= 2)
        for (int64_t k = step > 0 ? start : start - 1; k >= 0 && k < n; k += step) {
            const double *r = p + 2 * (int64_t)alive[k];
            if (fabs(r[0] - q[0]) >= best)
                break;
            double c = linf(q, r);
            if (c < best) {
                best = c;
                arg = alive[k];
            }
        }
    *dist = best;
    return arg;
}

/* U: the cost of the rounds of mutual nearest neighbours.  A pair costs the
 * lesser of its edge and sending both points to the diagonal; every point
 * left unpaired goes to the diagonal.  The first round, over all points,
 * also writes each point's nearest distance across to near1 and near2.
 * alive1 is scratch of m1 entries, alive2 and nn2 of m2 each. */
static double upper_bound(int64_t m1, const double *p1, const double *d1, int64_t m2,
                          const double *p2, const double *d2, double *near1,
                          double *near2, int32_t *alive1, int32_t *alive2,
                          int32_t *nn2, int64_t *rounds)
{
    int64_t n1 = m1, n2 = m2, round = 0;
    double bound = 0.0, c;
    for (int64_t k = 0; k < m1; k++)
        alive1[k] = (int32_t)k;
    for (int64_t k = 0; k < m2; k++)
        alive2[k] = (int32_t)k;
    while (round < BOTTLENECK_ROUNDS && n1 > 0 && n2 > 0) {
        for (int64_t k = 0; k < n2; k++) {
            int32_t j = alive2[k];
            nn2[j] = nearest(p2 + 2 * (int64_t)j, p1, alive1, n1, &c);
            if (round == 0)
                near2[j] = c;
        }
        int64_t paired = 0, kept = 0;
        for (int64_t k = 0; k < n1; k++) {
            int32_t i = alive1[k];
            int32_t j = nearest(p1 + 2 * (int64_t)i, p2, alive2, n2, &c);
            if (round == 0)
                near1[i] = c;
            if (nn2[j] == i) {
                double diag = d1[i] > d2[j] ? d1[i] : d2[j];
                double cost = c < diag ? c : diag;
                if (cost > bound)
                    bound = cost;
                nn2[j] = -1; /* paired */
                paired++;
            } else {
                alive1[kept++] = i;
            }
        }
        n1 = kept;
        kept = 0;
        for (int64_t k = 0; k < n2; k++)
            if (nn2[alive2[k]] >= 0)
                alive2[kept++] = alive2[k];
        n2 = kept;
        round++;
        if (!paired)
            break;
    }
    for (int64_t k = 0; k < n1; k++)
        if (d1[alive1[k]] > bound)
            bound = d1[alive1[k]];
    for (int64_t k = 0; k < n2; k++)
        if (d2[alive2[k]] > bound)
            bound = d2[alive2[k]];
    *rounds = round;
    return bound;
}

/* The rows of one side's tests at every delta in [below, t]: each point u
 * of P whose diagonal cost exceeds `below`, so that it can be forced, lists
 * the points v of Q with cost <= t and cost < dP[u], the only edges a test
 * uses from it.  Row u is adj[off[u] .. off[u + 1]).  Without `adj` it
 * only counts the edges. */
static int64_t scan_rows(double below, double t, int64_t mP, const double *P,
                         const double *dP, int64_t mQ, const double *Q, int64_t *off,
                         int32_t *adj)
{
    int64_t n = 0;
    for (int64_t u = 0; u < mP; u++) {
        if (adj)
            off[u] = n;
        if (!(dP[u] > below))
            continue;
        const double *q = P + 2 * u;
        double r = dP[u] < t ? dP[u] : t;
        int64_t start = first_birth_at(Q, NULL, mQ, q[0]);
        for (int64_t step = 1; step >= -1; step -= 2)
            for (int64_t v = step > 0 ? start : start - 1; v >= 0 && v < mQ; v += step) {
                if (fabs(Q[2 * v] - q[0]) > r)
                    break;
                double c = linf(q, Q + 2 * v);
                if (c <= t && c < dP[u]) {
                    if (adj)
                        adj[n] = (int32_t)v;
                    n++;
                }
            }
    }
    if (adj)
        off[mP] = n;
    return n;
}

/* Both sides' rows for tests in [below, t]: p1's against p2 (off1, adj1)
 * and p2's against p1 (off2, adj2); an edge is listed once for each
 * endpoint that can be forced. */
typedef struct {
    int64_t *off1, *off2;
    int32_t *adj1, *adj2;
    int64_t n1, n2;
} Graph;

/* Rebuilds the graph: one scan counts each side's edges, the next writes
 * them into arrays of exactly that size. */
static int build_graph(Graph *g, double below, double t, int64_t m1, const double *p1,
                       const double *d1, int64_t m2, const double *p2, const double *d2)
{
    free(g->adj1);
    free(g->adj2);
    g->n1 = scan_rows(below, t, m1, p1, d1, m2, p2, NULL, NULL);
    g->n2 = scan_rows(below, t, m2, p2, d2, m1, p1, NULL, NULL);
    g->adj1 = malloc((size_t)g->n1 * sizeof *g->adj1 + 1);
    g->adj2 = malloc((size_t)g->n2 * sizeof *g->adj2 + 1);
    if (!g->adj1 || !g->adj2)
        return -1;
    scan_rows(below, t, m1, p1, d1, m2, p2, g->off1, g->adj1);
    scan_rows(below, t, m2, p2, d2, m1, p1, g->off2, g->adj2);
    return 0;
}

/* One side of the feasibility test: rows are that side's points, columns
 * the other side's, and each row's edges a run of a CSR array. */
typedef struct {
    int64_t rows, cols;
    const double *p, *q; /* the rows' pairs and the columns' pairs */
    const double *diag, *nearest; /* the nearest column's distance */
    const int64_t *off;
    const int32_t *adj;
} Side;

/* Scratch of covers, each array as long as the longer side. */
typedef struct {
    int32_t *forced, *match_row, *match_col, *dist, *queue, *stack;
    int64_t *next;
} Matching;

/* Whether the edges of cost <= delta hold a matching that covers every row
 * whose diagonal cost exceeds delta: Hopcroft-Karp on the forced rows. */
static int covers(const Side *s, double delta, Matching *w)
{
    int64_t n = 0;
    for (int64_t u = 0; u < s->rows; u++)
        if (s->diag[u] > delta) {
            if (!(s->nearest[u] <= delta))
                return 0;
            w->forced[n++] = (int32_t)u;
        }
    if (n == 0)
        return 1;
    if (n > s->cols)
        return 0;
    for (int64_t v = 0; v < s->cols; v++)
        w->match_col[v] = -1;
    int64_t unmatched = 0;
    for (int64_t k = 0; k < n; k++) { /* greedy start */
        int32_t u = w->forced[k];
        const double *pu = s->p + 2 * (int64_t)u;
        w->match_row[u] = -1;
        for (int64_t e = s->off[u]; e < s->off[u + 1]; e++) {
            int32_t v = s->adj[e];
            if (w->match_col[v] < 0 && linf(pu, s->q + 2 * (int64_t)v) <= delta) {
                w->match_row[u] = v;
                w->match_col[v] = u;
                break;
            }
        }
        unmatched += w->match_row[u] < 0;
    }
    while (unmatched > 0) {
        /* layers of the alternating paths from the unmatched rows */
        int64_t head = 0, tail = 0;
        int found = 0;
        for (int64_t k = 0; k < n; k++) {
            int32_t u = w->forced[k];
            w->dist[u] = w->match_row[u] < 0 ? 0 : INT32_MAX;
            if (w->match_row[u] < 0)
                w->queue[tail++] = u;
            w->next[u] = s->off[u];
        }
        while (head < tail) {
            int32_t u = w->queue[head++];
            const double *pu = s->p + 2 * (int64_t)u;
            for (int64_t e = s->off[u]; e < s->off[u + 1]; e++) {
                int32_t v = s->adj[e];
                if (!(linf(pu, s->q + 2 * (int64_t)v) <= delta))
                    continue;
                int32_t x = w->match_col[v];
                if (x < 0) {
                    found = 1;
                } else if (w->dist[x] == INT32_MAX) {
                    w->dist[x] = w->dist[u] + 1;
                    w->queue[tail++] = x;
                }
            }
        }
        if (!found)
            return 0;
        /* an augmenting path from each unmatched row along the layers, by
         * an explicit stack; next[u] is the edge u tries */
        int64_t augmented = 0;
        for (int64_t k = 0; k < n; k++) {
            int32_t root = w->forced[k];
            if (w->match_row[root] >= 0)
                continue;
            int64_t top = 0;
            w->stack[top++] = root;
            while (top > 0) {
                int32_t u = w->stack[top - 1];
                const double *pu = s->p + 2 * (int64_t)u;
                int32_t x = INT32_MAX;
                for (; w->next[u] < s->off[u + 1]; w->next[u]++) {
                    int32_t v = s->adj[w->next[u]];
                    if (!(linf(pu, s->q + 2 * (int64_t)v) <= delta))
                        continue;
                    x = w->match_col[v];
                    if (x < 0 || w->dist[x] == w->dist[u] + 1)
                        break;
                    x = INT32_MAX;
                }
                if (x < 0) { /* a free column: each row takes its next edge */
                    for (int64_t a = 0; a < top; a++) {
                        int32_t r = w->stack[a];
                        int32_t v = s->adj[w->next[r]];
                        w->match_row[r] = v;
                        w->match_col[v] = r;
                    }
                    augmented++;
                    break;
                }
                if (x != INT32_MAX) {
                    w->stack[top++] = x;
                } else { /* a dead end: out of this phase */
                    w->dist[u] = INT32_MAX;
                    if (--top > 0)
                        w->next[w->stack[top - 1]]++;
                }
            }
        }
        if (!augmented)
            return 0;
        unmatched -= augmented;
    }
    return 1;
}

static int feasible(const Side *side1, const Side *side2, double delta, Matching *w)
{
    return covers(side1, delta, w) && covers(side2, delta, w);
}

/* A double >= +0.0 as a key whose unsigned order is the values' order. */
static uint64_t key_of(double x)
{
    uint64_t k;
    memcpy(&k, &x, sizeof k);
    return k;
}

static double value_of(uint64_t k)
{
    double x;
    memcpy(&x, &k, sizeof x);
    return x;
}

/* Sorts n keys by an LSD radix sort of 11-bit digits, with `spare` as
 * scratch of n more; a digit that every key shares takes no pass. */
static void sort_keys(uint64_t *key, uint64_t *spare, int64_t n)
{
    int64_t count[1 << 11];
    uint64_t *from = key, *to = spare;
    for (int shift = 0; shift < 64 && n > 1; shift += 11) {
        memset(count, 0, sizeof count);
        for (int64_t k = 0; k < n; k++)
            count[(from[k] >> shift) & 0x7ff]++;
        if (count[(from[0] >> shift) & 0x7ff] == n)
            continue;
        for (int64_t d = 0, sum = 0; d < (1 << 11); d++) {
            int64_t c = count[d];
            count[d] = sum;
            sum += c;
        }
        for (int64_t k = 0; k < n; k++)
            to[count[(from[k] >> shift) & 0x7ff]++] = from[k];
        uint64_t *swap = from;
        from = to;
        to = swap;
    }
    if (from != key)
        memcpy(key, from, (size_t)n * sizeof *key);
}

/* One row list's edge costs above `below`, as keys when `keys` is not
 * NULL; returns their number. */
static int64_t row_costs(double below, int64_t mP, const double *P, const double *Q,
                         const int64_t *off, const int32_t *adj, uint64_t *keys)
{
    int64_t n = 0;
    for (int64_t u = 0; u < mP; u++)
        for (int64_t e = off[u]; e < off[u + 1]; e++) {
            double c = linf(P + 2 * u, Q + 2 * (int64_t)adj[e]);
            if (c > below) {
                if (keys)
                    keys[n] = key_of(c);
                n++;
            }
        }
    return n;
}

/* The candidates in (below, t]: the diagonal costs d (d1, then d2) and the
 * graph's edge costs, as keys when `keys` is not NULL; returns their
 * number. */
static int64_t candidates(const Graph *g, double below, double t, int64_t m1,
                          const double *p1, const double *d, int64_t m2,
                          const double *p2, uint64_t *keys)
{
    int64_t n = 0;
    for (int64_t k = 0; k < m1 + m2; k++)
        if (d[k] > below && d[k] <= t) {
            if (keys)
                keys[n] = key_of(d[k]);
            n++;
        }
    n += row_costs(below, m1, p1, p2, g->off1, g->adj1, keys ? keys + n : NULL);
    n += row_costs(below, m2, p2, p1, g->off2, g->adj2, keys ? keys + n : NULL);
    return n;
}

static int well_formed(int64_t m, const double *p)
{
    int ok = m <= INT32_MAX;
    for (int64_t k = 0; k < m; k++)
        ok &= isfinite(p[2 * k]) & isfinite(p[2 * k + 1]) & (p[2 * k + 1] >= p[2 * k])
              & (k == 0 || p[2 * k] >= p[2 * k - 2]);
    return ok;
}

static int32_t bottleneck_distance(int64_t m1, const double *p1, int64_t m2,
                                   const double *p2, double *out, int64_t *counts)
{
    counts[0] = counts[1] = counts[2] = 0;
    if (!well_formed(m1, p1) || !well_formed(m2, p2))
        return STATUS_DECLINED;
    const int64_t m = m1 > m2 ? m1 : m2;
    int32_t status = STATUS_OVERFLOW;
    Graph g = {NULL, NULL, NULL, NULL, 0, 0};
    uint64_t *keys = NULL;
    /* d1, d2, then near1, near2; the nearest-neighbour rounds' lists, then
     * the matching's */
    double *d1 = malloc((size_t)(m1 + m2) * 2 * sizeof *d1 + 1);
    int32_t *ints = malloc((size_t)(m1 + 2 * m2 + 6 * m) * sizeof *ints + 1);
    int64_t *next = malloc((size_t)m * sizeof *next + 1);
    g.off1 = malloc((size_t)(m1 + 1) * sizeof *g.off1);
    g.off2 = malloc((size_t)(m2 + 1) * sizeof *g.off2);
    if (!d1 || !ints || !next || !g.off1 || !g.off2)
        goto done;
    double *d2 = d1 + m1, *near1 = d2 + m2, *near2 = near1 + m1;
    double worst = 0.0;
    for (int64_t k = 0; k < m1; k++) {
        d1[k] = (p1[2 * k + 1] - p1[2 * k]) / 2.0;
        worst = d1[k] > worst ? d1[k] : worst;
    }
    for (int64_t k = 0; k < m2; k++) {
        d2[k] = (p2[2 * k + 1] - p2[2 * k]) / 2.0;
        worst = d2[k] > worst ? d2[k] : worst;
    }
    if (m1 == 0 || m2 == 0) {
        out[0] = out[1] = worst;
        status = STATUS_OK;
        goto done;
    }

    int32_t *match = ints + m1 + 2 * m2;
    const double U = upper_bound(m1, p1, d1, m2, p2, d2, near1, near2, ints,
                                 ints + m1, ints + m1 + m2, &counts[1]);
    out[1] = U;
    double lower = 0.0;
    for (int64_t k = 0; k < m1 + m2; k++) { /* d1, d2 against near1, near2 */
        double cheapest = near1[k] < d1[k] ? near1[k] : d1[k];
        lower = cheapest > lower ? cheapest : lower;
    }
    Matching w = {match, match + m, match + 2 * m, match + 3 * m, match + 4 * m,
                  match + 5 * m, next};
    Side side1 = {m1, m2, p1, p2, d1, near1, g.off1, NULL};
    Side side2 = {m2, m1, p2, p1, d2, near2, g.off2, NULL};
    /* t gallops up from the lower bound until it is feasible; U is */
    double t = lower, below = lower;
    for (;;) {
        if (build_graph(&g, below, t, m1, p1, d1, m2, p2, d2))
            goto done;
        side1.adj = g.adj1;
        side2.adj = g.adj2;
        if (t >= U)
            break;
        counts[2]++;
        if (feasible(&side1, &side2, t, &w))
            break;
        /* the gap above the lower bound starts at an eighth of it and
         * doubles; straight to U when a step does not move t, as from a
         * lower bound of 0 or a subnormal one */
        double step = lower + (t > lower ? 2.0 * (t - lower) : lower / 8.0);
        below = t;
        t = step > t && step < U ? step : U;
    }
    counts[0] = g.n1 + g.n2;
    status = STATUS_OK;
    if (t == lower) { /* the smallest candidate */
        out[0] = lower;
        goto done;
    }
    /* the sorted distinct candidates in (below, t]; the largest is
     * feasible, as t is */
    const int64_t n = candidates(&g, below, t, m1, p1, d1, m2, p2, NULL);
    keys = malloc((size_t)n * 2 * sizeof *keys + 1);
    if (!keys) {
        status = STATUS_OVERFLOW;
        goto done;
    }
    candidates(&g, below, t, m1, p1, d1, m2, p2, keys);
    sort_keys(keys, keys + n, n);
    int64_t distinct = 0;
    for (int64_t k = 0; k < n; k++)
        if (distinct == 0 || keys[k] != keys[distinct - 1])
            keys[distinct++] = keys[k];
    int64_t lo = 0, hi = distinct - 1;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        counts[2]++;
        if (feasible(&side1, &side2, value_of(keys[mid]), &w))
            hi = mid;
        else
            lo = mid + 1;
    }
    out[0] = distinct ? value_of(keys[lo]) : t;
done:
    free(d1);
    free(ints);
    free(next);
    free(g.adj1);
    free(g.adj2);
    free(g.off1);
    free(g.off2);
    free(keys);
    return status;
}

/* The exported functions.  ctypes.PyDLL calls them with the GIL held and
 * passes each array as the Python object itself (ctypes.py_object); the
 * lengths come from the arrays, and the counts go back as the return
 * value, a tuple where there are several.  Each function borrows its
 * arrays, checks the ids it indexes with, runs its kernel and releases
 * every buffer it borrowed, on every path; a failed borrow or check sets a
 * Python exception before anything is written, and ctypes raises it. */

#define MAX_ARRAYS 6 /* the most arrays one function borrows */

enum { READ, WRITE };

typedef struct {
    Py_buffer views[MAX_ARRAYS];
    int n;      /* views held */
    int failed; /* a Python exception is set */
} Borrowed;

/* The kind of a struct-module format of one item: 'f' floating point, 'i'
 * signed and 'u' unsigned integer, 0 anything else.  A native or
 * standard-size prefix in native byte order is allowed; numpy reports
 * int64 as 'l' or 'q' depending on the platform, so callers match kind and
 * item size, not the format character. */
static char format_kind(const char *format)
{
    if (format == NULL)
        return 'u'; /* plain bytes */
    if (*format == '@' || *format == '=' || *format == (PY_LITTLE_ENDIAN ? '<' : '>'))
        format++;
    if (format[0] == '\0' || format[1] != '\0')
        return 0;
    if (strchr("efd", format[0]))
        return 'f';
    if (strchr("bhilqn", format[0]))
        return 'i';
    return strchr("BHILQN", format[0]) ? 'u' : 0;
}

/* The memory of obj's buffer, which must be C-contiguous, hold items of
 * `kind` (see format_kind) and `size` bytes, at least `count` of them, and
 * be writable for WRITE.  Otherwise NULL with a Python exception set; after
 * one failure every later call returns NULL, so a function borrows all its
 * arrays and tests b->failed once. */
static void *borrow(Borrowed *b, PyObject *obj, char kind, size_t size, int64_t count,
                    int mode)
{
    if (b->failed)
        return NULL;
    b->failed = 1;
    if (b->n == MAX_ARRAYS) {
        PyErr_SetString(PyExc_SystemError, "too many arrays to borrow");
        return NULL;
    }
    Py_buffer *view = &b->views[b->n];
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (mode == WRITE ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return NULL;
    b->n++;
    if (format_kind(view->format) != kind || view->itemsize != (Py_ssize_t)size
        || !PyBuffer_IsContiguous(view, 'C')) {
        PyErr_Format(PyExc_TypeError,
                     "array %d: expected a C-contiguous array of %zu-byte '%c' "
                     "items, got format '%s' with %zd-byte items",
                     b->n, size, kind, view->format ? view->format : "B",
                     view->itemsize);
        return NULL;
    }
    if (count < 0 || view->len / view->itemsize < count) {
        PyErr_Format(PyExc_ValueError, "array %d: holds %zd items, the call needs %lld",
                     b->n, view->len / view->itemsize, (long long)count);
        return NULL;
    }
    b->failed = 0;
    return view->buf;
}

/* The number of items of the array borrowed last; 0 after a failure. */
static int64_t last_length(const Borrowed *b)
{
    return b->failed ? 0 : b->views[b->n - 1].len / b->views[b->n - 1].itemsize;
}

static void release(Borrowed *b)
{
    while (b->n > 0)
        PyBuffer_Release(&b->views[--b->n]);
}

/* Raise ValueError(what) unless lo <= ids[i] < hi for every i < len; a
 * no-op after a failure.  No early exit, so that the test vectorises. */
static void check_ids(Borrowed *b, const int32_t *ids, int64_t len, int64_t lo,
                      int64_t hi, const char *what)
{
    if (b->failed)
        return;
    int bad = 0;
    for (int64_t i = 0; i < len; i++)
        bad |= (ids[i] < lo) | (ids[i] >= hi);
    if (bad) {
        PyErr_SetString(PyExc_ValueError, what);
        b->failed = 1;
    }
}

/* Raise ValueError(what) when n is above INT32_MAX; a no-op after a
 * failure. */
static void check_int32(Borrowed *b, int64_t n, const char *what)
{
    if (!b->failed && n > INT32_MAX) {
        PyErr_SetString(PyExc_ValueError, what);
        b->failed = 1;
    }
}

/* pts (n, 2); order and repeat take n items. */
int32_t hc_morton_dedup(PyObject *pts_obj, PyObject *order_obj, PyObject *repeat_obj)
{
    Borrowed b = {.n = 0};
    const double *pts = borrow(&b, pts_obj, 'f', sizeof *pts, 0, READ);
    const int64_t n = last_length(&b) / 2;
    int32_t *order = borrow(&b, order_obj, 'i', sizeof *order, n, WRITE);
    uint8_t *repeat = borrow(&b, repeat_obj, 'u', sizeof *repeat, n, WRITE);
    check_int32(&b, n, "more points than int32 ids can number");
    int32_t kept = b.failed ? -1 : morton_dedup(pts, (int32_t)n, order, repeat);
    release(&b);
    return kept;
}

/* The n points of `order` into cap = len(tris) / 3 slots; returns (status,
 * triangles, then the builder's four counts). */
PyObject *hc_build(PyObject *pts_obj, PyObject *order_obj, PyObject *tris_obj,
                   PyObject *neigh_obj)
{
    Borrowed b = {.n = 0};
    const int32_t *order = borrow(&b, order_obj, 'i', sizeof *order, 0, READ);
    const int64_t n = last_length(&b);
    const double *pts = borrow(&b, pts_obj, 'f', sizeof *pts, 2 * n, READ);
    int32_t *tris = borrow(&b, tris_obj, 'i', sizeof *tris, 0, WRITE);
    const int64_t cap = last_length(&b) / 3;
    int32_t *neigh = borrow(&b, neigh_obj, 'i', sizeof *neigh, 3 * cap, WRITE);
    check_int32(&b, n, "more points than int32 ids can number");
    check_ids(&b, order, n, 0, n, "insertion order out of range");
    PyObject *result = NULL;
    if (!b.failed) {
        int64_t n_tris, counts[4];
        int32_t status = build_triangulation(pts, (int32_t)n, order, tris, neigh, cap,
                                             &n_tris, counts);
        result = Py_BuildValue("(iLLLLL)", status, (long long)n_tris, (long long)counts[0],
                               (long long)counts[1], (long long)counts[2],
                               (long long)counts[3]);
    }
    release(&b);
    return result;
}

/* k = len(tris) / 3 triangles of the points pts; writes at most cap =
 * len(length_sq) rows. */
int64_t hc_edge_table(PyObject *pts_obj, PyObject *tris_obj, PyObject *neigh_obj,
                      PyObject *edge_faces_obj, PyObject *length_sq_obj)
{
    Borrowed b = {.n = 0};
    const double *pts = borrow(&b, pts_obj, 'f', sizeof *pts, 0, READ);
    const int64_t n = last_length(&b) / 2;
    const int32_t *tris = borrow(&b, tris_obj, 'i', sizeof *tris, 0, READ);
    const int64_t k = last_length(&b) / 3;
    const int32_t *neigh = borrow(&b, neigh_obj, 'i', sizeof *neigh, 3 * k, READ);
    double *length_sq = borrow(&b, length_sq_obj, 'f', sizeof *length_sq, 0, WRITE);
    const int64_t cap = last_length(&b);
    int32_t *edge_faces = borrow(&b, edge_faces_obj, 'i', sizeof *edge_faces, 2 * cap, WRITE);
    check_ids(&b, tris, 3 * k, 0, n, "triangle vertex out of range");
    int64_t m = b.failed ? -1
                         : fill_edge_table(pts, k, tris, neigh, cap, edge_faces, length_sq);
    release(&b);
    return m;
}

/* k = len(tris) / 3 triangles of the points pts; births takes k items. */
int64_t hc_births(PyObject *pts_obj, PyObject *tris_obj, double band, PyObject *births_obj)
{
    Borrowed b = {.n = 0};
    const double *pts = borrow(&b, pts_obj, 'f', sizeof *pts, 0, READ);
    const int64_t n = last_length(&b) / 2;
    const int32_t *tris = borrow(&b, tris_obj, 'i', sizeof *tris, 0, READ);
    const int64_t k = last_length(&b) / 3;
    double *births = borrow(&b, births_obj, 'f', sizeof *births, k, WRITE);
    check_ids(&b, tris, 3 * k, 0, n, "triangle vertex out of range");
    int64_t decided = b.failed ? -1 : triangle_births(pts, k, tris, band, births);
    release(&b);
    return decided;
}

/* The sweep over the edges `order` names, of a table of n_edges =
 * len(length_sq) rows, on the k = len(births) triangle nodes plus the
 * unbounded region; pairs takes k + 1 rows.  Returns (pairs, longest root
 * walk). */
PyObject *hc_sweep(PyObject *order_obj, PyObject *edge_faces_obj, PyObject *length_sq_obj,
                   PyObject *births_obj, PyObject *pairs_obj)
{
    Borrowed b = {.n = 0};
    const int32_t *order = borrow(&b, order_obj, 'i', sizeof *order, 0, READ);
    const int64_t m = last_length(&b);
    const double *length_sq = borrow(&b, length_sq_obj, 'f', sizeof *length_sq, 0, READ);
    const int64_t n_edges = last_length(&b);
    const int32_t *edge_faces = borrow(&b, edge_faces_obj, 'i', sizeof *edge_faces,
                                       2 * n_edges, READ);
    double *births = borrow(&b, births_obj, 'f', sizeof *births, 0, WRITE);
    const int64_t k = last_length(&b);
    double *pairs = borrow(&b, pairs_obj, 'f', sizeof *pairs, 2 * (k + 1), WRITE);
    check_int32(&b, k + 1, "more triangles than int32 ids can number");
    check_ids(&b, order, m, 0, n_edges, "edge order out of range");
    check_ids(&b, edge_faces, 2 * n_edges, -1, k, "face id out of range");
    PyObject *result = NULL;
    if (!b.failed) {
        /* union-find forest, singletons to start: parent, then weight */
        int32_t *forest = malloc(2 * (size_t)(k + 1) * sizeof *forest);
        if (forest == NULL) {
            PyErr_NoMemory();
        } else {
            for (int64_t i = 0; i <= k; i++) {
                forest[i] = (int32_t)i;
                forest[k + 1 + i] = 0;
            }
            int64_t max_steps;
            int64_t n_pairs = sweep_edges(m, order, edge_faces, length_sq, (int32_t)k,
                                          forest, forest + k + 1, births, pairs,
                                          &max_steps);
            free(forest);
            result = Py_BuildValue("(LL)", (long long)n_pairs, (long long)max_steps);
        }
    }
    release(&b);
    return result;
}

/* The staircase of m = len(deaths) pairs; breakpoints and counts take 2m
 * items, sums and present m + 1.  Returns (breakpoints, length of
 * present), or (-1, 0) on a pair it declines. */
PyObject *hc_staircase(PyObject *pairs_obj, PyObject *deaths_obj, PyObject *breakpoints_obj,
                       PyObject *counts_obj, PyObject *sums_obj, PyObject *present_obj)
{
    Borrowed b = {.n = 0};
    const double *deaths = borrow(&b, deaths_obj, 'f', sizeof *deaths, 0, READ);
    const int64_t m = last_length(&b);
    const double *pairs = borrow(&b, pairs_obj, 'f', sizeof *pairs, 2 * m, READ);
    double *breakpoints = borrow(&b, breakpoints_obj, 'f', sizeof *breakpoints, 2 * m,
                                 WRITE);
    int64_t *counts = borrow(&b, counts_obj, 'i', sizeof *counts, 2 * m, WRITE);
    double *sums = borrow(&b, sums_obj, 'f', sizeof *sums, m + 1, WRITE);
    int64_t *present = borrow(&b, present_obj, 'i', sizeof *present, m + 1, WRITE);
    PyObject *result = NULL;
    if (!b.failed) {
        int64_t n_present;
        int64_t n = merge_staircase(m, pairs, deaths, breakpoints, counts, sums, present,
                                    &n_present);
        result = Py_BuildValue("(LL)", (long long)n, (long long)n_present);
    }
    release(&b);
    return result;
}

/* The m1 = len(p1) / 2 and m2 = len(p2) / 2 pairs; returns (status,
 * distance, upper bound, edges, rounds, tests). */
PyObject *hc_bottleneck(PyObject *p1_obj, PyObject *p2_obj)
{
    Borrowed b = {.n = 0};
    const double *p1 = borrow(&b, p1_obj, 'f', sizeof *p1, 0, READ);
    const int64_t m1 = last_length(&b) / 2;
    const double *p2 = borrow(&b, p2_obj, 'f', sizeof *p2, 0, READ);
    const int64_t m2 = last_length(&b) / 2;
    PyObject *result = NULL;
    if (!b.failed) {
        double out[2] = {0.0, 0.0};
        int64_t counts[3];
        int32_t status = bottleneck_distance(m1, p1, m2, p2, out, counts);
        result = Py_BuildValue("(iddLLL)", status, out[0], out[1], (long long)counts[0],
                               (long long)counts[1], (long long)counts[2]);
    }
    release(&b);
    return result;
}

/* Compiled kernels of holecount, loaded through ctypes by _fastdel.py.
 *
 *   hc_build        incremental Delaunay triangulation (Bowyer-Watson),
 *                   compacted in place
 *   hc_edge_table   the flat edge table of a compact triangulation
 *   hc_edge_lengths squared length of every edge
 *   hc_births       per-triangle birth scales
 *   hc_sweep        the descending elder-rule union-find sweep
 *
 * Arrays are C-contiguous: points (n, 2) float64, triangles and neighbours
 * (k, 3) int32, edge endpoints and faces (E, 2) int32.  Every kernel writes
 * only into buffers the caller allocated, apart from small scratch space.
 *
 * Build with -ffp-contract=off and without -ffast-math: the births and the
 * edge lengths must round exactly as the numpy fallback in forest.py and
 * delaunay.py does, so that both paths give bit-identical diagrams.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

#define STATUS_OK 0
#define STATUS_UNCERTAIN 1
#define STATUS_OVERFLOW 2 /* triangle slots or scratch memory ran out */

/* Error filters of the float predicates (Shewchuk 1997, loose static form). */
#define ORIENT_FILTER (8.0 * DBL_EPSILON)
#define INCIRCLE_FILTER (32.0 * DBL_EPSILON)
#define UNCERTAIN (-2)
/* The filters bound rounding, not underflow.  A nonzero coordinate
 * difference below 2^-255 could make a product of four of them subnormal,
 * so the predicates leave such inputs to the exact path. */
#define MIN_DIFF 0x1p-255

#define PX(i) pts[2 * (int64_t)(i)]
#define PY(i) pts[2 * (int64_t)(i) + 1]
#define TRI(t, j) tris[3 * (int64_t)(t) + (j)]
#define NB(t, j) neigh[3 * (int64_t)(t) + (j)]

static int tiny(double d)
{
    return d != 0.0 && fabs(d) < MIN_DIFF;
}

/* Sign of the CCW test, or UNCERTAIN when the filter cannot certify it. */
static int orient(double ax, double ay, double bx, double by, double cx,
                  double cy)
{
    if (tiny(ax - cx) || tiny(by - cy) || tiny(ay - cy) || tiny(bx - cx))
        return UNCERTAIN;
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
    return UNCERTAIN;
}

/* Sign of the in-circumcircle test for CCW (a, b, c), filtered as above. */
static int incircle(double ax, double ay, double bx, double by, double cx,
                    double cy, double px, double py)
{
    double adx = ax - px, ady = ay - py;
    double bdx = bx - px, bdy = by - py;
    double cdx = cx - px, cdy = cy - py;
    if (tiny(adx) || tiny(ady) || tiny(bdx) || tiny(bdy) || tiny(cdx)
        || tiny(cdy))
        return UNCERTAIN;
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
        return 0;
    return UNCERTAIN;
}

/* Slot of the infinite vertex in a ghost triangle, or -1 for a real one. */
static int ghost_slot(const int32_t *tri, int32_t inf)
{
    for (int j = 0; j < 3; j++)
        if (tri[j] == inf)
            return j;
    return -1;
}

/* Make room for `need` entries in a growable scratch array. */
static int reserve(int32_t **buf, int64_t *cap, int64_t need)
{
    if (need <= *cap)
        return 0;
    int64_t grown = *cap ? *cap : 64;
    while (grown < need)
        grown *= 2;
    int32_t *p = realloc(*buf, (size_t)grown * sizeof *p);
    if (!p)
        return -1;
    *buf = p;
    *cap = grown;
    return 0;
}

static int slot_gone(const int32_t *tris, int64_t t, int32_t inf)
{
    return TRI(t, 0) < 0 || ghost_slot(&TRI(t, 0), inf) >= 0;
}

/* Whether point a precedes point b in (x, y) order. */
static int lex_less(const double *pts, int32_t a, int32_t b)
{
    return PX(a) < PX(b) || (PX(a) == PX(b) && PY(a) < PY(b));
}

/* Compact the slots of hc_build in place: drop ghost and dead slots,
 * renumber the neighbours (-1 across hull edges) and rotate every triangle
 * so that its lexicographically smallest point comes first, whatever the
 * vertex ids.  Returns the number of triangles kept, or -1 when scratch
 * memory ran out. */
static int64_t compact(const double *pts, int32_t n, int32_t *tris,
                       int32_t *neigh, int64_t n_tris)
{
    int64_t n_gone = 0;
    for (int64_t t = 0; t < n_tris; t++)
        n_gone += slot_gone(tris, t, n);
    int32_t *gone = malloc((size_t)(n_gone ? n_gone : 1) * sizeof *gone);
    if (!gone)
        return -1;
    for (int64_t t = 0, g = 0; t < n_tris; t++)
        if (slot_gone(tris, t, n))
            gone[g++] = (int32_t)t;

    /* renumber while every row is still in place: a kept slot moves down
     * by the number of removed slots below it */
    for (int64_t t = 0; t < n_tris; t++) {
        if (slot_gone(tris, t, n))
            continue;
        for (int j = 0; j < 3; j++) {
            int32_t nb = NB(t, j);
            if (nb < 0 || slot_gone(tris, nb, n)) {
                NB(t, j) = -1;
                continue;
            }
            int64_t lo = 0, hi = n_gone;
            while (lo < hi) {
                int64_t mid = (lo + hi) / 2;
                if (gone[mid] < nb)
                    lo = mid + 1;
                else
                    hi = mid;
            }
            NB(t, j) = (int32_t)(nb - lo);
        }
    }
    free(gone);

    int64_t k = 0;
    for (int64_t t = 0; t < n_tris; t++) {
        if (slot_gone(tris, t, n))
            continue;
        int r = 0;
        if (lex_less(pts, TRI(t, 1), TRI(t, r)))
            r = 1;
        if (lex_less(pts, TRI(t, 2), TRI(t, r)))
            r = 2;
        int32_t v[3], w[3];
        for (int j = 0; j < 3; j++) {
            v[j] = TRI(t, (j + r) % 3);
            w[j] = NB(t, (j + r) % 3);
        }
        for (int j = 0; j < 3; j++) {
            TRI(k, j) = v[j];
            NB(k, j) = w[j];
        }
        k++;
    }
    return k;
}

enum { S_STACK, S_BAD, S_BND_U, S_BND_V, S_BND_OUT, S_NEW, S_FREE, S_COUNT };

/* Insert the points in the given order, then compact the slots.
 *
 * Triangle slots hold vertex indices, with index n standing for the infinite
 * vertex of ghost triangles (two hull vertices plus infinity), so cavity
 * search and retriangulation treat the outside uniformly; dead slots have
 * first vertex -1.  neigh[t, j] is the triangle across the edge opposite
 * vertex j.  On STATUS_OK the first *n_tris_out rows hold the real
 * triangles, compacted as above.  Any predicate the filter cannot certify
 * aborts with STATUS_UNCERTAIN and the caller falls back to an exact path.
 */
int32_t hc_build(const double *pts, int32_t n, const int32_t *order,
                 int32_t *tris, int32_t *neigh, int64_t cap,
                 int64_t *n_tris_out)
{
    const int32_t inf = n;
    int32_t *s[S_COUNT] = {0};
    int64_t scap[S_COUNT] = {0};
    uint8_t *in_cavity = NULL;
    int64_t n_tris = 0, n_free = 0;
    int32_t status = STATUS_OK;
    *n_tris_out = 0;
    if (n < 3 || cap < 4)
        return STATUS_UNCERTAIN;

    /* First triangle from the first non-collinear triple in insertion
     * order; points skipped on the way are inserted with the rest. */
    int32_t a = order[0], b = order[1], c = -1;
    int64_t third = 2;
    int sgn = 0;
    for (; third < n; third++) {
        c = order[third];
        sgn = orient(PX(a), PY(a), PX(b), PY(b), PX(c), PY(c));
        if (sgn != 0)
            break;
    }
    if (third >= n || sgn == UNCERTAIN)
        return STATUS_UNCERTAIN;
    if (sgn < 0) {
        int32_t tmp = b;
        b = c;
        c = tmp;
    }
    in_cavity = calloc((size_t)cap, 1);
    if (!in_cavity)
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
        const double px = PX(p), py = PY(p);

        /* -- locate: walk from the last created triangle ---------------- */
        int64_t t = last;
        int64_t guard = 0;
        const int64_t max_guard = 4 * n_tris + 64;
        for (;;) {
            if (++guard > max_guard) {
                status = STATUS_UNCERTAIN;
                goto done;
            }
            int g = ghost_slot(&TRI(t, 0), inf);
            if (g >= 0) {
                /* in this ghost's outer wedge iff left of its hull edge */
                int32_t x = TRI(t, (g + 1) % 3), y = TRI(t, (g + 2) % 3);
                sgn = orient(PX(x), PY(x), PX(y), PY(y), px, py);
                if (sgn == UNCERTAIN || sgn == 0) {
                    status = STATUS_UNCERTAIN;
                    goto done;
                }
                if (sgn > 0)
                    break;
                t = NB(t, g); /* step back inside across the finite edge */
                continue;
            }
            int moved = 0;
            for (int j = 0; j < 3; j++) {
                int32_t u = TRI(t, (j + 1) % 3), w = TRI(t, (j + 2) % 3);
                sgn = orient(PX(u), PY(u), PX(w), PY(w), px, py);
                if (sgn == UNCERTAIN || sgn == 0) {
                    status = STATUS_UNCERTAIN;
                    goto done;
                }
                if (sgn < 0) {
                    t = NB(t, j);
                    moved = 1;
                    break;
                }
            }
            if (!moved)
                break; /* t strictly contains p */
        }

        /* -- cavity: all triangles whose circle contains p -------------- */
        int64_t n_bad = 0, n_stack = 0;
        if (reserve(&s[S_STACK], &scap[S_STACK], 1)) {
            status = STATUS_OVERFLOW;
            goto done;
        }
        s[S_STACK][n_stack++] = (int32_t)t;
        in_cavity[t] = 1;
        while (n_stack > 0) {
            int32_t q = s[S_STACK][--n_stack];
            if (reserve(&s[S_BAD], &scap[S_BAD], n_bad + 1)
                || reserve(&s[S_STACK], &scap[S_STACK], n_stack + 3)) {
                status = STATUS_OVERFLOW;
                goto done;
            }
            s[S_BAD][n_bad++] = q;
            for (int j = 0; j < 3; j++) {
                int32_t nb = NB(q, j);
                if (nb < 0 || in_cavity[nb])
                    continue;
                int g = ghost_slot(&TRI(nb, 0), inf);
                if (g >= 0) {
                    int32_t x = TRI(nb, (g + 1) % 3), y = TRI(nb, (g + 2) % 3);
                    sgn = orient(PX(x), PY(x), PX(y), PY(y), px, py);
                } else {
                    int32_t w0 = TRI(nb, 0), w1 = TRI(nb, 1), w2 = TRI(nb, 2);
                    sgn = incircle(PX(w0), PY(w0), PX(w1), PY(w1), PX(w2),
                                   PY(w2), px, py);
                }
                if (sgn == UNCERTAIN) {
                    status = STATUS_UNCERTAIN;
                    goto done;
                }
                if (sgn > 0) {
                    in_cavity[nb] = 1;
                    s[S_STACK][n_stack++] = nb;
                }
            }
        }

        /* -- boundary edges, CCW around the cavity ---------------------- */
        int64_t n_bnd = 0;
        for (int64_t m = 0; m < n_bad; m++) {
            int32_t q = s[S_BAD][m];
            for (int j = 0; j < 3; j++) {
                int32_t nb = NB(q, j);
                if (nb >= 0 && in_cavity[nb])
                    continue;
                if (reserve(&s[S_BND_U], &scap[S_BND_U], n_bnd + 1)
                    || reserve(&s[S_BND_V], &scap[S_BND_V], n_bnd + 1)
                    || reserve(&s[S_BND_OUT], &scap[S_BND_OUT], n_bnd + 1)
                    || reserve(&s[S_NEW], &scap[S_NEW], n_bnd + 1)) {
                    status = STATUS_OVERFLOW;
                    goto done;
                }
                s[S_BND_U][n_bnd] = TRI(q, (j + 1) % 3);
                s[S_BND_V][n_bnd] = TRI(q, (j + 2) % 3);
                s[S_BND_OUT][n_bnd] = nb;
                n_bnd++;
            }
        }

        /* -- retriangulate: fan of (u, v, p) over boundary edges -------- */
        if (reserve(&s[S_FREE], &scap[S_FREE], n_free + n_bad)) {
            status = STATUS_OVERFLOW;
            goto done;
        }
        for (int64_t m = 0; m < n_bad; m++) {
            int32_t q = s[S_BAD][m];
            TRI(q, 0) = -1;
            in_cavity[q] = 0;
            s[S_FREE][n_free++] = q;
        }
        const int32_t *bnd_u = s[S_BND_U], *bnd_v = s[S_BND_V];
        int32_t *new_tri = s[S_NEW];
        for (int64_t m = 0; m < n_bnd; m++) {
            int64_t slot;
            if (n_free > 0) {
                slot = s[S_FREE][--n_free];
            } else {
                if (n_tris >= cap) {
                    status = STATUS_OVERFLOW;
                    goto done;
                }
                slot = n_tris++;
            }
            TRI(slot, 0) = bnd_u[m];
            TRI(slot, 1) = bnd_v[m];
            TRI(slot, 2) = p;
            new_tri[m] = (int32_t)slot;
        }
        for (int64_t m = 0; m < n_bnd; m++) {
            int32_t slot = new_tri[m];
            int32_t out = s[S_BND_OUT][m];
            NB(slot, 2) = out;
            if (out >= 0) {
                /* relink the outer triangle: it sees the edge reversed */
                for (int j = 0; j < 3; j++) {
                    if (TRI(out, (j + 1) % 3) == bnd_v[m]
                        && TRI(out, (j + 2) % 3) == bnd_u[m]) {
                        NB(out, j) = slot;
                        break;
                    }
                }
            }
            /* new neighbours around p: the triangle whose boundary edge
             * starts at this edge's end shares edge (v, p); symmetric for
             * (p, u) */
            for (int64_t m2 = 0; m2 < n_bnd; m2++) {
                if (bnd_u[m2] == bnd_v[m])
                    NB(slot, 0) = new_tri[m2]; /* across (v, p) */
                if (bnd_v[m2] == bnd_u[m])
                    NB(slot, 1) = new_tri[m2]; /* across (p, u) */
            }
            last = slot;
        }
    }

done:
    for (int i = 0; i < S_COUNT; i++)
        free(s[i]);
    free(in_cavity);
    if (status == STATUS_OK) {
        n_tris = compact(pts, n, tris, neigh, n_tris);
        if (n_tris < 0) {
            n_tris = 0;
            status = STATUS_OVERFLOW;
        }
    }
    *n_tris_out = n_tris;
    return status;
}

/* One row per undirected edge, contributed by the incident triangle with
 * the smaller id (hull edges by their only triangle, second face -1), in
 * the same order as the numpy edge table in delaunay.py.  Writes at most
 * `cap` rows and returns how many edges there are in all: (3k + h) / 2 for
 * h hull edges when every neighbour link is mutual. */
int64_t hc_edge_table(int64_t k, const int32_t *tris, const int32_t *neigh,
                      int64_t cap, int32_t *edge_vertices, int32_t *edge_faces)
{
    int64_t e = 0;
    for (int64_t t = 0; t < k; t++) {
        for (int j = 0; j < 3; j++) {
            int32_t nb = NB(t, j);
            if (nb >= 0 && nb <= t)
                continue;
            if (e < cap) {
                int32_t u = TRI(t, (j + 1) % 3), v = TRI(t, (j + 2) % 3);
                edge_vertices[2 * e] = u < v ? u : v;
                edge_vertices[2 * e + 1] = u < v ? v : u;
                edge_faces[2 * e] = (int32_t)t;
                edge_faces[2 * e + 1] = nb < 0 ? -1 : nb;
            }
            e++;
        }
    }
    return e;
}

void hc_edge_lengths(const double *pts, int64_t m,
                     const int32_t *edge_vertices, double *length_sq)
{
    for (int64_t e = 0; e < m; e++) {
        int32_t u = edge_vertices[2 * e], v = edge_vertices[2 * e + 1];
        double dx = PX(v) - PX(u);
        double dy = PY(v) - PY(u);
        length_sq[e] = dx * dx + dy * dy;
    }
}

/* Per-triangle birth scale: circumradius if acute, 0 otherwise.  Triangles
 * within the relative band of a right angle are marked NaN for the caller
 * to re-decide exactly.  Same operations, in the same order, as the numpy
 * fallback in forest.triangle_births. */
void hc_births(const double *pts, int64_t k, const int32_t *tris, double band,
               double *births)
{
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
            births[t] = NAN;
        } else if (gap > band * total) {
            double cross = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax);
            double radius = sqrt(ab * bc * ca) / (2.0 * fabs(cross));
            /* an acute circumradius is at least half the longest edge; the
             * rounded quotient may dip just below, which would flip the
             * order of this death against its own edge's scale */
            double half_longest = 0.5 * sqrt(longest);
            births[t] = radius > half_longest ? radius : half_longest;
        } else {
            births[t] = 0.0;
        }
    }
}

/* Descending sweep over edges in the given order, array union-find: union
 * by weight, no path compression, elder rule on white merges, exactly as
 * the DualForest reference in forest.py.  Face id -1 (the unbounded
 * region) maps to node k, whose birth is +inf and is not stored in
 * `births`.  Writes the (birth, death) pairs with death > birth and returns
 * their number, and the longest root walk of any find in *max_steps_out. */
int64_t hc_sweep(int64_t m, const int32_t *order, const int32_t *edge_faces,
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

/* Compiled kernels of holecount, loaded through ctypes by _fastdel.py.
 *
 *   hc_build        incremental Delaunay triangulation (triangle split and
 *                   Lawson flips), compacted in place
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
#define STATUS_OVERFLOW 2 /* fewer than 2n - 2 slots, or no flip stack */

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

/* Slot of triangle t whose neighbour link points to triangle u. */
static int facing(const int32_t *neigh, int32_t t, int32_t u)
{
    return NB(t, 0) == u ? 0 : NB(t, 1) == u ? 1 : 2;
}

/* Whether point a precedes point b in (x, y) order. */
static int lex_less(const double *pts, int32_t a, int32_t b)
{
    return PX(a) < PX(b) || (PX(a) == PX(b) && PY(a) < PY(b));
}

/* Compact the slots of hc_build in place: drop the ghosts, renumber the
 * neighbours (-1 across hull edges) and rotate every triangle so that its
 * lexicographically smallest point comes first, whatever the vertex ids.
 * Returns the number of triangles kept. */
static int64_t compact(const double *pts, int32_t n, int32_t *tris,
                       int32_t *neigh, int64_t n_tris)
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
    for (int64_t t = 0; t < k; t++) {
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
            TRI(t, j) = v[j];
            NB(t, j) = w[j];
        }
    }
    return k;
}

/* Insert the points in the given order, then compact the slots.
 *
 * Triangle slots hold vertex indices, with index n standing for the infinite
 * vertex of ghost triangles (two hull vertices plus infinity), so the split
 * and the flips treat the outside uniformly.  neigh[t, j] is the triangle
 * across the edge opposite vertex j.  Each point splits the triangle that
 * contains it, real or ghost, into three: one keeps its slot and two take
 * new ones, so the 2n - 2 slots of the finished triangulation are all live.
 * Lawson flips (Guibas, Knuth and Sharir 1992) then make every edge opposite
 * the point Delaunay; a ghost's circle is the open half-plane beyond its
 * hull edge, and an edge whose circle test is 0 stays.  On STATUS_OK the
 * first *n_tris_out rows hold the real triangles, compacted as above.  Any
 * predicate the filter cannot certify aborts with STATUS_UNCERTAIN and the
 * caller falls back to an exact path.
 */
int32_t hc_build(const double *pts, int32_t n, const int32_t *order,
                 int32_t *tris, int32_t *neigh, int64_t cap,
                 int64_t *n_tris_out)
{
    const int32_t inf = n;
    int64_t n_tris = 0;
    int32_t status = STATUS_OK;
    *n_tris_out = 0;
    if (n < 3)
        return STATUS_UNCERTAIN;
    if (cap < 2 * (int64_t)n - 2)
        return STATUS_OVERFLOW;

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
        const double px = PX(p), py = PY(p);

        /* -- locate: walk from a triangle around the last point --------- */
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

        /* -- split: (p, v[j+1], v[j+2]) in slot s[j], across v[j]'s edge - */
        const int32_t s[3] = {(int32_t)t, (int32_t)n_tris, (int32_t)n_tris + 1};
        int32_t v[3], out[3];
        for (int j = 0; j < 3; j++) {
            v[j] = TRI(t, j);
            out[j] = NB(t, j);
        }
        for (int j = 0; j < 3; j++) {
            TRI(s[j], 0) = p;
            TRI(s[j], 1) = v[(j + 1) % 3];
            TRI(s[j], 2) = v[(j + 2) % 3];
            NB(s[j], 0) = out[j];
            NB(s[j], 1) = s[(j + 1) % 3];
            NB(s[j], 2) = s[(j + 2) % 3];
            NB(out[j], facing(neigh, out[j], (int32_t)t)) = s[j];
            stack[j] = s[j];
        }
        n_tris += 2;

        /* -- flip: (p, u, w) and (q, w, u) become (p, u, q) and (p, q, w)
         * while q's triangle has p in its circle --------------------------- */
        int64_t n_stack = 3;
        while (n_stack > 0) {
            const int32_t r = stack[--n_stack], o = NB(r, 0);
            const int f = facing(neigh, o, r);
            int g = ghost_slot(&TRI(o, 0), inf);
            if (g >= 0) {
                int32_t x = TRI(o, (g + 1) % 3), y = TRI(o, (g + 2) % 3);
                sgn = orient(PX(x), PY(x), PX(y), PY(y), px, py);
            } else {
                int32_t w0 = TRI(o, 0), w1 = TRI(o, 1), w2 = TRI(o, 2);
                sgn = incircle(PX(w0), PY(w0), PX(w1), PY(w1), PX(w2), PY(w2),
                               px, py);
            }
            if (sgn == UNCERTAIN) {
                status = STATUS_UNCERTAIN;
                goto done;
            }
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
        *n_tris_out = compact(pts, n, tris, neigh, n_tris);
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

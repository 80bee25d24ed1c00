/* Native kernels for the codec's hot loops.
 *
 * Integer stages.  Decode: the Huffman block decode (which also adds an
 * index stream's offset and finds its escape symbols), the QP Case II-IV
 * inverse and the prefix sums that invert Lorenzo and QP Case I.  Encode:
 * the index stream's bounds and histogram (its median, window and Huffman
 * frequencies come from that one count), Huffman code lengths, Huffman
 * bit packing through the window (escapes collected as it packs), the QP
 * forward and Lorenzo's differences.
 *
 * Float stages, each in float32 and float64: the linear quantizer's
 * quantize and dequantize, the adaptive quantizer's encode and decode, the
 * linear/cubic midpoint fill of the interpolation predictor, Lorenzo's
 * pre-quantization, and the two histograms SZ3's predictor selection
 * compares.
 *
 * Compiled on first use by repro.kernels (cc -O2 -ffp-contract=off -shared
 * -fPIC) and called through ctypes.  The numpy implementations in
 * repro.codecs.huffman, repro.core.qp, repro.quantize,
 * repro.predictors.interpolation, repro.predictors.lorenzo and
 * repro.compressors.sz3 are the fallback and the reference these must
 * match bit for bit.  There are no globals and nothing is allocated:
 * the Python caller owns, sizes and validates every buffer, scratch
 * included, so calls from several threads (ctypes releases the GIL) never
 * share state.
 */
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* The float kernels repeat numpy's IEEE-754 operations one by one: each
 * float or double expression must round at its own precision (no x87
 * extended intermediates), and no multiply-add may fuse (the build passes
 * -ffp-contract=off). */
#if FLT_EVAL_METHOD != 0
#error "the float kernels need FLT_EVAL_METHOD == 0"
#endif

/* Big-endian 32-bit window starting at byte i of buf.  Bytes outside
 * [0, nbytes) read as zero, like the numpy path's zero padding. */
static uint32_t window32(const uint8_t *buf, int64_t nbytes, int64_t i)
{
    if (i >= 0 && i <= nbytes - 4)
        return (uint32_t)buf[i] << 24 | (uint32_t)buf[i + 1] << 16
             | (uint32_t)buf[i + 2] << 8 | (uint32_t)buf[i + 3];
    uint32_t w = 0;
    for (int64_t j = i; j < i + 4; j++)
        w = w << 8 | (j >= 0 && j < nbytes ? buf[j] : 0u);
    return w;
}

/* Sums wrap modulo 2**64 through uint64, as numpy's int64 adds do. */
#define WRAP_ADD(a, b) ((int64_t)((uint64_t)(a) + (uint64_t)(b)))

/* What a decode writes besides the symbols: each symbol is stored plus
 * offset, and the positions of the symbols equal to escape are recorded
 * in pos, the first cap of them, and all counted in met. */
struct escapes {
    int64_t offset, escape, cap, met;
    int64_t *pos;
};

/* One symbol at bit cursor cur: store it to out[at] as struct escapes
 * says, return the next cursor.  sym_table/len_table map every
 * max_len-bit window to its symbol and code length (shift = 32 - max_len,
 * mask = 2**max_len - 1). */
static inline int64_t decode_one(const uint8_t *payload, int64_t nbytes,
                                 const int64_t *sym_table,
                                 const uint8_t *len_table, int64_t shift,
                                 uint32_t mask, int64_t cur, int64_t *out,
                                 int64_t at, struct escapes *e)
{
    uint32_t win = window32(payload, nbytes, cur >> 3) >> (shift - (cur & 7))
                   & mask;
    int64_t sym = sym_table[win];
    out[at] = WRAP_ADD(sym, e->offset);
    if (sym == e->escape) {
        if (e->met < e->cap)
            e->pos[e->met] = at;
        e->met++;
    }
    return cur + len_table[win];
}

#define LANES 4

/* Decode n symbols stored as nblocks = ceil(n / block_size) blocks starting
 * at bit offsets[b] (1 <= max_len <= 20).  Writes out[0..n), each symbol
 * plus offset (wrapping), and, per block, the bit cursor it stopped at into
 * ends[b]; the caller checks those against the recorded offsets, so a
 * corrupt stream cannot go unnoticed.  The positions of the symbols equal
 * to escape go to pos, at most cap of them, in block-walk order (not
 * sorted); returns how many such symbols there were.  A plain container
 * passes offset 0 and escape -1, which no symbol equals. */
int64_t repro_huffman_decode(const uint8_t *payload, int64_t nbytes,
                             const int64_t *sym_table,
                             const uint8_t *len_table, int64_t max_len,
                             const int64_t *offsets, int64_t nblocks,
                             int64_t block_size, int64_t n, int64_t *out,
                             int64_t *ends, int64_t offset, int64_t escape,
                             int64_t *pos, int64_t cap)
{
    const int64_t shift = 32 - max_len;
    const uint32_t mask = (1u << max_len) - 1u;
    struct escapes e = {offset, escape, cap, 0, pos};
    int64_t b = 0;
    /* Every block but the last is full.  Walking LANES of them at once
     * overlaps their independent cursor chains. */
    for (; b + LANES < nblocks; b += LANES) {
        int64_t cur[LANES];
        const int64_t first = b * block_size;
        for (int k = 0; k < LANES; k++)
            cur[k] = offsets[b + k];
        for (int64_t s = 0; s < block_size; s++)
            for (int k = 0; k < LANES; k++)
                cur[k] = decode_one(payload, nbytes, sym_table, len_table,
                                    shift, mask, cur[k], out,
                                    first + k * block_size + s, &e);
        for (int k = 0; k < LANES; k++)
            ends[b + k] = cur[k];
    }
    for (; b < nblocks; b++) {
        int64_t cur = offsets[b];
        int64_t s = b * block_size;
        int64_t stop = n - s < block_size ? n : s + block_size;
        for (; s < stop; s++)
            cur = decode_one(payload, nbytes, sym_table, len_table, shift,
                             mask, cur, out, s, &e);
        ends[b] = cur;
    }
    return e.met;
}

/* QP inverse: q += prediction where the condition holds, in place.  cond is
 * 2, 3 or 4 for Cases II-IV (Case I is repro_prefix_sums).  Case II
 * needs every involved neighbour to differ from the sentinel; III also needs
 * left and top to share a nonzero sign; IV needs that of left, top and
 * top-left in 2-D, and of left, top and back in 3-D.  A raster scan in C
 * order reaches every neighbour before the point itself, exactly as the
 * numpy wavefront does. */
static int same_sign2(int64_t a, int64_t b)
{
    return (a > 0 && b > 0) || (a < 0 && b < 0);
}

static int same_sign3(int64_t a, int64_t b, int64_t c)
{
    return (a > 0 && b > 0 && c > 0) || (a < 0 && b < 0 && c < 0);
}

/* 1-D inverse along the middle axis of an (outer, n, inner) array.  The
 * prediction is the one neighbour itself, so the sign tests of III and IV
 * only skip adding zero: all three cases reduce to the sentinel test. */
void repro_qp_inverse_1d(int64_t *q, int64_t outer, int64_t n, int64_t inner,
                         int64_t sentinel)
{
    for (int64_t o = 0; o < outer; o++) {
        int64_t *a = q + o * n * inner;
        for (int64_t j = 1; j < n; j++) {
            for (int64_t k = 0; k < inner; k++) {
                int64_t nb = a[(j - 1) * inner + k];
                if (nb != sentinel)
                    a[j * inner + k] = WRAP_ADD(a[j * inner + k], nb);
            }
        }
    }
}

/* 2-D Lorenzo inverse over the last two axes of a (batch, na, nb) array:
 * top is the row above, left the column before.  Each row carries its left
 * and top-left neighbours in registers; missing neighbours read as 0. */
void repro_qp_inverse_2d(int64_t *q, int64_t batch, int64_t na, int64_t nb,
                         int64_t cond, int64_t sentinel)
{
    for (int64_t p = 0; p < batch; p++) {
        for (int64_t i = 0; i < na; i++) {
            int64_t *row = q + (p * na + i) * nb;
            const int64_t *up = i ? row - nb : row;  /* read only if i */
            int64_t l = 0, lt = 0;
            for (int64_t j = 0; j < nb; j++) {
                int64_t t = i ? up[j] : 0;
                int64_t x = row[j];
                if (l != sentinel && t != sentinel && lt != sentinel
                    && (cond == 3 ? same_sign2(l, t)
                        : cond == 2 || same_sign3(l, t, lt))) {
                    x = WRAP_ADD(x, (uint64_t)l + (uint64_t)t - (uint64_t)lt);
                    row[j] = x;
                }
                l = x;
                lt = t;
            }
        }
    }
}

/* 3-D Lorenzo inverse over a (batch, na, nb, nc) array: back is the
 * previous plane along na, top the previous row, left the previous column.
 * As in 2-D, each row carries its left-side neighbours in registers. */
void repro_qp_inverse_3d(int64_t *q, int64_t batch, int64_t na, int64_t nb,
                         int64_t nc, int64_t cond, int64_t sentinel)
{
    const int64_t sa = nb * nc;
    for (int64_t p = 0; p < batch; p++) {
        for (int64_t i = 0; i < na; i++) {
            for (int64_t j = 0; j < nb; j++) {
                int64_t *row = q + (p * na + i) * sa + j * nc;
                /* each read only when its axis index is nonzero */
                const int64_t *up = j ? row - nc : row;
                const int64_t *bk = i ? row - sa : row;
                const int64_t *bkup = i && j ? row - sa - nc : row;
                int64_t l = 0, lt = 0, lb = 0, ltb = 0;
                for (int64_t k = 0; k < nc; k++) {
                    int64_t t = j ? up[k] : 0;
                    int64_t b = i ? bk[k] : 0;
                    int64_t tb = i && j ? bkup[k] : 0;
                    int64_t x = row[k];
                    if (l != sentinel && t != sentinel && b != sentinel
                        && lt != sentinel && lb != sentinel
                        && tb != sentinel && ltb != sentinel
                        && (cond == 3 ? same_sign2(l, t)
                            : cond == 2 || same_sign3(l, t, b))) {
                        uint64_t pred = (uint64_t)l + (uint64_t)t + (uint64_t)b
                                        - (uint64_t)lt - (uint64_t)lb
                                        - (uint64_t)tb + (uint64_t)ltb;
                        x = WRAP_ADD(x, pred);
                        row[k] = x;
                    }
                    l = x;
                    lt = t;
                    lb = b;
                    ltb = tb;
                }
            }
        }
    }
}

/* Prefix sums of the C-contiguous array src of extents dims[0..3] into
 * q, of the same layout (src == q sums in place), along every axis a
 * whose bit 1 << a is set in axes, wrapping like numpy's int64 cumsum
 * (sums along different axes commute).  This inverts Lorenzo's
 * differences and QP's Case I.  With n_esc >= 0 it first reinstates
 * Lorenzo's escapes: each sentinel met in C order takes the next of the
 * n_esc values in esc, and none past n_esc is read.  Returns the number
 * of sentinels met (0 when n_esc < 0); the caller checks it against
 * n_esc.  Indexes only by loop counters over dims. */
int64_t repro_prefix_sums(int64_t *q, const int64_t *src, const int64_t *dims,
                          int64_t axes, int64_t sentinel, const int64_t *esc,
                          int64_t n_esc)
{
    const int64_t n0 = dims[0], n1 = dims[1], n2 = dims[2], n3 = dims[3];
    const int64_t plane = n2 * n3, block = n1 * plane;
    uint64_t *u = (uint64_t *)q;
    int64_t n = 0;
    /* The copy, the escapes and axes 3 and 2 row by row in C order: the
     * row above is final along both when a row adds it. */
    if ((axes & 12) || n_esc >= 0 || src != q) {
        for (int64_t r = 0; r < n0 * n1 * n2; r++) {
            uint64_t *x = u + r * n3;
            const int64_t *from = src + r * n3;
            if (n_esc >= 0)
                for (int64_t k = 0; k < n3; k++)
                    x[k] = from[k] == sentinel && n++ < n_esc
                           ? (uint64_t)esc[n - 1] : (uint64_t)from[k];
            else if (from != q + r * n3)
                for (int64_t k = 0; k < n3; k++)
                    x[k] = (uint64_t)from[k];
            if (axes & 8) {
                uint64_t s = 0;
                for (int64_t k = 0; k < n3; k++)
                    x[k] = s += x[k];
            }
            if ((axes & 4) && r % n2)
                for (int64_t k = 0; k < n3; k++)
                    x[k] += x[k - n3];
        }
    }
    if (axes & 2)  /* axis 1: add the previous plane */
        for (int64_t i0 = 0; i0 < n0; i0++)
            for (int64_t i1 = 1; i1 < n1; i1++) {
                uint64_t *x = u + i0 * block + i1 * plane;
                for (int64_t k = 0; k < plane; k++)
                    x[k] += x[k - plane];
            }
    if (axes & 1)  /* axis 0: add the previous block */
        for (int64_t i0 = 1; i0 < n0; i0++) {
            uint64_t *x = u + i0 * block;
            for (int64_t k = 0; k < block; k++)
                x[k] += x[k - block];
        }
    return n;
}

/* ---- encode side ------------------------------------------------------ */

/* Huffman nodes compare by (frequency, node id), the order of the numpy
 * reference's heapq tuples.  Ids are unique, so the order is total and any
 * correct priority queue pops the same sequence of nodes. */
static int node_before(const int64_t *freq, int64_t a, int64_t b)
{
    return freq[a] < freq[b] || (freq[a] == freq[b] && a < b);
}

static void sift_down(int64_t *heap, int64_t size, const int64_t *freq,
                      int64_t i)
{
    int64_t x = heap[i];
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= size)
            break;
        if (c + 1 < size && node_before(freq, heap[c + 1], heap[c]))
            c++;
        if (!node_before(freq, heap[c], x))
            break;
        heap[i] = heap[c];
        i = c;
    }
    heap[i] = x;
}

/* Unlimited Huffman code lengths of m >= 2 leaves with frequencies
 * freqs[0..m) (each >= 1, their total below 2**63).  Leaf i is node i;
 * internal nodes are numbered from m upward in creation order, as in
 * repro.codecs.huffman._huffman_lengths_heap.  scratch holds 5m int64s:
 * the heap (m), node frequencies (2m - 1, later node depths) and parents
 * (2m - 1).  Writes the leaf depths to lens[0..m). */
void repro_huffman_lengths(const int64_t *freqs, int64_t m, int64_t *lens,
                           int64_t *scratch)
{
    int64_t *heap = scratch;
    int64_t *freq = heap + m;
    int64_t *parent = freq + 2 * m - 1;
    const int64_t root = 2 * m - 2;
    for (int64_t i = 0; i < m; i++) {
        freq[i] = freqs[i];
        heap[i] = i;
    }
    for (int64_t i = m / 2 - 1; i >= 0; i--)
        sift_down(heap, m, freq, i);
    int64_t size = m;
    for (int64_t node = m; node <= root; node++) {
        int64_t a = heap[0];
        heap[0] = heap[--size];
        sift_down(heap, size, freq, 0);
        int64_t b = heap[0];
        freq[node] = freq[a] + freq[b];
        parent[a] = parent[b] = node;
        heap[0] = node;  /* pop b and push the new node in one sift */
        sift_down(heap, size, freq, 0);
    }
    /* A parent is created after its children, so walking ids downward
     * reaches every parent's depth before its children need it. */
    int64_t *depth = freq;
    depth[root] = 0;
    for (int64_t i = root - 1; i >= 0; i--)
        depth[i] = depth[parent[i]] + 1;
    for (int64_t i = 0; i < m; i++)
        lens[i] = depth[i];
}

/* Pack the codes of symbols[0..n) MSB-first into out[0..nbytes),
 * recording the bit offset of every block_size-th symbol in offsets.  Each
 * symbol is first windowed: c = symbols[s] - offset (wrapping), and a c
 * outside [0, escape) codes as escape and is stored to esc, the first
 * n_esc of them in stream order.  codes/lens map each c coded to its code
 * and length (1..20 bits).  The caller builds the tables from the
 * frequencies of the windowed symbols and sizes out from them: ceil(sum
 * of their code lengths / 8).  Returns the count of symbols coded as
 * escape, or -1, with nothing written past out[nbytes - 1], as soon as a
 * code does not fit.  A plain container passes offset 0 and escape -1,
 * which, read unsigned, no symbol reaches: none escapes. */
int64_t repro_huffman_encode(const int64_t *symbols, int64_t n,
                             const uint64_t *codes, const int64_t *lens,
                             int64_t block_size, uint8_t *out, int64_t nbytes,
                             uint64_t *offsets, int64_t offset, int64_t escape,
                             int64_t *esc, int64_t n_esc)
{
    uint64_t acc = 0;  /* pending bits: the low `fill` are live */
    int64_t fill = 0, pos = 0, k = 0;
    for (int64_t s = 0, b = 0; s < n; b++) {
        offsets[b] = (uint64_t)(8 * pos + fill);
        int64_t stop = n - s < block_size ? n : s + block_size;
        for (; s < stop; s++) {
            int64_t c = WRAP_ADD(symbols[s], -(uint64_t)offset);
            if ((uint64_t)c >= (uint64_t)escape) {
                if (k < n_esc)
                    esc[k] = c;
                k++;
                c = escape;
            }
            int64_t len = lens[c];
            acc = acc << len | codes[c];
            fill += len;  /* below 32 + 20: no live bit shifts out */
            if (fill >= 32) {
                if (pos + 4 > nbytes)
                    return -1;
                fill -= 32;
                uint32_t w = (uint32_t)(acc >> fill);
                out[pos] = (uint8_t)(w >> 24);
                out[pos + 1] = (uint8_t)(w >> 16);
                out[pos + 2] = (uint8_t)(w >> 8);
                out[pos + 3] = (uint8_t)w;
                pos += 4;
            }
        }
    }
    if (pos + (fill + 7) / 8 > nbytes)
        return -1;
    for (; fill >= 8; pos++) {
        fill -= 8;
        out[pos] = (uint8_t)(acc >> fill);
    }
    if (fill)
        out[pos] = (uint8_t)(acc << (8 - fill));
    return k;
}

/* The least and the greatest of x[0..n), n >= 1, into bounds[0..1].
 * Even and odd elements keep their own pair, so two compare chains run
 * side by side. */
void repro_int_bounds(const int64_t *x, int64_t n, int64_t *bounds)
{
    int64_t lo0 = x[0], hi0 = x[0], lo1 = x[0], hi1 = x[0];
    int64_t i = 0;
    for (; i + 2 <= n; i += 2) {
        int64_t a = x[i], b = x[i + 1];
        lo0 = a < lo0 ? a : lo0;
        hi0 = a > hi0 ? a : hi0;
        lo1 = b < lo1 ? b : lo1;
        hi1 = b > hi1 ? b : hi1;
    }
    if (i < n) {
        lo0 = x[i] < lo0 ? x[i] : lo0;
        hi0 = x[i] > hi0 ? x[i] : hi0;
    }
    bounds[0] = lo0 < lo1 ? lo0 : lo1;
    bounds[1] = hi0 > hi1 ? hi0 : hi1;
}

/* counts[v - lo] += 1 for each v of x[0..n) with lo <= v < lo + nbins
 * (with lo and nbins from repro_int_bounds that is every v).  counts
 * holds ways (1 or 4) zeroed tables of nbins: with 4, element i counts
 * in table i % 4, so runs of one value (an index stream is mostly
 * zeros) do not wait on each other's increments, and the tables are
 * then summed into the first. */
void repro_int_histogram(const int64_t *x, int64_t n, int64_t lo,
                         int64_t nbins, int64_t ways, int64_t *counts)
{
    int64_t i = 0;
    if (ways == 4)
        for (; i + 4 <= n; i += 4)
            for (int k = 0; k < 4; k++) {
                uint64_t b = (uint64_t)x[i + k] - (uint64_t)lo;
                if (b < (uint64_t)nbins)
                    counts[k * nbins + b]++;
            }
    for (; i < n; i++) {
        uint64_t b = (uint64_t)x[i] - (uint64_t)lo;
        if (b < (uint64_t)nbins)
            counts[b]++;
    }
    for (int64_t k = 1; k < ways; k++)
        for (int64_t b = 0; b < nbins; b++)
            counts[b] += counts[k * nbins + b];
}

/* QP forward: out = q - c, where c is the compensation that
 * repro.core.conditions.compensation computes from the neighbours of each
 * point in q (the input, never the output), and a missing neighbour reads
 * as 0.  cond is 1-4 for Cases I-IV; Case I predicts through sentinels.
 *
 * q is a strided view described by geom = {n0, n1, n2, n3, s0, s1, s2, s3}
 * (extents, then strides in elements); out is the C-contiguous array of
 * the same shape.  Axis 0 is the back axis, 2 the top (row) axis and 3 the
 * left (column) axis; 1 is a batch axis, and so is 0 for the 1-D and 2-D
 * predictors.  Each row reads its neighbour rows through the strides and
 * carries its left-side neighbours in registers.
 *
 * Each exported kernel switches on cond once and calls an inline body
 * with cond constant, so every case gets its own loop.  The case tests are
 * bitwise, so data signs cause no branch mispredictions: keep is 0 or 1
 * and c = pred & -keep. */
#define KEEP(keep, pred) ((uint64_t)(pred) & -(uint64_t)(keep))

/* 1 where Case cond keeps the prediction.  ok is the sentinel test of the
 * involved neighbours; for III and IV, a, b and c must share a nonzero
 * sign (callers pass c = a for the two-neighbour test). */
static inline int keep_case(int cond, int ok, int64_t a, int64_t b, int64_t c)
{
    if (cond == 1)
        return 1;
    if (cond == 2)
        return ok;
    return ok & ((a ^ b) >= 0) & ((a ^ c) >= 0) & (a != 0) & (b != 0)
           & (c != 0);
}

#define VIEW_GEOMETRY                                                       \
    const int64_t n0 = geom[0], n1 = geom[1], n2 = geom[2], n3 = geom[3];   \
    const int64_t s0 = geom[4], s1 = geom[5], s2 = geom[6], s3 = geom[7]

/* The strides of a second array walked alongside the view, in elements,
 * following the view's in geom. */
#define OUT_STRIDES                                                         \
    const int64_t t0 = geom[8], t1 = geom[9], t2 = geom[10], t3 = geom[11]

/* 1-D: the neighbour is the previous element along axis (0, 2 or 3).  As
 * in the inverse, the sign tests of III and IV only skip subtracting zero,
 * so Cases II-IV reduce to the sentinel test. */
static inline void forward_1d(const int64_t *q, const int64_t *geom,
                              int64_t axis, int cond, int64_t sentinel,
                              int64_t *out)
{
    VIEW_GEOMETRY;
    for (int64_t i0 = 0; i0 < n0; i0++)
        for (int64_t i1 = 0; i1 < n1; i1++)
            for (int64_t i2 = 0; i2 < n2; i2++) {
                const int64_t *row = q + i0 * s0 + i1 * s1 + i2 * s2;
                /* the neighbour row along axis 0 or 2, when there is one */
                const int64_t *prev = axis == 0 ? (i0 ? row - s0 : 0)
                                    : axis == 2 ? (i2 ? row - s2 : 0) : 0;
                int64_t l = 0;
                for (int64_t k = 0; k < n3; k++) {
                    int64_t x = row[k * s3];
                    int64_t nb = axis == 3 ? l : prev ? prev[k * s3] : 0;
                    int keep = (cond == 1) | (nb != sentinel);
                    *out++ = (int64_t)((uint64_t)x - KEEP(keep, nb));
                    l = x;
                }
            }
}

void repro_qp_forward_1d(const int64_t *q, const int64_t *geom, int64_t axis,
                         int64_t cond, int64_t sentinel, int64_t *out)
{
    if (cond == 1)
        forward_1d(q, geom, axis, 1, sentinel, out);
    else  /* II-IV */
        forward_1d(q, geom, axis, 2, sentinel, out);
}

/* 2-D Lorenzo over axes 2 (top) and 3 (left). */
static inline void forward_2d(const int64_t *q, const int64_t *geom,
                              int cond, int64_t sentinel, int64_t *out)
{
    VIEW_GEOMETRY;
    for (int64_t i0 = 0; i0 < n0; i0++)
        for (int64_t i1 = 0; i1 < n1; i1++)
            for (int64_t i2 = 0; i2 < n2; i2++) {
                const int64_t *row = q + i0 * s0 + i1 * s1 + i2 * s2;
                const int64_t *up = i2 ? row - s2 : row;  /* read only if i2 */
                int64_t l = 0, lt = 0;
                for (int64_t k = 0; k < n3; k++) {
                    int64_t x = row[k * s3];
                    int64_t t = i2 ? up[k * s3] : 0;
                    int ok = (l != sentinel) & (t != sentinel)
                             & (lt != sentinel);
                    int keep = keep_case(cond, ok, l, t, cond == 4 ? lt : l);
                    uint64_t pred = (uint64_t)l + (uint64_t)t - (uint64_t)lt;
                    *out++ = (int64_t)((uint64_t)x - KEEP(keep, pred));
                    l = x;
                    lt = t;
                }
            }
}

void repro_qp_forward_2d(const int64_t *q, const int64_t *geom, int64_t cond,
                         int64_t sentinel, int64_t *out)
{
    switch (cond) {
    case 1: forward_2d(q, geom, 1, sentinel, out); break;
    case 2: forward_2d(q, geom, 2, sentinel, out); break;
    case 3: forward_2d(q, geom, 3, sentinel, out); break;
    default: forward_2d(q, geom, 4, sentinel, out); break;
    }
}

/* 3-D Lorenzo over axes 0 (back), 2 (top) and 3 (left). */
static inline void forward_3d(const int64_t *q, const int64_t *geom,
                              int cond, int64_t sentinel, int64_t *out)
{
    VIEW_GEOMETRY;
    for (int64_t i0 = 0; i0 < n0; i0++)
        for (int64_t i1 = 0; i1 < n1; i1++)
            for (int64_t i2 = 0; i2 < n2; i2++) {
                const int64_t *row = q + i0 * s0 + i1 * s1 + i2 * s2;
                /* each read only when its axis index is nonzero */
                const int64_t *up = i2 ? row - s2 : row;
                const int64_t *bk = i0 ? row - s0 : row;
                const int64_t *bkup = i0 && i2 ? row - s0 - s2 : row;
                int64_t l = 0, lt = 0, lb = 0, ltb = 0;
                for (int64_t k = 0; k < n3; k++) {
                    int64_t x = row[k * s3];
                    int64_t t = i2 ? up[k * s3] : 0;
                    int64_t b = i0 ? bk[k * s3] : 0;
                    int64_t tb = i0 && i2 ? bkup[k * s3] : 0;
                    int ok = (l != sentinel) & (t != sentinel)
                             & (b != sentinel) & (lt != sentinel)
                             & (lb != sentinel) & (tb != sentinel)
                             & (ltb != sentinel);
                    int keep = keep_case(cond, ok, l, t, cond == 4 ? b : l);
                    uint64_t pred = (uint64_t)l + (uint64_t)t + (uint64_t)b
                                    - (uint64_t)lt - (uint64_t)lb
                                    - (uint64_t)tb + (uint64_t)ltb;
                    *out++ = (int64_t)((uint64_t)x - KEEP(keep, pred));
                    l = x;
                    lt = t;
                    lb = b;
                    ltb = tb;
                }
            }
}

void repro_qp_forward_3d(const int64_t *q, const int64_t *geom, int64_t cond,
                         int64_t sentinel, int64_t *out)
{
    switch (cond) {
    case 1: forward_3d(q, geom, 1, sentinel, out); break;
    case 2: forward_3d(q, geom, 2, sentinel, out); break;
    case 3: forward_3d(q, geom, 3, sentinel, out); break;
    default: forward_3d(q, geom, 4, sentinel, out); break;
    }
}


/* ---- float stages ------------------------------------------------------ */

/* Each kernel walks one strided array in C order as a rank-4 view, read
 * through VIEW_GEOMETRY (repro.kernels merges and pads the caller's axes
 * to four).  Every other array of a call is C-contiguous with the view's
 * n0*n1*n2*n3 points, so point i of the walk sits at offset i there, but
 * for the decode kernels' output: they write it through four more strides
 * (OUT_STRIDES), so a pass decodes straight into its target view of the
 * working array.
 *
 * Each body is written once and instantiated for float32 (single = 1) and
 * float64; forcing it inline makes single a constant in each copy. */
#define BODY static inline __attribute__((always_inline))

/* The quantizers' constants, filled once per quantizer by the caller. */
struct quant_params {
    double two_eb;     /* 2e */
    double eb;         /* e: a reconstruction further off is a literal */
    double radius;     /* an index of magnitude >= radius is a literal */
    int64_t sentinel;  /* -radius, a literal's index */
    /* adaptive quantizer only */
    double two_tight;  /* 2e / 2**bits */
    double tight_eb;   /* e / 2**bits, a hard point's bound */
    double threshold;  /* a coarse index of magnitude >= threshold is hard */
    double bias;       /* reserved_bias(bits, threshold) */
};

/* np.rint: round half to even, keeping the sign of zero.  For |x| < 2**52,
 * adding and subtracting 2**52 rounds to an integer in the default
 * rounding mode, exactly; larger magnitudes are integers already and pass
 * through, as do infinities and NaN. */
static inline double round_even(double x)
{
    double a = fabs(x);
    if (!(a < 0x1p52))
        return x;
    return copysign((a + 0x1p52) - 0x1p52, x);
}

/* np.sign */
static inline double sign_of(double x)
{
    return x > 0 ? 1.0 : x < 0 ? -1.0 : x;
}

/* Element i of a float32 or float64 array, widened to double (exact). */
static inline double load(const void *a, int64_t i, int single)
{
    return single ? (double)((const float *)a)[i] : ((const double *)a)[i];
}

/* (T)x, numpy's astype: round to the element type and back (exact). */
static inline double round_to(double x, int single)
{
    return single ? (double)(float)x : x;
}

static inline void store(void *a, int64_t i, double x, int single)
{
    if (single)
        ((float *)a)[i] = (float)x;
    else
        ((double *)a)[i] = x;
}

/* LinearQuantizer.quantize of the values v (geom) against the predictions
 * p, in double as numpy computes it: q = rint((v - p) / 2e), dividing, and
 * r = (T)(p + q * 2e).  |q| >= radius, or |r - v| > e, makes the point a
 * literal: idx gets the sentinel and dec the value itself, from which the
 * caller gathers the literals in C order.  Otherwise idx gets q (numpy's
 * int64 cast) and dec gets r.  idx[n], one past the indices, gets 0 (the
 * slot adaptive_encode_body counts hard points in).  Returns the literal
 * count. */
BODY int64_t quantize_body(const void *v, const int64_t *geom, const void *p,
                           const struct quant_params *par, int64_t *idx,
                           void *dec, int single)
{
    VIEW_GEOMETRY;
    const double two_eb = par->two_eb, eb = par->eb, radius = par->radius;
    const int64_t sentinel = par->sentinel;
    int64_t i = 0, n_lit = 0;
    for (int64_t i0 = 0; i0 < n0; i0++)
        for (int64_t i1 = 0; i1 < n1; i1++)
            for (int64_t i2 = 0; i2 < n2; i2++) {
                const int64_t row = i0 * s0 + i1 * s1 + i2 * s2;
                for (int64_t k = 0; k < n3; k++, i++) {
                    double x = load(v, row + k * s3, single);
                    double pr = load(p, i, single);
                    double q = round_even((x - pr) / two_eb);
                    double r = 0;
                    int lit = fabs(q) >= radius;
                    if (!lit) {
                        r = round_to(pr + q * two_eb, single);
                        lit = fabs(r - x) > eb;
                    }
                    idx[i] = lit ? sentinel : (int64_t)q;
                    store(dec, i, lit ? x : r, single);
                    n_lit += lit;
                }
            }
    idx[i] = 0;
    return n_lit;
}

/* LinearQuantizer.dequantize of the indices w (geom): (T)(p + 2e * w),
 * and at each sentinel the next of the n_lit literals, in C order, into
 * out through its strides (OUT_STRIDES).  Reads no literal past n_lit
 * whatever w holds, and leaves a sentinel past them unwritten; returns the
 * sentinel count, which the caller checks against n_lit. */
BODY int64_t dequantize_body(const int64_t *w, const int64_t *geom,
                             const void *p, const void *lit, int64_t n_lit,
                             const struct quant_params *par, void *out,
                             int single)
{
    VIEW_GEOMETRY;
    OUT_STRIDES;
    const double two_eb = par->two_eb;
    const int64_t sentinel = par->sentinel;
    int64_t i = 0, n = 0;
    for (int64_t i0 = 0; i0 < n0; i0++)
        for (int64_t i1 = 0; i1 < n1; i1++)
            for (int64_t i2 = 0; i2 < n2; i2++) {
                const int64_t row = i0 * s0 + i1 * s1 + i2 * s2;
                const int64_t to = i0 * t0 + i1 * t1 + i2 * t2;
                for (int64_t k = 0; k < n3; k++, i++) {
                    int64_t x = w[row + k * s3];
                    if (x != sentinel)
                        store(out, to + k * t3,
                              load(p, i, single) + two_eb * (double)x, single);
                    else if (n++ < n_lit)
                        store(out, to + k * t3, load(lit, n - 1, single),
                              single);
                }
            }
    return n;
}

/* adaptive_encode, step for step: a point whose coarse index
 * q = rint(d / 2e) reaches the threshold is hard and re-quantized at the
 * tight scale, qt = rint(d / (2e / 2**bits)), shipping sign(qt) *
 * (|qt| - bias).  Literals as in quantize_body, plus a hard index that
 * falls below the threshold (the aliasing guard), each point checked
 * against its own bound.  idx[n] (one past the indices) gets the count of
 * hard points that are not literals.  Returns the literal count. */
BODY int64_t adaptive_encode_body(const void *v, const int64_t *geom,
                                  const void *p,
                                  const struct quant_params *par, int64_t *idx,
                                  void *dec, int single)
{
    VIEW_GEOMETRY;
    const double two_eb = par->two_eb, eb = par->eb, radius = par->radius;
    const double two_tight = par->two_tight, tight_eb = par->tight_eb;
    const double threshold = par->threshold, bias = par->bias;
    const int64_t sentinel = par->sentinel;
    int64_t i = 0, n_lit = 0, n_hard = 0;
    for (int64_t i0 = 0; i0 < n0; i0++)
        for (int64_t i1 = 0; i1 < n1; i1++)
            for (int64_t i2 = 0; i2 < n2; i2++) {
                const int64_t row = i0 * s0 + i1 * s1 + i2 * s2;
                for (int64_t k = 0; k < n3; k++, i++) {
                    double x = load(v, row + k * s3, single);
                    double pr = load(p, i, single);
                    double d = x - pr;
                    double q = round_even(d / two_eb);
                    int hard = fabs(q) >= threshold;
                    double wire = q, scale = two_eb, bound = eb;
                    if (hard) {
                        q = round_even(d / two_tight);
                        wire = sign_of(q) * (fabs(q) - bias);
                        scale = two_tight;
                        bound = tight_eb;
                    }
                    double r = round_to(pr + scale * q, single);
                    int lit = fabs(wire) >= radius
                              || (hard && fabs(wire) < threshold)
                              || fabs(r - x) > bound;
                    idx[i] = lit ? sentinel : (int64_t)wire;
                    store(dec, i, lit ? x : r, single);
                    n_lit += lit;
                    n_hard += hard && !lit;
                }
            }
    idx[i] = n_hard;
    return n_lit;
}

/* adaptive_decode: an index of magnitude >= threshold is hard and decodes
 * at the tight scale as sign(w) * (|w| + bias); the output, literals and
 * the return value as in dequantize_body. */
BODY int64_t adaptive_decode_body(const int64_t *w, const int64_t *geom,
                                  const void *p, const void *lit,
                                  int64_t n_lit,
                                  const struct quant_params *par, void *out,
                                  int single)
{
    VIEW_GEOMETRY;
    OUT_STRIDES;
    const double two_eb = par->two_eb, two_tight = par->two_tight;
    const double threshold = par->threshold, bias = par->bias;
    const int64_t sentinel = par->sentinel;
    int64_t i = 0, n = 0;
    for (int64_t i0 = 0; i0 < n0; i0++)
        for (int64_t i1 = 0; i1 < n1; i1++)
            for (int64_t i2 = 0; i2 < n2; i2++) {
                const int64_t row = i0 * s0 + i1 * s1 + i2 * s2;
                const int64_t to = i0 * t0 + i1 * t1 + i2 * t2;
                for (int64_t k = 0; k < n3; k++, i++) {
                    int64_t x = w[row + k * s3];
                    if (x == sentinel) {
                        if (n++ < n_lit)
                            store(out, to + k * t3, load(lit, n - 1, single),
                                  single);
                        continue;
                    }
                    double wd = (double)x;
                    int hard = fabs(wd) >= threshold;
                    double q = hard ? sign_of(wd) * (fabs(wd) + bias) : wd;
                    double scale = hard ? two_tight : two_eb;
                    store(out, to + k * t3, load(p, i, single) + scale * q,
                          single);
                }
            }
    return n;
}

/* Midpoint fill rules, in the element type's own arithmetic as numpy
 * computes them on float32 or float64 arrays (a Python scalar operand
 * takes the array's type): the linear (b + c) / 2, the cubic
 * (9 (b + c) - (a + d)) / 16, and the copy of b, where a, b, c, d are
 * four consecutive known points along the axis. */
enum { FILL_LINEAR, FILL_CUBIC, FILL_COPY };

#define FILL_RUN(T)                                                         \
    do {                                                                    \
        const T *kn = known;                                                \
        T *o = (T *)out + i;                                                \
        if (rule == FILL_COPY)                                              \
            for (int64_t k = 0; k < n; k++, b += s)                         \
                o[k] = kn[b];                                               \
        else if (rule == FILL_LINEAR)                                       \
            for (int64_t k = 0; k < n; k++, b += s)                         \
                o[k] = (kn[b] + kn[b + sa]) / 2;                            \
        else                                                                \
            for (int64_t k = 0; k < n; k++, b += s)                         \
                o[k] = (9 * (kn[b] + kn[b + sa])                            \
                        - (kn[b - sa] + kn[b + 2 * sa])) / 16;              \
    } while (0)

/* n targets of one rule into out[i ..): target k's left neighbour b (the
 * known point at offset b + k * s) and the other three sit sa apart. */
static inline void fill_run(const void *known, int rule, int64_t b,
                            int64_t sa, int64_t s, int64_t n, void *out,
                            int64_t i, int single)
{
    if (single)
        FILL_RUN(float);
    else
        FILL_RUN(double);
}

/* predict_midpoints: targets t = 0 .. nt-1 along the view axis ax of the
 * known points (nk of them, nt = nk - 1 or nk), into out, C-contiguous in
 * the view's orientation with nt in place of nk.  Target t sits between
 * known t and t + 1.  With cubic set and nk >= 4, targets 1 .. n_inner-2
 * are cubic; the first and last of the n_inner = min(nt, nk - 1) inner
 * targets are linear, and a trailing target (t = nk - 1) copies its left
 * neighbour.  geom is the view geometry followed by ax, nt and cubic. */
BODY void fill_body(const void *known, const int64_t *geom, void *out,
                    int single)
{
    VIEW_GEOMETRY;
    const int64_t ax = geom[8], nt = geom[9];
    const int64_t nk = geom[ax], sa = geom[4 + ax];
    const int cubic = geom[10] && nk >= 4;
    const int64_t n_inner = nt < nk - 1 ? nt : nk - 1;
    /* the output's extents: nt targets along ax */
    const int64_t e0 = ax == 0 ? nt : n0, e1 = ax == 1 ? nt : n1;
    const int64_t e2 = ax == 2 ? nt : n2;
    int64_t i = 0;
    for (int64_t i0 = 0; i0 < e0; i0++)
        for (int64_t i1 = 0; i1 < e1; i1++)
            for (int64_t i2 = 0; i2 < e2; i2++) {
                const int64_t row = i0 * s0 + i1 * s1 + i2 * s2;
                if (ax == 3) {  /* the row is one line of targets */
                    int mid = cubic ? FILL_CUBIC : FILL_LINEAR;
                    int64_t n_mid = n_inner > 2 ? n_inner - 2 : 0;
                    fill_run(known, FILL_LINEAR, row, s3, s3,
                             n_inner < 1 ? n_inner : 1, out, i, single);
                    fill_run(known, mid, row + s3, s3, s3, n_mid, out, i + 1,
                             single);
                    if (n_inner > 1)
                        fill_run(known, FILL_LINEAR, row + (n_inner - 1) * s3,
                                 s3, s3, 1, out, i + n_inner - 1, single);
                    fill_run(known, FILL_COPY, row + n_inner * s3, s3, s3,
                             nt - n_inner, out, i + n_inner, single);
                    i += nt;
                    continue;
                }
                /* the row is n3 targets, all at t along ax */
                const int64_t t = ax == 0 ? i0 : ax == 1 ? i1 : i2;
                int rule = t >= n_inner ? FILL_COPY
                           : cubic && t > 0 && t < n_inner - 1 ? FILL_CUBIC
                           : FILL_LINEAR;
                fill_run(known, rule, row, sa, s3, n3, out, i, single);
                i += n3;
            }
}

/* ---- Lorenzo and SZ3's predictor selection ------------------------------ */

/* dq -= prev and prev = the old dq, over n elements; with has_prev clear
 * (the first row, plane or block) only prev = dq, as a missing neighbour
 * reads as 0. */
static inline void difference(uint64_t *dq, uint64_t *prev, int64_t n,
                              int has_prev)
{
    if (has_prev)
        for (int64_t k = 0; k < n; k++) {
            uint64_t d = dq[k];
            dq[k] = d - prev[k];
            prev[k] = d;
        }
    else
        for (int64_t k = 0; k < n; k++)
            prev[k] = dq[k];
}

/* repro.predictors.lorenzo's pre-quantization: t = rint(v / 2e) in double
 * (numpy's float64 divide and ties-to-even rint; the caller's guard keeps
 * |t| <= 2**60, so the int64 cast is exact). */
BODY int64_t prequantize(const void *v, int64_t at, double two_eb, int single)
{
    return (int64_t)round_even(load(v, at, single) / two_eb);
}

/* Lorenzo's pre-quantization of the values v (geom) into t, C-contiguous,
 * and when rec is set the reconstruction (T)(t * 2e) into rec. */
BODY void prequantize_body(const void *v, const int64_t *geom, double two_eb,
                           int64_t *t, void *rec, int single)
{
    VIEW_GEOMETRY;
    int64_t i = 0;
    for (int64_t i0 = 0; i0 < n0; i0++)
        for (int64_t i1 = 0; i1 < n1; i1++)
            for (int64_t i2 = 0; i2 < n2; i2++) {
                const int64_t row = i0 * s0 + i1 * s1 + i2 * s2;
                for (int64_t k = 0; k < n3; k++, i++) {
                    t[i] = prequantize(v, row + k * s3, two_eb, single);
                    if (rec)
                        store(rec, i, round_to((double)t[i] * two_eb, single),
                              single);
                }
            }
}

/* Lorenzo's residuals: the first difference of t along every axis of the
 * view, a missing neighbour reading as 0, in int64 that wraps like
 * numpy's.  The view keeps the array's own axes (repro.kernels merges
 * none), unit axes dropped: differencing along them changes nothing.
 * Differences along different axes commute, so each row is differenced
 * along axis 3 into dq, then along axes 2, 1 and 0 against the previous
 * row's, plane's and block's partial differences.  scratch holds dq (n3
 * int64s), then those three (n3, n2*n3 and n1*n2*n3, each only for an
 * axis longer than 1).  A residual q with |q| >= radius escapes; |q| is
 * numpy's int64 abs, so INT64_MIN stays negative and does not escape.
 *
 * With q set (encode): t is q itself, C-contiguous, pre-quantized by
 * prequantize_body; each row is overwritten with its residuals, -radius
 * where one escapes, and esc gets the escaping residuals in C order (room
 * for every point).  Returns the escape count.  Without q (histogram): t
 * is pre-quantized from the values v (geom) on the fly and nothing is
 * written but hist, where bin 0 counts escapes (the sentinel -radius) and
 * bin q + radius every other residual, and bounds[0..1], which widen to
 * the lowest and highest bin touched.  Returns the escape count, or -1
 * when some residual is INT64_MIN, which the table cannot hold (hist is
 * then incomplete). */
BODY int64_t lorenzo_body(const void *v, const int64_t *geom, double two_eb,
                          int64_t radius, int64_t *scratch, int64_t *q,
                          int64_t *esc, int64_t *hist, int64_t *bounds,
                          int single)
{
    VIEW_GEOMETRY;
    uint64_t *dq = (uint64_t *)scratch;
    uint64_t *row = dq + n3;
    uint64_t *plane = row + (n2 > 1 ? n3 : 0);
    uint64_t *block = plane + (n1 > 1 ? n2 * n3 : 0);
    int64_t i = 0, n_esc = 0, n_bad = 0;
    int64_t lo = q ? 0 : bounds[0], hi = q ? 0 : bounds[1];
    for (int64_t i0 = 0; i0 < n0; i0++)
        for (int64_t i1 = 0; i1 < n1; i1++)
            for (int64_t i2 = 0; i2 < n2; i2++) {
                const int64_t at = i0 * s0 + i1 * s1 + i2 * s2;
                uint64_t left = 0;
                for (int64_t k = 0; k < n3; k++) {
                    uint64_t t = (uint64_t)(q ? q[i + k]
                        : prequantize(v, at + k * s3, two_eb, single));
                    dq[k] = t - left;
                    left = t;
                }
                if (n2 > 1)
                    difference(dq, row, n3, i2 > 0);
                if (n1 > 1)
                    difference(dq, plane + i2 * n3, n3, i1 > 0);
                if (n0 > 1)
                    difference(dq, block + (i1 * n2 + i2) * n3, n3, i0 > 0);
                for (int64_t k = 0; k < n3; k++, i++) {
                    int64_t r = (int64_t)dq[k];
                    uint64_t neg = (uint64_t)(r >> 63);
                    int64_t mag = (int64_t)((dq[k] ^ neg) - neg);
                    int64_t escape = mag >= radius;
                    if (q) {
                        q[i] = escape ? -radius : r;
                        if (escape)
                            esc[n_esc] = r;
                    } else if (mag < 0) {
                        n_bad++;
                        continue;
                    } else {
                        int64_t b = (r + radius) & (escape - 1);
                        hist[b]++;
                        lo = b < lo ? b : lo;
                        hi = b > hi ? b : hi;
                    }
                    n_esc += escape;
                }
            }
    if (!q) {
        bounds[0] = lo;
        bounds[1] = hi;
    }
    return n_bad ? -1 : n_esc;
}

/* SZ3's interpolation estimate for one pass: the values v (geom) against
 * the predictions p give q = rint((v - p) / 2e) in the element type's
 * arithmetic, as numpy computes it on float32 or float64 arrays (2e
 * rounded to that type), clipped to [-radius, radius] and binned into
 * hist at q + radius; bounds widen as in lorenzo_body.  Clipping to
 * integer bounds before rounding gives the same index, and leaves |q| <=
 * radius <= 2**51, where adding 1.5 * 2**52 rounds q ties-to-even into
 * the low bits of the sum.  Returns the count of NaN residuals, which
 * are left out (hist is then incomplete). */
BODY int64_t bin_residuals_body(const void *v, const int64_t *geom,
                                const void *p, double two_eb, int64_t radius,
                                int64_t *hist, int64_t *bounds, int single)
{
    VIEW_GEOMETRY;
    const float two_eb_f = (float)two_eb;
    const double lim = (double)radius, shift = 0x1.8p52;
    int64_t zero;
    memcpy(&zero, &shift, sizeof zero);
    int64_t i = 0, n_nan = 0, lo = bounds[0], hi = bounds[1];
    for (int64_t i0 = 0; i0 < n0; i0++)
        for (int64_t i1 = 0; i1 < n1; i1++)
            for (int64_t i2 = 0; i2 < n2; i2++) {
                const int64_t row = i0 * s0 + i1 * s1 + i2 * s2;
                for (int64_t k = 0; k < n3; k++, i++) {
                    double q;
                    if (single) {
                        float d = ((const float *)v)[row + k * s3]
                                  - ((const float *)p)[i];
                        q = (double)(d / two_eb_f);
                    } else {
                        double d = ((const double *)v)[row + k * s3]
                                   - ((const double *)p)[i];
                        q = d / two_eb;
                    }
                    if (q != q) {
                        n_nan++;
                        continue;
                    }
                    double y = (q < -lim ? -lim : q > lim ? lim : q) + shift;
                    int64_t b;
                    memcpy(&b, &y, sizeof b);
                    b += radius - zero;
                    hist[b]++;
                    lo = b < lo ? b : lo;
                    hi = b > hi ? b : hi;
                }
            }
    bounds[0] = lo;
    bounds[1] = hi;
    return n_nan;
}

/* The exported instantiations: float32 (_f32) and float64 (_f64). */
int64_t repro_quantize_f32(const float *v, const int64_t *geom,
                           const float *p, const struct quant_params *par,
                           int64_t *idx, float *dec)
{
    return quantize_body(v, geom, p, par, idx, dec, 1);
}

int64_t repro_quantize_f64(const double *v, const int64_t *geom,
                           const double *p, const struct quant_params *par,
                           int64_t *idx, double *dec)
{
    return quantize_body(v, geom, p, par, idx, dec, 0);
}

int64_t repro_dequantize_f32(const int64_t *w, const int64_t *geom,
                             const float *p, const float *lit, int64_t n_lit,
                             const struct quant_params *par, float *out)
{
    return dequantize_body(w, geom, p, lit, n_lit, par, out, 1);
}

int64_t repro_dequantize_f64(const int64_t *w, const int64_t *geom,
                             const double *p, const double *lit,
                             int64_t n_lit, const struct quant_params *par,
                             double *out)
{
    return dequantize_body(w, geom, p, lit, n_lit, par, out, 0);
}

int64_t repro_adaptive_encode_f32(const float *v, const int64_t *geom,
                                  const float *p,
                                  const struct quant_params *par,
                                  int64_t *idx, float *dec)
{
    return adaptive_encode_body(v, geom, p, par, idx, dec, 1);
}

int64_t repro_adaptive_encode_f64(const double *v, const int64_t *geom,
                                  const double *p,
                                  const struct quant_params *par,
                                  int64_t *idx, double *dec)
{
    return adaptive_encode_body(v, geom, p, par, idx, dec, 0);
}

int64_t repro_adaptive_decode_f32(const int64_t *w, const int64_t *geom,
                                  const float *p, const float *lit,
                                  int64_t n_lit,
                                  const struct quant_params *par, float *out)
{
    return adaptive_decode_body(w, geom, p, lit, n_lit, par, out, 1);
}

int64_t repro_adaptive_decode_f64(const int64_t *w, const int64_t *geom,
                                  const double *p, const double *lit,
                                  int64_t n_lit,
                                  const struct quant_params *par, double *out)
{
    return adaptive_decode_body(w, geom, p, lit, n_lit, par, out, 0);
}

void repro_fill_f32(const float *known, const int64_t *geom, float *out)
{
    fill_body(known, geom, out, 1);
}

void repro_fill_f64(const double *known, const int64_t *geom, double *out)
{
    fill_body(known, geom, out, 0);
}

void repro_lorenzo_prequantize_f32(const float *v, const int64_t *geom,
                                   double two_eb, int64_t *t, float *rec)
{
    prequantize_body(v, geom, two_eb, t, rec, 1);
}

void repro_lorenzo_prequantize_f64(const double *v, const int64_t *geom,
                                   double two_eb, int64_t *t, double *rec)
{
    prequantize_body(v, geom, two_eb, t, rec, 0);
}

/* The integer half of the Lorenzo encode (lorenzo_body with q set). */
int64_t repro_lorenzo_encode(int64_t *q, const int64_t *geom, int64_t radius,
                             int64_t *scratch, int64_t *esc)
{
    return lorenzo_body(0, geom, 0, radius, scratch, q, esc, 0, 0, 0);
}

int64_t repro_lorenzo_hist_f32(const float *v, const int64_t *geom,
                               double two_eb, int64_t radius, int64_t *scratch,
                               int64_t *hist, int64_t *bounds)
{
    return lorenzo_body(v, geom, two_eb, radius, scratch, 0, 0, hist, bounds,
                        1);
}

int64_t repro_lorenzo_hist_f64(const double *v, const int64_t *geom,
                               double two_eb, int64_t radius, int64_t *scratch,
                               int64_t *hist, int64_t *bounds)
{
    return lorenzo_body(v, geom, two_eb, radius, scratch, 0, 0, hist, bounds,
                        0);
}

int64_t repro_bin_residuals_f32(const float *v, const int64_t *geom,
                                const float *p, double two_eb, int64_t radius,
                                int64_t *hist, int64_t *bounds)
{
    return bin_residuals_body(v, geom, p, two_eb, radius, hist, bounds, 1);
}

int64_t repro_bin_residuals_f64(const double *v, const int64_t *geom,
                                const double *p, double two_eb,
                                int64_t radius, int64_t *hist, int64_t *bounds)
{
    return bin_residuals_body(v, geom, p, two_eb, radius, hist, bounds, 0);
}

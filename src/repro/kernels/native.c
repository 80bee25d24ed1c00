/* Native kernels for the integer stages of the codec.
 *
 * Decode: the Huffman block decode and the QP Case II-IV inverse.
 * Encode: Huffman code lengths, Huffman bit packing and the QP forward.
 *
 * Compiled on first use by repro.kernels (cc -O2 -shared -fPIC) and called
 * through ctypes.  The numpy implementations in repro.codecs.huffman and
 * repro.core.qp are the fallback and the reference these must match bit
 * for bit.  There are no globals and nothing is allocated: the Python
 * caller owns, sizes and validates every buffer, scratch included, so
 * calls from several threads (ctypes releases the GIL) never share state.
 */
#include <stdint.h>

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

/* One symbol at bit cursor cur: store it to *dst, return the next cursor.
 * sym_table/len_table map every max_len-bit window to its symbol and code
 * length (shift = 32 - max_len, mask = 2**max_len - 1). */
static int64_t decode_one(const uint8_t *payload, int64_t nbytes,
                          const int64_t *sym_table, const uint8_t *len_table,
                          int64_t shift, uint32_t mask, int64_t cur,
                          int64_t *dst)
{
    uint32_t win = window32(payload, nbytes, cur >> 3) >> (shift - (cur & 7))
                   & mask;
    *dst = sym_table[win];
    return cur + len_table[win];
}

#define LANES 4

/* Decode n symbols stored as nblocks = ceil(n / block_size) blocks starting
 * at bit offsets[b] (1 <= max_len <= 20).  Writes out[0..n) and, per block,
 * the bit cursor it stopped at into ends[b]; the caller checks those against
 * the recorded offsets, so a corrupt stream cannot go unnoticed. */
void repro_huffman_decode(const uint8_t *payload, int64_t nbytes,
                          const int64_t *sym_table, const uint8_t *len_table,
                          int64_t max_len, const int64_t *offsets,
                          int64_t nblocks, int64_t block_size, int64_t n,
                          int64_t *out, int64_t *ends)
{
    const int64_t shift = 32 - max_len;
    const uint32_t mask = (1u << max_len) - 1u;
    int64_t b = 0;
    /* Every block but the last is full.  Walking LANES of them at once
     * overlaps their independent cursor chains. */
    for (; b + LANES < nblocks; b += LANES) {
        int64_t cur[LANES];
        int64_t *dst = out + b * block_size;
        for (int k = 0; k < LANES; k++)
            cur[k] = offsets[b + k];
        for (int64_t s = 0; s < block_size; s++)
            for (int k = 0; k < LANES; k++)
                cur[k] = decode_one(payload, nbytes, sym_table, len_table,
                                    shift, mask, cur[k],
                                    dst + k * block_size + s);
        for (int k = 0; k < LANES; k++)
            ends[b + k] = cur[k];
    }
    for (; b < nblocks; b++) {
        int64_t cur = offsets[b];
        int64_t s = b * block_size;
        int64_t stop = n - s < block_size ? n : s + block_size;
        for (; s < stop; s++)
            cur = decode_one(payload, nbytes, sym_table, len_table, shift,
                             mask, cur, out + s);
        ends[b] = cur;
    }
}

/* Sums wrap modulo 2**64 through uint64, as numpy's int64 adds do. */
#define WRAP_ADD(a, b) ((int64_t)((uint64_t)(a) + (uint64_t)(b)))

/* QP inverse: q += prediction where the condition holds, in place.  cond is
 * 2, 3 or 4 for Cases II-IV (Case I stays on numpy's prefix sums).  Case II
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

/* Pack the codes of symbols[0..n) MSB-first into out, recording the bit
 * offset of every block_size-th symbol in offsets.  codes/lens map a
 * symbol to its code and length (1..20 bits).  The caller builds the
 * tables from np.bincount(symbols), so every symbol indexes inside them,
 * and sizes out exactly: ceil(sum of the symbols' code lengths / 8). */
void repro_huffman_encode(const int64_t *symbols, int64_t n,
                          const uint64_t *codes, const int64_t *lens,
                          int64_t block_size, uint8_t *out, uint64_t *offsets)
{
    uint64_t acc = 0;  /* pending bits: the low `fill` are live */
    int64_t fill = 0, pos = 0;
    for (int64_t s = 0, b = 0; s < n; b++) {
        offsets[b] = (uint64_t)(8 * pos + fill);
        int64_t stop = n - s < block_size ? n : s + block_size;
        for (; s < stop; s++) {
            int64_t len = lens[symbols[s]];
            acc = acc << len | codes[symbols[s]];
            fill += len;  /* below 32 + 20: no live bit shifts out */
            if (fill >= 32) {
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
    for (; fill >= 8; pos++) {
        fill -= 8;
        out[pos] = (uint8_t)(acc >> fill);
    }
    if (fill)
        out[pos] = (uint8_t)(acc << (8 - fill));
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

#define FORWARD_GEOMETRY                                                    \
    const int64_t n0 = geom[0], n1 = geom[1], n2 = geom[2], n3 = geom[3];   \
    const int64_t s0 = geom[4], s1 = geom[5], s2 = geom[6], s3 = geom[7]

/* 1-D: the neighbour is the previous element along axis (0, 2 or 3).  As
 * in the inverse, the sign tests of III and IV only skip subtracting zero,
 * so Cases II-IV reduce to the sentinel test. */
static inline void forward_1d(const int64_t *q, const int64_t *geom,
                              int64_t axis, int cond, int64_t sentinel,
                              int64_t *out)
{
    FORWARD_GEOMETRY;
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
    FORWARD_GEOMETRY;
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
    FORWARD_GEOMETRY;
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

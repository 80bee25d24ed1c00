/* Native decode kernels: Huffman block decode and the QP Case II-IV inverse.
 *
 * Compiled on first use by repro.kernels (cc -O2 -shared -fPIC) and called
 * through ctypes.  The numpy implementations in repro.codecs.huffman and
 * repro.core.qp are the fallback and the reference these must match bit
 * for bit.  There are no globals and nothing is allocated: the Python
 * caller owns, sizes and validates every buffer, so calls from several
 * threads (ctypes releases the GIL) never share state.
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

/* Word-at-a-time bit packing of unsigned 64-bit values into `width`-bit
 * little-endian fields (the shift/OR packer of Lemire & Boytsov, "Decoding
 * billions of integers per second through vectorization", SPE 2015).
 *
 * Layout: value i occupies bits [i*width, (i+1)*width) of the stream, bit
 * b of the stream being bit (b & 7) of byte b >> 3.  That is exactly what
 * `np.packbits(bits, bitorder="little")` writes for the row-major
 * n x width bit matrix of the values, so both the numpy reference in
 * bitpack.py and this kernel produce the same bytes.  Only the low `width`
 * bits of each value are stored; 0 <= width <= 64.  Little-endian hosts
 * only (the caller checks).
 */
#include <stdint.h>
#include <string.h>

static inline uint64_t low_mask(int width) {
    return width >= 64 ? ~(uint64_t)0 : (((uint64_t)1 << width) - 1);
}

/* Packs n values into out, which must hold ceil(n*width/8) bytes; returns
 * that byte count. */
long bp_pack(const uint64_t *v, long n, int width, uint8_t *out) {
    long nbytes = (long)(((unsigned long)n * (unsigned long)width + 7) / 8);
    if (width <= 0 || n <= 0)
        return 0;
    if (width == 64) {
        memcpy(out, v, (size_t)n * 8);
        return nbytes;
    }
    const uint64_t mask = low_mask(width);
    uint64_t acc = 0;   /* pending bits, the oldest in bit 0 */
    int fill = 0;       /* pending bit count, always < 64 between values */
    long o = 0;
    for (long i = 0; i < n; i++) {
        uint64_t x = v[i] & mask;
        acc |= x << fill;
        fill += width;
        if (fill >= 64) {
            memcpy(out + o, &acc, 8);
            o += 8;
            fill -= 64;
            /* the high `fill` bits of x did not fit in the flushed word */
            acc = fill ? x >> (width - fill) : 0;
        }
    }
    memcpy(out + o, &acc, (size_t)(fill + 7) / 8);
    return nbytes;
}

/* Unpacks n values from buf[0..nbytes) into out.  Returns -1, writing
 * nothing, when nbytes < ceil(n*width/8); never reads past nbytes. */
long bp_unpack(const uint8_t *buf, long nbytes, long n, int width,
               uint64_t *out) {
    unsigned long need = ((unsigned long)n * (unsigned long)width + 7) / 8;
    if (n <= 0)
        return 0;
    if (width <= 0) {
        memset(out, 0, (size_t)n * 8);
        return 0;
    }
    if (nbytes < 0 || (unsigned long)nbytes < need)
        return -1;
    if (width == 64) {
        memcpy(out, buf, (size_t)n * 8);
        return 0;
    }
    const uint64_t mask = low_mask(width);
    /* values whose 8-byte load starting at their first byte stays inside
     * buf: i*width/8 + 8 <= nbytes */
    long fast = nbytes >= 8 ? ((nbytes - 7) * 8 - 1) / width + 1 : 0;
    if (fast > n)
        fast = n;
    long i = 0;
    if (width <= 57) {  /* shift <= 7, so a field always fits one load */
        for (; i < fast; i++) {
            uint64_t bit = (uint64_t)i * width, w;
            memcpy(&w, buf + (bit >> 3), 8);
            out[i] = (w >> (bit & 7)) & mask;
        }
    }
    for (; i < n; i++) {
        uint64_t bit = (uint64_t)i * width, w = 0;
        long byte = (long)(bit >> 3);
        int shift = (int)(bit & 7);
        long avail = nbytes - byte;
        memcpy(&w, buf + byte, (size_t)(avail < 8 ? avail : 8));
        w >>= shift;
        if (shift + width > 64)  /* the field's top bits are in byte + 8 */
            w |= (uint64_t)buf[byte + 8] << (64 - shift);
        out[i] = w & mask;
    }
    return 0;
}

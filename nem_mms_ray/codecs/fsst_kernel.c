/* FSST-style symbol-table compression kernels (encode/decode hot loops).
 *
 * Implemented from the published FSST design (Boncz, Neumann, Leis:
 * "FSST: Fast Random Access String Compression", VLDB 2020): a table of at
 * most 255 symbols of 1..8 bytes; output bytes are either a symbol code or
 * the escape byte 255 followed by a literal. Greedy longest-match encoding.
 *
 * Lookup structure (paper-style, exactness preserved): every candidate of
 * length >= 3 at a position shares its first 3 bytes, so one hash on that
 * 3-byte prefix selects a bucket whose entries are walked in descending
 * length order — the first masked 8-byte compare that hits IS the longest
 * match. Length-2 symbols use a direct 64K table, length-1 a 256 table.
 * The hash and the short-code index come from the little-endian 8-byte
 * word the probe loads anyway, so a step reads its input once.
 *
 * Inputs of DUAL_MIN bytes or more encode in four independent lanes
 * (fsst_encode), the paper's multi-lane scheme.
 *
 * Table construction/training happens in Python (numpy); these kernels only
 * run the per-byte loops that Python cannot do fast.
 */
#include <stdint.h>
#include <string.h>
#ifdef __AVX2__
#include <immintrin.h>
#endif

#define ESCAPE 255
#define NBUCKET 2048            /* power of two */
#define BMASK (NBUCKET - 1)

typedef struct {
    uint16_t byte_code[256];    /* len-1 symbols */
    uint16_t two_code[65536];   /* len-2 symbols, direct-mapped */
    /* merged probe for the no-len>=3-match path (paper's shortCodes):
     * index = first two bytes (idx2); entry = len-2 code (len 2 in bits 12-13),
     * else len-1 code of byte 0 (len 1), else 0x8000|byte0 = escape */
    uint16_t short_code[65536];
    uint16_t b_start[NBUCKET + 1]; /* prefix sums into order[] */
    uint8_t order[256];         /* len>=3 codes sorted by (bucket, -len) */
    uint64_t sym_le[256];       /* symbol bytes little-endian, zero padded */
    uint64_t sym_mask[256];     /* LEN_MASK[sym_len[s]], pre-resolved */
    uint8_t sym_len[256];
    int max_len;
#ifdef __AVX2__
    /* SIMD probe (r5): per bucket, its 4 longest candidates as a padded
     * SoA — one 64-byte line of le[4] then a line of mask[4].  Pad slots
     * use mask=0, le=1, which can never match ((v & 0) == 0 != 1).
     * b_codelen packs (len<<8)|code per slot.  Buckets with >4 entries
     * (rare: <=253 len>=3 symbols over 2048 buckets) set b_ovf and fall
     * back to the order[] walk from entry 4 after a 4-wide miss, keeping
     * the probe bit-exact vs the scalar walk. */
    uint64_t b_le4[NBUCKET][4] __attribute__((aligned(64)));
    uint64_t b_mask4[NBUCKET][4] __attribute__((aligned(64)));
    uint16_t b_codelen[NBUCKET][4];
    uint8_t b_ovf[NBUCKET];
#endif
} SymTable;

/* bucket of the 3-byte prefix p[0..2], given v, the little-endian load
 * of p: the byte swap of (uint32)v << 8 is p[0] << 16 | p[1] << 8 | p[2] */
static inline uint32_t hash3(uint64_t v) {
    uint32_t x = __builtin_bswap32((uint32_t)v << 8);
    return (x * 0x9E3779B1u >> 17) & BMASK;
}

/* index of the 2-byte prefix in two_code/short_code: p[0] | p[1] << 8,
 * the low 16 bits of the little-endian load */
static inline uint32_t idx2(const uint8_t *p) {
    return (uint32_t)p[0] | ((uint32_t)p[1] << 8);
}

static const uint64_t LEN_MASK[9] = {
    0, 0xFFull, 0xFFFFull, 0xFFFFFFull, 0xFFFFFFFFull,
    0xFFFFFFFFFFull, 0xFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFull,
    0xFFFFFFFFFFFFFFFFull,
};

static void build_table(SymTable *t, const uint8_t *sym_bytes,
                        const uint8_t *sym_lens, int n_sym) {
    memset(t, 0, sizeof(*t));
    for (int i = 0; i < 256; i++) t->byte_code[i] = 0xFFFF;
    memset(t->two_code, 0xFF, sizeof(t->two_code));
    t->max_len = 1;

    uint16_t bucket_of[256];
    uint16_t counts[NBUCKET];
    memset(counts, 0, sizeof(counts));
    for (int s = 0; s < n_sym && s < 256; s++) {
        int len = sym_lens[s];
        const uint8_t *p = sym_bytes + s * 8;
        uint64_t le = 0;
        memcpy(&le, p, 8);      /* rows are zero padded to 8 */
        t->sym_le[s] = le & LEN_MASK[len];
        t->sym_mask[s] = LEN_MASK[len];
        t->sym_len[s] = (uint8_t)len;
        if (len > t->max_len) t->max_len = len;
        if (len == 1) { t->byte_code[p[0]] = (uint16_t)s; continue; }
        if (len == 2) {
            t->two_code[idx2(p)] = (uint16_t)s;
            continue;
        }
        bucket_of[s] = (uint16_t)hash3(le);
        counts[bucket_of[s]]++;
    }
    /* prefix sums */
    uint32_t acc = 0;
    for (int b = 0; b < NBUCKET; b++) {
        t->b_start[b] = (uint16_t)acc;
        acc += counts[b];
    }
    t->b_start[NBUCKET] = (uint16_t)acc;
    for (int b0 = 0; b0 < 256; b0++) {
        uint16_t base = (t->byte_code[b0] != 0xFFFF)
                            ? (uint16_t)(t->byte_code[b0] | 0x1000)
                            : (uint16_t)(0x8000 | b0);
        for (int b1 = 0; b1 < 256; b1++)
            t->short_code[(uint32_t)b0 | ((uint32_t)b1 << 8)] = base;
    }
    for (uint32_t idx = 0; idx < 65536; idx++)
        if (t->two_code[idx] != 0xFFFF)
            t->short_code[idx] = (uint16_t)(t->two_code[idx] | 0x2000);
    uint16_t fill[NBUCKET];
    memcpy(fill, t->b_start, sizeof(fill));
    for (int s = 0; s < n_sym && s < 256; s++) {
        if (sym_lens[s] < 3) continue;
        uint16_t b = bucket_of[s];
        /* insertion sort within the bucket: longest first; ties keep the
         * lower code first (two equal-length symbols are never equal bytes,
         * so tie order cannot change which one matches) */
        int pos = fill[b]++;
        while (pos > t->b_start[b] &&
               t->sym_len[t->order[pos - 1]] < sym_lens[s]) {
            t->order[pos] = t->order[pos - 1];
            pos--;
        }
        t->order[pos] = (uint8_t)s;
    }
#ifdef __AVX2__
    for (int b = 0; b < NBUCKET; b++) {
        int k0 = t->b_start[b], cnt = t->b_start[b + 1] - k0;
        for (int j = 0; j < 4; j++) {
            if (j < cnt) {
                int s = t->order[k0 + j];
                t->b_le4[b][j] = t->sym_le[s];
                t->b_mask4[b][j] = t->sym_mask[s];
                t->b_codelen[b][j] =
                    (uint16_t)(((uint16_t)t->sym_len[s] << 8) | s);
            } else {
                t->b_le4[b][j] = 1;
                t->b_mask4[b][j] = 0;
                t->b_codelen[b][j] = 0;
            }
        }
        t->b_ovf[b] = (uint8_t)(cnt > 4);
    }
#endif
}

/* Longest len>=3 match at a position (caller guarantees 8 readable
 * bytes; v is their little-endian load, h = hash3 of the position).
 * Returns (len<<8)|code, or 0 on miss.  The AVX2 path compares all four
 * SoA slots at once; movemask+ctz picks the lowest-index hit, which is
 * the longest match because slots are filled in order[] (longest-first)
 * order — bit-exact vs the scalar walk (r5 A/B: +61-80% single-core
 * encode, output-identical on corpus + fuzz). */
static inline int probe3(const SymTable *t, uint64_t v, uint32_t h) {
#ifdef __AVX2__
    __m256i vv = _mm256_set1_epi64x((long long)v);
    __m256i m = _mm256_load_si256((const __m256i *)t->b_mask4[h]);
    __m256i l = _mm256_load_si256((const __m256i *)t->b_le4[h]);
    __m256i eq = _mm256_cmpeq_epi64(_mm256_and_si256(vv, m), l);
    int bits = _mm256_movemask_pd(_mm256_castsi256_pd(eq));
    if (bits)
        return t->b_codelen[h][__builtin_ctz(bits)];
    if (t->b_ovf[h]) {
        int k = t->b_start[h] + 4, end = t->b_start[h + 1];
        for (; k < end; k++) {
            int s = t->order[k];
            if ((v & t->sym_mask[s]) == t->sym_le[s])
                return ((int)t->sym_len[s] << 8) | s;
        }
    }
    return 0;
#else
    int k = t->b_start[h], end = t->b_start[h + 1];
    for (; k < end; k++) {
        int s = t->order[k];
        if ((v & t->sym_mask[s]) == t->sym_le[s])
            return ((int)t->sym_len[s] << 8) | s;
    }
    return 0;
#endif
}

/* One greedy step at *i, writing to out at *o.  Caller guarantees >= 8
 * readable bytes at in + *i and that any match fits the lane. */
static inline void enc_step(const SymTable *t, const uint8_t *in, long *i,
                            uint8_t *out, long *o) {
    uint64_t v;
    memcpy(&v, in + *i, 8);
    int cl = probe3(t, v, hash3(v));
    if (cl) {
        out[(*o)++] = (uint8_t)(cl & 0xFF);
        *i += cl >> 8;
        return;
    }
    uint16_t e = t->short_code[(uint16_t)v];
    if (e & 0x8000) { out[(*o)++] = ESCAPE; out[(*o)++] = (uint8_t)v; *i += 1; }
    else { out[(*o)++] = (uint8_t)e; *i += (e >> 12); }
}

/* Encode positions i..n of one lane; unaligned 8-byte loads are allowed up
 * to safe_n.  Returns the output length. */
static inline long encode_span(const SymTable *t, const uint8_t *in, long i,
                               long n, long safe_n, uint8_t *out, long o) {
    /* fast region: while i <= fast_n, rem >= 8 (no per-candidate length
     * check — every symbol is <= 8 bytes) and an unaligned 8-byte load is
     * in bounds (no tail buffer).  This drops three branches from the
     * per-position hot path; the generic loop below finishes the tail. */
    long fast_n = ((n < safe_n ? n : safe_n)) - 8;
    while (i <= fast_n)
        enc_step(t, in, &i, out, &o);
    while (i < n) {
        const uint8_t *p = in + i;
        long rem = n - i;
        int code = -1, mlen = 1;
        if (rem >= 3) {
            uint64_t v;
            if (i + 8 <= safe_n) {
                memcpy(&v, p, 8);
            } else {
                uint8_t tmp[8] = {0};
                memcpy(tmp, p, rem < 8 ? (size_t)rem : 8);
                memcpy(&v, tmp, 8);
            }
            uint32_t h = hash3(v);
            for (int k = t->b_start[h], end = t->b_start[h + 1]; k < end; k++) {
                int s = t->order[k];
                int len = t->sym_len[s];
                if (len > rem) continue;
                if ((v & LEN_MASK[len]) == t->sym_le[s]) {
                    code = s; mlen = len; break;
                }
            }
        }
        if (code < 0 && rem >= 2) {
            uint16_t c2 = t->two_code[idx2(p)];
            if (c2 != 0xFFFF) { code = c2; mlen = 2; }
        }
        if (code < 0) {
            uint16_t c1 = t->byte_code[p[0]];
            if (c1 != 0xFFFF) out[o++] = (uint8_t)c1;
            else { out[o++] = ESCAPE; out[o++] = p[0]; }
        } else {
            out[o++] = (uint8_t)code;
        }
        i += mlen;
    }
    return o;
}

/* Below this size single-lane encoding wins (no split overhead).  The
 * Python reference (_fsst_native._py_encode) mirrors this constant and the
 * lane count, NLANE — keep them in sync or the C==Python parity tests
 * break. */
#define DUAL_MIN 4096
#define NLANE 4

/* out must have capacity >= 2*n + 64. Returns bytes written.
 *
 * Inputs >= DUAL_MIN encode as four independent lanes, cut at multiples
 * of q = n/4 ([0, q), [q, 2q), [2q, 3q), [3q, n)), interleaved in one
 * loop: the greedy parse is a serial dependency chain (next position
 * depends on this match's length), so one lane leaves the out-of-order
 * core idle; four chains overlap their load and mispredict latencies (the
 * FSST paper's multi-lane scheme).  Lane L writes at out + 2*L*q (its
 * worst case is two bytes per input byte) and the lanes are compacted at
 * the end.  Output = the concatenation of the four lanes' single-lane
 * encodes, so decode is unchanged (decoding a concatenation is the
 * concatenation of decodings).  Against the two-lane split with the hash
 * read from the input bytes that this replaced (one core, 4-CPU x86 box,
 * perfbench web_html seed 1 file 0, each column with its own trained
 * table, best and median of 7): html 29.9 MB 531-578 -> 877-937 MB/s,
 * text 5.3 MB 528-579 -> 831-888 MB/s, url 0.33 MB 355-397 -> 329-342
 * MB/s (the fixed cost of four lanes on a short input; url is about 1%
 * of the FSST bytes). */
long fsst_encode(const uint8_t *sym_bytes, const uint8_t *sym_lens, int n_sym,
                 const uint8_t *in, long n, uint8_t *out) {
    SymTable t;
    build_table(&t, sym_bytes, sym_lens, n_sym);
    if (n < DUAL_MIN)
        return encode_span(&t, in, 0, n, n, out, 0);
    long q = n / NLANE;
    long iA = 0, iB = q, iC = 2 * q, iD = 3 * q;
    long oA = 0, oB = 0, oC = 0, oD = 0;
    uint8_t *outB = out + 2 * q, *outC = out + 4 * q, *outD = out + 6 * q;
    /* all four lanes step while each has >= 8 bytes left (lanes advance
     * at similar rates, so little is left to the single-lane finish; going
     * on with the live lanes after the first one ends measured no faster) */
    long fA = q - 8, fB = 2 * q - 8, fC = 3 * q - 8, fD = n - 8;
    while (iA <= fA && iB <= fB && iC <= fC && iD <= fD) {
        enc_step(&t, in, &iA, out, &oA);
        enc_step(&t, in, &iB, outB, &oB);
        enc_step(&t, in, &iC, outC, &oC);
        enc_step(&t, in, &iD, outD, &oD);
    }
    /* finish each lane; safe_n = n lets tails use plain 8-byte loads while
     * the generic loop's length checks respect each lane's end */
    oA = encode_span(&t, in, iA, q, n, out, oA);
    oB = encode_span(&t, in, iB, 2 * q, n, outB, oB);
    oC = encode_span(&t, in, iC, 3 * q, n, outC, oC);
    oD = encode_span(&t, in, iD, n, n, outD, oD);
    memmove(out + oA, outB, (size_t)oB);
    memmove(out + oA + oB, outC, (size_t)oC);
    memmove(out + oA + oB + oC, outD, (size_t)oD);
    return oA + oB + oC + oD;
}

/* out must have capacity >= 8*n + 8 (symbols copied 8-wide). */
long fsst_decode(const uint8_t *sym_bytes, const uint8_t *sym_lens, int n_sym,
                 const uint8_t *in, long n, uint8_t *out) {
    long o = 0;
    for (long i = 0; i < n; i++) {
        uint8_t c = in[i];
        if (c == ESCAPE) {
            out[o++] = in[++i];
        } else {
            memcpy(out + o, sym_bytes + (long)c * 8, 8);
            o += sym_lens[c];
        }
    }
    return o;
}

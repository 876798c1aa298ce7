/* Winnowing fingerprint selection over a flat utf-32 corpus buffer.
 *
 * winnow_batch: for each doc d with codepoints
 *   flat[sum(lens[0..d]) .. +lens[d])
 * compute the rolling polynomial hash of every k-gram
 *   h_s = sum_j cp[s+j] * B^(k-1-j)   (mod 2^64)
 * via the O(1) Rabin-Karp update, select the minimum hash of every
 * window of w consecutive k-gram hashes with a monotonic deque (O(1)
 * amortized per position), and emit the selected VALUES with adjacent
 * runs collapsed (consecutive windows usually share their min — that is
 * the point of winnowing).  Docs with fewer than w k-grams use a
 * truncated window (their global min), matching the python reference
 * `winnow_select`; docs with no k-gram emit nothing.
 *
 * Output: out[] receives each doc's run-deduped minima doc-major;
 * counts[d] = how many doc d emitted; the return value is the total.
 * The caller finishes with a per-doc distinct pass (repeats can recur in
 * non-adjacent windows) — hash values are bit-identical to the python
 * reference (`ops/winnow._kgram_hashes`), pinned by
 * tests/test_winnow.py::test_native_kernel_parity.
 *
 * Published algorithms (Rabin-Karp rolling hash; Schleimer/Wilkerson/
 * Aiken SIGMOD'03 winnowing; textbook sliding-window-minimum deque);
 * original code.
 */

#include <stdint.h>

/* All k-gram hashes of a flat buffer (doc boundaries ignored — the
 * python callers mask positions): the same polynomial as winnow_batch,
 * one Rabin-Karp pass.  Feeds ops/charlm's train/score hash pass. */
long rolling_hashes(const uint32_t *flat, long n, long k, uint64_t B,
                    uint64_t *out) {
    if (n < k) return 0;
    uint64_t bk1 = 1;
    for (long i = 0; i + 1 < k; i++) bk1 *= B;
    uint64_t h = 0;
    for (long j = 0; j < k; j++) h = h * B + (uint64_t)flat[j];
    out[0] = h;
    for (long s = 1; s + k <= n; s++) {
        h = (h - (uint64_t)flat[s - 1] * bk1) * B + (uint64_t)flat[s + k - 1];
        out[s] = h;
    }
    return n - k + 1;
}

long winnow_batch(const uint32_t *flat, const int64_t *lens, long n_docs,
                  long k, long w, uint64_t B, uint64_t *out,
                  int64_t *counts) {
    uint64_t bk1 = 1; /* B^(k-1) */
    for (long i = 0; i + 1 < k; i++) bk1 *= B;
    long out_n = 0;
    const uint32_t *p = flat;
    for (long d = 0; d < n_docs; d++) {
        long n = (long)lens[d];
        long nh = n - k + 1;
        if (nh <= 0) { counts[d] = 0; p += n; continue; }
        long ww = nh < w ? nh : w;
        long start = out_n;
        uint64_t h = 0;
        for (long j = 0; j < k; j++) h = h * B + (uint64_t)p[j];
        uint64_t dv[ww];   /* deque ring: values (C99 VLA; glue caps w) */
        long di[ww];       /* ...and their positions */
        long qh = 0, qt = 0, qn = 0;
        uint64_t last = 0;
        int have_last = 0;
        for (long s = 0; s < nh; s++) {
            if (s > 0)
                h = (h - (uint64_t)p[s - 1] * bk1) * B
                    + (uint64_t)p[s + k - 1];
            /* expire the front BEFORE inserting so the ring never holds
               more than ww entries */
            if (qn && di[qh] <= s - ww) { qh = (qh + 1) % ww; qn--; }
            while (qn) { /* drop back entries >= h (values are what count) */
                long back = (qt + ww - 1) % ww;
                if (dv[back] < h) break;
                qt = back; qn--;
            }
            dv[qt] = h; di[qt] = s; qt = (qt + 1) % ww; qn++;
            if (s >= ww - 1) {
                uint64_t m = dv[qh];
                if (!have_last || m != last) {
                    out[out_n++] = m;
                    last = m;
                    have_last = 1;
                }
            }
        }
        counts[d] = out_n - start;
        p += n;
    }
    return out_n;
}

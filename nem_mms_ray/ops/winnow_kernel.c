/* Rolling polynomial hash of every k-gram of a flat utf-32 corpus
 * buffer:
 *   h_s = sum_j cp[s+j] * B^(k-1-j)   (mod 2^64)
 * via the O(1) Rabin-Karp update, doc boundaries ignored (the python
 * callers mask positions).  Feeds ops/charlm's train/score hash pass.
 * Hash values are bit-identical to the python reference
 * (`ops/winnow._kgram_hashes`), pinned by
 * tests/test_winnow.py::test_flat_hashes_native_parity.
 *
 * Published algorithm (Rabin-Karp rolling hash); original code.
 */

#include <stdint.h>

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

/* Sorted-set intersection counts for candidate-pair verification.
 *
 * intersect_count_pairs: for each pair i, count the common elements of
 * two sorted-unique uint64 arrays stored in one flat values buffer:
 *   A_i = vals[off[a_idx[i]] .. off[a_idx[i]+1])
 *   B_i = vals[off[b_idx[i]] .. off[b_idx[i]+1])
 * Classic two-pointer merge — O(|A|+|B|) per pair, branch-light (the
 * pointer advances are computed, not branched).  This is the inner loop
 * of the minhash near-dup verify (exact Jaccard over shingle sets); the
 * Python fallback costs ~10us of interpreter+numpy dispatch per pair
 * where this runs the whole batch in one call.
 *
 * min_j > 0 arms the Jaccard early exit: once the best still-reachable
 * intersection c + min(remaining_a, remaining_b) falls below the count
 * needed for jaccard >= min_j (c >= min_j*(na+nb)/(1+min_j)), the merge
 * stops and reports that unreachable bound — the derived jaccard is
 * then an UPPER bound strictly below min_j, so thresholding at min_j
 * filters identically while LSH misses (the vast majority of candidates
 * at high thresholds) cost ~(1-t)/(1+t)*(na+nb) iterations instead of
 * na+nb.  min_j <= 0 always merges to completion (exact counts).
 *
 * Inputs are indices into a shared payload store, so a batch of pairs
 * referencing the same hot document re-reads one cache-warm buffer
 * instead of rehydrating bytes objects.
 *
 * Public-domain algorithm (textbook merge intersection); original code.
 */

#include <stdint.h>

/* MinHash signatures over a flat shingle store: for doc d with shingles
 * X_d = vals[off[d] .. off[d+1]), out[d*num_perm + j] =
 *   min over x in X_d of ((a[j]*x + b[j]) mod 2^64) mod (2^61-1)
 * — EXACTLY the numpy semantics of ops/dedup._minhash (uint64 wraparound
 * multiply-add, then the Mersenne mod), so signatures are bit-identical
 * and every downstream band key / candidate set is unchanged.  An empty
 * doc yields all-P61 (the numpy fill value).  The j-inner loop keeps the
 * 128-entry running-min array in L1; the Mersenne mod is two shifts and
 * a conditional subtract instead of a 64-bit division. */

#define P61 ((uint64_t)0x1FFFFFFFFFFFFFFFULL)

long minhash_signatures(const uint64_t *vals, const int64_t *off,
                        long n_docs, const uint64_t *a, const uint64_t *b,
                        long num_perm, uint64_t *out) {
    for (long d = 0; d < n_docs; d++) {
        uint64_t *sig = out + d * num_perm;
        for (long j = 0; j < num_perm; j++) sig[j] = P61;
        for (int64_t k = off[d]; k < off[d + 1]; k++) {
            uint64_t x = vals[k];
            for (long j = 0; j < num_perm; j++) {
                uint64_t v = a[j] * x + b[j];        /* wraps mod 2^64 */
                uint64_t r = (v & P61) + (v >> 61);  /* v mod (2^61-1) */
                r -= (r >= P61) ? P61 : 0;
                sig[j] = r < sig[j] ? r : sig[j];
            }
        }
    }
    return 0;
}

long intersect_count_pairs(const uint64_t *vals, const int64_t *off,
                           const int64_t *a_idx, const int64_t *b_idx,
                           long n_pairs, double min_j, int64_t *out) {
    for (long i = 0; i < n_pairs; i++) {
        const uint64_t *pa = vals + off[a_idx[i]];
        const uint64_t *ea = vals + off[a_idx[i] + 1];
        const uint64_t *pb = vals + off[b_idx[i]];
        const uint64_t *eb = vals + off[b_idx[i] + 1];
        int64_t c = 0;
        if (min_j > 0.0) {
            double total = (double)((ea - pa) + (eb - pb));
            int64_t req = (int64_t)(min_j * total / (1.0 + min_j));
            while (pa < ea && pb < eb) {
                int64_t ra = ea - pa, rb = eb - pb;
                int64_t reach = c + (ra < rb ? ra : rb);
                if (reach < req) {            /* can't hit min_j: bail */
                    c = reach;                /* still < req => j < min_j */
                    break;
                }
                uint64_t va = *pa, vb = *pb;
                c += (va == vb);
                pa += (va <= vb);
                pb += (vb <= va);
            }
        } else {
            while (pa < ea && pb < eb) {
                uint64_t va = *pa, vb = *pb;
                c += (va == vb);
                pa += (va <= vb);
                pb += (vb <= va);
            }
        }
        out[i] = c;
    }
    return 0;
}

/* Streamed union-find (the connected-components driver regime): the
 * caller sets parent[i] = i once, feeds any number of edge batches (each
 * a src/dst code pair array), and flattens at the end.  Memory is
 * O(nodes); edges never need to exist in one buffer.  Nodes are dense
 * codes 0..n_nodes-1 ALREADY SORTED BY NODE ID (np.unique output), so
 * "union by min root code" makes every root the minimum id of its set —
 * the dedup representative contract.  Path halving during finds keeps
 * amortized cost near-constant; the flatten leaves parent[i] = root.
 * Textbook algorithm (public domain); original code. */
void union_find_edges(const int64_t *src, const int64_t *dst,
                      long n_edges, int64_t *parent) {
    for (long e = 0; e < n_edges; e++) {
        int64_t a = src[e], b = dst[e];
        while (parent[a] != a) { parent[a] = parent[parent[a]]; a = parent[a]; }
        while (parent[b] != b) { parent[b] = parent[parent[b]]; b = parent[b]; }
        if (a == b) continue;
        if (a < b) parent[b] = a; else parent[a] = b;
    }
}

void union_find_flatten(int64_t *parent, long n_nodes) {
    for (long i = 0; i < n_nodes; i++) {
        int64_t r = i;
        while (parent[r] != r) r = parent[r];
        int64_t x = i;
        while (parent[x] != r) { int64_t nx = parent[x]; parent[x] = r; x = nx; }
    }
}

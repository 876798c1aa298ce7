"""Codepoint k-gram hashes (`ops/winnow`, the charlm hash pass): the
whole-batch flat path and the C rolling-hash kernel against the per-doc
reference."""
import numpy as np

from nem_mms_ray.ops.winnow import (
    _codepoints,
    _flat_corpus,
    _flat_hashes,
    _kgram_hashes,
    _valid_positions,
)


def test_flat_fast_path_parity():
    """The whole-batch flat path (_flat_corpus / _flat_hashes /
    _valid_positions) gives each doc the per-doc reference's hashes
    (_kgram_hashes) on fuzzed unicode incl. astral chars, None, empty and
    shorter-than-k docs."""
    rng = np.random.default_rng(42)
    alphabet = list("abcdef é中\U0001F600")  # ascii+latin1+CJK+astral
    texts = ["".join(rng.choice(alphabet, rng.integers(0, 60)))
             for _ in range(200)] + [None, "", "ab", "abcdefgh"]
    # _flat_hashes == _kgram_hashes on the concatenated corpus
    flat, lens = _flat_corpus(texts)
    for k in (2, 5, 16):
        assert np.array_equal(_flat_hashes(flat, k), _kgram_hashes(flat, k))
    # and masked positions carve the same per-doc hash runs
    pos, doc_idx, nh = _valid_positions(lens, 5)
    hv = _flat_hashes(flat, 5)[pos]
    cuts = np.cumsum(nh) - nh
    for i in (0, 3, 201, 202, 203):
        seg = hv[cuts[i]:cuts[i] + nh[i]]
        assert np.array_equal(seg, _kgram_hashes(_codepoints(texts[i]), 5))


def test_flat_hashes_native_parity():
    """C rolling_hashes == the reference `_kgram_hashes`, element for
    element, for every k the callers use (charlm n and n-1 grams) and
    edge lengths around n == k."""
    from nem_mms_ray.ops import _winnow_native

    if _winnow_native.get_lib() is None:
        import pytest
        pytest.skip("no C compiler in this environment")

    rng = np.random.default_rng(23)
    for n in [0, 1, 2, 3, 7, 8, 9, 1000, 65536]:
        flat = rng.integers(0, 0x110000, n).astype(np.uint32)
        for k in (1, 2, 3, 5, 8, 16):
            got = _flat_hashes(flat, k)
            assert got.dtype == np.uint64
            assert np.array_equal(got, _kgram_hashes(flat, k)), (n, k)

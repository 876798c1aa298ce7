"""Codec registry — importing this package registers all codecs.

Registry keys: alp, delta, dict, for, fsst, plain, rle.
"""

from nem_mms_ray.codecs.base import (  # noqa: F401
    REGISTRY,
    Codec,
    EncodedColumn,
    decode_column,
    ec_from_bytes,
    ec_to_bytes,
    get_codec,
)
from nem_mms_ray.codecs import plain, bitpack, alp, dictionary, rle, fsst  # noqa: F401,E402

__all__ = [
    "REGISTRY",
    "Codec",
    "EncodedColumn",
    "decode_column",
    "get_codec",
    "ec_to_bytes",
    "ec_from_bytes",
]

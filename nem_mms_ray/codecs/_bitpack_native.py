"""ctypes binding for the word-level bit-packing kernels
(`bitpack_kernel.c`).  `nem_mms_ray._native` builds and caches the shared
library; without it `codecs/bitpack` runs its numpy reference (identical
bytes, slower)."""

from __future__ import annotations

import ctypes
from pathlib import Path

from nem_mms_ray import _native

_SRC = Path(__file__).with_name("bitpack_kernel.c")


def _bind(lib: ctypes.CDLL) -> None:
    lib.bp_pack.restype = ctypes.c_long
    lib.bp_pack.argtypes = [ctypes.c_void_p, ctypes.c_long, ctypes.c_int,
                            ctypes.c_void_p]
    lib.bp_unpack.restype = ctypes.c_long
    lib.bp_unpack.argtypes = [ctypes.c_void_p, ctypes.c_long, ctypes.c_long,
                              ctypes.c_int, ctypes.c_void_p]


def get_lib() -> ctypes.CDLL | None:
    return _native.load(_SRC, _bind)

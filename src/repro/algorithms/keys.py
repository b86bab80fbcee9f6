"""Order-preserving bit transforms between keys and unsigned integers.

Radix-based algorithms operate on the *bits* of a key.  For the comparison
order of the bits to match the numeric order of the values, keys must be
transformed (Section 2.2 / the GGKS selection package use the same trick):

* unsigned integers — identity;
* signed integers — flip the sign bit;
* IEEE-754 floats — flip the sign bit for non-negative values, flip *all*
  bits for negative values.  The result orders exactly like the float
  (NaNs order above +inf, which we accept and document: the paper's
  workloads contain no NaNs).

All transforms are exact involutions up to :func:`decode` and are verified
by property-based tests against numpy's comparison order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError

#: Bits per key for each supported dtype.
_WIDTHS = {
    np.dtype(np.float32): 32,
    np.dtype(np.uint32): 32,
    np.dtype(np.int32): 32,
    np.dtype(np.float64): 64,
    np.dtype(np.uint64): 64,
    np.dtype(np.int64): 64,
}


def key_bits(dtype: np.dtype) -> int:
    """Key width in bits (32 or 64)."""
    try:
        return _WIDTHS[np.dtype(dtype)]
    except KeyError:
        raise InvalidParameterError(f"unsupported radix key dtype {dtype}") from None


def key_bytes(dtype: np.dtype) -> int:
    """Key width in bytes — the w parameter of the Section 7 cost model."""
    return key_bits(dtype) // 8


def encode(values: np.ndarray) -> np.ndarray:
    """Map values to unsigned integers whose unsigned order matches them."""
    dtype = values.dtype
    if dtype == np.uint32 or dtype == np.uint64:
        return values.copy()
    if dtype == np.int32:
        return (values.view(np.uint32) ^ np.uint32(1 << 31)).astype(np.uint32)
    if dtype == np.int64:
        return (values.view(np.uint64) ^ np.uint64(1 << 63)).astype(np.uint64)
    if dtype == np.float32:
        bits = values.view(np.uint32)
        mask = np.where(
            bits >> np.uint32(31) == 1,
            np.uint32(0xFFFFFFFF),
            np.uint32(1 << 31),
        )
        return bits ^ mask
    if dtype == np.float64:
        bits = values.view(np.uint64)
        mask = np.where(
            bits >> np.uint64(63) == 1,
            np.uint64(0xFFFFFFFFFFFFFFFF),
            np.uint64(1 << 63),
        )
        return bits ^ mask
    raise InvalidParameterError(f"unsupported radix key dtype {dtype}")


def decode(codes: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Invert :func:`encode` back to the original dtype."""
    dtype = np.dtype(dtype)
    if dtype == np.uint32 or dtype == np.uint64:
        return codes.astype(dtype, copy=True)
    if dtype == np.int32:
        return (codes.astype(np.uint32) ^ np.uint32(1 << 31)).view(np.int32)
    if dtype == np.int64:
        return (codes.astype(np.uint64) ^ np.uint64(1 << 63)).view(np.int64)
    if dtype == np.float32:
        codes = codes.astype(np.uint32)
        mask = np.where(
            codes >> np.uint32(31) == 1,
            np.uint32(1 << 31),
            np.uint32(0xFFFFFFFF),
        )
        return (codes ^ mask).view(np.float32)
    if dtype == np.float64:
        codes = codes.astype(np.uint64)
        mask = np.where(
            codes >> np.uint64(63) == 1,
            np.uint64(1 << 63),
            np.uint64(0xFFFFFFFFFFFFFFFF),
        )
        return (codes ^ mask).view(np.float64)
    raise InvalidParameterError(f"unsupported radix key dtype {dtype}")


def descending_keys(values: np.ndarray) -> np.ndarray:
    """Sort keys whose *ascending* order is the canonical descending value
    order — the one definition ``reference_topk`` and the sharded merge
    share.

    Floats are negated (NaN stays NaN and sorts last; -0.0 ties with 0.0).
    Integers are complemented: ``~x == -x - 1`` reverses the order exactly
    and, unlike negation, cannot wrap at the dtype minimum.  Narrower
    integers are widened to int64 first; uint64 is complemented in place.
    """
    if values.dtype.kind == "f":
        return -values
    if values.dtype == np.uint64:
        return ~values
    return ~values.astype(np.int64)


def digit(codes: np.ndarray, shift: int, digit_bits: int = 8) -> np.ndarray:
    """Extract the digit at bit offset ``shift`` as small integers."""
    if shift < 0 or digit_bits <= 0:
        raise InvalidParameterError("shift must be >= 0 and digit_bits > 0")
    mask = (1 << digit_bits) - 1
    return ((codes >> codes.dtype.type(shift)) & codes.dtype.type(mask)).astype(
        np.int64
    )

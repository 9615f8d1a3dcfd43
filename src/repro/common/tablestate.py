"""Array-backed table state: the numpy substrate under the batch kernel.

Scalar predictors keep their tables as plain python lists (or small numpy
arrays) inside the versioned ``PredictorState`` payload.  The vectorized
batch kernel (``repro.sim.batchkernel``) instead works on typed numpy
arrays.  This module is the bridge: loaders that view a payload list as a
typed array, exporters that round-trip the array back to the exact
payload representation (python ints, not numpy scalars — the state hash
canonicalizes JSON, so the round-trip must be value-identical), and the
vectorized forms of the history machinery in ``repro.common.bitops`` /
``repro.common.histories`` whose closed forms the kernels rely on.

Everything here is exact, not approximate: each helper mirrors a scalar
twin and is covered by differential tests (``tests/test_batchkernel.py``)
that assert bit-identity event by event.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_MIX_M1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_M2 = np.uint64(0x94D049BB133111EB)


def table_array(values, dtype) -> np.ndarray:
    """Load a payload table (list of ints/bools) as a typed numpy array."""
    return np.asarray(values, dtype=dtype)


def table_list(array: np.ndarray) -> list[int]:
    """Export a typed table array back to the scalar payload form.

    ``ndarray.tolist()`` yields python ints, which is exactly what the
    scalar predictors store — the snapshot hash of a kernel-evolved
    predictor therefore matches its scalar twin byte for byte.
    """
    return array.tolist()


def mix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.common.bitops.mix64` (splitmix64 finalizer).

    Operates on (and returns) ``uint64`` arrays; multiplication wraps
    modulo 2**64 exactly like the scalar ``& _U64`` masking.
    """
    v = values.astype(np.uint64, copy=True)
    v ^= v >> np.uint64(30)
    v *= _MIX_M1
    v ^= v >> np.uint64(27)
    v *= _MIX_M2
    v ^= v >> np.uint64(31)
    return v


# perf: allow(REPRO401): per-trace staging, runs once per batch
def packed_history_series(
    outcomes: np.ndarray, bits: int, seed: int = 0
) -> np.ndarray:
    """Per-event packed outcome history, as seen *before* each event.

    Returns ``H`` (uint64) with ``H[i]`` = the ``bits`` most recent
    outcomes before event ``i`` packed newest-at-bit-0 — the register a
    scalar predictor maintains as ``h = ((h << 1) | taken) & mask``.
    ``seed`` is the register value before event 0 (for mid-trace resume).
    """
    n = len(outcomes)
    if bits <= 0 or bits > 64:
        raise ValueError(f"bits must be in [1, 64], got {bits}")
    # Accumulate in the narrowest lane that holds ``bits`` — the shift-OR
    # loop below runs ``bits`` times over the whole array, so lane width
    # is the dominant cost.
    dtype = np.uint16 if bits <= 16 else np.uint32 if bits <= 32 else np.uint64
    ext = np.zeros(n + bits, dtype=dtype)
    ext[bits:] = outcomes
    for j in range(bits):
        ext[bits - 1 - j] = (seed >> j) & 1
    out = np.zeros(n, dtype=dtype)
    for j in range(bits):
        out |= ext[bits - 1 - j : bits - 1 - j + n] << dtype(j)
    return out.astype(np.uint64)


# perf: allow(REPRO401): per-trace staging, runs once per batch
def signed_history_matrix(
    outcomes: np.ndarray, length: int, seed: np.ndarray | None = None
) -> np.ndarray:
    """Per-event ±1 history matrix, as seen *before* each event.

    ``M[i, j]`` is the ±1 outcome of the branch ``j + 1`` events before
    event ``i`` — the perceptron's ``self._history`` at predict time.
    ``seed`` is the history vector before event 0 (defaults to the
    perceptron's all-ones power-on state).
    """
    n = len(outcomes)
    ext = np.empty(n + length, dtype=np.int32)
    if seed is None:
        ext[:length] = 1
    else:
        # seed[j] is the outcome j+1 ago: newest seed bit sits right
        # before event 0 in the extended timeline.
        ext[:length] = np.asarray(seed, dtype=np.int32)[::-1]
    np.multiply(outcomes, 2, out=ext[length:], casting="unsafe")
    ext[length:] -= 1
    cols = [ext[length - 1 - j : length - 1 - j + n] for j in range(length)]
    return np.stack(cols, axis=1)


def _rot_terms(terms: np.ndarray, shifts: np.ndarray, width: int, left: bool) -> np.ndarray:
    """Rotate each ``width``-bit term by its own shift count."""
    t = terms.astype(np.uint32)
    s = shifts.astype(np.uint32)
    wmask = np.uint32((1 << width) - 1)
    if left:
        rotated = ((t << s) | (t >> (np.uint32(width) - s) % np.uint32(width))) & wmask
    else:
        rotated = ((t >> s) | (t << (np.uint32(width) - s) % np.uint32(width))) & wmask
    return rotated


# perf: allow(REPRO401): per-trace staging, runs once per batch
def folded_history_series(
    outcomes: np.ndarray,
    length: int,
    width: int,
    seed_value: int = 0,
    prior_tail: np.ndarray | None = None,
    prior_count: int = 0,
) -> np.ndarray:
    """Per-event values of an incremental :class:`FoldedHistory` register.

    Returns ``F`` (uint16) where ``F[i]`` is the register value *after*
    pushing ``outcomes[i]`` — i.e. the value a scalar predictor would
    read when predicting event ``i + 1``.  The recurrence

        f = rotl(f, 1) XOR incoming XOR (outgoing << (length % width))

    is linear over GF(2); de-rotating each per-event term by its push
    index turns the whole series into one prefix-XOR scan.

    ``seed_value`` is the register before event 0; ``prior_count`` is how
    many pushes produced it and ``prior_tail`` holds the most recent
    ``min(prior_count, length)`` of those outcomes (oldest first), which
    supply the bits that fall out of the window during the first
    ``length`` local pushes.

    The series is computed in 16-bit lanes, so ``width`` must be in
    1..16; wider registers raise ``ValueError`` rather than truncate.
    """
    if not 1 <= width <= 16:
        raise ValueError(f"fold width must be in 1..16, got {width}")
    n = len(outcomes)
    result = np.zeros(n, dtype=np.uint16)
    if length == 0 or n == 0:
        result[:] = seed_value
        return result
    # Outgoing bit for local push i (0-based): with g = prior_count + i
    # pushes already applied, the window is full once g >= length and the
    # leaving bit is the one pushed at global index g - length — served
    # from ``prior_tail`` while that index predates this segment, from
    # ``outcomes`` afterwards.
    outgoing = np.zeros(n, dtype=np.uint16)
    tail = (
        np.zeros(0, dtype=np.uint16)
        if prior_tail is None
        else np.asarray(prior_tail, dtype=np.uint16)
    )
    first = max(0, length - prior_count)
    tail_end = min(n, length)  # local pushes [first, tail_end) drain the tail
    if tail_end > first and len(tail) > 0:
        tail0 = first - length + len(tail)
        if tail0 < 0:
            raise ValueError(
                f"prior_tail holds {len(tail)} bits but the {length}-deep "
                f"window needs {min(prior_count, length)}"
            )
        outgoing[first:tail_end] = tail[tail0 : tail0 + (tail_end - first)]
    if n > length:
        outgoing[length:] = outcomes[: n - length]

    shifts = (np.arange(1, n + 1, dtype=np.uint32)) % np.uint32(width)
    terms = np.asarray(outcomes, dtype=np.uint16) ^ (
        outgoing << np.uint16(length % width)
    )
    derot = _rot_terms(terms, shifts, width, left=False).astype(np.uint16)
    np.bitwise_xor.accumulate(derot, out=derot)
    derot ^= np.uint16(seed_value)
    rerot = _rot_terms(derot, shifts, width, left=True).astype(np.uint16)
    return rerot

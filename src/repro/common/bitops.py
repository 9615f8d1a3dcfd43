"""Bit-manipulation helpers used by predictor index functions.

Hardware branch predictors index SRAM arrays with cheap hash functions of
the branch address and history bits.  The helpers here provide the same
building blocks in software: masking to a power-of-two range, folding a
long bit string into a short one with XOR, and a 64-bit finalizer-style
mixer used where the paper says "hash".
"""

from __future__ import annotations

from functools import lru_cache

_U64 = (1 << 64) - 1


def mask(bits: int) -> int:
    """Return a bit mask with the low ``bits`` bits set.

    >>> mask(4)
    15
    """
    if bits < 0:
        raise ValueError(f"bit width must be non-negative, got {bits}")
    return (1 << bits) - 1


def is_power_of_two(value: int) -> bool:
    """Return True when ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def mix64(value: int) -> int:
    """Finalize-mix a 64-bit integer (splitmix64 finalizer).

    Used wherever the paper writes ``hash(...)``: a cheap, well-dispersed
    mapping from a combined key to a table index.
    """
    value &= _U64
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _U64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _U64
    return value ^ (value >> 31)


def hash_combine(*values: int) -> int:
    """Combine several integer keys into one 64-bit hash.

    The combination is order-sensitive so that ``hash_combine(a, b)`` and
    ``hash_combine(b, a)`` differ, matching the role of the distinct XOR
    inputs in Algorithm 2 of the paper.
    """
    acc = 0x9E3779B97F4A7C15
    for value in values:
        acc = mix64(acc ^ (value & _U64))
    return acc


@lru_cache(maxsize=None)
def fold_schedule(width: int, target_bits: int) -> tuple[tuple[int, int], ...]:
    """The split steps that fold a ``width``-bit value to ``target_bits``.

    Each step is a ``(half, low_mask)`` pair applied as
    ``value = (value & low_mask) ^ (value >> half)`` to a value already
    masked to ``width`` bits; the schedule is empty when
    ``width <= target_bits``.  This is the paper's "folded" global
    history: consecutive groups of history bits are XORed together until
    the result fits the predictor index width (Section IV-A).

    The fold runs in O(log(width / target_bits)) steps rather than one
    step per chunk: each step splits the value at ``half``, the smallest
    multiple of ``target_bits`` that is at least ``width / 2``, and XORs
    the high part onto the low part.  Because ``half`` is a multiple of
    ``target_bits``, chunk ``j`` of the high part is chunk
    ``j + half / target_bits`` of the value, so every chunk boundary is
    preserved and each step leaves the XOR of all chunks unchanged.  The
    high part is at most ``half`` bits wide and ``half < width`` while
    ``width > target_bits``, so the schedule ends with a single chunk:
    the XOR of every ``target_bits``-wide chunk of the original value.

    Schedules are cached: a caller with fixed geometry (BF-TAGE's
    per-table prefixes) looks its schedules up once and applies them
    inline.

    >>> fold_schedule(8, 4)
    ((4, 15),)
    """
    if target_bits <= 0:
        raise ValueError(f"target width must be positive, got {target_bits}")
    if width < 0:
        raise ValueError(f"source width must be non-negative, got {width}")
    if width <= target_bits:
        return ()
    half = -(-width // (2 * target_bits)) * target_bits
    return ((half, (1 << half) - 1),) + fold_schedule(half, target_bits)


@lru_cache(maxsize=None)
def _fold_plan(width: int, target_bits: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The source-width mask and schedule :func:`fold_bits` applies."""
    schedule = fold_schedule(width, target_bits)  # validates the widths first
    return (1 << width) - 1, schedule


def fold_bits(value: int, width: int, target_bits: int) -> int:
    """Fold a ``width``-bit value down to ``target_bits`` by XOR of chunks.

    Bits of ``value`` above ``width`` are ignored; the fold itself is
    :func:`fold_schedule`'s.

    >>> fold_bits(0b1011_0110, 8, 4)
    13
    """
    if 0 <= width <= target_bits and target_bits > 0:
        return value & ((1 << width) - 1)
    width_mask, schedule = _fold_plan(width, target_bits)
    value &= width_mask
    for half, low_mask in schedule:
        value = (value & low_mask) ^ (value >> half)
    return value

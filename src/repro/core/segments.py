"""Segmented recency stacks and BF-GHR construction (Section V, Figure 7).

A monolithic recency stack over 2000 branches would need an impractical
associative search, so BF-TAGE divides the raw global history into
non-overlapping, geometrically sized segments, each covered by a small
RS (size 8 here, as in the paper).  A branch *enters* a segment's RS
when its raw depth crosses the segment's shallow boundary (if it was
non-biased at commit) and *falls out* at the deep boundary, where the
next segment considers it.  Within a segment only the most recent
occurrence of a (hashed) branch address is kept; when a full RS must
make room, the deepest entry is evicted.

The BF-GHR presented to the tagged tables is the concatenation of the
16 most recent *unfiltered* outcomes (the paper keeps these unfiltered
to dodge dynamic-detection perturbation) and each segment's valid
entries, shallow segment first, most recent entry first.  Only valid
entries are packed, so the compression — and therefore the effective
reach of a given number of BF-GHR bits — grows with the biased-branch
fraction of the workload, which is exactly the paper's premise.

Every entry carries a *stamp*, the commit index of its occurrence.
Segment *k* only gains entries at its front, each stamped
``head - (boundary_k + 1)`` for a commit counter ``head`` that only
grows, and dedup removes entries without reordering the rest.  So each
segment's entries are strictly stamp-descending: the deepest entry is
the last one, which makes eviction a ``pop()``, and the record leaving
at the deep boundary, if it is still there, is the last entry too.
:meth:`SegmentedRecencyStacks.restore` rejects snapshots that break
this invariant.

Two packed registers are derived from that state, at 3 bits per
position (``outcome | (addr & 3) << 1``, most recent position lowest):
a window over the ``unfiltered_bits`` latest commits, shifted in per
commit, and one word per segment, spliced by a constant number of
shift and mask operations on every insert, dedup, eviction and
removal.  A prediction ORs them together at running offsets instead of
walking up to 142 entries.  Neither register is part of a snapshot;
``restore`` rebuilds both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.state import StateError, expect_keys, expect_length

#: The paper's history segmentation (Section VI-C).
DEFAULT_BOUNDARIES = [
    16, 32, 48, 64, 80, 104, 128, 192, 256, 320, 416, 512, 768, 1024, 1280, 1536, 2048,
]


@dataclass(slots=True)
class _SegmentEntry:
    hashed_pc: int
    stamp: int  # commit index of this occurrence
    outcome: bool


class SegmentedRecencyStacks:
    """The BF-GHR generator: a ring of commits driving per-segment RSs."""

    def __init__(
        self,
        boundaries: list[int] | None = None,
        rs_size: int = 8,
        unfiltered_bits: int = 16,
        hashed_pc_bits: int = 14,
    ) -> None:
        self.boundaries = list(boundaries) if boundaries is not None else list(DEFAULT_BOUNDARIES)
        if self.boundaries != sorted(self.boundaries) or len(set(self.boundaries)) != len(
            self.boundaries
        ):
            raise ValueError(f"boundaries must strictly increase: {self.boundaries}")
        if rs_size <= 0:
            raise ValueError(f"rs_size must be positive, got {rs_size}")
        if unfiltered_bits <= 0:
            raise ValueError(f"unfiltered_bits must be positive, got {unfiltered_bits}")
        if self.boundaries[0] < unfiltered_bits:
            raise ValueError(
                f"first boundary {self.boundaries[0]} must cover the "
                f"{unfiltered_bits} unfiltered bits"
            )
        self.rs_size = rs_size
        self.unfiltered_bits = unfiltered_bits
        self.hashed_pc_bits = hashed_pc_bits
        self.num_segments = len(self.boundaries) - 1
        self._segments: list[list[_SegmentEntry]] = [[] for _ in range(self.num_segments)]
        # Commit ring: (hashed pc, outcome, non_biased) per committed branch.
        depth_needed = self.boundaries[-1] + 2
        self._ring: list[tuple[int, bool, bool]] = [(0, False, False)] * depth_needed
        self._head = 0
        self._count = 0
        self._pc_mask = (1 << hashed_pc_bits) - 1
        # (segment index, raw depth) of each boundary crossing, shallow first.
        self._crossings = tuple((k, boundary + 1) for k, boundary in enumerate(self.boundaries))
        # _word_masks[n] keeps the first n positions of a segment word.
        self._word_masks = tuple((1 << 3 * n) - 1 for n in range(rs_size + 1))
        # Derived packed registers (see the module docstring).
        self._window_bits = 3 * unfiltered_bits
        self._window_mask = (1 << self._window_bits) - 1
        self._window = 0
        self._words = [0] * self.num_segments

    # ------------------------------------------------------------------

    def _at_depth(self, depth: int) -> tuple[int, bool, bool] | None:
        """The commit record ``depth`` branches ago (depth 1 = latest)."""
        if depth > self._count:
            return None
        return self._ring[(self._head - depth) % len(self._ring)]

    def commit(self, pc: int, taken: bool, non_biased: bool) -> None:
        """Record a committed branch and advance every segment."""
        hashed_pc = pc & self._pc_mask
        ring = self._ring
        ring_len = len(ring)
        ring[self._head % ring_len] = (hashed_pc, taken, non_biased)
        self._window = (
            (self._window << 3) | taken | (hashed_pc & 3) << 1
        ) & self._window_mask
        self._head += 1
        if self._count < ring_len:
            self._count += 1

        # One boundary-crossing event per boundary per commit: the branch
        # whose depth just became boundary+1 leaves the segment above the
        # boundary (if any) and enters the one below it (if any).  Only
        # non-biased records ever enter a segment, and stamps are unique,
        # so a biased record has nothing to remove either.
        # Bound methods and counters are hoisted — this loop runs per
        # committed branch over every boundary (REPRO402).
        remove = self._remove
        insert = self._insert
        head = self._head
        count = self._count
        num_segments = self.num_segments
        for k, depth in self._crossings:
            if depth > count:
                break  # deeper boundaries cannot have been reached either
            crossing_pc, outcome, was_non_biased = ring[(head - depth) % ring_len]
            if not was_non_biased:
                continue
            stamp = head - depth
            if k > 0:
                remove(k - 1, crossing_pc, stamp)
            if k < num_segments:
                insert(k, crossing_pc, stamp, outcome)

    def _remove(self, segment: int, hashed_pc: int, stamp: int) -> None:
        """Drop the record (``hashed_pc``, ``stamp``) leaving at the deep
        boundary.  It is the oldest record the segment can hold, so it is
        the last entry if it is there at all; stamps are unique, so the
        stamp alone identifies it."""
        entries = self._segments[segment]
        if entries and entries[-1].stamp == stamp:
            entries.pop()
            self._words[segment] &= self._word_masks[len(entries)]

    def _insert(self, segment: int, hashed_pc: int, stamp: int, outcome: bool) -> None:
        entries = self._segments[segment]
        word = self._words[segment]
        # Dedup: a new occurrence evicts an older one of the same address.
        for position, entry in enumerate(entries):
            if entry.hashed_pc == hashed_pc:
                del entries[position]
                # Splice its 3 bits out: the positions below stay, the
                # ones above move down by one.
                shift = 3 * position
                word = (word & self._word_masks[position]) | (word >> (shift + 3) << shift)
                break
        entries.insert(0, _SegmentEntry(hashed_pc, stamp, outcome))
        word = (word << 3) | outcome | (hashed_pc & 3) << 1
        if len(entries) > self.rs_size:
            # Evict the deepest (oldest stamp) entry: stamps descend, so
            # it is the last one.
            entries.pop()
            word &= self._word_masks[self.rs_size]
        self._words[segment] = word

    # ------------------------------------------------------------------

    def ghr_components(self) -> tuple[list[int], list[int]]:
        """The BF-GHR as parallel (outcome bit, hashed address) lists.

        Position 0 is the most recent element: first the
        ``unfiltered_bits`` latest raw outcomes, then each segment's
        valid entries (shallow segment first, most recent first).  Built
        from the ring and the entry lists, independently of the packed
        registers.
        """
        bits: list[int] = []
        addresses: list[int] = []
        for depth in range(1, self.unfiltered_bits + 1):
            record = self._at_depth(depth)
            if record is None:
                bits.append(0)
                addresses.append(0)
            else:
                bits.append(1 if record[1] else 0)
                addresses.append(record[0])
        for entries in self._segments:
            for entry in entries:
                bits.append(1 if entry.outcome else 0)
                addresses.append(entry.hashed_pc)
        return bits, addresses

    def packed_ghr(self, max_length: int) -> tuple[int, int]:
        """The BF-GHR packed 3 bits per position (hot path for BF-TAGE).

        Position p contributes ``outcome | (addr & 3) << 1`` at bit 3p.
        Returns ``(packed value, number of positions packed)``; at most
        ``max_length`` positions are packed.  The unfiltered region always
        counts as ``unfiltered_bits`` positions (zero before that many
        commits).
        """
        if max_length <= self.unfiltered_bits:
            return self._window & ((1 << 3 * max_length) - 1), max_length
        packed = self._window
        shift = self._window_bits
        limit = 3 * max_length
        for word, entries in zip(self._words, self._segments):
            packed |= word << shift
            shift += 3 * len(entries)
            if shift >= limit:
                return packed & ((1 << limit) - 1), max_length
        return packed, shift // 3

    def max_ghr_length(self) -> int:
        """Upper bound on BF-GHR length (all segment RSs full)."""
        return self.unfiltered_bits + self.num_segments * self.rs_size

    def segment_fill(self) -> list[int]:
        """Current number of valid entries per segment (diagnostics)."""
        return [len(entries) for entries in self._segments]

    def storage_bits(self) -> int:
        """Ring + per-segment RS storage, per Table I's accounting."""
        ring_bits = self.boundaries[-1] * (self.hashed_pc_bits + 1 + 1)
        rs_bits = self.num_segments * self.rs_size * 16
        return ring_bits + rs_bits

    def snapshot(self) -> dict:
        """Commit ring, cursor, and every segment's valid entries."""
        return {
            "segments": [
                [[e.hashed_pc, e.stamp, e.outcome] for e in entries]
                for entries in self._segments
            ],
            "ring": [[pc, taken, nb] for pc, taken, nb in self._ring],
            "head": self._head,
            "count": self._count,
        }

    def restore(self, state: dict) -> None:
        """Re-install a :meth:`snapshot`; segmentation must match.

        Each segment must hold at most ``rs_size`` entries with strictly
        descending stamps and distinct hashed PCs — the invariant the
        tail-pop removal and eviction rely on.  The packed registers are
        rebuilt from the ring and the entries.
        """
        expect_keys(state, ("segments", "ring", "head", "count"), "SegmentedRS")
        expect_length(state["segments"], self.num_segments, "SegmentedRS.segments")
        expect_length(state["ring"], len(self._ring), "SegmentedRS.ring")
        segments = [
            [_SegmentEntry(int(pc), int(stamp), bool(out)) for pc, stamp, out in entries]
            for entries in state["segments"]
        ]
        for k, entries in enumerate(segments):
            context = f"SegmentedRS segment {k}"
            if len(entries) > self.rs_size:
                raise StateError(
                    f"{context}: {len(entries)} entries exceed rs_size {self.rs_size}"
                )
            stamps = [entry.stamp for entry in entries]
            if any(newer <= older for newer, older in zip(stamps, stamps[1:])):
                raise StateError(f"{context}: stamps {stamps} are not strictly descending")
            if len({entry.hashed_pc for entry in entries}) != len(entries):
                raise StateError(f"{context}: a hashed PC appears more than once")
        self._segments = segments
        self._ring = [(int(pc), bool(taken), bool(nb)) for pc, taken, nb in state["ring"]]
        self._head = int(state["head"])
        self._count = min(int(state["count"]), len(self._ring))
        self._repack()

    def _repack(self) -> None:
        """Rebuild both packed registers from the ring and the entries."""
        self._words = [
            sum((e.outcome | (e.hashed_pc & 3) << 1) << 3 * j for j, e in enumerate(entries))
            for entries in self._segments
        ]
        self._window = 0
        for depth in range(min(self.unfiltered_bits, self._count), 0, -1):
            hashed_pc, taken, _ = self._at_depth(depth)
            self._window = (self._window << 3) | taken | (hashed_pc & 3) << 1

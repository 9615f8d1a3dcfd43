"""Unit and property tests for repro.common.bitops."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitops import (
    fold_bits,
    fold_schedule,
    hash_combine,
    is_power_of_two,
    mask,
    mix64,
)


def linear_fold(value: int, width: int, target: int) -> int:
    """Reference fold, one bit at a time: bit ``i`` of the low ``width``
    bits lands on bit ``i % target``.  Independent of ``fold_bits``."""
    folded = 0
    for position in range(width):
        if (value >> position) & 1:
            folded ^= 1 << (position % target)
    return folded


class TestMask:
    def test_zero_width(self):
        assert mask(0) == 0

    def test_small_widths(self):
        assert mask(1) == 1
        assert mask(4) == 15
        assert mask(8) == 255

    def test_large_width(self):
        assert mask(64) == (1 << 64) - 1

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)

    @given(st.integers(min_value=0, max_value=256))
    def test_mask_is_all_ones(self, bits):
        value = mask(bits)
        assert value == (1 << bits) - 1
        assert value.bit_count() == bits


class TestIsPowerOfTwo:
    def test_powers(self):
        for exponent in range(20):
            assert is_power_of_two(1 << exponent)

    def test_non_powers(self):
        for value in (0, 3, 5, 6, 7, 9, 12, 100, -2, -8):
            assert not is_power_of_two(value)


class TestMix64:
    def test_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_fits_64_bits(self):
        for value in (0, 1, 2**63, 2**64 - 1, 2**80):
            assert 0 <= mix64(value) < 2**64

    def test_disperses_adjacent_inputs(self):
        outputs = {mix64(i) for i in range(1000)}
        assert len(outputs) == 1000

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_low_bits_change(self, value):
        # Adjacent inputs should differ in the low bits used as indices.
        assert (mix64(value) ^ mix64(value + 1)) & 0xFFFF != 0


class TestHashCombine:
    def test_order_sensitive(self):
        assert hash_combine(1, 2) != hash_combine(2, 1)

    def test_arity_sensitive(self):
        assert hash_combine(1) != hash_combine(1, 0)

    def test_deterministic(self):
        assert hash_combine(7, 8, 9) == hash_combine(7, 8, 9)

    def test_range(self):
        assert 0 <= hash_combine(1, 2, 3) < 2**64


class TestFoldBits:
    def test_identity_when_fits(self):
        assert fold_bits(0b1011, 4, 4) == 0b1011
        assert fold_bits(0b1011, 4, 8) == 0b1011

    def test_simple_fold(self):
        # 1011_0110 folded to 4 bits: 0110 ^ 1011 = 1101
        assert fold_bits(0b1011_0110, 8, 4) == 0b1101

    def test_masks_out_of_range_bits(self):
        # Bits beyond `width` must be ignored.
        assert fold_bits(0b1_0001, 4, 4) == 0b0001

    def test_zero(self):
        assert fold_bits(0, 100, 7) == 0

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            fold_bits(1, 4, 0)

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            fold_bits(1, -1, 4)

    @given(
        st.integers(min_value=0, max_value=2**128 - 1),
        st.integers(min_value=1, max_value=128),
        st.integers(min_value=1, max_value=32),
    )
    def test_result_fits_target(self, value, width, target):
        assert 0 <= fold_bits(value, width, target) < (1 << target)

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=1, max_value=16),
    )
    def test_xor_homomorphism(self, value, target):
        """Folding distributes over XOR: fold(a^b) == fold(a)^fold(b)."""
        other = 0x5A5A_5A5A_5A5A_5A5A
        left = fold_bits(value ^ other, 64, target)
        right = fold_bits(value, 64, target) ^ fold_bits(other, 64, target)
        assert left == right

    def test_reference_matches_worked_example(self):
        assert linear_fold(0b1011_0110, 8, 4) == 0b1101

    @given(
        st.integers(min_value=0, max_value=2100),
        st.integers(min_value=1, max_value=40),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_reference(self, width, target, data):
        """Log-step fold == chunk-by-chunk XOR, including bits above
        ``width`` and negative values (two's complement, infinitely
        sign-extended), which must both be masked away first."""
        span = 1 << (width + 70)
        value = data.draw(st.integers(min_value=-span, max_value=span - 1))
        assert fold_bits(value, width, target) == linear_fold(value, width, target)

    @given(st.integers(min_value=1, max_value=40), st.data())
    def test_width_not_above_target_is_masked_identity(self, target, data):
        width = data.draw(st.integers(min_value=0, max_value=target))
        value = data.draw(st.integers(min_value=-(1 << 64), max_value=1 << 64))
        assert fold_bits(value, width, target) == value & ((1 << width) - 1)
        assert fold_bits(value, width, target) == linear_fold(value, width, target)

    def test_bits_above_width_ignored(self):
        low = 0b1101_0110_0011
        for high in (1, 0xFFFF, 1 << 500):
            value = low | (high << 12)
            assert fold_bits(value, 12, 5) == fold_bits(low, 12, 5)
            assert fold_bits(value, 12, 5) == linear_fold(low, 12, 5)

    def test_negative_values(self):
        for value in (-1, -2, -(1 << 300) + 12345):
            for width, target in ((10, 4), (426, 11), (426, 14), (1920, 7), (3, 5)):
                assert fold_bits(value, width, target) == linear_fold(
                    value, width, target
                )
        # -1 has every bit set: 10 bits folded to 4 = 1111 ^ 1111 ^ 11.
        assert fold_bits(-1, 10, 4) == 0b0011

    def test_bf_tage_prefix_geometry(self):
        """Every (prefix width, fold width) pair BF-TAGE-10 uses."""
        import random

        from repro.core.bftage import BFTageConfig

        cfg = BFTageConfig()
        rnd = random.Random(0xF01D)
        for length, log2, tag in zip(cfg.history_lengths, cfg.log2_entries, cfg.tag_bits):
            width = 3 * length
            for _ in range(20):
                value = rnd.getrandbits(width + 30)
                for target in (log2, tag, max(1, tag - 1)):
                    assert fold_bits(value, width, target) == linear_fold(
                        value, width, target
                    )


def apply_schedule(value: int, width: int, target: int) -> int:
    """Fold the way BF-TAGE does inline: mask once, then run the steps."""
    value &= (1 << width) - 1
    for half, low_mask in fold_schedule(width, target):
        value = (value & low_mask) ^ (value >> half)
    return value


class TestFoldSchedule:
    @given(
        st.integers(min_value=0, max_value=2100),
        st.integers(min_value=1, max_value=40),
        st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_linear_reference_and_fold_bits(self, width, target, data):
        span = 1 << (width + 70)
        value = data.draw(st.integers(min_value=-span, max_value=span - 1))
        folded = apply_schedule(value, width, target)
        assert folded == linear_fold(value, width, target)
        assert folded == fold_bits(value, width, target)

    @given(st.integers(min_value=1, max_value=40), st.data())
    def test_empty_when_width_not_above_target(self, target, data):
        width = data.draw(st.integers(min_value=0, max_value=target))
        assert fold_schedule(width, target) == ()

    def test_steps_split_on_target_multiples(self):
        # 426 bits to 11: split at 220, 110, 55, 33, 22, 11.
        steps = fold_schedule(426, 11)
        assert [half for half, _ in steps] == [220, 110, 55, 33, 22, 11]
        assert all(low_mask == (1 << half) - 1 for half, low_mask in steps)
        assert fold_schedule(426, 11) is steps  # cached

    @pytest.mark.parametrize("width, target", [(4, 0), (0, 0), (4, -3), (-1, 4), (-5, 0)])
    def test_same_errors_as_fold_bits(self, width, target):
        with pytest.raises(ValueError) as from_schedule:
            fold_schedule(width, target)
        with pytest.raises(ValueError) as from_fold:
            fold_bits(1, width, target)
        assert str(from_schedule.value) == str(from_fold.value)

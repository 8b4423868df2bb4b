"""Mask assignment — including exact reproduction of the paper's tables."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bits import mask_to_string, ones
from repro.core.interleave import assign_masks, assign_masks_major_minor


def _strings(masks, total):
    return [mask_to_string(m, total).lstrip("0") or "0" for m in masks]


class TestPaperMasks:
    """The dimension-use table of Section IV, bit for bit."""

    def test_orders(self):
        masks = assign_masks([13, 5])  # D_DATE local, D_NATION via FK_O_C
        assert _strings(masks, 18) == [
            "101010101011111111",
            "10101010100000000",
        ]

    def test_partsupp(self):
        masks = assign_masks([13, 5])  # D_PART, D_NATION
        assert _strings(masks, 18) == [
            "101010101011111111",
            "10101010100000000",
        ]

    def test_lineitem_effective_20_bits(self):
        from repro.core.bits import truncate_mask

        masks = assign_masks([13, 5, 5, 13])
        total = 36
        reduced = [truncate_mask(m, total, 20) for m in masks]
        assert _strings(reduced, 20) == [
            "10001000100010001000",
            "1000100010001000100",
            "100010001000100010",
            "10001000100010001",
        ]

    def test_single_dimension_tables(self):
        # NATION / SUPPLIER / CUSTOMER: one 5-bit dimension -> 11111
        assert _strings(assign_masks([5]), 5) == ["11111"]
        # PART: one 13-bit dimension
        assert _strings(assign_masks([13]), 13) == ["1" * 13]


class TestRoundRobinProperties:
    @given(st.lists(st.integers(min_value=1, max_value=13), min_size=1, max_size=4))
    def test_masks_partition_all_bits(self, bits):
        masks = assign_masks(bits)
        total = sum(bits)
        combined = 0
        for mask, b in zip(masks, bits):
            assert ones(mask) == b
            assert combined & mask == 0
            combined |= mask
        assert combined == (1 << total) - 1

    def test_first_use_gets_msb(self):
        masks = assign_masks([2, 2])
        assert masks[0] & (1 << 3)

    def test_rejects_over_64_bits(self):
        with pytest.raises(ValueError):
            assign_masks([13, 13, 13, 13, 13])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            assign_masks([])


class TestMajorMinor:
    def test_blocks(self):
        masks = assign_masks_major_minor([3, 2])
        assert mask_to_string(masks[0], 5) == "11100"
        assert mask_to_string(masks[1], 5) == "00011"

    @given(st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=5))
    def test_partition_property(self, bits):
        masks = assign_masks_major_minor(bits)
        combined = 0
        for mask, b in zip(masks, bits):
            assert ones(mask) == b
            assert combined & mask == 0
            combined |= mask
        assert combined == (1 << sum(bits)) - 1

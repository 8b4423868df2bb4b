"""Dimension invariants of Definition 1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bits import gather_use_bits
from repro.core.dimension import Dimension
from repro.execution.operators import group_ids
from repro.execution.relation import Relation


def _dimension_from(values, max_bits=4, name="D_T"):
    arr = np.array(values)
    return Dimension.create(name, "t", ["k"], [arr], max_bits=max_bits)


class TestCreate:
    def test_small_domain_unique_bins(self):
        dim = _dimension_from([3, 1, 2, 1])
        assert dim.num_bins == 3  # Def 1(iv): unique bins
        assert dim.bits == 2

    def test_bits_formula(self):
        dim = _dimension_from(list(range(25)), max_bits=13)
        assert dim.bits == 5  # ceil(log2(25)), the paper's D_NATION

    def test_weights_drive_binning(self):
        host = np.arange(16)
        # usage distribution concentrated on low values: the host rows the
        # using rows reach (row i holds value i)
        weight_rows = np.concatenate([np.zeros(100, dtype=int), np.arange(16)])
        dim = Dimension.create(
            "D", "t", ["k"], [host], max_bits=1, weight_rows=weight_rows
        )
        assert dim.num_bins == 2
        bins = dim.bin_of_values([host])
        # the heavy value 0 sits alone-ish in the first bin
        assert bins[0] == 0 and bins[-1] == 1


class TestBinOf:
    def test_order_respecting(self):
        dim = _dimension_from([10, 20, 30, 40], max_bits=2)
        bins = dim.bin_of_values([np.array([10, 20, 30, 40])])
        assert np.all(np.diff(bins.astype(int)) >= 0)

    def test_clamps_above_domain(self):
        dim = _dimension_from([1, 2, 3])
        codes = np.array([10**6], dtype=np.int64)
        assert dim.bin_of_codes(codes)[0] == dim.num_bins - 1

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 1000), min_size=2, max_size=300))
    def test_definition1_invariants(self, values):
        dim = _dimension_from(values, max_bits=3)
        arr = np.array(values)
        bins = dim.bin_of_values([arr])
        # (iii) order respecting: v1 <= v2 -> bin(v1) <= bin(v2)
        order = np.argsort(arr, kind="stable")
        assert np.all(np.diff(bins[order].astype(np.int64)) >= 0)
        # surjective: every bin receives at least one value
        assert set(np.unique(bins).tolist()) == set(range(dim.num_bins))


class TestReducedGranularity:
    """Def 1(vii) as the engine applies it: a sandwich group id takes
    the top ``g`` bits of a stream's bin column (``group_ids``)."""

    @staticmethod
    def _reduced(dim, bins, g):
        return group_ids(Relation(columns={"__grp__d": bins}), [("__grp__d", dim.bits, g)])

    def test_chops_lsbs(self):
        dim = _dimension_from(list(range(8)), max_bits=3)
        bins = dim.bin_of_values([np.arange(8)])
        reduced = self._reduced(dim, bins, 1)
        assert list(reduced) == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_rejects_bad_granularity(self):
        # a use cannot be reduced to more bits than the dimension has
        dim = _dimension_from([1, 2])
        with pytest.raises(ValueError):
            gather_use_bits(np.array([0], dtype=np.uint64), (1 << dim.bits) - 1, 7)

    @given(
        st.lists(st.integers(0, 255), min_size=2, max_size=100),
        st.integers(min_value=0, max_value=3),
    )
    def test_reduction_merges_neighbours_only(self, values, g):
        """Def 1(vii): reduction at granularity g merges only bins that
        share their top g bits; order is preserved."""
        dim = _dimension_from(values, max_bits=3)
        g = min(g, dim.bits)
        arr = np.array(values)
        full = dim.bin_of_values([arr])
        reduced = self._reduced(dim, full, g)
        assert np.array_equal(reduced, full >> np.uint64(dim.bits - g))
        order = np.argsort(arr, kind="stable")
        assert np.all(np.diff(reduced[order].astype(np.int64)) >= 0)


class TestBinRanges:
    """A code interval maps to a contiguous run of bins (Def 1(v) is
    order-respecting), which is what range pushdown relies on."""

    def test_range_for_codes(self):
        dim = _dimension_from([10, 20, 30, 40])
        enc = dim.encoder
        lo = enc.lower_code([20])
        hi = enc.upper_code([30])
        assert list(np.unique(dim.bin_of_codes(np.arange(lo, hi + 1)))) == [1, 2]

    def test_empty_interval(self):
        # no host value lies in [15, 15]: the code interval is empty
        dim = _dimension_from([10, 20])
        lo, hi = dim.encoder.lower_code([15]), dim.encoder.upper_code([15])
        assert hi < lo
        assert len(dim.bin_of_codes(np.arange(lo, hi + 1))) == 0

    def test_rejects_unordered_bins(self):
        with pytest.raises(ValueError):
            Dimension(
                name="bad",
                table="t",
                key=("k",),
                encoder=KeyEncoderStub(),
                uppers=np.array([3, 1], dtype=np.int64),
            )


class KeyEncoderStub:
    pass

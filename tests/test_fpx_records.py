"""Unit + property tests for record encoding (Figure 3) and the GT table."""

import pytest
from hypothesis import given, strategies as st

from repro.fpx.gt import GlobalTable
from repro.fpx.records import (
    EXCE_BITS,
    ExceptionKind,
    FP_BITS,
    FPFormat,
    LOC_BITS,
    RECORD_SPACE,
    SEVERE_KINDS,
    SiteRegistry,
    decode_record,
    encode_record,
)


class TestRecordFormat:
    def test_bit_budget_matches_figure3(self):
        assert EXCE_BITS == 2
        assert LOC_BITS == 16
        assert FP_BITS == 2
        assert RECORD_SPACE == 2 ** 20

    def test_table_is_4mb(self):
        """'The 16-bit location index ... maintains the table size at 4MB.'"""
        assert GlobalTable.SIZE_BYTES == 4 * 1024 * 1024

    def test_encode_known_value(self):
        key = encode_record(ExceptionKind.NAN, 0, FPFormat.FP32)
        assert key == 0
        key = encode_record(ExceptionKind.DIV0, 1, FPFormat.FP64)
        assert key == (3 << 18) | (1 << 2) | 1

    def test_encode_none_rejected(self):
        with pytest.raises(ValueError):
            encode_record(ExceptionKind.NONE, 0, FPFormat.FP32)

    def test_loc_out_of_range(self):
        with pytest.raises(ValueError):
            encode_record(ExceptionKind.NAN, 1 << 16, FPFormat.FP32)

    @given(
        st.sampled_from([ExceptionKind.NAN, ExceptionKind.INF,
                         ExceptionKind.SUB, ExceptionKind.DIV0]),
        st.integers(min_value=0, max_value=2 ** 16 - 1),
        st.sampled_from(list(FPFormat)),
    )
    def test_roundtrip(self, kind, loc, fmt):
        rec = decode_record(encode_record(kind, loc, fmt))
        assert rec.kind == kind and rec.loc == loc and rec.fmt == fmt

    @given(st.integers(min_value=0, max_value=RECORD_SPACE - 1))
    def test_every_key_decodes(self, key):
        rec = decode_record(key)
        assert encode_record(rec.kind, rec.loc, rec.fmt) == key

    def test_severe_kinds(self):
        assert ExceptionKind.SUB not in SEVERE_KINDS
        assert set(SEVERE_KINDS) == {ExceptionKind.NAN, ExceptionKind.INF,
                                     ExceptionKind.DIV0}


class TestGlobalTable:
    def test_first_occurrence_is_new(self):
        gt = GlobalTable()
        assert gt.test_and_set(42)
        assert not gt.test_and_set(42)
        assert gt.occurrences(42) == 2

    def test_in_batch_dedup(self):
        gt = GlobalTable()
        keys = [5, 5, 7, 5, 9]
        assert [k for k in keys if gt.test_and_set(k)] == [5, 7, 9]
        # second batch: nothing new
        assert not any(gt.test_and_set(k) for k in keys)
        assert gt.occurrences(5) == 6

    def test_count_lands_as_one_update(self):
        """The detector pushes one update per kind carrying its lane
        count."""
        gt = GlobalTable()
        assert gt.test_and_set(7, count=30)
        assert not gt.test_and_set(7, count=2)
        assert gt.occurrences(7) == 32
        assert gt.occurrences(8) == 0

    @pytest.mark.parametrize("key", [-1, RECORD_SPACE])
    def test_key_outside_table_rejected(self, key):
        gt = GlobalTable()
        with pytest.raises(IndexError):
            gt.test_and_set(key)
        assert gt.recorded_keys() == []

    def test_recorded_keys(self):
        gt = GlobalTable()
        gt.test_and_set(3)
        gt.test_and_set(100)
        assert gt.recorded_keys() == [3, 100]

    def test_clear(self):
        gt = GlobalTable()
        gt.test_and_set(3)
        gt.clear()
        assert gt.recorded_keys() == []
        assert gt.occurrences(3) == 0

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=RECORD_SPACE - 1),
        st.integers(min_value=1, max_value=32)), min_size=1, max_size=200))
    def test_each_key_reported_new_exactly_once(self, updates):
        """Detector completeness invariant: across any update sequence, a
        key is 'new' exactly once and keeps every occurrence."""
        gt = GlobalTable()
        new_total = [k for k, n in updates if gt.test_and_set(k, n)]
        keys = {k for k, _ in updates}
        assert sorted(new_total) == sorted(keys)
        assert gt.recorded_keys() == sorted(keys)
        for key in keys:
            assert gt.occurrences(key) == sum(n for k, n in updates
                                              if k == key)


class TestSiteRegistry:
    def test_register_get_or_create(self):
        reg = SiteRegistry()
        a = reg.register("k", 3, "FADD R0, R1, R2 ;", None, FPFormat.FP32)
        b = reg.register("k", 3, "FADD R0, R1, R2 ;", None, FPFormat.FP32)
        assert a == b
        assert len(reg) == 1

    def test_where_closed_source(self):
        reg = SiteRegistry()
        loc = reg.register("void cusparse::load_balancing_kernel", 0,
                           "FSEL R2, R5, R2, !P6 ;", None, FPFormat.FP32)
        site = reg.site(loc)
        assert site.where == \
            "/unknown_path in [void cusparse::load_balancing_kernel]:0"

    def test_where_with_sources(self):
        reg = SiteRegistry()
        loc = reg.register("kernel_ecc_3", 7, "FMUL R4, R4, R5 ;",
                           "kernel_ecc_3.cu:776", FPFormat.FP32)
        assert reg.site(loc).where == "kernel_ecc_3.cu:776"

    def test_loc_ids_are_16bit(self):
        reg = SiteRegistry()
        for i in range(100):
            loc = reg.register("k", i, "NOP ;", None, FPFormat.FP32)
            assert 0 <= loc < 2 ** 16

"""Tests for repro.util.tables, units and validation."""

from dataclasses import dataclass

import pytest

from repro.util.tables import format_percent, format_table
from repro.util.units import (
    bytes_per_second,
    cycles_from_ns,
    ns_from_cycles,
    seconds_from_ns,
)
from repro.util.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_power_of_two,
    field_names,
    field_set,
    require_fields,
)


class TestFormatTable:
    def test_basic_alignment(self):
        out = format_table(["a", "bbb"], [[1, 2], [33, 4]])
        lines = out.splitlines()
        assert lines[0].startswith("a ")
        assert "---" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        out = format_table(["x"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_float_formatting(self):
        out = format_table(["v"], [[1.23456]])
        assert "1.23" in out

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        out = format_table(["a"], [])
        assert "a" in out


class TestFormatPercent:
    def test_basic(self):
        assert format_percent(0.1234) == "12.34%"

    def test_digits(self):
        assert format_percent(0.5, digits=0) == "50%"


class TestUnits:
    def test_cycles_roundtrip(self):
        freq = 1.09e9
        assert ns_from_cycles(cycles_from_ns(10.0, freq), freq) == pytest.approx(10.0)

    def test_one_ghz_cycle(self):
        assert cycles_from_ns(1.0, 1e9) == pytest.approx(1.0)

    def test_seconds_from_ns(self):
        assert seconds_from_ns(1e9) == pytest.approx(1.0)

    def test_bandwidth(self):
        assert bytes_per_second(7.6) == pytest.approx(7.6e9)


class TestValidation:
    def test_check_positive_rejects_zero(self):
        with pytest.raises(ValueError, match="must be > 0"):
            check_positive("x", 0)

    def test_check_positive_accepts(self):
        check_positive("x", 0.1)

    def test_check_non_negative_rejects(self):
        with pytest.raises(ValueError):
            check_non_negative("x", -1)

    def test_check_non_negative_accepts_zero(self):
        check_non_negative("x", 0)

    def test_check_in_range(self):
        check_in_range("x", 0.5, 0, 1)
        with pytest.raises(ValueError):
            check_in_range("x", 1.5, 0, 1)

    def test_check_power_of_two(self):
        check_power_of_two("x", 64)
        for bad in (0, -2, 3, 48):
            with pytest.raises(ValueError):
                check_power_of_two("x", bad)


@dataclass
class _Point:
    x: int
    y: int = 0


class _Drift(Exception):
    pass


class TestRequireFields:
    def test_field_names_in_declaration_order(self):
        assert field_names(_Point) == ("x", "y")
        assert field_set(_Point, ("v",), ("y",)) == {"x", "v"}

    def test_exact_keys_return_the_same_dict(self):
        doc = {"x": 1, "y": 2}
        assert require_fields(doc, _Point, "point") is doc
        doc = {"v": 1, "x": 1}
        assert require_fields(doc, _Point, "point", extra=("v",),
                              omit=("y",)) is doc

    def test_drift_raises_the_callers_error(self):
        for bad in ([1, 2], {"x": 1, "y": 2, "z": 3}, {"x": 1}):
            with pytest.raises(_Drift):
                require_fields(bad, _Point, "point", error=_Drift)

    def test_missing_error_only_for_pure_omissions(self):
        with pytest.raises(TypeError, match=r"missing \['y'\]"):
            require_fields({"x": 1}, _Point, "point", missing_error=TypeError)
        with pytest.raises(ValueError, match=r"unexpected \['z'\]"):
            require_fields({"z": 1}, _Point, "point", missing_error=TypeError)

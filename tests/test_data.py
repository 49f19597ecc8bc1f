"""Tests for dataset parsing, synthesis, and truncation."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edhi import data
from edhi.data import (
    RunToFailureDataset,
    SyntheticSpec,
    generate_synthetic,
    held_out_split,
    parse_generic,
    parse_rul_labels,
    parse_turbofan,
    parse_turbofan_series,
    truncate_at_fracs,
    truncate_instance,
    truncate_random,
    write_generic,
    write_rul_labels,
)


def _turbofan_text(units):
    """units: dict id -> number of cycles; emits 26-column rows."""
    lines = []
    for uid, n in units.items():
        for cycle in range(1, n + 1):
            sensors = [f"{0.1 * (j + cycle):0.4f}" for j in range(24)]
            lines.append(" ".join([str(uid), str(cycle)] + sensors))
    return "\n".join(lines) + "\n"


class TestRunToFailureDataset:
    def test_duplicate_ids_rejected_on_construction(self):
        series = np.zeros((3, 2))
        with pytest.raises(ValueError, match="duplicate instance ids"):
            RunToFailureDataset([("a", series), ("b", series), ("a", series)])

    def test_label_count_mismatch_rejected_on_construction(self):
        series = np.zeros((3, 2))
        with pytest.raises(ValueError, match="1 RUL labels for 2 instances"):
            RunToFailureDataset([("a", series), ("b", series)], rul_labels=[5.0])


class TestParseTurbofan:
    def test_grouping_and_order(self):
        train, test = parse_turbofan(
            _turbofan_text({1: 4, 2: 3}), _turbofan_text({1: 2}), "17\n"
        )
        assert [uid for uid, _ in train.instances] == ["1", "2"]
        assert train.instances[0][1].shape == (4, 24)
        assert train.instances[1][1].shape == (3, 24)
        assert test.rul_labels == [17.0]
        assert len(train.sensor_names) == 24

    def test_wrong_column_count_reports_line(self):
        bad = _turbofan_text({1: 2}).splitlines()
        bad[1] = bad[1].rsplit(" ", 1)[0]  # drop one column from line 2
        with pytest.raises(ValueError, match="line 2"):
            parse_turbofan("\n".join(bad), _turbofan_text({1: 2}), "5\n")

    def test_non_numeric_reports_line(self):
        bad = _turbofan_text({1: 2}).replace("0.1000", "oops", 1)
        with pytest.raises(ValueError, match="non-numeric"):
            parse_turbofan(bad, _turbofan_text({1: 2}), "5\n")

    def test_non_contiguous_cycles_rejected(self):
        rows = _turbofan_text({1: 3}).splitlines()
        del rows[1]  # remove cycle 2
        with pytest.raises(ValueError, match="contiguous"):
            parse_turbofan("\n".join(rows), _turbofan_text({1: 2}), "5\n")

    def test_swapped_rows_sorted_by_cycle(self):
        rows = _turbofan_text({1: 3}).splitlines()
        rows[0], rows[1] = rows[1], rows[0]
        swapped = parse_turbofan_series("\n".join(rows))
        ordered = parse_turbofan_series(_turbofan_text({1: 3}))
        np.testing.assert_array_equal(swapped.instances[0][1], ordered.instances[0][1])

    def test_duplicated_cycle_rejected(self):
        rows = _turbofan_text({1: 3}).splitlines()
        rows.insert(2, rows[1])  # cycle 2 twice
        with pytest.raises(ValueError, match="train: unit 1 cycles are not contiguous"):
            parse_turbofan("\n".join(rows), _turbofan_text({1: 2}), "5\n")

    def test_first_failing_unit_named(self):
        # units in order of first appearance: 2, then 1; both lack a cycle
        rows = _turbofan_text({2: 3, 1: 3}).splitlines()
        del rows[4], rows[1]
        with pytest.raises(ValueError, match="unit 2 cycles"):
            parse_turbofan_series("\n".join(rows))

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            parse_turbofan(
                _turbofan_text({1: 3}), _turbofan_text({1: 2, 2: 2}), "17\n"
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no data rows"):
            parse_turbofan("", _turbofan_text({1: 2}), "5\n")


class TestParseGeneric:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        ds = RunToFailureDataset(
            instances=[
                ("a", rng.uniform(size=(5, 3))),
                ("b", rng.uniform(size=(7, 3))),
            ],
            sensor_names=["s1", "s2", "s3"],
        )
        back = parse_generic(write_generic(ds))
        assert [uid for uid, _ in back.instances] == ["a", "b"]
        for (_, orig), (_, parsed) in zip(ds.instances, back.instances):
            np.testing.assert_array_equal(orig, parsed)
        assert back.sensor_names == ["s1", "s2", "s3"]

    def test_rul_labels_round_trip(self):
        labels = [17.0, 3.5, 120.0]
        assert parse_rul_labels(write_rul_labels(labels)) == labels

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_generic("cycle,instance_id,s1\na,1,0.5\n")

    def test_row_width_mismatch_reports_line(self):
        text = "instance_id,cycle,s1\na,1,0.5\na,2,0.5,9\n"
        with pytest.raises(ValueError, match="line 3"):
            parse_generic(text)

    def test_non_contiguous_rejected(self):
        text = "instance_id,cycle,s1\na,1,0.5\na,3,0.6\n"
        with pytest.raises(ValueError, match="contiguous"):
            parse_generic(text)

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_rul_labels, "\n  \n", "in.txt: no labels"),
            (parse_generic, "", "in.txt: empty file"),
            # a header and no rows: the fast path finds no rows and declines
            (parse_generic, "instance_id,cycle,s1\n", "in.txt: no data rows"),
            (
                parse_generic,
                "instance_id,cycle,s1\n\n  \t\r\n \n",
                "in.txt: no data rows",
            ),
        ],
    )
    def test_empty_input_named(self, parse, text, message):
        with pytest.raises(ValueError) as err:
            parse(text, "in.txt")
        assert str(err.value) == message

    def test_negative_rul_label_rejected_with_line(self):
        with pytest.raises(ValueError, match="rul.txt line 3: negative RUL '-4.0'"):
            parse_rul_labels("12\n7\n-4.0\n", "rul.txt")
        assert parse_rul_labels("0\n-0.0\n") == [0.0, 0.0]


class TestNonFinite:
    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e999"])
    def test_generic_reading_rejected_with_line(self, token):
        text = f"instance_id,cycle,s1,s2\na,1,0.5,0.1\na,2,{token},0.2\n"
        with pytest.raises(ValueError, match="line 3: non-finite value"):
            parse_generic(text, "fleet.csv")

    def test_generic_cycle_rejected_with_line(self):
        text = "instance_id,cycle,s1\na,1,0.5\na,inf,0.6\n"
        with pytest.raises(ValueError, match="line 3: non-finite value 'inf'"):
            parse_generic(text)

    @pytest.mark.parametrize("token", ["nan", "-inf"])
    def test_turbofan_reading_rejected_with_line(self, token):
        rows = _turbofan_text({1: 3}).splitlines()
        rows[2] = rows[2].rsplit(" ", 1)[0] + f" {token}"
        with pytest.raises(ValueError, match="line 3: non-finite value"):
            parse_turbofan("\n".join(rows), _turbofan_text({1: 2}), "5\n")

    def test_rul_label_rejected_with_line(self):
        with pytest.raises(ValueError, match="line 2: non-finite value"):
            parse_rul_labels("12\nnan\n")


class TestNonIntegerIndex:
    def test_generic_half_cycle_rejected_with_line(self):
        text = "instance_id,cycle,s1\na,1,0.5\na,2.5,0.6\n"
        with pytest.raises(ValueError) as err:
            parse_generic(text, "fleet.csv")
        assert str(err.value) == "fleet.csv line 3: non-integer cycle '2.5'"

    def test_generic_integral_float_cycles_accepted(self):
        text = "instance_id,cycle,s1\na,1.0,0.5\na,2.0,0.6\n"
        fast = _outcome(parse_generic, text)
        assert fast == _row_loop_outcome(parse_generic, text)
        assert fast[0] == "ok" and fast[2][0][1] == (2, 1)

    @pytest.mark.parametrize(
        "column, token, what", [(0, "1.7", "unit"), (1, "2.5", "cycle")]
    )
    def test_turbofan_non_integer_rejected_with_line(self, column, token, what):
        rows = [line.split() for line in _turbofan_text({1: 3}).splitlines()]
        rows[1][column] = token
        text = "\n".join(" ".join(row) for row in rows) + "\n"
        with pytest.raises(ValueError) as err:
            parse_turbofan(text, _turbofan_text({1: 2}), "5\n")
        assert str(err.value) == f"train line 2: non-integer {what} '{token}'"

    def test_turbofan_integral_floats_accepted(self):
        rows = [line.split() for line in _turbofan_text({1: 3}).splitlines()]
        for row in rows:
            row[0] += ".0"
            row[1] += ".0"
        text = "\n".join(" ".join(row) for row in rows) + "\n"
        train, _ = parse_turbofan(text, _turbofan_text({1: 2}), "5\n")
        assert [uid for uid, _ in train.instances] == ["1"]
        assert train.instances[0][1].shape == (3, 24)


def _outcome(parse, text):
    """What a parser makes of text: ids, shapes and bytes, or the error."""
    try:
        ds = parse(text, "f")
    except ValueError as exc:
        return ("error", str(exc))
    return (
        "ok",
        ds.sensor_names,
        [(uid, s.shape, s.dtype, s.tobytes()) for uid, s in ds.instances],
    )


def _row_loop_outcome(parse, text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_fast_units", lambda *args: None)
        return _outcome(parse, text)


_VALUES = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.floats(-100, 100, allow_nan=False).map(lambda v: f"{v:.5f}"),
    st.integers(-5, 5).map(str),
    st.sampled_from(["1e-3", "+2", ".5", "-0", "1E2", "0001.50"]),
)
# each edit turns a well-formed file into one of the cases the fast path must
# either reproduce exactly or hand to the row loop
_EDITS = st.sampled_from(
    [
        "drop_field", "extra_field", "word", "underscore", "blank", "spaces",
        "hash", "swap", "duplicate", "cycle_float", "cycle_half", "nan", "inf",
        "pad", "no_separator", "tab", "nul", "unit_float", "unit_half",
    ]
)


def _edit(rows, edit, k):
    """Apply one edit at row k (rows are lists of tokens or a raw string)."""
    row = rows[k]
    if isinstance(row, str):
        return
    if edit == "drop_field":
        row.pop()
    elif edit == "extra_field":
        row.append("0.5")
    elif edit == "word":
        row[-1] = "abc"
    elif edit == "underscore":
        row[-1] = "1_0"
    elif edit == "blank":
        rows.insert(k, "")
    elif edit == "spaces":
        rows.insert(k, "   \t ")
    elif edit == "hash":
        row[-1] = row[-1] + "#1"
    elif edit == "swap" and k + 1 < len(rows):
        rows[k], rows[k + 1] = rows[k + 1], rows[k]
    elif edit == "duplicate":
        rows.insert(k, list(row))
    elif edit == "cycle_float":
        row[1] = row[1] + ".0"
    elif edit == "cycle_half":
        row[1] = row[1] + ".5"
    elif edit == "nan":
        row[-1] = "nan"
    elif edit == "inf" and len(row) > 2:  # an earlier drop_field may leave 2
        row[2] = "-inf"
    elif edit == "pad":
        row[0] = f" {row[0]} "
    elif edit == "no_separator":
        rows[k] = row[0]
    elif edit == "tab":
        row[-1] = "\t" + row[-1]
    elif edit == "nul":
        row[-1] = row[-1] + "\x00"
    elif edit == "unit_float":
        row[0] = row[0] + ".0"
    elif edit == "unit_half":
        row[0] = row[0] + ".5"


@st.composite
def _fleet_rows(draw, n_values):
    """Rows of 1-3 units, each row n_values drawn readings."""
    units = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    rows = []
    for u, length in enumerate(units, start=1):
        for cycle in range(1, length + 1):
            values = draw(st.lists(_VALUES, min_size=n_values, max_size=n_values))
            rows.append([str(u), str(cycle)] + values)
    return rows


def _render(rows, newline):
    return newline.join(
        row if isinstance(row, str) else ",".join(row) for row in rows
    ) + newline


class TestFastPathMatchesRowLoop:
    @given(
        st.integers(1, 3).flatmap(
            lambda m: st.tuples(
                st.just(m),
                _fleet_rows(m),
                st.lists(st.tuples(_EDITS, st.integers(0, 20)), max_size=3),
                st.sampled_from(["\n", "\r\n"]),
                st.integers(1, 12),
            )
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_generic(self, case):
        m, rows, edits, newline, piece_chars = case
        for edit, k in edits:
            _edit(rows, edit, k % len(rows))
        header = "instance_id,cycle," + ",".join(f"s{j}" for j in range(m))
        text = header + newline + _render(rows, newline)
        expected = _row_loop_outcome(parse_generic, text)
        assert _outcome(parse_generic, text) == expected
        # pieces of a few characters: cuts land mid-file, next to "\r\n"
        # and around blank lines
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_PIECE_CHARS", piece_chars)
            assert _outcome(parse_generic, text) == expected

    def test_fast_path_takes_well_formed_files(self):
        # the differential test above would pass with the fast path always
        # declining; clean files must not fall back to the row loop
        ds = generate_synthetic(SyntheticSpec(n_instances=4, n_sensors=3, seed=2))
        text = write_generic(ds)
        start = text.index("\n") + 1
        instances = data._fast_units(text, start, 5, "f")
        assert [(uid, series.shape) for uid, series in instances] == [
            (uid, series.shape) for uid, series in ds.instances
        ]

    @pytest.mark.parametrize(
        "text, piece_chars",
        [
            ("instance_id,cycle,s1,s2\n\nb,1,0.5,1\n  \t\nb,2,0.25,2\n\n", 1 << 20),
            ("instance_id,cycle,s1,s2\n  b ,1,0.5,1\nb,2,0.25,2\n\ta,1,3,4\n", 1 << 20),
            ("instance_id,cycle,s1,s2\r\nb,1,0.5,1\r\nb,2,0.25,2\r\na,1,7,8\r\n", 1 << 20),
            ("instance_id,cycle,s1\nb,1,1\na,1,2\nb,2,3\nc,1,4\na,2,5\nb,3,6\n", 1 << 20),
            ("instance_id,cycle,s1,s2\nb,1,0.5,1", 1 << 20),
            # about a line per piece: the units interleave across pieces
            ("instance_id,cycle,s1\nb,1,1\na,1,2\nb,2,3\nc,1,4\na,2,5\nb,3,6\n", 7),
        ],
        ids=[
            "blank_lines", "padded_ids", "crlf", "interleaved_units", "one_row",
            "interleaved_across_pieces",
        ],
    )
    def test_fast_path_decides_like_the_row_loop(self, text, piece_chars, monkeypatch):
        decisions = []
        real = data._fast_units

        def spy(*args):
            units = real(*args)
            decisions.append("loop" if units is None else "fast")
            return units

        monkeypatch.setattr(data, "_PIECE_CHARS", piece_chars)
        expected = _row_loop_outcome(parse_generic, text)
        assert expected[0] == "ok"
        monkeypatch.setattr(data, "_fast_units", spy)
        assert _outcome(parse_generic, text) == expected
        # not handed to the loop
        assert decisions == ["fast"]

    @pytest.mark.parametrize("fast", [True, False])
    def test_first_failing_unit_named(self, fast):
        # b appears first; both b and a skip a cycle
        text = "instance_id,cycle,s1\nb,1,0.1\na,1,0.3\na,3,0.3\nb,3,0.2\n"
        outcome = (_outcome if fast else _row_loop_outcome)(parse_generic, text)
        assert outcome == ("error", "f: unit b cycles are not contiguous 1..L")

    def test_out_of_order_rows_grouped_like_the_loop(self):
        text = "instance_id,cycle,s1\nb,2,0.2\na,1,0.3\nb,1,0.1\n"
        ds = parse_generic(text)
        assert [uid for uid, _ in ds.instances] == ["b", "a"]
        np.testing.assert_array_equal(ds.instances[0][1], [[0.1], [0.2]])

    def test_multi_piece_arrays_match_the_sorted_copy(self, monkeypatch):
        ds = generate_synthetic(SyntheticSpec(n_instances=6, n_sensors=4, seed=5))
        text = write_generic(ds)
        header, *rows = text.splitlines()
        # each unit's rows backwards: the row loop sorts them into a copy
        units = itertools.groupby(rows, key=lambda row: row.split(",")[0])
        backwards = [row for _, unit in units for row in reversed(list(unit))]
        monkeypatch.setattr(data, "_fast_units", lambda *args: None)
        sorted_copy = parse_generic("\n".join([header] + backwards) + "\n")
        monkeypatch.undo()
        monkeypatch.setattr(data, "_PIECE_CHARS", 1000)
        assert len(list(data._pieces(text, 0))) > 10
        parsed = parse_generic(text)

        def layout(series):
            return series.flags.c_contiguous, series.strides, series.tobytes()

        assert [(uid, layout(s)) for uid, s in parsed.instances] == [
            (uid, layout(s)) for uid, s in sorted_copy.instances
        ]
        # one block of one array per unit, in unit order
        starts = [s.__array_interface__["data"][0] for _, s in parsed.instances]
        ends = [start + s.nbytes for start, (_, s) in zip(starts, parsed.instances)]
        assert starts[1:] == ends[:-1]

    def test_parse_peak_memory_below_twice_the_values(self):
        # ~5 MB at the C-MAPSS files' precision: no list of every line and
        # no sorted copy of the readings is held while parsing
        text = _c_mapss_like_text()
        tracemalloc.start()
        try:
            parsed = parse_generic(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        values = sum(series.nbytes for _, series in parsed.instances)
        assert peak < 2 * values


def _c_mapss_like_text():
    """~5 MB of 110 units of 21 sensors at the C-MAPSS files' precision."""
    ds = generate_synthetic(
        SyntheticSpec(n_instances=110, n_sensors=21, min_len=200, max_len=300)
    )
    row_format = ",".join(["%.5f"] * ds.n_sensors)
    lines = ["instance_id,cycle," + ",".join(ds.sensor_names)]
    for uid, series in ds.instances:
        for t, row in enumerate(series.tolist(), start=1):
            lines.append(f"{uid},{t}," + row_format % tuple(row))
    text = "\n".join(lines) + "\n"
    assert len(text) > 4_500_000
    return text


class TestPieces:
    @given(
        st.text(st.sampled_from("ab,\r\n\x0b\x1c\u2028 "), max_size=60),
        st.integers(1, 8),
    )
    def test_lines_join_to_splitlines(self, text, piece_chars):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_PIECE_CHARS", piece_chars)
            for start in {0, len(text.splitlines(keepends=True)[0]) if text else 0}:
                pieces = list(data._pieces(text, start))
                assert [line for piece in pieces for line in piece] == (
                    text[start:].splitlines()
                )

    @pytest.mark.parametrize(
        "piece_chars, pieces",
        [
            (1, [["a,1"], ["bb,2"], [""], ["c,3"], ["d"]]),
            (4, [["a,1"], ["bb,2"], ["", "c,3"], ["d"]]),
            (1 << 20, [["a,1", "bb,2", "", "c,3", "d"]]),
        ],
    )
    def test_pieces_end_after_a_newline(self, piece_chars, pieces, monkeypatch):
        monkeypatch.setattr(data, "_PIECE_CHARS", piece_chars)
        text = "a,1\r\nbb,2\r\n\r\nc,3\nd"
        assert list(data._pieces(text, 0)) == pieces


class TestGroupTable:
    def test_ordered_rows_split_in_place(self):
        values = np.arange(10.0).reshape(5, 2)
        codes, cycles = np.array([0, 0, 0, 1, 1]), np.array([1.0, 2, 3, 1, 2])
        groups = data._group_table(["a", "b"], codes, cycles, values, "f")
        assert [uid for uid, _ in groups] == ["a", "b"]
        assert all(np.shares_memory(block, values) for _, block in groups)
        np.testing.assert_array_equal(groups[1][1], values[3:])

    def test_unordered_rows_sorted_into_a_copy(self):
        values = np.arange(10.0).reshape(5, 2)
        codes, cycles = np.array([0, 1, 0, 0, 1]), np.array([1.0, 1, 3, 2, 2])
        groups = data._group_table(["a", "b"], codes, cycles, values, "f")
        assert not any(np.shares_memory(block, values) for _, block in groups)
        np.testing.assert_array_equal(groups[0][1], values[[0, 3, 2]])
        np.testing.assert_array_equal(groups[1][1], values[[1, 4]])

    def test_ordered_codes_with_a_gap_rejected(self):
        codes, cycles = np.array([0, 0, 1]), np.array([1.0, 3, 1])
        with pytest.raises(ValueError, match="unit a cycles are not contiguous"):
            data._group_table(["a", "b"], codes, cycles, np.zeros((3, 1)), "f")

    @given(st.integers(1, 40), st.integers(0, 3), st.integers(1, 4), st.integers(1, 9))
    def test_drop_leading_columns(self, n, k, m, block):
        table = np.arange(n * (k + m), dtype=np.float64).reshape(n, k + m)
        want = table[:, k:].copy()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_COMPACT_ROWS", block)
            got = data._drop_leading_columns(table, k)
        assert got.flags.c_contiguous and np.shares_memory(got, table)
        assert got.tobytes() == want.tobytes()


class TestGenerateSynthetic:
    def test_deterministic_in_seed(self):
        spec = SyntheticSpec(n_instances=4, seed=11)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        for (ua, sa), (ub, sb) in zip(a.instances, b.instances):
            assert ua == ub
            np.testing.assert_array_equal(sa, sb)
        c = generate_synthetic(SyntheticSpec(n_instances=4, seed=12))
        assert not np.array_equal(a.instances[0][1], c.instances[0][1])

    def test_lengths_within_bounds(self):
        ds = generate_synthetic(
            SyntheticSpec(n_instances=10, min_len=30, max_len=40, seed=0)
        )
        for _, series in ds.instances:
            assert 30 <= series.shape[0] <= 40

    def test_noiseless_deltas_follow_shape(self):
        for shape in ("linear", "exponential", "piecewise"):
            spec = SyntheticSpec(
                n_instances=3,
                n_sensors=4,
                min_len=50,
                max_len=60,
                noise_std=0.0,
                fault_onset_frac=0.4,
                degradation_shape=shape,
                seed=5,
            )
            ds = generate_synthetic(spec)
            for _, series in ds.instances:
                length = series.shape[0]
                onset = int(np.floor(0.4 * length))
                offsets = series[0]
                # healthy prefix is exactly the baseline
                np.testing.assert_allclose(
                    series[:onset], np.tile(offsets, (onset, 1)), atol=1e-12
                )
                # severity is the full drift reached at end of life
                severities = series[-1] - offsets
                assert np.all(np.abs(severities) >= 1.5 - 1e-9)
                assert np.all(np.abs(severities) <= 3.0 + 1e-9)
                # mid-degradation matches the shape function exactly
                mid = (onset + length - 1) // 2
                progress = (mid - onset) / (length - 1 - onset)
                if shape == "linear":
                    g = progress
                elif shape == "exponential":
                    g = np.expm1(3.0 * progress) / np.expm1(3.0)
                else:
                    g = (
                        0.4 * progress
                        if progress <= 0.5
                        else 0.2 + 1.6 * (progress - 0.5)
                    )
                np.testing.assert_allclose(
                    series[mid] - offsets, severities * g, atol=1e-9
                )

    def test_monotone_drift_for_linear_shape(self):
        spec = SyntheticSpec(
            n_instances=2,
            n_sensors=3,
            noise_std=0.0,
            degradation_shape="linear",
            fault_onset_frac=0.5,
            seed=3,
        )
        ds = generate_synthetic(spec)
        for _, series in ds.instances:
            length = series.shape[0]
            head = series[: length // 10].mean(axis=0)
            tail = series[-length // 10 :].mean(axis=0)
            assert np.all(np.abs(tail - head) >= 0.5)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_instances=0)
        with pytest.raises(ValueError):
            SyntheticSpec(min_len=50, max_len=40)
        with pytest.raises(ValueError):
            SyntheticSpec(degradation_shape="spiral")
        with pytest.raises(ValueError):
            SyntheticSpec(fault_onset_frac=1.0)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"noise_std": math.nan}, "noise_std must be finite and >= 0, got nan"),
            ({"noise_std": math.inf}, "noise_std must be finite and >= 0, got inf"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
        ],
    )
    def test_non_finite_noise_and_negative_seed_named(self, setting, message):
        with pytest.raises(ValueError) as err:
            SyntheticSpec(**setting)
        assert str(err.value) == message


class TestTruncation:
    def test_truncate_instance_midlife(self):
        series = np.arange(200.0).reshape(100, 2)
        prefix, rul = truncate_instance(series, 0.5)
        assert prefix.shape == (50, 2)
        assert rul == 50.0
        np.testing.assert_array_equal(prefix, series[:50])

    def test_truncate_instance_clamps(self):
        series = np.zeros((10, 1))
        prefix, rul = truncate_instance(series, 0.0)
        assert prefix.shape[0] == 1 and rul == 9.0
        prefix, rul = truncate_instance(series, 1.0)
        assert prefix.shape[0] == 9 and rul == 1.0

    def test_one_cycle_series_refused(self):
        with pytest.raises(ValueError, match="^need at least 2 cycles to truncate$"):
            truncate_instance(np.zeros((1, 3)), 0.5)

    def test_truncate_random_within_bounds(self):
        ds = generate_synthetic(SyntheticSpec(n_instances=6, seed=0))
        cut = truncate_random(ds, 0.4, 0.9, seed=7)
        assert len(cut.rul_labels) == 6
        for (uid, prefix), (ouid, orig), rul in zip(
            cut.instances, ds.instances, cut.rul_labels
        ):
            assert uid == ouid
            frac = prefix.shape[0] / orig.shape[0]
            assert 0.35 <= frac <= 0.95
            assert prefix.shape[0] + rul == orig.shape[0]
        again = truncate_random(ds, 0.4, 0.9, seed=7)
        for (_, a), (_, b) in zip(cut.instances, again.instances):
            np.testing.assert_array_equal(a, b)

    def test_truncate_at_fracs_enumerates_cases(self):
        ds = generate_synthetic(SyntheticSpec(n_instances=2, seed=0))
        fracs = [0.2, 0.5, 0.96]
        cut = truncate_at_fracs(ds, fracs)
        assert len(cut.instances) == 6
        assert [uid for uid, _ in cut.instances[:3]] == ["s1@0", "s1@1", "s1@2"]
        lens = [p.shape[0] for _, p in cut.instances[:3]]
        assert lens[0] < lens[1] < lens[2]

    def test_bad_bounds_rejected(self):
        ds = generate_synthetic(SyntheticSpec(n_instances=2, seed=0))
        with pytest.raises(ValueError):
            truncate_random(ds, 0.9, 0.4, seed=0)

    def test_held_out_split_cuts_the_second_half_of_one_draw(self):
        spec = SyntheticSpec(n_instances=5, n_sensors=3, seed=4)
        lives, held = held_out_split(spec, 0.4, 0.9, seed=11)
        # units 1..n are the n-unit fleet itself
        fleet = generate_synthetic(spec)
        assert write_generic(lives) == write_generic(fleet)
        # units n+1..2n come from the same 2n-unit draw, cut as
        # truncate_random cuts them
        both = generate_synthetic(SyntheticSpec(n_instances=10, n_sensors=3, seed=4))
        rest = RunToFailureDataset(both.instances[5:], sensor_names=both.sensor_names)
        want = truncate_random(rest, 0.4, 0.9, seed=11)
        assert [uid for uid, _ in held.instances] == [f"s{k}" for k in range(6, 11)]
        assert write_generic(held) == write_generic(want)
        assert held.rul_labels == want.rul_labels
        with pytest.raises(ValueError, match="need 0 < lo <= hi < 1"):
            held_out_split(spec, 0.9, 0.4, seed=11)

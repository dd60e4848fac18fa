import math
import mmap
import os
import warnings

import numpy as np
import pytest

from hiercert import io, rng, split
from hiercert.core import LabelPartition
from hiercert.errors import ConfigError, ValidationError
from hiercert.hierarchy import Hierarchy, Intermediate, Leaf, build_renormalize_hierarchy, infer_batch
from hiercert.models import LinearSoftmax, MaskedModel, SmallMlp

from helpers import (
    assert_no_child_left,
    failing_send,
    forks,  # noqa: F401 (a fixture)
    killed_after,
    read_wide_csv_oracle,
)


EDGE_CASES = {
    "quoted-comma": 'sample_id,label,l0,l1\n"a,b",0,1.5,2\nc,1,3,4\n',
    "blank-lines": 'sample_id,label,l0,l1\n\na,0,1.5,2\n\r\nc,1,3,4\n\n',
    "no-final-newline": '\nsample_id,label,l0,l1\na,0,1.5,2\nc,1,3,4',
    "header-only": 'sample_id,label,l0,l1\n',
    "no-values": 'sample_id,label\na,1\nb,2\n',
    "all-quoted": '"sample_id","label","l0"\n"a#1","-3","2.5"\n',
}

MALFORMED = {
    "empty": ("", ValidationError),
    "blank": ("\n\n", ValidationError),
    "all-rows-short": ("sample_id,label,l0,l1\na,0,1.5\nc,1,3\n", ValidationError),
    "one-row-short": ("sample_id,label,l0,l1\na,0,1.5,2\nc,1,3\n", ValidationError),
    "row-long": ("sample_id,label,l0,l1\na,0,1.5,2,7\n", ValidationError),
    "quoted-row-short": ('sample_id,label,l0\n"a,b",0\n', ValidationError),
    "id-only": ("sample_id,label,l0\na\n", ValidationError),
    "whitespace-row": ("sample_id,label,l0,l1\na,0,1,2\n   \n", ValidationError),
    "bad-header": ("sample_id,label,l1\na,0,1\n", ValidationError),
    "non-integer-label": ("sample_id,label,l0\na,0.5,1\n", ValidationError),
    "non-numeric-value": ("sample_id,label,l0\na,0,x\n", ValidationError),
    "empty-value": ("sample_id,label,l0\na,0,\n", ValidationError),
    "label-overflows-int64": ("sample_id,label,l0\na,9223372036854775808,1\n", ValidationError),
    "underscore-label": ("sample_id,label,l0\na,1_5,1\n", ValidationError),
}


# A cell numpy cannot convert and a row of the wrong width, each also after
# blank lines: (file text, the message after "<path>: ").
ROW_ERRORS = {
    "bad-label": ("sample_id,label,l0,l1\na,0,1,2\nb,0.5,1,2\n",
                  "data row 2, column 2: could not convert string '0.5' to int64"),
    "bad-value-after-blank-lines": ("sample_id,label,l0,l1\na,0,1,2\n\n\r\nb,0,1,x\nc,0,1,2\n",
                                    "data row 2, column 4: could not convert string 'x' to "
                                    "float64"),
    "short-row": ("sample_id,label,l0,l1\na,0,1,2\nb,0,1\n",
                  "data row 2: expected 4 fields, found 3"),
    "long-row-after-blank-lines": ("sample_id,label,l0,l1\n\na,0,1,2\n\n\nb,0,1,2,3\nc,0,1,2\n",
                                   "data row 2: expected 4 fields, found 5"),
}


def random_floats(seed, n):
    u = rng.uniforms(seed, 900, 0, n)
    scale = np.exp((u - 0.5) * 600.0)  # spans tiny to huge magnitudes
    return (u - 0.5) * scale


class TestFloatFormat:
    def test_seventeen_digit_round_trip(self):
        for x in random_floats(1, 2000):
            assert float(io.format_float(float(x))) == float(x)

    def test_special_values(self):
        assert io.format_float(math.inf) == "inf"
        assert io.format_float(-math.inf) == "-inf"
        assert io.format_float(math.nan) == "nan"


def wide_lines(n, width=3, ids=None, seed=11):
    """Header and n unquoted rows of a logits file, without line endings."""
    ids = ids or [f"s{i}" for i in range(n)]
    values = random_floats(seed, n * width).reshape(n, width)
    lines = ["sample_id,label," + ",".join(f"l{j}" for j in range(width))]
    lines += [",".join([ids[i], str(i % 7 - 3)] + [io.format_float(v) for v in values[i]])
              for i in range(n)]
    return lines


def read_error(path):
    with pytest.raises((ValidationError, ValueError)) as info:
        io.read_logits(path)
    return info.type, str(info.value)


NON_ASCII_IDS = ["é", "日本語", "naïve", "Ωmega", "ß", "😀", "plain", "ü", "中"]

LAYOUTS = {
    "non-ascii-ids": "\n".join(wide_lines(9, ids=NON_ASCII_IDS)) + "\n",
    "crlf": "\r\n".join(wide_lines(8)) + "\r\n",
    "cr": "\r".join(wide_lines(8)) + "\r",
    "non-ascii-crlf": "\r\n".join(wide_lines(9, ids=NON_ASCII_IDS)),
    # blank lines before the header, just before the cut (ahead of row 4), after
    # row 4 and at the end
    "blank-lines-around-split": "\n".join(
        ["", ""] + wide_lines(8)[:5] + ["", "\r"] + wide_lines(8)[5:6] + ["", ""]
        + wide_lines(8)[6:] + ["", ""]),
    "n2": "\n".join(wide_lines(2)) + "\n",
    "n3": "\n".join(wide_lines(3)),
    "n7-wide": "\n".join(wide_lines(7, width=40)) + "\n",
}


def assert_matches_oracle(path):
    """The ids read from path, after checking every field against the
    per-cell oracle bit for bit."""
    got_ids, got_labels, got = io.read_logits(path)
    want_ids, want_labels, want = read_wide_csv_oracle(path, "l")
    assert got_ids == want_ids
    assert got_labels.dtype == np.int64 and np.array_equal(got_labels, want_labels)
    assert got.dtype == np.float64 and got.flags.c_contiguous and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    return got_ids


class TestWideCsv:
    def test_features_round_trip(self, tmp_path):
        ids = [f"s{i}" for i in range(20)]
        labels = rng.integers(2, 901, 0, 20, 5)
        values = random_floats(3, 60).reshape(20, 3)
        path = tmp_path / "f.csv"
        io.write_features(path, ids, labels, values)
        ids2, labels2, values2 = io.read_features(path)
        assert ids2 == ids
        assert np.array_equal(labels2, labels)
        assert np.array_equal(values2, values)

    def test_logits_and_probs_round_trip(self, tmp_path):
        ids = ["a", "b"]
        labels = np.array([0, 1])
        logits = np.array([[0.25, -1.5], [3.25, 0.125]])
        io.write_logits(tmp_path / "l.csv", ids, labels, logits)
        _, _, got = io.read_logits(tmp_path / "l.csv")
        assert np.array_equal(got, logits)
        probs = np.array([[0.25, 0.75], [0.5, 0.5]])
        io.write_probs(tmp_path / "p.csv", ids, labels, probs)
        _, _, got = io.read_probs(tmp_path / "p.csv")
        assert np.array_equal(got, probs)

    def test_header_mismatch_rejected(self, tmp_path):
        (tmp_path / "bad.csv").write_text("sample_id,label,x0\na,0,1\n")
        with pytest.raises(ValidationError):
            io.read_features(tmp_path / "bad.csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            io.read_features(tmp_path / "none.csv")

    def test_matches_per_cell_oracle_bit_for_bit(self, tmp_path):
        # Random bit patterns cover every exponent, NaN payloads and both
        # infinities; subnormals, signed zeros and the extremes are planted.
        values = rng.raw64(5, 904, 0, 10_000).view(np.float64).copy()
        planted = [5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -0.0, 0.0,
                   math.inf, -math.inf, math.nan, 1.7976931348623157e308, -1.0 / 3.0]
        values[::997][:len(planted)] = planted
        values = values.reshape(100, 100)
        ids = [f"s{i}" for i in range(100)]
        ids[3], ids[4], ids[5], ids[6] = "a,b", 'say "hi"', "two\nlines", ""
        labels = rng.integers(6, 905, 0, 100, 1000) - 500
        path = tmp_path / "l.csv"
        io.write_logits(path, ids, labels, values)
        assert assert_matches_oracle(path) == ids
        _, _, got = io.read_logits(path)
        finite = np.isfinite(values)
        assert np.array_equal(got[finite].view(np.uint64), values[finite].view(np.uint64))

    @pytest.mark.parametrize("text", list(EDGE_CASES.values()), ids=list(EDGE_CASES))
    def test_edge_cases_match_oracle(self, tmp_path, text):
        path = tmp_path / "l.csv"
        path.write_bytes(text.encode())
        assert_matches_oracle(path)

    @pytest.mark.parametrize("text", list(LAYOUTS.values()), ids=list(LAYOUTS))
    def test_layouts_match_oracle_bit_for_bit(self, tmp_path, text):
        path = tmp_path / "l.csv"
        path.write_bytes(text.encode())
        assert_matches_oracle(path)

    @pytest.mark.parametrize("text, error", list(MALFORMED.values()), ids=list(MALFORMED))
    def test_malformed_files_rejected(self, tmp_path, text, error):
        path = tmp_path / "l.csv"
        path.write_bytes(text.encode())
        with pytest.raises(error):
            io.read_logits(path)

    @pytest.mark.parametrize("text, message", list(ROW_ERRORS.values()), ids=list(ROW_ERRORS))
    def test_row_errors_name_the_data_row(self, tmp_path, text, message):
        path = tmp_path / "l.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValidationError) as exc:
            io.read_logits(path)
        assert str(exc.value) == f"{path}: {message}"


@pytest.fixture
def parses(monkeypatch):
    """Rows of each record pass this process makes (None: it raised), so a
    split that quietly fell back to the one-process read shows."""
    real, calls = io._records, []

    def spy(fh, path, width):
        calls.append(None)
        parts = real(fh, path, width)
        calls[-1] = len(parts[0])
        return parts

    monkeypatch.setattr(io, "_records", spy)
    return calls


class TestWideCsvSplit(TestWideCsv):
    """Every TestWideCsv case again with the size threshold at 0, so that each
    file with two or more rows, one value column and no quote is read by two
    processes; then the cases that the cut and the one-process fallback must
    get right."""

    @pytest.fixture(autouse=True)
    def split_every_file(self, monkeypatch, forks, parses):
        monkeypatch.setattr(io, "SPLIT_MIN_BYTES", 0)
        monkeypatch.setattr(split, "_usable_cpus", lambda: 2)

    @pytest.mark.parametrize("text, n_forks", [
        (EDGE_CASES["quoted-comma"], 0), (EDGE_CASES["blank-lines"], 1),
        (EDGE_CASES["no-final-newline"], 1), (EDGE_CASES["header-only"], 0),
        (EDGE_CASES["no-values"], 0), (EDGE_CASES["all-quoted"], 0),
        ("sample_id,label,l0\na,0,1.5\n", 0)],
        ids=list(EDGE_CASES) + ["one-row"])
    def test_only_unquoted_multi_row_files_split(self, tmp_path, forks, text, n_forks):
        path = tmp_path / "l.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            io.read_logits(path)
        assert len(forks) == n_forks

    @pytest.mark.parametrize("text", list(LAYOUTS.values()), ids=list(LAYOUTS))
    def test_layouts_match_oracle_bit_for_bit(self, tmp_path, forks, parses, text):
        path = tmp_path / "l.csv"
        path.write_bytes(text.encode())
        n = len(assert_matches_oracle(path))
        assert len(forks) == 1
        assert len(parses) == 1 and 0 < parses[0] < n  # the child's part was used
        assert_no_child_left()

    def test_bit_patterns_match_oracle_across_the_split(self, tmp_path, forks, parses):
        values = rng.raw64(5, 904, 0, 10_000).view(np.float64).reshape(100, 100)
        ids = [NON_ASCII_IDS[i % len(NON_ASCII_IDS)] + str(i) for i in range(100)]
        path = tmp_path / "l.csv"
        io.write_logits(path, ids, np.arange(100), values)
        assert assert_matches_oracle(path) == ids
        assert len(forks) == 1 and len(parses) == 1 and 0 < parses[0] < 100

    @pytest.mark.parametrize("bad_row", [0, 2, 3, 6])
    def test_bad_value_raises_the_serial_error(self, tmp_path, monkeypatch, forks, parses,
                                               bad_row):
        lines = wide_lines(7)
        lines[1 + bad_row] = lines[1 + bad_row].rsplit(",", 1)[0] + ",1.5x"
        path = tmp_path / "l.csv"
        path.write_text("\n".join(lines) + "\n")
        split_error = read_error(path)
        assert len(forks) == 1
        # rows 0-3 are the child's part and rows 4-6 this process's; either
        # failure sends the whole file to the one-process read, which raises
        assert len(parses) == 2 and parses[1] is None
        assert (parses[0] is None) == (bad_row > 3)
        assert_no_child_left()
        monkeypatch.setattr(io, "SPLIT_MIN_BYTES", path.stat().st_size + 1)
        assert read_error(path) == split_error
        assert len(forks) == 1
        assert split_error[0] is ValidationError and "1.5x" in split_error[1]

    def test_bad_part_here_and_a_full_pipe_raise_without_hanging(self, tmp_path, forks,
                                                                 parses):
        # The child's part, about 2000 rows, holds about 160 kB of values, more
        # than a pipe buffers, so it is still writing when this process's part
        # fails.
        lines = wide_lines(4000, width=10)
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",1.5x"
        path = tmp_path / "l.csv"
        path.write_text("\n".join(lines) + "\n")

        with killed_after(30, forks), pytest.raises(ValidationError, match="1.5x"):
            io.read_logits(path)
        assert len(forks) == 1 and parses == [None, None]
        assert_no_child_left()

    def check_serial_fallback(self, tmp_path, forks, parses, n_forks):
        path = tmp_path / "l.csv"
        path.write_bytes(LAYOUTS["non-ascii-crlf"].encode())
        n = len(assert_matches_oracle(path))
        assert len(forks) == n_forks
        # this process's part if the child was forked, then the whole file
        assert parses[n_forks:] == [n] and all(0 < k < n for k in parses[:n_forks])
        parses.clear()

    @pytest.mark.parametrize("how", ["exit-3", "sigkill", "truncated"])
    def test_failed_child_falls_back_to_serial(self, tmp_path, monkeypatch, forks, parses,
                                               how):
        monkeypatch.setattr(split, "_send", failing_send(how))
        self.check_serial_fallback(tmp_path, forks, parses, 1)

    @pytest.mark.parametrize("broken", ["fork", "mmap", "pipe"])
    def test_fork_or_mmap_oserror_falls_back_to_serial(self, tmp_path, monkeypatch, forks,
                                                       parses, broken):
        def fail(*args, **kwargs):
            raise OSError("unavailable")

        monkeypatch.setattr(mmap if broken == "mmap" else os, broken, fail)
        self.check_serial_fallback(tmp_path, forks, parses, 0)

    def test_one_cpu_or_no_fork_reads_serially(self, tmp_path, monkeypatch, forks, parses):
        monkeypatch.setattr(split, "_usable_cpus", lambda: 1)
        self.check_serial_fallback(tmp_path, forks, parses, 0)
        monkeypatch.setattr(split, "_usable_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        self.check_serial_fallback(tmp_path, forks, parses, 0)


@pytest.mark.skipif(not hasattr(os, "fork") or split._usable_cpus() < 2,
                    reason="the split needs os.fork and two usable CPUs")
def test_file_above_threshold_splits_bit_for_bit(tmp_path, forks):
    n, width = 5000, 40
    values = random_floats(12, n * width).reshape(n, width)
    values[::97, ::7] = [-0.0, 5e-324, math.inf, 1e-310, -math.inf, 0.1]
    path = tmp_path / "l.csv"
    io.write_logits(path, [f"r{i}" for i in range(n)], np.arange(n) % 10, values)
    assert path.stat().st_size >= io.SPLIT_MIN_BYTES
    got_ids, got_labels, got = io.read_logits(path)
    assert len(forks) == 1
    want_ids, want_labels, want = read_wide_csv_oracle(path, "l")
    assert got_ids == want_ids
    assert np.array_equal(got_labels, want_labels)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(got.view(np.uint64), values.view(np.uint64))


class TestConfusion:
    def test_round_trip(self, tmp_path):
        cm = (rng.uniforms(4, 902, 0, 16).reshape(4, 4) * 50).astype(np.int64)
        io.write_confusion(tmp_path / "c.csv", cm)
        assert np.array_equal(io.read_confusion(tmp_path / "c.csv"), cm)

    def test_non_square_rejected(self, tmp_path):
        (tmp_path / "c.csv").write_text("1,2,3\n4,5,6\n")
        with pytest.raises(ValidationError):
            io.read_confusion(tmp_path / "c.csv")

    @pytest.mark.parametrize("shape", [(0, 0), (1, 1), (3, 3), (7, 7), (2, 5)])
    def test_writes_one_line_of_decimal_counts_per_row(self, tmp_path, shape):
        n = shape[0] * shape[1]
        cm = rng.integers(5, 905, 0, n, 1 << 40).reshape(shape) - (1 << 39)
        cm.flat[:2] = [0, np.iinfo(np.int64).max][:n]
        io.write_confusion(tmp_path / "c.csv", cm)
        want = "".join(",".join(str(int(v)) for v in row) + "\n" for row in cm)
        assert (tmp_path / "c.csv").read_bytes() == want.encode()

    def test_quoted_counts_and_blank_lines_parse(self, tmp_path):
        (tmp_path / "c.csv").write_text('"1",2\n\n3,"4"\r\n')
        assert io.read_confusion(tmp_path / "c.csv").tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_file_is_not_square(self, tmp_path, text):
        (tmp_path / "c.csv").write_text(text)
        with pytest.raises(ValidationError, match="confusion matrix must be square"):
            io.read_confusion(tmp_path / "c.csv")

    @pytest.mark.parametrize("text, message", [
        ("1_000,1\n0,1\n", "data row 1, column 1: could not convert string '1_000' to int64"),
        ("1,9223372036854775808\n0,1\n",
         "data row 1, column 2: could not convert string '9223372036854775808' to int64"),
        ("1,2\n\n3,0.5\n", "data row 2, column 2: could not convert string '0.5' to int64"),
        ("1,2\n\n\n3\n", "data row 2: expected 2 fields, found 1"),
    ], ids=["underscore", "int64-overflow", "bad-cell-after-blank-line",
            "short-row-after-blank-lines"])
    def test_bad_rows_name_the_file_and_data_row(self, tmp_path, text, message):
        path = tmp_path / "c.csv"
        path.write_text(text)
        with pytest.raises(ValidationError) as exc:
            io.read_confusion(path)
        assert str(exc.value) == f"{path}: {message}"


class TestCertificates:
    def test_round_trip_with_abstain_and_inf(self, tmp_path):
        rows = [
            {"sample_id": "a", "label": 3, "pred": 3, "radius": 0.75,
             "abstain": False, "p_a_lower": 0.875},
            {"sample_id": "b", "label": 1, "pred": -1, "radius": None,
             "abstain": True, "p_a_lower": 0.5},
            {"sample_id": "c", "label": 2, "pred": 2, "radius": math.inf,
             "abstain": False, "p_a_lower": 1.0},
        ]
        io.write_csv(tmp_path / "cert.csv", io.CERTIFICATE_COLUMNS,
                     [[r[c] for c in io.CERTIFICATE_COLUMNS] for r in rows])
        got = io.read_certificates(tmp_path / "cert.csv")
        assert got == rows

    @pytest.mark.parametrize("body, message", [
        ("a,0\n", "data row 1: expected 6 fields, found 2"),
        ("a,0,0,0.5,false,0.9\n\nb,1,1,0.5,false,0.9,7\n",
         "data row 2: expected 6 fields, found 7"),
        ("a,x,0,0.5,false,0.9\n", "data row 1, column 2: label must be an integer, got 'x'"),
        ("a,0,0,0.5,false,0.9\nb,1,1.5,0.5,false,0.9\n",
         "data row 2, column 3: pred must be an integer, got '1.5'"),
        ("a,0,0,wide,false,0.9\n",
         "data row 1, column 4: radius must be a number or empty, got 'wide'"),
        ("a,0,0,,yes,0.9\n", "data row 1, column 5: abstain must be true or false, got 'yes'"),
        ("a,0,0,0.5,false,\n", "data row 1, column 6: p_a_lower must be a number, got ''"),
    ], ids=["short-row", "long-row-after-blank-line", "label", "pred", "radius", "abstain",
            "p_a_lower"])
    def test_bad_rows_name_the_file_and_data_row(self, tmp_path, body, message):
        path = tmp_path / "cert.csv"
        path.write_text(",".join(io.CERTIFICATE_COLUMNS) + "\n" + body)
        with pytest.raises(ValidationError) as exc:
            io.read_certificates(path)
        assert str(exc.value) == f"{path}: {message}"

    # cell -> the value every numpy-parsed reader gives it, or None where all
    # of them reject it
    INT_CELLS = {"3": 3, "+3": 3, "-0": 0, " 3 ": 3, "\t3": 3, "1_000": None,
                 "\u0663": None, "3.0": None, "1e3": None, "0x10": None, "": None,
                 "9223372036854775807": 2**63 - 1, "9223372036854775808": None}
    FLOAT_CELLS = {"0.5": 0.5, " 0.5 ": 0.5, "1e3": 1000.0, "-3": -3.0, "inf": math.inf,
                   "1_0.5": None, "1_000": None, "\u0663": None, "0x10": None, "": None,
                   "0.5x": None}

    @staticmethod
    def verdict(read, path):
        try:
            return read(path)
        except ValidationError:
            return None

    @pytest.mark.parametrize("cell", sorted(INT_CELLS))
    def test_integer_cells_get_the_confusion_readers_verdict(self, tmp_path, cell):
        conf, cert = tmp_path / "c.csv", tmp_path / "cert.csv"
        conf.write_text(f"{cell},1\n0,1\n", encoding="utf-8")
        cert.write_text(",".join(io.CERTIFICATE_COLUMNS) + f"\na,{cell},{cell},,true,0.5\n",
                        encoding="utf-8")
        by_confusion = self.verdict(lambda p: int(io.read_confusion(p)[0, 0]), conf)
        by_certificates = self.verdict(lambda p: io.read_certificates(p)[0]["label"], cert)
        assert by_confusion == by_certificates == self.INT_CELLS[cell]

    @pytest.mark.parametrize("cell", sorted(FLOAT_CELLS))
    def test_number_cells_get_the_wide_readers_verdict(self, tmp_path, cell):
        wide, cert = tmp_path / "l.csv", tmp_path / "cert.csv"
        wide.write_text(f"sample_id,label,l0\na,0,{cell}\n", encoding="utf-8")
        cert.write_text(",".join(io.CERTIFICATE_COLUMNS) + f"\na,0,0,{cell or 1},false,{cell}\n",
                        encoding="utf-8")
        by_logits = self.verdict(lambda p: float(io.read_logits(p)[2][0, 0]), wide)
        by_certificates = self.verdict(lambda p: io.read_certificates(p)[0]["p_a_lower"], cert)
        assert by_logits == by_certificates == self.FLOAT_CELLS[cell]
        if cell:
            radius = self.verdict(lambda p: io.read_certificates(p)[0]["radius"], cert)
            assert radius == self.FLOAT_CELLS[cell]


class TestPartitionJson:
    def test_round_trip(self, tmp_path):
        part = LabelPartition(((0, 2), (1, 3, 4)))
        io.write_partition(tmp_path / "p.json", part)
        got = io.read_partition(tmp_path / "p.json", n_labels=5)
        assert got.classes == part.classes

    @pytest.mark.parametrize("classes", [[[0.5, 1], [2]], [["a"]], [[True], [0]]])
    def test_non_integer_labels_rejected(self, tmp_path, classes):
        io.write_json(tmp_path / "p.json", classes)
        with pytest.raises(ValidationError, match="partition labels must be integers"):
            io.read_partition(tmp_path / "p.json")


class TestModelJson:
    def test_linear_round_trip(self, tmp_path):
        model = LinearSoftmax.init(3, 4, seed=5)
        io.save_model(tmp_path / "m.json", model)
        got = io.load_model(tmp_path / "m.json")
        assert sorted(io.read_json(tmp_path / "m.json")) == ["W", "b", "type"]
        for a, b in zip(model.params(), got.params()):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_mlp_round_trip(self, tmp_path):
        # a -0.0 bias keeps its sign through the file
        model = SmallMlp.init(3, 4, 6, seed=6)
        model = model.with_params([-p for p in model.params()])
        io.save_model(tmp_path / "m.json", model)
        got = io.load_model(tmp_path / "m.json")
        assert sorted(io.read_json(tmp_path / "m.json")) == ["W1", "W2", "b1", "b2", "type"]
        assert type(got) is SmallMlp
        for a, b in zip(model.params(), got.params()):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            io.model_from_dict({"type": "transformer"})

    # Layer shapes: each W (rows >= 1, cols), its b (rows,), and each W's cols
    # the rows of the W before it. b1 (1,) and a short b2 would broadcast.
    MLP = {"type": "mlp", "W1": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "b1": [0.0] * 3,
           "W2": [[1.0, 0.0, 0.0]] * 4, "b2": [0.0] * 4}
    LINEAR = {"type": "linear", "W": [[1.0, 0.0]] * 4, "b": [0.0] * 4}

    @pytest.mark.parametrize("spec, message", [
        (dict(MLP, b1=[0.5]), r"b1 must have shape \(3,\) to match W1, not \(1,\)"),
        (dict(MLP, b1=[0.5], b2=[0.25]), r"b1 must have shape \(3,\)"),
        (dict(MLP, b2=[0.0, 0.0]), r"b2 must have shape \(4,\) to match W2, not \(2,\)"),
        (dict(MLP, b2=[[0.0]] * 4), r"b2 must have shape \(4,\) to match W2, not \(4, 1\)"),
        (dict(MLP, W1=[1.0, 0.0]), r"W1 must be a matrix .* not of shape \(2,\)"),
        (dict(MLP, W2=[[1.0, 0.0]] * 4), r"W2 must be a matrix .* and 3 columns, not of shape"),
        (dict(LINEAR, b=[0.0, 0.0]), r"b must have shape \(4,\) to match W, not \(2,\)"),
        (dict(LINEAR, b=[0.5]), r"b must have shape \(4,\)"),
        (dict(LINEAR, W=[1.0, 0.0]), r"W must be a matrix .* not of shape \(2,\)"),
    ])
    def test_malformed_layer_shapes_rejected(self, spec, message):
        with pytest.raises(ValidationError, match="^node: " + message):
            io.model_from_dict(spec, where="node")


class TestHierarchyJson:
    def test_round_trip_inference_identical(self, tmp_path):
        X = rng.normals(7, 903, 0, 60).reshape(30, 2)
        base = LinearSoftmax.init(4, 2, seed=8)
        root = LinearSoftmax.init(2, 2, seed=9)
        part = LabelPartition(((0, 1), (2, 3)))
        # the masked base model at both leaves, then acceptance 9's leaves:
        # models of each leaf's own two labels
        local = Hierarchy(root=Intermediate(root, (Leaf((0, 1), LinearSoftmax.init(2, 2, 10)),
                                                   Leaf((2, 3), LinearSoftmax.init(2, 2, 11)))),
                          n_labels=4)
        for h in (build_renormalize_hierarchy(part, root, base), local):
            io.save_hierarchy(tmp_path / "h.json", h)
            got = io.load_hierarchy(tmp_path / "h.json")
            assert got.n_labels == 4
            assert np.array_equal(infer_batch(got, X), infer_batch(h, X))
            assert got.partition().classes == part.classes

    def test_renormalize_leaf_needs_a_model_of_every_label(self):
        spec = {"n_labels": 4, "root": {
            "kind": "intermediate", "classifier": io.model_to_dict(LinearSoftmax.init(2, 2, 12)),
            "children": [{"kind": "leaf", "labels": [0, 1],
                          "classifier": io.model_to_dict(LinearSoftmax.init(4, 2, 13))},
                         {"kind": "leaf", "labels": [2, 3],
                          "classifier": io.model_to_dict(LinearSoftmax.init(2, 2, 14))}]}}
        with pytest.raises(ConfigError) as exc:
            io.hierarchy_from_dict(spec)
        assert exc.value.field == "root.children.1.classifier"
        assert "'strategy': 'retrain'" in exc.value.hint
        spec["root"]["children"][1]["strategy"] = "retrain"
        leaf = io.hierarchy_from_dict(spec).leaves()[1]
        assert isinstance(leaf.classifier, LinearSoftmax)

    def test_model_by_path_reference(self, tmp_path):
        base = LinearSoftmax.init(3, 2, seed=10)
        io.save_model(tmp_path / "base.json", base)
        spec = {
            "n_labels": 3,
            "root": {
                "kind": "intermediate",
                "classifier": {"type": "linear",
                               "W": [[0.0, 0.0], [1.0, 0.0]], "b": [0.0, 0.0]},
                "children": [
                    {"kind": "leaf", "labels": [0, 1], "strategy": "renormalize",
                     "classifier": {"type": "linear", "path": "base.json"}},
                    {"kind": "leaf", "labels": [2], "strategy": "renormalize",
                     "classifier": None},
                ],
            },
        }
        io.write_json(tmp_path / "h.json", spec)
        h = io.load_hierarchy(tmp_path / "h.json")
        assert h.n_labels == 3

    def test_singleton_leaf_classifier_ignored(self, tmp_path):
        # the classifier of a one-label leaf is never parsed, whatever its arity
        spec = {"n_labels": 2, "root": {
            "kind": "intermediate",
            "classifier": {"type": "linear", "W": [[0.0], [1.0]], "b": [0.0, 0.0]},
            "children": [{"kind": "leaf", "labels": [0],
                          "classifier": {"type": "linear", "W": [[1.0]], "b": [0.0, 0.0]}},
                         {"kind": "leaf", "labels": [1], "classifier": None}]}}
        h = io.hierarchy_from_dict(spec)
        assert [leaf.classifier for leaf in h.leaves()] == [None, None]

    def test_mask_of_a_mask_saves_and_reloads(self, tmp_path):
        base = LinearSoftmax(W=np.eye(4), b=np.zeros(4))
        leaf = MaskedModel(MaskedModel(base, (2, 3, 0, 1)), (0, 1))  # base labels 2, 3
        router = LinearSoftmax(W=np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]),
                               b=np.zeros(2))
        h = Hierarchy(root=Intermediate(router, (Leaf((0, 1), MaskedModel(base, (0, 1))),
                                                 Leaf((2, 3), leaf))), n_labels=4)
        X = np.eye(4)
        assert infer_batch(h, X).tolist() == [0, 1, 2, 3]
        io.save_hierarchy(tmp_path / "h.json", h)
        got = io.load_hierarchy(tmp_path / "h.json")
        assert infer_batch(got, X).tolist() == [0, 1, 2, 3]
        reloaded = got.leaves()[1].classifier
        assert reloaded.subset == (2, 3) and np.array_equal(reloaded.base.W, base.W)

    def test_multi_label_leaf_without_classifier_rejected(self, tmp_path):
        spec = {"n_labels": 2,
                "root": {"kind": "leaf", "labels": [0, 1],
                         "strategy": "renormalize", "classifier": None}}
        io.write_json(tmp_path / "h.json", spec)
        with pytest.raises(ValidationError):
            io.load_hierarchy(tmp_path / "h.json")

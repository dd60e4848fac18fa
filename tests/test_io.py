import math
import mmap
import os
import signal
import warnings

import numpy as np
import pytest

from hiercert import io, rng
from hiercert.core import LabelPartition
from hiercert.errors import ConfigError, ValidationError
from hiercert.hierarchy import Hierarchy, Intermediate, Leaf, build_renormalize_hierarchy, infer_batch
from hiercert.models import LinearSoftmax, SmallMlp

from helpers import read_wide_csv_oracle


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
        got_ids, got_labels, got = io.read_logits(path)
        want_ids, want_labels, want = read_wide_csv_oracle(path, "l")
        assert got_ids == want_ids == ids
        assert np.array_equal(got_labels, want_labels)
        assert got.dtype == np.float64 and got.shape == (100, 100)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        finite = np.isfinite(values)
        assert np.array_equal(got[finite].view(np.uint64), values[finite].view(np.uint64))

    @pytest.mark.parametrize("text", list(EDGE_CASES.values()), ids=list(EDGE_CASES))
    def test_edge_cases_match_oracle(self, tmp_path, text):
        path = tmp_path / "l.csv"
        path.write_bytes(text.encode())
        got_ids, got_labels, got = io.read_logits(path)
        want_ids, want_labels, want = read_wide_csv_oracle(path, "l")
        assert got_ids == want_ids
        assert np.array_equal(got_labels, want_labels)
        assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("text, error", list(MALFORMED.values()), ids=list(MALFORMED))
    def test_malformed_files_rejected(self, tmp_path, text, error):
        path = tmp_path / "l.csv"
        path.write_bytes(text.encode())
        with pytest.raises(error):
            io.read_logits(path)


@pytest.fixture
def forks(monkeypatch):
    """Pids of the forks made during a test; afterwards no child may be left."""
    real, pids = os.fork, []

    def counting_fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    yield pids
    assert_no_child_left()


@pytest.fixture
def parses(monkeypatch):
    """max_rows of each value-column parse this process makes (None: to the
    end), so a split that quietly fell back to the serial read shows."""
    real, calls = io._loadtxt, []

    def spy(fh, skiprows, width, max_rows=None):
        calls.append(max_rows)
        return real(fh, skiprows, width, max_rows)

    monkeypatch.setattr(io, "_loadtxt", spy)
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    # blank lines before the header, on both sides of row n//2 = 4, at the end
    "blank-lines-around-split": "\n".join(
        ["", ""] + wide_lines(8)[:5] + ["", "\r"] + wide_lines(8)[5:6] + ["", ""]
        + wide_lines(8)[6:] + ["", ""]),
    "n2": "\n".join(wide_lines(2)) + "\n",
    "n3": "\n".join(wide_lines(3)),
    "n7-wide": "\n".join(wide_lines(7, width=40)) + "\n",
}


class TestWideCsvSplit(TestWideCsv):
    """Every TestWideCsv case again with the size threshold at 0, so that each
    file of two or more rows, one value column and no quote is parsed by two
    processes; then the cases that the byte offset and the serial fallback
    must get right."""

    @pytest.fixture(autouse=True)
    def split_every_file(self, monkeypatch, forks, parses):
        monkeypatch.setattr(io, "SPLIT_MIN_BYTES", 0)
        monkeypatch.setattr(io, "_usable_cpus", lambda: 2)

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
        got_ids, got_labels, got = io.read_logits(path)
        assert len(forks) == 1
        assert parses == [len(got_ids) // 2]  # the child's half was used
        assert_no_child_left()
        want_ids, want_labels, want = read_wide_csv_oracle(path, "l")
        assert got_ids == want_ids
        assert np.array_equal(got_labels, want_labels)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_bit_patterns_match_oracle_across_the_split(self, tmp_path, forks, parses):
        values = rng.raw64(5, 904, 0, 10_000).view(np.float64).reshape(100, 100)
        ids = [NON_ASCII_IDS[i % len(NON_ASCII_IDS)] + str(i) for i in range(100)]
        path = tmp_path / "l.csv"
        io.write_logits(path, ids, np.arange(100), values)
        got_ids, _, got = io.read_logits(path)
        assert len(forks) == 1 and parses == [50]
        want_ids, _, want = read_wide_csv_oracle(path, "l")
        assert got_ids == want_ids == ids
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("bad_row", [0, 2, 3, 6])
    def test_bad_value_raises_the_serial_error(self, tmp_path, monkeypatch, forks, parses,
                                               bad_row):
        lines = wide_lines(7)
        lines[1 + bad_row] = lines[1 + bad_row].rsplit(",", 1)[0] + ",1.5x"
        path = tmp_path / "l.csv"
        path.write_text("\n".join(lines) + "\n")
        split_error = read_error(path)
        assert len(forks) == 1
        # rows 0-2 are this process's half, whose error stands; the child's
        # failure sends rows 3-6 to the serial read
        assert parses == ([3] if bad_row < 3 else [3, None])
        assert_no_child_left()
        monkeypatch.setattr(io, "SPLIT_MIN_BYTES", path.stat().st_size + 1)
        assert read_error(path) == split_error
        assert len(forks) == 1
        assert split_error[0] is ValidationError and "1.5x" in split_error[1]

    def check_serial_fallback(self, tmp_path, forks, parses, n_forks, want_parses):
        path = tmp_path / "l.csv"
        path.write_bytes(LAYOUTS["non-ascii-crlf"].encode())
        got_ids, _, got = io.read_logits(path)
        assert len(forks) == n_forks
        assert parses == want_parses
        parses.clear()
        want_ids, _, want = read_wide_csv_oracle(path, "l")
        assert got_ids == want_ids
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("how", ["exit-3", "sigkill", "row-count"])
    def test_failed_child_falls_back_to_serial(self, tmp_path, monkeypatch, forks, parses,
                                               how):
        real = io._parse_tail

        def child(path, encoding, offset, shape, shared):
            try:
                if how == "row-count":
                    real(path, encoding, offset, (shape[0] + 1, shape[1]), shared)
                elif how == "sigkill":
                    os.kill(os.getpid(), signal.SIGKILL)
            finally:
                os._exit(3)

        monkeypatch.setattr(io, "_parse_tail", child)
        self.check_serial_fallback(tmp_path, forks, parses, 1, [4, None])

    @pytest.mark.parametrize("broken", ["fork", "mmap"])
    def test_fork_or_mmap_oserror_falls_back_to_serial(self, tmp_path, monkeypatch, forks,
                                                       parses, broken):
        def fail(*args):
            raise OSError("unavailable")

        monkeypatch.setattr(os if broken == "fork" else mmap, broken, fail)
        self.check_serial_fallback(tmp_path, forks, parses, 0, [None])

    def test_one_cpu_or_no_fork_reads_serially(self, tmp_path, monkeypatch, forks, parses):
        monkeypatch.setattr(io, "_usable_cpus", lambda: 1)
        self.check_serial_fallback(tmp_path, forks, parses, 0, [None])
        monkeypatch.setattr(io, "_usable_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        self.check_serial_fallback(tmp_path, forks, parses, 0, [None])


@pytest.mark.skipif(not hasattr(os, "fork") or io._usable_cpus() < 2,
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
        assert np.array_equal(got.W, model.W)
        assert np.array_equal(got.b, model.b)

    def test_mlp_round_trip(self, tmp_path):
        model = SmallMlp.init(3, 4, 6, seed=6)
        io.save_model(tmp_path / "m.json", model)
        got = io.load_model(tmp_path / "m.json")
        for a, b in zip(model.params(), got.params()):
            assert np.array_equal(a, b)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            io.model_from_dict({"type": "transformer"})


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

    def test_multi_label_leaf_without_classifier_rejected(self, tmp_path):
        spec = {"n_labels": 2,
                "root": {"kind": "leaf", "labels": [0, 1],
                         "strategy": "renormalize", "classifier": None}}
        io.write_json(tmp_path / "h.json", spec)
        with pytest.raises(ValidationError):
            io.load_hierarchy(tmp_path / "h.json")

import math

import numpy as np
import pytest

from hiercert import io, rng
from hiercert.core import LabelPartition
from hiercert.errors import ValidationError
from hiercert.hierarchy import build_renormalize_hierarchy, infer_batch
from hiercert.models import LinearSoftmax, SmallMlp

from helpers import read_wide_csv_oracle


def random_floats(seed, n):
    u = rng.uniforms(seed, 900, 0, n)
    scale = np.exp((u - 0.5) * 600.0)  # spans tiny to huge magnitudes
    return (u - 0.5) * scale


class TestFloatFormat:
    def test_seventeen_digit_round_trip(self):
        for x in random_floats(1, 2000):
            assert io.parse_float(io.format_float(float(x))) == float(x)

    def test_special_values(self):
        assert io.format_float(math.inf) == "inf"
        assert io.format_float(-math.inf) == "-inf"
        assert io.parse_float("inf") == math.inf


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

    @pytest.mark.parametrize("text", [
        'sample_id,label,l0,l1\n"a,b",0,1.5,2\nc,1,3,4\n',
        'sample_id,label,l0,l1\n\na,0,1.5,2\n\r\nc,1,3,4\n\n',
        '\nsample_id,label,l0,l1\na,0,1.5,2\nc,1,3,4',
        'sample_id,label,l0,l1\n',
        'sample_id,label\na,1\nb,2\n',
        '"sample_id","label","l0"\n"a#1","-3","2.5"\n',
    ], ids=["quoted-comma", "blank-lines", "no-final-newline", "header-only",
            "no-values", "all-quoted"])
    def test_edge_cases_match_oracle(self, tmp_path, text):
        path = tmp_path / "l.csv"
        path.write_bytes(text.encode())
        got_ids, got_labels, got = io.read_logits(path)
        want_ids, want_labels, want = read_wide_csv_oracle(path, "l")
        assert got_ids == want_ids
        assert np.array_equal(got_labels, want_labels)
        assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("text, error", [
        ("", ValidationError),
        ("\n\n", ValidationError),
        ("sample_id,label,l0,l1\na,0,1.5\nc,1,3\n", ValidationError),
        ("sample_id,label,l0,l1\na,0,1.5,2\nc,1,3\n", ValidationError),
        ("sample_id,label,l0,l1\na,0,1.5,2,7\n", ValidationError),
        ('sample_id,label,l0\n"a,b",0\n', ValidationError),
        ("sample_id,label,l0\na\n", ValidationError),
        ("sample_id,label,l0,l1\na,0,1,2\n   \n", ValidationError),
        ("sample_id,label,l1\na,0,1\n", ValidationError),
        ("sample_id,label,l0\na,0.5,1\n", ValueError),
        ("sample_id,label,l0\na,0,x\n", ValueError),
        ("sample_id,label,l0\na,0,\n", ValueError),
    ], ids=["empty", "blank", "all-rows-short", "one-row-short", "row-long",
            "quoted-row-short", "id-only", "whitespace-row", "bad-header",
            "non-integer-label", "non-numeric-value", "empty-value"])
    def test_malformed_files_rejected(self, tmp_path, text, error):
        path = tmp_path / "l.csv"
        path.write_bytes(text.encode())
        with pytest.raises(error):
            io.read_logits(path)


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
        h = build_renormalize_hierarchy(part, root, base)
        io.save_hierarchy(tmp_path / "h.json", h)
        got = io.load_hierarchy(tmp_path / "h.json")
        assert got.n_labels == 4
        assert np.array_equal(infer_batch(got, X), infer_batch(h, X))
        assert got.partition().classes == part.classes

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

    def test_multi_label_leaf_without_classifier_rejected(self, tmp_path):
        spec = {"n_labels": 2,
                "root": {"kind": "leaf", "labels": [0, 1],
                         "strategy": "renormalize", "classifier": None}}
        io.write_json(tmp_path / "h.json", spec)
        with pytest.raises(ValidationError):
            io.load_hierarchy(tmp_path / "h.json")

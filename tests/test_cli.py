import json
import math

import numpy as np
import pytest

import hiercert
from hiercert import cli, io, rng
from hiercert.core import LabelPartition
from hiercert.errors import CapabilityError
from hiercert.hierarchy import build_renormalize_hierarchy
from hiercert.models import LinearSoftmax, train

from helpers import certify_oracle, make_blobs, synth_prob_dataset


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def constant_model_spec(n_labels, dim, winner):
    W = np.zeros((n_labels, dim))
    b = np.zeros(n_labels)
    b[winner] = 1.0
    return {"type": "linear", "W": W.tolist(), "b": b.tolist()}


class TestCertifyCommand:
    def test_constant_classifier_bound_is_closed_form(self, tmp_path):
        ids = [f"s{i}" for i in range(5)]
        labels = np.full(5, 2)
        X = rng.normals(1, 950, 0, 10).reshape(5, 2)
        io.write_features(tmp_path / "data.csv", ids, labels, X)
        n = 2000
        alpha = 0.01
        cfg = write_config(tmp_path, "c.json", {
            "seed": 7, "sigma": 0.5, "n0": 50, "n": n, "alpha_conf": alpha,
            "model": constant_model_spec(3, 2, 2),
            "dataset": {"features": "data.csv"},
            "radius_thresholds": [0.25, 0.5],
        })
        assert cli.main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        rows = io.read_certificates(tmp_path / "out" / "certificates_sigma0p5.csv")
        expected = alpha ** (1.0 / n)
        for r in rows:
            assert not r["abstain"]
            assert r["pred"] == 2
            assert r["p_a_lower"] == pytest.approx(expected, abs=1e-12)
        summary = (tmp_path / "out" / "certified_accuracy.csv").read_text().splitlines()
        assert summary[0] == "sigma,radius_threshold,certified_accuracy"
        assert len(summary) == 3

    def test_empty_dataset_warns_and_exits_zero(self, tmp_path, capsys):
        io.write_features(tmp_path / "data.csv", [], np.empty(0, np.int64),
                          np.empty((0, 2)))
        cfg = write_config(tmp_path, "c.json", {
            "seed": 1, "sigma": 0.25, "n": 100,
            "model": constant_model_spec(2, 2, 0),
            "dataset": {"features": "data.csv"},
        })
        assert cli.main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err
        assert "empty dataset" in err
        body = (tmp_path / "out" / "certificates_sigma0p25.csv").read_text().splitlines()
        assert len(body) == 1  # header only

    def test_byte_identical_reruns(self, tmp_path):
        ids = [f"s{i}" for i in range(3)]
        labels = np.array([0, 1, 0])
        X = rng.normals(2, 951, 0, 6).reshape(3, 2)
        io.write_features(tmp_path / "data.csv", ids, labels, X)
        cfg = write_config(tmp_path, "c.json", {
            "seed": 3, "sigma": 0.5, "n": 500, "n0": 20,
            "model": {"type": "linear", "W": [[0.0, 0.0], [2.0, 1.0]], "b": [0.0, 0.0]},
            "dataset": {"features": "data.csv"},
        })
        assert cli.main(["certify", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["certify", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        for name in ("certificates_sigma0p5.csv", "certified_accuracy.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_override_changes_outputs(self, tmp_path):
        ids = ["s0"]
        labels = np.array([1])
        io.write_features(tmp_path / "data.csv", ids, labels, np.array([[0.4, 0.1]]))
        cfg = write_config(tmp_path, "c.json", {
            "seed": 3, "sigma": 1.0, "n": 400, "n0": 20,
            "model": {"type": "linear", "W": [[0.0, 0.0], [2.0, 1.0]], "b": [0.0, 0.0]},
            "dataset": {"features": "data.csv"},
        })
        cli.main(["certify", "--config", cfg, "--out", str(tmp_path / "a")])
        cli.main(["certify", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "99"])
        meta_a = json.loads((tmp_path / "a" / "certified_accuracy.meta.json").read_text())
        meta_b = json.loads((tmp_path / "b" / "certified_accuracy.meta.json").read_text())
        assert meta_a["seed"] == 3 and meta_b["seed"] == 99
        assert meta_a["config_hash"] != meta_b["config_hash"]

    @pytest.mark.parametrize("seed", [3, 2**63 + 11])
    def test_csv_bytes_equal_per_input_oracle(self, tmp_path, seed):
        ids = [f"s{i}" for i in range(41)]
        X = 0.6 * rng.normals(seed, 952, 0, 41 * 3).reshape(41, 3)
        model = LinearSoftmax.init(4, 3, seed=8, scale=2.0)
        labels = np.argmax(model.logits(X), axis=1)
        labels[::5] = 0
        io.write_features(tmp_path / "data.csv", ids, labels, X)
        io.save_model(tmp_path / "m.json", model)
        sigmas, thresholds, n0, n, alpha = [0.25, 0.5], [0.1, 0.3], 40, 300, 0.01
        cfg = write_config(tmp_path, "c.json", {
            "seed": seed, "sigma": sigmas, "n0": n0, "n": n, "alpha_conf": alpha,
            "model": {"type": "linear", "path": "m.json"},
            "dataset": {"features": "data.csv"}, "radius_thresholds": thresholds,
        })
        assert cli.main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        summary = []
        for si, sigma in enumerate(sigmas):
            base = rng.stream_seed(seed, 0x5EED_0000 + si)
            rows = []
            for i, sid in enumerate(ids):
                label, radius, p = certify_oracle(model, X[i], sigma, n0, n, alpha,
                                                  rng.mix64(base + i))
                rows.append([sid, int(labels[i]), label, radius, radius is None, p])
            name = f"certificates_sigma{cli.format_sigma(sigma)}.csv"
            io.write_csv(tmp_path / "want.csv", ["sample_id", "label", "pred", "radius",
                                                 "abstain", "p_a_lower"], rows)
            got = (tmp_path / "out" / name).read_bytes()
            assert got == (tmp_path / "want.csv").read_bytes()
            assert any(r[4] for r in rows) and not all(r[4] for r in rows)
            for t in thresholds:
                hits = [r[2] == r[1] and r[3] is not None and r[3] >= t for r in rows]
                summary.append([sigma, t, float(np.mean(hits))])
        io.write_csv(tmp_path / "want.csv", ["sigma", "radius_threshold",
                                             "certified_accuracy"], summary)
        assert ((tmp_path / "out" / "certified_accuracy.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())

    def test_per_sample_seeds_wrap_past_two_to_the_64(self, monkeypatch):
        base = 2**64 - 5
        monkeypatch.setattr(cli.rng, "stream_seed", lambda seed, stream: base)
        got = cli._per_sample_seeds(1, 0, 12)
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == [rng.mix64(base + i) for i in range(12)]

    def test_meta_records_versions_and_certify_work(self, tmp_path):
        X = rng.normals(4, 953, 0, 8).reshape(4, 2)
        io.write_features(tmp_path / "data.csv", [f"s{i}" for i in range(4)],
                          np.array([0, 1, 1, 0]), X)
        cfg = write_config(tmp_path, "c.json", {
            "seed": 2, "sigma": [0.5, 1.0], "n0": 30, "n": 200,
            "model": {"type": "linear", "W": [[0.0, 0.0], [2.0, 1.0]], "b": [0.0, 0.0]},
            "dataset": {"features": "data.csv"},
        })
        assert cli.main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        for sigma in ("0p5", "1"):
            meta = json.loads((tmp_path / "out" / f"certificates_sigma{sigma}.meta.json")
                              .read_text())
            rows = io.read_certificates(tmp_path / "out" / f"certificates_sigma{sigma}.csv")
            assert meta["inputs"] == 4 and meta["noise_draws"] == 4 * (30 + 200) * 2
            assert meta["abstained"] == sum(r["abstain"] for r in rows)
        summary = json.loads((tmp_path / "out" / "certified_accuracy.meta.json").read_text())
        assert "inputs" not in summary
        cfg = write_config(tmp_path, "p.json", {"seed": 1, "n_trials": 100})
        assert cli.main(["toy-prf", "--config", cfg, "--out", str(tmp_path / "prf")]) == 0
        prf = json.loads((tmp_path / "prf" / "prf_scenarios.meta.json").read_text())
        for meta in (summary, prf):
            assert "threads" not in meta
            assert set(meta["versions"]) == {"hiercert", "numpy", "scipy", "python"}
            assert meta["versions"]["numpy"] == np.__version__
            assert meta["versions"]["hiercert"] == hiercert.__version__

    def test_lookup_model_rejected(self, tmp_path, capsys):
        # the lookup model type is gone: it is an unknown type like any other
        io.write_logits(tmp_path / "l.csv", ["a"], np.array([0]), np.array([[1.0, 0.0]]))
        io.write_features(tmp_path / "data.csv", ["a"], np.array([0]), np.array([[0.0, 0.0]]))
        cfg = write_config(tmp_path, "c.json", {
            "model": {"type": "lookup", "logits": "l.csv"},
            "dataset": {"features": "data.csv"},
        })
        assert cli.main(["certify", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "unknown model type 'lookup'" in capsys.readouterr().err


def _attack_config(tmp_path, hierarchy_spec) -> str:
    """An attack config over one input and the given hierarchy json."""
    io.write_json(tmp_path / "h.json", hierarchy_spec)
    io.write_features(tmp_path / "data.csv", ["a"], np.array([0]), np.array([[0.0, 0.0]]))
    return write_config(tmp_path, "c.json", {
        "hierarchy": "h.json", "dataset": {"features": "data.csv"},
        "attack": {"mode": "worst_case", "epsilon": 0.1, "step": 0.05, "iters": 3},
    })


class TestValidation:
    def test_unknown_key_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"seed": 1, "bogus": True})
        assert cli.main(["toy-prf", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "bogus" in err and err.count("\n") == 1

    def test_missing_config_file_exits_one(self, tmp_path):
        assert cli.main(["toy-prf", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "o")]) == 1

    def test_runtime_error_exits_two(self, tmp_path, monkeypatch, capsys):
        # a capability error is a runtime error, not validation
        def no_gradients(*args, **kwargs):
            raise CapabilityError("node 'root': no gradients")

        monkeypatch.setattr(cli, "evaluate_adversarial", no_gradients)
        cfg = _attack_config(tmp_path, {"n_labels": 2, "root": {
            "kind": "leaf", "labels": [0, 1], "strategy": "renormalize",
            "classifier": constant_model_spec(2, 2, 0)}})
        assert cli.main(["attack", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[runtime] CapabilityError: node 'root': no gradients")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_attack_over_lookup_node_exits_one(self, tmp_path, capsys):
        io.write_logits(tmp_path / "l.csv", ["a"], np.array([0]), np.array([[1.0, 0.0]]))
        cfg = _attack_config(tmp_path, {"n_labels": 2, "root": {
            "kind": "leaf", "labels": [0, 1], "strategy": "renormalize",
            "classifier": {"type": "lookup", "logits": "l.csv"}}})
        assert cli.main(["attack", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "unknown model type 'lookup'" in err and err.count("\n") == 1

    def test_attack_on_header_only_dataset_exits_one(self, tmp_path, capsys):
        cfg = _attack_config(tmp_path, _TREE)
        io.write_features(tmp_path / "data.csv", [], np.empty(0, np.int64), np.empty((0, 2)))
        assert cli.main(["attack", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[validation] {tmp_path / 'data.csv'}: no data rows")
        assert err.count("\n") == 1 and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("exc, traceback", [(RuntimeError("kaboom"), True),
                                                (CapabilityError("kaboom"), False)])
    def test_only_unexpected_errors_print_a_traceback(self, tmp_path, monkeypatch,
                                                      capsys, exc, traceback):
        def boom(config, base, meta):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "toy-prf", boom)
        cfg = write_config(tmp_path, "c.json", {"seed": 1})
        assert cli.main(["toy-prf", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error[runtime] {type(exc).__name__}: kaboom\n")
        assert ("Traceback (most recent call last)" in err and "in boom" in err) == traceback
        assert err.count("\n") > 1 if traceback else err.count("\n") == 1


_MODEL = {"type": "linear", "W": [[0.0, 0.0], [1.0, 0.0]], "b": [0.0, 0.0]}
# four labels, three hidden units
_MLP = {"type": "mlp", "W1": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "b1": [0.0] * 3,
        "W2": [[1.0, 0.0, 0.0]] * 4, "b2": [0.0] * 4}
_TREE = {"n_labels": 2, "root": {"kind": "intermediate", "classifier": _MODEL, "children": [
    {"kind": "leaf", "labels": [0]}, {"kind": "leaf", "labels": [1]}]}}
_VALID = {
    "certify": {"n0": 10, "n": 50, "model": _MODEL, "dataset": {"features": "data.csv"}},
    "attack": {"hierarchy": "h.json", "dataset": {"features": "data.csv"},
               "attack": {"iters": 2}},
    "hierarchy": {"partition": [[0], [1]], "probs": {"probs": "p.csv"}},
    "toy-gauss": {"d": 10, "eta_list": [0.3], "k_list": [0], "n_samples": 100,
                  "tradeoff": {"gamma": 0.02}},
    "toy-prf": {"n_trials": 10},
    "sweep": {"probs": {"probs": "p.csv"}, "sizes": [1, 2]},
    "discover": {"k": 1, "embeddings": "data.csv"},
}
# The valid config of a command that reads the named file in place of its
# usual input.
_READING = {"cm.csv": {"k": 1, "confusion": "cm.csv"},
            "m.json": dict(_VALID["certify"], model={"type": "mlp", "path": "m.json"}),
            "part.json": dict(_VALID["hierarchy"], partition="part.json")}
# a leaf holding label 5 of a two-label hierarchy
_LEAVES = [{"kind": "leaf", "labels": [0, 5], "classifier": _MODEL},
           {"kind": "leaf", "labels": [1]}]


def _malformed(command, tree=_TREE, **section):
    """The valid config of `command` with its keys or sections replaced."""
    return command, dict(_VALID[command], **section), tree


class TestMalformedInputs:
    """Each malformed config, model spec or hierarchy file exits 1 with one
    line naming the field."""

    @staticmethod
    def _run(tmp_path, command, config, tree, files=()):
        io.write_features(tmp_path / "data.csv", ["a"], np.array([0]), np.array([[0.5, 0.0]]))
        io.write_probs(tmp_path / "p.csv", ["a"], np.array([0]), np.array([[0.75, 0.25]]))
        io.write_json(tmp_path / "h.json", tree)
        for name, text in files:
            (tmp_path / name).write_text(text)
        cfg = tmp_path / "c.json"
        cfg.write_text(config if isinstance(config, str) else json.dumps(config))
        return cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("command", sorted(_VALID))
    def test_valid_configs_run(self, tmp_path, command):
        assert self._run(tmp_path, *_malformed(command)) == 0

    @pytest.mark.parametrize("case, field", [
        (_malformed("toy-gauss", tradeoff={"gama": 0.02}), "tradeoff.gama"),
        (_malformed("toy-gauss", tradeoff={"gamma": "x"}), "tradeoff.gamma"),
        (_malformed("certify", dataset={"features": "data.csv", "labels": "l.csv"}),
         "dataset.labels"),
        (_malformed("certify", model=dict(_MODEL, bias=[0.0, 0.0])), "model.bias"),
        (_malformed("certify", model={"type": "linear", "W": _MODEL["W"]}), "model.b"),
        (_malformed("attack", attack={"iters": 2, "epsilon": "big"}), "attack.epsilon"),
        (_malformed("toy-prf", seed="x"), "seed"),
        (_malformed("attack", tree={"n_labels": 2, "root": dict(_TREE["root"], children=[
            {"kind": "leaf", "labels": [0]}, {"kind": "leaf"}])}), "root.children.1.labels"),
        (_malformed("hierarchy", partition=[["a"]]), "partition"),
        (_malformed("certify", model=dict(_MODEL, W=[["a", 0.0], [1.0, 0.0]])), "model.W"),
    ])
    def test_malformed_input_names_its_field(self, tmp_path, capsys, case, field):
        assert self._run(tmp_path, *case) == 1
        err = capsys.readouterr().err
        # a hierarchy file's field also names the file
        source = f"{tmp_path.resolve() / 'h.json'}: " if field.startswith("root") else ""
        assert err.startswith(f"error[validation] {source}field '{field}': ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    # id -> (command, config key or input file, its JSON literal or file
    # text, the name the error line must carry)
    REJECTED = {
        "nan": ("toy-gauss", "eta_list", "[NaN]", "field 'eta_list'"),
        "infinity": ("toy-gauss", "eta_list", "[Infinity]", "field 'eta_list'"),
        "minus-infinity": ("toy-gauss", "eta_list", "[-Infinity]", "field 'eta_list'"),
        "float-overflow": ("toy-gauss", "eta_list", "[1e999]", "field 'eta_list'"),
        "scalar-nan": ("toy-gauss", "p", "NaN", "field 'p'"),
        "int-overflow": ("certify", "alpha_conf", "1" + "0" * 400, "field 'alpha_conf'"),
        "negative-sigma": ("hierarchy", "sigma", "-0.5", "field 'sigma'"),
        "zero-sigma": ("sweep", "sigma", "0", "field 'sigma'"),
        "zero-n-samples": ("toy-gauss", "n_samples", "0", "field 'n_samples'"),
        "zero-n-trials": ("toy-prf", "n_trials", "0", "field 'n_trials'"),
        "zero-samples-per-size": ("sweep", "samples_per_size", "0", "field 'samples_per_size'"),
        "negative-samples-per-size": ("sweep", "samples_per_size", "-3",
                                      "field 'samples_per_size'"),
        "fractional-label": ("certify", "data.csv", "sample_id,label,e0,e1\na,0.5,0.5,0\n",
                             "data.csv"),
        "text-value": ("certify", "data.csv", "sample_id,label,e0,e1\na,0,0.5,x\n", "data.csv"),
        "text-label": ("hierarchy", "p.csv", "sample_id,label,p0,p1\na,zero,0.75,0.25\n",
                       "p.csv"),
        "empty-value": ("hierarchy", "p.csv", "sample_id,label,p0,p1\na,0,0.75,\n", "p.csv"),
        "negative-certify-threshold": ("certify", "radius_thresholds", "[-1, 0.5]",
                                       "field 'radius_thresholds'"),
        "negative-hierarchy-threshold": ("hierarchy", "radius_thresholds", "[0.5, -0.25]",
                                         "field 'radius_thresholds'"),
        "zero-n0": ("certify", "n0", "0", "field 'n0'"),
        "zero-n": ("certify", "n", "0", "field 'n'"),
        "zero-sigma-in-list": ("certify", "sigma", "[0.5, 0]", "field 'sigma'"),
        # values that name an output file, column or row must name it apart
        "colliding-sigmas": ("certify", "sigma", "[0.5, 0.5000001]",
                             "field 'sigma': 0.5 and 0.5000001 both name their output '0p5'"),
        "repeated-sigma": ("certify", "sigma", "[1, 0.25, 1]", "field 'sigma'"),
        "colliding-hierarchy-thresholds": ("hierarchy", "radius_thresholds", "[0.5, 0.50000001]",
                                           "field 'radius_thresholds'"),
        "repeated-hierarchy-threshold": ("hierarchy", "radius_thresholds", "[0, 0.5, 0]",
                                         "field 'radius_thresholds'"),
        "repeated-certify-threshold": ("certify", "radius_thresholds", "[0.5, 0.5]",
                                       "field 'radius_thresholds'"),
        "repeated-size": ("sweep", "sizes", "[2, 2]",
                          "field 'sizes': 2 and 2 both name their output '2'"),
        "repeated-eta": ("toy-gauss", "eta_list", "[0.1, 0.3, 0.1]", "field 'eta_list'"),
        "colliding-etas": ("toy-gauss", "eta_list", "[0.1, 0.10000001]", "field 'eta_list'"),
        "repeated-k": ("toy-gauss", "k_list", "[0, 0]", "field 'k_list'"),
        "colliding-certify-thresholds": ("certify", "radius_thresholds", "[0.5, 0.50000001]",
                                         "field 'radius_thresholds'"),
        "zero-iters": ("attack", "attack", '{"iters": 0}', "field 'attack.iters'"),
        "zero-restarts": ("attack", "attack", '{"restarts": 0}', "field 'attack.restarts'"),
        "zero-step": ("attack", "attack", '{"step": 0}', "field 'attack.step'"),
        "negative-epsilon": ("attack", "attack", '{"epsilon": -0.1}', "field 'attack.epsilon'"),
        "unknown-mode": ("attack", "attack", '{"mode": "worstcase"}', "field 'attack.mode'"),
        # a budget target is read by budgeted attacks only
        "budget-target-in-worst-case": ("attack", "attack",
                                        '{"mode": "worst_case", "budget_target": "nonexistent"}',
                                        "field 'attack.budget_target'"),
        "budget-target-in-default-mode": ("attack", "attack", '{"budget_target": "worst"}',
                                          "field 'attack.budget_target'"),
        "unknown-strategy": ("attack", "h.json", json.dumps(dict(_TREE, root=dict(
            _TREE["root"], children=[{"kind": "leaf", "labels": [0], "strategy": "mask"},
                                     {"kind": "leaf", "labels": [1]}]))),
                             "h.json: field 'root.children.0.strategy'"),
        # a 'renormalize' leaf [2, 3] holding a model of two labels, not of all four
        "renormalize-leaf-arity": ("attack", "h.json", json.dumps({"n_labels": 4, "root": dict(
            _TREE["root"], children=[
                {"kind": "leaf", "labels": [0, 1], "classifier": {
                    "type": "linear", "W": [[0.0, 0.0]] * 4, "b": [0.0] * 4}},
                {"kind": "leaf", "labels": [2, 3], "classifier": _MODEL}])}),
                                   "h.json: field 'root.children.1.classifier'"),
        # true labels outside the label space name their file
        "probs-label-out-of-range": ("hierarchy", "p.csv",
                                     "sample_id,label,p0,p1\na,2,0.75,0.25\n", "p.csv"),
        "features-label-out-of-range": ("attack", "data.csv",
                                        "sample_id,label,e0,e1\na,2,0.5,0\n", "data.csv"),
        "certify-label-out-of-range": ("certify", "data.csv", "sample_id,label,e0,e1\na,2,0.5,0\n",
                                       "data.csv: labels must lie in 0..1"),
        "certify-negative-label": ("certify", "data.csv", "sample_id,label,e0,e1\na,-1,0.5,0\n",
                                   "data.csv: labels must lie in 0..1"),
        "leaf-label-out-of-range": ("attack", "h.json", json.dumps(dict(_TREE, root=dict(
            _TREE["root"], children=_LEAVES))), "h.json: field 'root.children.0.labels'"),
        # out_partition is a bare file name that is not one of discover's own outputs
        "out-partition-table": ("discover", "out_partition", '"discovered_partition.csv"',
                                "field 'out_partition'"),
        "out-partition-sidecar": ("discover", "out_partition",
                                  '"discovered_partition.meta.json"', "field 'out_partition'"),
        "out-partition-empty": ("discover", "out_partition", '""', "field 'out_partition'"),
        "out-partition-absolute": ("discover", "out_partition", '"/partition.json"',
                                   "field 'out_partition'"),
        "out-partition-parent": ("discover", "out_partition", '"../partition.json"',
                                 "field 'out_partition'"),
        "out-partition-subdirectory": ("discover", "out_partition", '"sub/partition.json"',
                                       "field 'out_partition'"),
        # single-field ranges
        "zero-max-iter": ("discover", "max_iter", "0", "field 'max_iter'"),
        "negative-tol": ("discover", "tol", "-1", "field 'tol'"),
        "zero-k": ("discover", "k", "0", "field 'k'"),
        "zero-n-labels": ("discover", "n_labels", "0", "field 'n_labels'"),
        "alpha-conf-above-one": ("certify", "alpha_conf", "2", "field 'alpha_conf'"),
        "p-above-one": ("toy-gauss", "p", "2", "field 'p'"),
        "zero-d": ("toy-gauss", "d", "0", "field 'd'"),
        "negative-eta": ("toy-gauss", "eta_list", "[-1]", "field 'eta_list'"),
        "negative-k": ("toy-gauss", "k_list", "[-1]", "field 'k_list'"),
        "gamma-above-one": ("toy-gauss", "tradeoff", '{"gamma": 2}', "field 'tradeoff.gamma'"),
        "zero-n-bits": ("toy-prf", "n_bits", "0", "field 'n_bits'"),
        "even-repetition": ("toy-prf", "repetition", "2", "field 'repetition'"),
        "negative-flip-budget": ("toy-prf", "flip_budget", "-1", "field 'flip_budget'"),
        # layer shapes, among them biases numpy would broadcast
        "mlp-short-b2": ("certify", "model", json.dumps(dict(_MLP, b2=[0.0, 0.0])),
                         "model: b2 must have shape (4,) to match W2, not (2,)"),
        "mlp-scalar-biases": ("certify", "model", json.dumps(dict(_MLP, b1=[0.5], b2=[0.25])),
                              "model: b1 must have shape (3,) to match W1, not (1,)"),
        "mlp-file-short-b2": ("certify", "m.json", json.dumps(dict(_MLP, b2=[0.0, 0.0])),
                              "m.json: b2 must have shape (4,)"),
        "linear-short-b": ("certify", "model", json.dumps(dict(_MODEL, W=[[0.0, 0.0]] * 4)),
                           "model: b must have shape (4,) to match W, not (2,)"),
        "node-short-b": ("attack", "h.json", json.dumps(dict(_TREE, root=dict(
            _TREE["root"], classifier=dict(_MODEL, b=[0.0])))),
                         "h.json: root.classifier: b must have shape (2,)"),
        # feature width against the model's, or every node's, input width
        "model-input-width": ("certify", "data.csv", "sample_id,label,e0,e1,e2\na,0,0.5,0,0\n",
                              "data.csv: 3 feature columns, but the model takes 2 inputs"),
        "node-input-width": ("attack", "data.csv", "sample_id,label,e0,e1,e2\na,0,0.5,0,0\n",
                             "data.csv: 3 feature columns, but node 'root' takes 2 inputs"),
        # partition and confusion contents name their source
        "overlapping-partition": ("hierarchy", "partition", "[[0, 1], [1]]",
                                  "field 'partition': label 1 appears in more than one class"),
        "overlapping-partition-file": ("hierarchy", "part.json", "[[0, 1], [1]]",
                                       "part.json: label 1 appears in more than one class"),
        "negative-confusion-count": ("discover", "cm.csv", "1,-1\n0,1\n",
                                     "cm.csv: confusion counts must be nonnegative"),
        "underscore-confusion-count": ("discover", "cm.csv", "1_000,1\n0,1\n", "cm.csv"),
        "confusion-count-overflows-int64": ("discover", "cm.csv",
                                            "1,9223372036854775808\n0,1\n", "cm.csv"),
        "empty-confusion-file": ("discover", "cm.csv", "",
                                 "cm.csv: confusion matrix must be square"),
        # one 1-based data row in each reader's messages, blank lines not counted
        "features-bad-cell-row": ("certify", "data.csv",
                                  "sample_id,label,e0,e1\na,0,0.5,0\n\n\nb,0,0.5,x\n",
                                  "data.csv: data row 2, column 4: could not convert"),
        "features-short-row": ("attack", "data.csv", "sample_id,label,e0,e1\n\na,0,0.5,0\n\nb,0\n",
                               "data.csv: data row 2: expected 4 fields, found 2"),
        "confusion-bad-cell-row": ("discover", "cm.csv", "1,0\n\n0,x\n",
                                   "cm.csv: data row 2, column 2: could not convert"),
        "confusion-short-row": ("discover", "cm.csv", "1,0\n\n\n0\n",
                                "cm.csv: data row 2: expected 2 fields, found 1"),
    }

    def test_distinct_integers_name_their_outputs_apart(self):
        # `format_sigma` writes both as '1e+06', but an integer is named exactly
        assert cli._named_apart("k_list", [1000000, 1000001]) == [1000000, 1000001]

    @pytest.mark.parametrize("command, key, text, name", list(REJECTED.values()),
                             ids=list(REJECTED))
    def test_rejected_input_exits_one_naming_it(self, tmp_path, capsys, command, key, text,
                                                name):
        if key.endswith((".csv", ".json")):
            args = (_READING.get(key, _VALID[command]), _TREE, [(key, text)])
        else:
            config = json.dumps(dict(_VALID[command], **{key: "@"})).replace('"@"', text)
            args = (config, _TREE)
        assert self._run(tmp_path, command, *args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation] ") and name in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestSweepCommand:
    def test_monotone_mean_column(self, tmp_path):
        P = synth_prob_dataset(5, 300, 8)
        ids = [f"s{i}" for i in range(300)]
        io.write_probs(tmp_path / "p.csv", ids, np.argmax(P, axis=1), P)
        cfg = write_config(tmp_path, "c.json", {
            "seed": 2, "sigma": 0.5, "probs": {"probs": "p.csv"},
            "sizes": [2, 4, 6, 8], "mode": "all",
        })
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "subset_radius_sweep.csv").read_text().splitlines()
        means = [float(line.split(",")[3]) for line in lines[1:]]
        assert means == sorted(means, reverse=True)


    @pytest.mark.parametrize("bad, message", [(1e-7, "row 1 sums to"),
                                              (math.nan, "row 1: entries must be finite")])
    def test_probability_file_rows_checked_at_the_tolerance(self, tmp_path, capsys,
                                                           bad, message):
        P = np.array([[0.5, 0.5, 0.0], [0.25, 0.75, 0.0], [0.2, 0.3, 0.5]])
        P[1, 2] = bad
        io.write_probs(tmp_path / "p.csv", ["a", "b", "c"], np.array([0, 1, 2]), P)
        cfg = write_config(tmp_path, "c.json", {
            "sigma": 0.5, "probs": {"probs": "p.csv"}, "sizes": [2], "mode": "all"})
        assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "p.csv: probability " + message in err and err.count("\n") == 1


class TestDiscoverCommand:
    def test_embedding_clustering_recovers_split(self, tmp_path):
        # labels 0,1 cluster on the left, 2,3 on the right
        X, y4 = make_blobs(6, 40, [(-5, -1), (-5, 1), (5, -1), (5, 1)], spread=0.4)
        ids = [f"s{i}" for i in range(len(y4))]
        io.write_features(tmp_path / "e.csv", ids, y4, X)
        cfg = write_config(tmp_path, "c.json", {
            "seed": 4, "k": 2, "embeddings": "e.csv",
        })
        assert cli.main(["discover", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        classes = json.loads((tmp_path / "out" / "partition.json").read_text())
        assert {frozenset(c) for c in classes} == {frozenset({0, 1}), frozenset({2, 3})}

    def test_confusion_blocks(self, tmp_path):
        # synthetic block structure: labels 0,1,8,9 confuse among themselves,
        # labels 2..7 among themselves
        m = 10
        cm = np.zeros((m, m), dtype=int)
        groups = [(0, 1, 8, 9), (2, 3, 4, 5, 6, 7)]
        for g in groups:
            for i in g:
                for j in g:
                    cm[i, j] = 40 if i == j else 6
        io.write_confusion(tmp_path / "cm.csv", cm)
        cfg = write_config(tmp_path, "c.json", {"k": 2, "confusion": "cm.csv"})
        assert cli.main(["discover", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        classes = json.loads((tmp_path / "out" / "partition.json").read_text())
        assert {frozenset(c) for c in classes} == {frozenset(g) for g in groups}

    def test_both_sources_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"k": 2, "embeddings": "a", "confusion": "b"})
        assert cli.main(["discover", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


class TestHierarchyCommand:
    def test_identity_partition_matches_baseline(self, tmp_path):
        P = synth_prob_dataset(7, 200, 6)
        ids = [f"s{i}" for i in range(200)]
        io.write_probs(tmp_path / "p.csv", ids, np.argmax(P, axis=1), P)
        cfg = write_config(tmp_path, "c.json", {
            "sigma": 0.5, "partition": [[0, 1, 2, 3, 4, 5]],
            "probs": {"probs": "p.csv"}, "radius_thresholds": [0.25, 0.5],
        })
        assert cli.main(["hierarchy", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "hierarchy_certificates.csv").read_text().splitlines()
        row = lines[1].split(",")
        cols = lines[0].split(",")
        base_mean = float(row[cols.index("baseline_cr_mean")])
        hier_mean = float(row[cols.index("hierarchy_cr_mean")])
        assert hier_mean == pytest.approx(base_mean, abs=1e-12)

    def test_two_class_partition_improves_mean_radius(self, tmp_path):
        P = synth_prob_dataset(8, 400, 10)
        ids = [f"s{i}" for i in range(400)]
        io.write_probs(tmp_path / "p.csv", ids, np.argmax(P, axis=1), P)
        cfg = write_config(tmp_path, "c.json", {
            "sigma": 0.5, "partition": [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]],
            "probs": {"probs": "p.csv"},
        })
        assert cli.main(["hierarchy", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "hierarchy_certificates.csv").read_text().splitlines()
        cols = lines[0].split(",")
        for line in lines[1:]:
            row = line.split(",")
            assert (float(row[cols.index("hierarchy_cr_mean")])
                    >= float(row[cols.index("baseline_cr_mean")]))

    def test_attack_key_rejected(self, tmp_path, capsys):
        # attacks run only through the attack command
        P = synth_prob_dataset(9, 20, 3)
        io.write_probs(tmp_path / "p.csv", [f"s{i}" for i in range(20)],
                       np.argmax(P, axis=1), P)
        cfg = write_config(tmp_path, "c.json", {
            "sigma": 0.5, "partition": [[0, 1], [2]], "probs": {"probs": "p.csv"},
            "attack": {"mode": "worst_case", "epsilon": 0.1, "step": 0.05},
        })
        assert cli.main(["hierarchy", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation] field 'attack': unknown key for 'hierarchy'")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_nothing_to_do_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"sigma": 0.5})
        assert cli.main(["hierarchy", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


class TestAttackCommand:
    def test_attack_section_runs(self, tmp_path):
        X, y = make_blobs(9, 30, [(-3, -1), (-3, 1), (3, 0)], spread=0.3)
        base = train(LinearSoftmax.init(3, 2, seed=1), X, y, epochs=200, learning_rate=0.5)
        root = train(LinearSoftmax.init(2, 2, seed=2), X, (y == 2).astype(int),
                     epochs=200, learning_rate=0.5)
        h = build_renormalize_hierarchy(LabelPartition(((0, 1), (2,))), root, base)
        io.save_hierarchy(tmp_path / "h.json", h)
        ids = [f"s{i}" for i in range(len(y))]
        io.write_features(tmp_path / "d.csv", ids, y, X)
        cfg = write_config(tmp_path, "c.json", {
            "seed": 5, "hierarchy": "h.json", "dataset": {"features": "d.csv"},
            "attack": {"mode": "budgeted", "budget_target": "worst",
                       "epsilon": 0.1, "step": 0.05, "iters": 5},
        })
        assert cli.main(["attack", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "adversarial_accuracy.csv").read_text().splitlines()
        assert lines[0] == "node,natural_acc,adv_acc,budget_acc"
        assert len(lines) >= 4  # summary + one row per node

    @pytest.mark.parametrize("target, attacked", [("worst", 90 + 60), ("root", 90),
                                                  ("root.0", 60), ("root.1", 0)])
    def test_meta_records_pgd_steps(self, tmp_path, target, attacked):
        # root sees all 90 rows, leaf root.0 the 60 rows of labels 0 and 1,
        # and the singleton leaf root.1 is never attacked
        X, y = make_blobs(9, 30, [(-3, -1), (-3, 1), (3, 0)], spread=0.3)
        h = build_renormalize_hierarchy(LabelPartition(((0, 1), (2,))),
                                        LinearSoftmax.init(2, 2, seed=2),
                                        LinearSoftmax.init(3, 2, seed=1))
        io.save_hierarchy(tmp_path / "h.json", h)
        io.write_features(tmp_path / "d.csv", [f"s{i}" for i in range(len(y))], y, X)
        cfg = write_config(tmp_path, "c.json", {
            "seed": 5, "hierarchy": "h.json", "dataset": {"features": "d.csv"},
            "attack": {"mode": "budgeted", "budget_target": target,
                       "epsilon": 0.1, "step": 0.05, "iters": 5, "restarts": 3},
        })
        assert cli.main(["attack", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        meta = json.loads((tmp_path / "out" / "adversarial_accuracy.meta.json").read_text())
        assert meta["pgd_steps"] == attacked * 5 * 3


class TestToyCommands:
    def test_prf_scenarios(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {"seed": 11, "n_trials": 4000})
        assert cli.main(["toy-prf", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "prf_scenarios.csv").read_text().splitlines()
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert float(rows["clean"][3]) == 1.0 and float(rows["clean"][4]) == 1.0
        assert float(rows["first_bit_attack"][3]) == 1.0
        assert abs(float(rows["first_bit_attack"][4]) - 0.5) < 0.05
        assert float(rows["invariant_enforced"][4]) == 1.0

    def test_gauss_with_tradeoff(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "seed": 12, "d": 100, "eta_list": [0.3], "k_list": [0, 100],
            "n_samples": 20000, "tradeoff": {"gamma": 0.01, "eta": 0.3},
        })
        assert cli.main(["toy-gauss", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "tradeoff.csv").read_text().splitlines()
        row = lines[1].split(",")
        natural, adv, bound = float(row[3]), float(row[4]), float(row[5])
        se = math.sqrt(bound * (1 - bound) / 20000)
        assert natural == pytest.approx(0.99, abs=0.01)
        assert adv <= bound + 3 * se

    def test_gauss_meta_records_noise_draws(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "seed": 13, "d": 7, "eta_list": [0.1, 0.3, 0.5], "k_list": [0, 2],
            "n_samples": 50, "tradeoff": {"gamma": 0.01, "eta": 0.3},
        })
        assert cli.main(["toy-gauss", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        grid, tradeoff = (json.loads((tmp_path / "out" / f"{name}.meta.json").read_text())
                          for name in ("gauss_grid", "tradeoff"))
        assert grid["noise_draws"] == 3 * 50 * 7
        assert tradeoff["noise_draws"] == 50 * 7
        assert grid["seed"] == tradeoff["seed"] == 13

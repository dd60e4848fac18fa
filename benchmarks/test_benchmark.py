"""Tests of the benchmark itself: fixture determinism, output checks that
reject corrupted outputs, the tracer's patching, and metric names.

    python3 -m pytest -q benchmarks

Run from the root of a source checkout; hiercert is imported from ./src.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import fixtures  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _digests(d: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(d.iterdir())}


def _run_cli(fx: fixtures.Fixture, name: str, out: Path) -> None:
    from hiercert import cli

    cmd = next(c for c in fx.commands if c.name == name)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([cmd.command, "--config", str(fx.inputs / cmd.config), "--out", str(out)])
    assert rc == 0


def _edit_csv(path: Path, edit) -> None:
    """Rewrite a CSV after `edit(rows)` changes its list of row dicts in place."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("workload", fixtures.WORKLOADS)
def test_same_seed_gives_same_fixture_bytes(tmp_path, workload):
    a = fixtures.generate(workload, 7, tmp_path / "a")
    b = fixtures.generate(workload, 7, tmp_path / "b")
    c = fixtures.generate(workload, 8, tmp_path / "c")
    assert _digests(a.inputs) == _digests(b.inputs)
    assert _digests(a.inputs) != _digests(c.inputs)
    assert [cmd.config for cmd in a.commands] == [cmd.config for cmd in b.commands]


@pytest.fixture(scope="module")
def certified(tmp_path_factory):
    d = tmp_path_factory.mktemp("many")
    fx = fixtures.generate("many-inputs", 3, d / "inputs")
    _run_cli(fx, "certify", d / "out")
    return fx, d / "out"


@pytest.fixture(scope="module")
def casestudy(tmp_path_factory):
    d = tmp_path_factory.mktemp("case")
    fx = fixtures.generate("casestudy", 3, d / "inputs")
    for name in ("discover-embeddings", "discover-confusion", "hierarchy", "sweep"):
        _run_cli(fx, name, d / "out" / name)
    return fx, d / "out"


def _copy(src: Path, tmp_path: Path) -> Path:
    return Path(shutil.copytree(src, tmp_path / "corrupt"))


def test_certify_outputs_pass(certified):
    fx, out = certified
    assert checks.check_certify(out, fx.truth["certify"]) == []


def test_certify_check_rejects_inflated_radius(certified, tmp_path):
    fx, out = certified
    bad = _copy(out, tmp_path)

    def inflate(rows):
        row = next(r for r in rows if r["abstain"] == "false")
        row["radius"] = repr(float(row["radius"]) * 1.01)

    _edit_csv(bad / "certificates_sigma0p25.csv", inflate)
    problems = checks.check_certify(bad, fx.truth["certify"])
    assert any("radius" in p for p in problems)


def test_certify_check_rejects_p_a_lower_above_reference(certified, tmp_path):
    fx, out = certified
    bad = _copy(out, tmp_path)

    def raise_bound(rows):
        # A certified row among those checked against the reference, with its
        # radius kept consistent so that only the reference can catch it.
        row = _checked_row(rows, lambda r: r["abstain"] == "false"
                           and float(r["p_a_lower"]) < 0.78)
        p = float(row["p_a_lower"]) + 0.2
        row.update(p_a_lower=repr(p), radius=repr(0.25 * float(special.ndtri(p))))

    _edit_csv(bad / "certificates_sigma0p25.csv", raise_bound)
    problems = checks.check_certify(bad, fx.truth["certify"])
    assert any("above the reference" in p for p in problems)


def _checked_row(rows, accept):
    """The first row checked against the reference that `accept` takes."""
    checked = np.linspace(0, len(rows) - 1, checks.REF_INPUTS).astype(int)
    return next(rows[i] for i in checked if accept(rows[i]))


def test_certify_check_rejects_p_a_lower_below_reference(certified, tmp_path):
    fx, out = certified
    bad = _copy(out, tmp_path)

    def lower_bound(rows):
        # As if certify counted votes of 3/4 of its draws but divided by n:
        # still certified, radius consistent, so only the reference can catch it.
        row = _checked_row(rows, lambda r: float(r["p_a_lower"]) > 0.9)
        p = 0.75 * float(row["p_a_lower"])
        row.update(p_a_lower=repr(p), radius=repr(0.25 * float(special.ndtri(p))))

    _edit_csv(bad / "certificates_sigma0p25.csv", lower_bound)
    problems = checks.check_certify(bad, fx.truth["certify"])
    assert any("below the reference" in p for p in problems)


def test_certify_check_rejects_forced_abstention(certified, tmp_path):
    fx, out = certified
    bad = _copy(out, tmp_path)

    def abstain(rows):
        row = _checked_row(rows, lambda r: float(r["p_a_lower"]) > 0.9)
        row.update(p_a_lower="0.0", abstain="true", pred="-1", radius="")

    _edit_csv(bad / "certificates_sigma0p25.csv", abstain)
    problems = checks.check_certify(bad, fx.truth["certify"])
    assert any("abstained although" in p for p in problems)


def test_certify_check_rejects_looser_bound(certified, tmp_path):
    fx, out = certified
    bad = _copy(out, tmp_path)
    n = fx.truth["certify"]["n"]

    def loosen(rows):
        # The bound of the same vote count at a thousandth of alpha_conf.
        for row in rows:
            if row["abstain"] == "false":
                k = int(checks.vote_counts(float(row["p_a_lower"]), n, 0.001))
                p = float(checks._cp_lower(k, n, 1e-6))
                if p > 0.5:
                    row.update(p_a_lower=repr(p), radius=repr(0.25 * float(special.ndtri(p))))

    _edit_csv(bad / "certificates_sigma0p25.csv", loosen)
    problems = checks.check_certify(bad, fx.truth["certify"])
    assert any("not the Clopper-Pearson bound" in p for p in problems)


@pytest.mark.parametrize("n", [500, 100_000])
def test_p_a_lower_range_admits_rare_but_correct_bounds(n):
    # A correct certifier's vote count sits beyond its 1e-5 or 1 - 1e-5
    # quantile on 1e-5 of inputs; the bounds of such counts must still pass
    # when the reference votes are typical.
    from scipy import stats

    for p in (0.001, 0.3, 0.55, 0.8, 0.95, 0.999):
        lo, hi = checks.p_a_lower_range(round(p * checks.REF_DRAWS), n, 0.001)
        for q in (1e-5, 1.0 - 1e-5):
            k = int(stats.binom.ppf(q, n, p))
            assert lo <= checks._cp_lower(k, n, 0.001) <= hi, (p, q)


def test_discover_check_rejects_non_total_partition(casestudy, tmp_path):
    fx, out = casestudy
    assert checks.check_discover(out / "discover-embeddings",
                                 fx.truth["discover-embeddings"]) == []
    truth = fx.truth["discover-confusion"]
    assert checks.check_discover(out / "discover-confusion", truth) == []
    bad = _copy(out / "discover-confusion", tmp_path)
    classes = json.loads((bad / "partition.json").read_text())
    classes[0] = classes[0][1:]
    (bad / "partition.json").write_text(json.dumps(classes))
    _edit_csv(bad / "discovered_partition.csv",
              lambda rows: rows[0].update(classes=json.dumps(classes)))
    problems = checks.check_discover(bad, truth)
    assert any("not total" in p for p in problems)


def test_hierarchy_check_rejects_inflated_mean_radius(casestudy, tmp_path):
    fx, out = casestudy
    truth = fx.truth["hierarchy"]
    assert checks.check_hierarchy(out / "hierarchy", truth) == []
    bad = _copy(out / "hierarchy", tmp_path)
    _edit_csv(bad / "hierarchy_certificates.csv", lambda rows: rows[0].update(
        hierarchy_cr_mean=repr(float(rows[0]["hierarchy_cr_mean"]) * 1.001)))
    assert checks.check_hierarchy(bad, truth)


def test_sweep_check_rejects_non_decreasing_means(casestudy, tmp_path):
    fx, out = casestudy
    truth = fx.truth["sweep"]
    assert checks.check_sweep(out / "sweep", truth) == []
    bad = _copy(out / "sweep", tmp_path)
    _edit_csv(bad / "subset_radius_sweep.csv",
              lambda rows: rows[1].update(mean=rows[0]["mean"]))
    assert any("strictly decrease" in p for p in checks.check_sweep(bad, truth))


def test_reference_check_rejects_values_beyond_tolerance(casestudy, tmp_path):
    fx, out = casestudy
    recorded = checks.summarize("sweep", out / "sweep")
    assert checks.check_reference("sweep", out / "sweep", recorded) == []
    shifted = {k: v * 1.2 for k, v in recorded.items()}
    assert checks.check_reference("sweep", out / "sweep", shifted)
    recorded = checks.summarize("discover", out / "discover-embeddings")
    assert checks.check_reference("discover", out / "discover-embeddings", recorded) == []
    classes = json.loads(recorded["partition"])
    classes[0], classes[1] = classes[0] + classes[1][:1], classes[1][1:]
    moved = dict(recorded, partition=json.dumps(classes))
    assert checks.check_reference("discover", out / "discover-embeddings", moved)


def test_tracer_patches_names_callers_look_up_and_restores_them(casestudy):
    import hiercert.cli
    import hiercert.hierarchy
    import hiercert.models
    import hiercert.smoothing

    lookups = [(hiercert.cli, "certify"), (hiercert.smoothing, "normal_quantile"),
               (hiercert.hierarchy, "margin_radius"), (hiercert.hierarchy, "as_probability_vector"),
               (hiercert.models.SmallMlp, "logits"),
               (hiercert.models.LinearSoftmax, "input_grad_from_dlogits")]
    before = [getattr(owner, attr) for owner, attr in lookups]
    command = hiercert.cli._COMMANDS["discover"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(o, a) is not b for (o, a), b in zip(lookups, before))
        assert hiercert.cli._COMMANDS["discover"] is not command
        fx, out = casestudy
        counts = []
        for repeat in range(2):
            start = tracer.mark()
            _run_cli(fx, "discover-confusion", out / f"traced{repeat}")
            stats = tracer.span_stats(start, tracer.mark())
            counts.append(({k: v[0] for k, v in stats.items()}, tracer.take_counters()))
    finally:
        tracer.uninstall()
    assert [getattr(owner, attr) for owner, attr in lookups] == before
    assert hiercert.cli._COMMANDS["discover"] is command
    assert counts[0] == counts[1]
    calls, counters = counts[0]
    assert calls["cli.main"] == 1 and calls["discovery.partition_from_confusion"] == 1
    assert counters["discovery.partition_from_confusion.merges"] == 80 - 8
    metrics = tracing.layer_metrics(stats, counters)
    assert metrics["discovery.partition_from_confusion.s"] > 0
    assert 0 < metrics["cli.self_s"] < stats["cli.main"][1]


def test_commands_are_scaled_by_the_median_probe_of_their_repeat():
    nominal = run.scaled(1.0, 1.0)
    it = {"commands": [{"s": 2.0}, {"s": 1.0}],
          "probe_s": [1.5, 0.5, 9.0]}  # one probe disturbed by a spike
    assert run.scaled_commands(it) == pytest.approx([2.0 / 1.5 * nominal, 1.0 / 1.5 * nominal])


def test_metric_names_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for group, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[group]} == table
        for name, unit in table.items():
            assert NAME.fullmatch(name) and len(name) <= 64, name
            assert UNIT.fullmatch(unit), (name, unit)
    assert set(tracing.layer_metrics({}, {})) == set(tracing.LAYER_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(fixtures.WORKLOADS)

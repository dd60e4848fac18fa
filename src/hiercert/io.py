"""File formats: CSV for bulk numbers, JSON for structure.

All floats are serialized with 17 significant digits so that every emitted
file re-ingests to bit-identical values. Readers are strict about shapes
and headers; schema problems raise ValidationError so the CLI can exit 1.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import LabelPartition
from .errors import ValidationError
from .hierarchy import Hierarchy, Intermediate, Leaf, RENORMALIZE
from .models import LinearSoftmax, MaskedModel, SmallMlp


#: Columns of a certificates table; an abstained row has an empty radius.
CERTIFICATE_COLUMNS = ("sample_id", "label", "pred", "radius", "abstain", "p_a_lower")


def format_float(x: float) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def parse_float(s: str) -> float:
    return float(s)


def _format_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return format_float(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return ""
    return str(v)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _read_csv(path) -> tuple[list[str], list[list[str]]]:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows:
        raise ValidationError(f"empty csv: {path}")
    return rows[0], rows[1:]


def _read_wide_csv(path, prefix: str):
    """Common reader for sample_id,label,<prefix>0..<prefix>{w-1} files.

    One pass over the lines takes the ids and labels and checks every row's
    field count; numpy's C parser then reads the value columns from the same
    open file. Only rows holding a quote go through the csv module, so ids
    that csv.writer quoted (commas, quotes, newlines) still parse.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"file not found: {path}")
    with path.open(newline="") as fh:
        header_lines = 0
        header: list[str] = []
        for line in fh:
            header_lines += 1
            if line.strip("\r\n"):
                header = next(csv.reader([line]))
                break
        if not header:
            raise ValidationError(f"empty csv: {path}")
        if header[:2] != ["sample_id", "label"]:
            raise ValidationError(f"{path}: header must start with sample_id,label")
        width = len(header) - 2
        expected = [f"{prefix}{i}" for i in range(width)]
        if header[2:] != expected:
            raise ValidationError(f"{path}: value columns must be {prefix}0..{prefix}{width - 1}")

        ids: list[str] = []
        labels: list[int] = []
        for line in fh:
            if '"' in line:
                # A quoted field may span lines; the reader pulls them from fh.
                row = next(csv.reader(itertools.chain([line], fh)))
                n_fields = len(row)
            elif not line.strip("\r\n"):
                continue
            else:
                n_fields = line.count(",") + 1
                row = line.split(",", 2)
            if n_fields != width + 2:
                raise ValidationError(f"{path}: ragged rows (row {len(ids) + 1} has "
                                      f"{n_fields} fields, the header {width + 2})")
            ids.append(row[0])
            labels.append(int(row[1]))
        if not ids:
            return ids, np.empty(0, dtype=np.int64), np.empty((0, width))
        fh.seek(0)
        values = np.loadtxt(fh, delimiter=",", skiprows=header_lines,
                            usecols=range(2, width + 2), comments=None,
                            quotechar='"', ndmin=2)
    if values.shape != (len(ids), width):
        raise ValidationError(f"{path}: ragged rows")
    return ids, np.array(labels, dtype=np.int64), values


def _write_wide(path, prefix: str, ids: Sequence, labels, values: np.ndarray) -> None:
    """Common writer for sample_id,label,<prefix>0..<prefix>{w-1} files."""
    values = np.atleast_2d(np.asarray(values))
    header = ["sample_id", "label"] + [f"{prefix}{i}" for i in range(values.shape[1])]
    rows = [[sid, int(lab)] + [float(v) for v in row]
            for sid, lab, row in zip(ids, labels, values)]
    write_csv(path, header, rows)


def write_features(path, ids: Sequence, labels, values: np.ndarray) -> None:
    _write_wide(path, "e", ids, labels, values)


def read_features(path):
    return _read_wide_csv(path, "e")


def write_logits(path, ids: Sequence, labels, logits: np.ndarray) -> None:
    _write_wide(path, "l", ids, labels, logits)


def read_logits(path):
    return _read_wide_csv(path, "l")


def write_probs(path, ids: Sequence, labels, probs: np.ndarray) -> None:
    _write_wide(path, "p", ids, labels, probs)


def read_probs(path):
    return _read_wide_csv(path, "p")


def write_confusion(path, counts: np.ndarray) -> None:
    counts = np.asarray(counts, dtype=np.int64)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row in counts:
            writer.writerow([str(int(v)) for v in row])


def read_confusion(path) -> np.ndarray:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"file not found: {path}")
    with path.open(newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    try:
        mat = np.array([[int(v) for v in row] for row in rows], dtype=np.int64)
    except ValueError as exc:
        raise ValidationError(f"{path}: confusion entries must be integers ({exc})")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"{path}: confusion matrix must be square")
    return mat


def read_certificates(path) -> list[dict]:
    """Rows of a certificates table as the certify command writes them."""
    header, body = _read_csv(path)
    if tuple(header) != CERTIFICATE_COLUMNS:
        raise ValidationError(f"{path}: header must be {','.join(CERTIFICATE_COLUMNS)}")
    out = []
    for row in body:
        out.append({
            "sample_id": row[0],
            "label": int(row[1]),
            "pred": int(row[2]),
            "radius": None if row[3] == "" else parse_float(row[3]),
            "abstain": row[4] == "true",
            "p_a_lower": parse_float(row[5]),
        })
    return out


def write_json(path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path):
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid json ({exc})")


def write_partition(path, partition: LabelPartition) -> None:
    write_json(path, [list(c) for c in partition.classes])


def read_partition(path, n_labels: Optional[int] = None) -> LabelPartition:
    raw = read_json(path)
    if not isinstance(raw, list) or not all(isinstance(c, list) for c in raw):
        raise ValidationError(f"{path}: partition must be a list of label lists")
    return LabelPartition(tuple(tuple(c) for c in raw),
                          n_labels=n_labels or 0)


def model_to_dict(model) -> dict:
    if isinstance(model, LinearSoftmax):
        return {"type": "linear", "W": model.W.tolist(), "b": model.b.tolist()}
    if isinstance(model, SmallMlp):
        return {"type": "mlp", "W1": model.W1.tolist(), "b1": model.b1.tolist(),
                "W2": model.W2.tolist(), "b2": model.b2.tolist()}
    raise ValidationError(f"cannot serialize model type {type(model).__name__}")


def model_from_dict(spec: dict, base_dir: Path | None = None):
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValidationError("model spec must be a dict with a 'type'")
    kind = spec["type"]
    if "path" in spec:
        path = Path(spec["path"])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        inner = read_json(path)
        if inner.get("type", kind) != kind:
            raise ValidationError(f"{path}: model type mismatch")
        return model_from_dict(inner)
    if kind == "linear":
        return LinearSoftmax(W=np.array(spec["W"], dtype=np.float64),
                             b=np.array(spec["b"], dtype=np.float64))
    if kind == "mlp":
        return SmallMlp(W1=np.array(spec["W1"], dtype=np.float64),
                        b1=np.array(spec["b1"], dtype=np.float64),
                        W2=np.array(spec["W2"], dtype=np.float64),
                        b2=np.array(spec["b2"], dtype=np.float64))
    raise ValidationError(f"unknown model type {kind!r}")


def save_model(path, model) -> None:
    write_json(path, model_to_dict(model))


def load_model(path):
    return model_from_dict(read_json(path))


def hierarchy_to_dict(h: Hierarchy) -> dict:
    def encode(node) -> dict:
        if isinstance(node, Leaf):
            if node.classifier is None:
                clf = None
            elif isinstance(node.classifier, MaskedModel):
                clf = model_to_dict(node.classifier.base)
            else:
                clf = model_to_dict(node.classifier)
            return {"kind": "leaf", "labels": list(node.label_subset),
                    "strategy": node.strategy, "classifier": clf}
        return {"kind": "intermediate", "classifier": model_to_dict(node.classifier),
                "children": [encode(c) for c in node.children]}

    return {"n_labels": h.n_labels, "root": encode(h.root)}


def hierarchy_from_dict(spec: dict, base_dir: Path | None = None) -> Hierarchy:
    if "n_labels" not in spec or "root" not in spec:
        raise ValidationError("hierarchy spec needs 'n_labels' and 'root'")

    def decode(node: dict):
        kind = node.get("kind")
        if kind == "leaf":
            labels = tuple(int(i) for i in node["labels"])
            strategy = node.get("strategy", RENORMALIZE)
            clf_spec = node.get("classifier")
            if len(labels) == 1 or clf_spec is None:
                if len(labels) > 1:
                    raise ValidationError(f"leaf {labels} needs a classifier")
                return Leaf(labels, strategy=strategy)
            model = model_from_dict(clf_spec, base_dir)
            if strategy == RENORMALIZE:
                model = MaskedModel(model, labels)
            return Leaf(labels, strategy=strategy, classifier=model)
        if kind == "intermediate":
            children = tuple(decode(c) for c in node["children"])
            return Intermediate(classifier=model_from_dict(node["classifier"], base_dir),
                                children=children)
        raise ValidationError(f"unknown node kind {kind!r}")

    return Hierarchy(root=decode(spec["root"]), n_labels=int(spec["n_labels"]))


def save_hierarchy(path, h: Hierarchy) -> None:
    write_json(path, hierarchy_to_dict(h))


def load_hierarchy(path) -> Hierarchy:
    return hierarchy_from_dict(read_json(path), base_dir=Path(path).parent)

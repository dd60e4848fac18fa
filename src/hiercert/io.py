"""File formats: CSV for bulk numbers, JSON for structure.

All floats are serialized with 17 significant digits so that every emitted
file re-ingests to bit-identical values. Readers are strict about shapes
and headers; schema problems raise ValidationError so the CLI can exit 1,
prefixed with the file they were found in (`_naming`).

A hierarchy file's leaf names its `strategy`: "renormalize" masks a model
of all the file's labels to the leaf's subset (a `MaskedModel`), and
"retrain" takes a model of the leaf's own labels as it is. The word lives
only in the file; a loaded `Leaf` holds the classifier alone.

A wide CSV (features, logits, probabilities) is read by one `np.loadtxt`
record pass per part of its body, a part that `split.parts` may hand to a
second process; `_read_wide_csv` says when.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import mmap
import os
import re
import reprlib
import warnings
from dataclasses import fields
from io import BytesIO, TextIOWrapper
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import split
from .core import LabelPartition
from .errors import ConfigError, ValidationError
from .hierarchy import Hierarchy, Intermediate, Leaf
from .models import LinearSoftmax, MaskedModel, SmallMlp


#: Columns of a certificates table; an abstained row has an empty radius.
CERTIFICATE_COLUMNS = ("sample_id", "label", "pred", "radius", "abstain", "p_a_lower")


def format_float(x: float) -> str:
    """17 significant digits; `inf`, `-inf` and `nan` for the non-finite."""
    return f"{float(x):.17g}"


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


@contextlib.contextmanager
def _naming(source):
    """A ValidationError raised in the block, prefixed with its file or field."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from None


@contextlib.contextmanager
def _open(path):
    """path opened for reading text with newlines untranslated. A missing
    file, one that cannot be opened (a directory), and bytes that do not
    decode while the block reads are a ValidationError naming path."""
    if not os.path.exists(path):
        raise ValidationError(f"file not found: {path}")
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot open: {exc.strerror or exc}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: {exc}") from None


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


#: Files at least this large are read by two processes (`_read_wide_csv`).
#: Measured on two cores from a 96 MB process, the split lost below 1 MB,
#: varied either way between 1 and 3 MB and won by 12-37 % from 4 MB on
#: (BENCH_pr9.json has the table).
SPLIT_MIN_BYTES = 4 << 20


# numpy's loadtxt messages for a cell it cannot convert and a row of the wrong width
_BAD_CELL = re.compile(r"(could not convert string .*) at row (\d+), column (\d+)\.", re.S)
_BAD_WIDTH = re.compile(r".* (\d+) (?:columns but|to) (\d+) (?:were found )?at row (\d+);.*", re.S)


def _loadtxt(fh, path, dtype, **kw) -> np.ndarray:
    """np.loadtxt of the comma-separated rows left in fh, quoted fields
    honoured and blank lines skipped. Errors raise ValidationError naming
    path; a bad cell or row width also names its `data row N`, counted from
    1 over the non-blank rows read here (numpy counts cells' rows from 0)."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, quotechar='"', **kw)
    except ValueError as exc:
        msg = str(exc)
        if found := _BAD_CELL.fullmatch(msg):
            msg = f"data row {int(found[2]) + 1}, column {found[3]}: {found[1]}"
        elif found := _BAD_WIDTH.fullmatch(msg):
            msg = f"data row {found[3]}: expected {found[1]} fields, found {found[2]}"
        raise ValidationError(f"{path}: {msg}") from None


def _records(fh, path, width: int):
    """(ids, labels, values) of the rows left in fh, from one `_loadtxt` record pass."""
    dtype = [("id", object), ("label", np.int64)]
    if width:
        dtype.append(("values", np.float64, (width,)))
    rec = _loadtxt(fh, path, dtype, ndmin=1)
    values = np.ascontiguousarray(rec["values"]) if width else np.empty((len(rec), 0))
    return rec["id"].tolist(), rec["label"].copy(), values


_LINE_BREAK = re.compile(rb"\r\n|\r|\n")


def _cut(mm, start: int) -> Optional[int]:
    """The offset just past the first line break of mm from the middle of
    the body mm[start:] on, or else from its start on, that leaves bytes
    after it; None if there is none."""
    for pos in ((start + len(mm)) // 2, start):
        found = _LINE_BREAK.search(mm, pos)
        if found and found.end() < len(mm):
            return found.end()
    return None


def _read_wide_csv(path, prefix: str):
    """Common reader for sample_id,label,<prefix>0..<prefix>{w-1} files: the
    csv module reads the header, the first non-blank line, and `_records`
    the rest. Converting 17-digit decimals to floats holds the GIL, so the
    body of a file of at least SPLIT_MIN_BYTES with a value column and no
    quote (which could hold a line break) is cut at its `_cut` and goes to
    `split.parts`: the rows up to the cut may be read by a forked child, the
    rest here. The same record pass makes the result bit-identical, and any
    error is the one-process read's error."""
    with _open(path) as fh:
        header: list[str] = []
        start = 0  # characters read; bytes too, as a header that passes is ASCII
        for line in fh:
            start += len(line)
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
        size, cut = os.fstat(fh.fileno()).st_size, None
        if width and size >= SPLIT_MIN_BYTES:
            with contextlib.suppress(OSError), mmap.mmap(fh.fileno(), 0,
                                                          access=mmap.ACCESS_READ) as mm:
                cut = None if mm.find(b'"', start) >= 0 else _cut(mm, start)
        if cut is None:
            return _records(fh, path, width)

        def part(a: int, b: int):
            """The records of the body's halves a/2 to b/2, cut at `cut`."""
            if b == 1:
                head = BytesIO(os.pread(fh.fileno(), cut - start, start))
                return _records(TextIOWrapper(head, encoding=fh.encoding, newline=""),
                                path, width)
            if a == 0:
                return _records(fh, path, width)  # fh is still at start
            fh.seek(cut)
            try:
                return _records(fh, path, width)
            except ValidationError:
                # Its rows are counted from the cut: the whole body's read
                # raises the error that names the first bad row.
                fh.seek(start)
                _records(fh, path, width)
                raise

        got = split.parts(part, size, SPLIT_MIN_BYTES)
        if len(got) == 1:
            return got[0]
        ids, labels, values = zip(*got)
        return sum(ids, []), np.concatenate(labels), np.concatenate(values)


def _write_wide(path, prefix: str, ids: Sequence, labels, values: np.ndarray) -> None:
    """Common writer for sample_id,label,<prefix>0..<prefix>{w-1} files."""
    values = np.asarray(values)
    header = ["sample_id", "label"] + [f"{prefix}{i}" for i in range(values.shape[1])]
    rows = [[sid, int(lab)] + [float(v) for v in row]
            for sid, lab, row in zip(ids, labels, values)]
    write_csv(path, header, rows)


def write_features(path, ids: Sequence, labels, values: np.ndarray) -> None:
    _write_wide(path, "e", ids, labels, values)


def read_features(path):
    """(ids, labels, features) of a features file; a NaN or infinite
    feature is a ValidationError naming its data row and column."""
    ids, labels, values = _read_wide_csv(path, "e")
    finite = np.isfinite(values)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValidationError(f"{path}: data row {row + 1}, column {col + 3}: feature "
                              f"{values[row, col]} is not finite")
    return ids, labels, values


def write_logits(path, ids: Sequence, labels, logits: np.ndarray) -> None:
    _write_wide(path, "l", ids, labels, logits)


def read_logits(path):
    return _read_wide_csv(path, "l")


def write_probs(path, ids: Sequence, labels, probs: np.ndarray) -> None:
    _write_wide(path, "p", ids, labels, probs)


def read_probs(path):
    return _read_wide_csv(path, "p")


def write_confusion(path, counts: np.ndarray) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(path, np.asarray(counts, dtype=np.int64), fmt="%d", delimiter=",")


def read_confusion(path) -> np.ndarray:
    """A headerless square matrix of int64 counts, read by `_loadtxt`."""
    with _open(path) as fh:
        mat = _loadtxt(fh, path, np.int64, ndmin=2)
    if mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"{path}: confusion matrix must be square")
    return mat


def write_json(path, obj) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key given twice is a ValidationError."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValidationError(f"duplicate key {key!r}")
        seen.add(key)
    return dict(pairs)


def read_json(path):
    """The JSON value in path; a key repeated in one object is rejected."""
    with _open(path) as fh, _naming(path):
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid json ({exc})")


#: The default of a schema key that the object must carry.
REQUIRED = object()


def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def is_num(v) -> bool:
    """A finite number: NaN, +-Infinity and literals that overflow a float
    (1e999, a 400-digit integer) fail."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


def is_str(v) -> bool:
    return isinstance(v, str)


def is_dict(v) -> bool:
    return isinstance(v, dict)


def list_of(check):
    """A check for a nonempty list whose items all pass `check`."""
    return lambda v: isinstance(v, list) and len(v) > 0 and all(map(check, v))


def positive(check):
    """A check that also requires the value to be > 0."""
    return lambda v: check(v) and v > 0


def between(lo, hi):
    """A check for a number strictly between lo and hi."""
    return lambda v: is_num(v) and lo < v < hi


def is_nonneg_num(v) -> bool:
    return is_num(v) and v >= 0


def is_nonneg_int(v) -> bool:
    return is_int(v) and v >= 0


is_num_list, is_int_list = list_of(is_num), list_of(is_int)
is_pos_num, is_pos_int = positive(is_num), positive(is_int)


def check_object(obj, schema: dict, where: str, prefix: Optional[str] = None) -> dict:
    """`obj` checked against `schema`, as a new dict with defaults filled in.

    The schema maps each allowed key to `(default or REQUIRED, check, hint)`;
    `check` is a predicate on the value, or the schema of a nested object.
    Errors name the field `prefix + key` (prefix: `where.` unless given), as
    `attack.epsilon`, and an unknown key also `where`, the object holding it.
    """
    prefix = where + "." if prefix is None else prefix
    if not isinstance(obj, dict):
        raise ConfigError("<root>", f"'{where}' must be a JSON object", hint="{...}")
    for key in obj:
        if key not in schema:
            raise ConfigError(prefix + key, f"unknown key for '{where}'",
                              hint=f"allowed keys: {', '.join(sorted(schema))}")
    out = {}
    for key, (default, check, hint) in schema.items():
        name = prefix + key
        if key not in obj:
            if default is REQUIRED:
                raise ConfigError(name, "missing required key", hint=hint)
            out[key] = default
            continue
        value, nested = obj[key], isinstance(check, dict)
        if not (is_dict(value) if nested else check(value)):
            raise ConfigError(name, f"invalid value {reprlib.repr(value)}", hint=hint)
        out[key] = check_object(value, check, name) if nested else value
    return out


def _variant(obj, key: str, variants: dict, where: str, what: str):
    """The entry of `variants` named by obj[key]: a model's type, a node's kind."""
    kind = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in variants:
        raise ConfigError(f"{where}.{key}", f"unknown {what} {kind!r}",
                          hint=" or ".join(map(repr, variants)))
    return variants[kind]


def write_partition(path, partition: LabelPartition) -> None:
    write_json(path, [list(c) for c in partition.classes])


def read_partition(path, n_labels: Optional[int] = None) -> LabelPartition:
    raw = read_json(path)
    with _naming(path):
        if not isinstance(raw, list) or not all(isinstance(c, list) for c in raw):
            raise ValidationError("partition must be a list of label lists")
        return LabelPartition(tuple(tuple(c) for c in raw), n_labels=n_labels or 0)


#: Each model file type and its class, whose dataclass fields name the parameters.
_MODELS = {"linear": LinearSoftmax, "mlp": SmallMlp}


def model_to_dict(model) -> dict:
    for kind, cls in _MODELS.items():
        if isinstance(model, cls):
            return {"type": kind, **{f.name: getattr(model, f.name).tolist() for f in fields(cls)}}
    raise ValidationError(f"cannot serialize model type {type(model).__name__}")


_MODEL_TYPE = (REQUIRED, is_str, "'linear' or 'mlp'")
_MODEL_FILE = {"type": _MODEL_TYPE, "path": (REQUIRED, is_str, "model json path")}
_PARAM = (REQUIRED, lambda v: is_num_list(v) or list_of(is_num_list)(v), "(rows of) numbers")


def model_from_dict(spec: dict, base_dir: Path | None = None, where: str = "model"):
    """A built-in model from its type and parameters, or from its type and
    the path of its model file (relative to base_dir); `where` names it."""
    if isinstance(spec, dict) and "path" in spec:
        ref = check_object(spec, _MODEL_FILE, where)
        path = Path(base_dir or "", ref["path"])
        spec, where = read_json(path), str(path)
        if not isinstance(spec, dict) or spec.get("type") != ref["type"]:
            raise ValidationError(f"{path}: model type mismatch")
    cls = _variant(spec, "type", _MODELS, where, "model type")
    names = [f.name for f in fields(cls)]
    params = check_object(spec, {"type": _MODEL_TYPE, **dict.fromkeys(names, _PARAM)}, where)
    with _naming(where):
        return cls(*(params[name] for name in names))


def save_model(path, model) -> None:
    write_json(path, model_to_dict(model))


def hierarchy_to_dict(h: Hierarchy) -> dict:
    def encode(node) -> dict:
        if isinstance(node, Leaf):
            clf, masked = node.classifier, isinstance(node.classifier, MaskedModel)
            strategy = "retrain" if clf is not None and not masked else "renormalize"
            clf = clf.base if masked else clf
            return {"kind": "leaf", "labels": list(node.label_subset), "strategy": strategy,
                    "classifier": None if clf is None else model_to_dict(clf)}
        return {"kind": "intermediate", "classifier": model_to_dict(node.classifier),
                "children": [encode(c) for c in node.children]}

    return {"n_labels": h.n_labels, "root": encode(h.root)}


_HIERARCHY = {"n_labels": (REQUIRED, is_pos_int, "label-space size"),
              "root": (REQUIRED, is_dict, "the root node")}
_NODE_KIND = (REQUIRED, is_str, "'leaf' or 'intermediate'")
_NODES = {
    "leaf": {"kind": _NODE_KIND, "labels": (REQUIRED, is_int_list, "the leaf's label indices"),
             "strategy": ("renormalize", lambda v: v in ("renormalize", "retrain"),
                          "'renormalize' or 'retrain'"),
             "classifier": (None, lambda v: v is None or is_dict(v),
                            "model spec; a singleton leaf ignores it")},
    "intermediate": {"kind": _NODE_KIND, "classifier": (REQUIRED, is_dict, "routing model spec"),
                     "children": (REQUIRED, list_of(is_dict), "list of child nodes")},
}


def hierarchy_from_dict(spec: dict, base_dir: Path | None = None) -> Hierarchy:
    spec = check_object(spec, _HIERARCHY, "hierarchy", prefix="")

    def decode(node: dict, where: str):
        node = check_object(node, _variant(node, "kind", _NODES, where, "node kind"), where)
        if node["kind"] == "intermediate":
            children = tuple(decode(c, f"{where}.children.{i}")
                             for i, c in enumerate(node["children"]))
            model = model_from_dict(node["classifier"], base_dir, f"{where}.classifier")
            with _naming(where):
                return Intermediate(classifier=model, children=children)
        labels, model, n_labels = tuple(node["labels"]), None, spec["n_labels"]
        if not all(0 <= label < n_labels for label in labels):
            raise ConfigError(f"{where}.labels", f"labels must lie in 0..{n_labels - 1}",
                              hint="label indices below n_labels")
        if len(labels) > 1 and node["classifier"] is not None:
            name = f"{where}.classifier"
            model = model_from_dict(node["classifier"], base_dir, name)
            if node["strategy"] == "renormalize":
                if model.n_labels != n_labels:
                    raise ConfigError(name, f"a 'renormalize' leaf masks a model of all "
                                      f"{n_labels} labels, not {model.n_labels}",
                                      hint="'strategy': 'retrain' for a model of the "
                                           "leaf's own labels")
                model = MaskedModel(model, labels)
        with _naming(where):
            return Leaf(labels, model)

    root = decode(spec["root"], "root")
    with _naming("root"):
        return Hierarchy(root=root, n_labels=spec["n_labels"])


def save_hierarchy(path, h: Hierarchy) -> None:
    write_json(path, hierarchy_to_dict(h))


def load_hierarchy(path) -> Hierarchy:
    """The hierarchy of a hierarchy file; a ValidationError names the file."""
    spec = read_json(path)
    with _naming(path):
        return hierarchy_from_dict(spec, base_dir=Path(path).parent)

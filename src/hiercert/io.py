"""File formats: CSV for bulk numbers, JSON for structure.

All floats are serialized with 17 significant digits so that every emitted
file re-ingests to bit-identical values. Readers are strict about shapes
and headers; schema problems raise ValidationError so the CLI can exit 1.

A hierarchy file's leaf names its `strategy`: "renormalize" masks a model
of all the file's labels to the leaf's subset (a `MaskedModel`), and
"retrain" takes a model of the leaf's own labels as it is. The word lives
only in the file; a loaded `Leaf` holds the classifier alone.

Reading those 17-digit values back is the cost of a wide CSV: CPython's
correctly rounded decimal conversion, under the GIL. A wide file of at
least SPLIT_MIN_BYTES with no quoted field is therefore parsed by two
processes when `os.fork` exists and two CPUs are usable: a forked child
converts the second half of the rows into a shared anonymous mmap while
this process converts the first half. Both halves go through the same
`np.loadtxt` call as the one-process read, so the values are bit-identical;
any failure of the split falls back to that one-process read.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import mmap
import os
import reprlib
import warnings
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import LabelPartition
from .errors import ConfigError, ValidationError
from .hierarchy import Hierarchy, Intermediate, Leaf
from .models import LinearSoftmax, MaskedModel, SmallMlp


#: Columns of a certificates table; an abstained row has an empty radius.
CERTIFICATE_COLUMNS = ("sample_id", "label", "pred", "radius", "abstain", "p_a_lower")


def format_float(x: float) -> str:
    """17 significant digits; `inf`, `-inf` and `nan` for the non-finite."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
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


#: Files at least this large parse their value columns in two processes
#: (`_read_wide_csv`). Measured on two cores from a 96 MB process, the split
#: lost below 1 MB, varied either way between 1 and 3 MB and won by 12-37 %
#: from 4 MB on (BENCH_pr9.json has the table).
SPLIT_MIN_BYTES = 4 << 20


def _loadtxt(fh, skiprows: int, width: int, max_rows: Optional[int] = None) -> np.ndarray:
    """The value columns of a wide CSV from fh, after skiprows lines; a value
    numpy cannot parse raises ValidationError naming the file."""
    try:
        return np.loadtxt(fh, delimiter=",", skiprows=skiprows, usecols=range(2, width + 2),
                          comments=None, quotechar='"', ndmin=2, max_rows=max_rows)
    except ValueError as exc:
        raise ValidationError(f"{fh.name}: {exc}") from None


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _parse_tail(path, encoding: str, offset: int, shape: tuple[int, int], shared) -> None:
    """Forked child: parse the rows from byte `offset` into `shared`, then exit.

    Exits 0 only when it parsed exactly `shape`; it never returns and never
    writes to stdout or stderr.
    """
    code = 1
    try:
        warnings.simplefilter("ignore")
        with open(path, newline="", encoding=encoding) as fh:
            fh.seek(offset)
            tail = _loadtxt(fh, 0, shape[1])
        if tail.shape == shape:
            np.frombuffer(shared, dtype=np.float64).reshape(shape)[...] = tail
            code = 0
    finally:
        os._exit(code)


def _loadtxt_halves(fh, path, header_lines: int, width: int, n: int,
                    offset: int) -> Optional[np.ndarray]:
    """Rows 0..n//2 parsed here, rows n//2.. by a forked child into a shared
    anonymous mmap; `offset` is the byte offset of row n//2. Returns None
    when fork or mmap fails, the child does not exit 0, or this half is not
    n//2 rows; the caller then parses the whole file serially.
    """
    half = n // 2
    tail_shape = (n - half, width)
    try:
        shared = mmap.mmap(-1, tail_shape[0] * width * 8)
    except OSError:
        return None
    with shared:
        try:
            pid = os.fork()
        except OSError:
            return None
        if pid == 0:
            _parse_tail(path, fh.encoding, offset, tail_shape, shared)
        try:
            fh.seek(0)
            with warnings.catch_warnings():
                # Blank lines do not count towards max_rows, as wanted here.
                warnings.filterwarnings("ignore", "Input line", UserWarning)
                head = _loadtxt(fh, header_lines, width, max_rows=half)
        finally:
            _, status = os.waitpid(pid, 0)
        if status != 0 or head.shape != (half, width):
            return None
        values = np.empty((n, width))
        values[:half] = head
        values[half:] = np.frombuffer(shared, dtype=np.float64).reshape(tail_shape)
    return values


def _read_wide_csv(path, prefix: str):
    """Common reader for sample_id,label,<prefix>0..<prefix>{w-1} files.

    One pass over the lines takes the ids and labels and checks every row's
    field count; numpy's C parser then reads the value columns from the same
    open file. Only rows holding a quote go through the csv module, so ids
    that csv.writer quoted (commas, quotes, newlines) still parse.

    Converting 17-digit decimals to floats dominates the read and holds the
    GIL, so a large file (at least SPLIT_MIN_BYTES, no row holding a quote,
    at least two rows and one value column, `os.fork` available and more
    than one usable CPU) is parsed by two processes: a forked child parses
    the second half of the rows from its byte offset while this process
    parses the first half. Each field goes through the same `np.loadtxt`
    call as in the one-process read, so the values are bit-identical. A bad
    value in the first half raises from this process's own call, with the
    one-process read's message. On any other failure (fork or mmap raises,
    the child exits non-zero or is killed, a half has the wrong row count)
    the whole file is parsed again by the one-process call, which raises
    that read's errors. A label that is not an integer, or a value numpy
    cannot parse, raises ValidationError naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"file not found: {path}")
    with path.open(newline="") as fh:
        header_lines = 0
        header: list[str] = []
        pos = 0  # characters read so far; exact until a quoted row
        for line in fh:
            header_lines += 1
            pos += len(line)
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
        starts: list[int] = []  # character offset of each row's line
        quoted = False
        for line in fh:
            start, pos = pos, pos + len(line)
            if '"' in line:
                # A quoted field may span lines; the reader pulls them from fh.
                quoted = True
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
            try:
                labels.append(int(row[1]))
            except ValueError:
                raise ValidationError(f"{path}: row {len(ids) + 1} label {row[1]!r} "
                                      "is not an integer") from None
            ids.append(row[0])
            starts.append(start)
        n = len(ids)
        if not n:
            return ids, np.empty(0, dtype=np.int64), np.empty((0, width))
        values = None
        size = os.fstat(fh.fileno()).st_size
        if (not quoted and size >= SPLIT_MIN_BYTES and n > 1 and width > 0
                and hasattr(os, "fork") and _usable_cpus() > 1):
            # Characters are bytes when every character took one byte;
            # otherwise encode the text before row n//2 to count its bytes.
            offset = starts[n // 2]
            if pos != size:
                fh.seek(0)
                offset = len(fh.read(offset).encode(fh.encoding))
            values = _loadtxt_halves(fh, path, header_lines, width, n, offset)
        if values is None:
            fh.seek(0)
            values = _loadtxt(fh, header_lines, width)
    if values.shape != (n, width):
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
            "radius": None if row[3] == "" else float(row[3]),
            "abstain": row[4] == "true",
            "p_a_lower": float(row[5]),
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


def is_nonneg_num(v) -> bool:
    return is_num(v) and v >= 0


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
    if not isinstance(raw, list) or not all(isinstance(c, list) for c in raw):
        raise ValidationError(f"{path}: partition must be a list of label lists")
    return LabelPartition(tuple(tuple(c) for c in raw), n_labels=n_labels or 0)


def model_to_dict(model) -> dict:
    if isinstance(model, LinearSoftmax):
        return {"type": "linear", "W": model.W.tolist(), "b": model.b.tolist()}
    if isinstance(model, SmallMlp):
        return {"type": "mlp", "W1": model.W1.tolist(), "b1": model.b1.tolist(),
                "W2": model.W2.tolist(), "b2": model.b2.tolist()}
    raise ValidationError(f"cannot serialize model type {type(model).__name__}")


_MODELS = {"linear": (LinearSoftmax, ("W", "b")), "mlp": (SmallMlp, ("W1", "b1", "W2", "b2"))}
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
    cls, names = _variant(spec, "type", _MODELS, where, "model type")
    params = check_object(spec, {"type": _MODEL_TYPE, **dict.fromkeys(names, _PARAM)}, where)
    return cls(**{name: params[name] for name in names})


def save_model(path, model) -> None:
    write_json(path, model_to_dict(model))


def load_model(path):
    return model_from_dict(read_json(path))


def hierarchy_to_dict(h: Hierarchy) -> dict:
    def encode(node) -> dict:
        if isinstance(node, Leaf):
            strategy, clf = "renormalize", node.classifier
            if isinstance(clf, MaskedModel):
                clf = clf.base
            elif clf is not None:
                strategy = "retrain"
            return {"kind": "leaf", "labels": list(node.label_subset), "strategy": strategy,
                    "classifier": None if clf is None else model_to_dict(clf)}
        return {"kind": "intermediate", "classifier": model_to_dict(node.classifier),
                "children": [encode(c) for c in node.children]}

    return {"n_labels": h.n_labels, "root": encode(h.root)}


_HIERARCHY = {"n_labels": (REQUIRED, is_int, "label-space size"),
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
            return Intermediate(classifier=model, children=children)
        labels, model = tuple(node["labels"]), None
        if len(labels) > 1 and node["classifier"] is not None:
            name = f"{where}.classifier"
            model = model_from_dict(node["classifier"], base_dir, name)
            if node["strategy"] == "renormalize":
                if model.n_labels != spec["n_labels"]:
                    raise ConfigError(name, f"a 'renormalize' leaf masks a model of all "
                                      f"{spec['n_labels']} labels, not {model.n_labels}",
                                      hint="'strategy': 'retrain' for a model of the "
                                           "leaf's own labels")
                model = MaskedModel(model, labels)
        return Leaf(labels, model)

    return Hierarchy(root=decode(spec["root"], "root"), n_labels=spec["n_labels"])


def save_hierarchy(path, h: Hierarchy) -> None:
    write_json(path, hierarchy_to_dict(h))


def load_hierarchy(path) -> Hierarchy:
    return hierarchy_from_dict(read_json(path), base_dir=Path(path).parent)

import ast
import re
from pathlib import Path

import hiercert


def test_public_names_resolve():
    for name in hiercert.__all__:
        assert hasattr(hiercert, name), name


def test_star_import():
    namespace = {}
    exec("from hiercert import *", namespace)
    assert set(hiercert.__all__) <= set(namespace)


def test_helpers_import_no_private_library_names():
    # the oracles in helpers.py must not share the library's private code
    tree = ast.parse((Path(__file__).parent / "helpers.py").read_text())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hiercert")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


#: Public names that nothing in src/hiercert calls, or that only names listed
#: here call, each with the reason it stays: the paper's analytic
#: construction is tested through it, or a planned ROADMAP Direction will
#: call it.
_UNCALLED = {
    "errors.RoutingMismatchError": "paper construction tested through it",
    "errors.TrainingDivergenceError": "Direction 3 will call it",
    "hierarchy.build_renormalize_hierarchy": "Direction 3 will call it",
    "hierarchy.flat_hierarchy": "Direction 1 will call it",
    "hierarchy.infer_batch": "Direction 1 will call it",
    "hierarchy.leaf_certificate_renormalized": "paper construction tested through it",
    "hierarchy.hierarchy_certificate": "Direction 1 will call it",
    "hierarchy.retrain_leaf": "Direction 3 will call it",
    "io.hierarchy_to_dict": "Direction 3 will call it",
    "io.model_to_dict": "Direction 3 will call it",
    "io.write_features": "Direction 3 will call it",
    "io.write_logits": "Direction 5 will call it",
    "io.write_probs": "Direction 5 will call it",
    "io.write_confusion": "Direction 3 will call it",
    "io.save_model": "Direction 3 will call it",
    "io.save_hierarchy": "Direction 3 will call it",
    "models.cross_entropy": "Direction 3 will call it",
    "models.train": "Direction 3 will call it",
    "numerics.normal_cdf": "paper construction tested through it",
    "smoothing.margin_radius": "paper construction tested through it",
    "toymodels.linf_flip_attack": "paper construction tested through it",
    "toymodels.meta_feature_accuracy": "paper construction tested through it",
}
_REASON = re.compile(r"paper construction tested through it|Direction \d+ will call it")


def test_every_public_name_has_a_caller_or_a_reason():
    # A public name is a top-level def or class of a module. It is called if
    # some Name or Attribute outside its own body loads it, and that load is
    # not inside an uncalled name: a name only uncalled names use is uncalled
    # too, found by iterating to a fixed point.
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(Path(hiercert.__file__).parent.glob("*.py"))}
    public = {f"{mod}.{node.name}": node for mod, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    inside = {id(n): key for key, node in public.items() for n in ast.walk(node)}
    loaded = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
                loaded.setdefault(name, set()).add(inside.get(id(node)))
    uncalled, grown = set(), True
    while grown:
        found = {key for key in public if key.split(".")[1] not in hiercert.__all__
                 and not loaded.get(key.split(".")[1], set()) - {key} - uncalled}
        uncalled, grown = found, found != uncalled
    assert sorted(uncalled - set(_UNCALLED)) == []
    # an entry whose name has gone or found a caller is stale
    assert sorted(set(_UNCALLED) - uncalled) == []
    assert [key for key, why in _UNCALLED.items() if not _REASON.fullmatch(why)] == []

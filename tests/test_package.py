import hiercert


def test_public_names_resolve():
    for name in hiercert.__all__:
        assert hasattr(hiercert, name), name


def test_star_import():
    namespace = {}
    exec("from hiercert import *", namespace)
    assert set(hiercert.__all__) <= set(namespace)

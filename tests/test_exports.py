import importlib

import pytest


@pytest.mark.parametrize("name", ("geometry", "confgroup", "flows", "modular", "chiral"))
def test_all_names_exist_and_star_import(name):
    # every exported name is defined, once, and a star import binds them all
    module = importlib.import_module(f"confmod.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from confmod.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)

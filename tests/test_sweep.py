"""sweep.py's registry slicing: ``--only`` filters within ``--first``."""

import importlib.util
from pathlib import Path


def _sweep():
    spec = importlib.util.spec_from_file_location(
        "sweep", Path(__file__).resolve().parents[1] / "sweep.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_only_filters_within_first():
    select = _sweep().select_names
    names = ["q_a", "q_b", "q_c", "q_d"]
    assert select(names, None, None) == names
    assert select(names, 2, None) == ["q_a", "q_b"]
    assert select(names, None, "q_d,q_b,q_x") == ["q_b", "q_d"]
    # q_c lies outside the first two, so --only cannot bring it back
    assert select(names, 2, "q_b,q_c") == ["q_b"]

import re
import types
from pathlib import Path

import robustwalk

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    "AngleSchedule",
    "BipartiteInstance",
    "ReducedModel",
    "build_model",
    "build_schedule",
    "closed_form_ph",
    "oscillatory_schedule",
    "run",
    "run_reduced",
    "scenario_from_counts",
    "step_bound",
    "step_bound_threshold",
    "sweep",
]


def test_public_names_are_pinned():
    assert robustwalk.__all__ == PUBLIC
    assert len(PUBLIC) == 13


def test_every_public_name_resolves():
    for name in robustwalk.__all__:
        assert getattr(robustwalk, name) is not None, name


def test_namespace_holds_only_public_names_and_submodules():
    # a leftover re-export of an internal fails here
    extra = {name for name in vars(robustwalk) if not name.startswith("_")} - set(PUBLIC)
    for name in extra:
        value = getattr(robustwalk, name)
        assert isinstance(value, types.ModuleType) and value.__name__ == f"robustwalk.{name}", name


def test_readme_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    scope = {}
    exec(block, scope)
    assert scope["h"] == 28
    assert abs(scope["p"] - scope["p_closed"]) <= 1e-9
    assert scope["p"] >= 1 - 0.1
    assert [r.h for r in scope["rows"]] == list(range(1, 41))
    assert min(r.p_robust for r in scope["past_bound"]) >= 1 - 0.1
    assert min(r.p_oscillatory for r in scope["past_bound"]) < 1 - 0.1

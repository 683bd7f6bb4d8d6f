import sys
from pathlib import Path

import burgerslab

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_exported_name_resolves():
    assert len(set(burgerslab.__all__)) == len(burgerslab.__all__)
    for name in burgerslab.__all__:
        assert getattr(burgerslab, name) is not None, name


def test_benchmark_patch_targets_exist_and_are_restored():
    # perfbench/spans.py wraps functions under every module name their
    # callers look them up by; a name that a refactor drops fails here
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"

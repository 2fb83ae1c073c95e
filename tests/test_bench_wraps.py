"""The benchmark's tracer can wrap every name it lists.

bench/spans.py times a traced op by swapping each name in its WRAPS for a
timing wrapper where that name is looked up. A name deleted or renamed under
src/ makes the swap fail, and with it every ``bench/run.py --trace 1`` run.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402


def _current(wraps):
    return [getattr(importlib.import_module(w.module), w.attr) for w in wraps]


def test_tracer_installs_every_wrap_and_restores_it():
    before = _current(spans.WRAPS)
    with spans.Tracer().installed():
        during = _current(spans.WRAPS)
    assert all(wrapped is not original for wrapped, original in zip(during, before))
    assert all(now is original for now, original in zip(_current(spans.WRAPS), before))

"""The benchmark's span hooks still find every numax name they replace.

`perfbench/spans.py` hooks module attributes by name and reports a metric as
absent when its target is gone, so a rename in the package would silently
drop per-layer metrics. This test loads the hook module by path, installs
every hook and builds one problem through a hooked builder.
"""

import importlib.util
from pathlib import Path

import numpy as np

from numax import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves():
    spans = _load_spans()
    tracer = spans.Tracer()
    original = cli.build_2d_benchmark
    with spans.Patches() as patches:
        tracer.install(patches)
        problem = cli.build_2d_benchmark()
        problem.eval_objective(np.zeros(problem.dim_primal))
    assert cli.build_2d_benchmark is original
    assert patches.missing == []
    assert spans.absent_metrics(patches.missing) == set()
    recorded = [tracer.names[i] for i in tracer.name_id]
    assert recorded == ["problems.build", "problems.objective"]

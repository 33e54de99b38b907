"""The benchmark's span hooks still find every numax name they replace, and
its set-up probe still stops where solving begins.

`perfbench/spans.py` hooks module attributes by name and reports a metric as
absent when its target is gone, so a rename in the package would silently
drop per-layer metrics. These tests load the hook module by path, install
every hook and build one problem through a hooked builder, and check that a
traced run records a span for every dual step. The set-up probe
stops at the first call of a problem's five callables; an evaluation path
that bypassed them would let the probe run the whole workload into
`setup_s`.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from numax import (
    LoopConfig,
    NuPIConfig,
    PrimalKind,
    PrimalOptimizerConfig,
    Scheme,
    build_2d_benchmark,
    cli,
    loop,
)

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


def test_traced_run_records_every_dual_step():
    # The per-layer dual metrics count the spans around the names the loop
    # calls; a step that bypassed them would read as no dual work.
    spans = _load_spans()
    tracer = spans.Tracer()
    config = LoopConfig(scheme=Scheme.ALTERNATING, max_steps=37,
                        dual_optimizer=NuPIConfig(nu=0.0, kp=3.0, ki=0.01),
                        primal_optimizer=PrimalOptimizerConfig(kind=PrimalKind.GRADIENT_DESCENT,
                                                               step_size=0.002))
    with spans.Patches() as patches:
        tracer.install(patches)
        trajectory = loop.run(build_2d_benchmark(), [-0.5, -2.0], np.zeros(1), config)
    assert patches.missing == [] and trajectory.final.t == 37
    recorded = [tracer.names[i] for i in tracer.name_id]
    assert recorded.count("dual_optimizers.dual_step") == 37
    assert recorded.count("dual_optimizers.replace_theta") == 37


@pytest.mark.parametrize("argv,artefact", [
    (["run", "--problem.kind", "benchmark2d", "--loop.max_steps", "50000"], "trajectory.csv"),
    (["grid", "--problem.kind", "benchmark2d", "--loop.max_steps", "50000",
      "--grid.kp", "0,3", "--grid.ki", "0.01"], "grid.csv"),
], ids=["run", "grid"])
def test_first_step_stop_fires_before_the_first_step(tmp_path, argv, artefact):
    spans = _load_spans()
    with spans.Patches() as patches:
        spans.install_first_step_stop(patches)
        with pytest.raises(spans.FirstStep):
            cli.main([*argv, "--output-dir", str(tmp_path)])
    assert not (tmp_path / artefact).exists()

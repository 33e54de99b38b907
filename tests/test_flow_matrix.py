"""The flow matrix (`tests/tools/flow_matrix.py`): three flows run through
both sides against this tree come out identical, and a flow declared to
differ that does not fails the run. The full matrix is run by hand."""

import importlib.util
from pathlib import Path

from numax import analysis

_TOOL = Path(__file__).resolve().parent / "tools" / "flow_matrix.py"
_spec = importlib.util.spec_from_file_location("flow_matrix", _TOOL)
matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(matrix)

_SRC = Path(analysis.__file__).resolve().parents[1]


def test_differences_name_each_field():
    base = dict.fromkeys(matrix.FIELDS, "0")
    assert matrix.differences(base, dict(base)) == []
    assert matrix.differences(base, {**base, "flagged": "1", "x": "1"}) == ["flagged", "x"]
    assert matrix.differences(base, {"error": "0"}) == ["error", *sorted(matrix.FIELDS)]


def test_three_flows_identical_against_themselves(capsys):
    names = ["qp-flow-1-0", "tiny-start-stepped-again-30-3", "huge-entry-x0-10-t-0"]
    argv = ["--parent", str(_SRC), "--change", str(_SRC), "--expect-diff", names[-1]]
    for name in names:
        argv += ["--only", name]
    assert matrix.main(argv) == 1  # the declared flow does not differ
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == [f"identical          {names[0]}", f"identical          {names[1]}",
                       f"unchanged-declared {names[2]}"]
    assert out[3].startswith("3 flows: 2 identical, 0 declared differences, 0 undeclared "
                             "differences, 1 declared but identical; wall time ")

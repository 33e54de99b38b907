"""The artefact matrix (`tests/tools/artefact_matrix.py`): its table parses as
numax arguments, its ids are unique, and a short command run twice through the
runner against this tree comes out identical. The full matrix is run by hand."""

import importlib.util
from pathlib import Path

from numax import cli

_TOOL = Path(__file__).resolve().parent / "tools" / "artefact_matrix.py"
_spec = importlib.util.spec_from_file_location("artefact_matrix", _TOOL)
matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(matrix)

_SRC = Path(cli.__file__).resolve().parents[1]


def test_table_parses_with_unique_ids():
    ids = [name for name, _ in matrix.TABLE]
    assert len(ids) == len(set(ids)) == len(matrix.COMMANDS)
    for name, argv in matrix.TABLE:
        assert argv and all(isinstance(token, str) for token in argv)
        if name.startswith("bad-"):  # a malformed command may fail to parse on purpose
            continue
        _, extras = cli._build_parser().parse_known_args(argv)
        for key, _ in cli._split_overrides(extras):  # every override names a setting
            section, _, setting = key.partition(".")
            assert setting in cli._DEFAULTS[section], (name, key)


def test_differences_name_each_artefact():
    base = {"exit": 0, "stdout": b"a\nb\n", "stderr": b"", "files": {"out/x.csv": b"1\n"}}
    assert matrix.differences(base, dict(base)) == []
    other = {"exit": 2, "stdout": b"a\nc\n", "stderr": b"", "files": {"out/y.csv": b"1\n"}}
    assert matrix.differences(base, other) == [
        "exit 0 -> 2", "stdout line 2: b'b' -> b'c'", "file out/x.csv only in parent",
        "file out/y.csv only in change"]


def test_short_command_identical_against_itself(capsys):
    name = "run-benchmark2d-nupi-alternating-restarts-false"
    assert matrix.main(["--parent", str(_SRC), "--change", str(_SRC), "--only", name]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"identical          exit 0  {name}\n")
    assert "1 commands: 1 identical, 0 declared differences, 0 undeclared" in out
    result = matrix.run_command(_SRC, matrix.COMMANDS[name])
    assert result["exit"] == 0 and "out/trajectory.csv" in result["files"]

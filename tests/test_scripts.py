"""The committed out/ files are what the analysis scripts write.

Each script is loaded as a module, its OUT pointed at a temporary directory,
and its main() run. The result must match the committed file: keys, text
cells and integers exactly, floats within 1e-12 (relative above magnitude 1).
"""
import csv
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOAT_TOL = 1e-12


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _load_csv(path: Path):
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return [header] + [[cell(text) for text in row] for row in rows]


def _assert_matches(new, old, where="$"):
    if isinstance(old, float):
        assert isinstance(new, float), f"{where}: {new!r} is not a float"
        assert abs(new - old) <= FLOAT_TOL * max(1.0, abs(old)), f"{where}: {new!r} != {old!r}"
    elif isinstance(old, dict):
        assert list(new) == list(old), f"{where}: keys {list(new)} != {list(old)}"
        for key in old:
            _assert_matches(new[key], old[key], f"{where}.{key}")
    elif isinstance(old, list):
        assert len(new) == len(old), f"{where}: length {len(new)} != {len(old)}"
        for i, (n, o) in enumerate(zip(new, old)):
            _assert_matches(n, o, f"{where}[{i}]")
    else:
        assert type(new) is type(old) and new == old, f"{where}: {new!r} != {old!r}"


@pytest.mark.parametrize("script, output, load", [
    pytest.param("reproduce_analysis", "reproduce_analysis.json", _load_json, id="reproduce_analysis"),
    pytest.param("branch_scaling_study", "branch_scaling.csv", _load_csv, id="branch_scaling_study"),
])
def test_script_reproduces_committed_output(tmp_path, script, output, load):
    spec = importlib.util.spec_from_file_location(script, ROOT / "scripts" / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.OUT = tmp_path
    assert module.main() == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [output]
    _assert_matches(load(tmp_path / output), load(ROOT / "out" / output))

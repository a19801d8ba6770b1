"""The control table: every model file under ``controls/`` runs through
``report --input`` and must exit with its code and fail exactly the checks
that ``controls/controls.json`` lists for it, or write no report and name
its fault in the one stderr line the table gives."""

import json
from pathlib import Path

import pytest

from fellkit.cli import main

CONTROLS = Path(__file__).parent / "controls"
TABLE = json.loads((CONTROLS / "controls.json").read_text(encoding="utf-8"))["controls"]


def test_the_table_lists_every_model_file():
    assert {p.name for p in CONTROLS.glob("*.json")} - {"controls.json"} == set(TABLE)


@pytest.mark.parametrize("name", TABLE)
def test_a_control_fails_exactly_its_listed_checks(name, tmp_path, capsys):
    expect, out = TABLE[name], tmp_path / "report.json"
    assert main(["report", "--input", str(CONTROLS / name), "--out", str(out)]) \
        == expect["exit"]
    if expect["fails"] is None:
        assert not out.exists() and capsys.readouterr().err == expect["stderr"] + "\n"
    else:
        checks = json.loads(out.read_text())["checks"]
        assert {c["check"] for c in checks if not c["pass"]} == set(expect["fails"])

import json
import re

import numpy as np
import pytest

from conftest import load_script
from qwsearch import graph
from qwsearch.cli import UsageError, build_parser

DATASETS = load_script("run_datasets")
RUNS = DATASETS.RUNS
CAPTURE = load_script("capture_cli")


def test_dataset_outputs_are_distinct():
    names = [name for name, _ in RUNS]
    assert len(names) == len(set(names)) == 25


@pytest.mark.parametrize("name, argv", RUNS, ids=[name for name, _ in RUNS])
def test_dataset_argv_parses(name, argv):
    # a renamed or removed flag breaks this test instead of the dataset script
    args = build_parser().parse_args([*argv, "--out", name])
    assert args.command == argv[0]


def test_dataset_script_writes_every_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(DATASETS, "OUT_DIR", tmp_path)
    DATASETS.run()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(name for name, _ in RUNS)
    assert capsys.readouterr().out.count("wrote ") == 25
    rows = [line.split(",") for line in
            (tmp_path / "runtime_regimes.csv").read_text().splitlines()[1:]]
    switches = [int(row[0]) for prev, row in zip(rows, rows[1:]) if row[6] != prev[6]]
    # signless-right to adjacency at k1 = 12, adjacency to Laplacian-left at 34
    assert switches == [12, 34]


def test_dataset_script_stops_at_a_failing_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(DATASETS, "OUT_DIR", tmp_path)
    monkeypatch.setattr(DATASETS, "main", lambda argv: 1)
    name, argv = RUNS[0]
    with pytest.raises(SystemExit, match=f"^{re.escape(' '.join(argv))} exited 1$"):
        DATASETS.run()
    assert capsys.readouterr().out == ""


def test_capture_command_names_are_distinct():
    names = [name for name, _ in CAPTURE.COMMANDS]
    assert len(names) == len(set(names)) == 213


def test_capture_reads_one_long_shuffled_edge_list(tmp_path):
    # the only capture input that the graph has to sort, long enough that
    # NumPy reads it from its path: the rows as read are out of order,
    # reversed and repeated
    text = CAPTURE._input_files()[CAPTURE.SHUFFLED_CUBE]
    path = tmp_path / "cube.txt"
    path.write_text(text)
    assert len(text) >= graph._BULK_CHARS
    rows = graph._plain_rows(path)[1:]
    u, v = rows.T.copy()
    assert not (np.all(u < v) and graph._rows_increase(u, v))
    cube = graph.read_edge_list(path)
    assert cube == graph.Graph(512, CAPTURE._hypercube(9))
    assert len(rows) == cube.m + 1


# the rows that the parser itself must refuse: a flag the subcommand lacks,
# and command lines without a subcommand in front
CHOICES = "(choose from 'simulate', 'sweep-gamma', 'overlaps', 'runtimes', 'verify-spin')"
PARSER_REFUSALS = {
    "refuse-runtimes-walk": "unrecognized arguments: --walk laplacian",
    "refuse-no-command": "the following arguments are required: command",
    "refuse-unknown-command": f"argument command: invalid choice: 'bogus' {CHOICES}",
    "refuse-command-prefix": f"argument command: invalid choice: 'verify' {CHOICES}",
    "refuse-option-before-command": f"argument command: invalid choice: '1' {CHOICES}",
    "refuse-verify-spin-n1": "unrecognized arguments: --n1 3",
    "refuse-verify-spin-dashes": "unrecognized arguments: -- x",
}


@pytest.mark.parametrize(
    "name, argv", CAPTURE.COMMANDS, ids=[name for name, _ in CAPTURE.COMMANDS]
)
def test_capture_argv_parses(name, argv):
    if name in PARSER_REFUSALS:
        with pytest.raises(UsageError, match=f"^{re.escape(PARSER_REFUSALS[name])}$"):
            build_parser().parse_args(argv)
        return
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


def _capture_file(path, outputs):
    records = [
        {"name": name, "argv": [name], "exit": 0, "stdout": out, "stderr": ""}
        for name, out in outputs.items()
    ]
    path.write_text(json.dumps({"commands": records}))
    return path


def test_capture_compare_reports_deviation_and_mismatch(tmp_path, capsys):
    before = _capture_file(
        tmp_path / "a.json", {"curve": "t,p\n10.0,0.5\n", "spin": "result=PASS\n"}
    )
    shifted = _capture_file(
        tmp_path / "b.json", {"curve": "t,p\n10.000000000001,0.5\n", "spin": "result=PASS\n"}
    )
    assert CAPTURE.compare(before, shifted, tol=1e-9) == 0
    assert "worst deviation: 1e-13" in capsys.readouterr().out
    assert CAPTURE.compare(before, shifted, tol=1e-14) == 1
    flipped = _capture_file(
        tmp_path / "c.json", {"curve": "t,p\n10.0,0.5\n", "spin": "result=FAIL\n"}
    )
    assert CAPTURE.compare(before, flipped, tol=1e-9) == 1
    assert "'PASS' against 'FAIL'" in capsys.readouterr().out
    undefined = _capture_file(
        tmp_path / "d.json", {"curve": "t,p\n10.0,nan\n", "spin": "result=PASS\n"}
    )
    assert CAPTURE.compare(before, undefined, tol=1e-9) == 1
    assert "'0.5' against 'nan'" in capsys.readouterr().out
    refused = json.loads(before.read_text())
    refused["commands"][1].update(exit=1, stdout="", stderr="usage error: bad\n")
    (tmp_path / "e.json").write_text(json.dumps(refused))
    assert CAPTURE.compare(before, tmp_path / "e.json", tol=1e-9) == 1
    assert (
        "mismatch: spin: exit 0 against 1; stderr line 1: '' against 'usage error: bad\\n'"
        in capsys.readouterr().out
    )

import json

import numpy as np
import pytest

from conftest import load_script
from qwsearch import graph
from qwsearch.cli import UsageError, build_parser

RUNS = load_script("run_datasets").RUNS
CAPTURE = load_script("capture_cli")


def test_dataset_outputs_are_distinct():
    names = [name for name, _ in RUNS]
    assert len(names) == len(set(names)) == 25


@pytest.mark.parametrize("name, argv", RUNS, ids=[name for name, _ in RUNS])
def test_dataset_argv_parses(name, argv):
    # a renamed or removed flag breaks this test instead of the dataset script
    args = build_parser().parse_args([*argv, "--out", name])
    assert args.command == argv[0]


def test_capture_command_names_are_distinct():
    names = [name for name, _ in CAPTURE.COMMANDS]
    assert len(names) == len(set(names)) == 162


def test_capture_reads_one_long_shuffled_edge_list(tmp_path):
    # the only capture input that NumPy's bulk reader takes and the graph
    # has to sort: the rows as read are out of order, reversed and repeated
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


# the rows that the parser itself must refuse: a flag the subcommand lacks
PARSER_REFUSALS = {"refuse-runtimes-walk": "unrecognized arguments: --walk laplacian"}


@pytest.mark.parametrize(
    "name, argv", CAPTURE.COMMANDS, ids=[name for name, _ in CAPTURE.COMMANDS]
)
def test_capture_argv_parses(name, argv):
    if name in PARSER_REFUSALS:
        with pytest.raises(UsageError, match=f"^{PARSER_REFUSALS[name]}$"):
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

import importlib.util
from pathlib import Path

import pytest

from qwsearch.cli import build_parser

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_datasets.py"


def _runs():
    spec = importlib.util.spec_from_file_location("run_datasets", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RUNS


RUNS = _runs()


def test_dataset_outputs_are_distinct():
    names = [name for name, _ in RUNS]
    assert len(names) == len(set(names)) == 25


@pytest.mark.parametrize("name, argv", RUNS, ids=[name for name, _ in RUNS])
def test_dataset_argv_parses(name, argv):
    # a renamed or removed flag breaks this test instead of the dataset script
    args = build_parser().parse_args([*argv, "--out", name])
    assert args.command == argv[0]

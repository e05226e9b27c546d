"""The reachability census names every production entry point.

``benchmarks/reach.py`` records which code a production path runs; a
``repro`` subcommand or golden recipe it does not run would make all the
code behind it look unreachable. This imports its entry-point list and the
CLI parser and runs nothing.
"""

import argparse
import importlib.util
from pathlib import Path

from repro.__main__ import GOLDEN_RECIPES, build_parser

REACH = Path(__file__).resolve().parent.parent / "benchmarks" / "reach.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("reach", REACH)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    return [argv for argv, _ in reach.ENTRY_POINTS.values()]


def _repro_commands(entries):
    return [argv[2:] for argv in entries if argv[:2] == ("-m", "repro")]


def test_every_subcommand_is_an_entry_point():
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    run = {argv[0] for argv in _repro_commands(_entry_points())}
    assert set(sub.choices) - run == set()


def test_every_golden_recipe_is_an_entry_point():
    golden = {argv[1] for argv in _repro_commands(_entry_points()) if argv[0] == "golden"}
    assert set(GOLDEN_RECIPES) - golden == set()

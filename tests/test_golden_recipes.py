"""CI's golden gates replay the recipes the goldens were written with.

Every ``repro diff results/golden/X.jsonl LOG`` step in the CI workflow
compares a fresh run log against golden ``X``. The command that wrote
``LOG`` must be ``results/golden/regenerate.sh``'s recipe for ``X``, up to
the flags that only log, cache, report, watch or parallelise a run;
otherwise a recipe edited on one side gates a golden the other side no
longer reproduces. Both files are read as text: no YAML parser needed.
"""

import re
import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CI = ROOT / ".github" / "workflows" / "ci.yml"
GOLDEN = ROOT / "results" / "golden"

#: Flags that change where a run is logged, cached or reported, how it is
#: watched or how many workers run it -- never what it simulates.
OBSERVING_FLAGS = {
    "--runlog", "--cache", "--report", "--json", "--live", "--log-json",
    "--heartbeat-cycles", "--status-json", "--openmetrics", "--jobs",
}  # fmt: skip


def shell_commands(text):
    """The ``python -m repro`` commands in ``text``, tokenised: backslash
    continuations are joined, and a YAML folded block (``run: >``) is read
    as the one command it is."""
    text = re.sub(r"\\\n\s*", " ", text)
    commands, folded, indent = [], None, 0
    for line in text.splitlines():
        body, depth = line.strip(), len(line) - len(line.lstrip())
        if folded is not None:
            if body and depth > indent:
                folded.append(body)
                continue
            commands.append(" ".join(folded))
            folded = None
        if body == "run: >":
            folded, indent = [], depth
        else:
            commands.append(body.removeprefix("run: "))
    if folded:
        commands.append(" ".join(folded))
    return [shlex.split(c) for c in commands if " -m repro " in f"{c} "]


def repro_args(tokens):
    """``(positionals, flag groups)`` after ``repro``; a flag owns the
    non-flag tokens that follow it."""
    head, groups = [], []
    for token in tokens[tokens.index("repro") + 1:]:
        if token.startswith("--"):
            groups.append([token])
        elif groups:
            groups[-1].append(token)
        else:
            head.append(token)
    return head, groups


def recipe(tokens):
    head, groups = repro_args(tokens)
    return head, sorted(g for g in groups if g[0] not in OBSERVING_FLAGS)


def runlog_of(tokens):
    return next((g[1] for g in repro_args(tokens)[1] if g[0] == "--runlog"), None)


def regenerate_recipes():
    """golden name -> the command ``regenerate.sh`` writes it with."""
    return {
        Path(runlog_of(c)).stem: recipe(c)
        for c in shell_commands((GOLDEN / "regenerate.sh").read_text())
        if runlog_of(c)
    }


def ci_gates():
    """``(golden name, command that wrote the compared log)`` per CI diff gate."""
    writers, gates = {}, []
    for c in shell_commands(CI.read_text()):
        head = repro_args(c)[0]
        if head[0] == "diff" and head[1].startswith("results/golden/"):
            assert head[2] in writers, f"no CI command writes {head[2]}"
            gates.append((Path(head[1]).stem, writers[head[2]]))
        elif runlog_of(c):
            writers[runlog_of(c)] = c
    return gates


def test_every_golden_has_a_recipe_and_a_gate():
    goldens = {p.stem for p in GOLDEN.glob("*.jsonl")}
    assert len(goldens) >= 4
    assert set(regenerate_recipes()) == goldens
    assert {name for name, _ in ci_gates()} == goldens


def test_each_gate_runs_its_golden_recipe():
    recipes = regenerate_recipes()
    for name, command in ci_gates():
        assert recipe(command) == recipes[name], (
            f"CI gates {name}.jsonl with `{shlex.join(command)}`, which is not "
            f"the recipe results/golden/regenerate.sh writes it with"
        )


def test_observing_flags_are_dropped():
    a = shlex.split(
        "python -m repro sweep own256 --rates 0.01 --jobs 2 --cache "
        "--runlog a.jsonl --live --metrics"
    )
    b = shlex.split("python -m repro sweep own256 --metrics --rates 0.01")
    assert recipe(a) == recipe(b)
    c = shlex.split("python -m repro sweep own256 --metrics --rates 0.02")
    assert recipe(c) != recipe(b)

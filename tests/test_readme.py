import inspect
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import shiftimpute
from shiftimpute.benchmark import ExperimentGrid, _pairs
from shiftimpute.cli import build_parser
from shiftimpute.engine import ImputationConfig
from shiftimpute.metrics import wilcoxon_signed_rank

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs_verbatim(capsys):
    exec(compile(library_use_block(), str(README), "exec"), {})
    rmse, wasserstein = map(float, capsys.readouterr().out.split())
    assert rmse > 0 and wasserstein > 0


def test_top_level_exports_what_the_example_imports():
    imported = re.search(r"from shiftimpute import \((.*?)\)", library_use_block(),
                         re.S).group(1)
    public = {name for name, value in vars(shiftimpute).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == {name.strip() for name in imported.split(",") if name.strip()}


@pytest.mark.parametrize("heading, cls", [
    ("### Imputation config", ImputationConfig),
    ("### Benchmark grid config", ExperimentGrid),
])
def test_config_example_is_accepted_by_the_loader(heading, cls):
    # the README documents no key the loader would reject
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    cls.from_dict(json.loads(re.sub(r"//.*", "", block)))  # raises on a bad key


def section(heading: str) -> str:
    """README's text under ``heading``, up to the next heading of its level."""
    level = heading.split(" ", 1)[0]
    text = README.read_text(encoding="utf-8").split(heading + "\n", 1)[1]
    return re.split(rf"\n{level} ", text, maxsplit=1)[0]


def cli_commands() -> list[str]:
    """The ``shiftimpute ...`` commands of the CLI block, one string each."""
    block = re.search(r"```bash\n(.*?)```", section("## CLI"), re.S).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("shiftimpute ")]


def test_cli_examples_parse():
    # a renamed or removed flag fails here; nothing is run
    commands = cli_commands()
    assert [shlex.split(c)[1] for c in commands] == [
        "simulate-mask", "impute", "metrics", "verify", "benchmark"]
    for command in commands:
        argv = shlex.split(command)[1:]
        assert build_parser().parse_args(argv).command == argv[0]


def printed_as(value: float, text: str) -> bool:
    """Whether ``value`` rounds to ``text`` at the digits ``text`` shows, in
    fixed or exponent notation as ``text`` is written."""
    mantissa, exponent = text.partition("e")[::2]
    digits = len(mantissa.partition(".")[2])
    return format(value, f".{digits}{'e' if exponent else 'f'}") == text


def test_results_table_is_the_default_grid(full_grid_result):
    # every entry of README's results, recomputed from the default grid's run
    assert full_grid_result.grid == ExperimentGrid()
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section("## Results").splitlines()
            if re.match(r"\| \d", line)]
    assert [row[0] for row in rows] == ["0", "1", "2", "3"]
    pairs = list(_pairs(full_grid_result.records))
    for size, rmse, w1, wins, p_rmse, p_w1 in rows:
        group = [(w, u) for w, u in pairs if abs(w.alpha) == int(size)]
        weighted = {m: np.array([getattr(w, m) for w, _ in group])
                    for m in ("rmse", "wasserstein")}
        unweighted = {m: np.array([getattr(u, m) for _, u in group])
                      for m in ("rmse", "wasserstein")}
        for text, metric in ((rmse, "rmse"), (w1, "wasserstein")):
            ratio = float(np.mean(weighted[metric] / unweighted[metric]))
            assert printed_as(ratio, text), (size, metric, ratio)
        lower = int((weighted["rmse"] < unweighted["rmse"]).sum())
        assert wins == f"{lower} of {len(group)}"
        for text, metric in ((p_rmse, "rmse"), (p_w1, "wasserstein")):
            p = wilcoxon_signed_rank(weighted[metric], unweighted[metric]).p_value
            assert printed_as(p, text), (size, metric, p)

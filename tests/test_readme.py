import inspect
import json
import re
from pathlib import Path

import pytest

import shiftimpute
from shiftimpute.benchmark import ExperimentGrid
from shiftimpute.engine import ImputationConfig

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

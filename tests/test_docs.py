"""The commands and the coverage-sim config that README.md and
docs/walkthrough.md show are ones the CLI accepts, and the names they cite
are ones polyboot has."""

import importlib.util
import json
import re
import shlex
from pathlib import Path

import pytest

import polyboot as pb
from polyboot import cli

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "docs/walkthrough.md")


def blocks(doc, language):
    """The fenced ``language`` code blocks of ``doc``."""
    text = (ROOT / doc).read_text(encoding="utf-8")
    return re.findall(rf"```{language}\n(.*?)```", text, re.S)


def commands(doc):
    """Each ``polyboot`` command of the shell blocks, continuation lines joined."""
    lines = "\n".join(blocks(doc, "sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("polyboot ")]


CASES = [(doc, argv) for doc in DOCS for argv in commands(doc)]


def test_every_doc_shows_commands():
    assert {doc for doc, _ in CASES} == set(DOCS)


@pytest.mark.parametrize("doc, argv", CASES, ids=[f"{d}:{a[0]}" for d, a in CASES])
def test_documented_commands_parse(doc, argv):
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]


MODULES = {p.stem for p in Path(pb.__file__).parent.glob("*.py")} - {"__init__"}


def cited_names(doc):
    """Each ``pb.<name>`` of the python blocks as ``polyboot.<name>``, and each
    backticked ``polyboot.<name>`` or ``<module>.<name>`` (a file name such
    as ``data_model.py`` aside)."""
    names = [f"polyboot.{n}" for n in re.findall(r"\bpb\.(\w+)", "".join(blocks(doc, "python")))]
    text = (ROOT / doc).read_text(encoding="utf-8")
    for span in re.findall(r"`(\w+(?:\.\w+)+)`", text):
        head = span.split(".")[0]
        if head in MODULES and not span.endswith(".py"):
            names.append(f"polyboot.{span}")
        elif head == "polyboot":
            names.append(span)
    return sorted(set(names))


NAMES = [(doc, name) for doc in DOCS for name in cited_names(doc)]


def test_every_doc_cites_names():
    assert {doc for doc, _ in NAMES} == set(DOCS)


@pytest.mark.parametrize("doc, name", NAMES, ids=[f"{d}:{n}" for d, n in NAMES])
def test_cited_names_exist(doc, name):
    module, _, attr = name.rpartition(".")
    assert hasattr(importlib.import_module(module), attr) or importlib.util.find_spec(name)


def test_documented_coverage_config_is_valid():
    (text,) = blocks("README.md", "json")
    cfg = json.loads(text)
    mean = dict(
        estimator=cli._spec_from_config(cfg["estimator"]),
        methods=cfg["methods"],
        n_replications=cfg["replications"],
        n_bootstrap=cfg["draws"],
        level=cfg["level"],
        dgp=cli._dgp_from_config(cfg["dgp"]),
    )
    assert pb.CoverageConfig(**mean).estimator.param_names() == ("y",)
    # the README's variant: the slope of the regression DGP
    slope = pb.CoverageConfig(**{
        **mean,
        "dgp": cli._dgp_from_config({"type": "unit-effects-ols", "n": 40}),
        "estimator": cli._spec_from_config({"kind": "ols", "y": "y", "x": ["x"], "intercept": True}),
        "target_index": 1,
    })
    assert slope.estimator.param_names()[slope.target_index] == "x"


def test_readme_states_the_cache_bound():
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    assert f"keeps the {cli.CACHE_ENTRIES} most recently used entries" in text

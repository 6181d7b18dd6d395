from pathlib import Path

import pytest

from realpv import AlgebraError, DiffTower, LinearODE, build_pv, load_scenario
from realpv.cli import _Session
from realpv.pv import DEFAULT_SCAN_BOUNDS

ROOT = Path(__file__).resolve().parent.parent
# the scenarios of the CLI and of the benchmark
CORPUS = sorted([*ROOT.glob("scenarios/*.json"), *ROOT.glob("bench/scenarios/*.json")])


@pytest.fixture(scope="session")
def base():
    return DiffTower(base_var="t")


@pytest.fixture(scope="session")
def circle_pv(base):
    return build_pv(base, LinearODE.from_texts(base, ["1", "0"]), "CIRCLE")


@pytest.fixture(scope="session")
def circle2_pv(base):
    return build_pv(base, LinearODE.from_texts(base, ["4", "0"]), "CIRCLE")


@pytest.fixture(scope="session")
def exp_pv(base):
    return build_pv(base, LinearODE.from_texts(base, ["-1"]), "EXP")


@pytest.fixture(scope="session")
def sqrt_pv(base):
    return build_pv(base, LinearODE.from_texts(base, ["-1/2 * 1/t"]), "RADICAL")


@pytest.fixture(scope="session")
def circle(circle_pv):
    return circle_pv.extension


@pytest.fixture(scope="session")
def exp_tower(exp_pv):
    return exp_pv.extension


@pytest.fixture(scope="session")
def corpus_towers():
    """The extension of each scenario of the corpus that builds, by path."""
    out = {}
    for path in CORPUS:
        scn = load_scenario(str(path))
        try:
            pv = _Session(scn, DEFAULT_SCAN_BOUNDS).pv
        except AlgebraError:
            continue
        out[str(path.relative_to(ROOT))] = pv.extension
    return out

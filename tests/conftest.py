import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# The suite shares a 2-vCPU host whose speed swings by up to 1.6x, so a
# per-example deadline only measures the neighbours; each test keeps its own
# max_examples.
settings.register_profile("kekulec", deadline=None)
settings.load_profile("kekulec")

sys.path.insert(0, str(Path(__file__).parent))
# tests that run `python -m kekulec` in a child process need the same sources
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

from kekulec import Graph, builtin


@pytest.fixture(scope="session")
def house5():
    return builtin("house5").graph


@pytest.fixture(scope="session")
def ethene3():
    return builtin("ethene3").graph


@pytest.fixture(scope="session")
def phenantrene():
    return builtin("phenantrene").graph


@pytest.fixture(scope="session")
def single_state_graph():
    """Two-port graph with exactly one Kekulé state: a triangle hub over a
    pendant path."""
    return Graph([("c", "t1"), ("c", "t2"), ("t1", "t2"), ("b2", "c"),
                  ("b1", "b2"), ("b2", "b3")])


@pytest.fixture(scope="session")
def no_state_graph():
    """Two-port graph without any Kekulé state: two pendant triangles on a
    path plus a tail."""
    return Graph([("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("a4", "a5"),
                  ("a1", "u1"), ("a2", "u1"), ("a4", "u2"), ("a5", "u2"),
                  ("a3", "d2"), ("d1", "d2"), ("d2", "d3")])

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import settings

from poset_tower import Tower
from poset_tower.fixtures import (
    circle,
    edge,
    point,
    tetra_boundary,
    triangle,
)

# Property tests draw the same examples on every run and have no timing
# deadline, so the suite stays deterministic on a slow or busy machine.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@lru_cache(maxsize=None)
def cached_tower(name: str, depth: int) -> Tower:
    return Tower.build(COMPLEXES[name](), depth)


COMPLEXES = {
    "point": point,
    "edge": edge,
    "circle": circle,
    "triangle": triangle,
    "tetra-boundary": tetra_boundary,
}

# depth at which each fixture is exercised throughout the suite
FIXTURE_DEPTHS = {
    "point": 3,
    "edge": 3,
    "circle": 3,
    "triangle": 2,
    "tetra-boundary": 2,
}


@pytest.fixture
def E():
    return edge()


@pytest.fixture
def PT():
    return point()


@pytest.fixture
def S1():
    return circle()


@pytest.fixture
def TRI():
    return triangle()


@pytest.fixture
def TETRA_BD():
    return tetra_boundary()


@pytest.fixture
def tower_E3():
    return cached_tower("edge", 3)


@pytest.fixture
def tower_S13():
    return cached_tower("circle", 3)


@pytest.fixture
def tower_TRI2():
    return cached_tower("triangle", 2)

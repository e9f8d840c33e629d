import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import all_posets, random_coloured_game, random_convergent_game  # noqa: E402

from chipfire.lattice import ideal_lattice  # noqa: E402

GAME_CORPUS_SEED = 20240811
COLOURED_CORPUS_SEED = 987


@pytest.fixture(scope="session")
def game_corpus():
    """200 random convergent games (<= 6 vertices, <= 8 chips, sink reachable)."""
    rng = random.Random(GAME_CORPUS_SEED)
    return [random_convergent_game(rng) for _ in range(200)]


@pytest.fixture(scope="session")
def space_corpus(game_corpus):
    return [game.enumerate_space() for game in game_corpus]


@pytest.fixture(scope="session")
def coloured_corpus():
    """100 random coloured games (<= 5 vertices, <= 3 colours)."""
    rng = random.Random(COLOURED_CORPUS_SEED)
    return [random_coloured_game(rng) for _ in range(100)]


@pytest.fixture(scope="session")
def coloured_space_corpus(coloured_corpus):
    return [game.enumerate_space() for game in coloured_corpus]


@pytest.fixture(scope="session")
def small_posets():
    """Every poset on at most 5 elements, up to isomorphism (88 of them)."""
    out = []
    for n in range(6):
        out.extend(all_posets(n))
    return out


@pytest.fixture(scope="session")
def distributive_corpus(small_posets):
    return [ideal_lattice(p) for p in small_posets]

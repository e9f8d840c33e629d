"""The Sand Pile Model SPM(n) (Goles & Kiwi 1993) as a chip-firing game.

``helpers.sand_pile_text`` encodes SPM(n) by height differences; its spaces
are checked against ``helpers.sand_pile_heights``, the grain move run on
height vectors, and against closed forms: for triangular n = k(k+1)/2 each
firing raises the sum of i·h_i by one and the fixpoint is the staircase
(k, ..., 1), so the height is C(k+1, 3). Every space is ULD; it is
distributive exactly for n <= 9.
"""

from math import comb, isqrt

import pytest

from chipfire import cli
from chipfire.fixtures import sand_pile_21_game
from chipfire.formats import parse_game, serialize_game

from helpers import sand_pile_heights, sand_pile_text

SIZES = {
    1: 1, 2: 2, 3: 2, 4: 4, 5: 5, 6: 6, 7: 9, 8: 13, 9: 15, 10: 19, 11: 25, 12: 34,
    15: 61, 21: 209, 28: 729,
}


def heights(space):
    """Each state's column heights, trailing zeros dropped: h_i is the sum of
    the differences d_j, j >= i, which come first among the vertices."""
    m = sum(name.startswith("d") for name in space.names)
    out = set()
    for config in space.configs:
        h = [sum(config[i:m]) for i in range(m)]
        while h and not h[-1]:
            h.pop()
        out.add(tuple(h))
    return out


@pytest.mark.parametrize("n", sorted(SIZES))
def test_space_is_the_grain_move_closure(n):
    space = parse_game(sand_pile_text(n)).enumerate_space()
    oracle = sand_pile_heights(n)
    assert len(space) == len(oracle) == SIZES[n]
    assert heights(space) == oracle
    assert space.height == max(sum(i * h for i, h in enumerate(v)) for v in oracle)
    assert space.is_uld
    assert space.is_distributive == (n <= 9)
    k = isqrt(2 * n)
    if k * (k + 1) // 2 == n:  # triangular: the staircase (k, ..., 1) of height C(k+1, 3)
        assert space.configs[space.top][: k + 1] == (1,) * k + (0,)
        assert space.height == comb(k + 1, 3)


def test_bundled_fixture_is_spm_21():
    game = sand_pile_21_game()
    assert serialize_game(game) == serialize_game(parse_game(sand_pile_text(21)))
    space = game.enumerate_space()
    assert (len(space), space.height, space.is_uld, space.is_distributive) == (209, 35, True, False)


def test_cli_space_on_spm_55_stays_under_the_default_cap(tmp_path, capsys):
    path = tmp_path / "spm55.cfg"
    path.write_text(sand_pile_text(55))
    assert cli.main(["space", str(path)]) == 0
    assert capsys.readouterr().out == (
        "elements: 34184\nheight: 165\nranked: yes\ndistributive: no\nULD: yes\n"
    )

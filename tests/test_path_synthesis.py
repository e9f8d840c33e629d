"""Coloured synthesis by paths, against the paper's construction.

``transforms.coloured_from_uld`` walks one chip along one path per chain of
a first-fit chain cover of J, over the antimatroid of the lattice's codes;
vertex b is ``M[b]``, so ``uld_map`` reads a state's code off its unopened
vertices. ``helpers.paper_coloured_from_uld`` is the paper's construction,
one colour per join-irreducible with the arrow classes merged, and
``helpers.paper_uld_map`` its partner map. On every corpus both games'
spaces must be the lattice through their maps, the path game must have
|M| + 1 vertices and at most |J| colours, and ``coloured_ideal_game`` must
realize the ideal lattice of J with each open set its ideal's mask.

The Sand Pile Model's lattices are where the two part: the path game
realizes SPM(n) for every n tried, while the paper's game loses elements
from SPM(16) on (75 states for 78 elements), so the oracle is run only on
the corpora above.
"""

from hypothesis import given, settings

from chipfire.fixtures import funnel_game, gated_cube_lattice
from chipfire.formats import parse_game
from chipfire.lattice import Lattice, ideal_lattice
from chipfire.transforms import (
    coloured_from_uld,
    coloured_ideal_game,
    is_hasse_isomorphism,
    uld_map,
)

from helpers import (
    antimatroids,
    paper_coloured_from_uld,
    paper_uld_map,
    peak_traced,
    sand_pile_text,
)


def maps_onto(lattice, game, to_lattice) -> bool:
    space = game.enumerate_space()
    return is_hasse_isomorphism(to_lattice(lattice, space), space.ups, lattice._upper_covers)


def open_masks(space, n):
    """Each state's open set over the first n vertices, as a mask."""
    return [sum(1 << v for v in range(n) if vec[v]) for vec in space.vectors]


def assert_syntheses_match(lattice):
    game = coloured_from_uld(lattice)
    assert maps_onto(lattice, game, uld_map), lattice.labels
    assert maps_onto(lattice, paper_coloured_from_uld(lattice), paper_uld_map), lattice.labels
    assert game.graph.n == len(lattice.M) + 1
    assert len(game.colours) <= len(lattice.J)
    jp = lattice.join_irreducible_poset()
    ideals = ideal_lattice(jp)
    index = {mask: x for x, mask in enumerate(jp.ideal_masks())}
    space = coloured_ideal_game(lattice).enumerate_space()
    image = [index.get(mask) for mask in open_masks(space, jp.n)]
    assert is_hasse_isomorphism(image, space.ups, ideals._upper_covers), lattice.labels


def test_fixtures_booleans_and_chains():
    lattices = [gated_cube_lattice(), funnel_game().enumerate_space().lattice()]
    lattices += [Lattice.boolean(k) for k in range(7)]
    lattices += [Lattice.chain(k) for k in range(1, 41)]
    for lattice in lattices:
        assert_syntheses_match(lattice)


def test_ideal_lattices(distributive_corpus):
    for lattice in distributive_corpus:
        assert_syntheses_match(lattice)


def test_coloured_spaces(coloured_space_corpus):
    for space in coloured_space_corpus:
        assert_syntheses_match(space.lattice())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(antimatroids())
def test_random_antimatroids(lattice):
    assert_syntheses_match(lattice)


def test_a_long_chain_is_one_path():
    # the paper's game gives chain(800) 799 colours and on the order of
    # 800^2 / 2 edges; one path takes one colour and 799 edges
    lattice = Lattice.chain(800)

    def build():
        game = coloured_from_uld(lattice)
        return game, game.enumerate_space()

    (game, space), _, peak = peak_traced(build)
    assert len(game.colours) == 1 and len(game.graph.layers[1]) == 799
    assert len(space) == 800
    assert peak < 16_000_000, peak


def test_sand_pile_lattices():
    for n in range(3, 22):
        lattice = parse_game(sand_pile_text(n)).enumerate_space().lattice()
        assert maps_onto(lattice, coloured_from_uld(lattice), uld_map), n
        if n <= 15:
            assert maps_onto(lattice, paper_coloured_from_uld(lattice), paper_uld_map), n
    spm16 = parse_game(sand_pile_text(16)).enumerate_space().lattice()
    assert (spm16.n, len(paper_coloured_from_uld(spm16).enumerate_space())) == (78, 75)

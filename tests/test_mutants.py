"""The table of ``tests/mutants.py`` stays aimed at the code: each mutant's
old text occurs exactly once in its file under ``src/chipfire``, and each
test it names exists. A change that moves either re-aims the row with it.
Running the mutants is ``python tests/mutants.py``, not tier-1."""

from pathlib import Path

from mutants import MUTANTS, SRC, defines_test, mutated


def test_each_old_text_occurs_once_in_src():
    for mutant in MUTANTS:
        text = (SRC / mutant.file).read_text()
        assert mutated(mutant, text) != text, mutant.name


def test_each_named_test_exists():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.tests and all(defines_test(Path(__file__).parent, i) for i in mutant.tests)

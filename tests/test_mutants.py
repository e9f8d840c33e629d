"""The table of ``tests/mutants.py`` stays aimed at the code: each mutant's
old text occurs exactly once in its file under ``src/chipfire``, and each
test it names exists. A change that moves either re-aims the row with it.
Against another tests directory, a row runs its ids where all exist there,
else that directory's whole suite. Running the mutants is
``python tests/mutants.py``, not tier-1."""

from pathlib import Path

from mutants import MUTANTS, SRC, SUITE, defines_test, mutated, pytest_args


def test_each_old_text_occurs_once_in_src():
    for mutant in MUTANTS:
        text = (SRC / mutant.file).read_text()
        assert mutated(mutant, text) != text, mutant.name


def test_each_named_test_exists():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.tests and all(defines_test(Path(__file__).parent, i) for i in mutant.tests)


def test_a_row_with_a_missing_id_runs_the_whole_suite(tmp_path):
    (tmp_path / "test_a.py").write_text('CASES = ["one"]\n\n\ndef test_kept():\n    pass\n')
    kept, case = "test_a.py::test_kept", "test_a.py::test_kept[one]"
    assert pytest_args(tmp_path, (kept, case)) == ("tests/" + kept, "tests/" + case)
    for gone in ("test_a.py::test_retired", "test_a.py::test_kept[two]", "test_b.py::test_kept"):
        assert pytest_args(tmp_path, (kept, gone)) == SUITE == ("-x", "tests")

"""A checked-in table of mutants of ``src/chipfire`` and their runner
(mutation analysis: DeMillo, Lipton & Sayward, 1978).

A mutant replaces one exact text of one file with another, and names the
tests that must fail on it. The runner copies ``src/``, a tests directory,
``pyproject.toml`` and the files some tests read (``README.md`` and
``benchmarks/``) to a temporary directory, applies each mutant there in
turn, runs its tests in a subprocess and reports it caught or survived; it
never edits the checkout. A row naming a test id that the tests directory
lacks (an older revision named it otherwise, or checked the same behaviour in
a test since retired, perhaps in another module) runs that directory's whole
suite instead, stopping at the first failure (``-x``). Exit status: 1 when a mutant survives; 2 when the
tests fail unmutated, pytest errs, or chipfire was imported from anywhere but
the copy. Run from the checkout::

    python tests/mutants.py [--tests DIR]
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "chipfire"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/chipfire
    old: str
    new: str
    tests: tuple[str, ...]  # test ids, relative to the tests directory


FIXPOINT_SCANS = (
    "test_engine.py::test_runs_fire_like_the_scan_on_generated_games",
    "test_engine.py::test_runs_fire_like_the_scan_on_seeded_games_and_a_grid",
)

MUTANTS = (
    Mutant("double-counted firing", "engine.py", "counts[v] += 1", "counts[v] += 2", (
        "test_engine.py::test_run_to_fixpoint_funnel",
        "test_engine.py::test_run_to_fixpoint_relay_counts")),
    # the fixpoint run's worklist, each rule against the rescanning run
    Mutant("an out-neighbour never joining the worklist", "engine.py",
           "insort(firable, w)", "pass", FIXPOINT_SCANS),
    Mutant("the fired vertex never leaving the worklist", "engine.py",
           "del firable[i]", "pass", FIXPOINT_SCANS),
    Mutant("a loop edge putting its vertex on the worklist twice", "engine.py",
           "if w != v and conf[w]", "if conf[w]", FIXPOINT_SCANS),
    Mutant("random drawing from the worklist rotated, not sorted", "engine.py",
           "return r.choice", "return lambda firable: r.choice(firable[1:] + firable[:1])",
           FIXPOINT_SCANS),
    Mutant("distributive always yes", "lattice.py",
           "return len(self.J) == len(self.M) and self.is_uld", "return True",
           ("test_lattice_tables.py::test_stock_shapes_and_duals",)),
    Mutant("the lowest move fired first", "engine.py",
           "v = mask.bit_length() - 1", "v = (mask & -mask).bit_length() - 1",
           ("test_packed_closure.py::test_game_corpus",)),
    Mutant("first fit joining any chain", "transforms.py", " if up[c[-1]] >> x & 1), [])", "), [])",
           ("test_path_synthesis.py::test_fixtures_booleans_and_chains",)),
    Mutant("_antimatroid not forcing _moves", "engine.py",
           'no walk."""\n        self._moves\n', 'no walk."""\n',
           ("test_space_verdicts.py::test_moves_that_do_not_commute_are_an_engine_fault",)),
    Mutant("memo shared across calls", "coloured.py",
           "restarts={}", 'restarts=vars(ColouredCfg.enumerate_space).setdefault("memo", {})',
           ("test_coloured.py::test_restart_memo_is_held_per_level_and_dropped",)),
    # aimed at what a retired oracle checked: the tests named use the one kept
    Mutant("a coloured restart firing closed vertices", "coloured.py",
           "not opened >> u & 1 or ", "", (
               "test_coloured.py::test_given_states_open_like_the_tuple_rule_and_build_no_game",
               "test_coloured.py::test_many_colour_chain_games_match_the_tuple_closure")),
    Mutant("a restarted vertex firing once, not until stable", "coloured.py",
           "while deg <= x >> shift & mask:", "if deg <= x >> shift & mask:",
           ("test_coloured.py::test_given_states_open_like_the_tuple_rule_and_build_no_game",)),
    Mutant("a coloured restart pushing only its first target", "coloured.py",  # the worklist
           "todo.extend(targets[u])", "todo.extend(targets[u][:1])", (  # oracle missed it
               "test_coloured.py::test_given_states_open_like_the_tuple_rule_and_build_no_game",
               "test_packed_closure.py::test_coloured_corpus",
               "test_packed_closure.py::test_generated_coloured_games")),
    Mutant("a classical move needing one chip more than its degree", "engine.py",
           "mask >= deg]", "mask > deg]",
           ("test_packed_closure.py::test_game_corpus",)),
    Mutant("a revisited state recording no cover", "engine.py",
           "            out.append(j)",
           "            else:\n                continue\n            out.append(j)",
           ("test_engine.py::test_space_order_is_vector_dominance",)),
    Mutant("the ideal cap one too lax", "lattice.py",
           "len(ideals) > cap:\n            raise", "len(ideals) > cap + 1:\n            raise",
           ("test_lattice.py::test_ideal_masks_match_the_powerset",)),
    Mutant("isomorphism refused unless the colours align by index", "lattice.py",
           "if sorted(ca) != sorted(cb):", "if ca != cb:",
           ("test_dense_oracles.py::test_isomorphism_on_shapes_ideal_lattices_and_duals",)),
    Mutant("an isomorphism candidate's lower images read off its up-set", "lattice.py",
           "image(down_a[x] & assigned)", "image(up_a[x] & assigned)",
           ("test_dense_oracles.py::test_witness_and_isomorphism_on_shuffled_copies",)),
    # path synthesis
    Mutant("a path walk ignoring its join-irreducible", "transforms.py", " if up[h] >> j & 1", "",
           ("test_path_synthesis.py::test_fixtures_booleans_and_chains",)),
    Mutant("a path label one bit short", "transforms.py",
           ".bit_length() - 1", ".bit_length() - 2",
           ("test_path_synthesis.py::test_fixtures_booleans_and_chains",)),
    Mutant("a path with no edge to the sink", "transforms.py", "path[1:] + [bot]", "path[1:]",
           ("test_path_synthesis.py::test_fixtures_booleans_and_chains",)),
    Mutant("an ideal path step not subtracting the held down-set", "transforms.py",
           "(hi & ~lo) >> x & 1", "hi >> x & 1",
           ("test_path_synthesis.py::test_ideal_lattices",)),
    # the lattice layer, which each input family meets in one test of
    # test_lattice_tables.py
    Mutant("a meet reading its first element twice", "lattice.py",
           "self._down_masks[self._check(x)] & self._down_masks[self._check(y)]]",
           "self._down_masks[self._check(x)] & self._down_masks[self._check(x)]]", (
               "test_lattice_tables.py::test_stock_shapes_and_duals",
               "test_lattice_tables.py::test_game_spaces_and_duals")),
    Mutant("the triple law's first check joining join-irreducibles only", "lattice.py",
           "for y in range(self.n) for j in J)", "for y in J for j in J)",
           ("test_lattice_tables.py::test_stock_shapes_and_duals",)),
    Mutant("the meet-irreducible codes gathered from the bottom up", "lattice.py",
           "return _gather(seeds, self._upper_covers, reversed(self.topo_order))",
           "return _gather(seeds, self._upper_covers, self.topo_order)", (
               "test_lattice_tables.py::test_game_spaces_and_duals",
               "test_lattice_tables.py::test_ideal_lattices_and_duals",
               "test_lattice_tables.py::test_generated_coloured_game_spaces_and_duals")),
    Mutant("a partner read off the highest up arrow", "lattice.py",
           "partner[j] = self.M[(down & up).bit_length() - 1]",
           "partner[j] = self.M[up.bit_length() - 1]", (
               "test_lattice_tables.py::test_stock_shapes_and_duals",
               "test_lattice_tables.py::test_game_spaces_and_duals",
               "test_lattice.py::test_arrow_partition_uld_unique_partner")),
    Mutant("an up arrow to a meet-irreducible above its join-irreducible", "lattice.py",
           " & 1) & apart)", " & 1))", (
               "test_lattice_tables.py::test_game_spaces_and_duals",
               "test_lattice_tables.py::test_generated_game_spaces_and_duals",
               "test_arrows.py::test_failures_keep_their_order")),
    Mutant("a space's meet-irreducibles read as its join-irreducibles", "engine.py",
           "bottom = 0  # the initial state, first in canonical order",
           "bottom = 0  # the initial state, first in canonical order"
           "\n    M = property(Lattice.J.func)", (
               "test_lattice_tables.py::test_game_spaces_and_duals",
               "test_lattice_tables.py::test_coloured_spaces_and_duals",
               "test_lattice_tables.py::test_generated_coloured_game_spaces_and_duals")),
    Mutant("a move of vertex 0 adding two to its field", "engine.py",
           "1 << 64 * (n - 1 - v) for v in range(n)]",
           "(1 + (v == 0)) << 64 * (n - 1 - v) for v in range(n)]", (
               "test_packed_closure.py::test_generated_games",
               "test_packed_closure.py::test_generated_coloured_games")),
    # aimed at what a past revision of src/ kept in tests/helpers.py caught;
    # the oracles kept are definitions, or the rows' tests pin the behaviour
    Mutant("an implied cover pair kept", "lattice.py",
           "if not near >> w & 1:", "if w not in kept:",
           ("test_bitsets.py::test_from_covers_matches_the_generated_order",)),
    Mutant("an up-set gathered from its first upper cover only", "lattice.py",
           "for w in up[v]:\n                near |= above[w]",
           "for w in up[v][:1]:\n                near |= above[w]",
           ("test_bitsets.py::test_from_covers_matches_the_generated_order",)),
    Mutant("lines split at \\n only", "formats.py", "text.splitlines()", 'text.split("\\n")',
           ("test_formats.py::test_lattice_parse_errors_carry_text_and_line"
            "[carriage-return line ends]",)),
    Mutant("a CRLF line end counted as two lines", "formats.py",
           "text.splitlines()", 'text.replace("\\r", "\\n").splitlines()',
           ("test_formats.py::test_lattice_parse_errors_carry_text_and_line[CRLF line ends]",)),
    Mutant("a keyword keeping the space before its colon", "formats.py",
           "yield lineno, keyword.strip(), rest", "yield lineno, keyword.lstrip(), rest",
           ("test_formats.py::test_lattice_file_whitespace_and_comments_are_ignored",)),
    Mutant("a colon found inside a comment", "formats.py",
           'keyword, colon, rest = raw.partition("#")[0].partition(":")',
           'keyword, colon, rest = raw.partition(":")\n        rest = rest.partition("#")[0]',
           ("test_formats.py::test_lattice_parse_errors_carry_text_and_line",)),
    Mutant("a set-family member labelled by its code", "lattice.py",
           "_subset_label(ground_labels, m) for m in members)",
           "_subset_label(ground_labels, m) for m in codes)",
           ("test_cover_coding.py::test_family_lattices_match_the_dense_order",)),
    Mutant("quotient elements sorted by the size of their partner keys", "lattice.py",
           "key=lambda kv: (kv[1].bit_count(), kv[1])", "key=lambda kv: (kv[0].bit_count(), kv[1])",
           ("test_cover_coding.py::test_family_lattices_match_the_dense_order",)),
    Mutant("a DOT edge firing the lowest move first", "formats.py",
           "v = mask.bit_length() - 1", "v = (mask & -mask).bit_length() - 1", (
               "test_space_dot.py::test_bundled_spaces_match_the_oracle",
               "test_space_dot.py::test_corpus_spaces_match_the_oracle")),
    Mutant("upper covers kept in discovery order", "engine.py",
           "for j in reversed(out)])", "for j in out])",
           ("test_packed_closure.py::test_game_corpus",)),
    Mutant("a split tie one edge short", "transforms.py",
           "tie = max(0, surplus - out_a)", "tie = max(0, surplus - out_a - 1)",
           ("test_transforms.py::test_split_relay_v_multiplicities",)),
    Mutant("the split surplus on copy 1", "transforms.py",
           "chips[a] = chips[a1] + surplus", "chips[a], chips[a1] = chips[a1], chips[a1] + surplus",
           ("test_transforms.py::test_split_relay_v_multiplicities",)),
    Mutant("a split loop copied as an edge into copy 1", "transforms.py",
           "copy1.append(((a1 if u == a else u, a1), k))", "copy1.append(((u, a1), k))",
           ("test_transforms.py::test_split_with_loops",)),
    Mutant("a fresh copy name ignoring the game's names", "transforms.py",
           "taken = set(names)", "taken = set()",
           ("test_transforms.py::test_split_copies_take_fresh_names",)),
    Mutant("simplify predicting copy 0 to fire floor(c/2) times", "transforms.py",
           "counts[a] = (worst + 1) // 2", "counts[a] = worst // 2",
           ("test_transforms.py::test_simplify_counts_match_replays_on_the_corpus",)),
)


def mutated(mutant: Mutant, text: str) -> str:
    """``text`` with the mutant's old text replaced; it must occur once."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def defines_test(tests_dir: Path, test_id: str) -> bool:
    """Whether the module of ``test_id`` defines its test function and, for a
    parametrized id ``name[case]``, holds the text of the case."""
    module, _, name = test_id.partition("::")
    name, _, case = name.partition("[")
    path = tests_dir / module
    if not path.is_file():
        return False
    text = path.read_text()
    return re.search(rf"^def {re.escape(name)}\(", text, re.M) is not None and case[:-1] in text


SUITE = ("-x", "tests")  # the whole tests directory, up to its first failure


def pytest_args(tests_dir: Path, ids) -> tuple[str, ...]:
    """What pytest runs for a row's test ids in the copy: the ids, or the
    whole ``SUITE`` when ``tests_dir`` lacks any of them."""
    if all(defines_test(tests_dir, i) for i in ids):
        return tuple(f"tests/{i}" for i in ids)
    return SUITE


# pytest's exit code, after writing where chipfire was imported from to argv[1]
PROBE = """import sys, pytest
code = pytest.main(sys.argv[2:])
open(sys.argv[1], "w").write(getattr(sys.modules.get("chipfire"), "__file__", None) or "-")
sys.exit(code)"""


def run_tests(copy: Path, targets) -> tuple[int, str]:
    """Pytest's exit code on ``targets`` in ``copy``, and its output's last line.
    The ini's ``pythonpath`` is overridden with the copy's ``src``, no
    bytecode is cached, and a run that imported chipfire elsewhere is refused."""
    src, where = copy / "src", copy / "imported_from"
    where.unlink(missing_ok=True)
    args = ["-q", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", "--rootdir", str(copy)]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(where), *args, *targets],
        cwd=copy, capture_output=True, text=True, env=env,
    )
    found = where.read_text() if where.exists() else "-"
    if not Path(found).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: the tests imported chipfire from {found}, not from {src}")
    return result.returncode, (result.stdout + result.stderr).strip().rpartition("\n")[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", type=Path, default=ROOT / "tests", help="tests directory")
    tests_dir = parser.parse_args(argv).tests.resolve()
    plans = [(m, pytest_args(tests_dir, m.tests)) for m in MUTANTS]
    with tempfile.TemporaryDirectory(prefix="chipfire-mutants-") as tmp:
        copy, ignore = Path(tmp), shutil.ignore_patterns("__pycache__", ".hypothesis")
        shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
        shutil.copytree(tests_dir, copy / "tests", ignore=ignore)
        shutil.copytree(ROOT / "benchmarks", copy / "benchmarks", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        shutil.copy(ROOT / "README.md", copy)
        targets = sorted({t for _, args in plans for t in args})
        code, last = run_tests(copy, SUITE if SUITE[0] in targets else targets)
        if code != 0:
            print(f"error: the tests fail on the unmutated source: {last}")
            return 2
        verdicts = []
        for mutant, args in plans:
            target = copy / "src" / "chipfire" / mutant.file
            pristine = target.read_text()
            target.write_text(mutated(mutant, pristine))
            try:
                code, last = run_tests(copy, args)
            finally:
                target.write_text(pristine)
            verdicts.append({0: "SURVIVED", 1: "caught"}.get(code, "ERROR"))
            print(f"{verdicts[-1]:9} {mutant.name}  [{', '.join(args)}]")
            if code not in (0, 1):
                print(f"          pytest exit {code}: {last}")
    print(f"{len(plans)} mutants, {verdicts.count('caught')} caught; tests from {tests_dir}")
    return 2 if "ERROR" in verdicts else 1 if "SURVIVED" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())

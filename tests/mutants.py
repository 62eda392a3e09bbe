"""A mutation gate: each mutant below is a fault the named tests must catch.

Run it from the root of the repository:

    python tests/mutants.py

For each mutant it copies the whole tree to a temporary directory (the
tree, not src/ alone: pyproject.toml puts the checkout's src/ first on the
path), replaces one source line there, and runs pytest -x on the mutant's
tests. A mutant whose line is not found exactly once is refused. Before the
mutants, the same tests run on an unmutated copy and must pass. It exits 0
when every mutant is killed, 1 when any survives, and 2 when the gate
itself cannot run. It is not part of the tier-1 suite, whose file pattern it
does not match.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
IGNORED = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", ".benchmarks",
                                 "__pycache__", "out", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    path: str  # under src/pairbij
    line: str  # one whole source line, without its end, found exactly once
    mutated: str
    tests: tuple[str, ...]


LANES = "tests/test_lane_tables.py"
ENTRIES = f"{LANES}::test_source_entries_answer_as_generic_over_the_seed"
CHARPAIR = "tests/test_charpair.py"
CLI = "tests/test_cli.py"

MUTANTS = [
    # a source's entries answer from its lane tables only within their limits
    Mutant("pair table bound <=", "guide.py",
           "        if (tables := self.tables) and x < tables.limit and y < tables.limit:",
           "        if (tables := self.tables) and x <= tables.limit and y < tables.limit:",
           (ENTRIES,)),
    Mutant("pair table bounds or", "guide.py",
           "        if (tables := self.tables) and x < tables.limit and y < tables.limit:",
           "        if (tables := self.tables) and (x < tables.limit or y < tables.limit):",
           (ENTRIES,)),
    # (<= CAP - 1 would only send 256-bit n to the codec, which answers alike)
    Mutant("unpair table bound past CAP", "guide.py",
           "        if (tables := self.tables) and n.bit_length() <= CAP:",
           "        if (tables := self.tables) and n.bit_length() <= CAP + 1:", (ENTRIES,)),
    # the tables charge 0 as the codec's one-bit form of 0, not as 0 bits
    Mutant("tables charge 0 as 0 bits", "guide.py",
           "    bits = [max(k, 1) for k in range(CAP + 1)]  # the bit form of 0 is one bit long",
           "    bits = list(range(CAP + 1))", (ENTRIES,)),
    # a wrong bit in the lane tables and the curve walk's tables, at a position
    # only inputs of 12 bits or more reach
    Mutant("wrong table bit at position 11", "guide.py",
           "            side[p] = 1 << j",
           "            side[p] = 1 << j ^ (p == 11)",
           (ENTRIES, f"{CLI}::test_curve_blocks_match_unpair",
            f"{CLI}::test_curve_walk_matches_unpair")),
    Mutant("fuel check one short", "guide.py",
           "    if fuel.remaining > source.budget:",
           "    if fuel.remaining >= source.budget:",
           (f"{CHARPAIR}::test_prefix_refuses_a_larger_budget",)),
    Mutant("read_limit without + 1", "streams.py",
           "        return min(max(self.remaining, 0), sys.maxsize - 1) + 1",
           "        return min(max(self.remaining, 0), sys.maxsize - 1)", (CHARPAIR,)),
    # in the merge reach, which the lane tables' pair charges come from too
    Mutant("merge's end one too far", "guide.py",
           "        end = min(max(p1, p0, 0) + 1, n)",
           "        end = min(max(p1, p0, 0) + 2, n)", (CHARPAIR,)),
    Mutant("run boundary in _divide", "guide.py",
           "            j, k = starts[r - 1], starts[r]",
           "            j, k = starts[r - 1] + 1, starts[r]", (CHARPAIR,)),
    Mutant("tables after the first call", "charpair.py",
           "    finished = count()",
           "    finished = count(1)",
           (f"{LANES}::test_tables_build_after_the_second_call_and_serve_from_the_third",)),
    Mutant("_cover's limit one too far", "guide.py",
           "        limit = fuel.read_limit()",
           "        limit = fuel.read_limit() + 1", ("tests/test_family_state.py",)),
    Mutant("_fail charges one more", "guide.py",
           "        fuel.spend(n)",
           "        fuel.spend(n + 1)", (CHARPAIR,)),
    Mutant("split's reach without + 1", "guide.py",
           "        return after - 1, self._starts[after] + 1 if after < runs else 0",
           "        return after - 1, self._starts[after] if after < runs else 0", (CHARPAIR,)),
    Mutant("loop merge charges one more", "charpair.py",
           "            fuel.spend(len(merged))",
           "            fuel.spend(len(merged) + 1)", (CHARPAIR,)),
    Mutant("lanes of 3 bits", "guide.py",
           "    return [lane_table(targets[i:i + 4]) for i in range(0, len(targets), 4)]",
           "    return [lane_table(targets[i:i + 3]) for i in range(0, len(targets), 4)]", (ENTRIES,)),
    Mutant("curve tables one bit short", "cli.py",
           "    tx, ty = (lane_table(t[:_BLOCK_BITS]) for t in extract_targets(*layout))",
           "    tx, ty = (lane_table(t[:_BLOCK_BITS - 1]) for t in extract_targets(*layout))",
           (CLI,)),
    Mutant("curve x values one short", "cli.py",
           "    vx, vy = range(tx[-1] + 1), range(ty[-1] + 1)",
           "    vx, vy = range(tx[-1]), range(ty[-1] + 1)", (CLI,)),
    Mutant("curve block starts one early", "cli.py",
           "            x, y = fam.unpair(ns.start)",
           "            x, y = fam.unpair(ns.start - 1)", (CLI,)),
    Mutant("curve failure search skips the top power", "cli.py",
           "        for w in range(length):",
           "        for w in range(length - 1):", (CLI,)),
    Mutant("base-2 decons keeps the one", "nadic.py",
           "        return x, z >> (x + 1)",
           "        return x, z >> x", ("tests/test_nadic.py",)),
    Mutant("mixed expansion takes any base", "nadic.py",
           "        x, n = decons(base(b), n)",
           "        x, n = decons(b, n)",
           ("tests/test_nadic.py::test_cold_entries_refuse_a_non_integer_base",)),
]


def _lines(tree: Path, m: Mutant) -> tuple[Path, list[str], list[int]]:
    """The mutant's file in tree, its lines, and the indices of those equal to m.line."""
    path = tree / "src" / "pairbij" / m.path
    lines = path.read_text(encoding="utf-8").split("\n")
    return path, lines, [i for i, line in enumerate(lines) if line == m.line]


def _passes(tree: Path, tests: tuple[str, ...]) -> bool:
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                          *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        shutil.copytree(ROOT, base, ignore=IGNORED)
        for m in MUTANTS:
            hits = len(_lines(base, m)[2])
            if hits != 1:
                print(f"mutant {m.name!r}: its line is found {hits} times in {m.path},"
                      f" not once:\n  {m.line}")
                return 2
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        if not _passes(base, tests):
            print(f"the mutants' tests fail on the unmutated tree: {' '.join(tests)}")
            return 2
        survivors = []
        for i, m in enumerate(MUTANTS):
            tree = Path(tmp) / f"m{i}"
            shutil.copytree(base, tree)
            path, lines, (at,) = _lines(tree, m)
            lines[at] = m.mutated
            path.write_text("\n".join(lines), encoding="utf-8")
            killed = not _passes(tree, m.tests)
            print(f"{'killed' if killed else 'SURVIVED'}: {m.name}", flush=True)
            if not killed:
                survivors.append(m.name)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

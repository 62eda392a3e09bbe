"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
All comparisons are exact; there are no tolerances anywhere in this package.
The checks themselves live in pairbij.invariants, which `pairbij selftest`
also runs at smaller sizes; each criterion here fixes the full sizes.
"""

from pairbij import cli, invariants, streams
from pairbij.invariants import MORTON_TABLE

C2_FAMILIES = (["morton"] + [f"arith-set:{k}" for k in range(1, 9)]
               + ["squares", "powers2", "syracuse", "bits-of-naturals"])


def _report(criterion: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = f" -- {'; '.join(failures[:4])}" if failures else ""
    print(f"[{criterion}] {status}{detail}")
    assert not failures, f"{criterion}: {failures[:10]}"


def _check(failures: list[str], ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def test_criterion_1_golden_values(capsys):
    _report("C1 golden values", invariants.golden_nadic() + invariants.golden_encoders()
            + invariants.golden_morton())


def test_criterion_2_roundtrip_suites(capsys):
    # arith-set:1 fails here by construction: its guide is all ones, so unpair
    # runs out of fuel (see the README)
    _report("C2 roundtrip suites", invariants.nadic_roundtrips(range(2, 17), 10_000, 41)
            + invariants.family_roundtrips(C2_FAMILIES, 10_000, 64))


def test_criterion_3_permutation_law(capsys):
    _report("C3 permutation law", invariants.bij_law(range(2, 9), 1000))


def test_criterion_4_oracle_equivalences(capsys):
    _report("C4 oracle equivalences", invariants.valuation_oracles(10_000, 21, 41)
            + invariants.morton_interleave(256)
            + invariants.family_roundtrips(["cantor"], 10_000, 201))


def test_criterion_5_divergence_detection(capsys):
    _report("C5 divergence detection", invariants.divergence(streams.DEFAULT_FUEL))


def test_criterion_6_encoder_laws(capsys):
    _report("C6 encoder laws", invariants.encoder_laws(50, 1000))


def test_criterion_7_curve_export(tmp_path, capsys):
    f: list[str] = []

    out = tmp_path / "morton10.csv"
    code = cli.main(["curve", "morton", "10", "csv", "--out", str(out)])
    _check(f, code == 0, "curve morton 10 csv exited nonzero")
    rows = out.read_text().strip().splitlines()
    _check(f, rows[0] == "n,x,y", "csv header")
    got = [tuple(int(v) for v in row.split(",")) for row in rows[1:]]
    _check(f, got == [(n, x, y) for n, (x, y) in enumerate(MORTON_TABLE)],
           "curve morton 10 csv rows equal the unpair table")

    for spec in ("morton", "arith-set:3", "syracuse"):
        p1 = tmp_path / f"{spec.replace(':', '_')}-1.csv"
        p2 = tmp_path / f"{spec.replace(':', '_')}-2.csv"
        _check(f, cli.main(["curve", spec, "1000", "csv", "--out", str(p1)]) == 0,
               f"curve {spec} 1000 exited nonzero")
        _check(f, cli.main(["curve", spec, "1000", "csv", "--out", str(p2)]) == 0,
               f"curve {spec} rerun exited nonzero")
        _check(f, p1.read_bytes() == p2.read_bytes(), f"curve {spec} not byte-identical")
        pts = {tuple(row.split(",")[1:]) for row in p1.read_text().strip().splitlines()[1:]}
        _check(f, len(pts) == 1001, f"curve {spec} points not all distinct")

    _report("C7 curve export", f)

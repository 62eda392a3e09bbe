import contextlib
import functools
import io
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairbij import charpair, cli, streams
from pairbij.errors import PairbijError

MORTON_CSV = "n,x,y\n0,0,0\n1,1,0\n2,0,1\n3,1,1\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_pair_nadic(capsys):
    code, out, _ = run(capsys, "pair", "nadic:3", "10", "20")
    assert code == 0
    assert out.strip() == "1830518"


def test_pair_nadic_base2(capsys):
    code, out, _ = run(capsys, "pair", "nadic:2", "3", "5")
    assert code == 0
    assert out.strip() == "87"


def test_pair_morton_zero(capsys):
    code, out, _ = run(capsys, "pair", "morton", "0", "0")
    assert code == 0
    assert out.strip() == "0"


def test_unpair_morton(capsys):
    code, out, _ = run(capsys, "unpair", "morton", "10")
    assert code == 0
    assert out.strip() == "0 3"


def test_unpair_nadic_zero(capsys):
    code, out, _ = run(capsys, "unpair", "nadic:3", "0")
    assert code == 0
    assert out.strip() == "0 0"


def test_unpair_cantor(capsys):
    code, out, _ = run(capsys, "unpair", "cantor", "8")
    assert code == 0
    assert out.strip() == "1 2"


def test_encode_list_to_nadic3(capsys):
    code, out, _ = run(capsys, "encode", "--from", "list", "--to", "nadic:3", "[2,0,1,2]")
    assert code == 0
    assert out.strip() == "873"


def test_encode_set_to_bins(capsys):
    code, out, _ = run(capsys, "encode", "--from", "set", "--to", "bins", "[0,2,4,5,7,8,9]")
    assert code == 0
    assert out.strip() == "[1,0,1,0,1,1,0,1,1,1]"


def test_encode_identity(capsys):
    code, out, _ = run(capsys, "encode", "--from", "list", "--to", "list", "[5]")
    assert code == 0
    assert out.strip() == "[5]"


def test_encode_nat_to_list(capsys):
    code, out, _ = run(capsys, "encode", "--from", "nat", "--to", "list", "300")
    assert code == 0
    assert out.strip() == "[2,0,1,2]"


def test_encode_empty_list(capsys):
    code, out, _ = run(capsys, "encode", "--from", "list", "--to", "bins", "[]")
    assert code == 0
    assert out.strip() == "[0]"


def test_encode_wrong_literal_kind(capsys):
    code, _, err = run(capsys, "encode", "--from", "nat", "--to", "list", "[1,2]")
    assert code == 2
    assert "expects a natural number" in err


def test_permute_table(capsys):
    code, out, _ = run(capsys, "permute", "2", "3", "31")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 32
    values = [int(line.split()[1]) for line in lines]
    assert values[:8] == [0, 1, 3, 2, 9, 5, 6, 4]


def test_permute_identity(capsys):
    code, out, _ = run(capsys, "permute", "5", "5", "9")
    assert code == 0
    for line in out.strip().splitlines():
        n, v = line.split()
        assert n == v


def test_permute_bad_base(capsys):
    code, _, err = run(capsys, "permute", "1", "3", "5")
    assert code == 2
    assert "base" in err


def test_curve_csv_golden(capsys):
    code, out, _ = run(capsys, "curve", "morton", "3", "csv")
    assert code == 0
    assert out == MORTON_CSV


def test_curve_count_zero(capsys):
    code, out, _ = run(capsys, "curve", "syracuse", "0", "csv")
    assert code == 0
    assert out == "n,x,y\n0,0,0\n"


def test_curve_csv_deterministic(tmp_path, capsys):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["curve", "arith-set:3", "200", "csv", "--out", str(f1)]) == 0
    assert cli.main(["curve", "arith-set:3", "200", "csv", "--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_curve_svg_structure(tmp_path, capsys):
    out = tmp_path / "path.svg"
    assert cli.main(["curve", "morton", "50", "svg", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("<polyline") == 1
    points = text.split('points="')[1].split('"')[0].split()
    assert len(points) == 51


@pytest.mark.parametrize("spec", ["morton", "squares"])
def test_curve_svg_past_the_float_range(capsys, spec):
    code, out, err = run(capsys, "curve", f"{spec},xor:{2**2100}", "3", "svg")
    assert (code, err) == (0, "")
    points = out.split('points="')[1].split('"')[0].split()
    assert len(points) == 4
    for point in points:
        x, y = map(float, point.split(","))
        assert 10 <= x <= 990 and 10 <= y <= 990


def test_curve_points_distinct(tmp_path):
    out = tmp_path / "c.csv"
    assert cli.main(["curve", "syracuse", "400", "csv", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    pts = {tuple(r.split(",")[1:]) for r in rows}
    assert len(pts) == 401


def test_curve_divergent_names_failing_n(capsys):
    code, _, err = run(capsys, "--fuel", "3000", "curve", "arith-set:1", "3", "csv")
    assert code == 2
    assert "n=0" in err


def test_curve_names_failing_n_for_guide_errors(tmp_path, capsys):
    path = tmp_path / "short.bits"
    path.write_text("1010101001")
    code, out, err = run(capsys, "curve", f"seed-file:{path}", "1000", "csv")
    assert code == 2
    assert out == ""
    # 256 is the first n with nine bits: delimiting both sides needs a run starting past
    # position 9, and the file holds positions 0..9
    assert err == (f"error: unpair failed at n=256: guide of seed seed-file:{path}:bins"
                   " ended at position 10 before both components were delimited\n")


def test_unpair_pair_roundtrip_through_cli(capsys):
    for spec in ("morton", "nadic:5", "cantor", "arith-set:4", "squares", "morton,xor:9"):
        for n in (0, 1, 17, 140):
            code, out, _ = run(capsys, "unpair", spec, str(n))
            assert code == 0
            x, y = out.split()
            code, out, _ = run(capsys, "pair", spec, x, y)
            assert code == 0
            assert out.strip() == str(n)


def test_xor_modifier(capsys):
    code, out, _ = run(capsys, "pair", "morton,xor:7", "1", "0")
    assert code == 0
    assert out.strip() == "6"  # morton pair(1,0) = 1, masked with 7


def test_unknown_family(capsys):
    code, _, err = run(capsys, "pair", "hilbert", "1", "2")
    assert code == 2
    assert "hilbert" in err


def test_unknown_modifier(capsys):
    code, _, err = run(capsys, "pair", "morton,rot:3", "1", "2")
    assert code == 2
    assert "modifier" in err


def test_negative_input(capsys):
    code, _, err = run(capsys, "pair", "morton", "-1", "2")
    assert code == 2
    assert "non-negative" in err


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", int)()  # 4300 unless configured


@pytest.mark.skipif(not 0 < DIGIT_LIMIT < 5001, reason="needs CPython's int-str digit limit")
@pytest.mark.parametrize("argv, first", [
    (["pair", "nadic:2", "20000", "0"],
     f"error: result of 20000 bits has more than the limit of {DIGIT_LIMIT} decimal digits"),
    (["encode", "--from", "list", "--to", "nat", "[30000]"],
     f"error: result of 30001 bits has more than the limit of {DIGIT_LIMIT} decimal digits"),
    (["unpair", "morton", "7" * 5001],
     f"error: n is 5001 characters long, more than the limit of {DIGIT_LIMIT} decimal digits;"
     " it starts '77777777777777777777'"),
], ids=["pair", "encode", "unpair"])
def test_numbers_past_the_digit_limit_exit_2(capsys, argv, first):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == first


def test_usage_error_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_fuel_flag_caps_work(capsys):
    code, _, err = run(capsys, "--fuel", "2000", "unpair", "arith-set:1", "5")
    assert code == 2
    assert "2000" in err


def test_fuel_env_variable(monkeypatch, capsys):
    monkeypatch.setenv(cli.FUEL_ENV, "1500")
    code, _, err = run(capsys, "unpair", "arith-set:1", "5")
    assert code == 2
    assert "1500" in err


def test_fuel_flag_wins_over_env(monkeypatch, capsys):
    monkeypatch.setenv(cli.FUEL_ENV, "1500")
    code, _, err = run(capsys, "--fuel", "800", "unpair", "arith-set:1", "5")
    assert code == 2
    assert "800" in err


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_shared_parser_gives_each_call_its_own_budget(monkeypatch, capsys):
    monkeypatch.delenv(cli.FUEL_ENV, raising=False)
    code, _, err = run(capsys, "--fuel", "3", "unpair", "morton", "1000")
    assert code == 2 and "after 3 stream pulls" in err
    assert run(capsys, "unpair", "morton", "1000") == (0, "24 30\n", "")
    monkeypatch.setenv(cli.FUEL_ENV, "5")
    code, _, err = run(capsys, "unpair", "morton", "1000")
    assert code == 2 and "after 5 stream pulls" in err


@pytest.mark.parametrize("bad", [["frobnicate"], ["curve", "morton", "3", "png"]])
def test_usage_error_leaves_parser_usable(capsys, bad):
    assert run(capsys, *bad)[0] == 2
    assert run(capsys, "curve", "morton", "3", "csv") == (0, MORTON_CSV, "")


def test_curve_csv_memory_follows_text(tmp_path, capsys):
    out = tmp_path / "c.csv"
    argv = ["curve", "morton", "20000", "csv", "--out", str(out)]
    assert cli.main(argv) == 0  # grows the guide and builds the parser outside the trace
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # about 0.24 MB of text; holding every point as a tuple took 3.8 MB
    assert peak <= 1.25 * 2**20
    code, text, err = run(capsys, *argv[:4])
    assert (code, err) == (0, "") and text.encode() == out.read_bytes()


def test_fuel_must_be_positive(capsys):
    code, _, err = run(capsys, "--fuel", "0", "unpair", "morton", "5")
    assert code == 2


def test_seed_file_family(tmp_path, capsys):
    path = tmp_path / "alt.bits"
    path.write_text("1010101010101010101010101010")
    code, out, _ = run(capsys, "unpair", f"seed-file:{path}", "10")
    assert code == 0
    assert out.strip() == "0 3"
    code, out, _ = run(capsys, "unpair", f"seed-file:{path}:bins", "10")
    assert code == 0
    assert out.strip() == "0 3"


@pytest.mark.parametrize("name", ["missing.bits", "."], ids=["missing", "directory"])
def test_unreadable_seed_file_exits_2(tmp_path, capsys, name):
    path = tmp_path / name
    code, out, err = run(capsys, "unpair", f"seed-file:{path}", "3")
    assert code == 2
    assert out == ""
    assert f"cannot read seed file {path}" in err


def test_binary_seed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.bits"
    path.write_bytes(b"10\xff\xfe10")
    code, _, err = run(capsys, "unpair", f"seed-file:{path}", "3")
    assert code == 2
    assert f"seed file {path}: not text, byte 0xff at offset 2" in err


def test_curve_unwritable_out_exits_2(tmp_path, capsys):
    path = tmp_path / "no-such-dir" / "x.csv"
    code, out, err = run(capsys, "curve", "morton", "5", "csv", "--out", str(path))
    assert code == 2
    assert out == ""
    assert f"cannot write {path}" in err


def test_seed_file_exhaustion_exits_2(tmp_path, capsys):
    path = tmp_path / "tiny.bits"
    path.write_text("10")
    code, _, err = run(capsys, "pair", f"seed-file:{path}", "9", "9")
    assert code == 2


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest", "--range", "50")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [f"PASS {name}" for name in (
        "nadic golden values", "nadic roundtrips", "permutation composition law",
        "encoder laws", "morton golden table", "preset roundtrips",
        "morton vs bit interleave", "cantor oracle", "divergence detection",
        "guide prefix vs loop", "curve walk vs unpair")]


def test_selftest_range_zero(capsys):
    code, out, _ = run(capsys, "selftest", "--range", "0")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["curve", "morton", "-3", "csv"],
    ["permute", "2", "3", "-1"],
    ["selftest", "--range", "-1"],
])
def test_negative_count_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "non-negative" in err


@pytest.mark.parametrize("encoder", ["nat", "nat-prime", "nadic:3"])
def test_seed_file_int_encoder_exits_2(tmp_path, capsys, encoder):
    path = tmp_path / "s.bits"
    path.write_text("1010101010")
    code, _, err = run(capsys, "pair", f"seed-file:{path}:{encoder}", "1", "2")
    assert code == 2
    assert f"got {encoder!r}" in err
    assert "list, mset, set, bins" in err


# Every form of the family-spec grammar; <p> stands for a seed file, and <a,b>
# for one whose name holds a comma.
GRAMMAR_FORMS = ["nadic:5", "morton", "squares", "powers2", "syracuse", "bits-of-naturals",
                 "arith-set:4", "cantor", "seed-file:<p>", "seed-file:<p>:list",
                 "seed-file:<a,b>"]


@pytest.mark.parametrize("form", GRAMMAR_FORMS + [f + ",xor:9" for f in GRAMMAR_FORMS])
def test_family_registry_matches_cli(tmp_path, capsys, form):
    spec = form
    for stand_in, name in (("<p>", "s.bits"), ("<a,b>", "a,b.bits")):
        path = tmp_path / name
        path.write_text("1011010" * 40)
        spec = spec.replace(stand_in, str(path))
    fam = charpair.family(spec)
    for n in range(201):
        x, y = fam.unpair(n)
        assert fam.pair(x, y) == n
        if n % 25 == 0:
            assert run(capsys, "unpair", spec, str(n))[1] == f"{x} {y}\n"
            assert run(capsys, "pair", spec, str(x), str(y))[1] == f"{n}\n"


@pytest.mark.parametrize("spec", ["morton:3", "cantor:2", "arith-set", "nadic", "nadic:1",
                                  "nadic:x", "hilbert", "morton,rot:3", "morton,xor:7,rot:3",
                                  "seed-file:<p>:nat"])
def test_family_registry_rejects(tmp_path, spec):
    path = tmp_path / "s.bits"
    path.write_text("10" * 20)
    with pytest.raises(PairbijError):
        charpair.family(spec.replace("<p>", str(path)))


# -- the curve walk against unpair at every n ------------------------------------------

@pytest.fixture(scope="module")
def seed_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("seeds")


def _curve_run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _draw_head(data, seed_dir) -> tuple[str, int]:
    """A spec head of every form of the grammar with a guide, and a fuel budget."""
    budget = data.draw(st.integers(1, 64) | st.just(streams.DEFAULT_FUEL))
    kind = data.draw(st.sampled_from(["preset", "arith-set", "file"]))
    if kind == "preset":
        name = data.draw(st.sampled_from(["morton", "squares", "powers2", "syracuse",
                                          "bits-of-naturals"]))
        return name, budget
    if kind == "arith-set":
        k = data.draw(st.integers(1, 12))  # 11: a one at position 11, in the walk's tables
        if k == 1:  # the all-ones guide starves: each call would spend the default budget
            budget = data.draw(st.integers(1, 64))
        return f"arith-set:{k}", budget
    # often too short for the count, and under list, mset or set not always a valid seed
    enc = data.draw(st.sampled_from(["list", "mset", "set", "bins"]))
    bits = data.draw(st.lists(st.integers(0, 1), max_size=80))
    path = seed_dir / ("".join(map(str, bits)) + ".bits")
    path.write_text(" ".join(map(str, bits)))
    return f"seed-file:{path}:{enc}", budget


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_curve_walk_matches_unpair(seed_dir, data):
    head, budget = _draw_head(data, seed_dir)
    masks = data.draw(st.lists(st.integers(0, 2**14), max_size=3))
    spec = head + "".join(f",xor:{m}" for m in masks)
    # from 2**11 on, the walk's tables reach guide position 11
    count = data.draw(st.integers(0, 3000) | st.integers(2048, 3000))
    argv = ["--fuel", str(budget), "curve", spec, str(count),
            data.draw(st.sampled_from(["csv", "svg"]))]
    walked = _curve_run(argv)
    # the same command on a family with no guide, which calls unpair at every n
    with mock.patch.object(cli, "parse_family", lambda spec, budget: replace(
            charpair.family(spec, budget), guide=None)):
        looped = _curve_run(argv)
    assert walked == looped


# The first block of the walk's 2**12 rows ends at 4095; 4096, 8192 and 12288 start
# blocks whose carry reaches bits 12, 13 and 12 of n. Alternating bits delimit both
# sides of a payload up to two bits shorter than the file: 15 bits first fail at
# n = 8192, the last n <= 12289 where n gains a bit, and 12 bits at n = 1024.
_BLOCK_COUNTS = (4095, 4096, 4097, 8193, 12289)
_SHORT_SEEDS = {"10" * 7 + "1": 8192, "10" * 6: 1024}


@pytest.mark.parametrize("head", ["morton", "squares", "powers2", "syracuse", "bits-of-naturals",
                                  "arith-set:2", "arith-set:3", *_SHORT_SEEDS, "nadic:2",
                                  "nadic:3", "nadic:7", "nadic:1000000", "cantor"])
def test_curve_blocks_match_unpair(tmp_path, head):
    fails_at = _SHORT_SEEDS.get(head)
    if fails_at:
        path = tmp_path / "short.bits"
        path.write_text(head)
        head = f"seed-file:{path}"
    for mask in (0, 5, 2**13 + 1, 2**20):
        spec = f"{head},xor:{mask}" if mask else head
        fam = charpair.family(spec)
        # unpair at every n, each n unpaired once for all the commands below
        looped = replace(fam, guide=None, columns=None, unpair=functools.cache(fam.unpair))
        for count in _BLOCK_COUNTS:
            for form in ("csv", "svg"):
                argv = ["curve", spec, str(count), form]
                walked = _curve_run(argv)
                with mock.patch.object(cli, "parse_family", lambda spec, budget: looped):
                    assert _curve_run(argv) == walked, argv
                if fails_at and mask == 0:
                    fails = count >= fails_at
                    assert walked[0] == (2 if fails else 0)
                    assert walked[2].startswith(f"error: unpair failed at n={fails_at}:") == fails


def test_curve_reaches_the_traced_entry_points(capsys):
    # benchmarks/spans.py times the curve command by replacing these module attributes
    with (mock.patch.object(cli, "parse_family", wraps=cli.parse_family) as parse,
          mock.patch.object(cli, "_render_csv", wraps=cli._render_csv) as render):
        assert run(capsys, "curve", "morton", "3", "csv") == (0, MORTON_CSV, "")
    parse.assert_called_once()
    render.assert_called_once()

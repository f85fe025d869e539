import hashlib
import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dresschain.cli
import dresschain.exact
import dresschain.painleve
from dresschain.chain import build_even_chain, verify_chain
from dresschain.cli import main
from dresschain.exact import frac_str
from dresschain.maya import CyclicStructure, admitted_shifts, enumerate_structures
from dresschain.orthopoly import AlphaParam
from dresschain.selftest import even_cells


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_enum_example_grid(capsys):
    code, out = run_cli(
        capsys, "enum", "--period", "3", "--shift", "1", "--bound", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["structures"]) == 4
    blocks = [tuple(s["structure"]["blocks"][0]) for s in data["structures"]]
    assert blocks == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert all("diagram" in s and "flip_levels" in s for s in data["structures"])


def test_enum_determinism(capsys):
    _, first = run_cli(capsys, "enum", "--period", "5", "--shift", "3", "--bound", "1")
    _, second = run_cli(capsys, "enum", "--period", "5", "--shift", "3", "--bound", "1")
    assert first == second


def test_enum_round_trip(capsys):
    _, out = run_cli(capsys, "enum", "--period", "3", "--shift", "3", "--bound", "2")
    data = json.loads(out)
    rebuilt = [CyclicStructure.from_json(s["structure"]) for s in data["structures"]]
    assert [cs.to_json() for cs in rebuilt] == [s["structure"] for s in data["structures"]]


def test_enum_period_1_needs_no_shift(capsys):
    # period 1 admits the one shift 1
    code, out = run_cli(capsys, "enum", "--period", "1", "--bound", "2")
    assert code == 0
    assert run_cli(capsys, "enum", "--period", "1", "--shift", "1", "--bound", "2") == (0, out)
    code, out = run_cli(capsys, "enum", "--period", "3")
    assert code == 2 and list(json.loads(out)) == ["error"]


def test_enum_parity_error(capsys):
    code, out = run_cli(capsys, "enum", "--period", "3", "--shift", "2")
    assert code == 2
    assert "error" in json.loads(out)


def test_verify_even_case(capsys):
    code, out = run_cli(
        capsys, "verify", "--period", "4", "--case", "3,1", "--params", "1,1",
        "--alpha", "1/3,2/5", "--perm", "1,2,0,3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert len(data["reports"]) == 2
    assert all(r["pv_residual_zero"] for r in data["reports"])


def test_verify_odd_includes_piv(capsys):
    code, out = run_cli(
        capsys, "verify", "--period", "3", "--shift", "1", "--params", "1,2"
    )
    assert code == 0
    data = json.loads(out)
    assert data["reports"][0]["piv_residual_zero"] is True


def test_verify_bad_params_exits_2(capsys):
    code, out = run_cli(
        capsys, "verify", "--period", "3", "--shift", "1", "--params", "1"
    )
    assert code == 2
    assert "error" in json.loads(out)


def test_verify_degenerate_needs_flag(capsys):
    args = ["verify", "--period", "5", "--shift", "1", "--params", "1,1,2,1"]
    code, out = run_cli(capsys, *args)
    assert code == 2
    code, out = run_cli(capsys, *args, "--allow-degenerate")
    assert code == 0


def test_build_emits_ladder(capsys):
    code, out = run_cli(
        capsys, "build", "--period", "3", "--shift", "3", "--params", "1,1"
    )
    assert code == 0
    chain = json.loads(out)["chains"][0]
    assert chain["delta"] == "6/1"
    assert len(chain["ladder"]) == 4


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "build --period 3 --shift 3 --params 1,1",
            "1cdb398b16f29e8d7e73009a945936e2a280f4f9e383af8bd2f1e9448e49bd8f",
        ),
        (
            "build --period 4 --case 2,2 --params 1,0 --alpha 1/3,-2/5 --perm 1,0,3,2",
            "e397d87bdcd7eff94d5c7883032b15fca5e4921692853b215a8a617fcc87a0b7",
        ),
        (
            "enum --period 5 --shift 1 --bound 3 --format latex",
            "86b4de8892c47b84624b379d0fc261277ba7cf033330dd8971765ef490903b39",
        ),
        (
            "verify --period 6 --case 3,3 --shift 3 --params 1,2,0,1 --alpha -2/5,7/3"
            " --perm 1,2,0,4,5,3 --format json",
            "cac1b28fafe9e1662ab71c9ed938289ebfaf668db2b09ff382714d57d555ae11",
        ),
        (
            "verify --period 4 --case 3,1 --params 1,1 --alpha -2/5,7/3 --perm 1,2,0,3"
            " --format json",
            "d7181cce152e6011762a382487bbc8e63edb4a106a7360638c646a17ffd671f7",
        ),
        (
            "verify --period 5 --shift 1 --params 1,1,3,2 --perm 4,0,1,2,3 --format json",
            "6a0f85c713bd56c708081ffffa9d332b99454cbf9934fc3e6d8ab7959ecbb746",
        ),
        (
            # a period-3 report carries piv_residual_zero
            "verify --period 3 --shift 3 --params 1,1 --format json",
            "59cb89a3ff75a51dc24090a631eb4dfe31a774718ae4747526b02986bcb2318f",
        ),
        (
            "build --period 5 --shift 1 --params 1,1,3,2 --perm 4,0,1,2,3",
            "df22c049fc7d2cad0ce7e4c134949e9e227a6f2e746fcb6241a4e3fb4a82dff6",
        ),
        (
            "build --period 6 --case 3,3 --shift 3 --params 1,2,0,1 --alpha -2/5,7/3"
            " --perm 1,2,0,4,5,3",
            "4957a07554ce600ee949d93b1ae9e45584dab531a4d11b97315097e80eb29a87",
        ),
        (
            "painleve --period 4 --case 3,1 --params 1,1 --alpha -2/5,7/3 --perm 1,2,0,3",
            "c08b14e6c8a1c62069c523933204afc0d04dda7b02276a6c10bd35734740f3f2",
        ),
        (
            "painleve --period 3 --shift 3 --params 1,1",
            "5ebebbd6e0c8a8027b6cf4e75c7a62bb7f2b8b33048a214900046506112f3d6d",
        ),
        (
            "painleve --period 3 --shift 3 --params 1,1 --format latex",
            "e37cd49ebb88563c491a9e1916444c67bbd9241faa413b6234857a9bc24b09fc",
        ),
        (
            "painleve --period 4 --case 3,1 --params 1,1 --alpha -2/5,7/3 --perm 1,2,0,3"
            " --format latex",
            "738746c7e7dd643127cd9891bad2ad22cdbff95fc6f8d0757290dce77baea020",
        ),
        (
            "verify --period 2 --case 1,1 --alpha 1/3,-2/5",
            "d4ef21abb878cce4b1f76c4472e91219754f75879c60bcc21c4debaa70623749",
        ),
        (
            "verify --period 8 --case 4,4 --shift 2 --params 1,1,1,1,1,1 --format json",
            "6c1052bbaad9b165efbe9a70a6443c0c458dafc05efd43ef8d8de1f38e070e95",
        ),
        (
            # ladder degree up to 42, six of its canonical diagrams taken through
            # their conjugates
            "verify --period 7 --shift 7 --params 3,2,3,1,3,2 --perm 2,0,5,1,6,3,4 --format json",
            "ba62a0c5f2ea2d6820a93bb7936dafa2ea3d2adac245de642c1fa6a41296acc2",
        ),
        (
            # a deep odd ladder
            "verify --period 9 --shift 9 --params 2,1,2,0,2,1,2,1 --perm 3,7,0,5,1,8,2,6,4"
            " --format json",
            "fd381b48edfc4f0b02b948f1b1aa3fa3c40622ad10e16969967f82a50c4bb9ed",
        ),
        (
            # even ladders carrying z**12 to z**30 on degrees 28 to 50
            "verify --period 4 --case 2,2 --shift 2 --params 4,4 --alpha 1/3,-2/5 --format json",
            "1e9d73bac0bb1152c0fe7cf1ce39a6bc6a0d2bef88c1a141d4a177bf06b4b4cc",
        ),
        (
            "painleve --period 4 --case 2,2 --params 4,4 --perm 1,0,3,2 --alpha 1/3,-2/5",
            "635bbb0268d0d6043b5e289c4c55bd86ebc6e0c4290ad70640dd7a8174a8237f",
        ),
        (
            # every even entry's poly and z_power, z**12 to z**30
            "build --period 4 --case 2,2 --shift 2 --params 4,4 --alpha 1/3,-2/5",
            "9c6c45cf09facba395207ed5e411295478da62a57d235acf8d60b802c8c1d76f",
        ),
        (
            # odd ladder entries 16x**3, 12x, -6+12x**2, 12+24x**2, 4x and
            # 128x**3: both parities, and a power of z inside `prim`
            "build --period 5 --shift 1 --params 1,1,3,1",
            "3e6cf4b0811768e67d6f7ea7cb41aa917678efd9e0aa5b22704addc11de09508",
        ),
        (
            # deep jobs, about a second each: ladder degrees in z 55, 45, 50
            # and 55, and an even ladder of poly degree 49
            "verify --period 3 --shift 3 --params 10,10 --format json",
            "881ad37ab5ea02fd3e672798d958b0012bebbb24211239d9f09a36668c120306",
        ),
        (
            "verify --period 4 --case 3,1 --params 7,7 --alpha 1/3 --format json",
            "fe0e7368003c74936f943360bb9558b285e0aee524c206f023ddf1b57b3fab92",
        ),
        (
            # under half a second each: ladder degrees in z 78, 66, 72 and
            # 78, then 50, 49, 0 and 50
            "verify --period 3 --shift 3 --params 12,12 --format json",
            "d9f7255ff79865c9a149c28b1ccba4720e659478fabc887b4e69d6812fe0db27",
        ),
        (
            "verify --period 3 --shift 1 --params 100,1 --format json",
            "09d380ccceb38524e4469aa9c2424d62767699078cb48b8089f189afc3eed550",
        ),
        (
            # a deep ladder above period 3, about a quarter second: the
            # Okamoto (10, 10, 10, 10) chain, ladder degrees in z 90 to 110
            "verify --period 5 --shift 5 --params 10,10,10,10 --format json",
            "738ae991b5a2345d73f158388f5f6ebdaf338de8f1b928e17e56bc2f6ea94e01",
        ),
        (
            # all eight criteria; criterion 8 compares ladders in z**2
            "selftest --format json",
            "b7482a22b4cabcb4942b74d867e07a2a06535502cb207563f3ee0ded25e7cc87",
        ),
    ],
)
def test_output_bytes_pinned(capsys, argv, digest):
    # the full stdout, gauge data and flip signs included, byte for byte
    code, out = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_painleve_piv_families(capsys):
    code, out = run_cli(
        capsys, "painleve", "--period", "3", "--shift", "1", "--params", "2,1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["equation"] == "PIV" and len(data["families"]) == 3
    assert all(f["residual_zero"] for f in data["families"])


def test_painleve_pv(capsys):
    code, out = run_cli(
        capsys, "painleve", "--period", "4", "--case", "2,2", "--params", "1,1",
        "--alpha", "1/3", "--perm", "1,0,3,2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["equation"] == "PV"
    assert data["solutions"][0]["residual_zero"] is True


def test_painleve_latex(capsys):
    code, out = run_cli(
        capsys, "painleve", "--period", "3", "--shift", "3", "--params", "1,1",
        "--format", "latex",
    )
    assert code == 0
    assert "y_{0}" in out and "\\frac" in out


@pytest.mark.parametrize(
    "name,argv",
    [
        ("piv_residual", ["painleve", "--period", "3", "--shift", "3", "--params", "1,1"]),
        ("pv_residual", ["painleve", "--period", "4", "--case", "2,2", "--params", "1,1",
                         "--alpha", "1/3,2/5", "--perm", "1,0,3,2"]),
    ],
    ids=["PIV", "PV"],
)
def test_painleve_latex_exit_code_follows_residual(capsys, monkeypatch, name, argv):
    code, out = run_cli(capsys, *argv, "--format", "latex")
    assert code == 0 and out.startswith(("y_{0}: y(t) = ", "y(t) = "))
    monkeypatch.setattr(dresschain.painleve, name, lambda inst: False)
    assert run_cli(capsys, *argv, "--format", "latex") == (1, out)


def test_period_2_matches_criterion_6_row(capsys):
    # the bare isotonic chain, the first cell of the criterion-6 box
    cs1, cs2, _, eps = next(even_cells())
    assert cs1.p + cs2.p == 2
    code, out = run_cli(
        capsys, "verify", "--period", "2", "--case", "1,1", "--alpha", "1/3"
    )
    assert code == 0
    (report,) = json.loads(out)["reports"]
    want = [frac_str(e) for e in eps(F(1, 3))]
    assert [eq["expected"] for eq in report["equations"]] == want == ["4/3", "-16/3"]
    assert all(eq["match"] for eq in report["equations"]) and report["sum_rule"]


def test_case_33_needs_shift(capsys):
    code, out = run_cli(
        capsys, "verify", "--period", "6", "--case", "3,3",
        "--params", "1,1,1,1", "--alpha", "1/3",
    )
    assert code == 2
    code, _ = run_cli(
        capsys, "verify", "--period", "6", "--case", "3,3", "--shift", "3",
        "--params", "1,1,1,1", "--alpha", "1/3",
    )
    assert code == 0


def _params(cs):
    return list(cs.okamoto) + [x for pair in cs.second_type for x in pair]


EVEN_JOBS = [
    ((p1, period - p1), k, cs1, cs2)
    for period in (2, 4, 6, 8)
    for p1 in range(1, period)
    for k in admitted_shifts(p1, period - p1)
    for cs1 in enumerate_structures(p1, k, 1)
    for cs2 in enumerate_structures(period - p1, k, 1)
]


def test_every_admitted_even_split_matches_the_library(capsys):
    # every split of periods 2-8 and every shift it admits, with each
    # pair of bound-1 structures: the CLI runs the library's chain
    assert len(EVEN_JOBS) == 146
    alpha = AlphaParam(F(1, 3))
    for (p1, p2), k, cs1, cs2 in EVEN_JOBS:
        code, out = run_cli(
            capsys, "verify", "--period", str(p1 + p2), "--case", "%d,%d" % (p1, p2),
            "--shift", str(k), "--params", ",".join(map(str, _params(cs1) + _params(cs2))),
        )
        assert code == 0, (p1, p2, k, cs1, cs2)
        (report,) = json.loads(out)["reports"]
        want = verify_chain(build_even_chain(cs1, cs2, alpha)).to_json()
        want["alpha"] = "1/3"
        if p1 + p2 == 4:
            want["pv_residual_zero"] = True
        assert report == want


def test_verify_takes_no_gcd(capsys, monkeypatch):
    # verify never reads a printed y: the chain equations and the PIV and PV
    # residuals are checked on integer polynomials, on every criterion-5
    # structure and every criterion-7 PV cell
    def refuse(a, b):
        raise AssertionError("verify took a gcd")

    monkeypatch.setattr(dresschain.exact, "poly_gcd", refuse)
    jobs = [["--period", "3", "--shift", str(k), "--params", "%d,%d" % pair]
            for k, box in ((1, (1, 2, 3)), (3, (0, 1, 2)))
            for pair in itertools.product(box, repeat=2)]
    jobs += [
        ["--period", "4", "--case", "%d,%d" % (cs1.p, cs2.p), "--shift", str(cs1.k),
         "--params", ",".join(map(str, _params(cs1) + _params(cs2))),
         "--perm", ",".join(map(str, perm)), "--alpha", "1/3"]
        for cs1, cs2, perm, _ in even_cells() if cs1.p + cs2.p == 4
    ]
    assert len(jobs) == 18 + 13
    for argv in jobs:
        assert run_cli(capsys, "verify", *argv)[0] == 0, argv


def test_selftest_single_criterion(capsys):
    code, out = run_cli(capsys, "selftest", "--criteria", "1")
    assert code == 0
    assert "PASS" in out and "criterion 1" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--period", "3", "--shift", "1", "--params", "1,2",
         "--perm", "0,0,1"],
        ["verify", "--period", "3", "--shift", "1", "--params", "1,2",
         "--perm", "0,1"],
        ["enum", "--period", "3", "--shift", "1", "--bound", "0"],
        ["verify", "--period", "4", "--case", "2,2", "--params", "0,0",
         "--alpha", "1/3,1/3"],
        ["enum", "--period", "3", "--shift", "1", "--out", "."],
        ["verify", "--period", "3", "--shift", "1", "--params", "1,2",
         "--out", "missing/report.json"],
        ["selftest", "--criteria", "9"],
        ["selftest", "--criteria", "0,-1"],
        ["painleve", "--period", "3", "--shift", "1", "--params", "1,1",
         "--perm", "2,1,0"],
        ["painleve", "--period", "3", "--shift", "1", "--params", "1,1",
         "--alpha", "1/3"],
        ["painleve", "--period", "3", "--shift", "1", "--params", "1,1",
         "--case", "3,1"],
        ["painleve", "--period", "3", "--shift", "1", "--params", "1,1",
         "--allow-degenerate"],
        ["verify", "--period", "3", "--shift", "1", "--params", "1,2",
         "--alpha", "1/3"],
        ["build", "--period", "3", "--shift", "1", "--params", "1,2",
         "--case", "3,1"],
        ["verify", "--period", "4", "--case", "2,2", "--params", "0,0",
         "--allow-degenerate"],
        ["painleve", "--period", "4", "--case", "2,2", "--params", "0,0",
         "--perm", "1,0,3,2", "--allow-degenerate"],
        ["verify", "--period", "4", "--case", "3,3", "--shift", "1",
         "--params", "1,1,1,1", "--format", "text"],
        ["build", "--period", "8", "--case", "2,2", "--params", "0,0"],
        ["verify", "--period", "2", "--case", "3,1", "--params", "1,1"],
        ["verify", "--period", "4", "--case", "2,2", "--params", "0,0",
         "--shift", "0"],
        ["verify", "--period", "6", "--case", "3,3", "--params", "1,1,1,1",
         "--shift", "0"],
        ["verify", "--period", "3", "--shift", "1", "--params",
         "99999999999999999999999,1"],
        ["verify", "--period", "4", "--case", "2,2", "--params", "-1,0"],
        ["verify", "--period", "3", "--shift", "1", "--params", "1,2",
         "--perm", "-1,0,1"],
        ["verify", "--period", "4", "--case", "-1,5"],
        ["selftest", "--criteria", "-1,2"],
        ["selftest", "--criteria="],
        ["selftest", "--criteria=1,1"],
        ["verify", "--period", "4", "--case", "2,2", "--shift", "1",
         "--params", "0,0"],
        ["verify", "--period", "4", "--case", "0,4"],
        ["verify", "--period", "2000000000", "--case", "1000000000,1000000000"],
        ["verify", "--period", "2000000000", "--case", "1000000000,1000000000",
         "--shift", "2"],
        # 400 seeds: deeper than the memoised recursion can go
        ["build", "--period", "3", "--shift", "3", "--params", "400,0"],
        # structure boxes over maya.ENUM_BUDGET, refused before any work
        ["enum", "--period", "99999999999", "--shift", "1", "--bound", "1"],
        ["enum", "--period", "3", "--shift", "3", "--bound", "200"],
        ["enum", "--period", "5", "--shift", "1", "--bound", "1" + "0" * 40],
        # few structures, but each with a diagram of up to 362 entries
        ["enum", "--period", "3", "--shift", "3", "--bound", "181"],
        # diagrams over maya.DIAGRAM_BUDGET, refused before any work
        ["verify", "--period", "3", "--shift", "1", "--params", "1,99999999"],
        ["verify", "--period", "4", "--case", "3,1", "--params", "1,99999999",
         "--alpha", "1/3"],
        ["painleve", "--period", "3", "--shift", "1", "--params", "1,99999999"],
        # an empty list is not the default
        ["verify", "--period", "4", "--case", "2,2", "--params", "0,0", "--alpha="],
        ["verify", "--period", "3", "--shift", "1", "--params", "1,2", "--perm="],
        ["painleve", "--period", "4", "--case", "2,2", "--params", "1,0", "--alpha="],
        # alpha values that are not a list of non-integer fractions
        ["verify", "--period", "4", "--case", "2,2", "--params", "0,0", "--alpha", "2"],
        ["verify", "--period", "4", "--case", "2,2", "--params", "0,0", "--alpha", "1/0"],
        ["verify", "--period", "4", "--case", "2,2", "--params", "0,0", "--alpha", "x"],
        ["verify", "--period", "4", "--case", "2,2", "--params", "0,0", "--alpha", "1/3,"],
        ["painleve", "--period", "4", "--case", "2,2", "--params", "1,0", "--alpha", "1/0"],
        # command lines that argparse refuses
        ["build", "--period", "3", "--shift", "1", "--params", "1,2", "--format", "text"],
        ["verify", "--period", "x"],
        ["enum", "--period", "3", "--alpha", "1/3"],
        ["verify"],
        ["frobnicate"],
    ],
    ids=["repeated-perm", "short-perm", "zero-bound", "duplicate-alpha",
         "out-is-directory", "out-parent-missing", "criterion-9", "criterion-0",
         "piv-perm", "piv-alpha", "piv-case", "piv-allow-degenerate",
         "odd-alpha", "odd-case", "even-allow-degenerate", "pv-allow-degenerate",
         "case-6-period-4", "case-4-period-8", "case-4-period-2",
         "case-2-2-shift-0", "case-3-3-shift-0", "overflowing-param",
         "negative-param", "negative-perm", "negative-case", "negative-criterion",
         "empty-criteria", "repeated-criterion",
         "case-2-2-shift-1", "case-0-4", "huge-case", "huge-case-shift-2",
         "seed-tuple-too-long", "huge-enum-period", "enum-box-over-budget",
         "huge-enum-bound", "enum-diagrams-over-budget",
         "odd-diagram-over-budget", "even-diagram-over-budget",
         "piv-diagram-over-budget",
         "empty-alpha", "empty-perm", "pv-empty-alpha",
         "integer-alpha", "zero-denominator-alpha", "malformed-alpha",
         "trailing-empty-alpha", "pv-zero-denominator-alpha",
         "build-format-text", "non-integer-period", "enum-alpha", "missing-period",
         "unknown-command"],
)
def test_invalid_input_exits_2(capsys, monkeypatch, tmp_path, argv):
    # relative --out paths resolve in an empty directory
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert list(json.loads(out)) == ["error"]


def test_negative_alpha_as_separate_value(capsys):
    args = ["verify", "--period", "4", "--case", "2,2", "--params", "0,0"]
    code, joined = run_cli(capsys, *args, "--alpha=-4/3")
    assert code == 0
    assert run_cli(capsys, *args, "--alpha", "-4/3") == (0, joined)
    assert run_cli(capsys, *args, "--alpha", "-4/3,1/3")[0] == 0


def test_verify_text_agrees_with_exit_code(capsys, monkeypatch):
    args = ["verify", "--period", "3", "--shift", "1", "--params", "1,2",
            "--format", "text"]
    code, out = run_cli(capsys, *args)
    assert (code, out) == (0, "period=3 delta=2/1 OK\n")
    # the chain report still holds; only the PIV residual fails
    monkeypatch.setattr(dresschain.cli, "piv_residual", lambda inst: False)
    code, out = run_cli(capsys, *args)
    assert (code, out) == (1, "period=3 delta=2/1 FAILED\n")


def test_verify_reports_a_failing_deep_pv_instance(capsys, monkeypatch):
    # the pinned deep PV job with b off by one: every chain equation holds,
    # the PV check answers no and the job exits 1
    real = dresschain.cli.pv_from_chain

    def bumped(sol):
        inst = real(sol)
        return replace(inst, b=inst.b + 1)

    monkeypatch.setattr(dresschain.cli, "pv_from_chain", bumped)
    code, out = run_cli(capsys, "verify", "--period", "4", "--case", "3,1", "--params", "7,7",
                        "--alpha", "1/3", "--format", "json")
    assert code == 1
    (report,) = json.loads(out)["reports"]
    assert report["pv_residual_zero"] is False
    assert all(eq["match"] for eq in report["equations"])


def test_selftest_json_to_stdout(capsys):
    code, out = run_cli(capsys, "selftest", "--criteria", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert [r["criterion"] for r in data["results"]] == [1]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run_cli(
        capsys, "verify", "--period", "1", "--shift", "1", "--params", "",
        "--out", str(target),
    )
    assert code == 0
    assert json.loads(target.read_text())["ok"] is True


@pytest.mark.parametrize(
    "command, fmt", [("build", "text"), ("verify", "latex"), ("painleve", "text")]
)
def test_format_refused_where_not_implemented(capsys, command, fmt):
    # each command accepts only the formats it prints, and refuses the
    # others as invalid input: exit 2 with one JSON error
    argv = [command, "--period", "3", "--shift", "1", "--params", "1,2"]
    code, out = run_cli(capsys, *argv, "--format", fmt)
    assert code == 2
    assert list(json.loads(out)) == ["error"]


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dresschain")


# -- the exit-code contract over an argv grammar --------------------------------

_ints = st.integers(-1, 6).map(str)
_int_lists = st.lists(st.integers(-1, 3).map(str), max_size=6).map(",".join)
# 0, -1, an integer, 1/0, empty items and duplicates among valid samples
_alpha_pool = ("0", "-1", "2", "1/0", "", "1/3", "1/3", "-4/3", "2/5")
_option_values = {
    "--period": st.one_of(_ints, st.just("x")),
    "--shift": _ints,
    "--bound": st.integers(0, 3).map(str),
    "--case": st.lists(st.integers(0, 6).map(str), min_size=1, max_size=3).map(",".join),
    "--params": _int_lists,
    "--alpha": st.lists(st.sampled_from(_alpha_pool), min_size=1, max_size=3).map(",".join),
    "--perm": st.lists(st.integers(-1, 5).map(str), max_size=6).map(",".join),
    # invalid lists, or the fast criteria
    "--criteria": st.sampled_from(("", "0", "9", "-1", "x", "5,5", "1,1", "5", "7", "5,7")),
    "--format": st.sampled_from(("json", "text", "latex", "xml")),
    "--out": st.sampled_from(("file", "dir")),
    "--allow-degenerate": st.none(),
}


@st.composite
def _job(draw):
    """--period, with a --case split when it is even, an admitted --shift
    and as many --params as the structures read: mostly a valid job."""
    period = draw(st.integers(1, 6))
    periods = [period]
    argv = ["--period", str(period)]
    if period % 2 == 0:
        first = draw(st.integers(1, period - 1))
        periods = [first, period - first]
        argv += ["--case", "%d,%d" % tuple(periods)]
    shifts = admitted_shifts(*periods)
    if shifts:
        argv += ["--shift", str(draw(st.sampled_from(shifts)))]
    params = draw(st.lists(st.integers(1, 3).map(str), min_size=sum(periods) - len(periods),
                           max_size=sum(periods) - len(periods)))
    return argv + ["--params", ",".join(params)]


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(("enum", "build", "verify", "painleve", "selftest",
                                    "frobnicate")))
    argv = [command]
    if command == "selftest":
        argv += ["--criteria", draw(_option_values["--criteria"])]
    elif draw(st.booleans()):
        argv += draw(_job())
    names = sorted(_option_values)
    for name in draw(st.lists(st.sampled_from(names), unique=True, max_size=3)):
        value = draw(_option_values[name])
        argv += [name] if value is None else [name, value]
    return argv


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argvs())
def test_every_command_line_exits_0_1_or_2(capsys, tmp_path, argv):
    # main never raises: it returns 0, 1 or 2, and an exit 2 prints exactly
    # one {"error": ...} object.  --out is a file under tmp_path, or a
    # directory
    argv = [{"file": str(tmp_path / "out.txt"), "dir": str(tmp_path)}.get(tok, tok)
            if prev == "--out" else tok for prev, tok in zip([None] + argv, argv)]
    code, out = run_cli(capsys, *argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.endswith("\n") and out.count("\n") == 1, argv
        assert list(json.loads(out)) == ["error"], argv


ON_DEMAND = ("dresschain.latex", "dresschain.selftest")

_LOADED_AFTER = """
import contextlib, io, json, sys
from dresschain.cli import main
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = main(argv) if argv else 0
print(json.dumps([code, sorted(set(json.loads(sys.argv[2])) & set(sys.modules))]))
"""


@pytest.mark.parametrize(
    "argv,loaded",
    [
        ("", []),
        ("painleve --period 3 --shift 1 --params 1,2 --format json", []),
        ("painleve --period 4 --case 2,2 --params 1,1 --alpha 1/3 --perm 1,0,3,2", []),
        ("verify --period 3 --shift 1 --params 1,2 --format text", []),
        ("enum --period 3 --shift 1 --bound 1 --format latex", ["dresschain.latex"]),
        ("build --period 3 --shift 1 --params 1,2 --format latex", ["dresschain.latex"]),
        ("painleve --period 3 --shift 1 --params 1,2 --format latex", ["dresschain.latex"]),
        ("painleve --period 4 --case 2,2 --params 1,1 --alpha 1/3 --perm 1,0,3,2"
         " --format latex", ["dresschain.latex"]),
        ("selftest --criteria 5", ["dresschain.selftest"]),
    ],
)
def test_latex_and_selftest_load_only_for_their_commands(argv, loaded):
    # a fresh interpreter on the package this suite imports, so that no
    # other test has loaded them; a job that renders no LaTeX and runs no
    # acceptance suite holds neither
    package_root = Path(dresschain.cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER, json.dumps(argv.split()), json.dumps(ON_DEMAND)],
        env=dict(os.environ, PYTHONPATH=str(package_root)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, loaded]

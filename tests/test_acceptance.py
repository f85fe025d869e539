"""Acceptance gate: one test per criterion, all exact (zero tolerance).

Each test drives the corresponding selftest check and prints its pass/fail
line; run with -s (or look at failure output) to see the per-criterion
summary, or use the CLI `dresschain selftest`.
"""

import pytest

from dresschain import selftest
from dresschain.chain import OMEGA


def _run(check):
    result = check()
    print(result.line())
    assert result.ok, result.detail
    return result


def test_criterion_1_orthopoly_identities():
    # Laguerre derivative rule for n <= 10 at five rational parameter
    # samples, plus the Hermite-Laguerre bridge for j <= 5; runs in < 1 s
    result = _run(selftest.check_orthopoly_identities)
    assert result.seconds < 1


def test_criterion_2_maya_cyclicity():
    # every structure with p in {1,3,5}, k in {1,3,5}, parameters <= 3:
    # flip replay realizes the k-translation and the sign count rule holds
    result = _run(selftest.check_maya_cyclicity)
    assert "507 structures" in result.detail
    assert result.seconds < 5


def test_criterion_3_wronskian_equivalences():
    # every ladder entry equals the raw matrix of the same translate:
    # Hermite for all canonical diagrams with m <= 4, entries <= 7, k <= 3;
    # Laguerre for component sizes <= 2, k1, k2 <= 2 at three alpha samples
    result = _run(selftest.check_wronskian_equivalences)
    assert result.seconds < 30


def test_criterion_4_odd_chains():
    # every odd structure yields residuals equal to seed-energy
    # differences and an exact sum rule; period-5 parameter tables are
    # matched under their reproducing orderings
    result = _run(selftest.check_odd_chains)
    assert result.detail == "507 chains verified, 51 table rows matched"
    assert result.seconds < 120


def test_criterion_5_piv():
    result = _run(selftest.check_piv)
    assert result.detail == "54 family members, all residuals zero"
    assert result.seconds < 60


def test_criterion_6_even_chains():
    # the period-2 seed, both period-4 splits and all four period-6
    # splits, parameters <= 2, at alpha in {1/3, 2/5, 7/3}
    result = _run(selftest.check_even_chains)
    assert result.detail == "145 parameter cells x 3 alpha samples"
    assert result.seconds < 300


def test_criterion_7_pv():
    # the period-4 cells of the criterion-6 box at its three alphas
    result = _run(selftest.check_pv)
    assert result.detail == "39 PV instances, all residuals zero"
    assert result.seconds < 60


def test_criterion_8_degeneration_oracles():
    result = _run(selftest.check_degenerations)
    assert result.seconds < 30


def _shifted(eps, entry):
    return eps[:entry] + (eps[entry] + OMEGA,) + eps[entry + 1:]


@pytest.mark.parametrize("index, entry", [(0, 0), (50, 4)])
def test_criterion_4_fails_on_a_shifted_table_entry(monkeypatch, index, entry):
    # one energy difference of one period-5 table row moved by omega: the
    # first row (translation 1) and the last (translation 3)
    rows = list(selftest._odd_table_rows())
    label, build, eps = rows[index]
    rows[index] = label, build, _shifted(eps, entry)
    monkeypatch.setattr(selftest, "_odd_table_rows", lambda: iter(rows))
    result = selftest.check_odd_chains()
    assert not result.ok
    assert result.detail.startswith("table mismatch at %s: " % label)


@pytest.mark.parametrize("index, entry", [(0, 0), (144, 5)])
def test_criterion_6_fails_on_a_shifted_table_entry(monkeypatch, index, entry):
    # one energy difference of one cell's table row moved by omega: the
    # period-2 cell and the last period-6 cell
    cells = list(selftest.even_cells())
    cs1, cs2, perm, eps = cells[index]
    cells[index] = cs1, cs2, perm, lambda a: _shifted(eps(a), entry)
    monkeypatch.setattr(selftest, "even_cells", lambda: iter(cells))
    result = selftest.check_even_chains()
    assert not result.ok
    assert result.detail.startswith("table mismatch at (%r, %r, alpha=1/3): " % (cs1, cs2))

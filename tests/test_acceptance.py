"""Acceptance gate: one test per criterion, all exact (zero tolerance).

Each test drives the corresponding selftest check and prints its pass/fail
line; run with -s (or look at failure output) to see the per-criterion
summary, or use the CLI `dresschain selftest`.
"""

from dresschain import selftest


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
    assert result.seconds < 120


def test_criterion_5_piv():
    result = _run(selftest.check_piv)
    assert result.seconds < 60


def test_criterion_6_even_chains():
    # the period-2 seed, both period-4 splits and all four period-6
    # splits, parameters <= 2, at alpha in {1/3, 2/5, 7/3}
    result = _run(selftest.check_even_chains)
    assert result.seconds < 300


def test_criterion_7_pv():
    result = _run(selftest.check_pv)
    assert result.seconds < 60


def test_criterion_8_degeneration_oracles():
    result = _run(selftest.check_degenerations)
    assert result.seconds < 30

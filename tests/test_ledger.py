"""Tests for the exact rational audit ledger."""

import json
from fractions import Fraction

import pytest

from primeineq import ledger
from primeineq.reports import render_report


def test_c_threshold_derivation():
    assert ledger.derive_c_threshold() == Fraction(26088036, 12301745)
    assert ledger.derive_c_threshold() > 2
    assert ledger.derive_c_threshold() > Fraction(37, 18)


def test_heathbrown_identities():
    p = ledger.PAPER_HB_PARAMS
    assert 2 * p.z + p.u == 1
    rep = ledger.verify_heathbrown_params()
    assert rep.all_pass
    closure = [c for c in rep.checks if c.informational]
    assert len(closure) == 1
    # v + z > 1: the closure row fails but is informational only
    assert not closure[0].passed


def test_hbparams_validation():
    with pytest.raises(ValueError):
        ledger.HBParams(Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))


def test_typeI_thresholds():
    rep = ledger.verify_typeI_thresholds()
    assert rep.all_pass
    assert 1 - ledger.Z_EXPONENT == Fraction(12513823, 24603490)


def test_typeII_exponent():
    rep = ledger.verify_typeII_exponent()
    assert rep.all_pass
    assert (2 - ledger.U_EXPONENT) / 2 == Fraction(12195706, 12301745)


def test_bilinear_term_list_reproduced():
    rep = ledger.verify_bilinear_16th_terms()
    assert rep.all_pass
    rows = {c.name: c for c in rep.checks}
    assert rows["matched terms"].lhs == 21
    assert rows["missing terms"].lhs == 0
    assert rows["extra terms"].lhs == 0


def test_longchain_report():
    rep = ledger.verify_longchain_usage()
    assert rep.all_pass
    rows = {c.name: c for c in rep.checks}
    # the c-dominance relation is exactly tight at the threshold
    tight = rows["(iii) kappa*c + 1604109/622379 <= 61084569/12301745 - c at threshold"]
    assert tight.slack == 0
    assert rows["(i) lambda - kappa"].lhs == Fraction(359351, 622379)


def test_reports_never_raise_on_failure():
    bad = ledger.HBParams(Fraction(1, 3), Fraction(1, 2), Fraction(1, 2))
    rep = ledger.verify_heathbrown_params(bad)   # 2z + u = 4/3 > 1
    assert not rep.all_pass
    assert any(not c.passed and not c.informational for c in rep.checks)


def test_json_rationals_as_p_over_q():
    rep = ledger.verify_typeII_exponent()
    payload = json.loads(render_report(rep.payload))
    assert payload["schema"] == 1
    for row in payload["rows"]:
        for key in ("lhs", "rhs", "slack"):
            num, _, den = row[key].partition("/")
            int(num), int(den)


def test_run_all_passes():
    reps = ledger.run_all()
    assert len(reps) == 6
    assert all(r.all_pass for r in reps)


def test_c_threshold_report_is_the_first_of_run_all():
    rep = ledger.verify_c_threshold()
    assert rep.all_pass
    assert rep.payload == ledger.run_all()[0].payload
    assert [c.name for c in rep.checks] == \
        ["derived threshold", "threshold > 2", "threshold beats 37/18"]


def test_nothing_in_the_ledger_pins_v():
    # HBParams' docstring: the two checks of v hold with room to spare, and
    # only the informational closure v <= 1 - z is near, and it fails
    slack = {check.name: check.slack for check in ledger.verify_heathbrown_params().checks}
    assert slack["V^3 >= X    (3v >= 1)"] == Fraction(37331833, 49206980)
    assert slack["U < V       (u <= v)"] == Fraction(27997959, 49206980)
    assert slack["Type-II closure v <= 1-z (informational)"] == -Fraction(763725, 9841396)

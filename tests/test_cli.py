"""End-to-end tests for the command-line interface."""

import json
import math
import os
import shlex
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from primeineq import cli, reports, solver
from primeineq.cli import run
from primeineq.sums import ProblemInstance, moment4


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_pairs_eval(capsys):
    code, out = run_cli(capsys, "pairs", "eval", "--word", "A^2B")
    assert code == 0
    assert out.strip() == "1/14 11/14"


def test_pairs_eval_requires_word(capsys):
    code, _ = run_cli(capsys, "pairs", "eval")
    assert code == 2


def test_pairs_search_sum_objective(capsys):
    code, out = run_cli(capsys, "pairs", "search", "--objective", "sum",
                        "--depth", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["word"] == "AB"
    assert payload["kappa"] == "1/6"
    assert payload["lambda"] == "2/3"


def test_ledger_all(capsys):
    code, out = run_cli(capsys, "ledger", "all")
    assert code == 0
    assert out.count('"schema": 1') == 6


def test_ledger_single_and_unknown(capsys):
    code, out = run_cli(capsys, "ledger", "typeII")
    assert code == 0
    code, _ = run_cli(capsys, "ledger", "bogus")
    assert code == 2


def test_kernel_eval_csv(capsys):
    code, out = run_cli(capsys, "kernel", "eval", "--points", "11")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,phi,Phi,bound"
    assert len(lines) == 12


def test_kernel_check(capsys):
    code, out = run_cli(capsys, "kernel", "check", "--points", "500",
                        "--seed", "1")
    assert code == 0
    assert json.loads(out)["pass"]


def test_count_rs_anchor(capsys):
    code, out = run_cli(capsys, "count", "rs", "--Y", "2", "--c", "1.5",
                        "--gamma", "0.1")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 6
    assert payload["ambiguous"] == 0
    # canonical output carries no timings
    assert set(payload) == {"schema", "config", "count", "ambiguous"}


def test_count_ladder_csv(capsys):
    code, out = run_cli(capsys, "count", "ladder", "--c", "1.5",
                        "--gamma", "1.0", "--Ys", "16,32,64,128")
    assert code == 0
    assert out.splitlines()[0] == "Y,count,slope,reference_slope"


def test_count_V(capsys):
    code, out = run_cli(capsys, "count", "V", "--Y", "6", "--tau", "10",
                        "--c", "1.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] > 0
    assert payload["total"] == pytest.approx(sum(payload["buckets"]))


def test_solve_triple_small(capsys):
    code, out = run_cli(capsys, "solve", "triple", "--N", "90", "--c", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["R"] == 135.0
    # sums of three primes from (30, 60] hitting 135: {41,41,53}, {41,47,47}
    assert payload["count"] == 6
    assert len(payload["records"]) == 6
    assert payload["H"] > 0


def test_solve_sextuple_degenerate(capsys):
    code, out = run_cli(capsys, "solve", "sextuple", "--N", "42", "--c", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] and payload["range_used"] == "dyadic"
    assert payload["records"][0]["primes"] == [7] * 6


def test_solve_requires_N_and_c(capsys):
    code, _ = run_cli(capsys, "solve", "triple")
    assert code == 2


def test_sums_eval_requires_x(capsys):
    code, _ = run_cli(capsys, "sums", "eval", "--X", "64")
    assert code == 2


def test_sums_eval(capsys):
    code, out = run_cli(capsys, "sums", "eval", "--X", "64", "--c", "2.05",
                        "--x", "0.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["T"] == [64.0, 0.0]
    assert payload["abs"]["I"] == 64.0


def test_sums_moment(capsys):
    code, out = run_cli(capsys, "sums", "moment", "--X", "256", "--c", "2.05",
                        "--which", "I")
    assert code == 0
    payload = json.loads(out)
    inst = ProblemInstance(c=2.05, X=256.0, eps=1.0 / math.log(256.0))
    value, err = moment4(inst, "I")
    assert payload["config"] == asdict(inst)
    assert payload["which"] == "I"
    assert payload["moment4"] == value
    assert payload["refine_err"] == err


def test_scan_csv(capsys):
    code, out = run_cli(capsys, "scan", "--format", "csv", "--N", "90",
                        "--c", "1", "--samples", "5", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "R,count"
    assert len(lines) == 6


def test_mainterm(capsys):
    code, out = run_cli(capsys, "mainterm", "--N", "90", "--c", "1",
                        "--R", "135")
    assert code == 0
    assert json.loads(out)["H"] > 0


def test_mainterm_rejects_k_other_than_3_or_6(capsys):
    code = run(["mainterm", "--N", "1e5", "--c", "1.5", "--R", "1.5e5", "--k", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "usage error: k must be 3 or 6\n"


def test_mainterm_requires_R(capsys):
    # R has no natural default: R = N is the lower end of the k = 3 support
    code = run(["mainterm", "--N", "1e5", "--c", "1.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "usage error: mainterm requires --R\n"


@pytest.mark.parametrize("argv", [
    ("sums", "eval", "--X", "64", "--c", "2.05", "--x", "0", "--N", "1e5"),
    ("sums", "eval", "--X", "64", "--c", "2.05", "--x", "0", "--R", "1e5"),
    ("solve", "triple", "--N", "1e5", "--c", "1.5", "--X", "40"),
    ("solve", "triple", "--N", "1e5", "--c", "1.5", "--eta", "9"),
    ("solve", "triple", "--N", "1e5", "--c", "1.5", "--seed", "1"),
    ("scan", "--N", "90", "--c", "1", "--X", "30"),
    ("scan", "--N", "90", "--c", "1", "--eta", "9"),
    ("scan", "--N", "90", "--c", "1", "--R", "135"),
    ("mainterm", "--N", "1e5", "--c", "1.5", "--R", "1.5e5", "--X", "40"),
    ("mainterm", "--N", "1e5", "--c", "1.5", "--R", "1.5e5", "--eta", "9"),
    ("mainterm", "--N", "1e5", "--c", "1.5", "--R", "1.5e5", "--seed", "1"),
    ("pairs", "eval", "--word", "A^2B", "--c", "2.05"),
    ("pairs", "eval", "--word", "A^2B", "--depth", "4"),
    ("pairs", "eval", "--word", "A^2B", "--objective", "sum"),
    ("pairs", "search", "--depth", "4", "--word", "A^2B"),
    ("kernel", "eval", "--points", "11", "--seed", "1"),
    ("kernel", "check", "--points", "10", "--x-min", "-1"),
    ("kernel", "check", "--points", "10", "--x-max", "1"),
    ("sums", "eval", "--X", "64", "--c", "2.05", "--x", "0", "--points", "4"),
    ("sums", "eval", "--X", "64", "--c", "2.05", "--x", "0", "--seed", "1"),
    ("sums", "eval", "--X", "64", "--c", "2.05", "--x", "0", "--which", "I"),
    ("sums", "moment", "--X", "64", "--c", "2.05", "--points", "4"),
    ("sums", "moment", "--X", "64", "--c", "2.05", "--seed", "1"),
    ("sums", "moment", "--X", "64", "--c", "2.05", "--x", "0"),
    ("sums", "profile", "--X", "64", "--c", "2.05", "--points", "4", "--eps", "0.3"),
    ("sums", "profile", "--X", "64", "--c", "2.05", "--points", "4", "--eta", "0.2"),
    ("sums", "profile", "--X", "64", "--c", "2.05", "--points", "4", "--which", "I"),
    ("sums", "profile", "--X", "64", "--c", "2.05", "--points", "4", "--x", "0"),
    ("count", "rs", "--Y", "2", "--Ys", "4,8"),
    ("count", "rs", "--Y", "2", "--tau", "10"),
    ("count", "ladder", "--Ys", "16,32,64,128", "--Y", "2"),
    ("count", "ladder", "--Ys", "16,32,64,128", "--tau", "10"),
    ("count", "V", "--Y", "2", "--tau", "10", "--Ys", "4,8"),
    ("count", "V", "--Y", "2", "--tau", "10", "--gamma", "1.0"),
    ("solve", "sextuple", "--N", "42", "--c", "1", "--R", "252"),
    ("ledger", "all", "--format", "json"),
    ("kernel", "eval", "--points", "11", "--strict"),
    ("kernel", "check", "--points", "10", "--strict"),
])
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv):
    # these flags used to be accepted and ignored: mainterm --eta 9 ran
    # with eta = 0.05 and exited 0, and sums profile --eps 0.3 reported
    # eps = 1/log X
    code = run(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""


def test_scan_rejects_zero_samples(capsys):
    code = run(["scan", "--N", "90", "--c", "1", "--samples", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "usage error: samples must be at least 1, got 0\n"


@pytest.mark.parametrize("points", ["0", "-3"])
def test_sums_profile_rejects_fewer_than_one_point(capsys, points):
    # an empty profile printed "usage error: max() arg is an empty sequence"
    code = run(["sums", "profile", "--X", "512", "--points", points])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"usage error: points must be at least 1, got {points}\n"


@pytest.mark.parametrize("action", ["eval", "check"])
@pytest.mark.parametrize("points", ["0", "-3"])
def test_kernel_actions_reject_fewer_than_one_point(capsys, action, points):
    # kernel check --points 0 printed "pass": true after testing no point,
    # and kernel eval --points 0 printed only the CSV header
    code = run(["kernel", action, "--points", points])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"usage error: points must be at least 1, got {points}\n"


def test_count_ladder_json_is_the_rs_slope_report(capsys):
    code, out = run_cli(capsys, "count", "ladder", "--format", "json",
                        "--c", "1.5", "--gamma", "1.0", "--Ys", "16,32,64,128")
    assert code == 0
    assert json.loads(out) == json.loads(reports.rs_slope_report(1.5, 1.0, (16, 32, 64, 128)))


@pytest.mark.parametrize("argv", [
    ("sums", "profile", "--X", "256", "--c", "2.05", "--points", "4"),
    ("count", "ladder", "--format", "json", "--c", "1.5", "--Ys", "8,16,32,64"),
    ("sums", "eval", "--X", "256", "--c", "2.05", "--x", "0.001"),
    ("count", "rs", "--Y", "8", "--c", "1.5"),
    ("mainterm", "--N", "1e4", "--c", "1.5", "--R", "1.5e4"),
])
def test_json_commands_print_one_style(capsys, argv):
    # every JSON document: schema 1, keys sorted, indent 2
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == reports.render_report(json.loads(out), indent=2) + "\n"


def test_count_ladder_out_of_regime_fails(capsys):
    code, out = run_cli(capsys, "count", "ladder", "--c", "1.5",
                        "--gamma", "1e9", "--Ys", "4,8,16,32")
    assert code == 1
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == \
        [str(Y ** 4) for Y in (4, 8, 16, 32)]


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_no_top_level_workers_flag(capsys):
    # the reports' workers parameter has no CLI flag: no command read it
    # but sums profile, whose output does not depend on it
    assert run(["--workers", "2", "sums", "profile", "--X", "1024", "--c", "2.05"]) == 2


@pytest.mark.parametrize("flags", [("--gamma", "nan"), ("--gamma", "inf"),
                                   ("--c", "nan")])
def test_count_rs_rejects_non_finite_input(capsys, flags):
    # unchecked, NaN would print as "gamma": NaN, which is not JSON
    code, out = run_cli(capsys, "count", "rs", "--Y", "4", *flags)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("command", [("mainterm",), ("solve", "triple")])
@pytest.mark.parametrize("R", ["nan", "inf", "-inf"])
def test_non_finite_R_is_a_usage_error(capsys, command, R):
    # unchecked, mainterm printed "H": NaN with exit 0, and solve triple
    # died in the candidate walk with exit 1
    code = run([*command, "--N", "1e5", "--c", "1.5", f"--R={R}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"usage error: R must be finite, got R = {float(R)}\n"


@pytest.mark.parametrize("argv, message", [
    (("solve", "sextuple", "--N", "inf", "--c", "2.05", "--eps", "0.1"),
     "X must be finite, got X = inf"),
    (("solve", "sextuple", "--N", "1e6", "--c", "2.05", "--eps", "nan"),
     "eps must be finite, got eps = nan"),
    (("mainterm", "--N", "inf", "--c", "1.5", "--R", "1e5", "--eps", "0.1"),
     "X must be finite, got X = inf"),
    (("mainterm", "--N", "1e5", "--c", "1.5", "--R", "1e5", "--eps", "inf"),
     "eps must be finite, got eps = inf"),
    (("sums", "eval", "--X", "inf", "--c", "2.05", "--x", "0", "--eps", "0.1"),
     "X must be finite, got X = inf"),
    (("sums", "eval", "--X", "256", "--c", "nan", "--x", "0", "--eps", "0.1"),
     "c must be finite, got c = nan"),
    (("sums", "moment", "--X", "256", "--eta", "inf"), "eta must be finite, got eta = inf"),
    (("pairs", "search", "--c", "nan"), "c must be finite, got c = nan"),
])
def test_non_finite_instance_is_a_usage_error(capsys, argv, message):
    # X = inf used to die in an OverflowError traceback (exit 1) when
    # kernel_from_instance or a sieve took math.floor(X)
    code = run(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("sums", "eval", "--X", "64", "--c", "2.05", "--x", "inf"), "x must be finite"),
    (("sums", "eval", "--X", "64", "--c", "2.05", "--x", "nan"), "x must be finite"),
    (("kernel", "check", "--a", "inf", "--points", "3"), "a must be finite, got a = inf"),
    (("kernel", "eval", "--b", "nan", "--points", "3"), "b must be finite, got b = nan"),
    (("kernel", "eval", "--x-max", "inf", "--points", "3"), "--x-max must be finite, got inf"),
    (("kernel", "eval", "--x-min", "nan", "--points", "3"), "--x-min must be finite, got nan"),
])
def test_non_finite_x_and_kernel_input_is_a_usage_error(capsys, argv, message):
    # unchecked, an infinite x, a or x range died in a RuntimeWarning under
    # warnings as errors, and --x-min nan printed NaN rows with exit 0
    code = run(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


# a valid value for every required flag, so that a command gets as far as
# the flag under test
_VALID = {"word": "A", "X": "1024", "x": "1e-7", "Y": "32", "tau": "10", "c": "1.5",
          "N": "1e5", "R": "150000"}


@pytest.mark.parametrize("action, flag, value", [
    (action, flag, value) for action, (_, flags) in cli._ACTIONS.items()
    for flag in flags if cli._TYPES[flag] is float for value in ("nan", "inf", "-inf")])
def test_every_float_flag_refuses_non_finite_values(capsys, action, flag, value):
    # unchecked, pairs search --c nan and sums eval --eta inf printed NaN or
    # Infinity, which is not JSON, and exited 0
    argv = [*action.split(), f"--{flag.replace('_', '-')}={value}"]   # -inf is no flag
    for other, default in cli._ACTIONS[action][1].items():
        if default is cli._REQUIRED and other != flag:
            argv += [f"--{other.replace('_', '-')}", _VALID[other]]
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")


@pytest.mark.parametrize("Ys, distinct", [("64,64,64,64", 1), ("16,16,32,64", 3)])
def test_count_ladder_needs_four_distinct_Y(capsys, Ys, distinct):
    # a repeated Y made a singular fit: numpy's RankWarning and a slope of
    # 1.24 from four rungs of one Y
    code = run(["count", "ladder", "--Ys", Ys])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("usage error: need a ladder of at least 4 distinct Y values, "
                            f"got {distinct}\n")


@pytest.mark.parametrize("argv, flag", [
    (("pairs", "eval"), "word"),
    (("sums", "eval", "--x", "0"), "X"),
    (("sums", "eval", "--X", "64"), "x"),
    (("sums", "moment"), "X"),
    (("sums", "profile"), "X"),
    (("count", "rs"), "Y"),
    (("count", "V", "--Y", "8"), "tau"),
    (("count", "V", "--tau", "10"), "Y"),
    (("solve", "triple", "--N", "1e5"), "c"),
    (("solve", "sextuple", "--c", "2.05"), "N"),
    (("mainterm", "--N", "1e5", "--R", "1.5e5"), "c"),
])
def test_missing_required_flag_is_named(capsys, tmp_path, argv, flag):
    # the message names the action and the first required flag left unset;
    # a config file may set it instead
    action = " ".join(argv[:1] if argv[0] == "mainterm" else argv[:2])
    code = run(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"usage error: {action} requires --{flag}\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag} = 1\n")
    run(["--config", str(cfg), *argv])
    assert f"requires --{flag}\n" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("sums", "eval", "--X", "1", "--c", "2.05", "--x", "0"),
    ("sums", "moment", "--X", "1", "--c", "2.05"),
    ("sums", "profile", "--X", "1", "--c", "2.05"),
])
def test_X_below_3_is_a_usage_error(capsys, argv):
    # eps = 1/log X used to be worked out before ProblemInstance checked X,
    # so X = 1 died in a ZeroDivisionError traceback (exit 1)
    code = run(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "usage error: X must be >= 3\n"


@pytest.mark.parametrize("N", ["1", "0"])
@pytest.mark.parametrize("argv", [
    ("solve", "triple", "--c", "1.5"),
    ("solve", "sextuple", "--c", "2.05"),
    ("scan",),
    ("mainterm", "--c", "1.5", "--R", "5"),
])
def test_N_at_most_1_with_default_eps_is_a_usage_error(capsys, argv, N):
    # eps = 1/log N died in a ZeroDivisionError traceback (exit 1) at N = 1
    # and printed "usage error: math domain error" at N = 0
    code = run([*argv, "--N", N])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == \
        f"usage error: eps defaults to 1/log N, which needs N > 1, got N = {float(N)}\n"


@pytest.mark.parametrize("argv", [
    ("solve", "triple", "--c", "1.5"),
    ("solve", "sextuple", "--c", "2.05"),
    ("scan", "--c", "1.5"),
    ("mainterm", "--c", "1.5", "--R", "5"),
])
def test_negative_N_is_a_usage_error(capsys, argv):
    # (N/3)^(1/c) of a negative N is complex, and ProblemInstance died on it
    # in a TypeError traceback (exit 1)
    code = run([*argv, "--N", "-5", "--eps", "0.1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "usage error: N must be positive, got N = -5.0\n"


def test_resource_guard_has_its_own_exit_code(capsys):
    # Y^2 pair sums beyond the fast counter's guard; the guard fires before
    # any allocation
    code = run(["count", "rs", "--Y", "200000"])
    err = capsys.readouterr().err
    assert code == 3
    assert "fast guard" in err and "100000" in err
    # the harmonic sum does Y^4 work: 1024^4 differences
    code = run(["count", "V", "--Y", "1024", "--tau", "1"])
    err = capsys.readouterr().err
    assert code == 3
    assert "harmonic guard" in err and "1099511627776" in err
    # X = (1e30 / 3)^(2/3) lies beyond the sieve's range
    code = run(["solve", "triple", "--N", "1e30", "--c", "1.5"])
    err = capsys.readouterr().err
    assert code == 3
    assert "sieve-range guard" in err
    # tables past 2^31 whose sieve asked for 18.6 GiB and 448 GiB, and one
    # of 4.8e7 primes whose check ran for minutes: the guard refuses each
    for argv in (("solve", "sextuple", "--N", "1e6", "--c", "0.5"),
                 ("solve", "triple", "--N", "1e18", "--c", "1.5"),
                 ("solve", "triple", "--N", "1e5", "--c", "0.5")):
        code = run(list(argv))
        err = capsys.readouterr().err
        assert code == 3
        assert "sieve-range guard (limit 2147483648)" in err
    # the dyadic table at N = 1e9 has 618 primes, so 618^3 triple sums
    code = run(["solve", "sextuple", "--N", "1e9", "--c", "2.05"])
    err = capsys.readouterr().err
    assert code == 3
    assert "triple guard" in err and "618^3" in err


def test_terms_guard_refuses_T_before_it_allocates(capsys):
    # T(x) at X = 1.1e9 would form 1.1e9 terms at once, 56 B each, before
    # S's sieve is reached
    code = run(["sums", "eval", "--X", "1.1e9", "--c", "2.05", "--x", "0.001"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "terms guard (limit 33554432)" in captured.err


def test_numerical_failure_has_its_own_exit_code(capsys, monkeypatch):
    # four and then eight nodes per panel leave the main term unconverged
    monkeypatch.setattr(solver, "_NODES", 4)
    code = run(["mainterm", "--N", "1e4", "--c", "1.5", "--R", "1.5e4"])
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("numerical: main_term_H did not converge")


def test_scan_json_reports_solvability(capsys):
    code, out = run_cli(capsys, "scan", "--N", "1e5", "--c", "1.5",
                        "--samples", "50", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["zero_fraction"] == 1.0 - sum(payload["solvable"]) / 50
    assert payload["dyadic_zero_fraction"] == payload["counts"].count(0) / 50
    # every sampled R has a solution in primes, though 29 of the 50 have
    # none in the dyadic range
    assert payload["zero_fraction"] == 0.0
    assert payload["dyadic_zero_fraction"] == 0.58


def test_config_file_defaults_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nc = 1.5\ngamma = 0.1\nY = 2\n")
    code, out = run_cli(capsys, "--config", str(cfg), "count", "rs")
    assert code == 0
    assert json.loads(out)["count"] == 6
    # explicit flag beats the config file: a huge window counts all 16 tuples
    code, out = run_cli(capsys, "--config", str(cfg), "count", "rs",
                        "--gamma", "100")
    assert code == 0
    assert json.loads(out)["count"] == 16


def test_config_file_supplies_every_valued_flag(capsys, tmp_path):
    # Ys and which took no config value before: count ladder ran its
    # default ladder and sums moment the S moment
    cfg = tmp_path / "run.cfg"
    cfg.write_text("Ys = 16,32,64,128\nwhich = I\nc = 1.5\n")
    code, out = run_cli(capsys, "--config", str(cfg), "count", "ladder")
    assert (code, out) == run_cli(capsys, "count", "ladder", "--c", "1.5",
                                  "--Ys", "16,32,64,128")
    assert [line.split(",")[0] for line in out.splitlines()[1:]] == \
        ["16", "32", "64", "128"]
    code, out = run_cli(capsys, "--config", str(cfg), "sums", "moment",
                        "--X", "256", "--c", "2.05")
    assert code == 0
    assert json.loads(out)["which"] == "I"
    assert (code, out) == run_cli(capsys, "sums", "moment", "--X", "256",
                                  "--c", "2.05", "--which", "I")


@pytest.mark.parametrize("line", ["objective = best", "depth = 8.5"])
def test_invalid_config_value_is_usage_error(capsys, tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code = run(["--config", str(cfg), "pairs", "search"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage error: config ")


def test_readme_cli_commands_parse():
    # the README's CLI block, read as CI's README step reads it: each
    # command parses, so a documented flag the parser rejects fails here
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text().split("\n## CLI", 1)[1].split("```")[1].splitlines()
    commands = [shlex.split(line, comments=True) for line in lines
                if line.startswith("primeineq ")]
    assert commands
    parser = cli._build_parser()
    for argv in commands:
        args = parser.parse_args(argv[1:])
        assert callable(args.handler), argv


def test_out_file_and_rerun_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _ = run_cli(capsys, "--out", str(path), "scan", "--N", "90",
                          "--c", "1", "--samples", "5", "--seed", "3")
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_module_runs_as_script():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "primeineq.cli", "ledger", "all"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    decoder, text, docs = json.JSONDecoder(), proc.stdout.strip(), []
    while text:
        doc, end = decoder.raw_decode(text)
        docs.append(doc)
        text = text[end:].lstrip()
    assert len(docs) == 6
    assert all(d["schema"] == 1 and d["pass"] for d in docs)

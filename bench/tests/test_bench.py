"""Self-tests of the benchmark: the tracer, the output checks, BENCHMARK.json.

    python3 -m pytest bench/tests
"""
import json
import os
import random
import sys
from fractions import Fraction

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _random_matrix(rnd, rows, cols):
    from signject.ratmat import RationalMatrix

    return RationalMatrix([[rnd.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])


# -- tracer -------------------------------------------------------------------


def test_check_minors_records_one_det_per_minor():
    import signject.engine

    rnd = random.Random(7)
    Atilde = _random_matrix(rnd, 3, 5)
    B = _random_matrix(rnd, 5, 3)
    with Tracer() as tracer:
        signject.engine.check_minors(Atilde, B, 2)
    # 2 * C(3, 2) * C(5, 2): one det of Atilde and one of B per (I, J)
    assert tracer.calls("ratmat.det") == 60
    assert tracer.calls("engine.check_minors") == 1
    assert tracer.counts["engine.check_minors.pairs"] == 30


def test_single_solve_strict_records_one_lp():
    import signject.feasibility
    from signject.signs import SignVector

    system = signject.feasibility.StrictSystem(nvars=2, comp_signs=SignVector([1, -1]))
    with Tracer() as tracer:
        result = signject.feasibility.solve_strict(system)
    assert result.feasible
    assert tracer.calls("feasibility.solve_strict") == 1
    assert tracer.counts["feasibility.solve_strict.feasible"] == 1


def test_uninstall_restores_every_binding():
    import signject
    import signject.descartes
    import signject.engine
    import signject.matroid
    import signject.ratmat

    original = signject.ratmat.det
    with Tracer():
        assert signject.engine.det is not original
        assert signject.matroid.det is signject.engine.det is signject.descartes.det is signject.det
    for module in (signject, signject.ratmat, signject.engine, signject.matroid, signject.descartes):
        assert module.det is original


def test_self_time_excludes_traced_children():
    import signject.engine

    rnd = random.Random(3)
    with Tracer() as tracer:
        signject.engine.check_minors(_random_matrix(rnd, 3, 5), _random_matrix(rnd, 5, 3), 2)
    calls, total, self_s = tracer.stats["engine.check_minors"]
    det_total = tracer.edges[("engine.check_minors", "ratmat.det")][1]
    assert self_s == pytest.approx(total - det_total)


def test_traced_outputs_are_byte_identical(tmp_path):
    os.makedirs(tmp_path / "route")
    os.makedirs(tmp_path / "crn")
    route = workloads.build_route_pool(str(tmp_path / "route"))
    crn = workloads.build_crn_minors(str(tmp_path / "crn"))
    ops = route.ops[:40] + [op for op in crn.ops if "twosite" not in op.key]
    untraced = run.run_round(ops, random.Random(1))
    with Tracer():
        traced = run.run_round(ops, random.Random(1))
    assert untraced.failed == traced.failed == 0
    assert len(untraced.results) == len(ops)
    assert traced.results == untraced.results


# -- machine speed ------------------------------------------------------------


def test_speed_probe_samples_during_a_call_and_takes_the_kernel_time_out():
    import signal
    from time import perf_counter

    def busy():
        end = perf_counter() + 0.3
        while perf_counter() < end:
            pass
        return "done"

    previous = signal.getsignal(signal.SIGALRM)
    probe = run.SpeedProbe()
    t0 = perf_counter()
    result, seconds, during = probe.time(busy)
    elapsed = perf_counter() - t0
    assert result == "done"
    assert len(during) >= 3  # one sample per 50 ms of the call
    assert seconds == pytest.approx(elapsed - sum(during), abs=0.005)
    with pytest.raises(ZeroDivisionError):
        probe.time(lambda: 1 / 0)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous


# -- output checks ------------------------------------------------------------


def test_a_tampered_counterexample_fails():
    from signject.engine import Subspace, check_injectivity
    from signject.ratmat import RationalMatrix

    A = [[1, -1]]
    B = [[1, 0], [0, 1]]
    verdict = check_injectivity(RationalMatrix(A), RationalMatrix(B), Subspace(C=RationalMatrix([[1], [1]])))
    cx = verdict.to_json_dict()["counterexample"]
    A, B, C = workloads.fractions(A), workloads.fractions(B), workloads.fractions([[1], [1]])
    in_S = checks.subspace_membership(C)
    assert checks.witness_errors(A, B, cx["kappa"], cx["x"], cx["y"], in_S) == []
    kappa = [str(Fraction(cx["kappa"][0]) * 2)] + cx["kappa"][1:]
    assert checks.witness_errors(A, B, kappa, cx["x"], cx["y"], in_S)
    assert checks.witness_errors(A, B, cx["kappa"], cx["x"], cx["y"], checks.subspace_membership([[1], [2]]))


def test_paired_minor_condition_on_known_cases():
    F = workloads.fractions
    # Birch: B = A^T with S = im(A) is injective
    A = F([[1, 2, -1], [0, 1, 3]])
    assert checks.paired_minor_condition(A, workloads.transpose(A), A) is True
    # kappa1 x - kappa2 / x is increasing on x > 0; (kappa1 - kappa2) x is not injective at kappa1 = kappa2
    assert checks.paired_minor_condition(F([[1, -1]]), F([[1], [-1]]), F([[1]])) is True
    assert checks.paired_minor_condition(F([[1, -1]]), F([[1], [1]]), F([[1]])) is False
    # dim S = 2 but rank A = 1: the condition does not apply
    identity = F([[1, 0], [0, 1]])
    assert checks.paired_minor_condition(F([[1, 0]]), identity, identity) is None


def test_covector_checks_catch_a_missing_or_extra_vector():
    from signject.matroid import covectors
    from signject.ratmat import RationalMatrix

    A = [[1, 0, 1, 2], [0, 1, 1, -1]]
    L = [str(v) for v in covectors(RationalMatrix(A))]
    F = workloads.fractions(A)
    assert checks.covector_errors(F, L) == []
    tope = next(X for X in L if "0" not in X)
    assert checks.covector_errors(F, [X for X in L if X != tope])
    assert checks.covector_errors(F, L + ["+0+0" if "+0+0" not in L else "-0+0"])


def test_zaslavsky_counts_regions_of_generic_lines():
    # four lines through the origin in general position cut the plane into 8 regions
    assert checks.zaslavsky_regions(workloads.fractions([[1, 0, 1, 1], [0, 1, 1, -1]])) == 8


def test_subspace_sign_vectors_of_a_line():
    assert checks.subspace_sign_vectors(workloads.fractions([[1], [-2]])) == {"+-", "-+"}


# -- BENCHMARK.json -----------------------------------------------------------


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.per_layer_units().items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)

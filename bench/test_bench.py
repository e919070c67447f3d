"""Tests of the benchmark's own code.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gssc  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402

with open(os.path.join(HERE, "reference_seed0.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)


# -- self time, coverage, busy fraction ----------------------------------------

def hand_built_spans():
    # A on the main thread encloses B (which encloses C); D and E ran on two
    # pool threads while A waited, so they are A's children too.
    return [
        Span(1, "A", 0.0, 10.0, "main", None),
        Span(2, "B", 1.0, 4.0, "main", 1),
        Span(3, "C", 2.0, 3.0, "main", 2),
        Span(4, "D", 3.0, 8.0, "t1", 1),
        Span(5, "E", 6.0, 9.0, "t2", 1),
        Span(6, "F", 11.0, 12.0, "main", None),
    ]


def test_self_time_of_nested_spans_across_threads():
    selfs = tracer.self_times(hand_built_spans())
    # A: 10 minus the union of B, D, E = [1, 9]
    assert selfs == pytest.approx({1: 2.0, 2: 2.0, 3: 1.0, 4: 5.0, 5: 3.0, 6: 1.0})


def test_union_length_clips_and_merges():
    assert tracer.union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert tracer.union_length([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == pytest.approx(2.0)
    assert tracer.union_length([]) == 0.0


def test_coverage_and_busy_fraction():
    spans = hand_built_spans()
    assert tracer.coverage(spans, 0.0, 12.0) == pytest.approx(11.0 / 12.0)
    # self times sum to 14 over two jobs and 10 s of wall time
    assert tracer.busy_fraction(spans[:5], 2, 10.0) == pytest.approx(13.0 / 20.0)


def test_nearest_rank():
    values = list(range(1, 241))
    assert tracer.nearest_rank(values, 0.5) == 120
    assert tracer.nearest_rank(values, 0.95) == 228
    assert tracer.nearest_rank([], 0.9) == 0.0


def test_live_spans_in_pool_threads_get_the_waiting_parent():
    trace = tracer.Tracer()

    def inner(x):
        return x * 2

    with trace:
        wrapped_inner = trace.wrap("test.inner", inner)

        def outer():
            with ThreadPoolExecutor(max_workers=2) as pool:
                return list(pool.map(wrapped_inner, range(6)))

        assert trace.wrap("test.outer", outer)() == [0, 2, 4, 6, 8, 10]
    (outer_span,) = [s for s in trace.spans if s.name == "test.outer"]
    inner_spans = [s for s in trace.spans if s.name == "test.inner"]
    assert len(inner_spans) == 6
    assert all(s.parent == outer_span.id for s in inner_spans)
    assert {s.thread for s in inner_spans} != {outer_span.thread}
    assert threading.get_ident() == outer_span.thread


# -- installing and restoring --------------------------------------------------

def namespace_snapshot():
    return {(mod.__name__, attr): value
            for mod in tracer.gssc_namespaces()
            for attr, value in vars(mod).items()}


def test_traced_run_restores_every_namespace(tmp_path):
    before = namespace_snapshot()
    original = gssc.learn.reconstruct_gssc
    trace = tracer.Tracer()
    with trace:
        # one function bound in several namespaces gets one wrapper everywhere
        assert gssc.learn.reconstruct_gssc is not original
        assert gssc.experiment.reconstruct_gssc is gssc.learn.reconstruct_gssc
        assert gssc.reconstruct_gssc is gssc.learn.reconstruct_gssc
        sweep = workloads.SweepWorkload(ROOT, "default_samples_sweep.cfg", 2, 0,
                                        str(tmp_path))
        sweep.setup()
        ladder = workloads.LadderWorkload(0)
        ladder.chains = ladder._chain_values(workloads.WARMUP_LADDER)
        outcome = workloads.ladder_pass(workloads.WARMUP_LADDER, ladder.chains, 1,
                                        workloads.WARMUP_Z2_COMPLEX, None)
    assert outcome.failed == 0
    after = namespace_snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert gssc.learn.warnings is before[("gssc.learn", "warnings")]

    stats = tracer.function_stats(trace.spans, trace.counters)
    # one cell of the samples sweep: both gssc variants, one krr, one product
    assert stats["learn.reconstruct_gssc"]["calls"] == 2
    assert stats["baselines.krr_grid"]["calls"] == 1
    assert stats["baselines.sc_product"]["calls"] == 1
    # homology_Z on a 2-complex: degree 0 factors B_1, degrees 1 and 2 two each
    assert stats["homology.smith_normal_form"]["calls"] == 5
    assert trace.counters["gf2.gray_iter.steps"] > 0


def test_ridge_fallback_warnings_are_counted():
    trace = tracer.Tracer()
    with trace, pytest.warns(gssc.ConditioningWarning):
        gssc.learn.warnings.warn("singular", gssc.ConditioningWarning)
    assert trace.counters["learn.warnings.ConditioningWarning"] == 1


def test_exceptions_are_counted_and_propagate():
    trace = tracer.Tracer()
    with trace, pytest.raises(gssc.UnsupportedError):
        gssc.gf2.check_enumeration_bound(99, "test")
    assert trace.counters["gf2.check_enumeration_bound.raised"] == 1


# -- output checks ---------------------------------------------------------------

def samples_config():
    return gssc.parse_config(os.path.join(ROOT, "configs", "default_samples_sweep.cfg"))


def reference_rows(config, rmse):
    return [list(key) + [f"{value:.12g}", "hp"]
            for key, value in zip(workloads.expected_row_keys(config), rmse)]


def test_reference_rows_pass():
    config = samples_config()
    rmse = REFERENCE["sweep_samples"]["rmse"]
    outcome = workloads.check_sweep_rows(reference_rows(config, rmse), config, rmse)
    assert (outcome.attempted, outcome.failed) == (480, 0)


def test_a_ladder_pass_observes_what_the_reference_records():
    ladder = workloads.LadderWorkload(0)
    chains = ladder._chain_values(workloads.LADDER[:1])
    outcome = workloads.ladder_pass(workloads.LADDER[:1], chains, 1,
                                    workloads.Z2_COMPLEX, REFERENCE["topology_ladder"])
    assert outcome.failed == 0
    recorded = REFERENCE["topology_ladder"]
    assert outcome.observed == {"rungs": recorded["rungs"][:1],
                                "z2_objectives": recorded["z2_objectives"]}


@pytest.mark.parametrize("mutate", [
    lambda rows: rows[7].__setitem__(5, repr(float(rows[7][5]) * (1 + 1e-7))),
    lambda rows: rows[7].__setitem__(5, "nan"),
    lambda rows: rows[7].__setitem__(5, "n/a"),
    lambda rows: rows[7].__setitem__(3, "99"),
    lambda rows: rows.pop(),
])
def test_a_perturbed_results_row_is_one_failed_operation(mutate):
    config = samples_config()
    rmse = REFERENCE["sweep_samples"]["rmse"]
    rows = reference_rows(config, rmse)
    mutate(rows)
    outcome = workloads.check_sweep_rows(rows, config, rmse)
    assert (outcome.attempted, outcome.failed) == (480, 1)


def test_without_reference_only_finiteness_is_checked():
    config = samples_config()
    rows = reference_rows(config, [0.5] * 480)
    assert workloads.check_sweep_rows(rows, config).failed == 0
    rows[0][5] = "inf"
    assert workloads.check_sweep_rows(rows, config).failed == 1


def ladder_rung(i):
    rung = REFERENCE["topology_ladder"]["rungs"][i]
    ranks = {tuple(int(v) for v in key.split(",")): r
             for key, r in rung["mod_p_rank"].items()}
    groups = [gssc.HomologySummary(b, t) for b, t in rung["homology_Z"]]
    return rung, ranks, groups


def test_recorded_homology_passes():
    rung, ranks, groups = ladder_rung(1)
    outcome = workloads.check_homology(groups, rung["dims"], ranks, rung["homology_Z"])
    assert (outcome.attempted, outcome.failed) == (3, 0)


def test_a_wrong_betti_number_is_one_failed_operation():
    rung, ranks, groups = ladder_rung(0)
    groups[1] = gssc.HomologySummary(groups[1].betti + 1, [])
    for reference in (rung["homology_Z"], None):
        outcome = workloads.check_homology(groups, rung["dims"], ranks, reference)
        assert (outcome.attempted, outcome.failed) == (3, 1)


def test_a_wrong_rank_breaks_the_betti_check():
    rung, ranks, groups = ladder_rung(0)
    ranks = dict(ranks)
    ranks[(2, 5)] -= 1
    outcome = workloads.check_homology(groups, rung["dims"], ranks)
    assert outcome.failed == 2          # H_1 and H_2 both use rank_5 B_2


def test_decomposition_checks_reject_perturbed_parts():
    rep = gssc.resolve_complex("default")
    x = gssc.ChainVector(rep, 1, gssc.FourierFn(3),
                         workloads.LadderWorkload(0)._chain_values(["default"])[0])
    hodge = gssc.hodge_decompose(x)
    assert workloads.check_decomposition(x.values, hodge)
    bad = copy.copy(hodge)
    bad.x0 = hodge.x0.with_values(hodge.x0.values * (1 + 1e-6))
    assert not workloads.check_decomposition(x.values, bad)
    smooth = gssc.solve_smooth(x, eta=workloads.SMOOTH_ETA)
    assert workloads.check_smooth(x.values, smooth, rep, workloads.SMOOTH_ETA)
    assert not workloads.check_smooth(x.values, smooth, rep, 2 * workloads.SMOOTH_ETA)


def test_z2_check_uses_the_recorded_objective():
    rep = gssc.resolve_complex(workloads.Z2_COMPLEX)
    x = gssc.ChainVector(rep, 1, gssc.ModN(2), [1] * rep.n_cells(1))
    objectives = REFERENCE["topology_ladder"]["z2_objectives"]
    result = gssc.solve_fundamental(x, p=1)
    assert workloads.check_z2(x, result, rep, objectives["1"])
    assert not workloads.check_z2(x, result, rep, objectives["1"] - 1)
    assert math.isclose(objectives["2"], math.sqrt(objectives["1"]))


def test_a_raising_pass_is_one_failed_operation():
    class Broken:
        def run_pass(self):
            raise gssc.NumericalError("boom")

    outcome, start, end = run.timed_pass(Broken(), workloads.Outcome)
    assert (outcome.attempted, outcome.failed) == (1, 1)
    assert "NumericalError: boom" in outcome.failures[0]
    assert end >= start


def test_every_per_layer_metric_names_a_traced_function_or_counter():
    # a misspelt name would otherwise report 0, like a function never called
    functions = set(tracer.traced_functions())
    stats = {"calls", "s", "self_s", *run.QUANTILES}
    whole_run = {"experiment.busy_frac", "trace.overhead_frac", "trace.coverage_frac"}
    for metric in run.load_spec()["per_layer"]:
        function, _, stat = metric["name"].rpartition(".")
        assert (metric["name"] in whole_run or metric["name"] in run.COUNTER_METRICS
                or (function in functions and stat in stats)), metric["name"]


# -- environment record --------------------------------------------------------

def test_source_digest_skips_bytecode_directories(tmp_path):
    for sub in ("src/gssc", "configs"):
        (tmp_path / sub).mkdir(parents=True)
    (tmp_path / "src/gssc/learn.py").write_text("x = 1\n")
    (tmp_path / "configs/a.cfg").write_text("seed = 0\n")
    before = run.source_digest(str(tmp_path))
    (tmp_path / "src/gssc/__pycache__").mkdir()
    (tmp_path / "src/gssc/__pycache__/learn.cpython-311.pyc").write_bytes(b"\0")
    assert run.source_digest(str(tmp_path)) == before
    (tmp_path / "src/gssc/learn.py").write_text("x = 2\n")
    assert run.source_digest(str(tmp_path)) != before

"""The benchmark's own tests.

    python3 -m pytest perfbench -q

Every correctness check must refuse a deliberately corrupted output (and
pass the clean one); every workload must run end to end in quick mode
with the metric names BENCHMARK.json declares; and the benchmark must fail
without printing a result where the program's sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks  # noqa: E402
from repro.core.dataset import DataPoint, OfflineDataset  # noqa: E402
from repro.core.online import FlowFailure, IterationRecord  # noqa: E402
from repro.core.recommender import Recommendation  # noqa: E402


def _qor(**overrides):
    qor = {
        "tns_ns": 1.5, "wns_ns": -0.2, "hold_tns_ns": 0.0, "power_mw": 3.0,
        "leakage_mw": 0.4, "area_um2": 900.0, "wirelength_um": 5e3,
        "drc_count": 2.0, "hold_fix_count": 1.0, "runtime_proxy": 1.0,
    }
    qor.update(overrides)
    return qor


def _dataset():
    rng = np.random.default_rng(3)
    points = [
        DataPoint("D16", tuple(int(b) for b in rng.integers(0, 2, 40)),
                  _qor(power_mw=float(rng.uniform(2, 4)),
                       tns_ns=float(rng.uniform(0.5, 2))))
        for _ in range(12)
    ]
    return OfflineDataset(points=points, insights={})


# ----------------------------------------------------------------------
# archive
# ----------------------------------------------------------------------
def test_clean_qor_passes():
    assert checks.qor_invariants("D16", _qor()) == []
    assert checks.qor_invariants("D16", _qor(tns_ns=0.0, wns_ns=0.1)) == []


@pytest.mark.parametrize("corrupt", [
    {"power_mw": math.nan},
    {"drc_count": math.inf},
    {"tns_ns": -0.1},
    {"tns_ns": 0.0},                 # zero TNS beside a negative WNS
    {"wns_ns": 0.05},                # met WNS beside a nonzero TNS
    {"leakage_mw": 3.5},             # leakage above total power
])
def test_corrupt_qor_is_refused(corrupt):
    assert checks.qor_invariants("D16", _qor(**corrupt))


def test_eq4_scores_match_the_program():
    assert checks.archive_problems(_dataset(), "D16") == []


def test_wrong_program_scores_are_refused():
    class Skewed(OfflineDataset):
        def scores_for(self, design, intention=None):
            scores = super().scores_for(design)
            scores[3] += 1e-6
            return scores

    data = _dataset()
    skewed = Skewed(points=data.points, insights={})
    assert checks.archive_problems(skewed, "D16")


def test_corrupt_archive_point_is_refused():
    data = _dataset()
    bad = replace(data.points[0], qor=_qor(leakage_mw=9.0))
    corrupted = OfflineDataset(points=[bad] + data.points[1:], insights={})
    assert checks.archive_problems(corrupted, "D16")


def test_rerun_mismatch_is_refused():
    point = _dataset().points[0]
    same = lambda design, bits, seed: dict(point.qor)  # noqa: E731
    assert checks.rerun_problems([point], 0, same) == []
    shifted = dict(point.qor, power_mw=point.qor["power_mw"] + 1e-12)
    other = lambda design, bits, seed: shifted  # noqa: E731
    assert checks.rerun_problems([point], 0, other)


# ----------------------------------------------------------------------
# align
# ----------------------------------------------------------------------
def test_gradient_check():
    assert checks.gradient_problems([0.5, -2.0], [0.5 + 1e-9, -2.0]) == []
    assert checks.gradient_problems([0.5, -2.0], [0.5, -2.001])
    assert checks.gradient_problems([0.0, 0.0], [0.0, 0.0])


def _training_pairs():
    from repro.core.model import InsightAlignModel
    from perfbench.workloads import FULL, _align_config

    rng = np.random.default_rng(5)
    model = InsightAlignModel(seed=2)
    insights = rng.normal(0.0, 1.0, (8, model.insight_dims))
    winners = rng.integers(0, 2, (8, model.n_recipes))
    losers = rng.integers(0, 2, (8, model.n_recipes))
    # Margins large enough that every hinge is active.
    margins = np.full(8, 50.0)
    config = _align_config(FULL, 1, 0)
    return model, config, insights, winners, losers, margins


def _gradient_problems():
    from perfbench.workloads import training_gradient_problems

    return training_gradient_problems(*_training_pairs(),
                                      np.random.default_rng(7))


def test_training_gradient_matches_central_differences():
    assert _gradient_problems() == []


def _corrupt_training_path(monkeypatch, corrupt):
    import repro.core.alignment as alignment

    fused = alignment._fused_pair_log_probs

    def wrong(model, insights, winners, losers):
        return corrupt(*fused(model, insights, winners, losers))

    monkeypatch.setattr(alignment, "_fused_pair_log_probs", wrong)


def test_detached_loser_gradient_is_refused(monkeypatch):
    from repro.nn.tensor import Tensor

    # Same loss value, but no gradient flows through the losers.
    _corrupt_training_path(
        monkeypatch, lambda w, l: (w, Tensor(l.numpy())))
    assert _gradient_problems()


def test_scaled_winner_gradient_is_refused(monkeypatch):
    from repro.nn.tensor import Tensor

    # Same loss value, winner gradient 1% too large.
    _corrupt_training_path(
        monkeypatch, lambda w, l: (w * 1.01 - Tensor(0.01 * w.numpy()), l))
    assert _gradient_problems()


def test_margin_dpo_loss_is_the_hinge():
    # One pair, logits 0 everywhere: both sequences have log-prob
    # n*log(1/2), so the gap is 0 and the loss is the margin.
    logits = lambda insights, decisions: np.zeros(decisions.shape)  # noqa: E731
    winners = np.array([[1, 0, 1]])
    losers = np.array([[0, 0, 1]])
    loss = checks.margin_dpo_loss(logits, None, winners, losers,
                                  np.array([0.3]))
    assert loss == pytest.approx(0.3)


def test_descent_check():
    assert checks.descent_problems(1.0, 0.999) == []
    assert checks.descent_problems(1.0, 1.0)
    assert checks.descent_problems(1.0, 1.001)


def _descent_problems():
    from perfbench.workloads import descent_problems

    return descent_problems(*_training_pairs())


def test_training_step_descends():
    assert _descent_problems() == []


@pytest.mark.parametrize("scale", [0.0, -1.0])
def test_stalled_or_ascending_optimizer_is_refused(monkeypatch, scale):
    from repro.nn.optim import Adam

    step = Adam.step

    def wrong(self):
        before = [p.data.copy() for p in self.params]
        step(self)
        for param, old in zip(self.params, before):
            param.data[...] = old + scale * (param.data - old)

    monkeypatch.setattr(Adam, "step", wrong)
    assert _descent_problems()


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _recs():
    sets = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 0, 0)]
    return [Recommendation(recipe_set=s, log_prob=-1.0 - i)
            for i, s in enumerate(sets)]


def test_clean_response_passes():
    assert checks.response_problems(_recs(), 5) == []


def test_corrupt_responses_are_refused():
    recs = _recs()
    assert checks.response_problems(recs[:4], 5)
    duplicate = recs[:4] + [Recommendation(recs[0].recipe_set, -9.0)]
    assert checks.response_problems(duplicate, 5)
    rising = recs[:4] + [Recommendation((1, 1, 1), 0.0)]
    assert checks.response_problems(rising, 5)


def test_log_prob_check():
    recs = _recs()
    exact = {r.recipe_set: r.log_prob for r in recs}
    assert checks.log_prob_problems(recs, exact.__getitem__) == []
    off = {k: v + 1e-7 for k, v in exact.items()}
    assert checks.log_prob_problems(recs, off.__getitem__)


def test_cache_hit_must_equal_fresh_decode():
    recs = _recs()
    fresh = [(r.recipe_set, r.log_prob) for r in recs]
    assert checks.same_response_problems(recs, fresh) == []
    assert checks.same_response_problems(recs, fresh[::-1])
    nudged = fresh[:4] + [(fresh[4][0], fresh[4][1] + 1e-6)]
    assert checks.same_response_problems(recs, nudged)


# ----------------------------------------------------------------------
# online
# ----------------------------------------------------------------------
def _record(iteration, sets, best, failures=()):
    return IterationRecord(
        iteration=iteration, recipe_sets=list(sets),
        qors=[_qor() for _ in sets], scores=[0.0] * len(sets),
        best_score_so_far=best, avg_top5_so_far=best,
        best_power_so_far=1.0, best_tns_so_far=1.0,
        failures=list(failures))


def test_clean_online_records_pass():
    records = [_record(0, [(1, 0), (0, 1)], 0.2),
               _record(1, [(1, 1), (0, 0)], 0.5)]
    assert checks.online_problems(records) == []


def test_corrupt_online_records_are_refused():
    repeated = [_record(0, [(1, 0), (0, 1)], 0.2),
                _record(1, [(1, 1), (1, 0)], 0.5)]
    assert checks.online_problems(repeated)
    failed_then_repeated = [
        _record(0, [(1, 0)], 0.2,
                [FlowFailure(0, (0, 1), "FlowCrash", "boom", 1)]),
        _record(1, [(0, 1)], 0.5)]
    assert checks.online_problems(failed_then_repeated)
    falling = [_record(0, [(1, 0)], 0.5), _record(1, [(0, 1)], 0.2)]
    assert checks.online_problems(falling)


# ----------------------------------------------------------------------
# end to end
# ----------------------------------------------------------------------
def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", ["archive", "align", "serve", "online"])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                "0.5", "--trace", str(trace), "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = spec["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "archive", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "metrics" not in done.stdout

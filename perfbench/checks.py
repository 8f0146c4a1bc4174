"""Correctness checks, computed apart from the program where possible.

Each check takes a workload's outputs and returns a list of problems
(empty = correct), so the benchmark's own tests can hand it a corrupted
output and see it refused.  Checks that need the program to recompute a
reference (scalar ``run_flow``, a fresh decode, teacher forcing) take the
reference callable as an argument.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

# The paper's default QoR intention (eq. 4): minimise power (0.7) and
# TNS (0.3).  Restated here so the score check does not trust the program.
INTENTION: Tuple[Tuple[str, float, bool], ...] = (
    ("power_mw", 0.7, False),
    ("tns_ns", 0.3, False),
)


# ----------------------------------------------------------------------
# archive
# ----------------------------------------------------------------------
def qor_invariants(design: str, qor: Dict[str, float]) -> List[str]:
    """Physical properties every signoff QoR dict must have."""
    problems = []
    for key, value in qor.items():
        if not isinstance(value, float) or not math.isfinite(value):
            problems.append(f"{design}: {key}={value!r} is not a finite float")
    if problems:
        return problems
    if qor["tns_ns"] < 0:
        problems.append(f"{design}: tns_ns={qor['tns_ns']} < 0")
    if (qor["tns_ns"] == 0.0) != (qor["wns_ns"] >= 0.0):
        problems.append(
            f"{design}: tns_ns={qor['tns_ns']} but wns_ns={qor['wns_ns']}"
        )
    if qor["leakage_mw"] > qor["power_mw"]:
        problems.append(
            f"{design}: leakage_mw={qor['leakage_mw']} > "
            f"power_mw={qor['power_mw']}"
        )
    return problems


def eq4_scores(qors: Sequence[Dict[str, float]]) -> np.ndarray:
    """Eq. 4 compound scores over one design's datapoints.

    Per-metric z-scores with the population standard deviation, signed by
    direction and weighted; a (near-)constant metric, whose deviation is
    below 1e-9 of its magnitude, gets unit deviation and so contributes 0.
    """
    total = np.zeros(len(qors))
    for name, weight, maximize in INTENTION:
        values = np.array([q[name] for q in qors], dtype=np.float64)
        mean = values.mean()
        std = values.std()
        if std <= 1e-9 * max(1.0, abs(mean)):
            std = 1.0
        z = (values - mean) / std
        total += weight * (z if maximize else -z)
    return total


def archive_problems(dataset, design: str) -> List[str]:
    """Invariants of one design's archive plus the eq. 4 score match."""
    points = dataset.by_design(design)
    problems = []
    for point in points:
        problems.extend(qor_invariants(design, point.qor))
    if problems:
        return problems
    ours = eq4_scores([p.qor for p in points])
    theirs = dataset.scores_for(design)
    if not np.allclose(ours, theirs, rtol=1e-12, atol=1e-12):
        worst = float(np.max(np.abs(ours - theirs)))
        problems.append(f"{design}: eq. 4 scores differ by up to {worst:.3g}")
    return problems


def rerun_problems(points, seed: int, rerun: Callable) -> List[str]:
    """Recorded QoR must equal a fresh scalar run bit for bit.

    ``rerun(design, recipe_set, seed)`` returns the fresh QoR dict.
    """
    problems = []
    for point in points:
        fresh = rerun(point.design, point.recipe_set, seed)
        if fresh != point.qor:
            keys = sorted(k for k in fresh if fresh[k] != point.qor.get(k))
            problems.append(
                f"{point.design} {point.recipe_set}: QoR differs from a "
                f"scalar re-run in {keys or 'its keys'}"
            )
    return problems


# ----------------------------------------------------------------------
# align
# ----------------------------------------------------------------------
def log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def sequence_log_probs(logits: np.ndarray, decisions: np.ndarray) -> np.ndarray:
    """Eq. 3 row log-likelihoods from teacher-forced logits."""
    return np.where(decisions == 1, log_sigmoid(logits),
                    log_sigmoid(-logits)).sum(axis=-1)


def margin_dpo_loss(logits_fn, insights, winners, losers, margins) -> float:
    """Eq. 2 hinge, mean over pairs, from a logits function."""
    logp_w = sequence_log_probs(logits_fn(insights, winners), winners)
    logp_l = sequence_log_probs(logits_fn(insights, losers), losers)
    return float(np.maximum(0.0, margins - (logp_w - logp_l)).mean())


def gradient_problems(
    autograd: Sequence[float],
    finite_difference: Sequence[float],
    rtol: float = 1e-5,
    atol: float = 1e-8,
) -> List[str]:
    """Autograd and central-difference gradients must agree."""
    problems = []
    for index, (a, f) in enumerate(zip(autograd, finite_difference)):
        if not abs(a - f) <= atol + rtol * max(abs(a), abs(f)):
            problems.append(
                f"weight {index}: autograd {a:.9g} vs finite difference "
                f"{f:.9g}"
            )
    if all(a == 0.0 for a in autograd):
        problems.append("every checked gradient is zero")
    return problems


def descent_problems(before: float, after: float) -> List[str]:
    """A training step must lower the loss."""
    if not after < before:
        return [f"a training step moved the eq. 2 loss from {before!r} to "
                f"{after!r}"]
    return []


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def response_problems(recs, k: int) -> List[str]:
    """k distinct recipe sets with non-increasing log-prob."""
    problems = []
    if len(recs) != k:
        problems.append(f"{len(recs)} recipe sets, expected {k}")
    sets = [tuple(r.recipe_set) for r in recs]
    if len(set(sets)) != len(sets):
        problems.append("recipe sets are not distinct")
    probs = [r.log_prob for r in recs]
    if any(b > a for a, b in zip(probs, probs[1:])):
        problems.append(f"log-probs increase: {probs}")
    return problems


def log_prob_problems(recs, teacher_forced: Callable, tol: float = 1e-9
                      ) -> List[str]:
    """Each reported log-prob equals the teacher-forced eq. 3 value."""
    problems = []
    for rec in recs:
        value = teacher_forced(rec.recipe_set)
        if not abs(value - rec.log_prob) <= tol:
            problems.append(
                f"{rec.recipe_set}: log-prob {rec.log_prob!r} vs "
                f"teacher-forced {value!r}"
            )
    return problems


def same_response_problems(cached, fresh, tol: float = 1e-9) -> List[str]:
    """A cache hit must equal a fresh decode of the same insight."""
    if [tuple(r.recipe_set) for r in cached] != [tuple(s) for s, _ in fresh]:
        return ["cached recipe sets differ from a fresh decode"]
    for rec, (_, log_prob) in zip(cached, fresh):
        if not abs(rec.log_prob - log_prob) <= tol:
            return [f"cached log-prob {rec.log_prob!r} vs fresh {log_prob!r}"]
    return []


# ----------------------------------------------------------------------
# online
# ----------------------------------------------------------------------
def online_problems(records) -> List[str]:
    """Proposals are new when made; the best score never decreases."""
    problems = []
    seen = set()
    best = -math.inf
    for record in records:
        proposed = list(record.recipe_sets) + [
            f.recipe_set for f in record.failures
        ]
        if len(set(proposed)) != len(proposed):
            problems.append(f"iteration {record.iteration}: repeated proposal")
        repeated = seen.intersection(proposed)
        if repeated:
            problems.append(
                f"iteration {record.iteration}: {len(repeated)} proposal(s) "
                "evaluated in an earlier iteration"
            )
        seen.update(proposed)
        if record.best_score_so_far < best:
            problems.append(
                f"iteration {record.iteration}: best score fell from "
                f"{best} to {record.best_score_so_far}"
            )
        best = max(best, record.best_score_so_far)
    return problems

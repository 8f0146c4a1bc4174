"""The four workloads: archive, align, serve, online.

Each workload builds its inputs from the seed (``setup``), runs one
untimed warm-up (``warmup``), then repeats whole rounds of identical
operations (``round``) until the run length is spent, and finally checks
what the rounds produced (``check``).  Everything runs in this process on
one thread; flows run with ``workers=1``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

from perfbench import checks


@dataclass
class Op:
    """One timed call: its latency, the latency units it covers (epochs,
    iterations), the work it did, and its operation accounting."""

    latency_s: float
    work: float
    attempted: int
    failed: int = 0
    units: int = 1
    # Ops of different kinds (archive designs of different sizes) get
    # their own median latency.
    kind: str = ""


@dataclass(frozen=True)
class Sizes:
    archive_designs: Tuple[str, ...]
    archive_sets: int
    model_designs: Tuple[str, ...]
    model_sets: int
    pairs_per_design: int
    setup_epochs: int
    align_epochs: int
    clients: int
    serve_round: int
    repeats_per_round: int
    online_design: str
    online_iterations: int
    rerun_sample: int
    decode_sample: int


# Full sizes.  Archive: the paper's default per-design plan, 176 recipe
# sets (the empty set, the 40 singletons and 135 seeded 2-6-recipe
# combinations, so 77% of the sets combine recipes) + the insight probe =
# 177 jobs, eleven width-16 stacks per design, on three designs and nodes
# (45/28/16 nm, 400 to 900 cells).  The model workloads share a small
# archive of three small designs (one width-16 stack each); 128 pairs per
# design make exactly two full B=192 batches per epoch.
FULL = Sizes(
    archive_designs=("D11", "D14", "D4"),
    archive_sets=176,
    model_designs=("D16", "D11", "D14"),
    model_sets=15,
    pairs_per_design=128,
    setup_epochs=1,
    align_epochs=4,
    clients=32,
    serve_round=128,
    repeats_per_round=32,
    online_design="D14",
    online_iterations=3,
    rerun_sample=3,
    decode_sample=24,
)

# A few seconds per workload, for the benchmark's own tests.  The archive
# still reaches past the 41 fixed sets into the seeded combinations.
QUICK = Sizes(
    archive_designs=("D16",),
    archive_sets=47,
    model_designs=("D16", "D11"),
    model_sets=7,
    pairs_per_design=96,
    setup_epochs=1,
    align_epochs=1,
    clients=16,
    serve_round=32,
    repeats_per_round=8,
    online_design="D16",
    online_iterations=1,
    rerun_sample=1,
    decode_sample=4,
)

BATCH_WIDTH = 16
# The archive warm-up builds one width-16 stack of each design.
WARMUP_SETS = BATCH_WIDTH - 1
DPO_BATCH = 192
K = 5
# Batches of 16 rather than 8: with more of each request's time in
# vectorized decode, 2-s windows of interleaved runs spread 25-30% less
# between windows on a shared two-core machine.
SERVE_BATCH = 16
# Weights checked against central differences in the align workload.
GRAD_WEIGHTS = 6
# Learning rate of the align workload's descent check.
DESCENT_LR = 1e-5
# Repeats pick among this many most recently completed requests, all of
# which are still in the 256-entry result cache.
REPEAT_WINDOW = 128


def _runtime():
    from repro.runtime.session import RuntimeConfig

    return RuntimeConfig(workers=1, batch_size=BATCH_WIDTH)


def _build_archive(designs, sets, seed):
    from repro.core.dataset import build_offline_dataset

    return build_offline_dataset(
        designs=list(designs), sets_per_design=sets, seed=seed,
        runtime=_runtime(),
    )


def _align_config(sizes: Sizes, epochs: int, seed: int):
    from repro.core.alignment import AlignmentConfig

    # min_score_gap=0 trains every sampled pair, so an epoch is exactly
    # designs x pairs_per_design pairs in full B=192 batches; a zero
    # tolerance never stops early, so every call runs all its epochs.
    return AlignmentConfig(
        epochs=epochs, pairs_per_design=sizes.pairs_per_design,
        batch_size=DPO_BATCH, min_score_gap=0.0, convergence_tolerance=0.0,
        seed=seed,
    )


def _rerun_qor(design, recipe_set, seed):
    from repro.flow.runner import run_flow
    from repro.recipes.apply import apply_recipe_set
    from repro.recipes.catalog import default_catalog

    params = apply_recipe_set(list(recipe_set), default_catalog())
    return dict(run_flow(design, params, seed=seed).qor)


def _fresh_process_caches() -> None:
    """Drop the program's in-process netlist cache so each set-up does the
    same work."""
    from repro.flow.runner import clear_netlist_cache

    clear_netlist_cache()


class Workload:
    name = ""

    def __init__(self, sizes: Sizes, seed: int) -> None:
        self.sizes = sizes
        self.seed = seed
        self.rng = np.random.default_rng([seed, 20251])

    def setup(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def round(self) -> List[Op]:
        raise NotImplementedError

    def check(self) -> List[str]:
        raise NotImplementedError

    def start_timing(self) -> None:
        """Called just before the timed rounds."""

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer ratios the program counts itself."""
        return {}


# ----------------------------------------------------------------------
class Archive(Workload):
    """build_offline_dataset, one call per design, width-16 stacks."""

    name = "archive"

    def setup(self) -> None:
        from repro.flow.runner import fresh_netlists

        _fresh_process_caches()
        for design in self.sizes.archive_designs:
            fresh_netlists(design, self.seed, 1)
        self.datasets = {}
        self.failed_jobs = 0
        self.frozen_fractions: List[float] = []

    def _count_outcomes(self) -> None:
        """Count failed FlowOutcomes and read each session's batch stats at
        the public ``FlowSession.evaluate`` door the dataset builder uses."""
        from repro.runtime.session import FlowSession

        original = FlowSession.evaluate

        def evaluate(session, jobs):
            outcomes = original(session, jobs)
            self.failed_jobs += sum(1 for o in outcomes if not o.ok)
            self.frozen_fractions.append(
                session.stats()["batch_padding_waste"])
            return outcomes

        FlowSession.evaluate = evaluate

    def warmup(self) -> None:
        self._count_outcomes()
        for design in self.sizes.archive_designs:
            self._one(design, WARMUP_SETS)

    def _one(self, design: str, sets: int) -> Op:
        from repro.errors import FlowError

        jobs = sets + 1
        failed_before = self.failed_jobs
        start = time.perf_counter()
        try:
            dataset = _build_archive([design], sets, self.seed)
        except FlowError:
            dataset = None
        latency = time.perf_counter() - start
        if dataset is not None:
            self.datasets[design] = dataset
        failed = self.failed_jobs - failed_before
        return Op(latency, jobs - failed, jobs, failed, kind=design)

    def start_timing(self) -> None:
        self.datasets.clear()
        self.frozen_fractions.clear()

    def round(self) -> List[Op]:
        return [self._one(design, self.sizes.archive_sets)
                for design in self.sizes.archive_designs]

    def check(self) -> List[str]:
        problems = []
        for design in self.sizes.archive_designs:
            if design not in self.datasets:
                problems.append(f"{design}: no archive was built")
                continue
            problems.extend(checks.archive_problems(self.datasets[design],
                                                    design))
        points = [p for d in self.datasets.values() for p in d.points]
        picks = self.rng.choice(len(points), size=self.sizes.rerun_sample,
                                replace=False)
        problems.extend(checks.rerun_problems(
            [points[i] for i in sorted(picks)], self.seed, _rerun_qor))
        return problems

    def layer_metrics(self) -> Dict[str, float]:
        fractions = self.frozen_fractions
        return {"flow.batch.frozen_fraction":
                float(np.mean(fractions)) if fractions else 0.0}


# ----------------------------------------------------------------------
class _ModelWorkload(Workload):
    """Shared set-up: a small archive and (optionally) an aligned model."""

    needs_model = True
    # Seed of the set-up archive and model; None means the run's seed.
    setup_seed = None

    def setup(self) -> None:
        from repro.core.recommender import InsightAlign

        _fresh_process_caches()
        sizes = self.sizes
        seed = self.seed if self.setup_seed is None else self.setup_seed
        self.dataset = _build_archive(sizes.model_designs, sizes.model_sets,
                                      seed)
        if self.needs_model:
            self.recommender = InsightAlign.align_offline(
                self.dataset,
                config=_align_config(sizes, sizes.setup_epochs, seed),
            )


class Align(_ModelWorkload):
    """margin-DPO alignment epochs at B=192; no flow runs while timed."""

    name = "align"
    needs_model = False

    def setup(self) -> None:
        super().setup()
        sizes = self.sizes
        self.pairs_per_epoch = sizes.pairs_per_design * len(sizes.model_designs)
        self.steps_per_epoch = -(-self.pairs_per_epoch // DPO_BATCH)
        self.last = None

    def warmup(self) -> None:
        self._train(1)

    def _train(self, epochs: int) -> Op:
        from repro.core.recommender import InsightAlign

        start = time.perf_counter()
        recommender = InsightAlign.align_offline(
            self.dataset, config=_align_config(self.sizes, epochs, self.seed)
        )
        latency = time.perf_counter() - start
        history = recommender.history
        failed_epochs = sum(
            1 for loss, probe in zip(history.epoch_loss, history.probe_loss)
            if not (np.isfinite(loss) and np.isfinite(probe))
        )
        self.last = recommender
        return Op(latency, self.pairs_per_epoch * epochs,
                  self.steps_per_epoch * epochs,
                  self.steps_per_epoch * failed_epochs, units=epochs)

    def round(self) -> List[Op]:
        return [self._train(self.sizes.align_epochs)]

    def _pairs(self):
        """Every (winner, loser) archive pair whose eq. 4 gap is >= 0.02."""
        insights, winners, losers, margins = [], [], [], []
        for design in self.sizes.model_designs:
            points = self.dataset.by_design(design)
            scores = checks.eq4_scores([p.qor for p in points])
            bits = np.array([p.recipe_set for p in points], dtype=np.int64)
            i, j = np.nonzero(scores[:, None] - scores[None, :] >= 0.02)
            insight = self.dataset.insight_for(design)
            insights.append(np.broadcast_to(insight, (len(i), insight.size)))
            winners.append(bits[i])
            losers.append(bits[j])
            margins.append(2.0 * (scores[i] - scores[j]))
        return (np.concatenate(insights), np.concatenate(winners),
                np.concatenate(losers), np.concatenate(margins))

    def check(self) -> List[str]:
        if self.last is None:
            return ["no training call completed"]
        insights, winners, losers, margins = self._pairs()
        trained = self.last.model
        config = _align_config(self.sizes, 1, self.seed)
        problems = descent_problems(trained.clone(), config, insights,
                                    winners, losers, margins)
        pick = self.rng.choice(len(margins), size=min(16, len(margins)),
                               replace=False)
        problems.extend(training_gradient_problems(
            trained.clone(), config, insights[pick], winners[pick],
            losers[pick], margins[pick], self.rng))
        return problems


def descent_problems(model, config, insights, winners, losers,
                     margins) -> List[str]:
    """One training step of the program must lower the eq. 2 loss,
    computed apart from the program.

    The step is ``AlignmentTrainer._step`` with the program's Adam, so it
    covers the optimizer's update beside the gradient.  At a learning rate
    of 1e-5 the step is first order (the loss falls by about 5e-4 of
    itself, ten times more at 1e-4), so a correct step lowers it on any
    archive.  Whether the eight steps at 3e-3 of a timed call raise the
    pair accuracy depends on the seed, so that is not a check.
    """
    from repro.core.alignment import AlignmentTrainer
    from repro.nn.optim import Adam

    def loss():
        return checks.margin_dpo_loss(
            lambda ins, dec: model.batched_logits(ins, dec).numpy(),
            insights, winners, losers, margins)

    before = loss()
    AlignmentTrainer(config)._step(
        model, Adam(model.parameters(), lr=DESCENT_LR), insights, winners,
        losers, margins)
    return checks.descent_problems(before, loss())


def training_gradient_problems(model, config, insights, winners, losers,
                               margins, rng) -> List[str]:
    """The gradient that ``align_offline`` steps on, against central
    differences of the eq. 2 loss computed apart from the program.

    The autograd gradient comes from ``AlignmentTrainer._step`` itself (the
    fused winner/loser forward, the hinge and its backward), with an
    optimizer that does not step.  ``grad_clip`` is lifted so the clip cannot
    rescale it; the loss is pure margin-DPO (``bc_anchor_weight`` 0).
    """
    from repro.core.alignment import AlignmentTrainer

    class GradientOnly:
        """Leaves the weights as they are, so the gradients stay readable."""

        def zero_grad(self):
            model.zero_grad()

        def step(self):
            pass

    trainer = AlignmentTrainer(replace(config, grad_clip=math.inf))
    trainer._step(model, GradientOnly(), insights, winners, losers, margins)

    def numeric_loss():
        return checks.margin_dpo_loss(
            lambda ins, dec: model.batched_logits(ins, dec).numpy(),
            insights, winners, losers, margins)

    def central_difference(param, index, step):
        original = param.data[index]
        param.data[index] = original + step
        plus = numeric_loss()
        param.data[index] = original - step
        minus = numeric_loss()
        param.data[index] = original
        return (plus - minus) / (2 * step)

    autograd, numeric = [], []
    params = model.parameters()
    for _ in range(4 * GRAD_WEIGHTS):
        param = params[int(rng.integers(len(params)))]
        index = tuple(int(rng.integers(0, n)) for n in param.data.shape)
        coarse = central_difference(param, index, 1e-6)
        fine = central_difference(param, index, 5e-7)
        # A ReLU or hinge kink inside the step makes the difference
        # quotient depend on the step; such a weight cannot be checked.
        if checks.gradient_problems([coarse], [fine], atol=1e-9):
            continue
        autograd.append(float(param.grad[index]))
        numeric.append(fine)
        if len(autograd) == GRAD_WEIGHTS:
            break
    problems = checks.gradient_problems(autograd, numeric)
    if len(autograd) < GRAD_WEIGHTS:
        problems.append(f"only {len(autograd)} weights were smooth enough "
                        "for a finite-difference check")
    return problems


# ----------------------------------------------------------------------
class Serve(_ModelWorkload):
    """A closed loop of logical clients driving RecommendationService."""

    name = "serve"

    def setup(self) -> None:
        super().setup()
        self.bases = [self.dataset.insight_for(d)
                      for d in self.sizes.model_designs]
        self.service = None

    def _start_service(self) -> None:
        from repro.serving.scheduler import ServingConfig
        from repro.serving.service import RecommendationService

        # A batch leaves the queue only when full or forced: the wait
        # timer is far beyond any run, and there are no deadlines.
        config = ServingConfig(max_batch_size=SERVE_BATCH, max_wait_s=3600.0,
                               max_queue_depth=64, cache_capacity=256)
        self.service = RecommendationService(self.recommender, config)
        self.completed: List[np.ndarray] = []
        self.responses: List[Tuple[np.ndarray, object, bool]] = []

    def _requests(self) -> List[Tuple[bool, np.ndarray]]:
        """One round's request stream: fixed count of exact repeats at
        seeded positions, the rest fresh perturbations of archive
        insights."""
        sizes = self.sizes
        repeat_at = set(self.rng.choice(sizes.serve_round,
                                        size=sizes.repeats_per_round,
                                        replace=False).tolist())
        stream = []
        for i in range(sizes.serve_round):
            if i in repeat_at:
                stream.append((True, None))
            else:
                base = self.bases[int(self.rng.integers(len(self.bases)))]
                noise = self.rng.normal(0.0, 0.05, size=base.shape)
                stream.append((False, base + noise))
        return stream

    def warmup(self) -> None:
        self._start_service()
        self._loop(record=False)

    def start_timing(self) -> None:
        self._stats_before = self.service.stats()

    def round(self) -> List[Op]:
        return self._loop(record=True)

    def _loop(self, record: bool) -> List[Op]:
        """Serve one round's stream with the clients in a closed loop."""
        from repro.errors import QueueFullError
        from repro.serving.scheduler import RequestStatus

        service = self.service
        stream = self._requests()
        ops: List[Op] = []
        pending = []  # (ticket, submitted_at)
        cursor = 0

        def submit():
            nonlocal cursor
            is_repeat, insight = stream[cursor]
            cursor += 1
            if is_repeat and not self.completed:
                # Only the warm-up's first requests can find nothing to
                # repeat yet.
                insight = self.bases[0]
            elif is_repeat:
                window = self.completed[-REPEAT_WINDOW:]
                insight = window[int(self.rng.integers(len(window)))]
            started = time.perf_counter()
            try:
                ticket = service.submit(insight, k=K)
            except QueueFullError:
                ops.append(Op(0.0, 0, 1, 1))
                return
            pending.append((ticket, started))

        while cursor < len(stream) and len(pending) < self.sizes.clients:
            submit()
        while pending:
            if service.queue_depth >= SERVE_BATCH:
                service.poll()
            else:
                service.flush()
            done_at = time.perf_counter()
            still = []
            for ticket, started in pending:
                if not ticket.done:
                    still.append((ticket, started))
                    continue
                expired = ticket.status is not RequestStatus.COMPLETED
                ops.append(Op(done_at - started, 0 if expired else 1, 1,
                              int(expired)))
                if not expired:
                    self.completed.append(ticket.insight)
                    if record:
                        self.responses.append(
                            (ticket.insight, ticket.result(), ticket.cache_hit))
            pending = still
            while cursor < len(stream) and len(pending) < self.sizes.clients:
                submit()
        del self.completed[:-REPEAT_WINDOW]
        return ops

    def check(self) -> List[str]:
        from repro.core.policy import sequence_log_prob_value
        from repro.serving.batch_decode import batched_beam_search

        model = self.recommender.model
        problems = []
        for _, recs, _ in self.responses:
            problems.extend(checks.response_problems(recs, K))
        if not self.responses:
            return problems + ["no request completed"]
        sample = self.rng.choice(
            len(self.responses),
            size=min(self.sizes.decode_sample, len(self.responses)),
            replace=False)
        for i in sample:
            insight, recs, _ = self.responses[int(i)]
            problems.extend(checks.log_prob_problems(
                recs, lambda bits: sequence_log_prob_value(model, insight,
                                                           bits)))
        hits = [r for r in self.responses if r[2]]
        if not hits:
            problems.append("no request hit the result cache")
        for i in self.rng.choice(len(hits),
                                 size=min(self.sizes.decode_sample, len(hits)),
                                 replace=False):
            insight, recs, _ = hits[int(i)]
            [fresh] = batched_beam_search(model, insight, K)
            problems.extend(checks.same_response_problems(recs, fresh))
        return problems

    def layer_metrics(self) -> Dict[str, float]:
        before, after = self._stats_before, self.service.stats()
        hits = after["cache"]["hits"] - before["cache"]["hits"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        served = after["requests"]["completed"] - before["requests"]["completed"]
        batches = after["batches"] - before["batches"]
        return {
            "serving.cache.hit_ratio": hits / max(1, hits + misses),
            "serving.batch.occupancy":
                served / max(1, batches * SERVE_BATCH),
        }


# ----------------------------------------------------------------------
class Online(_ModelWorkload):
    """OnlineFineTuner.run at the default RuntimeConfig (scalar run_flow)."""

    name = "online"
    # Which recipes an aligned model favours sets the flow effort of every
    # iteration (aligned models of five seeds averaged runtime_proxy 1.0 to
    # 1.6, 0.8 to 1.2 s per iteration), so every run tunes the same starting
    # model and the run's seed drives the loop's own randomness.
    setup_seed = 0

    def setup(self) -> None:
        super().setup()
        self.calls = 0

    def warmup(self) -> None:
        self._run(1)

    def _run(self, iterations: int) -> Op:
        from repro.core.online import OnlineConfig, OnlineFineTuner

        # Each call tunes from the aligned model with its own loop seed, so
        # a run averages over several proposal sequences.
        self.calls += 1
        model = self.recommender.model.clone()
        config = OnlineConfig(iterations=iterations, k=K,
                              seed=self.seed * 1000 + self.calls)
        start = time.perf_counter()
        with OnlineFineTuner(config) as tuner:
            result = tuner.run(model, self.dataset, self.sizes.online_design)
        latency = time.perf_counter() - start
        self.records = result.records
        evaluations = sum(len(r.recipe_sets) + len(r.failures)
                          for r in result.records)
        failed = sum(len(r.failures) for r in result.records)
        return Op(latency, iterations, evaluations, failed, units=iterations)

    def round(self) -> List[Op]:
        return [self._run(self.sizes.online_iterations)]

    def check(self) -> List[str]:
        from repro.core.dataset import DataPoint

        problems = checks.online_problems(self.records)
        design = self.sizes.online_design
        points = [DataPoint(design, bits, qor) for r in self.records
                  for bits, qor in zip(r.recipe_sets, r.qors)]
        if not points:
            return problems + ["no evaluation survived"]
        picks = self.rng.choice(len(points),
                                size=min(self.sizes.rerun_sample, len(points)),
                                replace=False)
        problems.extend(checks.rerun_problems(
            [points[i] for i in sorted(picks)], self.dataset.seed, _rerun_qor))
        return problems


WORKLOADS = {w.name: w for w in (Archive, Align, Serve, Online)}

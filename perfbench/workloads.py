"""The four benchmark workloads, each a closed loop driven from outside.

Every workload is built from its ``seed`` alone, is repeated from the
same seeded start for every repetition of a run, and has three parts:

* ``setup(directory)`` — world generation, service or tenant
  construction, first plans and ``persist_to``/``register``.  Timed as
  ``setup_s``; caches are cleared before it, as in a fresh process.
* ``run(state, call)`` — the timed phase: a fixed number of synchronous
  operations, each issued through ``call(kind, func, *args)``, which
  times it (and, in a traced repetition, opens its root span).
* ``check(state)`` — the correctness check, outside the timed phase; it
  raises :class:`CheckFailed` when an output is wrong.

Why these four: see README.md in this directory.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.ci.notifications import InMemoryEmailTransport
from repro.ci.repository import ModelRepository
from repro.ci.service import CIService
from repro.core.estimators.api import SampleSizeEstimator
from repro.core.script.config import CIScript
from repro.core.testset import Testset, TestsetPool
from repro.fleet import CIFleet
from repro.ml.models.base import FixedPredictionModel
from repro.ml.models.simulated import (
    ModelPairSpec,
    evolve_predictions,
    simulate_model_pair,
)
from repro.reliability.storage import StorageGovernor, directory_bytes
from repro.stats.cache import clear_all_caches

__all__ = ["WORKLOADS", "CheckFailed"]

SMALL_CONDITION = "d < 0.25 +/- 0.1 /\\ n - o > 0.05 +/- 0.1"
PAPER_CONDITION = "d < 0.1 +/- 0.02 /\\ n - o > 0.02 +/- 0.02"
FLEET_MODES = ("full", "none -> third-party@example.com", "firstChange")

Call = Callable[..., Any]


class CheckFailed(AssertionError):
    """A workload produced a wrong output."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def make_script(condition: str, adaptivity: str, steps: int) -> CIScript:
    return CIScript.from_dict(
        {
            "script": "./test_model.py",
            "condition": condition,
            "reliability": 0.999,
            "mode": "fp-free",
            "adaptivity": adaptivity,
            "steps": steps,
        }
    )


def labels_needed(script: CIScript) -> int:
    return SampleSizeEstimator().plan(
        script.condition,
        delta=script.delta,
        adaptivity=script.adaptivity,
        steps=script.steps,
        known_variance_bound=script.variance_bound,
    ).pool_size


@dataclass
class World:
    """The generated inputs of one CI tenant."""

    labels: np.ndarray
    baseline: FixedPredictionModel
    models: list[FixedPredictionModel]
    generations: list[Testset]  # gen-0 is the installed testset

    def testset(self) -> Testset:
        return self.generations[0]


def make_world(size: int, commits: int, generations: int, seed: int) -> World:
    """A development history: every third commit is a real improvement."""
    pair = simulate_model_pair(
        ModelPairSpec(old_accuracy=0.80, new_accuracy=0.80, difference=0.0),
        n_examples=size,
        seed=seed,
    )
    labels = pair.labels
    models, current = [], pair.old_model.predictions
    rng = np.random.default_rng([seed, 1])
    for index in range(commits):
        improves = index % 3 == 1
        predictions = evolve_predictions(
            current,
            labels,
            target_accuracy=0.88 if improves else 0.81,
            difference=0.12,
            seed=rng,
        )
        models.append(FixedPredictionModel(predictions, name=f"m{index}"))
        if improves:
            current = predictions
    testsets = [Testset(labels=labels, name="gen-0")]
    testsets += [
        Testset(labels=rng.integers(0, 4, size=size), name=f"gen-{g}")
        for g in range(1, generations)
    ]
    return World(labels, pair.old_model, models, testsets)


def refilled_pool(spares: list[Testset]) -> TestsetPool:
    """A pool that labels its next generation at the low watermark."""
    queue = iter(spares[1:])
    pool = TestsetPool([spares[0]], low_watermark=1)
    pool.on_low_watermark(lambda event: pool.add(next(queue)))
    return pool


def fingerprint(service: CIService) -> list[tuple]:
    return [
        (
            build.build_number,
            build.commit.commit_id,
            build.commit.status.value,
            build.generation,
            build.result.promoted if build.result else None,
            build.result.testset_uses if build.result else None,
        )
        for build in service.builds
    ]


def in_memory_service(script: CIScript, world: World, nonce: str, **kwargs) -> CIService:
    service = CIService(
        script,
        world.testset(),
        world.baseline,
        repository=ModelRepository(nonce=nonce),
        **kwargs,
    )
    service.install_testset_pool(refilled_pool(world.generations[1:]))
    return service


class Workload:
    """Base: subclasses set the class attributes and the three phases."""

    name: str
    op: str  # what one timed operation is
    ops: int  # timed operations per repetition
    commits_per_op: int = 1
    restores: int = 0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, directory: Path) -> Any:
        raise NotImplementedError

    def run(self, state: Any, call: Call) -> None:
        raise NotImplementedError

    def restore(self, state: Any, call: Call) -> None:
        """Timed restores after the stream (only where ``restores`` > 0)."""

    def check(self, state: Any) -> None:
        raise NotImplementedError

    def disk_bytes(self, state: Any) -> int:
        """Bytes under the state directory; 0 for a workload without one."""
        return directory_bytes(state["dir"]) if "dir" in state else 0

    def teardown(self, state: Any, directory: Path) -> None:
        shutil.rmtree(directory, ignore_errors=True)


class CommitStream(Workload):
    """One durable tenant, one commit at a time, then cold restores."""

    name = "commit-stream"
    op = "commit"
    ops = 600
    restores = 12

    def setup(self, directory: Path) -> Any:
        script = make_script(SMALL_CONDITION, "full", steps=4)
        size = labels_needed(script)
        world = make_world(size, self.ops, self.ops // 4 + 4, seed=self.seed)
        transport = InMemoryEmailTransport()
        service = in_memory_service(
            script, world, f"cs-{self.seed}", transport=transport
        )
        service.persist_to(directory, snapshot_every=10, sync=True)
        return {
            "script": script,
            "world": world,
            "service": service,
            "dir": directory,
            "restored": [],
        }

    def run(self, state: Any, call: Call) -> None:
        commit = state["service"].repository.commit
        for index, model in enumerate(state["world"].models):
            call("commit", commit, model, message=f"c{index}")

    def restore(self, state: Any, call: Call) -> None:
        for _ in range(self.restores):
            clear_all_caches()  # a restarted process starts cold
            service = call(
                "restore", CIService.resume, state["dir"], record=False
            )
            state["restored"].append(fingerprint(service))

    def check(self, state: Any) -> None:
        reference = in_memory_service(
            state["script"], state["world"], f"cs-{self.seed}"
        )
        for index, model in enumerate(state["world"].models):
            reference.repository.commit(model, message=f"c{index}")
        expected = fingerprint(reference)
        expect(len(expected) == self.ops, "reference run lost builds")
        expect(
            fingerprint(state["service"]) == expected,
            "durable commit stream diverged from the in-memory run",
        )
        expect(
            all(restored == expected for restored in state["restored"]),
            "a cold restore did not reproduce the commit stream",
        )


class BatchPush(Workload):
    """One durable paper-scale tenant fed 32-model pushes."""

    name = "batch-push"
    op = "push"
    ops = 16
    commits_per_op = 32

    def setup(self, directory: Path) -> Any:
        script = make_script(PAPER_CONDITION, FLEET_MODES[1], steps=32)
        size = labels_needed(script)
        commits = self.ops * self.commits_per_op
        world = make_world(size, commits, commits // 32 + 4, seed=self.seed)
        service = in_memory_service(script, world, f"bp-{self.seed}")
        service.persist_to(directory, snapshot_every=128, sync=True)
        return {"script": script, "world": world, "service": service, "dir": directory}

    def run(self, state: Any, call: Call) -> None:
        models = state["world"].models
        push = state["service"].process_batch
        width = self.commits_per_op
        for start in range(0, len(models), width):
            batch = models[start : start + width]
            messages = [f"c{start + i}" for i in range(len(batch))]
            call("push", push, batch, messages=messages)

    def check(self, state: Any) -> None:
        reference = in_memory_service(
            state["script"], state["world"], f"bp-{self.seed}"
        )
        for index, model in enumerate(state["world"].models):
            reference.repository.commit(model, message=f"c{index}")
        expected = fingerprint(reference)
        expect(
            len(expected) == self.ops * self.commits_per_op,
            "reference run lost builds",
        )
        expect(
            all(build.ran for build in reference.builds),
            "a build was skipped; the pool ran dry",
        )
        expect(
            fingerprint(state["service"]) == expected,
            "batched pushes diverged from one-at-a-time commits",
        )


class FleetChurn(Workload):
    """60 tenants behind a 4-slot LRU, Zipf(1.1) tenant popularity.

    Every tenant notifies through an in-memory transport, so the
    notification layer is timed on the one durable workload that
    ``BENCHMARK.json`` keeps.
    """

    name = "fleet-churn"
    op = "submit"
    ops = 400
    tenants = 60
    # With 8 slots about half the submits hit, so the median submit flips
    # between the hit and the miss mode from seed to seed; 4 slots keep
    # the hit ratio near 0.3 and the median on the hydrate/evict path.
    max_resident = 4

    def draws(self) -> list[int]:
        """Tenant index per submit; tenant ``i`` has popularity rank ``i + 1``.

        Each tenant gets its Zipf(1.1) share of the submits (largest
        remainders round), and the seed shuffles their order.  Ranks and
        counts are not drawn, so the adaptivity modes and history lengths
        of the hottest tenants — and with them the cost mix — stay fixed;
        the seed moves the order, and with it which submits hit the LRU.
        """
        weights = 1.0 / np.arange(1, self.tenants + 1) ** 1.1
        shares = self.ops * weights / weights.sum()
        counts = np.floor(shares).astype(int)
        short = self.ops - int(counts.sum())
        counts[np.argsort(counts - shares, kind="stable")[:short]] += 1
        picks = np.repeat(np.arange(self.tenants), counts)
        rng = np.random.default_rng([self.seed, 2])
        return [int(pick) for pick in rng.permutation(picks)]

    def setup(self, directory: Path) -> Any:
        draws = self.draws()
        scripts = {mode: make_script(SMALL_CONDITION, mode, steps=4) for mode in FLEET_MODES}
        size = labels_needed(scripts[FLEET_MODES[0]])
        tenants = {}
        for index in range(self.tenants):
            mode = FLEET_MODES[index % len(FLEET_MODES)]
            commits = draws.count(index)
            # Pools cannot be refilled by callback here: callbacks are
            # runtime wiring, lost on every eviction.  Every commit may
            # retire a generation in firstChange mode.
            world = make_world(size, commits, commits + 2, seed=self.seed * 1000 + index)
            tenants[f"t-{index:03d}"] = (scripts[mode], world)
        never = 1 << 50  # watermarks that never trigger
        fleet = CIFleet(
            directory,
            max_resident=self.max_resident,
            storage=StorageGovernor(soft_bytes=never, hard_bytes=never),
            sync=True,
            transport_factory=lambda tenant_id: InMemoryEmailTransport(),
        )
        for tenant_id, (script, world) in tenants.items():
            fleet.register(
                tenant_id,
                script,
                world.testset(),
                world.baseline,
                repository=ModelRepository(nonce=f"fc-{tenant_id}"),
                pool=TestsetPool(world.generations[1:]),
            )
        return {
            "fleet": fleet,
            "tenants": tenants,
            "draws": [f"t-{index:03d}" for index in draws],
            "dir": directory,
        }

    def run(self, state: Any, call: Call) -> None:
        fleet, tenants = state["fleet"], state["tenants"]
        sent = {tenant_id: 0 for tenant_id in tenants}
        for tenant_id in state["draws"]:
            index = sent[tenant_id]
            sent[tenant_id] += 1
            model = tenants[tenant_id][1].models[index]
            call("submit", fleet.submit, tenant_id, model, message=f"c{index}")

    def check(self, state: Any) -> None:
        fleet = state["fleet"]
        for tenant_id, (script, world) in state["tenants"].items():
            isolated = CIService(
                script,
                world.testset(),
                world.baseline,
                repository=ModelRepository(nonce=f"fc-{tenant_id}"),
            )
            isolated.install_testset_pool(TestsetPool(world.generations[1:]))
            for index, model in enumerate(world.models):
                isolated.repository.commit(model, message=f"c{index}")
            expect(
                all(build.ran for build in isolated.builds),
                f"tenant {tenant_id}: a build was skipped; the pool ran dry",
            )
            expect(
                fingerprint(fleet.service(tenant_id)) == fingerprint(isolated),
                f"tenant {tenant_id} diverged from an isolated service",
            )
        expect(fleet.processed == self.ops, "the fleet lost a submission")

    def teardown(self, state: Any, directory: Path) -> None:
        state["fleet"].close()
        super().teardown(state, directory)


CONDITION_FORMS = (
    "n > {level} +/- {tol}",  # single clause
    "n - o > {gain} +/- {tol}",  # gain
    "d < {level_d} +/- {tol} /\\ n - o > {gain} +/- {tol}",  # Pattern 1
)
ADAPTIVITY = ("none", "full", "firstChange")
# The strata alone make every spec distinct.  Plan cost grows as
# 1/tolerance^2 and, through the variance bound, with the ``d`` threshold,
# so the seed draws only the ``n`` level and the gain, which the bounds do
# not depend on: jittering the tolerance by 0.5% moved the slowest tenth of
# the plans by 40% from seed to seed.
TOLERANCES = (0.01, 0.02, 0.03, 0.04, 0.05)
THRESHOLD_JITTER = 0.01
RELIABILITIES = (0.99, 0.999, 0.9999)
WARMUP_RELIABILITY = 0.995  # not in RELIABILITIES: warm-up never pre-plans
STEPS = 8


class ColdPlan(Workload):
    """Distinct plan specs against one long-lived exact-binomial estimator."""

    name = "cold-plan"
    op = "plan"
    ops = len(CONDITION_FORMS) * len(ADAPTIVITY) * len(TOLERANCES) * len(RELIABILITIES)
    commits_per_op = 0
    sample = 12

    def specs(self) -> tuple[list[dict], list[dict]]:
        """(warm-up specs, timed specs), both distinct, seeded.

        The timed stream is stratified — every condition form, adaptivity
        mode, tolerance and reliability once, in a fixed order — so the
        seed moves values within a stratum, not the cost mix.
        """
        rng = np.random.default_rng([self.seed, 3])

        def near(value: float) -> float:
            jitter = rng.uniform(-THRESHOLD_JITTER, THRESHOLD_JITTER)
            return round(float(value + jitter), 4)

        def spec(form, adaptivity, tolerance, reliability):
            condition = form.format(
                level=near(0.75), level_d=0.15, gain=near(0.02), tol=tolerance
            )
            return {
                "condition": condition,
                "reliability": reliability,
                "adaptivity": adaptivity,
                "steps": STEPS,
            }

        warmup = [
            spec(form, adaptivity, TOLERANCES[2], WARMUP_RELIABILITY)
            for form in CONDITION_FORMS
            for adaptivity in ADAPTIVITY
        ]
        timed = [
            spec(form, adaptivity, tolerance, reliability)
            for form in CONDITION_FORMS
            for adaptivity in ADAPTIVITY
            for tolerance in TOLERANCES
            for reliability in RELIABILITIES
        ]
        # One fixed order for every seed: a plan's cost depends on which
        # plans warmed the kernel caches before it, and a seeded order made
        # the slowest tenth differ by 40% from seed to seed.
        order = np.random.default_rng(0).permutation(len(timed))
        return warmup, [timed[int(i)] for i in order]

    def setup(self, directory: Path) -> Any:
        warmup, specs = self.specs()
        estimator = SampleSizeEstimator(use_exact_binomial=True)
        for spec in warmup:
            estimator.plan(**spec)
        return {"estimator": estimator, "specs": specs, "plans": []}

    def run(self, state: Any, call: Call) -> None:
        plan = state["estimator"].plan
        before = SampleSizeEstimator.plan_cache_info().misses
        for spec in state["specs"]:
            state["plans"].append(call("plan", plan, **spec))
        misses = SampleSizeEstimator.plan_cache_info().misses - before
        state["misses"] = misses

    def check(self, state: Any) -> None:
        expect(state["misses"] == self.ops, "a timed plan hit the plan cache")
        rng = np.random.default_rng([self.seed, 4])
        picks = rng.choice(self.ops, size=self.sample, replace=False)
        for pick in sorted(int(p) for p in picks):
            clear_all_caches()
            again = SampleSizeEstimator(use_exact_binomial=True).plan(
                **state["specs"][pick]
            )
            expect(
                again == state["plans"][pick],
                f"plan {pick} changed when re-derived from cold caches",
            )
            expect(
                math.isfinite(again.samples) and again.samples > 0,
                f"plan {pick} has no finite sample size",
            )


WORKLOADS = {
    workload.name: workload
    for workload in (CommitStream, BatchPush, FleetChurn, ColdPlan)
}

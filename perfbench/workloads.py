"""The benchmark's workloads, each driven through the public Python API.

A workload has a cold ``setup()`` (platform calibration, profiling and
PCCS fitting from scratch) and a ``run_pass(j, on_item)`` that does one
fixed unit of work and returns a :class:`PassResult`.  ``on_item`` is
called with an item id just before each item starts, so a tracer can
tag its spans with the item they belong to.

Every run does a fixed set of work that depends only on the number of
passes; the seed orders it (the pairs of Table 8, the scenarios of the
fuzz campaign, the arrival draws of the serving passes), so the same
seed gives the same inputs and every seed gives the same work.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterator

from repro.analysis.verify import verify_result
from repro.core.haxconn import HaXCoNN
from repro.core.workload import Workload, WorkloadDNN
from repro.experiments import common as experiments_common
from repro.experiments import table8_exhaustive as table8
from repro.fuzz import oracle as fuzz_oracle
from repro.fuzz import run_campaign
from repro.fuzz.universe import generate_scenario
from repro.profiling.database import ProfileDB
from repro.serve import CachedAnytimePolicy, Server, Tenant
from repro.serve.requests import PoissonArrivals, TraceArrivals
from repro.soc import platform as soc_platform

#: the platform factory's lru cache, captured before any tracer wraps
#: the module attribute, so set-up can empty it
_CLEAR_PLATFORMS = soc_platform.get_platform.cache_clear

OnItem = Callable[[int], None]


def _no_item(_: int) -> None:
    pass


def _cold_platforms() -> None:
    """Forget every calibrated platform, as a fresh process would."""
    _CLEAR_PLATFORMS()


@dataclass
class PassResult:
    """One pass over a workload's fixed unit of work."""

    wall_s: float
    #: host seconds of each item (pair, dispatched round, scenario)
    item_s: list[float]
    #: numerator of throughput: pairs, served requests or scenarios
    work_items: int
    #: operations attempted and the failures among them
    attempted: int
    failures: list[str]
    #: sha256 of the pass's simulated / deterministic output
    fingerprint: str
    #: simulated quality metrics (identical across repeats of a seed)
    quality: dict[str, float]
    #: deterministic work counters available without tracing
    counters: dict[str, int] = field(default_factory=dict)
    #: what the workload's ``verify`` re-checks after the run
    outputs: object = None


def _sha256(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = q * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


# ---------------------------------------------------------------------------
# table8-orin: the paper's Table 8 sweep, every pair simulated
# ---------------------------------------------------------------------------


class Table8:
    """All 55 pairs of the ten-model set through
    ``experiments.table8_exhaustive.run_pair``; the seed orders them."""

    name = "table8-orin"
    #: host seconds of one pass on the 2-core reference host
    nominal_pass_s = 9.5
    platform_name = "orin"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pairs = list(
            itertools.combinations_with_replacement(table8.DEFAULT_MODELS, 2)
        )
        random.Random(seed).shuffle(self.pairs)

    def pass_order(self, passes: int) -> list[int]:
        return list(range(passes))

    def fingerprint_key(self, j: int) -> str:
        return "*"

    def setup(self) -> None:
        _cold_platforms()
        # run_pair reads the shared per-platform database of get_db;
        # drop it so profiling and PCCS fitting start from scratch
        experiments_common._DBS.clear()
        db = experiments_common.get_db(self.platform_name)
        for model in table8.DEFAULT_MODELS:
            db.profile(model, max_groups=table8.MAX_GROUPS)
        db.pccs

    def run_pass(self, j: int, on_item: OnItem = _no_item) -> PassResult:
        rows: list[dict[str, object]] = []
        item_s: list[float] = []
        failures: list[str] = []
        start = perf_counter()
        for index, (m1, m2) in enumerate(self.pairs):
            on_item(index)
            t0 = perf_counter()
            try:
                rows.append(table8.run_pair(m1, m2, self.platform_name))
            except Exception as exc:  # counted, reported, never fatal
                failures.append(f"{m1}+{m2}: {type(exc).__name__}: {exc}")
            item_s.append(perf_counter() - t0)
        wall = perf_counter() - start
        return PassResult(
            wall_s=wall,
            item_s=item_s,
            work_items=len(self.pairs),
            attempted=len(self.pairs),
            failures=failures,
            fingerprint=self._fingerprint(rows),
            quality=self._quality(rows),
            outputs=rows,
        )

    def verify(self, result: PassResult) -> list[str]:
        """Re-solve each pair of a pass as run_pair does and certify
        the HaX-CoNN result with ``analysis.verify.verify_result``."""
        rows: list[dict[str, object]] = result.outputs  # type: ignore[assignment]
        platform = soc_platform.get_platform(self.platform_name)
        db = experiments_common.get_db(self.platform_name)
        failures = []
        for row in rows:
            m1, m2 = str(row["dnn1"]), str(row["dnn2"])
            r1, r2 = table8.balanced_repeats(m1, m2, self.platform_name)
            second = WorkloadDNN.of(m2, repeats=r2)
            if m1 == m2 and r1 == r2:
                second = WorkloadDNN(models=(m2,), repeats=r2, instance=1)
            workload = Workload(
                dnns=(WorkloadDNN.of(m1, repeats=r1), second),
                objective="throughput",
            )
            result = HaXCoNN(
                platform,
                db=db,
                max_groups=table8.MAX_GROUPS,
                max_transitions=table8.MAX_TRANSITIONS,
            ).schedule(workload)
            certificate = verify_result(
                result, max_transitions=table8.MAX_TRANSITIONS
            )
            if not certificate.ok:
                failures.append(f"{m1}+{m2}: {certificate.describe()}")
        return failures

    @staticmethod
    def _fingerprint(rows: list[dict[str, object]]) -> str:
        simulated = sorted(
            [
                str(row["dnn1"]),
                str(row["dnn2"]),
                str(row["repeats"]),
                *(
                    repr(row[key])
                    for key in sorted(row)
                    if key.endswith("_ms")
                ),
            ]
            for row in rows
        )
        return _sha256(simulated)

    @staticmethod
    def _quality(rows: list[dict[str, object]]) -> dict[str, float]:
        if not rows:
            return {}
        hax = [float(row["haxconn_ms"]) for row in rows]  # type: ignore[arg-type]
        best = [float(row["best_ms"]) for row in rows]  # type: ignore[arg-type]
        return {
            "sim_latency_ms_p50": _percentile(hax, 0.50),
            "sim_latency_ms_p95": _percentile(hax, 0.95),
            "sim_speedup_geomean": math.exp(
                statistics.fmean(math.log(b / h) for b, h in zip(best, hax))
            ),
            # ROADMAP item 3: a known defect, reported as measured
            "baseline_losses": float(
                sum(h > b for b, h in zip(best, hax))
            ),
        }


# ---------------------------------------------------------------------------
# serve-hard: the D-HaX-CoNN serving loop
# ---------------------------------------------------------------------------


class ServeHard:
    """``CachedAnytimePolicy`` over a deterministic portfolio solver,
    one ``Server`` session per pass, stepped one round at a time:
    googlenet, mobilenet_v1 and resnet18 at 600 Hz each over 0.2 s.

    Every tenant also has a request at t=0, so the first round of every
    pass solves the full three-model mix cold, with no cached warm
    starts.  Pass ``j`` serves Poisson arrival draw ``j``.  A run of
    ``n`` passes serves draws ``0..n-1`` in an order drawn from the
    seed, so every seed serves the same requests: the number of rounds
    and of novel mixes differs between draws by up to 2x, which would
    otherwise read as a change in host time.
    """

    name = "serve-hard"
    #: host seconds of one pass on the 2-core reference host
    nominal_pass_s = 3.0
    platform_name = "orin"
    tenants = (
        ("googlenet", 600.0),
        ("mobilenet_v1", 600.0),
        ("resnet18", 600.0),
    )
    horizon_s = 0.2
    # 6 groups: a ~2 s certified three-model solve, so a run holds
    # several stalls (one 11-13 s solve at 8 groups cannot repeat)
    max_groups = 6
    max_transitions = 2
    slo_s = 0.005
    max_batch = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def fingerprint_key(self, j: int) -> str:
        return f"draw {j}"

    def pass_order(self, passes: int) -> list[int]:
        order = list(range(passes))
        random.Random(self.seed).shuffle(order)
        return order

    def verify(self, result: PassResult) -> list[str]:
        return []  # request accounting and admission audits run in-pass

    @staticmethod
    def _arrival_seed(j: int, k: int) -> int:
        return j * 8 + k

    def setup(self) -> None:
        _cold_platforms()
        self.platform = soc_platform.get_platform(self.platform_name)
        self.db = ProfileDB(self.platform)
        for model, _ in self.tenants:
            self.db.profile(model, max_groups=self.max_groups)
        self.db.pccs

    def _tenants(self, j: int) -> list[Tenant]:
        out = []
        for k, (model, rate) in enumerate(self.tenants):
            poisson = PoissonArrivals(rate, seed=self._arrival_seed(j, k))
            arrivals = (0.0, *poisson.times_within(self.horizon_s))
            out.append(
                Tenant.of(
                    model,
                    model,
                    arrivals=TraceArrivals(tuple(arrivals)),
                    slo_s=self.slo_s,
                )
            )
        return out

    def run_pass(self, j: int, on_item: OnItem = _no_item) -> PassResult:
        tenants = self._tenants(j)
        failures: list[str] = []
        item_s: list[float] = []
        start = perf_counter()
        scheduler = HaXCoNN(
            self.platform,
            db=self.db,
            solver="portfolio",
            solver_workers=2,
            solver_backend="serial",
            solver_clock="nodes",
            max_groups=self.max_groups,
            max_transitions=self.max_transitions,
        )
        policy = CachedAnytimePolicy(scheduler)
        session = Server(
            self.platform, tenants, policy, max_batch=self.max_batch
        ).session(horizon_s=self.horizon_s)
        try:
            while not session.finished:
                on_item(len(session.rounds))
                t0 = perf_counter()
                executed = session.run_rounds(1)
                if executed:
                    item_s.append(perf_counter() - t0)
        except Exception as exc:  # counted, reported, never fatal
            failures.append(f"round {len(session.rounds)}: {exc!r}")
        report = session.report()
        wall = perf_counter() - start

        generated = sum(
            len(t.arrivals.times_within(self.horizon_s)) for t in tenants
        )
        served = report.served
        shed = report.rejected
        unaccounted = generated - len(served) - len(shed)
        if unaccounted:
            failures.append(
                f"{unaccounted} of {generated} requests neither served "
                "nor shed"
            )
        stats = policy.stats()
        if stats["verify_failures"]:
            failures.append(
                f"{stats['verify_failures']} schedules failed cache "
                "admission verification"
            )
        latencies = [r.latency_s * 1e3 for r in served]
        met = sum(r.met_slo for r in served)
        return PassResult(
            wall_s=wall,
            item_s=item_s,
            work_items=len(served),
            attempted=generated,
            failures=failures,
            fingerprint=hashlib.sha256(
                report.describe().encode()
            ).hexdigest(),
            quality={
                "sim_latency_ms_p50": _percentile(latencies, 0.50),
                "sim_latency_ms_p95": _percentile(latencies, 0.95),
                # a shed request counts as a miss
                "slo_attainment": met / generated if generated else 0.0,
            },
            counters={
                "policy.solves": int(stats["solves"]),
                "policy.swaps": int(stats["swaps"]),
                "cache.hits": int(stats["cache_hits"]),
                # a novel mix is a lookup the cache could not answer
                "cache.misses": int(stats["cache_misses"])
                + int(stats["solves"]),
                "server.rounds": len(session.rounds),
                "server.requests_sent": generated,
                "server.served": len(served),
                "server.shed": len(shed),
            },
        )


# ---------------------------------------------------------------------------
# fuzz: the differential oracle campaign
# ---------------------------------------------------------------------------


class Fuzz:
    """``fuzz.run_campaign`` over the fixed scenario seeds 0..79, in an
    order drawn from the workload seed.

    The set is fixed because a few three-tenant scenarios cost 1-2.6 s
    against a 12 ms median: consecutive 80-seed windows differ in total
    cost by 37% (IQR over median), which would drown any change.
    Set-up calibrates every platform and profiles every model the
    campaign uses, so an item's cost does not depend on which scenario
    happens to touch a model first.
    """

    name = "fuzz"
    nominal_pass_s = 5.3
    scenario_seeds = tuple(range(80))

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.order = list(self.scenario_seeds)
        random.Random(seed).shuffle(self.order)
        self.scenarios = [generate_scenario(s) for s in self.scenario_seeds]

    def pass_order(self, passes: int) -> list[int]:
        return list(range(passes))

    def fingerprint_key(self, j: int) -> str:
        return "*"

    def verify(self, result: PassResult) -> list[str]:
        return []  # the oracle stack is the check, run in-pass

    def setup(self) -> None:
        _cold_platforms()
        # the oracle keeps one hermetic profile database per platform
        fuzz_oracle._HERMETIC_DBS.clear()
        for spec in self.scenarios:
            db = fuzz_oracle.hermetic_db(spec.platform)
            db.pccs
            for model in spec.models:
                db.profile(model, max_groups=spec.max_groups)

    def run_pass(self, j: int, on_item: OnItem = _no_item) -> PassResult:
        item_s: list[float] = []

        def timed() -> Iterator[int]:
            for seed in self.order:
                on_item(seed)
                t0 = perf_counter()
                yield seed
                item_s.append(perf_counter() - t0)

        failures: list[str] = []
        start = perf_counter()
        try:
            report = run_campaign(timed())
        except Exception as exc:  # counted, reported, never fatal
            failures.append(f"campaign: {exc!r}")
            report = None
        wall = perf_counter() - start
        if report is None:
            return PassResult(
                wall_s=wall,
                item_s=item_s,
                work_items=0,
                attempted=len(self.order),
                failures=failures * len(self.order),
                fingerprint="",
                quality={},
            )
        failures.extend(
            f"seed {r.seed}: {check}: {detail}"
            for r in report.results
            for check, detail in r.discrepancies
        )
        # the digest of the same campaign run in seed order, i.e. what
        # `haxconn fuzz 0:80` prints
        canonical = dataclasses.replace(
            report,
            results=tuple(sorted(report.results, key=lambda r: r.seed)),
        )
        return PassResult(
            wall_s=wall,
            item_s=item_s,
            work_items=len(report.results),
            attempted=len(self.order),
            failures=failures,
            fingerprint=canonical.digest,
            quality={},
            counters={"oracle.calls": report.oracle_calls},
        )


WORKLOADS: dict[str, Callable[[int], object]] = {
    "table8-orin": Table8,
    "serve-hard": ServeHard,
    "fuzz": Fuzz,
}

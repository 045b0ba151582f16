"""Combinatorial scenario spaces: lazy enumeration with dominance pruning.

The robustness question behind the paper's R_H claims — "how does this
weight setting hold up under *every* plausible failure?" — ranges over
combinatorial *spaces*, not hand-listed scenarios: all ``k``-adjacency
failures, all node failures, the closure of SRLG groups under pairwise
co-failure, importance-sampled traffic surges.  A
:class:`ScenarioSpace` describes such a space declaratively and
enumerates it lazily; :func:`sweep_scenario_space` streams the space
through a :class:`~repro.scenarios.batch.SweepEngine` in chunks, folds
each outcome into a
:class:`~repro.scenarios.aggregate.StreamingAggregate`, and never
materializes the space — peak memory is the engine's working set, not
the scenario count.

**Dominance pruning.**  Removing links only shrinks reachability, and a
pure failure scenario leaves demand untouched, so once some failed link
set is known to cut off positive demand, *every* pure-failure scenario
whose failed set is a superset is disconnected too — its surviving
network is a subgraph of an already-disconnected one.  The
:class:`DominancePruner` maintains a minimal antichain of such
*cores* (seeded by cheap single-adjacency reachability probes, grown by
every disconnected outcome the sweep evaluates) and skips dominated
scenarios without evaluating them.  Pruning is *exact* for aggregates:
disconnected scenarios contribute only their count — the same
connected-only folding rule as
:class:`~repro.scenarios.batch.ScenarioClassSummary` — so the pruned
streamed sweep is identical to the exhaustive materialized one, the
contract enforced by ``tests/test_spaces_differential.py``.

Spaces have a spec grammar of their own (``space:all-link-2``,
``space:srlg-closure``, ``space:surge-sample:n=64:seed=7``) registered
in :data:`repro.scenarios.spec.SPACE_KINDS`; parsing round-trips
(``parse_space(s.spec()) == s``), so one spec string is a complete
robustness query end to end (CLI ``sweep --space``, ``serve /sweep``,
campaign specs).
"""

from __future__ import annotations

import abc
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, Optional, Union

from repro import obs
from repro.core.evaluator import Evaluation
from repro.network.graph import Network
from repro.scenarios.aggregate import (
    DEFAULT_CVAR_ALPHA,
    DEFAULT_PERCENTILES,
    SpaceAggregate,
    StreamingAggregate,
)
from repro.scenarios.algebra import (
    HotSpotSurge,
    LinkFailure,
    NodeFailure,
    Scenario,
    SrlgFailure,
)
from repro.scenarios.projection import TopologyProjection
from repro.scenarios.spec import (
    SpaceKind,
    enumerate_scenarios,
    parse_space,
    register_space_kind,
)
from repro.traffic.matrix import TrafficMatrix

DEFAULT_CHUNK_SIZE = 64
"""Scenarios pulled from the lazy generator per engine batch."""

DEFAULT_SURGE_SAMPLES = 64
DEFAULT_SURGE_SEED = 7
_SURGE_FACTOR_RANGE = (1.5, 4.0)

_PRUNABLE = (LinkFailure, NodeFailure, SrlgFailure)
"""Pure-failure scenario classes: identity traffic transform, so the
subgraph-dominance argument applies.  Traffic-bearing scenarios are
never pruned."""


# ----------------------------------------------------------------------
# Space classes
# ----------------------------------------------------------------------
class ScenarioSpace(abc.ABC):
    """A declarative, lazily enumerable set of scenarios.

    Subclasses are frozen dataclasses, so the spec round-trip law
    ``parse_space(s.spec()) == s`` is plain field equality.
    """

    kind: ClassVar[str] = "abstract"

    @abc.abstractmethod
    def scenarios(self, net: Network) -> Iterator[Scenario]:
        """Lazily yield the space's scenarios in deterministic order."""

    @abc.abstractmethod
    def size(self, net: Network) -> int:
        """Exact scenario count, computed without enumeration."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable one-line space summary."""

    @abc.abstractmethod
    def spec(self) -> str:
        """The canonical spec string (inverse of ``parse_space``)."""

    def __str__(self) -> str:
        return self.spec()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


@dataclass(frozen=True)
class AllLinkFailures(ScenarioSpace):
    """Every failure of exactly ``k`` duplex adjacencies."""

    kind: ClassVar[str] = "all-link"
    k: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", int(self.k))
        if self.k < 1:
            raise ValueError(f"failure size must be >= 1, got {self.k}")

    def scenarios(self, net: Network) -> Iterator[Scenario]:
        for combo in itertools.combinations(net.duplex_pairs(), self.k):
            yield LinkFailure(pairs=combo)

    def size(self, net: Network) -> int:
        return math.comb(len(net.duplex_pairs()), self.k)

    def describe(self) -> str:
        return f"all {self.k}-adjacency failures"

    def spec(self) -> str:
        return f"space:all-link-{self.k}"


@dataclass(frozen=True)
class AllNodeFailures(ScenarioSpace):
    """Every single-node failure."""

    kind: ClassVar[str] = "all-node"

    def scenarios(self, net: Network) -> Iterator[Scenario]:
        for node in net.nodes():
            yield NodeFailure.single(node)

    def size(self, net: Network) -> int:
        return net.num_nodes

    def describe(self) -> str:
        return "all single-node failures"

    def spec(self) -> str:
        return "space:all-node"


@dataclass(frozen=True)
class SrlgClosure(ScenarioSpace):
    """The SRLG grid closed under pairwise co-failure.

    Yields every base group of the deterministic SRLG sweep grid
    (:func:`~repro.scenarios.spec.enumerate_scenarios` with ``"srlg"``),
    then the union of every pair of groups — the two-conduit co-failure
    events.  Singles come first so their disconnected cores are learned
    before the pair phase, where dominance pruning pays off.
    """

    kind: ClassVar[str] = "srlg-closure"

    def scenarios(self, net: Network) -> Iterator[Scenario]:
        groups = enumerate_scenarios(net, "srlg")
        yield from groups
        for a, b in itertools.combinations(groups, 2):
            yield SrlgFailure(
                pairs=tuple(sorted(set(a.pairs) | set(b.pairs))),
                name=f"{a.name}-{b.name}",
            )

    def size(self, net: Network) -> int:
        groups = len(enumerate_scenarios(net, "srlg"))
        return groups + groups * (groups - 1) // 2

    def describe(self) -> str:
        return "SRLG grid plus all pairwise unions"

    def spec(self) -> str:
        return "space:srlg-closure"


@dataclass(frozen=True)
class SurgeSample(ScenarioSpace):
    """``n`` seeded, degree-weighted hot-spot surges (importance sampling).

    High-degree nodes aggregate the most demand, so surges there drive
    the tail of the robustness distribution; sampling nodes with
    probability proportional to degree concentrates the budget where it
    matters.  Each sample is a pure function of ``(seed, index)`` —
    CPython seeds :class:`random.Random` from strings via SHA-512, not
    the per-process hash salt — so the space is deterministic across
    processes and *order-insensitive*: ``sample(net, i)`` does not
    depend on which other samples were drawn.
    """

    kind: ClassVar[str] = "surge-sample"
    n: int = DEFAULT_SURGE_SAMPLES
    seed: int = DEFAULT_SURGE_SEED

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "seed", int(self.seed))
        if self.n < 1:
            raise ValueError(f"sample count must be >= 1, got {self.n}")

    def sample(self, net: Network, index: int) -> HotSpotSurge:
        """The ``index``-th sample — independent of every other index."""
        rng = random.Random(f"surge-sample:{self.seed}:{index}")
        degrees = [len(net.out_links(node)) for node in net.nodes()]
        pick = rng.random() * sum(degrees)
        node = 0
        for node, degree in enumerate(degrees):
            pick -= degree
            if pick < 0:
                break
        low, high = _SURGE_FACTOR_RANGE
        factor = round(low + (high - low) * rng.random(), 3)
        return HotSpotSurge(node=node, factor=factor)

    def scenarios(self, net: Network) -> Iterator[Scenario]:
        for index in range(self.n):
            yield self.sample(net, index)

    def size(self, net: Network) -> int:
        return self.n

    def describe(self) -> str:
        return f"{self.n} degree-weighted surge samples (seed {self.seed})"

    def spec(self) -> str:
        return f"space:surge-sample:n={self.n}:seed={self.seed}"


def all_link_failures(k: int) -> AllLinkFailures:
    """The space of every ``k``-adjacency failure."""
    return AllLinkFailures(k=k)


def all_node_failures() -> AllNodeFailures:
    """The space of every single-node failure."""
    return AllNodeFailures()


# ----------------------------------------------------------------------
# Dominance pruning
# ----------------------------------------------------------------------
class DominancePruner:
    """Skips pure-failure scenarios dominated by a known disconnection.

    A *core* is a failed directed-link set known to cut off positive
    demand.  Any pure-failure scenario whose failed set contains a core
    has a surviving network that is a subgraph of the core's — strictly
    fewer links, identical demand — so it is disconnected a fortiori and
    contributes only its disconnected count to aggregates.  The core
    list stays a minimal antichain: recording a set drops its supersets
    and is skipped when a subset is already present.

    Cores come from two sources: cheap single-adjacency reachability
    probes (run once per adjacency a candidate touches — within a
    fixed-``k`` space all failed sets have equal size, so singletons are
    the only intra-space lever), and every disconnected outcome the
    sweep actually evaluates (which is what makes the SRLG closure's
    pair phase cheap after its singles phase).
    """

    def __init__(
        self, net: Network, high: TrafficMatrix, low: TrafficMatrix
    ) -> None:
        self._net = net
        self._positive = (high.demands + low.demands) > 0
        self._probed: set[tuple[int, int]] = set()
        self._cores: list[frozenset[int]] = []

    @property
    def cores(self) -> tuple[frozenset[int], ...]:
        """The minimal disconnected cores learned so far."""
        return tuple(self._cores)

    def dominated(self, scenario: Scenario) -> Optional[str]:
        """A witness description if ``scenario`` is dominated, else None."""
        if not isinstance(scenario, _PRUNABLE):
            return None
        failed = frozenset(scenario.failed_link_indices(self._net))
        witness = self._core_witness(failed)
        if witness is not None:
            return witness
        for key in sorted(scenario.element_keys(self._net)):
            if key[0] == "adj":
                self._probe(key[1], key[2])
        return self._core_witness(failed)

    def record(self, scenario: Scenario) -> None:
        """Record an evaluated pure-failure scenario found disconnected."""
        if isinstance(scenario, _PRUNABLE):
            self._record_core(
                frozenset(scenario.failed_link_indices(self._net))
            )

    # -- internals -------------------------------------------------------
    def _core_witness(self, failed: frozenset[int]) -> Optional[str]:
        for core in self._cores:
            if core <= failed:
                return "disconnected core {%s}" % ",".join(
                    str(l) for l in sorted(core)
                )
        return None

    def _probe(self, u: int, v: int) -> None:
        if (u, v) in self._probed:
            return
        self._probed.add((u, v))
        if not (self._net.has_link(u, v) and self._net.has_link(v, u)):
            return
        failed = tuple(
            sorted(
                (
                    self._net.link_between(u, v).index,
                    self._net.link_between(v, u).index,
                )
            )
        )
        projection = TopologyProjection(self._net, failed)
        if projection.is_strongly_connected():
            return
        if bool((self._positive & ~projection.reachable()).any()):
            self._record_core(frozenset(failed))

    def _record_core(self, failed: frozenset[int]) -> None:
        if any(core <= failed for core in self._cores):
            return
        self._cores = [core for core in self._cores if not failed <= core]
        self._cores.append(failed)


# ----------------------------------------------------------------------
# The streamed space sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SpaceSweepResult:
    """Aggregated outcome of one streamed scenario-space sweep.

    Per-scenario outcomes are deliberately absent — the whole point is
    that the space was never materialized.  ``scenarios`` counts the
    space, ``evaluated + pruned == scenarios``, and ``disconnected``
    includes both evaluated-disconnected and pruned scenarios.
    ``stats`` counts the engine work of this sweep only.
    """

    space: str
    scenarios: int
    evaluated: int
    pruned: int
    disconnected: int
    baseline_primary: float
    baseline_secondary: float
    baseline_max_utilization: float
    aggregate: SpaceAggregate
    stats: dict[str, int]


ScoreFn = Callable[[Evaluation, Network], tuple[float, float]]


def _native_score(evaluation: Evaluation, net: Network) -> tuple[float, float]:
    objective = evaluation.objective
    return float(objective.primary), float(objective.secondary)


def sweep_scenario_space(
    engine,
    space: Union[ScenarioSpace, str],
    *,
    prune: bool = True,
    percentiles=DEFAULT_PERCENTILES,
    cvar_alpha: float = DEFAULT_CVAR_ALPHA,
    score: Optional[ScoreFn] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    on_prune: Optional[Callable[[Scenario, str], None]] = None,
) -> SpaceSweepResult:
    """Stream a scenario space through a sweep engine and aggregate.

    Args:
        engine: A :class:`~repro.scenarios.batch.SweepEngine` pinned to
            the weight setting under test.
        space: A :class:`ScenarioSpace` or its spec string.
        prune: Dominance-prune pure-failure scenarios whose surviving
            network is a subgraph of a known-disconnected one.  Exact
            for aggregates; ``False`` evaluates everything.
        percentiles: Percentile levels folded per metric.
        cvar_alpha: CVaR tail level.
        score: ``(evaluation, surviving network) -> (primary,
            secondary)``; defaults to the evaluation's native
            lexicographic objective.  Sessions pass their cost model.
        chunk_size: Scenarios pulled from the generator per batch.
        on_prune: Observation hook ``(scenario, witness)`` called for
            every pruned scenario (the property suite re-evaluates the
            scenario behind it to assert pruning soundness).
    """
    if isinstance(space, str):
        space = parse_space(space)
    if chunk_size < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk_size}")
    score_fn = score if score is not None else _native_score
    net = engine.network
    pruner = (
        DominancePruner(net, engine.high_traffic, engine.low_traffic)
        if prune
        else None
    )
    aggregate = StreamingAggregate(
        percentiles=percentiles, cvar_alpha=cvar_alpha
    )
    before = dict(engine.stats)
    total = evaluated = pruned = disconnected = 0
    iterator = space.scenarios(net)
    with obs.span("scenarios.space", space=space.spec()):
        while True:
            chunk = list(itertools.islice(iterator, chunk_size))
            if not chunk:
                break
            for scenario in chunk:
                total += 1
                witness = (
                    pruner.dominated(scenario) if pruner is not None else None
                )
                if witness is not None:
                    pruned += 1
                    disconnected += 1
                    aggregate.add_disconnected()
                    if on_prune is not None:
                        on_prune(scenario, witness)
                    continue
                outcome = engine.evaluate_streaming(scenario)
                evaluated += 1
                if outcome.disconnected:
                    disconnected += 1
                    aggregate.add_disconnected()
                    if pruner is not None:
                        pruner.record(scenario)
                else:
                    primary, secondary = score_fn(
                        outcome.evaluation, outcome.lowered.network
                    )
                    aggregate.add(
                        primary, secondary, outcome.evaluation.max_utilization
                    )
    baseline_primary, baseline_secondary = score_fn(engine.baseline, net)
    baseline_max_utilization = engine.baseline.max_utilization
    _events = "repro_spaces_scenarios_total"
    _help = "Space-sweep scenario outcomes by disposition."
    obs.counter(_events, _help, {"disposition": "evaluated"}).inc(evaluated)
    obs.counter(_events, _help, {"disposition": "pruned"}).inc(pruned)
    obs.counter(_events, _help, {"disposition": "disconnected"}).inc(disconnected)
    return SpaceSweepResult(
        space=space.spec(),
        scenarios=total,
        evaluated=evaluated,
        pruned=pruned,
        disconnected=disconnected,
        baseline_primary=baseline_primary,
        baseline_secondary=baseline_secondary,
        baseline_max_utilization=baseline_max_utilization,
        aggregate=aggregate.finalize(
            baseline_primary, baseline_secondary, baseline_max_utilization
        ),
        stats=engine.publish_stats(before),
    )


# ----------------------------------------------------------------------
# Spec-grammar registration
# ----------------------------------------------------------------------
def _parse_all_link(arg: str) -> ScenarioSpace:
    if not arg:
        raise ValueError("expected a failure size K (e.g. space:all-link-2)")
    try:
        k = int(arg)
    except ValueError:
        raise ValueError(
            f"bad failure size {arg!r}: expected an integer"
        ) from None
    return AllLinkFailures(k=k)


def _parse_all_node(arg: str) -> ScenarioSpace:
    if arg:
        raise ValueError(f"unexpected argument {arg!r}")
    return AllNodeFailures()


def _parse_srlg_closure(arg: str) -> ScenarioSpace:
    if arg:
        raise ValueError(f"unexpected argument {arg!r}")
    return SrlgClosure()


def _parse_surge_sample(arg: str) -> ScenarioSpace:
    n, seed = DEFAULT_SURGE_SAMPLES, DEFAULT_SURGE_SEED
    if arg:
        for token in arg.split(":"):
            key, sep, value = token.partition("=")
            if not sep:
                raise ValueError(
                    f"bad option {token.strip()!r}: expected key=value"
                )
            key = key.strip()
            try:
                parsed = int(value)
            except ValueError:
                raise ValueError(
                    f"bad value {value.strip()!r} for {key!r}: expected an integer"
                ) from None
            if key == "n":
                n = parsed
            elif key == "seed":
                seed = parsed
            else:
                raise ValueError(
                    f"unknown option {key!r}: expected n= or seed="
                )
    return SurgeSample(n=n, seed=seed)


for _kind in (
    SpaceKind("all-link", _parse_all_link,
              "space:all-link-K — every failure of K duplex adjacencies"),
    SpaceKind("all-node", _parse_all_node,
              "space:all-node — every single-node failure"),
    SpaceKind("srlg-closure", _parse_srlg_closure,
              "space:srlg-closure — the SRLG grid plus all pairwise unions"),
    SpaceKind("surge-sample", _parse_surge_sample,
              "space:surge-sample[:n=N][:seed=S] — N seeded degree-weighted "
              "hot-spot surges"),
):
    register_space_kind(_kind)

"""Complex query scheduling: latency-SLO splits for dataflow queries.

Paper section 4.2 and 6.2.  Applications express groups of dependent DNN
invocations as a query (e.g. traffic analysis: SSD detection feeding car
and face recognizers -- Figure 8) with a single whole-query latency SLO.
The system must split that SLO across stages; the best split depends on
per-stage batching profiles *and* the fan-out ``gamma`` (average outputs
per invocation: <1 filters, =1 maps, >1 expands).

The optimization (section 6.2):

    minimize    sum_v  R_v * l_v(b_v) / b_v         (total GPUs)
    subject to  sum_{u on any root->leaf path} l_u(b_u) <= L

solved by dynamic programming over the (tree-shaped) dataflow graph with
the time budget discretized into ``L / epsilon`` segments.

Every stage cost is linear in the root rate ``R``, so the DP's argmin and
its bounded-regret band do not depend on ``R``: :func:`plan_query` solves
once at unit rate, memoises the split by value, and scales the cost.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Iterable
from dataclasses import dataclass, field
from typing import Iterator

from .profile import BatchingProfile
from .profile_tables import remember
from .session import Session, SessionLoad

__all__ = ["QueryStage", "Query", "LatencySplit", "MixedSplit", "plan_query",
           "plan_query_classes", "evaluate_split", "even_split",
           "StageCost", "stage_costs", "split_gpus", "average_throughput"]


@dataclass
class QueryStage:
    """One model invocation stage in a query dataflow graph.

    Attributes:
        name: stage label (e.g. ``"ssd"``, ``"face"``).
        profile: batching profile of the stage's model.
        gamma: average number of invocations of THIS stage per invocation
            of its parent (1.0 for the root).  Section 4.2's γ.
        children: downstream stages fed by this one's outputs.
        model_id: optional zoo model name, for building sessions.
    """

    name: str
    profile: BatchingProfile | None
    gamma: float = 1.0
    children: list["QueryStage"] = field(default_factory=list)
    model_id: str = ""

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not self.model_id:
            self.model_id = self.name

    @property
    def is_source(self) -> bool:
        """Structural (cost-free) stage: fans out children in parallel.

        A ``profile=None`` stage consumes no GPU and no latency budget; it
        exists so queries whose per-frame invocations are *parallel* (e.g.
        the game app's 6 digit recognizers + 1 icon recognizer) can hang
        them all off one root.
        """
        return self.profile is None

    def add_child(self, stage: "QueryStage") -> "QueryStage":
        self.children.append(stage)
        return stage

    def walk(self) -> Iterator[tuple["QueryStage", float]]:
        """Yield (stage, rate_multiplier) preorder; multiplier is the
        product of gammas from the root down to the stage inclusive."""
        stack = [(self, self.gamma)]
        while stack:
            stage, mult = stack.pop()
            yield stage, mult
            for child in stage.children:
                stack.append((child, mult * child.gamma))


@dataclass
class Query:
    """A named query: a root stage plus a whole-query latency SLO."""

    name: str
    root: QueryStage
    slo_ms: float

    def __post_init__(self) -> None:
        if self.slo_ms <= 0:
            raise ValueError(f"slo_ms must be positive, got {self.slo_ms}")

    def stages(self) -> list[tuple[QueryStage, float]]:
        """All stages with their rate multipliers, preorder."""
        return list(self.root.walk())

    def stage_names(self) -> list[str]:
        return [s.name for s, _ in self.stages()]

    def depth(self) -> int:
        """Longest root-to-leaf chain of *model* stages (sources free)."""

        def rec(s: QueryStage) -> int:
            own = 0 if s.is_source else 1
            return own + max((rec(c) for c in s.children), default=0)

        return max(1, rec(self.root))


@dataclass
class LatencySplit:
    """Result of query planning: per-stage latency budget and batch."""

    budgets_ms: dict[str, float]
    batches: dict[str, int]
    total_gpus: float
    rate_rps: float

    def sessions(self, query: Query) -> list[SessionLoad]:
        """Materialize one SessionLoad per stage for the squishy scheduler."""
        out = []
        for stage, mult in query.stages():
            if stage.is_source:
                continue
            session = Session(
                model_id=stage.model_id,
                slo_ms=self.budgets_ms[stage.name],
                session_id=f"{query.name}/{stage.name}",
            )
            out.append(SessionLoad(session, self.rate_rps * mult, stage.profile))
        return out


def _stage_cost_table(
    profile: BatchingProfile | None,
    rate_rps: float,
    budgets_ms: list[float],
    worst_case_factor: float,
) -> tuple[list[float], list[int]]:
    """For each candidate budget, the stage's GPU cost and chosen batch.

    GPU cost = rate * per-input latency = R * l(b)/b / 1000 (rates are per
    second, latencies per millisecond).  ``worst_case_factor`` scales the
    latency the budget must cover: 1.0 follows the paper's DP formulation
    (budget bounds the batch execution latency); 2.0 applies the section
    4.1 worst-case rule, for use when the split feeds the real scheduler.
    """
    if profile is None:
        # Source stage: free everywhere; zero budget suffices.
        return [0.0] * len(budgets_ms), [0] * len(budgets_ms)
    costs: list[float] = []
    batches: list[int] = []
    for budget in budgets_ms:
        b = profile.max_batch_with_latency(budget / worst_case_factor)
        if b == 0:
            costs.append(math.inf)
            batches.append(0)
        else:
            costs.append(rate_rps * profile.latency(b) / b / 1000.0)
            batches.append(b)
    return costs, batches


def _budget_grid(
    query: Query, epsilon_ms: float, min_stage_frac: float
) -> tuple[list[float], int]:
    """The DP's candidate budgets ``0 .. slo`` in ``epsilon`` steps, and
    the index of the per-model-stage budget floor."""
    steps = max(1, int(round(query.slo_ms / epsilon_ms)))
    budgets = [i * query.slo_ms / steps for i in range(steps + 1)]
    floor_frac = min(min_stage_frac, 0.8 / max(1, query.depth()))
    return budgets, int(floor_frac * steps)


def _solve_tree(
    root: QueryStage,
    steps: int,
    floor_idx: int,
    slack_tolerance: float,
    stage_costs: Callable[[QueryStage, float], list[float]],
) -> tuple[float, list[tuple[QueryStage, int, float]]]:
    """Section 6.2's DP over a stage tree, for any per-stage cost table.

    ``stage_costs(stage, mult)`` is the stage's own cost at every budget
    index (``math.inf`` where no batch fits); ``mult`` is the product of
    gammas from the root down to the stage.  Returns the optimal cost of
    the whole tree within the full budget and, when that is finite, each
    stage's chosen budget index, preorder, as ``(stage, index, mult)``.
    """
    # Bottom-up DP: for each stage, f[t] = min cost to run the stage and
    # its whole subtree within budget index t.  ``choices`` keeps each
    # stage's chosen own-budget index per t for top-down reconstruction.
    choices: dict[int, list[int]] = {}

    def solve(stage: QueryStage, mult: float) -> list[float]:
        costs = stage_costs(stage, mult)
        child_fs = [solve(child, mult * child.gamma) for child in stage.children]
        k_min = 0 if stage.is_source else floor_idx
        f = [math.inf] * (steps + 1)
        choice = [0] * (steps + 1)
        for t in range(steps + 1):
            # Below the floor the stage is unservable: f[t] stays infinite
            # and the parent must leave more budget.
            totals = [math.inf] * (t + 1)
            for k in range(k_min, t + 1):
                c = costs[k]
                if math.isinf(c):
                    continue
                rest = t - k
                bad = False
                for child_f in child_fs:
                    if math.isinf(child_f[rest]):
                        bad = True
                        break
                    c += child_f[rest]
                if bad:
                    continue
                totals[k] = c
                if c < f[t]:
                    f[t] = c
            if math.isinf(f[t]):
                continue
            # Bounded-regret tie-break: take the SMALLEST own budget whose
            # total cost is within `slack_tolerance` of optimal, leaving
            # the slack downstream -- the runtime converts child budget
            # into burst absorption, which the cost model cannot see.
            limit = f[t] * (1.0 + slack_tolerance)
            for k in range(k_min, t + 1):
                if totals[k] <= limit:
                    choice[t] = k
                    break
        choices[id(stage)] = choice
        return f

    total = solve(root, root.gamma)[steps]
    picks: list[tuple[QueryStage, int, float]] = []
    if math.isinf(total):
        return total, picks

    def reconstruct(stage: QueryStage, t: int, mult: float) -> None:
        k = choices[id(stage)][t]
        if not stage.children and not stage.is_source:
            # Leaf stages absorb all remaining path slack: ties in the DP
            # cost table otherwise pin them at the smallest tied budget,
            # which starves the runtime of latency room for free.
            k = t
        picks.append((stage, k, mult))
        for child in stage.children:
            reconstruct(child, t - k, mult * child.gamma)

    reconstruct(root, steps, root.gamma)
    return total, picks


#: A split solved at unit root rate: ``(budgets, batches, GPUs per rps)``.
_UnitSplit = tuple[dict[str, float], dict[str, int], float]

#: ``(stage tree, slo, epsilon, worst-case factor, floor, tolerance) ->``
#: unit-rate split; bounded like every planner memo.
_SPLITS: dict[Hashable, _UnitSplit] = {}


def _tree_key(stage: QueryStage) -> Hashable | None:
    """The value a stage tree's split is a pure function of, or ``None``
    when some stage's profile has no :meth:`tables_key`."""
    profile_key: Hashable | None = None  # a source stage
    if stage.profile is not None:
        profile_key = stage.profile.tables_key()
        if profile_key is None:
            return None
    children: list[Hashable] = []
    for child in stage.children:
        child_key = _tree_key(child)
        if child_key is None:
            return None
        children.append(child_key)
    return (stage.name, profile_key, stage.gamma, tuple(children))


def _unit_rate_split(
    query: Query,
    epsilon_ms: float,
    worst_case_factor: float,
    min_stage_frac: float,
    slack_tolerance: float,
) -> _UnitSplit:
    budgets, floor_idx = _budget_grid(query, epsilon_ms, min_stage_frac)
    batch_tabs: dict[int, list[int]] = {}

    def stage_costs(stage: QueryStage, mult: float) -> list[float]:
        costs, batch_tabs[id(stage)] = _stage_cost_table(
            stage.profile, mult, budgets, worst_case_factor
        )
        return costs

    total, picks = _solve_tree(
        query.root, len(budgets) - 1, floor_idx, slack_tolerance, stage_costs
    )
    return (
        {stage.name: budgets[k] for stage, k, _ in picks},
        {stage.name: batch_tabs[id(stage)][k] for stage, k, _ in picks},
        total,
    )


def plan_query(
    query: Query,
    rate_rps: float,
    epsilon_ms: float = 5.0,
    worst_case_factor: float = 1.0,
    min_stage_frac: float = 0.2,
    slack_tolerance: float = 0.05,
) -> LatencySplit:
    """Find the latency split minimizing total GPUs (section 6.2 DP).

    A stage's GPU cost ``R * mult * l(b)/b`` is linear in the root rate
    ``R``, so the optimum and the ``slack_tolerance`` band are the same
    at every rate: the DP runs once at unit rate, and its split is
    memoised by value (stage names, profile :meth:`tables_key`, gammas,
    tree shape and the arguments below) for every later query and plan
    that asks again.  A tree with an unkeyed profile is solved each call.

    Args:
        query: the dataflow query with profiles and gammas attached.
        rate_rps: offered rate at the query root.  Only ``total_gpus``
            depends on it; at rate 0, where every split costs nothing,
            the split is the one every positive rate gets.
        epsilon_ms: budget discretization; the DP is quadratic in
            ``slo / epsilon``.
        worst_case_factor: see :func:`_stage_cost_table`.
        min_stage_frac: floor on each model stage's budget, as a fraction
            of the whole-query SLO.  The pure DP objective happily starves
            cheap stages down to near-zero budgets (their GPU cost barely
            changes) -- but a near-zero latency budget is unservable at
            runtime, where queueing jitter is not free.  Clamped so deep
            chains stay feasible.
        slack_tolerance: bounded regret for the per-stage budget choice:
            each stage takes the smallest budget within this fraction of
            the optimal subtree cost, leaving slack to its descendants
            (worst case the plan costs ``(1+tol)^depth`` of optimal).

    Returns:
        The optimal :class:`LatencySplit`.

    Raises:
        ValueError: if no split can satisfy the SLO at all.
    """
    if rate_rps < 0:
        raise ValueError(f"rate_rps must be >= 0, got {rate_rps}")
    params = (epsilon_ms, worst_case_factor, min_stage_frac, slack_tolerance)
    tree = _tree_key(query.root)
    key = None if tree is None else (tree, query.slo_ms, params)
    solved = None if key is None else _SPLITS.get(key)
    if solved is None:
        solved = _unit_rate_split(query, *params)
        if key is not None:
            remember(_SPLITS, key, solved)
    budgets_out, batches_out, unit_gpus = solved
    if math.isinf(unit_gpus):
        raise ValueError(
            f"query {query.name!r}: no feasible latency split within "
            f"{query.slo_ms}ms SLO"
        )
    return LatencySplit(
        budgets_ms=dict(budgets_out),
        batches=dict(batches_out),
        total_gpus=rate_rps * unit_gpus,
        rate_rps=rate_rps,
    )


@dataclass
class MixedSplit:
    """A latency split whose stages may land on different device classes.

    The heterogeneous analogue of :class:`LatencySplit` (PPipe-style
    pool-based pipelining): each stage carries the class it was placed on
    and that class's profile, so :meth:`sessions` materializes loads the
    per-class packer can deploy directly.
    """

    budgets_ms: dict[str, float]
    batches: dict[str, int]
    devices: dict[str, str]
    stage_profiles: dict[str, BatchingProfile]
    total_gpus: float
    price_per_hour: float
    rate_rps: float

    def sessions(self, query: Query) -> list[SessionLoad]:
        """One class-tagged SessionLoad per stage for the fleet packer."""
        out = []
        for stage, mult in query.stages():
            if stage.is_source:
                continue
            session = Session(
                model_id=stage.model_id,
                slo_ms=self.budgets_ms[stage.name],
                session_id=f"{query.name}/{stage.name}",
            )
            out.append(SessionLoad(
                session, self.rate_rps * mult,
                self.stage_profiles[stage.name],
                device=self.devices[stage.name],
            ))
        return out


def plan_query_classes(
    query: Query,
    rate_rps: float,
    class_profiles: dict[str, dict[str, BatchingProfile]],
    prices: dict[str, float] | None = None,
    objective: str = "cost",
    epsilon_ms: float = 5.0,
    worst_case_factor: float = 1.0,
    min_stage_frac: float = 0.2,
    slack_tolerance: float = 0.05,
) -> MixedSplit:
    """Latency split *and* per-stage device class, jointly (PPipe-style).

    Extends the section 6.2 DP: at every candidate budget each stage also
    chooses the device class minimizing its weighted GPU cost, so one
    dataflow query can pipeline across classes (e.g. a bandwidth-bound
    detector on 1080Ti feeding recognizers on cheap T4s).

    Args:
        query: the dataflow query (its stages' own profiles are ignored;
            ``class_profiles`` supplies the per-class ones).
        rate_rps: offered rate at the query root.
        class_profiles: ``class name -> stage name -> profile``.  Every
            class must profile every model stage of the query.
        prices: ``class name -> price_per_hour`` for the cost objective;
            missing or non-positive prices count as 1.0.
        objective: ``"cost"`` minimizes dollars per hour, ``"gpus"``
            minimizes GPU count (all classes weighted equally).
        epsilon_ms / worst_case_factor / min_stage_frac / slack_tolerance:
            as in :func:`plan_query`.

    Returns the optimal :class:`MixedSplit`.

    Raises:
        ValueError: if no (split, placement) satisfies the SLO.
    """
    if rate_rps < 0:
        raise ValueError(f"rate_rps must be >= 0, got {rate_rps}")
    if objective not in ("cost", "gpus"):
        raise ValueError(f"unknown objective {objective!r}")
    class_names = sorted(class_profiles)
    if not class_names:
        raise ValueError("class_profiles must name at least one class")
    weights: dict[str, float] = {}
    for name in class_names:
        weight = 1.0
        if objective == "cost" and prices is not None:
            weight = prices.get(name, 0.0)
            if weight <= 0.0:
                weight = 1.0
        weights[name] = weight

    budgets, floor_idx = _budget_grid(query, epsilon_ms, min_stage_frac)

    # Per stage and budget, the winning class and its batch: the DP is
    # plan_query's with the stage cost replaced by the min over classes.
    tables: dict[int, tuple[list[int], list[str]]] = {}

    def stage_costs(stage: QueryStage, mult: float) -> list[float]:
        if stage.is_source:
            return [0.0] * len(budgets)
        stage_rate = rate_rps * mult
        costs: list[float] = []
        batches: list[int] = []
        chosen: list[str] = []
        for budget in budgets:
            best_cost, best_batch, best_class = math.inf, 0, ""
            for name in class_names:
                profile = class_profiles[name].get(stage.name)
                if profile is None:
                    raise ValueError(
                        f"class {name!r} has no profile for stage "
                        f"{stage.name!r}"
                    )
                b = profile.max_batch_with_latency(budget / worst_case_factor)
                if b == 0:
                    continue
                cost = (
                    weights[name] * stage_rate * profile.latency(b) / b / 1000.0
                )
                if cost < best_cost:
                    best_cost, best_batch, best_class = cost, b, name
            costs.append(best_cost)
            batches.append(best_batch)
            chosen.append(best_class)
        tables[id(stage)] = (batches, chosen)
        return costs

    total, picks = _solve_tree(
        query.root, len(budgets) - 1, floor_idx, slack_tolerance, stage_costs
    )
    if math.isinf(total):
        raise ValueError(
            f"query {query.name!r}: no feasible latency split within "
            f"{query.slo_ms}ms SLO on any class of {class_names}"
        )

    budgets_out: dict[str, float] = {}
    batches_out: dict[str, int] = {}
    devices_out: dict[str, str] = {}
    profiles_out: dict[str, BatchingProfile] = {}
    total_gpus = dollars = 0.0
    for stage, k, mult in picks:
        budgets_out[stage.name] = budgets[k]
        if stage.is_source:
            batches_out[stage.name] = 0
            devices_out[stage.name] = ""
            continue
        batch_tab, class_tab = tables[id(stage)]
        name = class_tab[k]
        profile = class_profiles[name][stage.name]
        # The chosen budget may exceed what the winning batch needs;
        # re-derive the batch at the final budget (leaf slack can
        # enlarge it, which only helps throughput).
        b = profile.max_batch_with_latency(budgets[k] / worst_case_factor)
        if b < 1:
            b = max(1, batch_tab[k])
        batches_out[stage.name] = b
        devices_out[stage.name] = name
        profiles_out[stage.name] = profile
        gpus = rate_rps * mult * profile.latency(b) / b / 1000.0
        total_gpus += gpus
        dollars += (prices or {}).get(name, 0.0) * gpus
    return MixedSplit(
        budgets_ms=budgets_out,
        batches=batches_out,
        devices=devices_out,
        stage_profiles=profiles_out,
        total_gpus=total_gpus,
        price_per_hour=dollars,
        rate_rps=rate_rps,
    )


def even_split(query: Query, rate_rps: float,
               worst_case_factor: float = 1.0) -> LatencySplit:
    """The baseline of sections 7.2/7.5: split the SLO evenly across the
    depth of the query, ignoring profiles and gammas."""
    per_stage = query.slo_ms / query.depth()
    budgets_out: dict[str, float] = {}
    batches_out: dict[str, int] = {}
    for stage, _ in query.stages():
        if stage.is_source:
            budgets_out[stage.name] = 0.0
            batches_out[stage.name] = 0
            continue
        budgets_out[stage.name] = per_stage
        batches_out[stage.name] = stage.profile.max_batch_with_latency(
            per_stage / worst_case_factor
        )
    total = split_gpus(rate_rps, stage_costs(query, batches_out))
    return LatencySplit(budgets_out, batches_out, total, rate_rps)


#: One model stage's GPU-cost inputs: ``(rate multiplier, l(b), b)``, with
#: ``b == 0`` (and ``l`` unused) when no batch fits the stage's budget.
StageCost = tuple[float, float, int]


def stage_costs(query: Query, batches: dict[str, int]) -> list[StageCost]:
    """Each model stage's :data:`StageCost` at the given batches, preorder.

    Nothing here depends on the offered rate, so a caller that re-prices
    one split at many rates computes it once (:func:`split_gpus`).
    """
    out: list[StageCost] = []
    for stage, mult in query.stages():
        if stage.is_source:
            continue
        b = batches[stage.name]
        out.append((mult, stage.profile.latency(b) if b else 0.0, b))
    return out


def split_gpus(rate_rps: float, costs: Iterable[StageCost]) -> float:
    """GPUs the stages need at root rate ``rate_rps``: the sum of
    ``rate * mult * l(b) / b / 1000`` in stage order, or ``math.inf``
    when some stage fits no batch (:func:`even_split`'s total)."""
    total = 0.0
    for mult, lat, b in costs:
        if b == 0:
            total = math.inf
        else:
            total += rate_rps * mult * lat / b / 1000.0
    return total


def evaluate_split(
    profiles: dict[str, BatchingProfile],
    budgets_ms: dict[str, float],
    gammas: dict[str, float],
) -> float:
    """Section 4.2's *average throughput* for a linear pipeline.

    For a two-stage pipeline X -> Y with per-GPU throughputs T_X, T_Y
    (each at its own latency budget) and fan-out gamma, balancing GPUs so
    neither stage bottlenecks (gamma * p * T_X = q * T_Y) gives average
    throughput ``p * T_X / (p + q) = T_X * T_Y / (T_Y + gamma * T_X)``.
    Generalized here to a chain by accumulating GPU-cost per unit of root
    throughput.

    Args:
        profiles: per-stage profiles keyed by stage name.
        budgets_ms: per-stage latency budgets (execution-latency bound).
        gammas: per-stage rate multiplier *relative to the root* (the
            root's entry is 1.0).
    """
    gpu_cost_per_root_rps = 0.0
    for name, prof in profiles.items():
        budget = budgets_ms[name]
        b = prof.max_batch_with_latency(budget)
        if b == 0:
            return 0.0
        per_gpu_tput = prof.throughput(b)
        gpu_cost_per_root_rps += gammas[name] / per_gpu_tput
    return 1.0 / gpu_cost_per_root_rps


def average_throughput(split: LatencySplit) -> float:
    """Pipeline throughput per GPU implied by a planned split."""
    if split.total_gpus <= 0:
        return 0.0
    return split.rate_rps / split.total_gpus

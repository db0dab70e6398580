"""Declarative experiment specs: registry names in, picklable scenarios out.

An :class:`ExperimentSpec` describes one experiment grid as plain data —
a solver name plus kwargs, a data-generator name plus kwargs, sweep and
series axes, a metric — with every name resolved through
:mod:`repro.registry`.  Because the description is data, a new paper
variant is a dict (or a TOML file: ``python -m repro run spec.toml``),
not a code change:

.. code-block:: toml

    name = "lasso_lognormal_eps"
    solver = "private_lasso"
    data = "l1_linear"
    metric = "excess_risk"
    n_trials = 3
    seed = 50

    [solver_kwargs]
    delta = 1e-5

    [data_kwargs]
    n = 4000
    features = {name = "lognormal", sigma = 0.6}
    noise = {name = "gaussian", scale = 0.1}

    [sweep]
    name = "epsilon"
    target = "solver.epsilon"
    values = [0.5, 1.0, 2.0, 4.0]

    [series]
    name = "d"
    target = "data.d"
    values = [20, 80]

Validation happens at construction: unknown solver/data/metric names
raise :class:`~repro.registry.UnknownNameError` listing the registered
menu, axis targets must name a keyword their adapter accepts, and all
kwargs must be JSON-serialisable (the canonical form the scenario's
cache fingerprint hashes).  :meth:`ExperimentSpec.to_scenario` then
packs the spec into a :class:`SpecScenario` — a frozen, picklable
:class:`~repro.evaluation.scenarios.Scenario` that resolves the names
inside each worker — so spec-driven grids get the engine's process
fan-out and code-aware caching exactly like the hand-written panels.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from .engine import CacheLike, ExecutorLike, run_grid
from .scenarios import Scenario
from .sweeps import SweepResult

#: The two places an axis value can land: a solver kwarg or a data kwarg.
_TARGET_SECTIONS = ("solver", "data")


def _canonical_json(mapping: Mapping) -> str:
    """Canonical JSON text of a kwargs mapping (sorted keys, no spaces).

    JSON is the frozen carrier: hashable, picklable, byte-stable for
    equal content — so two specs with equal kwargs produce equal
    scenarios, equal cache fingerprints, and equal pickles — and it
    round-trips every TOML-expressible value type the specs use.
    """
    try:
        return json.dumps(dict(mapping), sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise TypeError(f"spec kwargs must be JSON-serialisable plain data "
                        f"(numbers, strings, bools, lists, tables); got "
                        f"{mapping!r}") from exc


def _accepted_keywords(fn) -> Optional[Tuple[str, ...]]:
    """Configuration keywords ``fn`` accepts, or ``None`` for ``**kwargs``.

    Only *keyword-only* parameters count: adapters receive their
    payload (``data``/``rng``/``w``) positionally and declare every
    spec-settable knob after ``*``, so the positional parameter names
    are reserved — a spec kwarg or axis target naming one would either
    crash mid-grid with "multiple values for argument" or silently
    shadow the payload.
    """
    try:
        parameters = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):  # builtins without introspectable sigs
        return None
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters):
        return None
    return tuple(p.name for p in parameters
                 if p.kind is inspect.Parameter.KEYWORD_ONLY)


def _check_keywords(fn, keys, owner: str) -> None:
    """Reject kwarg names the registered adapter cannot accept."""
    accepted = _accepted_keywords(fn)
    if accepted is None:
        return
    unknown = sorted(set(keys) - set(accepted))
    if unknown:
        raise ValueError(
            f"{owner} does not accept keyword(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(accepted) or '(none)'}")


@dataclass(frozen=True)
class AxisSpec:
    """One grid axis: a display name, a target kwarg, and its values.

    ``target`` is ``"solver.<kwarg>"`` or ``"data.<kwarg>"`` — the
    keyword of the registered adapter this axis drives.  ``name`` is
    the axis label used in tables and (for the engine) in cell seeds.
    """

    name: str
    target: str
    values: Tuple[object, ...]

    @classmethod
    def of(cls, spec: "AxisSpec | Mapping") -> "AxisSpec":
        """Coerce a mapping ``{name, target, values}`` into an axis."""
        if isinstance(spec, cls):
            return spec
        try:
            mapping = dict(spec)
        except TypeError:
            raise TypeError(f"axis spec must be an AxisSpec or a mapping "
                            f"with name/target/values, got {spec!r}") from None
        unknown = sorted(set(mapping) - {"name", "target", "values"})
        if unknown:
            raise ValueError(f"unknown axis key(s) {', '.join(unknown)}; "
                             "an axis has name, target and values")
        missing = sorted({"name", "target", "values"} - set(mapping))
        if missing:
            raise ValueError(f"axis spec {mapping!r} is missing "
                             f"{', '.join(missing)}")
        return cls(name=str(mapping["name"]), target=str(mapping["target"]),
                   values=tuple(mapping["values"]))

    def __post_init__(self) -> None:
        """Validate the target format and that values are non-empty."""
        section, _, key = self.target.partition(".")
        if section not in _TARGET_SECTIONS or not key:
            raise ValueError(
                f"axis target must be 'solver.<kwarg>' or 'data.<kwarg>', "
                f"got {self.target!r}")
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")

    @property
    def section(self) -> str:
        """``"solver"`` or ``"data"`` — where the axis value lands."""
        return self.target.partition(".")[0]

    @property
    def key(self) -> str:
        """The adapter keyword the axis drives."""
        return self.target.partition(".")[2]

    def to_dict(self) -> Dict[str, object]:
        """The axis as the plain mapping :meth:`of` accepts."""
        return {"name": self.name, "target": self.target,
                "values": list(self.values)}


@dataclass(frozen=True)
class SpecScenario(Scenario):
    """A picklable scenario compiled from an :class:`ExperimentSpec`.

    Fields carry registry *names* plus canonical-JSON kwargs, so the
    instance pickles by value, travels to worker processes, and
    fingerprints stably (editing a registered adapter's name or the
    spec's kwargs invalidates exactly the affected cache cells).  Name
    resolution happens inside :meth:`__call__` — i.e. in the worker —
    against the same registries that validated the spec.
    """

    solver: str = ""
    data: str = ""
    metric: str = "excess_risk"
    solver_kwargs_json: str = "{}"
    data_kwargs_json: str = "{}"
    metric_kwargs_json: str = "{}"
    sweep_target: str = ""
    series_target: str = ""

    def __call__(self, series_value, sweep_value, rng) -> float:
        """Generate data, fit the solver, evaluate the metric — one trial."""
        from ..registry import DATA, METRICS, SOLVERS
        kwargs = {"solver": json.loads(self.solver_kwargs_json),
                  "data": json.loads(self.data_kwargs_json)}
        for target, value in ((self.series_target, series_value),
                              (self.sweep_target, sweep_value)):
            section, _, key = target.partition(".")
            kwargs[section][key] = value
        data = DATA.get(self.data)(rng, **kwargs["data"])
        w = SOLVERS.get(self.solver)(data, rng, **kwargs["solver"])
        metric = METRICS.get(self.metric)
        return float(metric(w, data, **json.loads(self.metric_kwargs_json)))


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative experiment: registry names, kwargs, axes, metric.

    All names are validated against the registries at construction (a
    typo fails immediately, listing the menu), axis targets are checked
    against the adapters' accepted keywords, and kwargs must be plain
    JSON-expressible data.  ``sweep``/``series`` accept
    :class:`AxisSpec` instances or plain mappings; the kwargs fields
    accept any mapping and are stored as plain dicts.
    """

    name: str
    solver: str
    data: str
    sweep: AxisSpec
    series: AxisSpec
    metric: str = "excess_risk"
    solver_kwargs: Dict[str, object] = field(default_factory=dict)
    data_kwargs: Dict[str, object] = field(default_factory=dict)
    metric_kwargs: Dict[str, object] = field(default_factory=dict)
    n_trials: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        """Coerce field forms and fail fast on anything unresolvable."""
        from ..registry import DATA, METRICS, SOLVERS
        object.__setattr__(self, "sweep", AxisSpec.of(self.sweep))
        object.__setattr__(self, "series", AxisSpec.of(self.series))
        for fname in ("solver_kwargs", "data_kwargs", "metric_kwargs"):
            object.__setattr__(self, fname, dict(getattr(self, fname)))
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"spec name must be a non-empty string, "
                             f"got {self.name!r}")
        if not isinstance(self.n_trials, int) or self.n_trials < 1:
            raise ValueError(f"n_trials must be a positive int, "
                             f"got {self.n_trials!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise TypeError(f"seed must be an int, got {self.seed!r}")
        if len(set(self.series.values)) != len(self.series.values):
            raise ValueError(
                f"series values must be unique, got {list(self.series.values)!r}")
        solver = SOLVERS.get(self.solver)  # raises UnknownNameError w/ menu
        data = DATA.get(self.data)
        metric = METRICS.get(self.metric)
        if self.sweep.target == self.series.target:
            raise ValueError(
                f"sweep and series both target {self.sweep.target!r}; the "
                f"sweep value would silently overwrite the series value in "
                f"every cell — give each axis its own kwarg")
        axis_keys = {"solver": [], "data": []}
        for axis in (self.sweep, self.series):
            axis_keys[axis.section].append(axis.key)
        _check_keywords(solver, list(self.solver_kwargs) + axis_keys["solver"],
                        f"solver {self.solver!r}")
        _check_keywords(data, list(self.data_kwargs) + axis_keys["data"],
                        f"data generator {self.data!r}")
        _check_keywords(metric, self.metric_kwargs, f"metric {self.metric!r}")
        for axis, role in ((self.sweep, "sweep"), (self.series, "series")):
            owner_kwargs = (self.solver_kwargs if axis.section == "solver"
                            else self.data_kwargs)
            if axis.key in owner_kwargs:
                raise ValueError(
                    f"{role} axis target {axis.target!r} collides with the "
                    f"fixed {axis.section}_kwargs entry {axis.key!r}; an "
                    f"axis must drive a free keyword")
        # Canonicalise now so an unserialisable value fails here, not in
        # a worker process mid-grid.
        for mapping in (self.solver_kwargs, self.data_kwargs,
                        self.metric_kwargs):
            _canonical_json(mapping)

    # -- construction from plain data ---------------------------------------

    _FIELDS = ("name", "solver", "data", "sweep", "series", "metric",
               "solver_kwargs", "data_kwargs", "metric_kwargs", "n_trials",
               "seed")

    @classmethod
    def from_dict(cls, mapping: Mapping) -> "ExperimentSpec":
        """Build and validate a spec from its plain-dict form."""
        data = dict(mapping)
        unknown = sorted(set(data) - set(cls._FIELDS))
        if unknown:
            raise ValueError(
                f"unknown spec key(s) {', '.join(unknown)}; a spec has "
                f"{', '.join(cls._FIELDS)}")
        missing = sorted({"name", "solver", "data", "sweep", "series"}
                         - set(data))
        if missing:
            raise ValueError(f"spec is missing required key(s) "
                             f"{', '.join(missing)}")
        return cls(**data)

    @classmethod
    def from_toml(cls, path) -> "ExperimentSpec":
        """Load and validate a spec from a TOML file."""
        import tomllib
        with open(path, "rb") as fh:
            return cls.from_dict(tomllib.load(fh))

    def to_dict(self) -> Dict[str, object]:
        """The spec's canonical plain-dict form (JSON/TOML-expressible).

        Round-trips: ``ExperimentSpec.from_dict(spec.to_dict()) == spec``.
        """
        return {
            "name": self.name,
            "solver": self.solver,
            "data": self.data,
            "sweep": self.sweep.to_dict(),
            "series": self.series.to_dict(),
            "metric": self.metric,
            "solver_kwargs": dict(self.solver_kwargs),
            "data_kwargs": dict(self.data_kwargs),
            "metric_kwargs": dict(self.metric_kwargs),
            "n_trials": self.n_trials,
            "seed": self.seed,
        }

    # -- execution -----------------------------------------------------------

    def to_scenario(self) -> SpecScenario:
        """Compile the spec into a picklable, fingerprinted scenario."""
        return SpecScenario(
            solver=self.solver, data=self.data, metric=self.metric,
            solver_kwargs_json=_canonical_json(self.solver_kwargs),
            data_kwargs_json=_canonical_json(self.data_kwargs),
            metric_kwargs_json=_canonical_json(self.metric_kwargs),
            sweep_target=self.sweep.target, series_target=self.series.target)

    def run(self, *, executor: ExecutorLike = "serial",
            cache: CacheLike = None, n_trials: Optional[int] = None,
            max_workers: Optional[int] = None,
            flight=None, on_cell=None) -> SweepResult:
        """Evaluate the spec's grid through the engine.

        Axis names label the grid (and enter cell seeds); the executor,
        cache, and ``flight`` (single-flight coalescing) knobs forward
        to :func:`~repro.evaluation.run_grid` unchanged, so spec runs
        parallelise, cache, and coalesce like any scenario grid.
        ``n_trials`` overrides the spec's trial count.  ``on_cell`` is
        the engine's per-cell observation hook — ``python -m repro run
        spec.toml --record`` uses it to assemble the run's provenance
        record.
        """
        return run_grid(
            self.to_scenario(), self.sweep.name, list(self.sweep.values),
            self.series.name, list(self.series.values),
            n_trials=self.n_trials if n_trials is None else n_trials,
            seed=self.seed, executor=executor, max_workers=max_workers,
            cache=cache, flight=flight, on_cell=on_cell)

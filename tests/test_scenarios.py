"""Tests for the scenario layer and code-aware cache keys.

The load-bearing properties: scenarios are picklable (so the process
executor genuinely fans bench grids out), all three executors produce
bit-identical results on a *real* bench scenario, and the engine's
cache keys see the point's code — editing a point function's body
invalidates exactly its warm-cache cells, while reformatting (line
shifts) does not.  Renames of the defining module invalidate too, by
design: for a cache, a spurious recompute is cheap and a stale hit is
not.
"""

import importlib.util
import pickle
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

from repro.evaluation import (
    PointSpec,
    ResultCache,
    Scenario,
    point_fingerprint,
    run_grid,
)

from repro.experiments import bench, bench_names, panels
from repro.results import load_record
from test_engine import _CountingExecutor  # shared helper

RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def _quadratic_point(series, x, rng, scale=1.0):
    """Module-level point for PointSpec tests."""
    return scale * float(series) * float(x) + float(rng.normal())


def _bench_scenario():
    """A real (but laptop-sized) figure scenario: the Peeling ablation."""
    return panels.PeelingVsDenseAblation(n=300, s=2)


class TestScenarioProtocol:
    def test_base_scenario_call_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Scenario()(1, 2, np.random.default_rng(0))

    def test_point_spec_binds_parameters(self):
        spec = PointSpec.of(_quadratic_point, scale=3.0)
        rng = np.random.default_rng(0)
        expected = _quadratic_point(2, 5, np.random.default_rng(0), scale=3.0)
        assert spec(2, 5, rng) == expected

    def test_point_spec_requires_callable(self):
        with pytest.raises(TypeError):
            PointSpec.of(None)

    def test_point_spec_param_order_is_canonical(self):
        a = PointSpec.of(_quadratic_point, scale=2.0)
        b = PointSpec(fn=_quadratic_point, params=(("scale", 2.0),))
        assert a == b
        assert a.fingerprint() == b.fingerprint()

    def test_mistyped_mode_fields_rejected(self):
        """A typo in a mode field must fail fast, not silently take the
        last dispatch branch and emit a plausible but wrong panel."""
        with pytest.raises(ValueError, match="sweep"):
            panels.SparseLinearPanel(
                features=panels.DistributionSpec("gaussian",
                                                     {"scale": 1.0}),
                noise=panels.DistributionSpec("gaussian",
                                                  {"scale": 1.0}),
                sweep="eps")
        with pytest.raises(ValueError, match="solver"):
            panels.L1LinearPanel(solver="sgd")
        with pytest.raises(ValueError, match="loss"):
            panels.RealDataPanel(dataset="blog", loss="hinge")
        with pytest.raises(ValueError, match="metric"):
            panels.SparseLinearPanel(
                features=panels.DistributionSpec("gaussian",
                                                     {"scale": 1.0}),
                noise=panels.DistributionSpec("gaussian",
                                                  {"scale": 1.0}),
                metric="l2")

    @pytest.mark.parametrize("scenario", [
        panels.L1LinearPanel(
            solver="dpfw",
            features=panels.DistributionSpec("lognormal", {"sigma": 0.6}),
            noise=panels.DistributionSpec("gaussian", {"scale": 0.1}),
            sweep="epsilon", n_fixed=100),
        panels.RealDataPanel(dataset="blog", loss="squared"),
        panels.SparseLinearPanel(
            features=panels.DistributionSpec("gaussian", {"scale": 2.24}),
            noise=panels.DistributionSpec("lognormal", {"sigma": 0.5}),
            sweep="n", s_fixed=2),
        panels.PeelingVsDenseAblation(n=100, s=2),
    ], ids=lambda s: type(s).__name__)
    def test_bench_scenarios_pickle_roundtrip(self, scenario):
        clone = pickle.loads(pickle.dumps(scenario))
        assert clone == scenario
        assert clone.fingerprint() == scenario.fingerprint()

    @pytest.mark.parametrize("full", [False, True], ids=["laptop", "full"])
    @pytest.mark.parametrize("name", bench_names())
    def test_every_catalog_point_pickles(self, name, full):
        """Every catalog panel point crosses a process boundary intact,
        so the fleet executor never needs a serial fallback."""
        for panel in bench(name, full=full).panels:
            clone = pickle.loads(pickle.dumps(panel.point))
            assert clone == panel.point
            assert point_fingerprint(clone) == point_fingerprint(panel.point)


class TestExecutorBitIdentityOnBenchScenario:
    def test_serial_thread_fleet_agree(self):
        """The acceptance property: a real bench scenario produces
        bit-identical result tables on every executor, including the
        fleet, the one that pickles the scenario to its workers."""
        grid = dict(n_trials=2, seed=220)
        results = {
            name: run_grid(_bench_scenario(), "d", [10, 20],
                           "method", ["peeling", "dense-laplace"],
                           executor=name, max_workers=2, **grid)
            for name in ("serial", "thread", "fleet")
        }
        for method in ("peeling", "dense-laplace"):
            serial = results["serial"].means(method).tolist()
            assert results["thread"].means(method).tolist() == serial
            assert results["fleet"].means(method).tolist() == serial


@pytest.mark.parametrize("name", bench_names())
def test_catalog_fingerprints_match_committed_records(name):
    """Every catalog panel's point fingerprint equals the one in its
    committed record, so a refactor of a scenario module cannot move a
    ``run_id`` unnoticed.  No cell is computed."""
    definition = bench(name)
    record = load_record(RESULTS / f"{definition.result_stem}.json")
    assert [point_fingerprint(p.point) for p in definition.panels] == \
           [p.point_fingerprint for p in record.panels]


class TestFingerprints:
    def test_fingerprint_is_deterministic(self):
        assert (point_fingerprint(_quadratic_point)
                == point_fingerprint(_quadratic_point))

    def test_fields_change_fingerprint(self):
        a = panels.PeelingVsDenseAblation(n=100, s=2)
        b = panels.PeelingVsDenseAblation(n=100, s=3)
        assert a.fingerprint() != b.fingerprint()

    def test_point_spec_params_change_fingerprint(self):
        a = PointSpec.of(_quadratic_point, scale=1.0)
        b = PointSpec.of(_quadratic_point, scale=2.0)
        assert a.fingerprint() != b.fingerprint()

    def test_closure_state_changes_fingerprint(self):
        def make(offset):
            return lambda s, x, rng: x + offset

        assert point_fingerprint(make(1.0)) != point_fingerprint(make(2.0))
        assert point_fingerprint(make(1.0)) == point_fingerprint(make(1.0))

    def test_scenario_helper_method_body_is_covered(self):
        """Editing a method the scenario calls via ``self`` must change
        the fingerprint — co_names cannot resolve attribute lookups, so
        the fingerprint hashes every method the class defines."""
        from dataclasses import dataclass

        def make_class(factor):
            @dataclass(frozen=True)
            class Probe(Scenario):
                def _helper(self, x):
                    return float(x) * factor  # noqa: B023

                def __call__(self, series, x, rng):
                    return self._helper(x)

            return Probe

        # Same closure state, same methods -> same fingerprint...
        assert (point_fingerprint(make_class(2.0)())
                == point_fingerprint(make_class(2.0)()))
        # ...but a different helper body (here, captured state the
        # helper uses) re-keys the cache.
        assert (point_fingerprint(make_class(2.0)())
                != point_fingerprint(make_class(3.0)()))

    def test_module_constant_referenced_by_point_is_covered(self, tmp_path):
        probe = _ProbeModules(tmp_path, name="_const_probe")
        template = """\
        FACTOR = {factor}

        def probe_point(series, x, rng):
            return float(x) * FACTOR
        """

        def load(factor):
            return probe.load_source(
                textwrap.dedent(template).format(factor=factor))

        assert point_fingerprint(load(2.0)) == point_fingerprint(load(2.0))
        assert point_fingerprint(load(2.0)) != point_fingerprint(load(7.0))

    def test_module_rename_conservatively_invalidates(self, tmp_path):
        """The module-qualified name is part of the fingerprint: a
        rename costs an early recompute, never a stale hit."""
        body = "return float(x) * 2.0"
        a = _ProbeModules(tmp_path, name="_rename_probe_a").load(body)
        b = _ProbeModules(tmp_path, name="_rename_probe_b").load(body)
        assert point_fingerprint(a) != point_fingerprint(b)

    def test_line_shifts_do_not_invalidate(self, tmp_path):
        """Reformatting around a function (same module, same body at a
        different line number) keeps the fingerprint stable."""
        probe = _ProbeModules(tmp_path, name="_shift_probe")
        token = point_fingerprint(probe.load("return float(x) * 2.0"))
        shifted = probe.load_source("# a comment\n\n\n"
                                    + probe.path.read_text())
        assert point_fingerprint(shifted) == token

    def test_never_raises_on_opaque_callables(self):
        class Opaque:
            __slots__ = ()

            def __call__(self, s, x, rng):
                return 0.0

        token = point_fingerprint(Opaque())
        assert isinstance(token, str) and token


class _ProbeModules:
    """Write, import, and rewrite a throwaway point-function module."""

    TEMPLATE = """\
    def probe_point(series, x, rng):
        {body}
    """

    def __init__(self, tmp_path, name="_code_probe"):
        self.path = tmp_path / f"{name}.py"
        self.name = name
        self.module = None

    def load_source(self, source):
        """(Re)write the module with ``source`` and import its point."""
        self.path.write_text(source)
        spec = importlib.util.spec_from_file_location(self.name, self.path)
        self.module = importlib.util.module_from_spec(spec)
        sys.modules[self.name] = self.module
        spec.loader.exec_module(self.module)
        return self.module.probe_point

    def load(self, body):
        """(Re)write the probe function with ``body`` and import it."""
        return self.load_source(
            textwrap.dedent(self.TEMPLATE).format(body=body))


class TestCodeAwareCaching:
    """Editing a point function's body must invalidate its cached cells."""

    def _run(self, point, cache):
        counting = _CountingExecutor()
        result = run_grid(point, "n", [1, 2], "d", [1], n_trials=2, seed=0,
                          cache=cache, executor=counting)
        return counting.calls, result

    def test_bytecode_change_invalidates_warm_cache(self, tmp_path):
        probe = _ProbeModules(tmp_path)
        cache = ResultCache(tmp_path / "cells")
        point = probe.load("return float(x) * 2.0")
        calls, first = self._run(point, cache)
        assert calls == 2  # cold: both cells computed

        # Identical source reloaded -> identical fingerprint -> all hits.
        point = probe.load("return float(x) * 2.0")
        calls, warm = self._run(point, cache)
        assert calls == 0
        assert warm.means(1).tolist() == first.means(1).tolist()

        # Edited body (a constant in co_consts) -> cells recomputed.
        point = probe.load("return float(x) * 3.0")
        calls, changed = self._run(point, cache)
        assert calls == 2
        assert changed.means(1).tolist() != first.means(1).tolist()

    def test_same_module_helper_edit_invalidates(self, tmp_path):
        """The fingerprint walks helpers the point calls in its own
        module, so refactoring point logic into ``_make``-style helpers
        does not hide edits from the cache."""
        probe = _ProbeModules(tmp_path)
        template = """\
        def _helper(x):
            return float(x) * {factor}

        def probe_point(series, x, rng):
            return _helper(x)
        """

        def load(factor):
            return probe.load_source(
                textwrap.dedent(template).format(factor=factor))

        cache = ResultCache(tmp_path / "cells")
        calls, _ = self._run(load(2.0), cache)
        assert calls == 2
        calls, _ = self._run(load(2.0), cache)
        assert calls == 0
        calls, _ = self._run(load(5.0), cache)
        assert calls == 2

    def test_explicit_code_tag_opts_out(self, tmp_path):
        """``code_tag=""`` restores coordinate-only cache keys."""
        probe = _ProbeModules(tmp_path)
        cache = ResultCache(tmp_path / "cells")
        point = probe.load("return float(x) * 2.0")
        counting = _CountingExecutor()
        run_grid(point, "n", [1], "d", [1], n_trials=1, seed=0, cache=cache,
                 executor=counting, code_tag="")
        assert counting.calls == 1
        point = probe.load("return float(x) * 9.0")
        counting = _CountingExecutor()
        run_grid(point, "n", [1], "d", [1], n_trials=1, seed=0, cache=cache,
                 executor=counting, code_tag="")
        assert counting.calls == 0  # stale hit, by explicit request

    def test_scenario_field_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        grid = dict(n_trials=1, seed=220)
        for expected, scenario in [
            (2, panels.PeelingVsDenseAblation(n=120, s=2)),
            (0, panels.PeelingVsDenseAblation(n=120, s=2)),
            (2, panels.PeelingVsDenseAblation(n=150, s=2)),
        ]:
            counting = _CountingExecutor()
            run_grid(scenario, "d", [8, 16], "method", ["peeling"],
                     cache=cache, executor=counting, **grid)
            assert counting.calls == expected

    def test_code_tag_does_not_change_seeds(self, tmp_path):
        """Fingerprints gate cache reuse only: recomputed cells draw the
        same randomness regardless of the point's code identity."""
        probe = _ProbeModules(tmp_path)
        noisy = probe.load("return float(rng.normal())")
        baseline = run_grid(noisy, "n", [1], "d", [1], n_trials=3, seed=7)
        relabeled = run_grid(noisy, "n", [1], "d", [1], n_trials=3, seed=7,
                             code_tag="v2")
        assert baseline.means(1).tolist() == relabeled.means(1).tolist()


class TestCodeHashModules:
    """The opt-in cross-module fingerprint knob on Scenario."""

    def _fake_module(self, name, body):
        module = types.ModuleType(name)
        exec(textwrap.dedent(body), module.__dict__)
        sys.modules[name] = module
        return module

    def test_module_edit_invalidates_fingerprint(self):
        import dataclasses as _dc
        from repro.evaluation import PointSpec, point_fingerprint
        name = "_fp_knob_test_mod"
        self._fake_module(name, """
            def helper(a):
                return a + 1
        """)
        try:
            def point(series, x, rng):
                return 0.0
            spec = _dc.replace(PointSpec.of(point),
                               code_hash_modules=(name,))
            before = point_fingerprint(spec)
            # Same module content -> same fingerprint.
            assert point_fingerprint(spec) == before
            # Editing the module's function body must invalidate.
            self._fake_module(name, """
                def helper(a):
                    return a + 2
            """)
            assert point_fingerprint(spec) != before
        finally:
            del sys.modules[name]

    def test_class_methods_in_module_are_covered(self):
        import dataclasses as _dc
        from repro.evaluation import PointSpec, point_fingerprint
        name = "_fp_knob_class_mod"
        self._fake_module(name, """
            class Estimator:
                def estimate(self, x):
                    return x * 2
        """)
        try:
            def point(series, x, rng):
                return 0.0
            spec = _dc.replace(PointSpec.of(point),
                               code_hash_modules=(name,))
            before = point_fingerprint(spec)
            self._fake_module(name, """
                class Estimator:
                    def estimate(self, x):
                        return x * 3
            """)
            assert point_fingerprint(spec) != before
        finally:
            del sys.modules[name]

    def test_field_participates_in_fingerprint_itself(self):
        import dataclasses as _dc
        from repro.evaluation import PointSpec, point_fingerprint
        def point(series, x, rng):
            return 0.0
        bare = PointSpec.of(point)
        opted = _dc.replace(bare, code_hash_modules=("repro.rng",))
        assert point_fingerprint(bare) != point_fingerprint(opted)

    def test_unknown_module_raises_not_degrades(self):
        import dataclasses as _dc
        from repro.evaluation import (FingerprintError, PointSpec,
                                      point_fingerprint)
        def point(series, x, rng):
            return 0.0
        spec = _dc.replace(PointSpec.of(point),
                           code_hash_modules=("no_such_module_qq",))
        with pytest.raises(FingerprintError, match="no_such_module_qq"):
            point_fingerprint(spec)

    def test_real_library_module_token_is_stable(self):
        from repro.evaluation import module_token
        assert module_token("repro.estimators.catoni") == \
               module_token("repro.estimators.catoni")


class TestModuleTokenDescriptors:
    """module_token must see property and cached_property bodies."""

    def _fake_module(self, name, body):
        module = types.ModuleType(name)
        exec(textwrap.dedent(body), module.__dict__)
        sys.modules[name] = module
        return module

    def test_property_edit_changes_module_token(self):
        from repro.evaluation import module_token
        name = "_fp_prop_mod"
        self._fake_module(name, """
            class Shape:
                @property
                def diameter(self):
                    return 1
        """)
        try:
            before = module_token(name)
            self._fake_module(name, """
                class Shape:
                    @property
                    def diameter(self):
                        return 2
            """)
            assert module_token(name) != before
        finally:
            del sys.modules[name]

    def test_cached_property_edit_changes_module_token(self):
        from repro.evaluation import module_token
        name = "_fp_cached_prop_mod"
        self._fake_module(name, """
            import functools
            class Shape:
                @functools.cached_property
                def area(self):
                    return 1
        """)
        try:
            before = module_token(name)
            self._fake_module(name, """
                import functools
                class Shape:
                    @functools.cached_property
                    def area(self):
                        return 2
            """)
            assert module_token(name) != before
        finally:
            del sys.modules[name]

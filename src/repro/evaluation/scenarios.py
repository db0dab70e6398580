"""Picklable, code-fingerprinted scenarios for the experiment engine.

The engine's parallel executors need point functions that can cross a
process boundary, and its on-disk cache needs keys that change when the
point *code* changes.  Closures satisfy neither: they cannot be pickled,
and their bytecode is invisible to a repr-based cache tag.  This module
provides both halves of the fix:

* :class:`Scenario` / :class:`PointSpec` — frozen, module-level
  dataclasses implementing the engine's point protocol
  ``scenario(series_value, sweep_value, rng) -> float``.  Instances are
  plain picklable values, so every executor (serial, thread, fleet)
  can run them, and their dataclass fields enumerate exactly the state
  that parameterises the experiment.

* :func:`point_fingerprint` — a stable digest of a point callable's
  compiled code (bytecode, consts, names, recursively through nested and
  same-module helper functions) plus its configuration (dataclass
  fields, closure cells, partial arguments).  :func:`~.engine.run_grid`
  folds this fingerprint into every job digest, so editing a point
  function's body invalidates exactly the cache cells it produced.

Fingerprints derive from CPython bytecode, which changes across
interpreter versions; that only retires cache entries early (a
recompute), never corrupts them.  Seeds never depend on fingerprints —
editing code changes *which* cached cells are reused, not the random
draws of a recomputed cell.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import types
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

from .engine import canonical_token, stable_repr


class FingerprintError(Exception):
    """A fingerprint *configuration* error that must not degrade silently.

    Most introspection failures inside :func:`point_fingerprint` fall
    back to stable placeholder tokens (lossy caching, never corrupt
    results).  Errors of this type — e.g. a ``code_hash_modules`` entry
    that does not import — are caller mistakes: swallowing them would
    silently disable the invalidation the caller explicitly asked for,
    so they propagate.
    """

#: Recursion budget for the code walk: a fingerprint follows nested code
#: objects and same-module helper functions at most this many levels
#: deep.  Cycles are cut by a seen-set, so the limit only bounds cost;
#: a chain deeper than this degrades to a *stable* ``<deep>`` token,
#: which means edits beyond the horizon stop invalidating — keep it
#: comfortably above any real helper nesting.
_MAX_CODE_DEPTH = 8


# ---------------------------------------------------------------------------
# Code fingerprinting — the cache sees the code it is caching.
# ---------------------------------------------------------------------------

def _const_token(value: object, depth: int, seen: set) -> str:
    """Token for one ``co_consts`` entry, recursing into nested code."""
    if isinstance(value, types.CodeType):
        return _code_token(value, depth, seen)
    return _value_token(value, depth, seen)


def _code_token(code: types.CodeType, depth: int = 0,
                seen: Optional[set] = None) -> str:
    """Canonical text of a compiled code object.

    Covers the executable surface — bytecode, constants (recursing into
    nested code objects, e.g. inner ``lambda`` s and comprehensions),
    referenced names, and the argument layout — while deliberately
    excluding ``co_filename`` and line numbers, so moving a function or
    reformatting around it does not invalidate caches.
    """
    if seen is None:
        seen = set()
    if depth > _MAX_CODE_DEPTH or id(code) in seen:
        return "code:<deep>"
    seen.add(id(code))
    consts = ",".join(_const_token(c, depth + 1, seen) for c in code.co_consts)
    return ("code:{name}|argc={argc},{kwonly},{flags}|{bytecode}|"
            "names={names}|vars={varnames}|free={freevars}|consts=[{consts}]"
            ).format(name=code.co_name, argc=code.co_argcount,
                     kwonly=code.co_kwonlyargcount,
                     flags=code.co_flags & 0x0F,  # CO_VARARGS/KEYWORDS etc.
                     bytecode=code.co_code.hex(),
                     names=",".join(code.co_names),
                     varnames=",".join(code.co_varnames),
                     freevars=",".join(code.co_freevars), consts=consts)


def _function_token(fn: Callable, depth: int = 0,
                    seen: Optional[set] = None) -> str:
    """Token for a Python function: its code, state, and direct helpers.

    Beyond the function's own code object this walks (depth-limited,
    cycle-safe):

    * default argument values and closure cell contents — the state a
      closure actually captures;
    * global names the bytecode references that resolve to functions
      *defined in the same module* — so editing a helper like
      ``_make_data`` next to a scenario's ``__call__`` still invalidates
      the cells that used it;
    * global names that resolve to plain *values* (module-level
      constants, config singletons), tokenised best-effort.

    Referenced classes, modules, and functions from *other* modules
    enter by name only: hashing the transitive closure of the whole
    package would retire every cache on any library edit.  The token
    also embeds ``__module__.__qualname__``, so renaming a function or
    its module conservatively invalidates (a recompute, never a stale
    hit).
    """
    if seen is None:
        seen = set()
    if depth > _MAX_CODE_DEPTH or id(fn) in seen:
        return "fn:<deep>"
    seen.add(id(fn))
    code = fn.__code__
    parts = [f"{getattr(fn, '__module__', '')}.{getattr(fn, '__qualname__', '')}",
             _code_token(code, depth, seen)]
    for default in (fn.__defaults__ or ()):
        parts.append("default=" + _value_token(default, depth + 1, seen))
    kwdefaults = fn.__kwdefaults__ or {}
    for key in sorted(kwdefaults):
        parts.append(f"kwdefault:{key}="
                     + _value_token(kwdefaults[key], depth + 1, seen))
    for cell in (fn.__closure__ or ()):
        try:
            contents = cell.cell_contents
        except ValueError:  # empty cell (still being defined)
            parts.append("cell=<empty>")
            continue
        parts.append("cell=" + _value_token(contents, depth + 1, seen))
    module = getattr(fn, "__module__", None)
    for name in sorted(set(code.co_names)):
        if name not in fn.__globals__:
            continue  # builtin or attribute name; co_names covers it
        target = fn.__globals__[name]
        if isinstance(target, types.FunctionType):
            if getattr(target, "__module__", None) == module:
                parts.append(f"global:{name}="
                             + _function_token(target, depth + 1, seen))
        elif not isinstance(target, (type, types.ModuleType)):
            parts.append(f"global:{name}="
                         + _value_token(target, depth + 1, seen))
    return "(" + ";".join(parts) + ")"


def _value_token(value: object, depth: int = 0,
                 seen: Optional[set] = None) -> str:
    """Best-effort stable token for arbitrary captured state.

    Unlike :func:`~.engine.canonical_token` this never raises.  Seeds
    never flow through it — only cache keys do — so lossiness here
    cannot corrupt a freshly computed result; its cost is cache
    accuracy: an over-specific token forfeits hits (spurious
    recomputes), an under-specific one can collide across a code edit
    and serve a stale cell (see :func:`point_fingerprint` for the
    documented coverage boundary).  Callables are resolved through
    their code, dataclasses through their fields, and anything else
    falls back to an address-stripped repr.
    """
    if seen is None:
        seen = set()
    if depth > _MAX_CODE_DEPTH + 2 or id(value) in seen:
        return "<deep>"
    if isinstance(value, types.FunctionType):
        return _function_token(value, depth, seen)
    if isinstance(value, types.MethodType):
        seen.add(id(value))
        return ("method:" + _function_token(value.__func__, depth, seen)
                + "@" + _value_token(value.__self__, depth + 1, seen))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        seen.add(id(value))
        fields = ",".join(
            f"{f.name}={_value_token(getattr(value, f.name), depth + 1, seen)}"
            for f in dataclasses.fields(value))
        return f"dc:{type(value).__module__}.{type(value).__qualname__}({fields})"
    try:
        return canonical_token(value)
    except Exception:
        try:
            return stable_repr(value)
        except Exception:
            return "<unrepresentable>"


def module_token(module_name: str) -> str:
    """Canonical text of a library module's executable surface.

    Covers every function the module defines (via
    :func:`_function_token`, so defaults, module constants and
    same-module helpers are included) and every method of every class
    it defines — keyed by qualified name, in sorted order, so the token
    is stable across processes.  Code merely *imported into* the module
    is excluded: it belongs to (and is tracked by) its defining module.

    Raises :class:`FingerprintError` when the module cannot be
    imported — a misspelled ``code_hash_modules`` entry must fail
    loudly, not silently stop invalidating.
    """
    try:
        module = importlib.import_module(module_name)
    except Exception as exc:
        raise FingerprintError(
            f"code_hash_modules entry {module_name!r} cannot be imported: "
            f"{exc}") from exc
    parts = [f"mod:{module_name}"]
    for name in sorted(vars(module)):
        attr = vars(module)[name]
        if isinstance(attr, types.FunctionType):
            if getattr(attr, "__module__", None) == module_name:
                parts.append(f"{name}=" + _function_token(attr))
        elif isinstance(attr, type):
            if getattr(attr, "__module__", None) != module_name:
                continue
            for method_name in sorted(vars(attr)):
                method = vars(attr)[method_name]
                if isinstance(method, (staticmethod, classmethod)):
                    method = method.__func__
                elif isinstance(method, property):
                    # Property bodies are code too: an edited getter
                    # must invalidate like an edited method.
                    for role, accessor in (("get", method.fget),
                                           ("set", method.fset),
                                           ("del", method.fdel)):
                        if isinstance(accessor, types.FunctionType):
                            parts.append(f"{name}.{method_name}.{role}="
                                         + _function_token(accessor))
                    continue
                elif isinstance(method, functools.cached_property):
                    method = method.func
                if isinstance(method, types.FunctionType):
                    parts.append(f"{name}.{method_name}="
                                 + _function_token(method))
    return "(" + ";".join(parts) + ")"


def point_fingerprint(point: Callable) -> str:
    """Stable hex digest of a point callable's code and configuration.

    The digest covers the compiled body (via :func:`_code_token`) and
    the configuration the call can see — dataclass fields for
    :class:`Scenario` objects, every method its class defines, captured
    cells for closures, bound ``functools.partial`` arguments,
    ``__self__`` state for bound methods, and same-module helper
    functions and constants.  Editing any of these invalidates the warm
    cache.  Reformatting, or moving code *within* its module, does not;
    renaming a function or its module conservatively does (an early
    recompute, never a stale hit).

    Coverage is best-effort in the other direction: code in *other*
    modules enters by name only, and state that defeats introspection
    (opaque non-repr objects, helper chains beyond the depth budget)
    degrades to a stable placeholder that edits cannot perturb.  A
    cache shared across such edits can serve stale cells — when in
    doubt, separate experiments with ``cache_tag`` or distinct root
    seeds, exactly as for any out-of-band dependency (library versions,
    data files).

    Scenarios can widen the boundary explicitly: a
    :attr:`Scenario.code_hash_modules` entry folds the named module's
    entire executable surface (every function and method it defines,
    via :func:`module_token`) into the digest, so edits to that library
    module invalidate the scenario's warm cells too.  A module name
    that does not import raises :class:`FingerprintError` — the one
    failure this function refuses to degrade, because the caller asked
    for that invalidation by name.
    """
    try:
        payload = _point_token(point)
    except Exception:
        try:
            payload = "opaque:" + stable_repr(point)
        except Exception:
            payload = "opaque:<unrepresentable>"
    for module_name in (getattr(point, "code_hash_modules", None) or ()):
        payload += f"|module:{module_name}=" + module_token(module_name)
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()


def _point_token(point: Callable) -> str:
    """Dispatch a callable to the richest token its type supports."""
    if isinstance(point, functools.partial):
        inner = _point_token(point.func)
        args = ",".join(_value_token(a) for a in point.args)
        kwargs = ",".join(f"{k}={_value_token(point.keywords[k])}"
                          for k in sorted(point.keywords))
        return f"partial:({inner})[{args}][{kwargs}]"
    if isinstance(point, (types.FunctionType, types.MethodType)):
        return _value_token(point)
    call = type(point).__call__
    call_fn = getattr(call, "__func__", call)
    if isinstance(call_fn, types.FunctionType):
        # Hash every method the class hierarchy defines, not just
        # __call__: a scenario calling ``self._helper(...)`` must see
        # edits to the helper's body too (co_names cannot resolve
        # attribute lookups the way it resolves module globals).
        state = _value_token(point)
        methods, seen_names = [], set()
        for klass in type(point).__mro__:
            if klass is object:
                continue
            for name in sorted(vars(klass)):
                if name in seen_names:
                    continue
                attr = vars(klass)[name]
                if isinstance(attr, (staticmethod, classmethod)):
                    attr = attr.__func__
                if isinstance(attr, types.FunctionType):
                    seen_names.add(name)
                    methods.append(f"{name}=" + _function_token(attr))
        return (f"callable:{type(point).__qualname__}|{state}|"
                + ";".join(methods))
    return "builtin:" + stable_repr(point)


# ---------------------------------------------------------------------------
# The scenario protocol.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """Base class for picklable point functions.

    A scenario is a frozen dataclass whose fields fully determine one
    experiment family; subclasses implement the engine's point protocol

    ``__call__(series_value, sweep_value, rng) -> float``

    where ``series_value`` selects the curve (e.g. a dimension),
    ``sweep_value`` is the x-axis coordinate, and ``rng`` is the
    trial's independently seeded :class:`numpy.random.Generator` — the
    only source of randomness the call may use.  The call must be a
    pure function of ``(fields, series_value, sweep_value, rng)``: no
    hidden module state, so that any executor on any host reproduces
    the same value from the same job.

    Because instances are plain dataclass values they pickle by field,
    which is what lets the fleet ship a grid out to its workers, and
    what lets :func:`point_fingerprint` key the cache by the fields
    plus the bytecode of every method the class defines.

    The fingerprint's normal boundary stops at the scenario's own
    module: library code it calls enters by name only.  Scenarios whose
    results hinge on specific library modules can opt in to deeper
    invalidation by naming them in ``code_hash_modules`` — e.g.
    ``code_hash_modules=("repro.estimators.catoni",)`` retires the
    scenario's warm cache cells whenever any function or method of
    ``repro.estimators.catoni`` changes.  The field is keyword-only (it
    never participates in subclasses' positional field order) and, like
    every field, is part of the fingerprint itself.
    """

    #: Library modules whose executable surface is folded into the
    #: cache fingerprint (see :func:`module_token`); () hashes none.
    code_hash_modules: Tuple[str, ...] = field(default=(), kw_only=True)

    def __call__(self, series_value: object, sweep_value: object,
                 rng) -> float:
        """Evaluate one trial of one grid cell; subclasses must override."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement "
            "__call__(series_value, sweep_value, rng)")

    def fingerprint(self) -> str:
        """The scenario's cache fingerprint (fields + method bytecode)."""
        return point_fingerprint(self)


@dataclass(frozen=True)
class PointSpec(Scenario):
    """A module-level point function bound to frozen keyword parameters.

    The lightweight alternative to subclassing :class:`Scenario`: wrap
    any module-level function of signature
    ``fn(series_value, sweep_value, rng, **params)`` together with its
    parameter values.  Like every scenario, the instance is picklable
    (the function travels by reference, the parameters by value) and
    the call contract is ``spec(series_value, sweep_value, rng) ->
    float``.

    ``params`` is stored as a sorted tuple of ``(name, value)`` pairs so
    two specs built from the same keywords compare, hash, pickle, and
    fingerprint identically; build instances with :meth:`of`.
    """

    fn: Callable = None  # type: ignore[assignment]
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def of(cls, fn: Callable, **params: object) -> "PointSpec":
        """Bind ``fn`` to keyword ``params`` as a picklable point."""
        if fn is None or not callable(fn):
            raise TypeError(f"fn must be callable, got {fn!r}")
        return cls(fn=fn, params=tuple(sorted(params.items())))

    def __call__(self, series_value: object, sweep_value: object,
                 rng) -> float:
        """Evaluate ``fn(series_value, sweep_value, rng, **params)``."""
        return self.fn(series_value, sweep_value, rng, **dict(self.params))

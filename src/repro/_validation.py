"""Internal validation helpers shared across the package.

These helpers keep precondition checks uniform: every public entry point
validates its inputs eagerly and raises :class:`repro.exceptions.ValidationError`
with an actionable message, rather than failing deep inside numpy/scipy
with an inscrutable traceback.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any, TypeVar

from .exceptions import ValidationError

__all__ = [
    "require",
    "check_positive",
    "check_nonnegative",
    "check_probability",
    "check_probability_vector",
    "check_integer_in_range",
    "check_finite",
    "check_scale",
    "contract",
    "effects",
    "EFFECT_KINDS",
    "raises",
    "exception_name_problems",
]

#: Tolerance used when validating probability vectors and comparing loads.
PROBABILITY_TOLERANCE = 1e-9


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with *message* unless *condition* holds."""
    if not condition:
        raise ValidationError(message)


def check_finite(value: float, name: str) -> float:
    """Validate that *value* is a finite real number and return it as float."""
    try:
        result = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(result):
        raise ValidationError(f"{name} must be finite, got {result!r}")
    return result


def check_positive(value: float, name: str) -> float:
    """Validate that *value* is a finite number strictly greater than zero."""
    result = check_finite(value, name)
    if result <= 0:
        raise ValidationError(f"{name} must be positive, got {result!r}")
    return result


def check_nonnegative(value: float, name: str) -> float:
    """Validate that *value* is a finite number greater than or equal to zero."""
    result = check_finite(value, name)
    if result < 0:
        raise ValidationError(f"{name} must be non-negative, got {result!r}")
    return result


def check_probability(value: float, name: str) -> float:
    """Validate that *value* lies in the closed interval [0, 1]."""
    result = check_finite(value, name)
    if not -PROBABILITY_TOLERANCE <= result <= 1 + PROBABILITY_TOLERANCE:
        raise ValidationError(f"{name} must lie in [0, 1], got {result!r}")
    return min(max(result, 0.0), 1.0)


def check_probability_vector(values: Sequence[float], name: str) -> list[float]:
    """Validate that *values* are non-negative and sum to one.

    Returns the values normalized exactly (dividing by their sum) so that
    downstream arithmetic can rely on an exact unit total.
    """
    cleaned = [check_nonnegative(v, f"{name}[{i}]") for i, v in enumerate(values)]
    total = sum(cleaned)
    if abs(total - 1.0) > 1e-6:
        raise ValidationError(
            f"{name} must sum to 1 (got {total!r}); normalize weights with "
            "AccessStrategy.from_weights if they are unnormalized"
        )
    return [v / total for v in cleaned]


def check_integer_in_range(
    value: Any, name: str, *, low: int | None = None, high: int | None = None
) -> int:
    """Validate that *value* is an integer within the inclusive range [low, high]."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValidationError(f"{name} must be <= {high}, got {value}")
    return value


#: The closed set of values accepted by every solver ``scale=`` keyword.
SCALE_VALUES = (None, "dense", "large")


def check_scale(scale: str | None) -> str | None:
    """Validate a solver ``scale=`` keyword and return it unchanged.

    The shared gate behind every entry point that routes between the
    dense metric and the lazy/streamed large-scale path (``docs/api.md``
    documents the matrix): ``None`` and ``"dense"`` mean the classic
    dense ``(n, n)`` metric, ``"large"`` routes all distance access
    through :meth:`repro.network.Network.lazy_metric`.
    """
    if scale not in SCALE_VALUES:
        raise ValidationError(
            f"scale must be one of {SCALE_VALUES}, got {scale!r}"
        )
    return scale


#: Environment switch for runtime contract enforcement.  The static
#: checker (``repro lint --dataflow``, rules R200/R202) reads the same
#: declarations from the AST, so production runs pay nothing.
CONTRACTS_ENV = "REPRO_DEBUG_CONTRACTS"

_F = TypeVar("_F", bound=Callable[..., Any])

#: Accepted numpy dtype kinds per declared coarse kind.  Integer arrays
#: are acceptable wherever floats are declared (they promote exactly).
_DTYPE_KINDS = {"float": "fiu", "int": "iu", "bool": "b"}


def _contracts_enabled() -> bool:
    return os.environ.get(CONTRACTS_ENV) == "1"


def _check_shape(
    value: Any, declared: Sequence[int | str], name: str, symbols: dict[str, int]
) -> None:
    shape = getattr(value, "shape", None)
    if shape is None:
        raise ValidationError(
            f"contract on {name}: expected an array with shape "
            f"{tuple(declared)}, got {type(value).__name__}"
        )
    if len(shape) != len(declared):
        raise ValidationError(
            f"contract on {name}: expected rank {len(declared)} "
            f"(shape {tuple(declared)}), got shape {tuple(shape)}"
        )
    for axis, (want, got) in enumerate(zip(declared, shape)):
        if isinstance(want, int):
            if got != want:
                raise ValidationError(
                    f"contract on {name}: axis {axis} must have extent "
                    f"{want}, got {got}"
                )
        else:
            bound = symbols.setdefault(want, int(got))
            if bound != got:
                raise ValidationError(
                    f"contract on {name}: axis {axis} ({want}) must match "
                    f"extent {bound} bound earlier, got {got}"
                )


def _check_dtype(value: Any, declared: str, name: str) -> None:
    dtype = getattr(value, "dtype", None)
    kind = getattr(dtype, "kind", None)
    accepted = _DTYPE_KINDS.get(declared)
    if accepted is None or kind is None:
        return
    if kind not in accepted:
        raise ValidationError(
            f"contract on {name}: expected dtype kind {declared!r}, "
            f"got dtype {dtype!r}"
        )


def _check_simplex(value: Any, name: str) -> None:
    import numpy

    array = numpy.asarray(value, dtype=float)
    if array.size and float(array.min()) < -PROBABILITY_TOLERANCE:
        raise ValidationError(
            f"contract on {name}: simplex vector has a negative entry "
            f"({float(array.min())!r})"
        )
    total = float(array.sum())
    if abs(total - 1.0) > 1e-6:
        raise ValidationError(
            f"contract on {name}: simplex vector must sum to 1, got {total!r}"
        )


def _check_nonnegative_array(value: Any, name: str) -> None:
    import numpy

    array = numpy.asarray(value, dtype=float)
    if array.size and float(array.min()) < 0:
        raise ValidationError(
            f"contract on {name}: expected non-negative entries, found "
            f"{float(array.min())!r}"
        )


def _enforce_one(
    value: Any,
    name: str,
    spec: Mapping[str, Any],
    symbols: dict[str, int],
) -> None:
    shape = spec.get("shape")
    if shape is not None:
        _check_shape(value, shape, name, symbols)
    dtype = spec.get("dtype")
    if dtype is not None:
        _check_dtype(value, dtype, name)
    if spec.get("simplex"):
        _check_simplex(value, name)
    if spec.get("nonnegative"):
        _check_nonnegative_array(value, name)


def enforce_contract(
    func: Callable[..., Any],
    spec: Mapping[str, Any],
    args: tuple[Any, ...],
    kwargs: Mapping[str, Any],
    result: Any = None,
    *,
    check_result: bool = False,
) -> None:
    """Check *spec* against a call (used by the ``contract`` wrapper and
    directly testable without toggling the environment switch)."""
    label = getattr(func, "__qualname__", getattr(func, "__name__", "callable"))
    symbols: dict[str, int] = {}
    if not check_result:
        bound = inspect.signature(func).bind(*args, **kwargs)
        bound.apply_defaults()
        for parameter, parameter_spec in spec.get("params", {}).items():
            if parameter in bound.arguments:
                _enforce_one(
                    bound.arguments[parameter],
                    f"{label}({parameter})",
                    parameter_spec,
                    symbols,
                )
        return
    returns = spec.get("returns")
    if returns is None:
        return
    if isinstance(returns, Sequence) and not isinstance(returns, Mapping):
        values = result if isinstance(result, tuple) else (result,)
        for position, item_spec in enumerate(returns):
            if position < len(values):
                _enforce_one(
                    values[position],
                    f"{label}(return[{position}])",
                    item_spec,
                    symbols,
                )
    else:
        _enforce_one(result, f"{label}(return)", returns, symbols)


def contract(
    *,
    shapes: Mapping[str, Sequence[int | str]] | None = None,
    dtypes: Mapping[str, str] | None = None,
    simplex: Sequence[str] = (),
    nonnegative: Sequence[str] = (),
    returns: Mapping[str, Any] | Sequence[Mapping[str, Any]] | None = None,
) -> Callable[[_F], _F]:
    """Declare array preconditions on a kernel or metric builder.

    The declaration is attached to the function as ``__contract__`` and
    checked *statically* at resolved call sites by ``repro lint
    --dataflow`` (rules R200 and R202).  At runtime the checks only run
    when ``REPRO_DEBUG_CONTRACTS=1``, raising :class:`ValidationError`
    on violation — production call paths pay a single dict lookup.

    ``shapes`` maps parameter names to shape tuples whose axes are
    concrete extents or symbols (``("s", "L")``); a symbol must bind the
    same extent everywhere it appears, across parameters and returns.
    ``dtypes`` maps parameters to coarse kinds (``"float"`` accepts any
    numeric dtype, ``"int"`` integers only).  ``simplex`` and
    ``nonnegative`` list parameters carrying those invariants.
    ``returns`` is a spec mapping (``{"shape": ..., "dtype": ...,
    "simplex": True}``) or a sequence of such mappings for tuple
    returns.
    """
    params: dict[str, dict[str, Any]] = {}
    for name, shape in (shapes or {}).items():
        params.setdefault(name, {})["shape"] = tuple(shape)
    for name, dtype in (dtypes or {}).items():
        params.setdefault(name, {})["dtype"] = dtype
    for name in simplex:
        params.setdefault(name, {})["simplex"] = True
    for name in nonnegative:
        params.setdefault(name, {})["nonnegative"] = True
    spec: dict[str, Any] = {"params": params, "returns": returns}

    def decorate(func: _F) -> _F:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if _contracts_enabled():
                enforce_contract(func, spec, args, kwargs)
                result = func(*args, **kwargs)
                enforce_contract(
                    func, spec, args, kwargs, result, check_result=True
                )
                return result
            return func(*args, **kwargs)

        wrapper.__contract__ = spec  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate


#: The effect vocabulary understood by the ``repro lint --effects`` tier.
#: ``"pure"`` declares the empty effect set and cannot be combined with
#: other kinds.  See ``docs/static_analysis.md`` for what each kind means.
EFFECT_KINDS = frozenset(
    {
        "pure",
        "reads-global",
        "writes-global",
        "writes-metrics",
        "ambient-rng",
        "io",
        "spawns",
    }
)


def effects(*kinds: str) -> Callable[[_F], _F]:
    """Declare a function's side-effect set for the effects linter.

    The declaration is attached as ``__effects__`` (a frozenset of kind
    strings; ``effects("pure")`` attaches the empty set) and checked
    *statically* against the inferred effect set by ``repro lint
    --effects`` (rules R400/R401).  Functions whose declared-and-verified
    effects are limited to ``reads-global`` / ``writes-metrics`` appear
    as parallel-safe in the emitted certificate, which is what
    :func:`repro.parallel.parallel_map` gates process fan-out on.

    Unlike :func:`contract`, no wrapper is installed: the function object
    is returned unchanged (so it stays picklable for process pools) and
    the declaration costs nothing at call time.
    """
    declared = frozenset(kinds)
    unknown = declared - EFFECT_KINDS
    if unknown:
        raise ValidationError(
            f"unknown effect kind(s) {sorted(unknown)!r}; "
            f"known kinds: {sorted(EFFECT_KINDS)}"
        )
    if not declared:
        raise ValidationError(
            "effects() needs at least one kind; use effects('pure') to "
            "declare the empty effect set"
        )
    if "pure" in declared and len(declared) > 1:
        raise ValidationError(
            "effects('pure') cannot be combined with other effect kinds"
        )

    def decorate(func: _F) -> _F:
        func.__effects__ = (  # type: ignore[attr-defined]
            frozenset() if declared == {"pure"} else declared
        )
        return func

    return decorate


def exception_name_problems(name: Any) -> tuple[str, ...]:
    """Syntax-check one :func:`raises` entry; returns problem messages.

    An entry must be a bare exception *class name* (a Python
    identifier, conventionally CapWords like ``"InfeasibleError"``) —
    not a dotted path and not a class object, so the declaration can be
    read off the AST by the static tier without import machinery.  An
    empty tuple means the entry is well-formed.
    """
    if not isinstance(name, str):
        return (f"exception names must be strings, got {name!r}",)
    if not name.isidentifier():
        return (
            f"exception name {name!r} must be a bare class name "
            "(a Python identifier, no dots)",
        )
    if not name[:1].isupper():
        return (
            f"exception name {name!r} must be CapWords "
            "(a class name, not an instance)",
        )
    return ()


def raises(*names: str, transient: Sequence[str] = ()) -> Callable[[_F], _F]:
    """Declare a function's escaping-exception contract for the linter.

    *names* are the exception class names the function may let escape
    (e.g. ``@raises("InfeasibleError", "ValidationError")``); the
    keyword-only ``transient`` tuple marks the subset that is safe to
    retry (e.g. ``transient=("SolverError",)`` for solver-level
    breakdowns that a fresh attempt can clear).  Transient names are
    implicitly part of the escape set and need not be repeated
    positionally.  ``@raises()`` declares the empty escape set.

    The declaration is attached as ``__raises__`` / ``__raises_transient__``
    and checked *statically* against the interprocedurally inferred
    escape set by ``repro lint --errors`` (rule R600); validated entry
    points are published in the ``repro-error-contract`` certificate
    that :func:`repro.resilience.retrying` gates retries on.  Like
    :func:`effects`, no wrapper is installed: the
    function object is returned unchanged (so it stays picklable for
    process pools) and the declaration costs nothing at call time.
    """
    problems: list[str] = []
    for entry in (*names, *transient):
        problems.extend(exception_name_problems(entry))
    if problems:
        raise ValidationError(
            "malformed raises declaration: " + "; ".join(problems)
        )
    declared = frozenset(names) | frozenset(transient)

    def decorate(func: _F) -> _F:
        func.__raises__ = declared  # type: ignore[attr-defined]
        func.__raises_transient__ = frozenset(  # type: ignore[attr-defined]
            transient
        )
        return func

    return decorate


def unique_items(items: Iterable[Any], name: str) -> list[Any]:
    """Return *items* as a list, raising if any item appears more than once."""
    seen: set[Any] = set()
    result: list[Any] = []
    for item in items:
        if item in seen:
            raise ValidationError(f"{name} contains duplicate item {item!r}")
        seen.add(item)
        result.append(item)
    return result

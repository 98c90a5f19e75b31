"""Plugin registries: pluggable topologies, workloads, schemes and placements.

The paper's evaluation is a cross-product of (topology, workload, transport
scheme); this module is the composition layer that makes every axis of that
cross-product a *named*, *registered* plugin instead of a hard-wired import.
Seven registries cover the axes (plus how the product is executed, how the
world changes mid-run, and how stored results are analysed):

* :data:`TOPOLOGIES` — fabric builders (``tree``, ``fattree``, ``vl2``,
  ``leafspine``), each paired with its config dataclass;
* :data:`WORKLOADS` — trace generators (``video``, ``datacenter``,
  ``pareto-poisson``);
* :data:`SCHEMES` — (placement, transport) scheme specs (``scda``,
  ``rand-tcp``, ``ideal``, ``vlb``, ``hedera`` and the ablations);
* :data:`PLACEMENTS` — server-selection policies (``random``,
  ``round-robin``, ``least-loaded``, ``scda``);
* :data:`EXECUTORS` — execution backends for planned job lists (``serial``,
  ``process``, ``cluster``; see :mod:`repro.exec`);
* :data:`DYNAMICS` — timed world-mutation events (``link-failure``,
  ``link-recovery``, ``capacity-degradation``, ``block-server-churn``,
  ``workload-surge``; see :mod:`repro.dynamics`);
* :data:`ANALYSES` — store-driven analyses (``scheme-comparison``,
  ``sweep-summary``, ``fct-cdf``, ``availability``; see
  :mod:`repro.analysis.store_analyses`), each a pure function from a
  :class:`~repro.exec.store.ResultStore` query to a serialisable artifact.

Built-in entries are registered by the per-domain catalog modules
(:mod:`repro.network.catalog`, :mod:`repro.workloads.catalog`,
:mod:`repro.baselines.catalog`, :mod:`repro.cluster.catalog`,
:mod:`repro.dynamics.catalog`, :mod:`repro.analysis.catalog`), which are
imported lazily the first time a registry is read.  Third-party code extends
the system with one call and no runner patch::

    from repro.registry import TOPOLOGIES

    @TOPOLOGIES.register("my-fabric", config_cls=MyFabricConfig)
    def build_my_fabric(config=None):
        ...

after which ``ScenarioSpec(topology="my-fabric", ...)``, the sweeps and the
CLI (``--topology my-fabric``) all pick it up.  See ``docs/SCENARIOS.md``.
"""

from __future__ import annotations

import difflib
import importlib
from dataclasses import dataclass, fields as dataclass_fields, is_dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple


class RegistryError(LookupError):
    """Unknown name, duplicate registration, or invalid plugin parameters."""


def _normalise(name: str) -> str:
    """Canonical registry key: case-insensitive, ``_`` and ``-`` equivalent."""
    return str(name).strip().lower().replace("_", "-")


@dataclass(frozen=True)
class RegistryEntry:
    """One registered plugin: a builder plus its config dataclass."""

    name: str
    builder: Callable[..., Any]
    config_cls: Optional[type] = None
    description: str = ""
    aliases: Tuple[str, ...] = ()

    def make_config(self, params: Optional[Mapping[str, Any]] = None) -> Any:
        """Instantiate this entry's config dataclass from plain parameters.

        Returns ``None`` when the entry has no config class and no parameters
        were given; raises :class:`RegistryError` (listing the valid field
        names) when ``params`` contains keys the config does not accept.
        """
        params = dict(params or {})
        if self.config_cls is None:
            if params:
                raise RegistryError(
                    f"{self.name!r} takes no parameters but got {sorted(params)}"
                )
            return None
        if is_dataclass(self.config_cls):
            valid = {f.name for f in dataclass_fields(self.config_cls)}
            unknown = sorted(set(params) - valid)
            if unknown:
                raise RegistryError(
                    f"unknown parameter(s) {unknown} for {self.name!r} "
                    f"({self.config_cls.__name__}); valid fields: {sorted(valid)}"
                )
        try:
            return self.config_cls(**params)
        except (TypeError, ValueError) as exc:
            raise RegistryError(
                f"invalid parameters for {self.name!r} "
                f"({self.config_cls.__name__}): {exc}"
            ) from exc


class Registry:
    """A named collection of plugins with helpful unknown-key errors.

    Parameters
    ----------
    kind:
        Human-readable singular noun used in error messages ("topology",
        "workload", ...).
    bootstrap:
        Optional callable importing the built-in catalog modules; invoked at
        most once, lazily, before the first *read* operation so that built-in
        entries are always visible without import-order gymnastics.
    """

    def __init__(self, kind: str, bootstrap: Optional[Callable[[], None]] = None) -> None:
        self.kind = kind
        self._entries: Dict[str, RegistryEntry] = {}
        self._aliases: Dict[str, str] = {}
        self._bootstrap = bootstrap
        self._bootstrapped = bootstrap is None

    # -- registration ------------------------------------------------------------------
    def register(
        self,
        name: str,
        builder: Optional[Callable[..., Any]] = None,
        *,
        config_cls: Optional[type] = None,
        description: str = "",
        aliases: Tuple[str, ...] = (),
        replace: bool = False,
    ):
        """Register ``builder`` under ``name``; usable as a decorator.

        Raises :class:`RegistryError` on duplicate names or aliases unless
        ``replace=True`` is passed explicitly.
        """
        if builder is None:

            def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
                self.register(
                    name,
                    fn,
                    config_cls=config_cls,
                    description=description,
                    aliases=aliases,
                    replace=replace,
                )
                return fn

            return decorator

        # Load the built-ins first so that registrations at plain import time
        # see them: the duplicate check is meaningful and ``replace=True``
        # actually overrides the built-in entry.  (Re-entrant registrations
        # from the catalogs themselves skip this: the flag is already set.)
        self._ensure_bootstrapped()

        key = _normalise(name)
        taken = key in self._entries or key in self._aliases
        if taken and not replace:
            raise RegistryError(
                f"{self.kind} {name!r} is already registered; "
                f"pass replace=True to override it"
            )
        if replace and key in self._aliases:
            # Replacing via an alias would leave the original entry dangling.
            raise RegistryError(
                f"{name!r} is an alias of {self._aliases[key]!r}; "
                f"replace the canonical {self.kind} name instead"
            )
        entry = RegistryEntry(
            name=key,
            builder=builder,
            config_cls=config_cls,
            description=description,
            aliases=tuple(_normalise(a) for a in aliases),
        )
        # Validate the aliases *before* mutating anything, so a failed
        # registration leaves the registry untouched.
        for alias in entry.aliases:
            owner = self._aliases.get(alias)
            if alias in self._entries or (owner is not None and owner != key):
                raise RegistryError(
                    f"{self.kind} alias {alias!r} collides with an existing registration"
                )
        if replace and key in self._entries:
            # Drop the replaced entry's aliases; the new entry declares its own.
            for alias in self._entries[key].aliases:
                self._aliases.pop(alias, None)
        self._entries[key] = entry
        for alias in entry.aliases:
            self._aliases[alias] = key
        return builder

    # -- lookup ------------------------------------------------------------------------
    def _ensure_bootstrapped(self) -> None:
        if not self._bootstrapped:
            self._bootstrapped = True  # set first: the catalogs may read back
            assert self._bootstrap is not None
            try:
                self._bootstrap()
            except BaseException:
                # Don't latch a failed bootstrap: the next touch retries the
                # catalog imports, so callers keep seeing the root-cause
                # import error instead of an inexplicably empty registry.
                self._bootstrapped = False
                raise

    def get(self, name: str) -> RegistryEntry:
        """The entry registered under ``name`` (or one of its aliases)."""
        self._ensure_bootstrapped()
        key = _normalise(name)
        key = self._aliases.get(key, key)
        entry = self._entries.get(key)
        if entry is None:
            available = ", ".join(self.names()) or "<none registered>"
            close = difflib.get_close_matches(key, list(self._entries), n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise RegistryError(
                f"unknown {self.kind} {name!r} (available: {available}){hint}"
            )
        return entry

    def build(self, name: str, /, *args: Any, **kwargs: Any) -> Any:
        """Look up ``name`` and call its builder with the given arguments."""
        return self.get(name).builder(*args, **kwargs)

    def names(self) -> List[str]:
        """Sorted canonical names of every registered plugin."""
        self._ensure_bootstrapped()
        return sorted(self._entries)

    def entries(self) -> List[RegistryEntry]:
        """Every entry, sorted by name."""
        self._ensure_bootstrapped()
        return [self._entries[k] for k in sorted(self._entries)]

    def __contains__(self, name: object) -> bool:
        self._ensure_bootstrapped()
        key = _normalise(str(name))
        return key in self._entries or key in self._aliases

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._ensure_bootstrapped()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, {self.names()!r})"


#: The modules that register every built-in entry, in import order.  The
#: process backend's forkserver preloads the same list (see
#: :mod:`repro.exec.executors`).
BUILTIN_PLUGIN_MODULES = (
    "repro.network.catalog",  # topologies
    "repro.workloads.catalog",  # workloads
    "repro.cluster.catalog",  # placements
    "repro.baselines.catalog",  # schemes
    "repro.exec.executors",  # executors
    "repro.exec.chaos",  # chaos wrapper executor
    "repro.exec.cluster",  # HTTP cluster executor
    "repro.dynamics.catalog",  # dynamics events
    "repro.analysis.catalog",  # analyses
)


def load_builtin_plugins() -> None:
    """Import the per-domain catalog modules, registering every built-in.

    Idempotent: each catalog module registers on first import only.  Called
    automatically the first time any of the registries is read.
    """
    for module in BUILTIN_PLUGIN_MODULES:
        importlib.import_module(module)


#: Fabric builders — ``tree``, ``fattree``, ``vl2``, ``leafspine``, ...
TOPOLOGIES = Registry("topology", bootstrap=load_builtin_plugins)

#: Workload generators — ``video``, ``datacenter``, ``pareto-poisson``, ...
WORKLOADS = Registry("workload", bootstrap=load_builtin_plugins)

#: Transport/placement scheme specs — ``scda``, ``rand-tcp``, ``ideal``,
#: ``vlb``, ``hedera`` and the ablation combinations.
SCHEMES = Registry("scheme", bootstrap=load_builtin_plugins)

#: Server-selection policies — ``random``, ``round-robin``, ``least-loaded``,
#: ``scda``.
PLACEMENTS = Registry("placement", bootstrap=load_builtin_plugins)

#: Execution backends for planned job lists — ``serial``, ``process``,
#: ``cluster`` and the ``chaos`` wrapper (see :mod:`repro.exec.executors`).
EXECUTORS = Registry("executor", bootstrap=load_builtin_plugins)

#: Timed world-mutation events scheduled by a
#: :class:`~repro.dynamics.DynamicsScript` — ``link-failure``,
#: ``link-recovery``, ``capacity-degradation``, ``block-server-churn``,
#: ``workload-surge`` (see :mod:`repro.dynamics.events`).
DYNAMICS = Registry("dynamics event", bootstrap=load_builtin_plugins)

#: Store-driven analyses — ``scheme-comparison``, ``sweep-summary``,
#: ``fct-cdf``, ``availability`` (see :mod:`repro.analysis.store_analyses`).
#: Each builder is a pure function ``analysis(store, **params) -> dict``
#: from a result-store query to a JSON-serialisable artifact.
ANALYSES = Registry("analysis", bootstrap=load_builtin_plugins)

#: The scheme registry doubles as the "transports" axis of the paper's
#: cross-product (each scheme names its transport model); kept under both
#: names so either reads naturally.
TRANSPORTS = SCHEMES

ALL_REGISTRIES: Tuple[Tuple[str, Registry], ...] = (
    ("topologies", TOPOLOGIES),
    ("workloads", WORKLOADS),
    ("schemes", SCHEMES),
    ("placements", PLACEMENTS),
    ("executors", EXECUTORS),
    ("dynamics", DYNAMICS),
    ("analyses", ANALYSES),
)

__all__ = [
    "Registry",
    "RegistryEntry",
    "RegistryError",
    "load_builtin_plugins",
    "TOPOLOGIES",
    "WORKLOADS",
    "SCHEMES",
    "TRANSPORTS",
    "PLACEMENTS",
    "EXECUTORS",
    "DYNAMICS",
    "ANALYSES",
    "ALL_REGISTRIES",
]

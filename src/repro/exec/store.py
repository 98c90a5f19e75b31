"""Resumable result store: append-only JSONL keyed by job content.

Each line of the store is one computed job::

    {"key": "<sha256>", "job": {...}, "result": {...}, "meta": {...}}

``result`` is the :meth:`~repro.metrics.comparison.SchemeResult.canonical_dict`
of the run — everything measured except the host-dependent wall clock, which
lives in ``meta`` together with the executor backend that produced the line.
Because jobs are content-addressed (see :class:`~repro.exec.job.ExperimentJob`)
and the canonical result of a job is deterministic, two stores produced by
different backends (or different machines of the same platform) for the same
job list are equal line-for-line after keying — which is what the CI smoke
test asserts.

Resume semantics: :func:`~repro.exec.executors.run_jobs` skips every job
whose key is already present, so re-running a sweep against the same store
recomputes nothing and only fills in missing points.  Appending the same key
twice is allowed (last write wins on load), so a crashed run can simply be
restarted against its own store.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.exec.job import ExperimentJob
from repro.metrics.comparison import SchemeResult


class ResultStoreError(ValueError):
    """The store file is corrupt in a way resume cannot safely ignore."""


@dataclass(frozen=True)
class StoredEntry:
    """One stored line, hydrated: the job, its result and the line meta.

    The query API (:meth:`ResultStore.query`) hands these out instead of raw
    dicts so analyses can reach typed views (``entry.job.spec.topology``,
    ``entry.result.mean_fct_s()``) without re-parsing anything.  The typed
    :attr:`job` is built on first use: its scenario spec validates against
    the registries, which a process reading a store written with plugins it
    never registered cannot satisfy.  Sorting, grouping and filtering by
    ensemble, replicate, scheme, tags and seed read the stored job dict.
    """

    key: str
    #: the job as stored (``ExperimentJob.to_dict`` output)
    job_data: Dict[str, Any]
    result: SchemeResult
    meta: Dict[str, Any]

    @property
    def job(self) -> ExperimentJob:
        """The typed job (built, and its spec validated, on first use)."""
        job = self.__dict__.get("_job")
        if job is None:
            job = ExperimentJob.from_dict(self.job_data)
            # Frozen dataclass: stash it without making it a field.
            object.__setattr__(self, "_job", job)
        return job

    @property
    def tags(self) -> Dict[str, Any]:
        """The job's presentation tags (ensemble, replicate, role, ...)."""
        return {
            name: value
            for name, value in self.job_data.get("tags", {}).items()
            if not str(name).startswith("__")
        }

    @property
    def scheme_name(self) -> str:
        """The job's scheme key (or inline scheme name)."""
        scheme = self.job_data["scheme"]
        if isinstance(scheme, str):
            return scheme
        return str(scheme.get("name", "<scheme>"))

    @property
    def seed(self) -> int:
        """The job's master seed."""
        seed = self.job_data.get("seed")
        if seed is None:
            seed = self.job_data["spec"].get("seed")
        return self.job.seed if seed is None else int(seed)

    @property
    def ensemble(self) -> str:
        """The ensemble label this entry belongs to.

        Jobs planned by :func:`~repro.exec.planner.plan_replications` carry
        an explicit ``ensemble`` tag; anything else (plain comparisons,
        sweep points) falls back to the scenario's name, so grouping by
        ensemble is total.
        """
        tags = self.tags
        if "ensemble" in tags:
            return str(tags["ensemble"])
        name = self.job_data["spec"].get("name")
        return str(self.job.spec.name if name is None else name)

    @property
    def replicate(self) -> int:
        """The replicate index within the ensemble (0 when untagged)."""
        return int(self.tags.get("replicate", 0))


class ResultStore:
    """JSONL-backed cache of computed :class:`ExperimentJob` results.

    Parameters
    ----------
    path:
        The JSONL file.  Created (with parents) on first write; a missing
        file reads as an empty store.
    fsync:
        Default durability of :meth:`put`: when true, every append is
        ``os.fsync`` ed before returning, so a checkpointed result survives
        not just a process crash but a machine crash.  Off by default — the
        syscall costs more than most jobs' serialisation — and overridable
        per call.
    """

    def __init__(self, path: Union[str, Path], fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self._index: Dict[str, Dict[str, Any]] = {}
        self._loaded = False
        #: hydrated, sorted entries — rebuilding dataclasses from every line
        #: is the dominant cost of analyses, so it happens once per store
        #: state (invalidated by :meth:`put` and :meth:`reload`)
        self._entries_cache: Optional[List[StoredEntry]] = None

    # -- loading -----------------------------------------------------------------------
    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        if not self.path.exists():
            return
        lines = self.path.read_text(encoding="utf-8").splitlines()
        last_content = max(
            (i for i, line in enumerate(lines) if line.strip()), default=-1
        )
        for line_no, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                key = entry["key"]
            except (ValueError, KeyError, TypeError) as exc:
                if line_no - 1 == last_content:
                    # A truncated *final* line is the signature of a run
                    # killed mid-append (SIGKILL, ENOSPC); dropping it keeps
                    # the documented crash-resume semantics — the job it held
                    # is simply recomputed.
                    warnings.warn(
                        f"{self.path}:{line_no}: dropping truncated final "
                        f"result-store line ({exc}); the job will be recomputed",
                        stacklevel=3,
                    )
                    continue
                # Corruption *before* the end cannot come from an append
                # crash and may hide arbitrary data loss: refuse to guess.
                raise ResultStoreError(
                    f"{self.path}:{line_no}: corrupt result-store line ({exc})"
                ) from exc
            self._index[key] = entry

    def reload(self) -> None:
        """Drop the in-memory index and re-read the file on next access."""
        self._index.clear()
        self._loaded = False
        self._entries_cache = None

    # -- querying ----------------------------------------------------------------------
    def __contains__(self, key: object) -> bool:
        self._ensure_loaded()
        if isinstance(key, ExperimentJob):
            key = key.key
        return key in self._index

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._index)

    def keys(self) -> Iterator[str]:
        """The stored job keys."""
        self._ensure_loaded()
        return iter(list(self._index))

    def get(self, job_or_key: Union[str, ExperimentJob]) -> Optional[SchemeResult]:
        """The cached result for a job (or raw key), or ``None`` if absent."""
        self._ensure_loaded()
        key = job_or_key.key if isinstance(job_or_key, ExperimentJob) else str(job_or_key)
        entry = self._index.get(key)
        if entry is None:
            return None
        return SchemeResult.from_dict(entry["result"])

    def entry(self, key: str) -> Optional[Dict[str, Any]]:
        """The raw stored line (job + result + meta) for ``key``."""
        self._ensure_loaded()
        return self._index.get(key)

    def _hydrate(self, entry: Dict[str, Any]) -> StoredEntry:
        return StoredEntry(
            key=str(entry["key"]),
            job_data=entry["job"],
            result=SchemeResult.from_dict(entry["result"]),
            meta=dict(entry.get("meta", {})),
        )

    def entries_sorted(self) -> List[StoredEntry]:
        """Every stored line, hydrated, in a deterministic order.

        Sorted by ``(ensemble, replicate, scheme, key)`` — *not* file order,
        which for pooled backends is completion order and therefore differs
        between a serial and a process store of the same jobs.  Any two
        stores holding the same results enumerate identically here, which is
        what makes analyses reading through this API backend-independent.
        """
        self._ensure_loaded()
        if self._entries_cache is None:
            hydrated = [self._hydrate(entry) for entry in self._index.values()]
            self._entries_cache = sorted(
                hydrated, key=lambda e: (e.ensemble, e.replicate, e.scheme_name, e.key)
            )
        return list(self._entries_cache)

    def query(
        self,
        scheme: Optional[str] = None,
        ensemble: Optional[str] = None,
        tags: Optional[Mapping[str, Any]] = None,
        spec_fields: Optional[Mapping[str, Any]] = None,
        predicate: Optional[Callable[[StoredEntry], bool]] = None,
    ) -> List[StoredEntry]:
        """Filter the stored entries; all criteria are ANDed.

        Parameters
        ----------
        scheme:
            Match the job's scheme key/name (``"scda"``).
        ensemble:
            Match the ensemble label (see :attr:`StoredEntry.ensemble`).
        tags:
            Subset match on the job's tags (``{"role": "candidate"}``).
        spec_fields:
            Subset match on :class:`~repro.experiments.spec.ScenarioSpec`
            fields by name (``{"topology": "tree", "seed": 1}``); unknown
            field names raise :class:`ResultStoreError` rather than
            silently matching nothing.
        predicate:
            Arbitrary final filter over the hydrated entries.

        Returns entries in the deterministic :meth:`entries_sorted` order.
        """
        selected = self.entries_sorted()
        if scheme is not None:
            selected = [e for e in selected if e.scheme_name == scheme]
        if ensemble is not None:
            selected = [e for e in selected if e.ensemble == str(ensemble)]
        if tags:
            selected = [
                e
                for e in selected
                if all(e.tags.get(k) == v for k, v in tags.items())
            ]
        if spec_fields:
            from dataclasses import fields as dataclass_fields

            from repro.experiments.spec import ScenarioSpec

            valid = {f.name for f in dataclass_fields(ScenarioSpec)}
            unknown = sorted(set(spec_fields) - valid)
            if unknown:
                raise ResultStoreError(
                    f"unknown ScenarioSpec field(s) {unknown} in store query; "
                    f"valid fields: {sorted(valid)}"
                )
            selected = [
                e
                for e in selected
                if all(
                    getattr(e.job.spec, name) == value
                    for name, value in spec_fields.items()
                )
            ]
        if predicate is not None:
            selected = [e for e in selected if predicate(e)]
        return selected

    def group_by_ensemble(self, **query_kwargs: Any) -> Dict[str, List[StoredEntry]]:
        """Stored entries grouped by ensemble label.

        Accepts every :meth:`query` criterion; groups preserve the
        deterministic entry order, and group insertion order follows the
        sorted ensemble labels.
        """
        groups: Dict[str, List[StoredEntry]] = {}
        for entry in self.query(**query_kwargs):
            groups.setdefault(entry.ensemble, []).append(entry)
        return groups

    def schemes(self) -> List[str]:
        """The distinct scheme names present in the store, sorted."""
        return sorted({entry.scheme_name for entry in self.entries_sorted()})

    def results_by_key(self) -> Dict[str, Dict[str, Any]]:
        """``key -> canonical result dict`` for every stored job.

        This is the comparison surface for "two stores hold the same
        numbers": it excludes the per-line ``meta`` (wall clock, backend), so
        a serial store and a process-executor store of the same sweep compare
        equal.
        """
        self._ensure_loaded()
        return {key: entry["result"] for key, entry in self._index.items()}

    # -- writing -----------------------------------------------------------------------
    #: keys a pre-encoded result dict must carry to be storable (the
    #: canonical shape minus the wall clock, which moves to ``meta``)
    _REQUIRED_RESULT_KEYS = frozenset(
        {"scheme", "records", "throughput", "availability", "sla_violations", "extras"}
    )

    def put(
        self,
        job: ExperimentJob,
        result: Union[SchemeResult, Mapping[str, Any]],
        meta: Optional[Mapping[str, Any]] = None,
        fsync: Optional[bool] = None,
    ) -> str:
        """Append one computed result; returns the job key.

        ``result`` is a :class:`SchemeResult` or its already-encoded
        ``to_dict``/``canonical_dict`` form.  Accepting the dict directly
        matters on the hot path: executor workers already encoded the result
        once to cross their boundary, and re-hydrating just to re-encode for
        the store would serialise every result a second time.  A dict is
        validated structurally (the canonical key set) — callers on the
        dispatch path have already proven it hydrates — and its
        ``wall_clock_s``, when present, moves into ``meta`` exactly as the
        typed path does, so both paths write byte-identical lines.

        The line goes out as one ``write()`` system call on an unbuffered
        ``O_APPEND`` descriptor, so two processes appending to the same
        store never interleave *within* each other's lines.  The remaining
        failure mode — a single write cut short by ``ENOSPC`` or a kill —
        leaves a truncated *final* line, which the loader drops and
        recomputes (see :meth:`_ensure_loaded`).  With ``fsync`` (per call,
        defaulting to the store's constructor setting) the append is flushed
        to stable storage before returning.

        Re-putting a key that is already stored is allowed only when the
        canonical result is identical (a restarted run recomputing a line it
        already has).  A *different* result for the same content key means
        something that must never happen — the same job computed different
        numbers — so it raises :class:`ResultStoreError` instead of silently
        letting last-write-wins mask the nondeterminism.
        """
        self._ensure_loaded()
        key = job.key
        if isinstance(result, SchemeResult):
            canonical = result.canonical_dict()
            wall_clock_s = float(result.wall_clock_s)
        else:
            canonical = {k: v for k, v in result.items() if k != "wall_clock_s"}
            missing = self._REQUIRED_RESULT_KEYS - set(canonical)
            if missing:
                raise ResultStoreError(
                    f"pre-encoded result for {job.label()} is missing "
                    f"{sorted(missing)}; not a canonical result dict"
                )
            wall_clock_s = float(result.get("wall_clock_s", 0.0))
        existing = self._index.get(key)
        if existing is not None and existing["result"] != canonical:
            raise ResultStoreError(
                f"refusing to overwrite key {key[:12]}… ({job.label()}): the new "
                f"result differs from the stored one — the job is supposed to be "
                f"deterministic, so this indicates nondeterminism or store reuse "
                f"across incompatible code versions"
            )
        entry = {
            "key": key,
            "job": job.to_dict(),
            "result": canonical,
            "meta": dict(meta or {}),
        }
        entry["meta"].setdefault("wall_clock_s", wall_clock_s)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        with self.path.open("ab", buffering=0) as fh:
            fh.write((line + "\n").encode("utf-8"))
            if self.fsync if fsync is None else fsync:
                os.fsync(fh.fileno())
        self._index[key] = entry
        self._entries_cache = None
        return key

    # -- merging -----------------------------------------------------------------------
    def merge(self, shards: Iterable[Union[str, Path, "ResultStore"]]) -> int:
        """Union shard stores into this one; returns the number of new keys.

        This is the union-of-shards read of the cluster backend: each worker
        appends results to its own write-once JSONL shard, and the merged
        view is simply the union keyed by job content.  Because keys are
        content addresses and jobs are deterministic, a key appearing in
        several shards (a retried job whose first attempt did land, a job
        resubmitted after a coordinator restart) must carry the identical
        canonical result everywhere — duplicates dedup to free cache hits.

        A *conflicting* duplicate — same key, different result — means two
        hosts computed different numbers for the same job, i.e. cross-host
        nondeterminism, and raises :class:`ResultStoreError`.  The whole
        union is staged and validated before anything is written, so a
        conflict in the last shard leaves both the file and the in-memory
        index untouched.

        The commit reuses :meth:`compact`'s atomic tmp-file + ``os.replace``
        rewrite, so a crash mid-merge never leaves a half-merged file.
        """
        self._ensure_loaded()
        staged: Dict[str, Dict[str, Any]] = {}
        origin: Dict[str, str] = {}
        for shard in shards:
            source = shard if isinstance(shard, ResultStore) else ResultStore(shard)
            source._ensure_loaded()
            label = str(source.path)
            for key, entry in source._index.items():
                previous = staged.get(key) or self._index.get(key)
                if previous is not None and previous["result"] != entry["result"]:
                    raise ResultStoreError(
                        f"shard merge conflict on key {key[:12]}…: {label} holds a "
                        f"different result than "
                        f"{origin.get(key, str(self.path))} — the job is supposed "
                        f"to be deterministic, so this indicates cross-host "
                        f"nondeterminism or shard reuse across incompatible "
                        f"code versions"
                    )
                if key not in self._index and key not in staged:
                    staged[key] = entry
                    origin[key] = label
        if not staged:
            return 0
        self._index.update(staged)
        self._entries_cache = None
        self.compact()
        return len(staged)

    @classmethod
    def merged(
        cls,
        shards: Iterable[Union[str, Path, "ResultStore"]],
        into: Union[str, Path],
        fsync: bool = False,
    ) -> "ResultStore":
        """Build (or extend) the store at ``into`` from the union of shards.

        Standalone entry point behind ``repro store merge``: the target may
        already exist (its entries participate in conflict validation) or be
        a fresh path.  Returns the merged store.
        """
        store = cls(into, fsync=fsync)
        store.merge(shards)
        return store

    # -- maintenance -------------------------------------------------------------------
    def compact(self) -> int:
        """Rewrite the file with one line per key (last write wins).

        Returns the number of surviving entries.  Useful after crashed or
        repeated runs appended duplicate keys.  The rewrite is crash-safe:
        the full new content goes to a temporary sibling file which is then
        atomically ``os.replace`` d into place, so a failure at *any* point
        — mid-write, or in the replace itself — leaves the original JSONL
        byte-identical (and the temporary file cleaned up) rather than
        truncated or half-written.
        """
        self._ensure_loaded()
        lines = [
            json.dumps(self._index[key], sort_keys=True, separators=(",", ":"))
            for key in sorted(self._index)
        ]
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".compact.tmp")
        try:
            tmp.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
            os.replace(tmp, self.path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return len(self._index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.path)!r}, {len(self)} entries)"

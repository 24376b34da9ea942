"""The keyed artifact store behind the pipeline runner and its builders.

Every expensive object an experiment produces — datasets, the simulated
Freebase snapshot, audits, trained scorers, evaluation results — lives in one
:class:`ArtifactStore` under a structured key:

========================== ==================================================
key                        artifact
========================== ==================================================
``("dataset", name)``      :class:`repro.kg.dataset.Dataset`
``("snapshot",)``          :class:`repro.kg.freebase.FreebaseSnapshot`
``("redundancy", name)``   :class:`repro.core.redundancy.RedundancyReport`
``("leakage", name)``      :class:`repro.core.leakage.LeakageReport`
``("categories", name)``   ``Dict[int, str]`` relation categories
``("scorer", m, d)``       trained model / rule / baseline scorer
``("evaluation", m, d)``   :class:`repro.eval.ranking.EvaluationResult`
``("ingest_report", name)``:class:`repro.kg.streaming.IngestReport`
``("dataset_snapshot", d, v)`` delta-advanced dataset ``d`` at snapshot ``v``
``("delta_log", name)``    verified delta-log summary applied to ``name``
``("telemetry", "trace")`` span records of the last traced ``Runner.run``
========================== ==================================================

A store is stamped with the :meth:`~repro.api.spec.ExperimentSpec.fingerprint`
of the spec it was built for; a :class:`~repro.api.pipeline.Runner` refuses to
reuse a store stamped for a different spec, so a changed spec can never serve
stale artifacts.

:class:`DiskArtifactStore` extends the in-memory store with a durable,
content-addressed cache shared across processes:

* entries live under ``<cache_dir>/<fingerprint>/<key>/`` with a per-entry
  ``entry.json`` manifest recording the key, the payload format and its
  sha256, so a reader can always tell a complete entry from a torn one;
* writes are crash-safe — the payload is serialized into a sibling
  ``*.tmp-*`` directory and atomically renamed into place, so a killed
  writer leaves at worst an ignorable temp directory, never a half entry;
* advisory ``fcntl`` file locks serialize builders of the same key, so
  concurrent runs sharing one cache directory share work instead of racing;
* :meth:`drop_dataset` stamps a per-dataset *generation* into
  ``generations.json``; entries written against an older generation are
  evicted on sight, which invalidates entries written by other processes
  without scanning them;
* trained embedding models are stored in the
  :class:`repro.serve.artifact.ModelArtifact` format and reload as
  zero-copy read-only mmaps (rule/baseline scorers fall back to pickle);
* any entry whose hashes disagree with its manifest is moved to
  ``.quarantine/`` and rebuilt — corrupt data is never served.

Cache traffic is observable through the telemetry facade as
``cache.artifacts.{hit,miss,write,evict}`` counters (mirrored in
:attr:`DiskArtifactStore.stats`).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import re
import shutil
import threading
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

try:  # pragma: no cover - fcntl is POSIX-only; locking degrades to no-op
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

from ..telemetry import get_telemetry

ArtifactKey = Tuple[str, ...]

#: Name of the per-entry manifest file inside each cache entry directory.
ENTRY_MANIFEST = "entry.json"

#: Artifact kinds that never persist to disk (per-run observability state).
EPHEMERAL_KINDS = frozenset({"telemetry"})

#: Marker prefix of in-flight (or abandoned) entry write directories.
_TMP_PREFIX = ".tmp-"

_MISSING = object()

_UNSAFE_CHARS = re.compile(r"[^A-Za-z0-9._-]")


def artifact_key_string(key: ArtifactKey) -> str:
    """Human-readable rendering of a key (used by run reports and logs)."""
    return "/".join(str(part) for part in key)


def default_cache_dir() -> Path:
    """The default on-disk cache root (``REPRO_CACHE_DIR`` overrides it)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro-kgc"


def _dataset_of(key: ArtifactKey) -> Optional[str]:
    """The dataset a key is derived from (``None`` for dataset-independent)."""
    kind = key[0]
    if kind in ("dataset", "redundancy", "leakage", "categories", "ingest_report"):
        return key[1]
    if kind in ("scorer", "evaluation"):
        return key[2]
    # ``dataset_snapshot`` / ``delta_log`` are deliberately *not* scoped to
    # their dataset: a snapshot's version component fingerprints the applied
    # log prefix, so the key itself changes whenever the content would — a
    # generation bump (which installing a new snapshot causes) must not
    # evict the still-valid historical states.
    return None


class ArtifactStore:
    """A keyed cache of experiment artifacts, stamped with a spec fingerprint."""

    def __init__(self, fingerprint: str = "") -> None:
        #: Fingerprint of the spec this store's artifacts belong to (empty
        #: until a ``Runner`` adopts and stamps the store).
        self.fingerprint = fingerprint
        self._artifacts: Dict[ArtifactKey, Any] = {}

    # -- mapping surface ---------------------------------------------------------
    def __contains__(self, key: ArtifactKey) -> bool:
        return tuple(key) in self._artifacts

    def __len__(self) -> int:
        return len(self._artifacts)

    def __iter__(self) -> Iterator[ArtifactKey]:
        return iter(self._artifacts)

    def get(self, key: ArtifactKey, default: Any = None) -> Any:
        return self._artifacts.get(tuple(key), default)

    def __getitem__(self, key: ArtifactKey) -> Any:
        return self._artifacts[tuple(key)]

    def put(self, key: ArtifactKey, artifact: Any) -> Any:
        self._artifacts[tuple(key)] = artifact
        return artifact

    def ensure(self, key: ArtifactKey, build: Callable[[], Any]) -> Any:
        """The artifact under ``key``, building and caching it on first use."""
        key = tuple(key)
        if key not in self._artifacts:
            self._artifacts[key] = build()
        return self._artifacts[key]

    def keys(self, kind: Optional[str] = None) -> List[ArtifactKey]:
        """All keys, optionally restricted to one artifact kind."""
        return [key for key in self._artifacts if kind is None or key[0] == kind]

    @contextlib.contextmanager
    def lock(self, key: ArtifactKey) -> Iterator[None]:
        """Serialize builders of ``key`` (no-op for the in-memory store)."""
        yield

    # -- invalidation ------------------------------------------------------------
    def drop(self, predicate: Callable[[ArtifactKey], bool]) -> List[ArtifactKey]:
        """Remove every artifact whose key satisfies ``predicate``.

        Dropped keys are returned in deterministic sorted order, independent
        of insertion history.
        """
        dropped = [key for key in self._artifacts if predicate(key)]
        for key in dropped:
            del self._artifacts[key]
        return sorted(dropped)

    def drop_dataset(self, name: str) -> List[ArtifactKey]:
        """Drop a dataset and everything derived from it.

        Re-ingesting under an existing name (or shadowing a built-in key) must
        not serve analyses, scorers or evaluations computed for the old data.
        """
        def derived(key: ArtifactKey) -> bool:
            return _dataset_of(key) == name

        return self.drop(derived)


class DiskArtifactStore(ArtifactStore):
    """An :class:`ArtifactStore` backed by a shared on-disk cache.

    Layout, one directory per entry under the spec fingerprint::

        <cache_dir>/<fingerprint>/
            generations.json              # per-dataset invalidation stamps
            .locks/<entry>.lock           # advisory fcntl lock files
            .quarantine/<entry>-<token>/  # evicted corrupt entries
            <entry>/entry.json            # key, format, sha256, generation
            <entry>/payload.pkl           # pickled artifact, or
            <entry>/model/                # ModelArtifact (mmap-loadable)

    The in-memory dict of the base class acts as a per-process read cache on
    top; all coherence (locking, generations, integrity hashes) lives at the
    disk layer so any number of processes can share one directory.

    With ``max_bytes`` set, the cache directory as a whole is **size
    bounded**: after every write, least-recently-used fingerprint
    partitions are evicted until the total drops under the budget.  The
    partition this store serves (the one in use) is never evicted, each
    partition's recency is stamped in a ``.last_used`` file on every hit
    and write, and evictions count into ``stats["evict"]`` — the same
    counter the CLI's cache summary line prints.
    """

    #: Per-partition recency stamp consulted by the LRU eviction sweep.
    PARTITION_STAMP = ".last_used"

    def __init__(
        self,
        fingerprint: str = "",
        cache_dir: Optional[Any] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(fingerprint)
        self.cache_dir = Path(cache_dir).expanduser() if cache_dir else default_cache_dir()
        #: Directory holding every entry of this spec fingerprint.
        self.root = self.cache_dir / (fingerprint or "unstamped")
        #: Total on-disk budget across every partition (``None`` = unbounded).
        self.max_bytes = int(max_bytes) if max_bytes else None
        self._locks_dir = self.root / ".locks"
        self._quarantine_dir = self.root / ".quarantine"
        self._generations_path = self.root / "generations.json"
        self.root.mkdir(parents=True, exist_ok=True)
        self._locks_dir.mkdir(exist_ok=True)
        #: Cache traffic of this process: hit/miss/write/evict event counts
        #: (the same events the ``cache.artifacts.*`` telemetry counters see).
        self.stats: Dict[str, int] = {"hit": 0, "miss": 0, "write": 0, "evict": 0}
        # Lock paths held by the current thread: ``flock`` blocks between any
        # two file descriptions — including two opens by the same thread — so
        # nested acquisition (e.g. ``put`` inside a held ``lock``) must be
        # re-entrant here while distinct threads/processes still contend.
        self._held_locks = threading.local()
        self._touch_partition()

    # -- size-bounded LRU over partitions ----------------------------------------
    def _touch_partition(self) -> None:
        """Stamp this partition as just-used (best effort)."""
        try:
            (self.root / self.PARTITION_STAMP).touch()
        except OSError:  # pragma: no cover - stamping is advisory
            pass

    @staticmethod
    def _partition_size(partition: Path) -> int:
        total = 0
        for directory, _dirs, files in os.walk(partition, onerror=lambda _e: None):
            for name in files:
                try:
                    total += os.stat(os.path.join(directory, name)).st_size
                except OSError:
                    continue
        return total

    def _partition_used_at(self, partition: Path) -> float:
        for probe in (partition / self.PARTITION_STAMP, partition):
            try:
                return os.stat(probe).st_mtime
            except OSError:
                continue
        return 0.0

    def _enforce_size_limit(self) -> None:
        """Evict LRU fingerprint partitions until the cache fits ``max_bytes``.

        Whole partitions are the eviction unit: a spec's artifacts only make
        sense together, and evicting a partition mid-set would look like
        corruption to its next reader.  The partition in use is exempt, so a
        budget smaller than the live working set degrades to "keep only the
        current partition".  Concurrent writers race benignly: a process
        whose partition is evicted under it quarantines the loss and
        recomputes (the store's standard crash-safety path).
        """
        if not self.max_bytes:
            return
        with self._flock(self.cache_dir / ".evict.lock"):
            try:
                partitions = [
                    child
                    for child in self.cache_dir.iterdir()
                    if child.is_dir() and not child.name.startswith(".")
                ]
            except OSError:  # pragma: no cover - cache dir vanished
                return
            sizes = {partition: self._partition_size(partition) for partition in partitions}
            total = sum(sizes.values())
            if total <= self.max_bytes:
                return
            victims = sorted(
                (partition for partition in partitions if partition != self.root),
                key=self._partition_used_at,
            )
            for victim in victims:
                if total <= self.max_bytes:
                    break
                shutil.rmtree(victim, ignore_errors=True)
                total -= sizes[victim]
                self._count("evict")

    # -- naming ------------------------------------------------------------------
    def _entry_name(self, key: ArtifactKey) -> str:
        digest = hashlib.sha256(
            json.dumps(list(key), separators=(",", ":")).encode("utf-8")
        ).hexdigest()[:8]
        safe = "__".join(_UNSAFE_CHARS.sub("-", part) or "-" for part in key)
        return f"{safe}-{digest}"

    def _entry_dir(self, key: ArtifactKey) -> Path:
        return self.root / self._entry_name(key)

    # -- locking -----------------------------------------------------------------
    @contextlib.contextmanager
    def _flock(self, path: Path) -> Iterator[None]:
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        held = getattr(self._held_locks, "paths", None)
        if held is None:
            held = self._held_locks.paths = set()
        if str(path) in held:
            yield
            return
        with open(path, "a+") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            held.add(str(path))
            try:
                yield
            finally:
                held.discard(str(path))
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    @contextlib.contextmanager
    def lock(self, key: ArtifactKey) -> Iterator[None]:
        """Advisory exclusive lock on one entry, shared across processes.

        Builders of the same key in parallel runs queue behind each other;
        the loser re-probes the cache after acquiring the lock and finds the
        winner's entry instead of recomputing (see :meth:`ensure`).
        """
        with self._flock(self._locks_dir / (self._entry_name(tuple(key)) + ".lock")):
            yield

    @contextlib.contextmanager
    def _store_lock(self) -> Iterator[None]:
        with self._flock(self._locks_dir / ".store.lock"):
            yield

    # -- telemetry ---------------------------------------------------------------
    def _count(self, event: str) -> None:
        self.stats[event] += 1
        get_telemetry().counter(f"cache.artifacts.{event}").add(1)

    # -- generations -------------------------------------------------------------
    def _generations(self) -> Dict[str, int]:
        try:
            raw = json.loads(self._generations_path.read_text())
        except (OSError, ValueError):
            return {}
        return {str(name): int(gen) for name, gen in raw.items()}

    def _generation_for(self, dataset: Optional[str]) -> int:
        if dataset is None:
            return 0
        return self._generations().get(dataset, 0)

    def _bump_generation(self, dataset: str) -> int:
        with self._store_lock():
            generations = self._generations()
            generations[dataset] = generations.get(dataset, 0) + 1
            tmp = self._generations_path.with_name(
                f"generations.json{_TMP_PREFIX}{os.getpid()}-{uuid.uuid4().hex[:8]}"
            )
            tmp.write_text(json.dumps(generations, indent=2, sort_keys=True))
            os.replace(tmp, self._generations_path)
            return generations[dataset]

    # -- serialization -----------------------------------------------------------
    def _serialize(self, key: ArtifactKey, artifact: Any, into: Path) -> Dict[str, Any]:
        """Write the payload into ``into`` and return its manifest fields."""
        if key[0] == "scorer":
            from ..serve.artifact import ArtifactError, ModelArtifact

            try:
                saved = ModelArtifact.save(artifact, into / "model", overwrite=True)
            except (ArtifactError, AttributeError, TypeError):
                pass  # rule miners / baselines have no parameter tables
            else:
                return {
                    "format": "model-artifact",
                    "payload": "model",
                    "sha256": saved.fingerprint,
                }
        payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        (into / "payload.pkl").write_bytes(payload)
        return {
            "format": "pickle",
            "payload": "payload.pkl",
            "sha256": hashlib.sha256(payload).hexdigest(),
        }

    def _persist(self, key: ArtifactKey, artifact: Any, locked: bool = False) -> None:
        entry = self._entry_dir(key)
        tmp = entry.with_name(
            f"{entry.name}{_TMP_PREFIX}{os.getpid()}-{uuid.uuid4().hex[:8]}"
        )
        try:
            tmp.mkdir(parents=True)
            manifest = self._serialize(key, artifact, tmp)
            manifest.update(
                {
                    "key": list(key),
                    "dataset": _dataset_of(key),
                    "generation": self._generation_for(_dataset_of(key)),
                }
            )
            (tmp / ENTRY_MANIFEST).write_text(
                json.dumps(manifest, indent=2, sort_keys=True)
            )
            swap = contextlib.nullcontext() if locked else self.lock(key)
            with swap:
                if entry.exists():
                    shutil.rmtree(entry)
                os.rename(tmp, entry)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        self._count("write")
        self._touch_partition()
        self._enforce_size_limit()

    # -- loading -----------------------------------------------------------------
    def _read_manifest(self, entry: Path) -> Optional[Dict[str, Any]]:
        try:
            manifest = json.loads((entry / ENTRY_MANIFEST).read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(manifest, dict) or "key" not in manifest:
            return None
        return manifest

    def _quarantine(self, key: ArtifactKey, entry: Path) -> None:
        """Move a corrupt entry out of the serving path (never delete evidence)."""
        self._quarantine_dir.mkdir(exist_ok=True)
        target = self._quarantine_dir / f"{entry.name}-{uuid.uuid4().hex[:8]}"
        try:
            os.rename(entry, target)
        except OSError:
            shutil.rmtree(entry, ignore_errors=True)
        self._count("evict")

    def _entry_valid(self, key: ArtifactKey) -> bool:
        """Cheap structural probe: manifest present and generation current."""
        manifest = self._read_manifest(self._entry_dir(key))
        if manifest is None:
            return False
        return int(manifest.get("generation", 0)) == self._generation_for(
            _dataset_of(key)
        )

    def _load(self, key: ArtifactKey) -> Any:
        """Load ``key`` from disk, verifying integrity; ``_MISSING`` on a miss.

        Counts exactly one ``hit`` or ``miss`` event.  Stale (old-generation)
        and corrupt entries are evicted — quarantined when the content is
        bad — and reported as misses so the caller recomputes.
        """
        entry = self._entry_dir(key)
        manifest = self._read_manifest(entry)
        if manifest is None:
            if entry.exists():
                # A directory without a readable manifest is a torn write.
                self._quarantine(key, entry)
            self._count("miss")
            return _MISSING
        if int(manifest.get("generation", 0)) != self._generation_for(_dataset_of(key)):
            shutil.rmtree(entry, ignore_errors=True)
            self._count("evict")
            self._count("miss")
            return _MISSING
        if manifest.get("format") == "model-artifact":
            from ..serve.artifact import ArtifactError, ModelArtifact

            try:
                artifact = ModelArtifact.load(entry / manifest["payload"], verify=True)
                value = artifact.instantiate(mmap=True)
            except (ArtifactError, OSError, KeyError, ValueError):
                self._quarantine(key, entry)
                self._count("miss")
                return _MISSING
        elif manifest.get("format") == "pickle":
            try:
                payload = (entry / manifest["payload"]).read_bytes()
            except (OSError, KeyError):
                self._quarantine(key, entry)
                self._count("miss")
                return _MISSING
            if hashlib.sha256(payload).hexdigest() != manifest.get("sha256"):
                self._quarantine(key, entry)
                self._count("miss")
                return _MISSING
            try:
                value = pickle.loads(payload)
            except Exception:
                self._quarantine(key, entry)
                self._count("miss")
                return _MISSING
        else:
            self._quarantine(key, entry)
            self._count("miss")
            return _MISSING
        self._count("hit")
        self._touch_partition()
        return value

    # -- mapping surface ---------------------------------------------------------
    def __contains__(self, key: ArtifactKey) -> bool:
        key = tuple(key)
        if key in self._artifacts:
            return True
        if key[0] in EPHEMERAL_KINDS:
            return False
        return self._entry_valid(key)

    def __len__(self) -> int:
        return len(self.keys())

    def __iter__(self) -> Iterator[ArtifactKey]:
        return iter(self.keys())

    def get(self, key: ArtifactKey, default: Any = None) -> Any:
        key = tuple(key)
        if key in self._artifacts:
            return self._artifacts[key]
        if key[0] in EPHEMERAL_KINDS:
            return default
        value = self._load(key)
        if value is _MISSING:
            return default
        self._artifacts[key] = value
        return value

    def __getitem__(self, key: ArtifactKey) -> Any:
        value = self.get(key, _MISSING)
        if value is _MISSING:
            raise KeyError(tuple(key))
        return value

    def put(self, key: ArtifactKey, artifact: Any) -> Any:
        key = tuple(key)
        self._artifacts[key] = artifact
        if key[0] not in EPHEMERAL_KINDS:
            self._persist(key, artifact)
        return artifact

    def ensure(self, key: ArtifactKey, build: Callable[[], Any]) -> Any:
        """The artifact under ``key``: memory, then disk, then build-and-share.

        The build runs under the entry's advisory lock, so of N concurrent
        runs needing the same key exactly one computes it; the others block
        on the lock and then load the winner's entry from disk.
        """
        key = tuple(key)
        if key in self._artifacts:
            return self._artifacts[key]
        if key[0] in EPHEMERAL_KINDS:
            self._artifacts[key] = build()
            return self._artifacts[key]
        with self.lock(key):
            value = self._load(key)
            if value is _MISSING:
                value = build()
                self._artifacts[key] = value
                self._persist(key, value, locked=True)
            else:
                self._artifacts[key] = value
        return value

    def keys(self, kind: Optional[str] = None) -> List[ArtifactKey]:
        """Memory and valid on-disk keys, optionally restricted to one kind."""
        found = {key for key in self._artifacts if kind is None or key[0] == kind}
        try:
            children = list(self.root.iterdir())
        except OSError:
            children = []
        for child in children:
            if not child.is_dir() or child.name.startswith(".") or _TMP_PREFIX in child.name:
                continue
            manifest = self._read_manifest(child)
            if manifest is None:
                continue
            key = tuple(str(part) for part in manifest["key"])
            if kind is not None and key[0] != kind:
                continue
            if int(manifest.get("generation", 0)) != self._generation_for(
                _dataset_of(key)
            ):
                continue
            found.add(key)
        return sorted(found)

    # -- invalidation ------------------------------------------------------------
    def drop(self, predicate: Callable[[ArtifactKey], bool]) -> List[ArtifactKey]:
        """Drop matching entries from memory *and* disk (sorted keys returned).

        Disk entries are enumerated raw — stale-generation directories match
        too, so invalidation never leaves orphaned directories behind.
        """
        dropped = set(super().drop(predicate))
        try:
            children = list(self.root.iterdir())
        except OSError:
            children = []
        for child in children:
            if not child.is_dir() or child.name.startswith(".") or _TMP_PREFIX in child.name:
                continue
            manifest = self._read_manifest(child)
            if manifest is None:
                continue
            key = tuple(str(part) for part in manifest["key"])
            if not predicate(key):
                continue
            shutil.rmtree(child, ignore_errors=True)
            self._count("evict")
            dropped.add(key)
        return sorted(dropped)

    def drop_dataset(self, name: str) -> List[ArtifactKey]:
        """Invalidate a dataset everywhere: bump its generation, then drop.

        The generation stamp makes the invalidation visible to *other*
        processes sharing the cache directory — any entry they wrote against
        the old data no longer matches the current generation and is evicted
        the next time anyone probes it.
        """
        self._bump_generation(name)
        return super().drop_dataset(name)

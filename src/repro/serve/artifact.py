"""Memory-mapped model artifacts: the export format of trained scorers.

A :class:`ModelArtifact` is a directory holding one raw ``.npy`` file per
trained parameter plus a ``manifest.json`` describing the model (class,
config, vocabulary sizes), every parameter file (shape, dtype, byte size,
content hash) and a **fingerprint** — a SHA-256 over the manifest core and
the parameter hashes, so any corruption or tampering is detected at load
time instead of silently changing predictions.

Why a directory of ``.npy`` files instead of a pickle or one ``.npz``:

* ``np.load(..., mmap_mode="r")`` gives **zero-copy, read-only,
  page-shareable** embedding tables.  A serving process touches only the
  pages its queries hit, N worker processes mapping the same artifact share
  one physical copy through the page cache, and process startup no longer
  pays a full deserialization of every table.
* The sharded evaluator exploits exactly that: when a scorer carries an
  artifact, :mod:`repro.eval.sharding` ships workers an
  :class:`ArtifactScorerRef` — a few strings — instead of pickling the full
  parameter tables into every worker (see :func:`artifact_ref_for`).

Loaded models are **serving-ready, not trainable**: their tables are
read-only mappings, so optimizer steps or constraint projections on them
raise.  Re-train from a checkpoint, then export a fresh artifact.

Bit-identity: ``.npy`` files round-trip float64 arrays exactly, and a memmap
participates in numpy arithmetic just like the in-memory array it mirrors,
so scores — and therefore every evaluation metric — are bit-identical
between a loaded artifact and the model that saved it (asserted for the
whole model zoo in the test suite).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

#: Manifest format marker and version.
ARTIFACT_FORMAT = "repro-model-artifact"
ARTIFACT_VERSION = 1

MANIFEST_NAME = "manifest.json"


class ArtifactError(RuntimeError):
    """Base class for model-artifact failures."""


class FingerprintMismatchError(ArtifactError):
    """Stored and recomputed artifact fingerprints disagree."""


class TruncatedArtifactError(ArtifactError):
    """A parameter file is missing, short, or does not match its manifest."""


def _file_sha256(path: Path, chunk_bytes: int = 1 << 20) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        while True:
            chunk = handle.read(chunk_bytes)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def _fingerprint(core: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of the manifest core."""
    payload = json.dumps(core, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _manifest_core(manifest: Dict[str, Any]) -> Dict[str, Any]:
    """The fingerprinted portion of a manifest (everything but the fingerprint)."""
    return {key: value for key, value in manifest.items() if key != "fingerprint"}


@dataclass
class ModelArtifact:
    """A saved model on disk: directory + parsed manifest."""

    directory: Path
    manifest: Dict[str, Any]

    # -- manifest accessors --------------------------------------------------
    @property
    def model_name(self) -> str:
        return self.manifest["model"]

    @property
    def num_entities(self) -> int:
        return int(self.manifest["num_entities"])

    @property
    def num_relations(self) -> int:
        return int(self.manifest["num_relations"])

    @property
    def fingerprint(self) -> str:
        return self.manifest["fingerprint"]

    @property
    def parameter_names(self) -> list:
        return list(self.manifest["params"])

    @property
    def nbytes(self) -> int:
        """Total parameter payload on disk (excluding ``.npy`` headers)."""
        return sum(int(meta["nbytes"]) for meta in self.manifest["params"].values())

    # -- save ---------------------------------------------------------------
    @classmethod
    def save(cls, model: Any, directory: Any, overwrite: bool = False) -> "ModelArtifact":
        """Export a trained model's parameters as a fingerprinted artifact.

        The model must expose ``parameters()`` (name -> tensor with ``.data``),
        ``num_entities``, ``num_relations``, a ``config`` and a registry name
        (``type(model).__name__``) — i.e. any :class:`repro.models.KGEModel`.
        On success the artifact is *attached* to the model
        (``model._artifact_dir``), which lets the sharded evaluator ship
        workers the artifact path instead of pickled tables.
        """
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if manifest_path.exists() and not overwrite:
            raise ArtifactError(
                f"artifact already exists at {directory}; pass overwrite=True to replace it"
            )
        parameters = model.parameters()
        if not parameters:
            raise ArtifactError(
                f"{type(model).__name__} has no parameters to export; "
                "artifacts hold trained embedding models"
            )
        directory.mkdir(parents=True, exist_ok=True)
        params_meta: Dict[str, Dict[str, Any]] = {}
        for index, (name, parameter) in enumerate(sorted(parameters.items())):
            data = np.ascontiguousarray(parameter.data)
            file_name = f"{index:02d}_{_safe_name(name)}.npy"
            path = directory / file_name
            np.save(path, data, allow_pickle=False)
            params_meta[name] = {
                "file": file_name,
                "shape": list(data.shape),
                "dtype": str(data.dtype),
                "nbytes": int(data.nbytes),
                "file_bytes": path.stat().st_size,
                "sha256": _file_sha256(path),
            }
        config = getattr(model, "config", None)
        manifest: Dict[str, Any] = {
            "format": ARTIFACT_FORMAT,
            "version": ARTIFACT_VERSION,
            "model": type(model).__name__,
            "num_entities": int(model.num_entities),
            "num_relations": int(model.num_relations),
            "config": _config_payload(config),
            "params": params_meta,
        }
        manifest["fingerprint"] = _fingerprint(_manifest_core(manifest))
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        artifact = cls(directory=directory, manifest=manifest)
        model._artifact_dir = str(directory)
        return artifact

    # -- load ---------------------------------------------------------------
    @classmethod
    def load(cls, directory: Any, verify: bool = True) -> "ModelArtifact":
        """Open an artifact directory, checking integrity.

        The cheap structural checks (manifest well-formed, every parameter
        file present with its declared byte size) always run and raise
        :class:`TruncatedArtifactError` on failure.  ``verify=True``
        additionally re-hashes every parameter file and the manifest core,
        raising :class:`FingerprintMismatchError` on any disagreement —
        worth paying once per process, skippable for trusted local paths
        (e.g. the evaluation workers re-opening an artifact their parent
        just validated).
        """
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise ArtifactError(f"no {MANIFEST_NAME} under {directory}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as error:
            raise ArtifactError(f"unreadable manifest at {manifest_path}: {error}") from error
        if manifest.get("format") != ARTIFACT_FORMAT:
            raise ArtifactError(
                f"{manifest_path} is not a {ARTIFACT_FORMAT} manifest"
            )
        if int(manifest.get("version", 0)) > ARTIFACT_VERSION:
            raise ArtifactError(
                f"artifact version {manifest['version']} is newer than this "
                f"reader's {ARTIFACT_VERSION}"
            )
        artifact = cls(directory=directory, manifest=manifest)
        artifact._check_files()
        if verify:
            artifact.verify()
        return artifact

    def _check_files(self) -> None:
        """Structural integrity: every parameter file present at full size."""
        for name, meta in self.manifest["params"].items():
            path = self.directory / meta["file"]
            if not path.exists():
                raise TruncatedArtifactError(
                    f"parameter {name!r}: file {meta['file']} missing from {self.directory}"
                )
            actual = path.stat().st_size
            expected = int(meta["file_bytes"])
            if actual != expected:
                raise TruncatedArtifactError(
                    f"parameter {name!r}: {meta['file']} is {actual} bytes, "
                    f"manifest declares {expected} (truncated or corrupted file)"
                )

    def verify(self) -> None:
        """Full content verification against the stored fingerprint."""
        expected = _fingerprint(_manifest_core(self.manifest))
        if expected != self.fingerprint:
            raise FingerprintMismatchError(
                f"manifest fingerprint {self.fingerprint} does not match its "
                f"own contents ({expected}); the manifest was edited or corrupted"
            )
        for name, meta in self.manifest["params"].items():
            path = self.directory / meta["file"]
            actual = _file_sha256(path)
            if actual != meta["sha256"]:
                raise FingerprintMismatchError(
                    f"parameter {name!r}: content hash {actual} does not match "
                    f"the manifest's {meta['sha256']}"
                )

    def instantiate(self, mmap: bool = True) -> Any:
        """Build the scorer with parameter tables backed by this artifact.

        ``mmap=True`` (the default) maps every table read-only and zero-copy;
        ``mmap=False`` reads them into process memory (for tests comparing
        the two).  The model is returned in eval mode with the artifact
        attached.
        """
        from ..models.base import ModelConfig
        from ..models.registry import make_model

        config = ModelConfig(**self.manifest["config"])
        model = make_model(
            self.model_name, self.num_entities, self.num_relations, config
        )
        for name, meta in self.manifest["params"].items():
            parameter = model.parameters().get(name)
            if parameter is None:
                raise ArtifactError(
                    f"artifact parameter {name!r} does not exist on "
                    f"{self.model_name} (incompatible model version?)"
                )
            path = self.directory / meta["file"]
            try:
                table = np.load(
                    path, mmap_mode="r" if mmap else None, allow_pickle=False
                )
            except ValueError as error:
                raise TruncatedArtifactError(
                    f"parameter {name!r}: {path.name} is not a valid .npy file: {error}"
                ) from error
            if list(table.shape) != list(meta["shape"]) or str(table.dtype) != meta["dtype"]:
                raise TruncatedArtifactError(
                    f"parameter {name!r}: on-disk array is "
                    f"{table.shape}/{table.dtype}, manifest declares "
                    f"{tuple(meta['shape'])}/{meta['dtype']}"
                )
            if parameter.data.shape != table.shape:
                raise ArtifactError(
                    f"artifact parameter {name!r} has shape {table.shape}, "
                    f"model expects {parameter.data.shape}"
                )
            parameter.data = table
        model.train_mode(False)
        model._artifact_dir = str(self.directory)
        return model


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_" else "_" for c in name)


def _config_payload(config: Any) -> Dict[str, Any]:
    if config is None:
        return {}
    return {
        "dim": int(config.dim),
        "seed": int(config.seed),
        "margin": float(config.margin),
        "regularization": float(config.regularization),
        "loss": str(config.loss),
        "extra": dict(config.extra),
    }


def load_model(directory: Any, mmap: bool = True, verify: bool = True) -> Any:
    """Convenience: open an artifact and instantiate its scorer in one call."""
    return ModelArtifact.load(directory, verify=verify).instantiate(mmap=mmap)


# --------------------------------------------------------------------------- worker shipping
@dataclass(frozen=True)
class ArtifactScorerRef:
    """A picklable stand-in for an artifact-backed scorer.

    Shipping this to an evaluation worker costs a few hundred bytes; the
    worker re-opens the artifact read-only, so every worker's tables are
    shared mappings of the same files instead of private pickled copies.
    The parent validated the artifact when it saved/loaded it, so workers
    skip the content re-hash (structural size checks still run).
    """

    directory: str
    eval_dtype: str = "fp64"

    def resolve(self) -> Any:
        scorer = load_model(self.directory, mmap=True, verify=False)
        scorer.set_eval_dtype(self.eval_dtype)
        return scorer


def artifact_ref_for(scorer: Any) -> Optional[ArtifactScorerRef]:
    """The scorer's shippable artifact ref, if it carries a live artifact.

    A scorer carries an artifact after :meth:`ModelArtifact.save` or
    :meth:`ModelArtifact.instantiate`; mutating its parameters afterwards
    (training) detaches it implicitly only via re-save, so callers that
    retrain must export a fresh artifact.  Returns ``None`` when there is no
    attached artifact or its manifest has vanished.
    """
    directory = getattr(scorer, "_artifact_dir", None)
    if not directory:
        return None
    if not (Path(directory) / MANIFEST_NAME).exists():
        return None
    eval_dtype = getattr(scorer, "_score_dtype_name", "fp64")
    return ArtifactScorerRef(str(directory), eval_dtype)

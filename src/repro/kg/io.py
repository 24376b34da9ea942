"""Reading and writing datasets in the standard benchmark TSV layout.

The public FB15k/WN18 distributions are directories with ``train.txt``,
``valid.txt`` and ``test.txt``, one tab-separated ``head relation tail``
triple per line.  This module reads and writes that layout so the synthetic
replicas generated by :mod:`repro.kg.generators` can be exported and reloaded
exactly like the originals, and so a user with the real datasets on disk can
load them into the same pipeline.

Split files may also be gzip-compressed (``train.txt.gz``): every reader
detects the ``.gz`` suffix and decompresses transparently.  For dumps too
large to materialize as Python objects,
:func:`repro.kg.streaming.ingest_dataset` streams the same files through a
bounded-memory pipeline into a bit-identical dataset.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Tuple

from .dataset import Dataset, DatasetMetadata, RelationProvenance, build_dataset_from_labelled_triples

SPLIT_FILENAMES = {"train": "train.txt", "valid": "valid.txt", "test": "test.txt"}
METADATA_FILENAME = "metadata.json"


class DatasetIOError(OSError):
    """Raised when a dataset directory is missing files or malformed."""


def write_triples_tsv(path: Path, triples: Iterable[Tuple[str, str, str]]) -> int:
    """Write labelled triples as ``head\\trelation\\ttail`` lines; return count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for head, relation, tail in triples:
            handle.write(f"{head}\t{relation}\t{tail}\n")
            count += 1
    return count


def open_triples_text(path: Path, gzipped: Optional[bool] = None) -> IO[str]:
    """Open a triple file as text, transparently decompressing gzip.

    ``gzipped=None`` auto-detects from the ``.gz`` suffix.
    """
    path = Path(path)
    if gzipped is None:
        gzipped = path.suffix == ".gz"
    if gzipped:
        return gzip.open(path, "rt", encoding="utf-8")
    return path.open("r", encoding="utf-8")


def parse_triple_line(
    line: str, path: Path, line_number: int
) -> Optional[Tuple[str, str, str]]:
    """Parse one TSV line into a labelled triple; ``None`` for blank lines.

    Tolerates CRLF line endings (Windows-edited TSVs) by stripping the full
    ``\\r\\n`` tail, and reports malformed lines as ``path:line_number``.
    """
    line = line.rstrip("\r\n")
    if not line:
        return None
    parts = line.split("\t")
    if len(parts) != 3:
        raise DatasetIOError(
            f"{path}:{line_number}: expected 3 tab-separated fields, got {len(parts)}"
        )
    return parts[0], parts[1], parts[2]


def read_triples_tsv(path: Path, gzipped: Optional[bool] = None) -> Iterator[Tuple[str, str, str]]:
    """Yield labelled triples from a (possibly gzipped) TSV file, skipping blank lines."""
    path = Path(path)
    if not path.exists():
        raise DatasetIOError(f"triple file not found: {path}")
    with open_triples_text(path, gzipped) as handle:
        for line_number, line in enumerate(handle, start=1):
            row = parse_triple_line(line, path, line_number)
            if row is not None:
                yield row


def split_file(
    directory: Path, split_name: str, gzipped: Optional[bool] = None
) -> Optional[Path]:
    """Resolve the on-disk file of one split, or ``None`` when absent.

    ``gzipped=None`` prefers the plain file and falls back to ``.gz``;
    ``True`` / ``False`` look only at the compressed / plain variant.
    """
    directory = Path(directory)
    plain = directory / SPLIT_FILENAMES[split_name]
    compressed = directory / (SPLIT_FILENAMES[split_name] + ".gz")
    if gzipped is True:
        return compressed if compressed.exists() else None
    if gzipped is False:
        return plain if plain.exists() else None
    if plain.exists():
        return plain
    if compressed.exists():
        return compressed
    return None


def _metadata_to_json(metadata: DatasetMetadata) -> dict:
    return {
        "source": metadata.source,
        "reverse_property_pairs": [list(pair) for pair in metadata.reverse_property_pairs],
        "notes": metadata.notes,
        "relation_provenance": {
            name: {
                "kind": prov.kind,
                "reverse_of": prov.reverse_of,
                "duplicate_of": prov.duplicate_of,
                "reverse_duplicate_of": prov.reverse_duplicate_of,
                "symmetric": prov.symmetric,
                "concatenated": prov.concatenated,
                "cartesian": prov.cartesian,
            }
            for name, prov in metadata.relation_provenance.items()
        },
    }


def _metadata_from_json(payload: dict) -> DatasetMetadata:
    provenance = {
        name: RelationProvenance(
            name=name,
            kind=fields.get("kind", "normal"),
            reverse_of=fields.get("reverse_of"),
            duplicate_of=fields.get("duplicate_of"),
            reverse_duplicate_of=fields.get("reverse_duplicate_of"),
            symmetric=bool(fields.get("symmetric", False)),
            concatenated=bool(fields.get("concatenated", False)),
            cartesian=bool(fields.get("cartesian", False)),
        )
        for name, fields in payload.get("relation_provenance", {}).items()
    }
    return DatasetMetadata(
        source=payload.get("source", "unknown"),
        relation_provenance=provenance,
        reverse_property_pairs=[tuple(pair) for pair in payload.get("reverse_property_pairs", [])],
        notes=dict(payload.get("notes", {})),
    )


def read_directory_metadata(
    directory: Path, name: Optional[str] = None
) -> Tuple[str, DatasetMetadata]:
    """Resolve a dataset directory's name and metadata (shared by both loaders)."""
    directory = Path(directory)
    metadata = DatasetMetadata()
    dataset_name = name or directory.name
    metadata_path = directory / METADATA_FILENAME
    if metadata_path.exists():
        payload = json.loads(metadata_path.read_text(encoding="utf-8"))
        metadata = _metadata_from_json(payload.get("metadata", {}))
        dataset_name = name or payload.get("name", dataset_name)
    return dataset_name, metadata


def save_dataset(dataset: Dataset, directory: Path) -> Path:
    """Write ``dataset`` as train/valid/test TSV files plus metadata JSON."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for split_name, filename in SPLIT_FILENAMES.items():
        split = dataset.splits()[split_name]
        labelled = (dataset.vocab.decode_triple(triple) for triple in split)
        write_triples_tsv(directory / filename, labelled)
    metadata_path = directory / METADATA_FILENAME
    payload = {"name": dataset.name, "metadata": _metadata_to_json(dataset.metadata)}
    metadata_path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return directory


def load_dataset(
    directory: Path, name: str | None = None, gzipped: Optional[bool] = None
) -> Dataset:
    """Load a dataset saved by :func:`save_dataset` (or the public TSV layout)."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DatasetIOError(f"dataset directory not found: {directory}")
    splits: dict[str, List[Tuple[str, str, str]]] = {}
    for split_name in SPLIT_FILENAMES:
        path = split_file(directory, split_name, gzipped)
        splits[split_name] = list(read_triples_tsv(path)) if path is not None else []
    if not splits["train"]:
        raise DatasetIOError(f"no training triples found under {directory}")

    dataset_name, metadata = read_directory_metadata(directory, name)
    return build_dataset_from_labelled_triples(
        name=dataset_name,
        train=splits["train"],
        valid=splits["valid"],
        test=splits["test"],
        metadata=metadata,
    )

"""Plain-text serialization of datasets.

The paper's companion website distributes its 19 000 datasets as text files,
one ranking per line, buckets written between square brackets and elements
separated by commas, e.g.::

    [[A],[D],[B,C]]
    [[A],[B,C],[D]]
    [[D],[A,C],[B]]

This module reads and writes that format.  Elements are stored as strings;
purely numeric tokens are converted to ``int`` so that synthetic datasets
round-trip exactly.  Lines starting with ``#`` are comments and empty lines
are ignored.
"""

from __future__ import annotations

from collections.abc import Iterable
from pathlib import Path

from ..core.ranking import format_ranking, parse_ranking
from .dataset import Dataset

__all__ = [
    "parse_ranking",
    "format_ranking",
    "loads",
    "dumps",
    "load_dataset",
    "save_dataset",
]


def loads(text: str, *, name: str = "dataset") -> Dataset:
    """Parse a dataset from a multi-line string (one ranking per line)."""
    rankings = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rankings.append(parse_ranking(stripped))
    return Dataset(rankings, name=name)


def dumps(dataset: Dataset, *, include_header: bool = True) -> str:
    """Serialize a dataset to the text format."""
    lines: list[str] = []
    if include_header:
        lines.append(f"# dataset: {dataset.name}")
        for key, value in sorted(dataset.metadata.items()):
            lines.append(f"# {key}: {value}")
    lines.extend(format_ranking(ranking) for ranking in dataset.rankings)
    return "\n".join(lines) + "\n"


def load_dataset(path: str | Path, *, name: str | None = None) -> Dataset:
    """Load a dataset from a text file."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        text = handle.read()
    return loads(text, name=name or path.stem)


def save_dataset(dataset: Dataset, path: str | Path) -> Path:
    """Write a dataset to a text file and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(dumps(dataset))
    return path


def save_collection(datasets: Iterable[Dataset], directory: str | Path) -> list[Path]:
    """Write a collection of datasets, one file per dataset, into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for index, dataset in enumerate(datasets):
        filename = f"{dataset.name or 'dataset'}_{index:04d}.txt"
        paths.append(save_dataset(dataset, directory / filename))
    return paths

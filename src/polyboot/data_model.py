"""Polyadic dataset container and CSV ingestion.

A sample holds observations indexed by P-tuples of distinct unit ids. The
observed index set may be any nonempty subset of the P-permutations of the
units: tuples that are absent are simply not in the set, which is how
dropped zero flows and other missing dyads are represented.

CSV schema (header row, comma separated, UTF-8, ``.`` decimal point):
columns ``u1..uP`` with unit labels, an optional ``group`` column giving the
group of the unit in ``u1``, an optional ``cluster`` column with the level of
an extra clustering dimension (e.g. year), and then numeric variable columns.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DataError, ParamError

RESERVED_COLUMNS = ("group", "cluster")
_WRITE_ROWS = 4096  # rows write_csv turns into strings at a time


@dataclass(frozen=True, eq=False)
class PolyadicSample:
    """Observations indexed by P-tuples of distinct units.

    Attributes
    ----------
    order : int
        Tuple arity P >= 2.
    unit_labels : tuple of str
        Distinct labels; unit ids are their positions (dense, 0-based).
    index : ndarray, shape (N, P)
        Observed index tuples; all ids distinct within a row.
    variables : ndarray, shape (N, V)
        Numeric variables per observation.
    variable_names : tuple of str
    group_of_unit : tuple of int or None
        Group id per unit (conditional exchangeability), dense 0-based.
    cluster_ids : ndarray or None, shape (N,)
        Level id per observation for the extra clustering dimension.
    cluster_labels : tuple of str or None
        Distinct level labels; the level count T is their number.
    group_labels : tuple of str or None
        Distinct labels, one per group id; None names group g by ``str(g)``.
    """

    order: int
    unit_labels: tuple
    index: np.ndarray
    variables: np.ndarray
    variable_names: tuple
    group_of_unit: tuple | None = None
    cluster_ids: np.ndarray | None = None
    cluster_labels: tuple | None = None
    group_labels: tuple | None = None

    def __post_init__(self):
        ints, floats = (partial(np.ascontiguousarray, dtype=t) for t in (np.int64, np.float64))
        for name, convert in (
            ("unit_labels", tuple), ("variable_names", tuple), ("index", ints), ("variables", floats),
            ("group_of_unit", lambda v: tuple(map(int, v))), ("group_labels", tuple),
            ("cluster_ids", ints), ("cluster_labels", tuple),
        ):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, convert(value))
        _check_sample(self)
        for array in (self.index, self.variables, self.cluster_ids):
            if array is not None:
                array.setflags(write=False)

    @property
    def n_units(self) -> int:
        return len(self.unit_labels)

    @property
    def n_obs(self) -> int:
        return self.index.shape[0]

    @property
    def n_cluster_levels(self) -> int:
        return 0 if self.cluster_labels is None else len(self.cluster_labels)

    @property
    def n_groups(self) -> int:
        return 0 if self.group_of_unit is None else max(self.group_of_unit) + 1

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.variable_names.index(name)
        except ValueError:
            raise DataError(f"unknown variable column {name!r}") from None
        return self.variables[:, j]

    def has_full_index_set(self) -> bool:
        """True when every P-permutation of the units is observed once."""
        if self.cluster_ids is not None:
            n_per_level = math.perm(self.n_units, self.order)
            return self.n_obs == n_per_level * self.n_cluster_levels
        return self.n_obs == math.perm(self.n_units, self.order)


def _check_sample(s: PolyadicSample):
    if s.order < 2:
        raise DataError(f"order must be >= 2, got {s.order}")
    n = len(s.unit_labels)
    if n < 2:
        raise DataError(f"need at least 2 units, got {n}")
    for kind, labels in (("unit", s.unit_labels), ("cluster", s.cluster_labels),
                         ("group", s.group_labels)):
        if labels is not None and len(set(labels)) != len(labels):
            raise DataError(f"{kind} labels must be distinct")
    if s.index.ndim != 2 or s.index.shape[1] != s.order:
        raise DataError(f"index must have shape (N, {s.order})")
    if s.index.shape[0] == 0:
        raise DataError("empty index set")
    if s.index.min(initial=0) < 0 or s.index.max(initial=0) >= n:
        raise DataError("unit id out of range")
    ordered = np.sort(s.index, axis=1)
    repeated = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    if repeated.size:
        raise DataError(f"repeated unit within tuple {tuple(s.index[repeated[0]].tolist())}")
    if s.variables.ndim != 2 or s.variables.shape[0] != s.index.shape[0]:
        raise DataError("variables must align with index rows")
    if s.variables.shape[1] != len(s.variable_names):
        raise DataError("variable columns must match variable_names")
    if not np.all(np.isfinite(s.variables)):
        raise DataError("non-finite variable value")
    if (s.cluster_ids is None) != (s.cluster_labels is None):
        raise DataError("cluster_ids and cluster_labels must come together")
    if s.cluster_ids is not None:
        if s.cluster_ids.shape != (s.index.shape[0],):
            raise DataError("cluster_ids must have one level per observation")
        if s.cluster_ids.min() < 0 or s.cluster_ids.max() >= len(s.cluster_labels):
            raise DataError("cluster level id out of range")
        keys = np.column_stack([s.index, s.cluster_ids])
    else:
        keys = s.index
    # equal rows are adjacent once sorted; lexsort is about 10x faster here
    # than np.unique(axis=0), which compares rows as opaque byte strings
    keys = keys[np.lexsort(keys.T)]
    if (keys[1:] == keys[:-1]).all(axis=1).any():
        raise DataError("duplicate index tuple")
    if s.group_of_unit is not None:
        if len(s.group_of_unit) != n:
            raise DataError("group_of_unit must have one entry per unit")
        if set(s.group_of_unit) != set(range(s.n_groups)):
            raise DataError("group ids must be dense: 0 .. number of groups - 1, each with a unit")
    if s.group_labels is not None and len(s.group_labels) != s.n_groups:
        raise DataError("group_labels must have one label per group")


def full_index_set(n: int, order: int) -> np.ndarray:
    """All ordered ``order``-tuples of distinct ids in [0, n)."""
    grid = np.indices((n,) * order, dtype=np.int64).reshape(order, -1).T  # lexicographic
    distinct = np.ones(len(grid), dtype=bool)
    for j in range(order):
        for k in range(j):
            distinct &= grid[:, j] != grid[:, k]
    return grid[distinct]


def load_csv(path, order: int = 2) -> PolyadicSample:
    """Load a polyadic sample from CSV, read row by row by the csv module.

    Unit ids are assigned densely by first appearance, as are cluster
    levels; labels are stripped of surrounding spaces. Every column other
    than ``u1..uP``, ``group`` and ``cluster`` is a variable. A faulty row
    raises ``DataError`` naming its line, and a file that is not UTF-8 one
    naming its first bad byte, counted from the start of the file.
    """
    if order < 2:
        raise ParamError("order must be >= 2")
    unit_cols = [f"u{p + 1}" for p in range(order)]
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            try:
                return _read_rows(csv.DictReader(fh), unit_cols)
            except UnicodeDecodeError:  # decoded whole, the position counts from the start
                fh.buffer.seek(0)
                fh.buffer.read().decode("utf-8")
                raise
    except UnicodeDecodeError as exc:
        raise DataError(f"the file is not UTF-8 text: {exc}") from None


def _read_rows(reader, unit_cols) -> PolyadicSample:
    """The sample of a ``csv.DictReader``'s header and rows, read one at a
    time; raises ``DataError`` naming the line of the first faulty row."""
    header = reader.fieldnames or []
    for c in unit_cols:
        if c not in header:
            raise DataError(f"missing unit column {c!r}")
    variable_columns = [c for c in header if c not in unit_cols and c not in RESERVED_COLUMNS]
    if not variable_columns:
        raise DataError("no variable columns")
    has_group, has_cluster = "group" in header, "cluster" in header
    unit_ids: dict = {}
    group_of: dict = {}
    cluster_ids_map: dict = {}
    # flat typed arrays: a Python list per row would hold far more memory
    index_rows, var_rows, cluster_rows = array("q"), array("d"), array("q")
    for lineno, row in enumerate(reader, start=2):
        tup = []
        for c in unit_cols:
            label = (row[c] or "").strip()
            if not label:
                raise DataError(f"line {lineno}: empty unit label in {c!r}")
            uid = unit_ids.setdefault(label, len(unit_ids))
            tup.append(uid)
        if len(set(tup)) != len(unit_cols):
            raise DataError(f"line {lineno}: repeated unit within tuple")
        for c in variable_columns:
            try:
                v = float(row[c])
            except (TypeError, ValueError):
                raise DataError(f"line {lineno}: column {c!r} is not numeric") from None
            if not math.isfinite(v):
                raise DataError(f"line {lineno}: non-finite value in column {c!r}")
            var_rows.append(v)
        if has_group:
            g = (row["group"] or "").strip()
            if g:
                prev = group_of.get(tup[0])
                if prev is not None and prev != g:
                    raise DataError(
                        f"line {lineno}: conflicting group for unit {row[unit_cols[0]]!r}"
                    )
                group_of[tup[0]] = g
        if has_cluster:
            lab = (row["cluster"] or "").strip()
            cid = cluster_ids_map.setdefault(lab, len(cluster_ids_map))
            cluster_rows.append(cid)
        index_rows.extend(tup)

    if not index_rows:
        raise DataError("no observations")
    labels = tuple(unit_ids)  # in id order, as ids follow first appearance
    group_of_unit = group_labels = None
    if group_of:
        group_labels = tuple(sorted(set(group_of.values())))
        missing = [labels[u] for u in range(len(labels)) if u not in group_of]
        if missing:
            raise DataError(
                "group column present but no group known for units "
                + ", ".join(repr(m) for m in missing)
                + " (groups are read from rows where the unit appears in u1)"
            )
        gid = {g: i for i, g in enumerate(group_labels)}
        group_of_unit = tuple(gid[group_of[u]] for u in range(len(labels)))
    return PolyadicSample(
        order=len(unit_cols),
        unit_labels=labels,
        index=np.array(index_rows, dtype=np.int64).reshape(-1, len(unit_cols)),
        variables=np.array(var_rows, dtype=np.float64).reshape(-1, len(variable_columns)),
        variable_names=tuple(variable_columns),
        group_of_unit=group_of_unit,
        cluster_ids=np.array(cluster_rows, dtype=np.int64) if has_cluster else None,
        cluster_labels=tuple(cluster_ids_map) if has_cluster else None,
        group_labels=group_labels,
    )


def write_csv(sample: PolyadicSample, path) -> None:
    """Write a sample back to the CSV schema read by :func:`load_csv`."""
    unit_cols = [f"u{p + 1}" for p in range(sample.order)]
    header = list(unit_cols)
    if sample.group_of_unit is not None:
        header.append("group")
    if sample.cluster_ids is not None:
        header.append("cluster")
    header.extend(sample.variable_names)
    if sample.group_of_unit is not None:
        labels = sample.group_labels
        group = [labels[g] if labels else str(g) for g in sample.group_of_unit]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # column by column, in chunks of rows so that the strings stay few
        for rows in (slice(i, i + _WRITE_ROWS) for i in range(0, sample.n_obs, _WRITE_ROWS)):
            index = sample.index[rows].T.tolist()
            columns = [[sample.unit_labels[u] for u in ids] for ids in index]
            if sample.group_of_unit is not None:
                columns.append([group[u] for u in index[0]])
            if sample.cluster_ids is not None:
                levels = sample.cluster_ids[rows].tolist()
                columns.append([sample.cluster_labels[t] for t in levels])
            columns.extend(list(map(repr, v)) for v in sample.variables[rows].T.tolist())
            writer.writerows(zip(*columns))


def validate(sample: PolyadicSample) -> list:
    """Return diagnostic warnings; never raises, never mutates."""
    diagnostics = []
    counts = np.zeros(sample.n_units, dtype=np.int64)
    for p in range(sample.order):
        counts += np.bincount(sample.index[:, p], minlength=sample.n_units)
    for u in np.nonzero(counts < 2)[0]:
        diagnostics.append(
            f"low-incidence unit: {sample.unit_labels[u]!r} appears in {counts[u]} tuple(s)"
        )
    for j, name in enumerate(sample.variable_names):
        if np.ptp(sample.variables[:, j]) == 0.0:
            diagnostics.append(f"zero variance column: {name!r}")
    if sample.cluster_ids is not None:
        present = set(sample.cluster_ids.tolist())
        for t in range(sample.n_cluster_levels):
            if t not in present:
                diagnostics.append(f"empty cluster level: {sample.cluster_labels[t]!r}")
    return diagnostics

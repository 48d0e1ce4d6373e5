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
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParamError

RESERVED_COLUMNS = ("group", "cluster")


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
        Level labels; the level count T is their number.
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
        object.__setattr__(self, "unit_labels", tuple(self.unit_labels))
        object.__setattr__(self, "variable_names", tuple(self.variable_names))
        index = np.ascontiguousarray(np.asarray(self.index, dtype=np.int64))
        variables = np.ascontiguousarray(np.asarray(self.variables, dtype=np.float64))
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "variables", variables)
        _check_sample(self)
        index.setflags(write=False)
        variables.setflags(write=False)
        if self.cluster_ids is not None:
            cids = np.ascontiguousarray(np.asarray(self.cluster_ids, dtype=np.int64))
            cids.setflags(write=False)
            object.__setattr__(self, "cluster_ids", cids)
            object.__setattr__(self, "cluster_labels", tuple(self.cluster_labels))
        if self.group_of_unit is not None:
            object.__setattr__(self, "group_of_unit", tuple(int(g) for g in self.group_of_unit))
            if self.group_labels is not None:
                object.__setattr__(self, "group_labels", tuple(self.group_labels))

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

    def columns(self, names) -> np.ndarray:
        if not names:
            return np.empty((self.n_obs, 0))
        return np.column_stack([self.column(c) for c in names])

    def has_full_index_set(self) -> bool:
        """True when every P-permutation of the units is observed once."""
        if self.cluster_ids is not None:
            n_per_level = math.perm(self.n_units, self.order)
            return self.n_obs == n_per_level * self.n_cluster_levels
        return self.n_obs == math.perm(self.n_units, self.order)

    def relabeled(self, permutation) -> "PolyadicSample":
        """Return the sample with unit ids permuted (labels follow)."""
        perm = np.asarray(permutation, dtype=np.int64)
        if sorted(perm.tolist()) != list(range(self.n_units)):
            raise ParamError("not a permutation of unit ids")
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(self.n_units)
        labels = tuple(self.unit_labels[inverse[i]] for i in range(self.n_units))
        groups = None
        if self.group_of_unit is not None:
            groups = tuple(self.group_of_unit[inverse[i]] for i in range(self.n_units))
        return PolyadicSample(
            order=self.order,
            unit_labels=labels,
            index=perm[self.index],
            variables=self.variables,
            variable_names=self.variable_names,
            group_of_unit=groups,
            cluster_ids=self.cluster_ids,
            cluster_labels=self.cluster_labels,
            group_labels=self.group_labels,
        )


def _check_sample(s: PolyadicSample):
    if s.order < 2:
        raise DataError(f"order must be >= 2, got {s.order}")
    n = len(s.unit_labels)
    if n < 2:
        raise DataError(f"need at least 2 units, got {n}")
    if len(set(s.unit_labels)) != n:
        raise DataError("unit labels must be distinct")
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
        if min(s.group_of_unit) < 0:
            raise DataError("group ids must be nonnegative")


def full_index_set(n: int, order: int) -> np.ndarray:
    """All ordered ``order``-tuples of distinct ids in [0, n)."""
    return np.array(list(itertools.permutations(range(n), order)), dtype=np.int64)


def load_csv(path, order: int = 2, variable_columns=None) -> PolyadicSample:
    """Load a polyadic sample from CSV.

    Unit ids are assigned densely by first appearance. ``variable_columns``
    restricts which columns are read as variables; by default every column
    other than ``u1..uP``, ``group`` and ``cluster`` is used.
    """
    if order < 2:
        raise ParamError("order must be >= 2")
    unit_cols = [f"u{p + 1}" for p in range(order)]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for c in unit_cols:
            if c not in header:
                raise DataError(f"missing unit column {c!r}")
        has_group = "group" in header
        has_cluster = "cluster" in header
        if variable_columns is None:
            variable_columns = [
                c for c in header if c not in unit_cols and c not in RESERVED_COLUMNS
            ]
        else:
            for c in variable_columns:
                if c not in header:
                    raise DataError(f"missing variable column {c!r}")
        if not variable_columns:
            raise DataError("no variable columns")

        unit_ids: dict = {}
        group_of: dict = {}
        cluster_ids_map: dict = {}
        index_rows, var_rows, cluster_rows = [], [], []
        for lineno, row in enumerate(reader, start=2):
            tup = []
            for c in unit_cols:
                label = (row[c] or "").strip()
                if not label:
                    raise DataError(f"line {lineno}: empty unit label in {c!r}")
                uid = unit_ids.setdefault(label, len(unit_ids))
                tup.append(uid)
            if len(set(tup)) != order:
                raise DataError(f"line {lineno}: repeated unit within tuple")
            values = []
            for c in variable_columns:
                try:
                    v = float(row[c])
                except (TypeError, ValueError):
                    raise DataError(f"line {lineno}: column {c!r} is not numeric") from None
                if not math.isfinite(v):
                    raise DataError(f"line {lineno}: non-finite value in column {c!r}")
                values.append(v)
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
            index_rows.append(tup)
            var_rows.append(values)

    if not index_rows:
        raise DataError("no observations")
    labels = tuple(sorted(unit_ids, key=unit_ids.get))
    group_of_unit = None
    group_labels = None
    if has_group and group_of:
        seen = sorted(set(group_of.values()))
        gid = {g: i for i, g in enumerate(seen)}
        missing = [labels[u] for u in range(len(labels)) if u not in group_of]
        if missing:
            raise DataError(
                "group column present but no group known for units "
                + ", ".join(repr(m) for m in missing)
                + " (groups are read from rows where the unit appears in u1)"
            )
        group_of_unit = tuple(gid[group_of[u]] for u in range(len(labels)))
        group_labels = tuple(seen)
    cluster_ids = None
    cluster_labels = None
    if has_cluster and cluster_rows:
        cluster_ids = np.array(cluster_rows, dtype=np.int64)
        cluster_labels = tuple(sorted(cluster_ids_map, key=cluster_ids_map.get))
    return PolyadicSample(
        order=order,
        unit_labels=labels,
        index=np.array(index_rows, dtype=np.int64),
        variables=np.array(var_rows, dtype=np.float64),
        variable_names=tuple(variable_columns),
        group_of_unit=group_of_unit,
        cluster_ids=cluster_ids,
        cluster_labels=cluster_labels,
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(sample.n_obs):
            row = [sample.unit_labels[u] for u in sample.index[i]]
            if sample.group_of_unit is not None:
                g = sample.group_of_unit[sample.index[i, 0]]
                row.append(sample.group_labels[g] if sample.group_labels else str(g))
            if sample.cluster_ids is not None:
                row.append(sample.cluster_labels[sample.cluster_ids[i]])
            row.extend(repr(v) for v in sample.variables[i].tolist())
            writer.writerow(row)


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
    if sample.group_of_unit is not None:
        present = set(sample.group_of_unit)
        for g in range(max(present) + 1):
            if g not in present:
                diagnostics.append(f"empty group level: {g}")
    if sample.cluster_ids is not None:
        present = set(sample.cluster_ids.tolist())
        for t in range(sample.n_cluster_levels):
            if t not in present:
                diagnostics.append(f"empty cluster level: {sample.cluster_labels[t]!r}")
    return diagnostics

"""Rectangular phase-space grids and their CSV serialization.

A grid is row-major over (p, q): ``values[i, j]`` is the field at
``p = origin[0] + i * spacing[0]``, ``q = origin[1] + j * spacing[1]``.
Fields are written as ``p,q,value_re,value_im`` CSV rows (row-major, floats
via repr for byte-stable round trips) with a JSON sidecar at ``<path>.json``
recording origin, spacing, and shape so files are self-describing.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError
from .model import finite_array, whole_number

__all__ = ["GridSpec", "GridField", "centered_grid", "grid_from_dict",
           "write_field_csv", "read_field_csv", "atomic_write_text"]

_HEADER = ("p", "q", "value_re", "value_im")


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectangular grid: origin (p0, q0), spacing (dp, dq), shape (Np, Nq)."""

    origin: tuple[float, float]
    spacing: tuple[float, float]
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        origin = tuple(finite_array(self.origin, (2,), "grid origin").tolist())
        spacing = tuple(finite_array(self.spacing, (2,), "grid spacing").tolist())
        if spacing[0] <= 0 or spacing[1] <= 0:
            raise ConfigError("grid spacing must be positive")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "shape", _grid_shape(self.shape))

    @property
    def p_axis(self) -> NDArray[np.float64]:
        return self.origin[0] + self.spacing[0] * np.arange(self.shape[0])

    @property
    def q_axis(self) -> NDArray[np.float64]:
        return self.origin[1] + self.spacing[1] * np.arange(self.shape[1])

    @property
    def cell_area(self) -> float:
        return self.spacing[0] * self.spacing[1]

    def points(self) -> NDArray[np.float64]:
        """All grid points, shape (Np, Nq, 2), points()[i, j] = (p_i, q_j)."""
        pp, qq = np.meshgrid(self.p_axis, self.q_axis, indexing="ij")
        return np.stack([pp, qq], axis=-1)

    def to_dict(self) -> dict:
        return {"origin": list(self.origin), "spacing": list(self.spacing),
                "shape": list(self.shape)}


def _grid_shape(value) -> tuple[int, int]:
    if not isinstance(value, (list, tuple, np.ndarray)) or len(value) != 2:
        raise ConfigError(f"grid shape must have two entries, got {value!r}")
    return tuple(whole_number(v, "grid shape entry", 2) for v in value)


def centered_grid(center, half_extent, shape) -> GridSpec:
    """Grid whose node lattice is symmetric about ``center``.

    A scalar ``half_extent`` or ``shape`` applies to both axes.
    """
    if np.isscalar(half_extent):
        half_extent = (half_extent, half_extent)
    if np.isscalar(shape):
        shape = (shape, shape)
    center = finite_array(center, (2,), "grid center")
    half = finite_array(half_extent, (2,), "grid half_extent")
    npts = np.asarray(_grid_shape(shape))
    spacing = 2.0 * half / (npts - 1)
    origin = center - half
    return GridSpec(origin=(origin[0], origin[1]),
                    spacing=(spacing[0], spacing[1]),
                    shape=(int(npts[0]), int(npts[1])))


def grid_from_dict(data: dict) -> GridSpec:
    if not isinstance(data, dict):
        raise ConfigError("grid descriptor must be a JSON object")
    extra = set(data) - {"origin", "spacing", "shape", "center", "half_extent"}
    if extra:
        raise ConfigError(f"unknown field(s) in grid: {sorted(extra)}")
    if "center" in data or "half_extent" in data:
        if not ("center" in data and "half_extent" in data and "shape" in data):
            raise ConfigError("centered grid needs center, half_extent and shape")
        if "origin" in data or "spacing" in data:
            raise ConfigError("give either center/half_extent or origin/spacing")
        return centered_grid(data["center"], data["half_extent"], data["shape"])
    for key in ("origin", "spacing", "shape"):
        if key not in data:
            raise ConfigError(f"grid needs '{key}'")
    return GridSpec(origin=data["origin"], spacing=data["spacing"],
                    shape=data["shape"])


@dataclass(frozen=True)
class GridField:
    """Values sampled on a :class:`GridSpec` (real or complex)."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.shape != self.spec.shape:
            raise ConfigError(
                f"values shape {values.shape} does not match grid {self.spec.shape}")
        object.__setattr__(self, "values", values)

    @property
    def integral(self) -> complex:
        """Rectangle-rule integral over the grid."""
        total = complex(np.sum(self.values) * self.spec.cell_area)
        return total.real if not np.iscomplexobj(self.values) else total

    def rows(self) -> Iterator[tuple[float, float, float, float]]:
        p_axis, q_axis = self.spec.p_axis, self.spec.q_axis
        vals = np.asarray(self.values, dtype=complex)
        for i in range(self.spec.shape[0]):
            for j in range(self.spec.shape[1]):
                v = vals[i, j]
                yield (float(p_axis[i]), float(q_axis[j]),
                       float(v.real), float(v.imag))


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a same-directory temp file + rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_field_csv(field: GridField, path: str) -> None:
    """Write ``p,q,value_re,value_im`` rows plus a ``<path>.json`` sidecar."""
    lines = [",".join(_HEADER)]
    for p, q, re, im in field.rows():
        lines.append(f"{p!r},{q!r},{re!r},{im!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
    sidecar = json.dumps(field.spec.to_dict(), indent=2, sort_keys=True)
    atomic_write_text(path + ".json", sidecar + "\n")


def read_field_csv(path: str) -> GridField:
    """Inverse of :func:`write_field_csv` (requires the JSON sidecar)."""
    with open(path + ".json") as handle:
        spec = grid_from_dict(json.load(handle))
    re_parts: list[float] = []
    im_parts: list[float] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if tuple(header) != _HEADER:
            raise ConfigError(f"unexpected field CSV header: {header}")
        for row in reader:
            re_parts.append(float(row[2]))
            im_parts.append(float(row[3]))
    values = np.asarray(re_parts) + 1j * np.asarray(im_parts)
    if np.all(values.imag == 0.0):
        values = values.real
    return GridField(spec=spec, values=values.reshape(spec.shape))

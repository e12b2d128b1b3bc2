"""Rectangular phase-space grids and their CSV serialization.

A grid is row-major over (p, q): ``values[i, j]`` is the field at
``p = origin[0] + i * spacing[0]``, ``q = origin[1] + j * spacing[1]``.
Fields are written as ``p,q,value_re,value_im`` CSV rows (row-major, floats
via repr for byte-stable round trips) with a JSON sidecar at ``<path>.json``
recording origin, spacing, and shape so files are self-describing.

The bytes of a field CSV are unchanged from the per-node layout of earlier
versions, ``f"{p!r},{q!r},{re!r},{im!r}"`` for every node with the values
widened to complex. The writer calls ``repr`` only once per axis node;
``_floatrepr`` prints the same digits for whole arrays of values, and the
writer lays a block of grid rows out as NUL-padded words, one line of
words per node, and drops the NULs in one pass. A node's p and q cells
share their words, so a line is as few words wide as the longest p and q
cells need together, not each on its own. A boolean field's values are
looked up from two fixed words instead.

Every result file is written as bytes by one atomic writer,
``_atomic_write``: into a temp file in the target's directory, then
renamed over the target. A field CSV reaches it as a stream of chunks,
the header and then one block of grid rows at a time, so the whole text
is never held in memory; strings go through :func:`atomic_write_text`.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._floatrepr import repr_words
from .errors import ConfigError, Unstable
from .model import _require_keys, finite_array, whole_number

__all__ = ["GridSpec", "GridField", "centered_grid", "grid_from_dict",
           "write_field_csv", "read_field_csv", "atomic_write_text"]

_HEADER = ("p", "q", "value_re", "value_im")
_BLOCK_NODES = 8192  # nodes formatted at once: more holds more memory
_U = np.uint64
_BOOL_CELLS = np.array([b"0.0,", b"1.0,"], dtype="S8").view("<u8")  # False, True
_VALUE_WORDS = {"b": 2, "f": 5, "c": 8}  # words after p,q: value_re, value_im, newline


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
    """``value`` as (Np, Nq), each at least 2, with a complex value per node
    (Np Nq 16 bytes) no larger than numpy can index."""
    if not isinstance(value, (list, tuple, np.ndarray)) or len(value) != 2:
        raise ConfigError(f"grid shape must have two entries, got {value!r}")
    shape = tuple(whole_number(v, "grid shape entry", 2) for v in value)
    if shape[0] * shape[1] > np.iinfo(np.intp).max // 16:
        raise ConfigError(f"grid shape {list(shape)} has more nodes than an "
                          f"array can hold")
    return shape


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
    with np.errstate(over="ignore"):  # GridSpec refuses an infinite spacing
        spacing = 2.0 * half / (npts - 1)
    origin = center - half
    return GridSpec(origin=(origin[0], origin[1]),
                    spacing=(spacing[0], spacing[1]),
                    shape=(int(npts[0]), int(npts[1])))


def grid_from_dict(data: dict) -> GridSpec:
    """Parse a JSON grid descriptor; ``shape`` and ``half_extent`` are pairs."""
    if not isinstance(data, dict):
        raise ConfigError("grid descriptor must be a JSON object")
    if "center" in data or "half_extent" in data:
        keys = {"center", "half_extent", "shape"}
        _require_keys(data, keys, keys, "centered grid")
        half = finite_array(data["half_extent"], (2,), "grid half_extent")
        return centered_grid(data["center"], half, _grid_shape(data["shape"]))
    keys = {"origin", "spacing", "shape"}
    _require_keys(data, keys, keys, "grid")
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


def _atomic_write(path: str, chunks) -> None:
    """Write the bytes of ``chunks``, one after another, to ``path`` through a
    same-directory temp file + rename, with the mode a plain ``open`` would
    give the file (0o666 less the umask); no failure, one raised while making a
    chunk included, leaves the temp file, and an ``OSError`` (a missing
    directory, ``path`` naming a directory) raises :class:`ConfigError`
    naming ``path``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = ""
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        with os.fdopen(fd, "wb") as handle:
            umask = os.umask(0)  # read by setting it; restored at once
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)  # mkstemp's 0o600, widened as open() would
            handle.writelines(chunks)  # each chunk is freed before the next is made
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None
    finally:
        if os.path.exists(tmp):  # renamed away once the write succeeds
            os.unlink(tmp)


def atomic_write_text(path: str, text: str) -> None:
    """Write the str ``text`` to ``path`` as UTF-8 by :func:`_atomic_write`."""
    _atomic_write(path, [bytes(text, "utf-8")])


def _read_json(path: str, what: str):
    """The JSON value in the file at ``path``; :class:`ConfigError` naming
    ``what`` when it cannot be read or is not JSON."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None


def _json_text(payload) -> str:
    """Result text as strict JSON (sorted keys, indent 2, a trailing
    newline); a NaN or infinity in ``payload`` raises :class:`Unstable`."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise Unstable(f"non-finite value in the output: {exc}") from None


def _csv_text(header, rows) -> str:
    """A header line and one line per row: numbers by ``repr``, None as an
    empty cell and strings as they are."""
    lines = [header] + [[cell if isinstance(cell, str)
                         else "" if cell is None else repr(cell) for cell in row]
                        for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def _axis_cells(spec: GridSpec) -> list[NDArray[np.uint64]]:
    """The p and q cells, each node's ``repr`` and a comma, in NUL-padded
    words of one shared width: the p cells in the first bytes and the q
    cells in the bytes after the longest p cell, so that a p row ORed with
    the q cells lays out every node's p,q text in as few words as the two
    longest cells need together."""
    p, q = ([(repr(v) + ",").encode() for v in axis.tolist()]
            for axis in (spec.p_axis, spec.q_axis))
    start = max(map(len, p))
    size = -(-(start + max(map(len, q))) // 8) * 8
    return [np.array(cells, dtype=f"S{size}").view("<u8").reshape(len(cells), -1)
            for cells in (p, [b"\0" * start + cell for cell in q])]


def _block_bytes(block: np.ndarray, p_cells: NDArray[np.uint64],
                 q_cells: NDArray[np.uint64], lines: NDArray[np.uint64]) -> bytes:
    """The CSV lines of ``block``, whole grid rows of a bool, float64 or
    complex field whose p cells are ``p_cells``: NUL-padded words, one line
    of words per node, with the NULs dropped. The p and q cells share words
    (the p row's words ORed with the q column's), then come ``value_re``,
    ``,``, ``value_im`` and a newline; a bool prints its value by lookup.
    The words are laid out in ``lines``, of shape ``block.shape`` plus the
    line width in words (:data:`_VALUE_WORDS` after the p,q words)."""
    kind = block.dtype.kind
    wpq = q_cells.shape[1]
    for j in range(wpq):  # a word column at a time, so the loops run along q
        np.bitwise_or(p_cells[:, j, None], q_cells[:, j], out=lines[:, :, j])
    cells = lines.reshape(block.size, -1)[:, wpq:]
    if kind == "b":
        cells[:, 0] = _BOOL_CELLS.take(block.ravel())
    else:
        repr_words(block.real, out=cells[:, :4])
        cells[:, 3] |= _U(ord(",") << 56)
    if kind == "c":
        repr_words(block.imag, out=cells[:, 4:])
        cells[:, 7] |= _U(ord("\n") << 56)
    else:
        cells[:, -1] = _U(int.from_bytes(b"0.0\n", "little"))
    return lines.tobytes().translate(None, b"\0")


def _field_bytes(field: GridField):
    """The field CSV of ``field`` as bytes: the header, then one chunk per
    block of whole grid rows of about ``_BLOCK_NODES`` nodes."""
    kind = field.values.dtype.kind
    values = (field.values if kind == "b" else
              np.asarray(field.values, dtype=float if kind in "iuf" else complex))
    p_cells, q_cells = _axis_cells(field.spec)
    blocks = -(-values.size // _BLOCK_NODES)
    rows = -(-len(values) // blocks)  # whole grid rows per block
    # one buffer for every block: the last may be shorter and takes a view
    lines = np.empty((rows, values.shape[1],
                      q_cells.shape[1] + _VALUE_WORDS[values.dtype.kind]),
                     dtype="<u8")
    yield (",".join(_HEADER) + "\n").encode()
    for start in range(0, len(values), rows):
        block = values[start:start + rows]
        yield _block_bytes(block, p_cells[start:start + rows], q_cells,
                           lines[:len(block)])


def write_field_csv(field: GridField, path: str) -> None:
    """Write ``p,q,value_re,value_im`` rows plus a ``<path>.json`` sidecar.

    Values print as float64 reprs (integer, boolean and float32 fields
    too), widened to complex when they are not real, and a real field's
    imaginary cell is always ``0.0``. The bytes are streamed into the
    atomic write one block of grid rows at a time (:func:`_block_bytes`),
    so the whole text is never held.
    """
    _atomic_write(path, _field_bytes(field))
    atomic_write_text(path + ".json", _json_text(field.spec.to_dict()))


def read_field_csv(path: str) -> GridField:
    """Inverse of :func:`write_field_csv` (requires the JSON sidecar).

    Values are parsed with ``float``, so a written field reads back exactly;
    it reads back real when every imaginary cell is ``0.0``. A header, row
    count or row that does not fit the sidecar's grid, including p and q
    cells other than the ``repr`` of the row's node, raises
    :class:`ConfigError` naming the file; so does a sidecar that is missing
    or not JSON.
    """
    spec = grid_from_dict(_read_json(path + ".json", f"grid sidecar {path}.json"))
    with open(path, newline="") as handle:
        header = handle.readline().rstrip("\r\n")
        rows = handle.read().splitlines()
    if tuple(header.split(",")) != _HEADER:
        raise ConfigError(f"{path}: unexpected field CSV header {header!r}")
    if len(rows) != spec.shape[0] * spec.shape[1]:
        raise ConfigError(f"{path}: {len(rows)} data rows, grid {spec.shape} "
                          f"needs {spec.shape[0] * spec.shape[1]}")
    p_cells = [repr(p) for p in spec.p_axis.tolist()]
    q_cells = [repr(q) for q in spec.q_axis.tolist()]
    values = np.empty(len(rows), dtype=complex)
    for k, row in enumerate(rows):
        try:
            p, q, re, im = row.split(",")
            values[k] = complex(float(re), float(im))
        except ValueError:
            raise ConfigError(f"{path}, line {k + 2}: expected four numbers, "
                              f"got {row!r}") from None
        node = p_cells[k // spec.shape[1]], q_cells[k % spec.shape[1]]
        if (p, q) != node:
            raise ConfigError(f"{path}, line {k + 2}: node ({p}, {q}) is not the "
                              f"grid's ({node[0]}, {node[1]})")
    if not np.any(values.imag) and not np.any(np.signbit(values.imag)):
        values = values.real
    return GridField(spec=spec, values=values.reshape(spec.shape))

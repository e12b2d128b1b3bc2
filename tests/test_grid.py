"""Tests for grid descriptors and the CSV field format."""
from __future__ import annotations

import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lindquad import (ConfigError, GridField, GridSpec, Unstable, centered_grid,
                      grid_from_dict, read_field_csv, write_field_csv)
from lindquad import grid
from lindquad.grid import _csv_text, _json_text, atomic_write_text

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)


def test_axes_and_points_layout() -> None:
    spec = GridSpec(origin=(-1.0, 2.0), spacing=(0.5, 0.25), shape=(3, 5))
    assert np.allclose(spec.p_axis, [-1.0, -0.5, 0.0])
    assert np.allclose(spec.q_axis, [2.0, 2.25, 2.5, 2.75, 3.0])
    assert spec.cell_area == pytest.approx(0.125)
    pts = spec.points()
    assert pts.shape == (3, 5, 2)
    # row index is p, column index is q
    assert np.allclose(pts[1, 3], [-0.5, 2.75])


def test_centered_grid_is_node_symmetric() -> None:
    spec = centered_grid((0.5, -1.0), (2.0, 3.0), (9, 17))
    assert spec.p_axis[0] == pytest.approx(-1.5)
    assert spec.p_axis[-1] == pytest.approx(2.5)
    assert np.mean(spec.p_axis) == pytest.approx(0.5)
    assert np.mean(spec.q_axis) == pytest.approx(-1.0)
    assert spec.q_axis[-1] == pytest.approx(2.0)


def test_grid_validation() -> None:
    with pytest.raises(ConfigError):
        GridSpec(origin=(0.0, 0.0), spacing=(0.0, 0.1), shape=(4, 4))
    with pytest.raises(ConfigError):
        GridSpec(origin=(0.0, 0.0), spacing=(0.1, 0.1), shape=(1, 4))
    with pytest.raises(ConfigError):
        GridSpec(origin=(np.nan, 0.0), spacing=(0.1, 0.1), shape=(4, 4))


def test_grid_dict_round_trip() -> None:
    spec = GridSpec(origin=(-2.0, -3.0), spacing=(0.1, 0.2), shape=(8, 6))
    back = grid_from_dict(spec.to_dict())
    assert back == spec

    centered = grid_from_dict({"center": [0.0, 0.0], "half_extent": [2.0, 2.0],
                               "shape": [5, 5]})
    assert centered.p_axis[0] == pytest.approx(-2.0)
    with pytest.raises(ConfigError):
        grid_from_dict({"origin": [0, 0], "spacing": [0.1, 0.1],
                        "shape": [4, 4], "bogus": 1})
    with pytest.raises(ConfigError):
        grid_from_dict({"shape": [4, 4]})


@pytest.mark.parametrize("data", [
    {"center": [0, 0], "half_extent": 7.0, "shape": [5, 5]},
    {"center": [0, 0], "half_extent": [7.0, 7.0], "shape": 5},
    {"origin": [0, 0], "spacing": [1, 1], "shape": 5},
])
def test_grid_descriptors_take_pairs_only(data) -> None:
    # a scalar once gave a square centred grid but was refused in the
    # origin form; the Python centered_grid keeps its scalar convenience
    with pytest.raises(ConfigError, match="grid"):
        grid_from_dict(data)
    assert centered_grid((0.0, 0.0), 7.0, 5).shape == (5, 5)


def test_field_integral_and_shape_check() -> None:
    spec = GridSpec(origin=(0.0, 0.0), spacing=(0.5, 0.5), shape=(4, 4))
    field = GridField(spec=spec, values=np.ones((4, 4)))
    assert field.integral == pytest.approx(16 * 0.25)
    with pytest.raises(ConfigError):
        GridField(spec=spec, values=np.ones((4, 3)))


def test_field_csv_round_trip_real(tmp_path) -> None:
    spec = centered_grid((0.0, 0.0), (1.0, 1.0), (6, 7))
    rng = np.random.default_rng(5)
    field = GridField(spec=spec, values=rng.normal(size=(6, 7)))
    path = str(tmp_path / "field.csv")
    write_field_csv(field, path)

    header = (tmp_path / "field.csv").read_text().splitlines()[0]
    assert header == "p,q,value_re,value_im"
    assert (tmp_path / "field.csv.json").exists()

    back = read_field_csv(path)
    assert back.spec == spec
    assert back.values.dtype == np.float64
    assert np.array_equal(back.values, field.values)


def test_field_csv_round_trip_complex(tmp_path) -> None:
    spec = centered_grid((0.0, 0.0), (1.0, 1.0), (4, 4))
    rng = np.random.default_rng(6)
    values = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    path = str(tmp_path / "field.csv")
    write_field_csv(GridField(spec=spec, values=values), path)
    back = read_field_csv(path)
    assert back.values.dtype == np.complex128
    assert np.array_equal(back.values, values)


def test_field_csv_rewrite_is_byte_identical(tmp_path) -> None:
    spec = centered_grid((0.0, 0.0), (2.0, 2.0), (5, 5))
    pts = spec.points()
    values = np.exp(-pts[..., 0] ** 2 - pts[..., 1] ** 2)
    path = str(tmp_path / "field.csv")
    write_field_csv(GridField(spec=spec, values=values), path)
    first = (tmp_path / "field.csv").read_bytes()
    write_field_csv(GridField(spec=spec, values=values), path)
    assert (tmp_path / "field.csv").read_bytes() == first


_GOLDEN_SPEC = GridSpec(origin=(-1.0, 0.25), spacing=(0.5, 0.125), shape=(2, 3))
_GOLDEN = [
    (np.array([[-0.0, 1e-20, 1.5e16], [0.1, -2.5, 3.0]]),
     "p,q,value_re,value_im\n"
     "-1.0,0.25,-0.0,0.0\n"
     "-1.0,0.375,1e-20,0.0\n"
     "-1.0,0.5,1.5e+16,0.0\n"
     "-0.5,0.25,0.1,0.0\n"
     "-0.5,0.375,-2.5,0.0\n"
     "-0.5,0.5,3.0,0.0\n"),
    (np.array([[1, 0, 2], [-3, 0, 1]]),
     "p,q,value_re,value_im\n"
     "-1.0,0.25,1.0,0.0\n"
     "-1.0,0.375,0.0,0.0\n"
     "-1.0,0.5,2.0,0.0\n"
     "-0.5,0.25,-3.0,0.0\n"
     "-0.5,0.375,0.0,0.0\n"
     "-0.5,0.5,1.0,0.0\n"),
    (np.array([[True, False, True], [False, False, True]]),
     "p,q,value_re,value_im\n"
     "-1.0,0.25,1.0,0.0\n"
     "-1.0,0.375,0.0,0.0\n"
     "-1.0,0.5,1.0,0.0\n"
     "-0.5,0.25,0.0,0.0\n"
     "-0.5,0.375,0.0,0.0\n"
     "-0.5,0.5,1.0,0.0\n"),
    (np.array([[complex(1.0, -0.0), 2j, complex(-1e-20, 1.5e16)],
               [complex(-0.0, 0.5), 0j, complex(3.0, -2.5)]]),
     "p,q,value_re,value_im\n"
     "-1.0,0.25,1.0,-0.0\n"
     "-1.0,0.375,0.0,2.0\n"
     "-1.0,0.5,-1e-20,1.5e+16\n"
     "-0.5,0.25,-0.0,0.5\n"
     "-0.5,0.375,0.0,0.0\n"
     "-0.5,0.5,3.0,-2.5\n"),
]


@pytest.mark.parametrize("values,expected", _GOLDEN,
                         ids=["float", "int", "bool", "complex"])
def test_field_csv_golden_format(tmp_path, values, expected) -> None:
    path = tmp_path / "field.csv"
    write_field_csv(GridField(spec=_GOLDEN_SPEC, values=values), str(path))
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("values,expected", [_GOLDEN[0], _GOLDEN[3]],
                         ids=["float", "complex"])
def test_field_csv_read_keeps_signed_zeros(tmp_path, values, expected) -> None:
    path, again = tmp_path / "field.csv", tmp_path / "again.csv"
    write_field_csv(GridField(spec=_GOLDEN_SPEC, values=values), str(path))
    write_field_csv(read_field_csv(str(path)), str(again))
    assert again.read_bytes() == expected.encode()


def _per_node_csv(field: GridField) -> str:
    """The field CSV formatted one node at a time, the reference layout."""
    values = np.asarray(field.values, dtype=complex)
    lines = ["p,q,value_re,value_im"]
    for i, p in enumerate(field.spec.p_axis):
        for j, q in enumerate(field.spec.q_axis):
            v = values[i, j]
            lines.append(f"{float(p)!r},{float(q)!r},"
                         f"{float(v.real)!r},{float(v.imag)!r}")
    return "\n".join(lines) + "\n"


@st.composite
def fields(draw) -> GridField:
    shape = (draw(st.integers(2, 9)), draw(st.integers(2, 9)))
    origin = draw(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
    spacing = draw(st.tuples(st.floats(1e-3, 1e2), st.floats(1e-3, 1e2)))
    dtype = draw(st.sampled_from([np.float64, np.complex128, np.float32,
                                  np.int64, np.bool_]))
    return GridField(spec=GridSpec(origin=origin, spacing=spacing, shape=shape),
                     values=draw(arrays(dtype, shape)))


@PROPERTY
@given(fields())
def test_field_csv_matches_per_node_format(field) -> None:
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "field.csv")
        write_field_csv(field, path)
        with open(path, "rb") as handle:
            assert handle.read() == _per_node_csv(field).encode()


@pytest.mark.parametrize("damage", ["truncated", "short row", "non-numeric",
                                    "header"])
def test_read_field_csv_rejects_damaged_files(tmp_path, damage) -> None:
    spec = GridSpec(origin=(0.0, 0.0), spacing=(0.5, 0.5), shape=(3, 4))
    path = tmp_path / "field.csv"
    write_field_csv(GridField(spec=spec, values=np.ones((3, 4))), str(path))
    lines = path.read_text().splitlines()
    if damage == "truncated":
        lines = lines[:-2]
    elif damage == "header":
        lines[0] = "q,p,re,im"
    elif damage == "short row":
        lines[5] = "0.5,0.0,1.0"
    else:
        lines[5] = "0.5,0.0,abc,0.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="field.csv"):
        read_field_csv(str(path))


@pytest.mark.parametrize("sidecar", [None, "{not json"])
def test_read_field_csv_rejects_a_missing_or_broken_sidecar(tmp_path, sidecar) -> None:
    spec = GridSpec(origin=(0.0, 0.0), spacing=(0.5, 0.5), shape=(3, 4))
    path = tmp_path / "field.csv"
    write_field_csv(GridField(spec=spec, values=np.ones((3, 4))), str(path))
    meta = tmp_path / "field.csv.json"
    if sidecar is None:
        meta.unlink()
    else:
        meta.write_text(sidecar)
    with pytest.raises(ConfigError, match="field.csv.json"):
        read_field_csv(str(path))


def test_csv_text_prints_each_kind_of_cell() -> None:
    assert _csv_text(("a", "b", "c", "d"), [(None, 3, 0.1, "quadrature"),
                                            (-0.0, 1e-300, None, "")]) == (
        "a,b,c,d\n,3,0.1,quadrature\n-0.0,1e-300,,\n")


def test_json_text_is_strict_and_sorted() -> None:
    assert _json_text({"b": 1.0, "a": [None, 2]}) == (
        '{\n  "a": [\n    null,\n    2\n  ],\n  "b": 1.0\n}\n')
    for bad in (float("nan"), float("inf")):
        with pytest.raises(Unstable):
            _json_text({"t": bad})


def test_field_csv_keeps_an_all_negative_zero_imaginary_part(tmp_path) -> None:
    spec = GridSpec(origin=(0.0, 0.0), spacing=(1.0, 1.0), shape=(2, 2))
    values = np.array([[complex(1.0, -0.0), complex(0.5, -0.0)],
                       [complex(-2.0, -0.0), complex(0.0, -0.0)]])
    path, again = tmp_path / "field.csv", tmp_path / "again.csv"
    write_field_csv(GridField(spec=spec, values=values), str(path))
    back = read_field_csv(str(path))
    assert back.values.dtype == np.complex128
    assert np.all(np.signbit(back.values.imag))
    write_field_csv(back, str(again))
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("line,row", [(6, "abc,,1.0,0.0"), (6, "7.0,-3.0,5.0,0.0"),
                                      (2, "0.0,0.5,1.0,0.0"), (13, "1.0,1.0,1.0,0.0")])
def test_read_field_csv_checks_node_coordinates(tmp_path, line, row) -> None:
    spec = GridSpec(origin=(0.0, 0.0), spacing=(0.5, 0.5), shape=(3, 4))
    path = tmp_path / "field.csv"
    write_field_csv(GridField(spec=spec, values=np.ones((3, 4))), str(path))
    lines = path.read_text().splitlines()
    lines[line - 1] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=f"field.csv, line {line}:"):
        read_field_csv(str(path))


def test_field_csv_larger_than_a_block_matches_per_node_format(tmp_path) -> None:
    # more than two blocks of whole rows, and a prime row count, so the
    # last block is short; values are any bit pattern, infinities and NaNs
    rng = np.random.default_rng(14)
    shape = (191, 97)
    assert np.prod(shape) > 2 * grid._BLOCK_NODES
    bits = rng.integers(0, 2 ** 64, size=(2,) + shape, dtype=np.uint64)
    bits[:, ::7, ::5] |= np.uint64(0x7FF << 52)  # inf and nan
    values = np.empty(shape, dtype=complex)
    values.real, values.imag = bits.view(np.float64)
    spec = GridSpec(origin=(-3.7, 1e-5), spacing=(0.0371, 1.3e3), shape=shape)
    for field in (GridField(spec=spec, values=values),
                  GridField(spec=spec, values=values.real)):
        path = tmp_path / "field.csv"
        write_field_csv(field, str(path))
        assert path.read_bytes() == _per_node_csv(field).encode()


def test_write_field_csv_streams_each_file_through_one_atomic_write(
        tmp_path, monkeypatch) -> None:
    # the CSV goes over as bytes, one chunk per block after the header,
    # never as one whole text; the sidecar as one chunk of its own
    writes = []
    atomic = grid._atomic_write

    def recording(path, chunks):
        sizes = []

        def counted():
            for chunk in chunks:
                assert type(chunk) is bytes
                sizes.append(len(chunk))
                yield chunk

        atomic(path, counted())
        writes.append((path, sizes))

    monkeypatch.setattr(grid, "_atomic_write", recording)
    spec = GridSpec(origin=(0.0, 0.0), spacing=(0.5, 0.25), shape=(40, 600))
    path = str(tmp_path / "field.csv")
    write_field_csv(GridField(spec=spec, values=np.ones(spec.shape)), path)
    assert [w[0] for w in writes] == [path, path + ".json"]
    for written, sizes in writes:
        assert sum(sizes) == os.path.getsize(written)
    blocks = -(-spec.shape[0] * spec.shape[1] // grid._BLOCK_NODES)
    assert len(writes[0][1]) == 1 + blocks
    assert len(writes[1][1]) == 1


def test_a_failing_block_leaves_the_target_and_no_temp_file(tmp_path,
                                                            monkeypatch) -> None:
    spec = GridSpec(origin=(0.0, 0.0), spacing=(0.5, 0.25), shape=(40, 600))
    assert spec.shape[0] * spec.shape[1] > 2 * grid._BLOCK_NODES
    path = tmp_path / "field.csv"
    write_field_csv(GridField(spec=spec, values=np.zeros(spec.shape)), str(path))
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    calls = []
    repr_words = grid.repr_words

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:  # the second block, once the first is on disk
            raise RuntimeError("block failed")
        return repr_words(*args, **kwargs)

    monkeypatch.setattr(grid, "repr_words", failing)
    with pytest.raises(RuntimeError, match="block failed"):
        write_field_csv(GridField(spec=spec, values=np.ones(spec.shape)), str(path))
    assert len(calls) == 2
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


def test_a_field_write_holds_a_few_blocks_not_the_text(tmp_path) -> None:
    rng = np.random.default_rng(31)
    shape = (513, 513)
    spec = centered_grid((0.0, 0.0), (5.0, 5.0), shape)
    field = GridField(spec=spec, values=rng.normal(size=shape)
                      + 1j * rng.normal(size=shape))
    path = tmp_path / "field.csv"
    tracemalloc.start()
    try:
        write_field_csv(field, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4


@pytest.mark.parametrize("fill", ["false", "true", "mixed"])
def test_bool_fields_print_as_their_float_values(tmp_path, fill) -> None:
    spec = GridSpec(origin=(-0.5, 3.0), spacing=(0.25, 1e-3), shape=(30, 700))
    values = {"false": np.zeros(spec.shape, dtype=bool),
              "true": np.ones(spec.shape, dtype=bool),
              "mixed": np.random.default_rng(32).random(spec.shape) < 0.5}[fill]
    path = tmp_path / "mask.csv"
    write_field_csv(GridField(spec=spec, values=values), str(path))
    floats = GridField(spec=spec, values=values.astype(float))
    assert path.read_bytes() == _per_node_csv(floats).encode()


def test_atomic_write_leaves_no_temp_file_when_the_write_fails(tmp_path) -> None:
    path = tmp_path / "out.csv"
    with pytest.raises(TypeError):
        atomic_write_text(str(path), 123)  # not a str: the write itself raises
    assert list(tmp_path.iterdir()) == []


def test_field_csv_row_longer_than_a_block_matches_per_node_format(tmp_path) -> None:
    # each block holds one grid row, more than a block of nodes, with a
    # ragged remainder; values of every size, signed zeros and specials
    rng = np.random.default_rng(21)
    shape = (2, 2 * grid._BLOCK_NODES + 3)
    values = np.empty(shape, dtype=complex)
    values.real = rng.normal(size=shape) * 10.0 ** rng.integers(-320, 300, size=shape)
    values.imag = rng.normal(size=shape)
    values[:, :6] = [0.0, -0.0, np.inf, -np.inf, np.nan, complex(-0.0, -0.0)]
    spec = GridSpec(origin=(-0.5, 7.25), spacing=(1.0, 1e-3), shape=shape)
    for field in (GridField(spec=spec, values=values),
                  GridField(spec=spec, values=values.real)):
        path = tmp_path / "field.csv"
        write_field_csv(field, str(path))
        assert path.read_bytes() == _per_node_csv(field).encode()


def test_field_csv_axis_cells_of_mixed_width_match_per_node_format(tmp_path) -> None:
    # -1e-05 (one word with its comma) sits next to 20-character reprs
    # such as 1.0000000000000003e-06 in the same block, on both axes
    rng = np.random.default_rng(22)
    shape = (7, 50)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    spec = GridSpec(origin=(-1e-5, -1e-5), spacing=(1.1e-5, 1.1e-5), shape=shape)
    assert all(len({len(repr(v)) // 8 for v in axis.tolist()}) > 1
               for axis in (spec.p_axis, spec.q_axis))
    for field in (GridField(spec=spec, values=values),
                  GridField(spec=spec, values=values.real)):
        path = tmp_path / "field.csv"
        write_field_csv(field, str(path))
        assert path.read_bytes() == _per_node_csv(field).encode()


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_result_files_take_the_umask_like_open(tmp_path, umask) -> None:
    # the temp file is made owner-only; the renamed result gets the mode a
    # plain open() would give it, 0o666 less the umask
    field = GridField(spec=centered_grid((0.0, 0.0), 1.0, (3, 3)), values=np.zeros((3, 3)))
    old = os.umask(umask)
    try:
        atomic_write_text(str(tmp_path / "report.json"), "{}\n")
        write_field_csv(field, str(tmp_path / "field.csv"))
        with open(tmp_path / "plain.txt", "w"):
            pass
    finally:
        os.umask(old)
    modes = {path.name: path.stat().st_mode & 0o777 for path in tmp_path.iterdir()}
    assert modes == dict.fromkeys(["report.json", "field.csv", "field.csv.json",
                                   "plain.txt"], 0o666 & ~umask)

"""OBJ and PLY readers/writers plus a fixed scalar-to-color table.

OBJ is text only (v/f records, polygon faces fan-triangulated). PLY supports
ASCII and binary little-endian, positions plus optional uchar RGB. Text
exports print floats with repr so coordinates round-trip bit-exactly. Every
file the package writes goes through `write_atomic`.
"""
from __future__ import annotations

import os

import numpy as np

from .geometry import GeometryError, Mesh


class MeshParseError(ValueError):
    def __init__(self, path, where, message):
        super().__init__(f"{path}:{where}: {message}")
        self.where = where


# viridis-style anchors, linearly interpolated to a fixed 256-entry table
_ANCHORS = np.array(
    [
        (68, 1, 84), (72, 40, 120), (62, 74, 137), (49, 104, 142),
        (38, 130, 142), (31, 158, 137), (53, 183, 121), (109, 205, 89),
        (180, 222, 44), (253, 231, 37),
    ],
    dtype=np.float64,
)


def _build_color_table() -> np.ndarray:
    t = np.linspace(0.0, len(_ANCHORS) - 1.0, 256)
    lo = np.minimum(t.astype(int), len(_ANCHORS) - 2)
    frac = (t - lo)[:, None]
    table = _ANCHORS[lo] * (1 - frac) + _ANCHORS[lo + 1] * frac
    return np.round(table).astype(np.uint8)


COLOR_TABLE = _build_color_table()


def scalar_to_colors(values: np.ndarray, vmin: float | None = None,
                     vmax: float | None = None) -> np.ndarray:
    """Map a scalar field through the fixed 256-entry table; returns uint8 (n, 3)."""
    v = np.asarray(values, dtype=np.float64)
    lo = float(v.min() if vmin is None else vmin)
    hi = float(v.max() if vmax is None else vmax)
    if hi <= lo:
        idx = np.zeros(v.shape, dtype=int)
    else:
        idx = np.clip(((v - lo) / (hi - lo) * 255.0).round().astype(int), 0, 255)
    return COLOR_TABLE[idx]


def write_atomic(path, *chunks) -> None:
    """Write str (as UTF-8) or bytes `chunks` to `path` + ".tmp", then move it
    onto `path`: a write that fails part way leaves any previous file intact
    and no partial file behind."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# -- OBJ ----------------------------------------------------------------------

def load_obj(path) -> Mesh:
    verts: list[list[float]] = []
    tris: list[list[int]] = []
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tag, *rest = line.split()
            if tag == "v":
                if len(rest) < 3:
                    raise MeshParseError(path, f"line {lineno}", "vertex needs 3 coordinates")
                try:
                    verts.append([float(x) for x in rest[:3]])
                except ValueError as exc:
                    raise MeshParseError(path, f"line {lineno}", f"bad vertex: {exc}") from exc
            elif tag == "f":
                if len(rest) < 3:
                    raise MeshParseError(path, f"line {lineno}", "face needs at least 3 vertices")
                idx = []
                for token in rest:
                    try:
                        i = int(token.split("/")[0])
                    except ValueError as exc:
                        raise MeshParseError(path, f"line {lineno}", f"bad face index {token!r}") from exc
                    if i < 0:
                        i = len(verts) + i
                    else:
                        i -= 1
                    if not 0 <= i < len(verts):
                        raise MeshParseError(path, f"line {lineno}",
                                             f"face references vertex {token} of {len(verts)}")
                    idx.append(i)
                for a in range(1, len(idx) - 1):
                    tris.append([idx[0], idx[a], idx[a + 1]])
    if not verts:
        raise MeshParseError(path, "end of file", "no vertices found")
    return Mesh(np.asarray(verts, dtype=np.float64),
                np.asarray(tris, dtype=np.int64).reshape(-1, 3))


def save_obj(path, mesh: Mesh) -> None:
    write_atomic(path,
                 "".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in mesh.vertices.tolist()),
                 "".join(f"f {a} {b} {c}\n" for a, b, c in (mesh.triangles + 1).tolist()))


# -- PLY ----------------------------------------------------------------------

_PLY_SCALARS = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2", "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4", "double": "f8", "float64": "f8",
}


def save_ply(path, mesh_or_points, colors: np.ndarray | None = None,
             binary: bool = False) -> None:
    """Write positions (+ optional uchar RGB) and any triangles.

    Text mode stores full float64 precision; binary mode stores float32
    positions in little-endian order.
    """
    if isinstance(mesh_or_points, Mesh):
        verts, tris = mesh_or_points.vertices, mesh_or_points.triangles
    else:
        verts = np.asarray(getattr(mesh_or_points, "points", mesh_or_points), dtype=np.float64)
        tris = np.zeros((0, 3), dtype=np.int64)
    if colors is not None:
        colors = np.asarray(colors, dtype=np.uint8).reshape(-1, 3)
        if len(colors) != len(verts):
            raise ValueError("one RGB triple per vertex required")

    header = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0",
              f"element vertex {len(verts)}"]
    ctype = "float" if binary else "double"
    header += [f"property {ctype} x", f"property {ctype} y", f"property {ctype} z"]
    if colors is not None:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    header += [f"element face {len(tris)}",
               "property list uchar int vertex_indices", "end_header"]

    head = "\n".join(header) + "\n"
    rgb = np.zeros((len(verts), 0), np.uint8) if colors is None else colors  # no colors: 0 columns
    if binary:
        rows = np.empty(len(verts), dtype=[("xyz", "<f4", 3), ("rgb", "u1", rgb.shape[1])])
        rows["xyz"], rows["rgb"] = verts, rgb
        faces = np.empty(len(tris), dtype=[("arity", "u1"), ("vertex_indices", "<i4", 3)])
        faces["arity"], faces["vertex_indices"] = 3, tris
        write_atomic(path, head, rows.tobytes(), faces.tobytes())
    else:
        write_atomic(path, head,
                     "".join(f"{x!r} {y!r} {z!r}{''.join(f' {c}' for c in col)}\n"
                             for (x, y, z), col in zip(verts.tolist(), rgb.tolist())),
                     "".join(f"3 {a} {b} {c}\n" for a, b, c in tris.tolist()))


def load_ply(path) -> Mesh:
    """Read ASCII or binary little-endian PLY; returns a Mesh (faces may be empty)."""
    with open(path, "rb") as f:
        blob = f.read()
    end = blob.find(b"end_header")
    if not blob.startswith(b"ply") or end < 0:
        raise MeshParseError(path, "byte 0", "not a PLY file")
    end_line = blob.index(b"\n", end)
    header_lines = blob[:end].decode("ascii", errors="replace").splitlines()
    body = blob[end_line + 1:]

    fmt = None
    elements: list[tuple[str, int, list[tuple[str, str]]]] = []
    for line in header_lines[1:]:
        parts = line.split()
        if not parts or parts[0] == "comment":
            continue
        if parts[0] == "format":
            fmt = parts[1]
        elif parts[0] == "element":
            elements.append((parts[1], int(parts[2]), []))
        elif parts[0] == "property":
            if not elements:
                raise MeshParseError(path, "header", "property before element")
            if parts[1] == "list":
                elements[-1][2].append(("list", f"{parts[2]}:{parts[3]}"))
            else:
                elements[-1][2].append((parts[-1], parts[1]))
    if fmt not in ("ascii", "binary_little_endian"):
        raise MeshParseError(path, "header", f"unsupported format {fmt!r}")

    verts = np.zeros((0, 3))
    tris: list[list[int]] = []
    if fmt == "ascii":
        tokens = body.decode("ascii", errors="replace").split("\n")
        cursor = 0
        for name, count, props in elements:
            if name == "vertex":
                names = [p[0] for p in props]
                data = np.zeros((count, len(props)))
                for r in range(count):
                    row = tokens[cursor + r].split()
                    if len(row) < len(props):
                        raise MeshParseError(path, f"vertex row {r}", "short row")
                    data[r] = [float(x) for x in row[: len(props)]]
                verts = data[:, [names.index("x"), names.index("y"), names.index("z")]]
            elif name == "face":
                for r in range(count):
                    row = [int(float(x)) for x in tokens[cursor + r].split()]
                    arity, idx = row[0], row[1:]
                    if len(idx) < arity or arity < 3:
                        raise MeshParseError(path, f"face row {r}", "bad face list")
                    for a in range(1, arity - 1):
                        tris.append([idx[0], idx[a], idx[a + 1]])
            cursor += count
    else:
        offset = 0
        for name, count, props in elements:
            if name == "vertex":
                fields = []
                for pname, ptype in props:
                    if pname == "list":
                        raise MeshParseError(path, "header", "list-typed vertex property")
                    fields.append((pname, "<" + _PLY_SCALARS[ptype]))
                dt = np.dtype(fields)
                data = np.frombuffer(body, dtype=dt, count=count, offset=offset)
                offset += dt.itemsize * count
                verts = np.stack([data["x"], data["y"], data["z"]], axis=1).astype(np.float64)
            elif name == "face":
                for r in range(count):
                    if props[0][0] != "list":
                        raise MeshParseError(path, "header", "face element without list")
                    count_t, idx_t = props[0][1].split(":")
                    cdt = np.dtype("<" + _PLY_SCALARS[count_t])
                    idt = np.dtype("<" + _PLY_SCALARS[idx_t])
                    arity = int(np.frombuffer(body, dtype=cdt, count=1, offset=offset)[0])
                    offset += cdt.itemsize
                    idx = np.frombuffer(body, dtype=idt, count=arity, offset=offset).tolist()
                    offset += idt.itemsize * arity
                    if arity < 3:
                        raise MeshParseError(path, f"byte {offset}", "face with < 3 vertices")
                    for a in range(1, arity - 1):
                        tris.append([int(idx[0]), int(idx[a]), int(idx[a + 1])])
            else:
                raise MeshParseError(path, "header", f"cannot skip unknown binary element {name!r}")

    tris_arr = np.asarray(tris, dtype=np.int64).reshape(-1, 3)
    if tris_arr.size and (tris_arr.min() < 0 or tris_arr.max() >= len(verts)):
        raise MeshParseError(path, "faces", "face index out of range")
    return Mesh(verts, tris_arr)


def load_mesh(path) -> Mesh:
    """Load OBJ or PLY by extension."""
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".obj":
        return load_obj(path)
    if ext == ".ply":
        return load_ply(path)
    raise GeometryError(f"unsupported mesh format {ext!r}")

"""Triangle mesh container, OFF/OBJ parsing and graph-geodesic utilities.

``_read_rows`` is the one numeric text reader and ``_write_rows`` the
one numeric text writer, for OFF and ``lmh.io``."""

from __future__ import annotations

import functools
import re

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra


class MeshError(ValueError):
    """Raised when mesh data is malformed or fails validation."""


class TriMesh:
    """Immutable, validated, edge-manifold triangle mesh.

    Parameters
    ----------
    vertices : array_like of shape (n, 3)
        Vertex positions, converted to float64.
    faces : array_like of shape (m, 3)
        Vertex indices of each triangle, converted to int64.

    Attributes
    ----------
    vertices : ndarray of shape (n, 3)
    faces : ndarray of shape (m, 3)

    Raises
    ------
    MeshError
        On empty input, out-of-range indices, degenerate faces, vertices
        no face references, or edges shared by more than two faces.
    """

    def __init__(self, vertices, faces):
        vertices = np.asarray(vertices, dtype=np.float64)
        faces = np.asarray(faces, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshError("vertices must be an (n, 3) array")
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise MeshError("faces must be an (m, 3) array")
        if vertices.shape[0] == 0 or faces.shape[0] == 0:
            raise MeshError("empty mesh: need at least one vertex and one face")
        if not np.all(np.isfinite(vertices)):
            raise MeshError("vertices contain non-finite coordinates")
        if faces.min() < 0:
            raise MeshError("face indices must be non-negative")
        if faces.max() >= vertices.shape[0]:
            raise MeshError(
                f"face index {faces.max()} exceeds vertex count {vertices.shape[0]}"
            )
        degenerate = (
            (faces[:, 0] == faces[:, 1])
            | (faces[:, 1] == faces[:, 2])
            | (faces[:, 0] == faces[:, 2])
        )
        if degenerate.any():
            raise MeshError(
                f"face {int(np.flatnonzero(degenerate)[0])} repeats a vertex index"
            )
        referenced = np.zeros(vertices.shape[0], dtype=bool)
        referenced[faces.ravel()] = True
        if not referenced.all():
            raise MeshError(
                f"vertex {int(np.argmin(referenced))} is not referenced by any face"
            )

        self.vertices = vertices
        self.faces = faces
        self.vertices.setflags(write=False)
        self.faces.setflags(write=False)

        edges = np.sort(
            np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]), axis=1
        )
        # unique rows through the 1-D key i*n + j of each sorted pair
        # (j < n, so key order is row order); np.unique(axis=0) sorts
        # rows as structured records and is about 10x slower
        n = vertices.shape[0]
        keys, counts = np.unique(edges[:, 0] * n + edges[:, 1], return_counts=True)
        uniq = np.stack(np.divmod(keys, n), axis=1)
        if counts.max() > 2:
            bad = uniq[np.argmax(counts)]
            raise MeshError(
                f"edge ({bad[0]}, {bad[1]}) is shared by {counts.max()} faces; "
                "only edge-manifold meshes are supported"
            )
        # sorted unique pairs, read by edge_graph
        self._edges = uniq
        self._edges.setflags(write=False)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_faces(self):
        return self.faces.shape[0]

    @functools.cached_property
    def edge_graph(self):
        """Sparse symmetric adjacency weighted by Euclidean edge length.

        Built at first use and kept: the mesh's arrays are read-only, so
        the graph cannot go stale, and its own arrays are read-only too.
        """
        e = self._edges
        w = np.linalg.norm(self.vertices[e[:, 0]] - self.vertices[e[:, 1]], axis=1)
        n = self.n_vertices
        g = sparse.coo_array(
            (np.concatenate([w, w]), (np.concatenate([e[:, 0], e[:, 1]]),
                                      np.concatenate([e[:, 1], e[:, 0]]))),
            shape=(n, n),
        ).tocsr()
        for arr in (g.data, g.indices, g.indptr):
            arr.setflags(write=False)
        return g

    def __repr__(self):
        return f"TriMesh({self.n_vertices} vertices, {self.n_faces} faces)"


def load_mesh(content, fmt):
    """Parse mesh data from text content.

    Parameters
    ----------
    content : str
        Raw file content.
    fmt : {"off", "obj"}
        Input format, in any case. OFF files carry explicit vertex/face
        counts, on the ``OFF`` line or the next; OBJ files are parsed
        from ``v``/``f`` records with all other record types skipped
        (normals, texture coordinates, materials). Both skip ``#``
        comments and blank lines.

    Returns
    -------
    TriMesh

    Raises
    ------
    MeshError
        On malformed content or validation failure.
    """
    fmt = fmt.lower()
    if fmt == "off":
        return _parse_off(content)
    if fmt == "obj":
        return _parse_obj(content)
    raise MeshError(f"unsupported mesh format '{fmt}' (expected 'off' or 'obj')")


def read_mesh(path):
    """Load a mesh from a file path, dispatching on the suffix; a
    ``MeshError`` message starts with the path."""
    path = str(path)
    suffix = path.rsplit(".", 1)[-1].lower() if "." in path else ""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return load_mesh(text, suffix)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc


def _content(line):
    # a line without its "#" comment and surrounding whitespace
    return line.split("#", 1)[0].strip()


def _content_lines(text):
    """The lines of ``text`` that hold more than a comment, without it."""
    # one regex pass costs a third of stripping each line in Python, and
    # copies nothing when the text holds no comment
    return list(filter(str.strip, re.sub("#.*", "", text).splitlines()))


class _RowError(ValueError):
    """A line ``_read_rows`` cannot read; ``text`` is its content."""

    def __init__(self, message, text):
        super().__init__(message)
        self.text = text


def _read_rows(source, where, dtype, usecols, first):
    """Rows of numbers as a ``(rows, columns)`` array, through the
    package's one ``np.loadtxt`` call.

    ``source`` is a list of content lines or an open text file, read
    from where it stands; its i-th line is line ``first + i`` of
    ``where`` (a file name or block kind). Comments and blank lines are
    skipped. ``usecols`` picks columns, so a row may hold more, or is
    None: each row then holds as many as the first. No rows give a
    ``(0, 0)`` array, so numpy never warns. A bad line raises
    ``_RowError`` naming ``where`` and the line's number.
    """
    read = functools.partial(np.loadtxt, dtype=dtype, usecols=usecols, ndmin=2)
    lines = source
    if not isinstance(source, list):
        # the file stays on its handle, which loadtxt reads in chunks:
        # peek for a row (loadtxt warns on none), then go back
        start = source.tell()
        lines = iter(source.readline, "")
    if not any(map(_content, lines)):
        return np.empty((0, 0), dtype=dtype)
    if lines is not source:
        source.seek(start)
    try:
        return read(source)
    except (ValueError, OverflowError):
        if lines is not source:
            source.seek(start)
            lines = source.readlines()
        # numpy's row numbers skip comments and blank lines: pair each
        # row with the first to find and name the bad line
        rows = [(n, t) for n, t in enumerate(map(_content, lines), first) if t]
        noun = "integers" if np.issubdtype(dtype, np.integer) else "numbers"
        for number, text in rows:
            try:
                read([rows[0][1], text])
            except (ValueError, OverflowError):
                raise _RowError(f"{where}, line {number}: cannot read {text!r} as "
                                f"a row of {noun}", text) from None
        raise


def _off_face_error(text):
    """The message for an OFF face line that is not ``3 i j k``."""
    tokens = text.split()
    try:
        count = int(tokens[0])
    except ValueError:
        return "OFF: malformed face line"
    if count != 3:
        return f"OFF: face with {count} vertices; only triangles supported"
    return "OFF: truncated face line" if len(tokens) < 4 else "OFF: malformed face line"


def _parse_off(text):
    lines = _content_lines(text)
    if not lines:
        raise MeshError("OFF: empty file")
    head = lines[0].split()
    if head[0].upper() != "OFF":
        raise MeshError("OFF: missing OFF header")
    if len(head) == 4:
        counts = head[1:4]
        body = lines[1:]
    else:
        if len(lines) < 2:
            raise MeshError("OFF: missing count line")
        counts = lines[1].split()
        body = lines[2:]
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except (ValueError, IndexError) as exc:
        raise MeshError("OFF: malformed count line") from exc
    if min(nv, nf) < 0 or len(body) < nv + nf:
        raise MeshError(
            f"OFF: expected {nv} vertex and {nf} face lines, got {len(body)}"
        )
    try:
        vertices = _read_rows(body[:nv], "OFF vertex block", np.float64, (0, 1, 2), 1)
    except _RowError as exc:
        raise MeshError("OFF: malformed vertex line") from exc
    try:
        faces = _read_rows(body[nv : nv + nf], "OFF face block", np.int64,
                           (0, 1, 2, 3), 1)
    except _RowError as exc:
        raise MeshError(_off_face_error(exc.text)) from exc
    bad = np.flatnonzero(faces[:, 0] != 3) if faces.size else []
    if len(bad):
        raise MeshError(_off_face_error(body[nv + bad[0]]))
    return TriMesh(vertices, np.ascontiguousarray(faces[:, 1:]))


def _parse_obj(text):
    vertices = []
    faces = []
    for tokens in map(str.split, _content_lines(text)):
        if tokens[0] == "v":
            if len(tokens) < 4:
                raise MeshError("OBJ: vertex record with fewer than 3 coordinates")
            vertices.append([float(tokens[1]), float(tokens[2]), float(tokens[3])])
        elif tokens[0] == "f":
            refs = tokens[1:]
            if len(refs) != 3:
                raise MeshError(
                    f"OBJ: face with {len(refs)} vertices; only triangles supported"
                )
            face = []
            for ref in refs:
                # "i", "i/t", "i/t/n", "i//n" all carry the vertex index first
                try:
                    i = int(ref.split("/")[0])
                except ValueError as exc:
                    raise MeshError(f"OBJ: malformed face reference '{ref}'") from exc
                # 1-based, or -j for the j-th vertex from the end of those
                # read so far
                if i == 0 or -i > len(vertices):
                    raise MeshError(
                        f"OBJ: face reference '{ref}' names no vertex (1-based, "
                        f"or relative to the {len(vertices)} read so far)"
                    )
                face.append(i - 1 if i > 0 else len(vertices) + i)
            faces.append(face)
        # every other record type is skipped
    if not vertices or not faces:
        raise MeshError("OBJ: no triangle data found")
    return TriMesh(np.array(vertices), np.array(faces, dtype=np.int64))


# values formatted per write: blocks of 256 to 8192 values write at the
# same speed, and the small end kept the CLI chain's peak memory lowest
_WRITE_BLOCK_VALUES = 256


def _write_rows(fh, X, delimiter=" "):
    """Write the rows of ``X`` to the open text file ``fh``, one line each.

    The package's one numeric text writer: floats are written with
    ``%.17g`` (17 significant digits round-trip float64 exactly, so
    identical runs give identical files) and integers with ``%d``,
    ``delimiter`` between the values of a row. A 1-D ``X`` is one value
    per line. ``%`` on Python scalars from ``tolist()``, a block of rows
    at a time, writes the bytes numpy's text writer does with the same
    format, which formats numpy scalars row by row and is slower.
    """
    X = np.asarray(X)
    if X.ndim == 1:
        X = X[:, None]
    spec = "%d" if np.issubdtype(X.dtype, np.integer) else "%.17g"
    line = delimiter.join([spec] * X.shape[1]) + "\n"
    step = max(_WRITE_BLOCK_VALUES // max(X.shape[1], 1), 1)
    for start in range(0, X.shape[0], step):
        block = X[start : start + step]
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


def write_off(mesh, path):
    """Write a mesh (or a ``(vertices, faces)`` pair) as an OFF file."""
    if isinstance(mesh, tuple):
        vertices, faces = mesh
    else:
        vertices, faces = mesh.vertices, mesh.faces
    vertices = np.asarray(vertices, dtype=np.float64)
    faces = np.asarray(faces, dtype=np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"OFF\n{vertices.shape[0]} {faces.shape[0]} 0\n")
        _write_rows(fh, vertices)
        # each face line starts with its vertex count
        _write_rows(fh, np.column_stack([np.full(faces.shape[0], 3), faces]))


def triangle_areas(mesh):
    """Per-face areas from the cross product of two edge vectors; one that
    overflows is inf, without a warning (``fem.checked_areas`` names it)."""
    v = mesh.vertices
    f = mesh.faces
    e1 = v[f[:, 1]] - v[f[:, 0]]
    e2 = v[f[:, 2]] - v[f[:, 0]]
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)


def surface_area(mesh, region=None):
    """Total area, optionally restricted to a binary region.

    Parameters
    ----------
    mesh : TriMesh
    region : optional
        Per-vertex membership values (an array or any object with a
        ``u`` attribute). When given, only faces whose three vertices
        have membership 1 contribute.

    Returns
    -------
    float
    """
    areas = triangle_areas(mesh)
    if region is None:
        return float(areas.sum())
    u = membership(region, mesh.n_vertices)
    keep = (u[mesh.faces] == 1.0).all(axis=1)
    return float(areas[keep].sum())


def membership(region, n):
    """Membership values u of a Region (or a raw per-vertex array),
    checked against the vertex count n and by ``_valid_membership``."""
    u = np.asarray(getattr(region, "u", region), dtype=np.float64)
    if u.shape != (n,):
        raise ValueError(f"region has {u.size} values for {n} vertices")
    return _valid_membership(u)


def _valid_membership(u):
    """The one membership check: ``u`` as float64 if flat, finite and in [0, 1]."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1:
        raise ValueError("membership u must be a flat per-vertex array")
    if u.size == 0:
        raise ValueError("membership u is empty: it has no per-vertex values")
    if not np.all(np.isfinite(u)):
        raise ValueError("membership u contains non-finite values")
    if u.min() < 0.0 or u.max() > 1.0:
        raise ValueError("membership u must lie in [0, 1]")
    return u


def graph_geodesics(mesh, sources):
    """Shortest-path distances along mesh edges.

    Parameters
    ----------
    mesh : TriMesh
    sources : int or sequence of int
        Source vertex (or vertices).

    Returns
    -------
    ndarray
        Distances from the source(s) to every vertex; shape (n,) for a
        scalar source, (len(sources), n) otherwise. Unreachable
        vertices get ``inf``.
    """
    scalar = np.isscalar(sources)
    idx = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    n = mesh.n_vertices
    if idx.size == 0:
        raise ValueError("at least one source vertex is required")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"source index out of range [0, {n})")
    dist = dijkstra(mesh.edge_graph, directed=False, indices=idx)
    return dist[0] if scalar else dist


def intrinsic_diameter(mesh):
    """Double-sweep lower-bound estimate of the graph-geodesic diameter.

    Runs one shortest-path pass from vertex 0, then a second pass from
    the farthest vertex found; returns the largest distance seen.

    Raises
    ------
    MeshError
        If the edge graph is disconnected.
    """
    d0 = graph_geodesics(mesh, 0)
    if np.isinf(d0).any():
        raise MeshError("mesh is disconnected; intrinsic diameter undefined")
    far = int(np.argmax(d0))
    d1 = graph_geodesics(mesh, far)
    return float(d1.max())

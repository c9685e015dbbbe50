"""Compiled kernels for the large-cloud pipeline, loaded through ctypes.

``_kernels.c`` exports one function per layer, each called once: the
incremental Delaunay builder ``hc_build`` (triangle and edge splits and
Lawson flips in Morton order, with exact predicates, symbolic in-circle
ties and ghost triangles, compacted in place), the edge table
``hc_edge_table`` (each edge's two faces and squared length), ``hc_births``
and the sweep ``hc_sweep``; the edge sort between them is numpy's.
``_text.cpp`` holds the CLI's number text, ``hc_write_rows`` (repr-identical
rows through ``std::to_chars``) and ``hc_parse_rows`` (correctly rounded
CSV rows through ``std::from_chars``); ``holecount.cli`` loads it, so
``import holecount`` neither builds nor loads it.

Each ``Library`` names its source, compiler (``gcc`` and ``g++``), flags
and ctypes signatures, and ``load_library`` is the one loader: on first use
it compiles the source into ``__pycache__`` next to this file, under a name
keyed by a hash of the source, the compiler and the flags, so later imports
only load it.  When there is no compiler or the build fails (as the kernels'
does where ``long double`` is too narrow for the exact predicates), it
returns None and every caller takes its reference path instead: Qhull,
numpy and ``DualForest`` for the kernels, Python's ``repr`` and ``float``
for the text; the reason is logged at DEBUG level.

Every function writes into arrays its Python caller allocates; the kernels
allocate only small scratch space and the text functions none, which keeps
the peak memory of a run within a small constant of its output size.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

log = logging.getLogger(__name__)

# hc_build's outcomes; every status but OK hands the cloud to Qhull.
STATUS_OK = 0
STATUS_DECLINED = 1  # every point on one line, or a point repeated
STATUS_OVERFLOW = 2  # too few triangle slots, or no memory for the flip stack

# Vertex, triangle (about 2n) and edge (about 3n) ids must fit in int32.
_MAX_POINTS = 2 ** 29


def _array(dtype):
    return np.ctypeslib.ndpointer(dtype=dtype, flags="C_CONTIGUOUS")


_F64, _I32, _U8 = _array(np.float64), _array(np.int32), _array(np.uint8)
_c_i32, _c_i64, _c_f64 = ctypes.c_int32, ctypes.c_int64, ctypes.c_double
_c_char_p = ctypes.c_char_p
_p_i64 = ctypes.POINTER(ctypes.c_int64)


class Library(NamedTuple):
    """How to build and bind one shared library: its source next to this
    file, the compiler and flags that build it, and the ctypes
    (restype, argtypes) of each function it exports."""

    source: Path
    compiler: str
    flags: tuple
    signatures: dict


KERNEL_LIBRARY = Library(
    Path(__file__).with_name("_kernels.c"), "gcc",
    # No -ffast-math and no fused multiply-adds: births and edge lengths
    # must round exactly as the numpy fallback does.
    ("-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off"),
    {
        "hc_build": (_c_i32, [_F64, _c_i32, _I32, _I32, _I32, _c_i64, _p_i64,
                              _p_i64]),
        "hc_edge_table": (_c_i64, [_F64, _c_i64, _I32, _I32, _c_i64, _I32, _F64]),
        "hc_births": (None, [_F64, _c_i64, _I32, _c_f64, _F64]),
        "hc_sweep": (_c_i64, [_c_i64, _I32, _I32, _F64, _c_i32, _I32, _I32, _F64,
                              _F64, _p_i64]),
    },
)

#: The CLI's number text (``_text.cpp``): ``hc_write_rows`` and
#: ``hc_parse_rows``, loaded by ``holecount.cli``, not by ``import holecount``.
TEXT_LIBRARY = Library(
    KERNEL_LIBRARY.source.with_name("_text.cpp"), "g++",
    ("-O2", "-std=c++17", "-fPIC", "-shared"),
    {
        "hc_write_rows": (_c_i64, [_F64, _c_i64, _c_i64, _c_char_p, _c_char_p, _U8,
                                   _c_i64]),
        "hc_parse_rows": (_c_i64, [_c_char_p, _c_i64, _F64, _c_i64]),
        "hc_max_number_chars": (_c_i64, []),
    },
)


def _compile(library: Library, target: Path) -> None:
    """Build the shared library under a temporary name, then move it into
    place, so concurrent first imports never load a half-written file."""
    target.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([library.compiler, *library.flags, "-o", tmp,
                        str(library.source), "-lm"],
                       check=True, capture_output=True, text=True)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_library(library: Library):
    """The built and bound library, or None when it cannot be built or
    loaded."""
    source = library.source
    try:
        digest = hashlib.sha256(
            source.read_bytes() + " ".join((library.compiler, *library.flags)).encode()
        ).hexdigest()[:16]
        path = source.with_name("__pycache__") / f"{source.stem}-{digest}.so"
        if not path.exists():
            _compile(library, path)
        lib = ctypes.CDLL(str(path))
    except subprocess.CalledProcessError as exc:
        log.debug("compiling %s failed, using the Python path: %s",
                  source.name, exc.stderr.strip())
        return None
    except OSError as exc:  # no compiler, unwritable cache, unloadable file
        log.debug("compiled kernels unavailable (%s), using the Python path: %s",
                  source.name, exc)
        return None
    for name, (restype, argtypes) in library.signatures.items():
        fn = getattr(lib, name)
        fn.restype = restype
        fn.argtypes = argtypes
    return lib


#: The loaded kernel library, or None when only the Python path is available.
KERNELS = load_library(KERNEL_LIBRARY)


def morton_argsort(points: np.ndarray) -> np.ndarray:
    """Insertion order along a Z-order curve; keeps successive points close
    so the locate walk is short."""
    lo = points.min(axis=0)
    span = float(np.ptp(points, axis=0).max())
    if span <= 0.0:
        return np.arange(len(points))
    scale = (2 ** 16 - 1) / span
    q = ((points - lo) * scale).astype(np.uint64)
    key = np.zeros(len(points), dtype=np.uint64)
    for axis, shift0 in ((0, 0), (1, 1)):
        v = q[:, axis]
        v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
        v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
        v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
        v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
        key |= v << np.uint64(shift0)
    return np.argsort(key, kind="stable")


def build_triangulation(points: np.ndarray):
    """Triangulate incrementally; returns (triangles, neighbors) in the
    layout of the Qhull path (CCW, lexicographically smallest point first,
    -1 across hull edges), or None when the kernels are not loaded or no
    triangulation on all points exists (all on one line, a point repeated).

    Exactly cocircular points get the triangulation of a symbolic
    perturbation keyed on their (x, y) order, so the triangles do not
    depend on the input order."""
    n = len(points)
    if KERNELS is None or not 3 <= n <= _MAX_POINTS:
        return None
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.shape != (n, 2):
        raise ValueError(f"expected an (n, 2) array, got shape {points.shape}")
    order = morton_argsort(points).astype(np.int32)
    cap = 2 * n - 2  # real plus ghost triangles of n points, exactly
    tris = np.empty((cap, 3), dtype=np.int32)
    neigh = np.empty((cap, 3), dtype=np.int32)
    n_tris = ctypes.c_int64()
    counts = (ctypes.c_int64 * 2)()
    status = KERNELS.hc_build(points, n, order, tris, neigh, cap,
                              ctypes.byref(n_tris), counts)
    log.debug("builder: %d predicates decided by the exact stage, "
              "%d in-circle ties broken by the perturbation", counts[0], counts[1])
    if status == STATUS_OK:
        return tris[:n_tris.value], neigh[:n_tris.value]
    log.debug("incremental builder stopped with status %d on %d points; "
              "falling back to Qhull", status, n)
    return None


def edge_table(points: np.ndarray, triangles: np.ndarray,
               neighbors: np.ndarray) -> tuple:
    """(edge_faces, edge_length_sq) of a compact triangulation, one row per
    undirected edge, in the order of the numpy edge table.  Every interior
    edge borders two triangles and every hull edge one, so k triangles with
    h hull slots (-1 neighbours) have (3k + h) / 2 edges."""
    k = len(triangles)
    m = (3 * k + int(np.count_nonzero(neighbors < 0))) // 2
    edge_faces = np.empty((m, 2), dtype=np.int32)
    length_sq = np.empty(m)
    if KERNELS.hc_edge_table(points, k, triangles, neighbors, m, edge_faces,
                             length_sq) != m:
        raise ValueError("neighbour links of the triangulation are not mutual")
    return edge_faces, length_sq


def triangle_births(points: np.ndarray, triangles: np.ndarray, band: float) -> np.ndarray:
    """Circumradius of acute triangles, 0 for the others, NaN within the
    relative band of a right angle (left for the caller to decide)."""
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise ValueError(f"expected (k, 3) triangles, got shape {triangles.shape}")
    if triangles.size and (triangles.min() < 0 or triangles.max() >= len(points)):
        raise ValueError("triangle vertex out of range")
    births = np.empty(len(triangles))
    KERNELS.hc_births(points, len(triangles), triangles, band, births)
    return births


def sweep(births: np.ndarray, edge_faces: np.ndarray, edge_length_sq: np.ndarray,
          order) -> tuple:
    """(pairs, deepest root walk) of the array sweep; overwrites births.

    births holds the k triangle nodes; the unbounded region is node k.
    """
    k = len(births)
    m = len(edge_faces)
    order = np.ascontiguousarray(order, dtype=np.int32)
    if edge_faces.shape != (m, 2) or edge_length_sq.shape != (m,):
        raise ValueError("edge table columns disagree in length")
    if len(order) and (order.min() < 0 or order.max() >= m):
        raise ValueError("edge order out of range")
    if m and (edge_faces.min() < -1 or edge_faces.max() >= k):
        raise ValueError("face id out of range")
    parent = np.arange(k + 1, dtype=np.int32)
    weight = np.zeros(k + 1, dtype=np.int32)
    pairs = np.empty((k + 1, 2))
    max_steps = ctypes.c_int64()
    n_pairs = KERNELS.hc_sweep(len(order), order, edge_faces, edge_length_sq, k,
                               parent, weight, births, pairs,
                               ctypes.byref(max_steps))
    return pairs[:n_pairs], max_steps.value

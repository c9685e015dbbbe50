"""Compiled kernels for the large-cloud pipeline, loaded through ctypes.PyDLL.

``_kernels.c`` exports one function per step, each called once per cloud.
Ingest runs ``hc_insertion_order``: one stable radix sort of Z-order keys
finds the repeated points (each compared exactly with the points of its run
of equal keys) and gives the insertion order of the kept points, which
``Cloud`` carries to the builder; it is the one source of that order.  The
order is biased randomized (Amenta, Choi and Rote 2003): rounds that grow
4x, drawn by a hash of each point's coordinates, each round in Z-order.
Then follow the incremental Delaunay builder ``hc_build`` (triangle and
edge splits and Lawson flips in that order, with exact predicates, symbolic
in-circle ties, ghost triangles and half-edge neighbour links, compacted in
place), the edge table ``hc_edge_table`` (each edge's two faces and squared
length), ``hc_births``
(from each triangle's point set, whatever its vertex order) and the sweep
``hc_sweep``; ``hc_staircase`` builds a diagram's staircase by one merge of
its sorted births and deaths, and ``hc_bottleneck`` computes the bottleneck
distance of two diagrams (nearest-neighbour rounds and edge searches that
scan the birth-sorted pairs, then Hopcroft-Karp matchings).  The builder's
predicates pass a float filter, then an integer stage (int64 and
``__int128``) for coordinates that are small integers times one power of
two, as on lattices, and only then Shewchuk's expansions in ``long
double``; ``hc_births`` decides the borderline right angles of such
integer-like triangles by the same test.  The edge sort between the edge table and the sweep is numpy's.
``_text.cpp`` holds the CLI's number text, ``hc_write_rows`` (repr-identical
rows through ``std::to_chars``), ``hc_write_entries`` (the ``"k": v``
entries of the report's probabilities) and ``hc_parse_rows`` (correctly
rounded CSV rows through ``std::from_chars``); ``holecount.cli`` loads it,
so ``import holecount`` neither builds nor loads it.

Each ``Library`` names its source, compiler (``gcc`` and ``g++``), flags
and ctypes signatures, and ``load_library`` is the one loader: on first use
it compiles the source against this interpreter's ``Python.h`` into
``__pycache__`` next to this file, under a name keyed by a hash of the
source, the compiler, the flags and the interpreter ABI (``SOABI``), so
later imports only load it.  When there is no compiler, no Python headers,
or the build fails (as the kernels' does where ``long double`` is too
narrow for the exact predicates or there is no ``__int128``), it returns
None and every caller takes its reference path instead: Qhull, numpy and
``DualForest`` for the kernels, Python's ``repr`` and ``float`` for the
text; the reason is logged at DEBUG level.

Both libraries are loaded with ``ctypes.PyDLL`` and take every array
argument as the Python object itself (``ctypes.py_object``): the C side
borrows its memory through the buffer protocol (``PyObject_GetBuffer``),
checks that it is C-contiguous, holds items of the expected kind (float,
signed or unsigned integer) and size, at least as many as the call reads or
writes, and is writable where the call writes, and releases every buffer
it borrowed on every exit path.  A failed check, like an id out of range,
raises TypeError, ValueError or BufferError before anything is written.
Lengths come from the arrays, counts come back as the return value (a
tuple where there are several), and strings go as ``c_char_p``.  An
``hc_sweep`` call with no edges costs about 1.5 us this way, against about
24 us through numpy's ``ndpointer`` argument types.  ``PyDLL`` holds the
GIL for the whole call, which the package can afford because it starts no
threads.

Each kernel wrapper below returns None when ``KERNELS`` is None, read at
call time, and its caller then takes the reference path; with the kernels
loaded, every cloud goes through them, and an input they cannot take
raises.

Every function writes into arrays its Python caller allocates, and the
text functions allocate nothing else.  The kernels' own scratch space is
freed before they return: O(n) for the builder and the insertion order, the
union-find forest of ``hc_sweep``, and O(m1 + m2 + edges) for
``hc_bottleneck``, whose edge count is known only after its scan.  A failed allocation returns a status, on which the wrapper
raises MemoryError.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import sysconfig
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

log = logging.getLogger(__name__)

# hc_build's outcomes; every status but OK and COLLINEAR raises.
STATUS_OK = 0
STATUS_DECLINED = 1  # fewer than 3 points, or a point repeated
STATUS_OVERFLOW = 2  # too few triangle slots, or no memory for the flip stack
STATUS_COLLINEAR = 3  # every point on one line

# Vertex, triangle (about 2n) and edge (about 3n) ids must fit in int32.
_MAX_POINTS = 2 ** 29


def _check_size(n: int) -> None:
    if n > _MAX_POINTS:
        raise ValueError(f"{n} points do not fit int32 ids: the kernels take at "
                         f"most 2**29 points")


# An array argument, borrowed in C through the buffer protocol, and a
# tuple of counts returned (a new reference, or NULL with an exception set).
_ARRAY = _OBJECT = ctypes.py_object
_c_i32, _c_i64, _c_f64 = ctypes.c_int32, ctypes.c_int64, ctypes.c_double
_c_char_p = ctypes.c_char_p

# Both sources include Python.h; without the headers the build fails and
# the Python paths run.
_INCLUDE = sysconfig.get_config_var("INCLUDEPY")
_PYTHON_FLAGS = (f"-I{_INCLUDE}",) if _INCLUDE else ()


class Library(NamedTuple):
    """How to build and bind one shared library: its source next to this
    file, the compiler and flags that build it (the include directory of
    this interpreter's headers among them), and the ctypes (restype,
    argtypes) of each function it exports."""

    source: Path
    compiler: str
    flags: tuple
    signatures: dict


KERNEL_LIBRARY = Library(
    Path(__file__).with_name("_kernels.c"), "gcc",
    # -O3, but no -ffast-math (or -Ofast) and no fused multiply-adds: the
    # expansions need every operation rounded on its own, and births and
    # edge lengths must round exactly as the numpy fallback does.  No
    # -march=native either, so one build runs on every host of a shared
    # cache.
    ("-O3", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off", *_PYTHON_FLAGS),
    {
        "hc_insertion_order": (_c_i32, [_ARRAY] * 3),
        "hc_build": (_OBJECT, [_ARRAY] * 4),
        "hc_edge_table": (_c_i64, [_ARRAY] * 5),
        "hc_births": (_c_i64, [_ARRAY, _ARRAY, _c_f64, _ARRAY]),
        "hc_sweep": (_OBJECT, [_ARRAY] * 5),
        "hc_staircase": (_OBJECT, [_ARRAY] * 6),
        "hc_bottleneck": (_OBJECT, [_ARRAY] * 2),
    },
)

#: The CLI's number text (``_text.cpp``): ``hc_write_rows``,
#: ``hc_write_entries`` and ``hc_parse_rows``, loaded by ``holecount.cli``,
#: not by ``import holecount``.
TEXT_LIBRARY = Library(
    KERNEL_LIBRARY.source.with_name("_text.cpp"), "g++",
    ("-O2", "-std=c++17", "-fPIC", "-shared", *_PYTHON_FLAGS),
    {
        "hc_write_rows": (_c_i64, [_ARRAY, _c_i64, _c_i64, _c_char_p, _c_char_p,
                                   _ARRAY]),
        "hc_write_entries": (_c_i64, [_ARRAY, _ARRAY, _c_i64, _c_i64, _c_char_p,
                                      _ARRAY]),
        "hc_parse_rows": (_c_i64, [_ARRAY, _ARRAY]),
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
        key = (library.compiler, *library.flags, str(sysconfig.get_config_var("SOABI")))
        digest = hashlib.sha256(source.read_bytes() + " ".join(key).encode()).hexdigest()[:16]
        path = source.with_name("__pycache__") / f"{source.stem}-{digest}.so"
        if not path.exists():
            _compile(library, path)
        lib = ctypes.PyDLL(str(path))
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


def insertion_order(points: np.ndarray):
    """(kept, order) of the points from one sort (``hc_insertion_order``),
    or None when the kernels are not loaded.  kept is a bool mask of the
    first occurrences, or None when no point repeats; order is the int32
    insertion order of the kept points, numbered by their position among
    them: rounds that grow 4x, drawn by a hash of the coordinates, each in
    Morton order, so that the builder's flips stay few and its locate
    walks short.  Raises ValueError above 2**29 points."""
    if KERNELS is None:
        return None
    n = len(points)
    _check_size(n)
    order = np.empty(n, dtype=np.int32)
    repeat = np.empty(n, dtype=np.uint8)
    m = KERNELS.hc_insertion_order(points, order, repeat)
    if m < 0:
        raise MemoryError("no memory for the Morton keys")
    if m == n:
        return None, order
    return repeat == 0, order[:m].copy()


def build_triangulation(points: np.ndarray, order: np.ndarray):
    """Triangulate incrementally; returns (triangles, neighbors) in the
    layout of the Qhull path (CCW from any vertex, -1 across hull edges),
    with no rows when every point lies on one line, or None when the
    kernels are not loaded.

    Exactly cocircular points get the triangulation of a symbolic
    perturbation keyed on their (x, y) order, so the triangles do not
    depend on the input order.  The points are inserted in the given
    order, a permutation of range(n): the order of `insertion_order`,
    which `Cloud.from_points` keeps.  Raises MemoryError when the builder
    runs out of memory, and ValueError above 2**29 points or when no
    triangulation has every point a vertex (fewer than 3 points, or a point
    repeated, which the distinct points of a `Cloud` never are)."""
    if KERNELS is None:
        return None
    n = len(points)
    _check_size(n)
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.shape != (n, 2):
        raise ValueError(f"expected an (n, 2) array, got shape {points.shape}")
    order = np.ascontiguousarray(order, dtype=np.int32)
    if order.shape != (n,):
        raise ValueError(f"expected an insertion order of {n} points, got shape "
                         f"{order.shape}")
    cap = 2 * n - 2  # real plus ghost triangles of n points, exactly
    tris = np.empty((cap, 3), dtype=np.int32)
    neigh = np.empty((cap, 3), dtype=np.int32)
    # raises ValueError on an insertion order out of range
    status, n_tris, *counts = KERNELS.hc_build(points, order, tris, neigh)
    log.debug("builder: %d predicates left undecided by the float filter, "
              "%d in-circle ties broken by the perturbation, underflow "
              "check armed %d, %d predicates decided in long double, "
              "%d locate steps, %d flips", *counts)
    if status == STATUS_OVERFLOW:
        raise MemoryError("no memory for the builder's flip stack")
    if status == STATUS_DECLINED:
        raise ValueError(f"no triangulation has all {n} points as vertices: "
                         "fewer than 3, or a point repeated")
    return tris[:n_tris], neigh[:n_tris]


def edge_table(points: np.ndarray, triangles: np.ndarray,
               neighbors: np.ndarray) -> tuple:
    """(edge_faces, edge_length_sq) of a compact triangulation, one row per
    undirected edge, in the order of the numpy edge table.  Every interior
    edge borders two triangles and every hull edge one, so k triangles with
    h hull slots (-1 neighbours) have (3k + h) / 2 edges.  None when the
    kernels are not loaded."""
    if KERNELS is None:
        return None
    k = len(triangles)
    m = (3 * k + int(np.count_nonzero(neighbors < 0))) // 2
    edge_faces = np.empty((m, 2), dtype=np.int32)
    length_sq = np.empty(m)
    # raises ValueError on a vertex out of range
    if KERNELS.hc_edge_table(points, triangles, neighbors, edge_faces, length_sq) != m:
        raise ValueError("neighbour links of the triangulation are not mutual")
    return edge_faces, length_sq


def triangle_births(points: np.ndarray, triangles: np.ndarray, band: float) -> tuple:
    """(births, decided): circumradius of acute triangles, 0 for the
    others.  Within the relative band of a right angle, a triangle whose
    coordinates are integers below 2**30 times one power of two (the int64
    rows of `forest.acute_exact`) is decided exactly in int64 and counted
    in decided; every other one is NaN, left for the caller to decide.
    None when the kernels are not loaded."""
    if KERNELS is None:
        return None
    if triangles.ndim != 2 or triangles.shape[1] != 3:
        raise ValueError(f"expected (k, 3) triangles, got shape {triangles.shape}")
    births = np.empty(len(triangles))
    # raises ValueError on a vertex out of range
    decided = KERNELS.hc_births(points, triangles, band, births)
    return births, decided


def sweep(births: np.ndarray, edge_faces: np.ndarray, edge_length_sq: np.ndarray,
          order) -> tuple:
    """(pairs, deepest root walk) of the array sweep; overwrites births.

    births holds the k triangle nodes; the unbounded region is node k.
    None when the kernels are not loaded.
    """
    if KERNELS is None:
        return None
    m = len(edge_faces)
    order = np.ascontiguousarray(order, dtype=np.int32)
    if edge_faces.shape != (m, 2) or edge_length_sq.shape != (m,):
        raise ValueError("edge table columns disagree in length")
    pairs = np.empty((len(births) + 1, 2))
    # raises ValueError on an edge order or a face id out of range
    n_pairs, max_steps = KERNELS.hc_sweep(order, edge_faces, edge_length_sq, births,
                                          pairs)
    return pairs[:n_pairs], max_steps


def staircase(pairs: np.ndarray):
    """(breakpoints, counts, present, shares) of off-diagonal pairs sorted
    by (birth, death), from one merge of the births with the sorted deaths
    (``hc_staircase``): the staircase, then the counts in order of first
    appearance and the share of the scale range each one holds.  None when
    the kernels are not loaded or the kernel declines the pairs (births out
    of order, for one)."""
    if KERNELS is None:
        return None
    m = len(pairs)
    pairs = np.ascontiguousarray(pairs, dtype=np.float64)
    deaths = np.sort(pairs[:, 1])
    breakpoints = np.empty(2 * m)
    counts = np.empty(2 * m, dtype=np.int64)
    sums = np.full(m + 1, -1.0)  # negative: no interval has this count yet
    present = np.empty(m + 1, dtype=np.int64)
    n, n_present = KERNELS.hc_staircase(pairs, deaths, breakpoints, counts, sums, present)
    if n < 0:
        return None
    present = present[:n_present]
    return breakpoints[:n], counts[:n - 1], present, sums[present]


def bottleneck(p1: np.ndarray, p2: np.ndarray):
    """The bottleneck distance of two diagrams' off-diagonal pairs, each
    sorted by birth as `Diagram` keeps them (``hc_bottleneck``), the float
    of `diagrams.bottleneck_distance`'s reference path.  None when the
    kernels are not loaded or the kernel declines the pairs (births out of
    order, a death below its birth, or a value that is not finite).  Raises
    MemoryError when the kernel's scratch space, which grows with the edges
    it keeps, cannot be allocated."""
    if KERNELS is None:
        return None
    p1 = np.ascontiguousarray(p1, dtype=np.float64)
    p2 = np.ascontiguousarray(p2, dtype=np.float64)
    status, distance, upper, edges, rounds, tests = KERNELS.hc_bottleneck(p1, p2)
    if status == STATUS_OVERFLOW:
        raise MemoryError("no memory for the bottleneck distance's edges")
    if status != STATUS_OK:
        return None
    log.debug("bottleneck: upper bound %r after %d rounds, %d edges, %d tests",
              upper, rounds, edges, tests)
    return distance

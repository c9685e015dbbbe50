"""The compiled kernels against the Python fallback, and the fallback alone."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import holecount
from holecount import Cloud, _fastdel
from holecount.forest import hole_persistence_stats

from conftest import parabola_cloud, random_cloud

needs_kernels = pytest.mark.skipif(
    _fastdel.KERNELS is None, reason="compiled kernels unavailable (no C compiler)"
)


def _assert_backends_agree(monkeypatch, cloud):
    """Same pairs, bit for bit, and the same deepest root walk with the
    kernels loaded and unloaded; returns the pairs and the walk."""
    compiled, walk, k = hole_persistence_stats(cloud, track_depth=True)
    with monkeypatch.context() as patch:
        patch.setattr(_fastdel, "KERNELS", None)
        fallback, fallback_walk, fallback_k = hole_persistence_stats(
            cloud, track_depth=True)
    assert np.array_equal(compiled.pairs, fallback.pairs)
    assert (walk, k) == (fallback_walk, fallback_k)
    return compiled.pairs, walk


@needs_kernels
@pytest.mark.parametrize("fixture", ["square2", "equilateral2", "figure_eight"])
def test_fallback_identical_on_fixtures(fixture, request, monkeypatch):
    _assert_backends_agree(monkeypatch, request.getfixturevalue(fixture))


@needs_kernels
@pytest.mark.parametrize("make,seed,n", [
    pytest.param(random_cloud, 0, 40, id="0-40"),
    pytest.param(random_cloud, 1, 300, id="1-300"),
    pytest.param(random_cloud, 2, 3000, id="2-3000"),
    pytest.param(parabola_cloud, 3, 300, id="parabola-3-300"),
])
def test_fallback_identical_on_random_clouds(make, seed, n, monkeypatch):
    cloud = make(seed, n)
    assert _fastdel.build_triangulation(cloud.points) is not None
    pairs, walk = _assert_backends_agree(monkeypatch, cloud)
    assert len(pairs) > 0 and walk > 0


@needs_kernels
def test_fallback_identical_on_lattice(monkeypatch):
    # every cell is a cocircular square: Qhull triangulates it on both
    # paths, and each cell's two right triangles meet in Case 3
    m = 20
    grid = np.stack(np.meshgrid(np.arange(m), np.arange(m)), axis=-1).reshape(-1, 2)
    cloud = Cloud.from_points(np.random.default_rng(5).permutation(grid))
    assert _fastdel.build_triangulation(cloud.points) is None
    pairs, walk = _assert_backends_agree(monkeypatch, cloud)
    assert len(pairs) == (m - 1) ** 2 and walk > 0


@needs_kernels
def test_edge_table_rejects_one_sided_neighbour_links():
    # a square cut along (0, 2); the second triangle forgets the first, so
    # there is one edge more than (3k + h) / 2 rows: refused, not overrun
    tris = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int32)
    neigh = np.array([[-1, 1, -1], [-1, -1, 0]], dtype=np.int32)
    assert len(_fastdel.edge_table(tris, neigh)[0]) == 5
    neigh[1, 2] = -1
    with pytest.raises(ValueError, match="not mutual"):
        _fastdel.edge_table(tris, neigh)


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
def test_exports_match_signatures(tmp_path):
    # the source builds without warnings, and every exported hc_* function
    # has a ctypes signature and vice versa
    out = subprocess.run(
        ["gcc", *_fastdel._CFLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "k.so"), str(_fastdel._SOURCE), "-lm"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    source = _fastdel._SOURCE.read_text()
    exported = re.findall(r"^(?!static\b)\w[\w ]*?\b(hc_\w+)\(", source, re.M)
    assert sorted(exported) == sorted(_fastdel._SIGNATURES)


def _sanitizer_runtimes():
    """The gcc ASan and UBSan runtime libraries, or None without them."""
    if shutil.which("gcc") is None:
        return None
    paths = [subprocess.run(["gcc", f"-print-file-name={name}"], capture_output=True,
                            text=True).stdout.strip()
             for name in ("libasan.so", "libubsan.so")]
    return paths if all(os.path.isabs(p) and os.path.exists(p) for p in paths) else None


_SANITIZED_RUN = """
import ctypes, sys
import numpy as np
from holecount import Cloud, _fastdel, hole_persistence

lib = ctypes.CDLL(sys.argv[1])
for name, (restype, argtypes) in _fastdel._SIGNATURES.items():
    getattr(lib, name).restype = restype
    getattr(lib, name).argtypes = argtypes
_fastdel.KERNELS = lib

rng = np.random.default_rng(0)
x = rng.uniform(-10.0, 10.0, 300)
grid = np.stack(np.meshgrid(np.arange(20), np.arange(20)), axis=-1).reshape(-1, 2)
clouds = [
    [(0, 0), (2, 0), (1, 2)],
    [(0, 0), (2, 0), (2, 2), (0, 2)],
    [(0, 0), (4, 0), (5, 3), (2, 5), (-1, 3)],
    rng.random((100, 2)),
    rng.random((3000, 2)),
    np.stack([x, x * x], axis=1),
    np.vstack([[(0.0, 0.0), (1e-3, 0.0), (2e-3, 0.0)], 0.5 + 0.5 * rng.random((50, 2))]),
    rng.random((300, 2)) * 2.0 ** -300,
    grid,  # Qhull, then the compiled edge table and sweep
]
for pts in clouds:
    hole_persistence(Cloud.from_points(pts))
assert _fastdel.build_triangulation(clouds[4]) is not None
print("clean")
"""


@pytest.mark.skipif(_sanitizer_runtimes() is None,
                    reason="no gcc with AddressSanitizer and UBSan runtimes")
def test_kernels_clean_under_sanitizers(tmp_path):
    # every kernel, the builder on its edge cases included, runs without an
    # out-of-bounds access, use after free or undefined behaviour
    lib = tmp_path / "k.so"
    subprocess.run(["gcc", *_fastdel._CFLAGS, "-g", "-fsanitize=address,undefined",
                    "-fno-sanitize-recover=undefined", "-o", str(lib),
                    str(_fastdel._SOURCE), "-lm"], check=True)
    env = dict(os.environ, LD_PRELOAD=" ".join(_sanitizer_runtimes()),
               ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=str(Path(holecount.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _SANITIZED_RUN, str(lib)], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr[-3000:]
    assert out.stdout.strip() == "clean"


def test_import_leaves_out_cli_and_oracles():
    code = (
        "import sys\n"
        "import holecount\n"
        "print(sorted(m for m in ('holecount.cli', 'holecount.oracles',\n"
        "                         'holecount.plots', 'holecount.samplers')\n"
        "             if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(holecount.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_import_without_compiler(tmp_path):
    # a copy of the package with no cached build and no compiler on PATH
    shutil.copytree(Path(holecount.__file__).parent, tmp_path / "holecount",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code = (
        "import logging\n"
        "logging.basicConfig(level=logging.DEBUG)\n"
        "from holecount import Cloud, _fastdel, hole_persistence\n"
        "assert _fastdel.KERNELS is None\n"
        "print(len(hole_persistence(Cloud.from_points("
        "[(0, 0), (2, 0), (2, 2), (0, 2)]))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PATH=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1"
    assert "compiled kernels unavailable" in out.stderr

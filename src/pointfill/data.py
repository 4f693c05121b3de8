"""Synthetic shape corpus, viewpoint occlusion and point cloud file I/O.

Shapes are surface-sampled parametric solids; partial inputs come from a
visibility heuristic that keeps the points whose outward direction (taken
from the shape centroid) agrees best with the view direction. The heuristic
approximates hidden-point removal well for convex-ish shapes and only
roughly for concave ones (table legs may survive a view they would not
survive under true depth-buffer culling). Everything is deterministic under
its seed. The samplers work on whole arrays, with the draws, draw order and
per-point arithmetic of the per-point loops in ``tests/oracles.py``, so a
seed gives the same bytes as those loops.

On-disk formats: plain ``x y z`` lines (.xyz) and minimal ascii PLY, each
coordinate written as ``%.9g`` (the bytes of ``np.savetxt``) by one string
format over all rows; the readers check each line and name the first bad one.
Dataset layout: ``<root>/<split>/<id>_partial.xyz`` plus ``<id>_gt.xyz``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError
from .geometry import as_cloud

FAMILIES = ("sphere", "box", "cylinder", "table", "composite")

#: Share of a ground truth's points that its occluded partial view keeps.
_KEEP_FRACTION = 0.55

#: The eight canonical view directions used when building datasets: the six
#: axis directions plus the two main-diagonal directions.
VIEWPOINTS = np.array(
    [
        [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0], [0.0, -1.0, 0.0],
        [0.0, 0.0, 1.0], [0.0, 0.0, -1.0],
        [1.0, 1.0, 1.0], [-1.0, -1.0, -1.0],
    ]
) / np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, math.sqrt(3.0), math.sqrt(3.0)])[:, None]


@dataclass
class SyntheticShapeSpec:
    """Recipe for one ground-truth / partial pair; every shape is unit-sized."""

    family: str = "sphere"
    seed: int = 0
    gt_points: int = 512
    partial_points: int = 256

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ContractError(f"family must be one of {FAMILIES}")
        if not self.gt_points >= self.partial_points >= 16:
            raise ContractError("need gt_points >= partial_points >= 16")


def generate_shape(spec):
    """Uniform surface samples of the requested parametric shape."""
    rng = np.random.default_rng(spec.seed)
    n = spec.gt_points
    if spec.family == "sphere":
        return _sample_sphere(rng, n, radius=1.0)
    if spec.family == "box":
        return _sample_boxes(rng, n, [(np.zeros(3), np.ones(3))])
    if spec.family == "cylinder":
        return _sample_cylinder(rng, n, radius=0.35, height=1.0)
    if spec.family == "table":
        return _sample_table(rng, n)
    return _sample_composite(rng, n)


def _sample_sphere(rng, n, radius, center=None):
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = radius * dirs
    if center is not None:
        pts += center
    return pts


def _sample_boxes(rng, n, boxes):
    """Area-weighted face sampling over a list of (center, extents) boxes."""
    # one row per face: box by box, axis by axis, the -1 face before the +1
    center, ext = (np.repeat(np.asarray(a, dtype=float), 6, axis=0) for a in zip(*boxes))
    axis = np.tile(np.repeat(np.arange(3), 2), len(boxes))
    sign = np.tile([-1.0, 1.0], 3 * len(boxes))
    other = np.array([[1, 2], [0, 2], [0, 1]])[axis]
    faces = np.arange(len(axis))
    areas = ext[faces, other[:, 0]] * ext[faces, other[:, 1]]
    choice = rng.choice(len(areas), size=n, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=(n, 2))
    pts, ext, a, o = center[choice], ext[choice], axis[choice], other[choice]
    i = np.arange(n)
    pts[i, a] += sign[choice] * ext[i, a] / 2.0
    pts[i, o[:, 0]] += u[:, 0] * ext[i, o[:, 0]]
    pts[i, o[:, 1]] += u[:, 1] * ext[i, o[:, 1]]
    return pts


def _sample_cylinder(rng, n, radius, height):
    lateral = 2.0 * math.pi * radius * height
    cap = math.pi * radius * radius
    total = lateral + 2.0 * cap
    which = rng.uniform(size=n)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    # each point's own draw: uniform(-height/2, height/2) on the side,
    # uniform() on a cap; both are low + (high - low) * u of one double u
    u = rng.random(n)
    side = which < lateral / total
    top = which < (lateral + cap) / total
    r = np.where(side, radius, radius * np.sqrt(u))
    z = np.where(side, -height / 2.0 + height * u, np.where(top, height / 2.0, -height / 2.0))
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def _sample_table(rng, n):
    top = (np.array([0.0, 0.0, 0.45]), np.array([1.0, 0.7, 0.1]))
    leg_ext = np.array([0.08, 0.08, 0.8])
    legs = [
        (np.array([sx * 0.42, sy * 0.27, 0.0]), leg_ext)
        for sx in (-1, 1)
        for sy in (-1, 1)
    ]
    return _sample_boxes(rng, n, [top, *legs])


def _sample_composite(rng, n):
    n_sphere = n // 2
    n_box = n - n_sphere
    center = rng.uniform(-0.2, 0.2, size=3)
    sphere = _sample_sphere(rng, n_sphere, radius=0.45, center=center)
    box = _sample_boxes(rng, n_box, [(-center, np.array([0.8, 0.5, 0.6]))])
    return np.concatenate([sphere, box], axis=0)


def occlude_viewpoint(gt, viewpoint, keep):
    """Keep the ``keep`` points most visible from ``viewpoint``.

    Visibility proxy: the dot product between each point's direction from
    the shape centroid and the (normalized) view direction. Ties break by
    lowest index; the surviving points keep their input order.
    """
    pts = as_cloud(gt, "gt")
    n = pts.shape[0]
    if not 1 <= keep <= n:
        raise ContractError(f"occlude_viewpoint: keep={keep} outside [1, {n}]")
    view = np.asarray(viewpoint, dtype=float)
    if not np.isfinite(view).all():
        raise ContractError(f"occlude_viewpoint: non-finite view direction {view}")
    norm = np.linalg.norm(view)
    if norm == 0:
        raise ContractError("occlude_viewpoint: zero view direction")
    view = view / norm
    offsets = pts - pts.mean(axis=0)
    lengths = np.linalg.norm(offsets, axis=1)
    lengths[lengths == 0] = 1.0
    score = (offsets / lengths[:, None]) @ view
    ranked = np.lexsort((np.arange(n), -score))[:keep]
    return pts[np.sort(ranked)]


def resample_input(cloud, n, seed=0):
    """Force a cloud to exactly ``n`` points.

    Smaller clouds get uniformly chosen duplicate rows appended; larger
    clouds are reduced to a uniformly chosen subset (original order kept).
    """
    pts = as_cloud(cloud)
    if seed < 0:
        raise ContractError(f"resample_input: seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    count = pts.shape[0]
    if n < 1:
        raise ContractError("resample_input: n must be >= 1")
    if n == count:
        return pts.copy()
    if n < count:
        idx = np.sort(rng.choice(count, size=n, replace=False))
        return pts[idx]
    extra = rng.integers(0, count, size=n - count)
    return np.concatenate([pts, pts[extra]], axis=0)


# ---------------------------------------------------------------------------
# File formats


def _write_rows(fh, pts):
    """One ``x y z`` line per point, each coordinate ``%.9g``: the bytes of
    ``np.savetxt(fh, pts, fmt="%.9g")``, from one format call, not one per row."""
    fh.write(("%.9g %.9g %.9g\n" * len(pts)) % tuple(pts.ravel().tolist()))


def write_xyz(path, cloud):
    """One ``x y z`` line per point, each coordinate ``%.9g``."""
    pts = as_cloud(cloud)
    with open(path, "w") as fh:
        _write_rows(fh, pts)


def read_xyz(path):
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) < 3:
                raise ParseError(f"{path}: line {lineno}: expected 3 coordinates")
            try:
                rows.append([float(v) for v in parts[:3]])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: bad number") from None
    if not rows:
        raise ParseError(f"{path}: no points")

    def lineno_of(row):  # read again only for a file that fails
        with open(path) as fh:
            return [n for n, line in enumerate(fh, start=1) if line.strip()][row]

    return _finite(path, np.asarray(rows), lineno_of)


def _finite(path, points, lineno_of):
    """``points``, or ParseError naming the line of the first row holding a
    NaN or an infinity; ``lineno_of(row)`` gives a row's line number."""
    if not np.isfinite(points).all():
        row = int(np.argmin(np.isfinite(points).all(axis=1)))
        raise ParseError(f"{path}: line {lineno_of(row)}: non-finite coordinate")
    return points


def write_ply(path, cloud):
    pts = as_cloud(cloud)
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {pts.shape[0]}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write("end_header\n")
        _write_rows(fh, pts)


def read_ply(path):
    """Minimal ascii PLY reader: the x, y and z of the vertex element.

    The body is walked element by element, in header order, one row per
    line: the rows of earlier elements are skipped, a list property spans its
    count token and that many items, and x, y and z are taken by name. A
    layout that cannot be read so raises ParseError naming the line.
    """
    with open(path) as fh:
        lines = fh.readlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError(f"{path}: line 1: not a ply file")

    def fail(lineno, what):
        raise ParseError(f"{path}: line {lineno}: {what}")

    elements = []  # (name, count, [(property, is list)], header line)
    for lineno, line in enumerate(lines[1:], start=2):
        token = line.split() or [""]
        if token[0] == "format" and token[1:2] != ["ascii"]:
            fail(lineno, "only ascii ply supported")
        elif token[0] == "element":
            if len(token) != 3 or not token[2].isdecimal():
                what = token[1] if len(token) > 1 else "element"
                fail(lineno, f"{what} count is not a non-negative integer")
            elements.append((token[1], int(token[2]), [], lineno))
        elif token[0] == "property":
            listed = token[1:2] == ["list"]
            if not elements or len(token) != (5 if listed else 3):
                fail(lineno, "property line outside an element or malformed")
            elements[-1][2].append((token[-1], listed))
        elif token[0] == "end_header":
            break
    else:
        raise ParseError(f"{path}: missing end_header")
    vertex = [e for e in elements if e[0] == "vertex"]
    if len(vertex) != 1:
        raise ParseError(f"{path}: expected one vertex element, found {len(vertex)}")
    for axis in "xyz":
        if [p for p in vertex[0][2] if p[0] == axis] != [(axis, False)]:
            fail(vertex[0][3], f"vertex element needs one scalar property {axis}")
    body = [
        (n, line.split()) for n, line in enumerate(lines[lineno:], start=lineno + 1)
        if line.strip()
    ]
    for name, count, props, _ in elements[: elements.index(vertex[0]) + 1]:
        rows, body = body[:count], body[count:]
        if len(rows) != count:
            raise ParseError(f"{path}: expected {count} {name} rows, found {len(rows)}")
        scalars = [_ply_row(path, n, parts, props) for n, parts in rows]
    points = []
    for (n, _), row in zip(rows, scalars):
        try:
            points.append([float(row[axis]) for axis in "xyz"])
        except ValueError:
            fail(n, "bad number")
    return _finite(path, np.asarray(points), lambda row: rows[row][0])


def _ply_row(path, lineno, parts, props):
    """The scalar tokens of one PLY body row, by property name."""
    scalars, at = {}, 0
    for name, listed in props:
        if not listed:
            scalars[name] = at
            at += 1
        elif at < len(parts) and parts[at].isdecimal():
            at += 1 + int(parts[at])
        else:
            raise ParseError(f"{path}: line {lineno}: list property {name} lacks a count")
    if at != len(parts):
        raise ParseError(f"{path}: line {lineno}: expected {at} values, found {len(parts)}")
    return {name: parts[i] for name, i in scalars.items()}


def read_cloud(path):
    """Dispatch on extension: .ply via the ply reader, anything else as xyz."""
    if str(path).lower().endswith(".ply"):
        return read_ply(path)
    return read_xyz(path)


# ---------------------------------------------------------------------------
# Dataset helpers


def build_synthetic_dataset(root, split, count, seed=0, gt_points=512,
                            partial_points=512):
    """Write ``count`` occluded shape pairs under ``<root>/<split>/``.

    Families cycle deterministically; the viewpoint for each sample is drawn
    from the eight canonical directions by the seeded rng. Returns the list
    of sample ids.
    """
    out = Path(root) / split
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    ids = []
    for i in range(count):
        family = FAMILIES[i % len(FAMILIES)]
        spec = SyntheticShapeSpec(
            family=family, seed=int(rng.integers(0, 2**31)),
            gt_points=gt_points, partial_points=partial_points,
        )
        gt = generate_shape(spec)
        view = VIEWPOINTS[int(rng.integers(0, len(VIEWPOINTS)))]
        keep = max(16, int(_KEEP_FRACTION * gt_points))
        partial = occlude_viewpoint(gt, view, keep)
        partial = resample_input(partial, partial_points, seed=int(rng.integers(0, 2**31)))
        sample_id = f"{i:04d}_{family}"
        write_xyz(out / f"{sample_id}_gt.xyz", gt)
        write_xyz(out / f"{sample_id}_partial.xyz", partial)
        ids.append(sample_id)
    return ids


def load_dataset(directory):
    """Read all ``*_partial.xyz`` / ``*_gt.xyz`` pairs, sorted by id."""
    directory = Path(directory)
    samples = []
    for partial_path in sorted(directory.glob("*_partial.xyz")):
        sample_id = partial_path.name[: -len("_partial.xyz")]
        gt_path = directory / f"{sample_id}_gt.xyz"
        if not gt_path.exists():
            raise ContractError(f"missing ground truth for sample {sample_id!r}")
        samples.append((sample_id, read_xyz(partial_path), read_xyz(gt_path)))
    if not samples:
        raise ContractError(f"no samples found in {directory}")
    return samples

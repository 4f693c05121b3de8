"""Synthetic shapes, occlusion, resampling and file round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointfill import data
from pointfill.errors import ContractError, ParseError

from . import oracles


def spec(**kw):
    base = dict(family="sphere", seed=0, gt_points=256, partial_points=128)
    base.update(kw)
    return data.SyntheticShapeSpec(**base)


# --- generators -----------------------------------------------------------------


def test_sphere_points_on_radius():
    pts = data.generate_shape(spec(family="sphere", gt_points=1024, partial_points=64))
    radii = np.linalg.norm(pts, axis=1)
    np.testing.assert_allclose(radii, np.ones(1024), atol=1e-6)


def test_box_points_on_faces():
    pts = data.generate_shape(spec(family="box"))
    on_face = np.isclose(np.abs(pts), 0.5, atol=1e-9).any(axis=1)
    assert on_face.all()
    assert (np.abs(pts) <= 0.5 + 1e-9).all()


def test_generation_deterministic_under_seed():
    a = data.generate_shape(spec(family="composite", seed=9))
    b = data.generate_shape(spec(family="composite", seed=9))
    assert np.array_equal(a, b)
    c = data.generate_shape(spec(family="composite", seed=10))
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("family", data.FAMILIES)
def test_all_families_produce_requested_counts(family):
    pts = data.generate_shape(spec(family=family))
    assert pts.shape == (256, 3)
    assert np.isfinite(pts).all()


@pytest.mark.parametrize("family", data.FAMILIES)
def test_generate_shape_is_byte_equal_to_the_loop_samplers(family, monkeypatch):
    # the array samplers must draw the same numbers and do the same
    # arithmetic per point as the loops they replaced
    specs = [spec(family=family, seed=seed, gt_points=n, partial_points=16)
             for seed in (0, 1, 7, 123) for n in (16, 17, 513, 2048)]
    shapes = [data.generate_shape(s) for s in specs]
    monkeypatch.setattr(data, "_sample_boxes", oracles.boxes_oracle)
    monkeypatch.setattr(data, "_sample_cylinder", oracles.cylinder_oracle)
    expected = [data.generate_shape(s) for s in specs]
    for got, want in zip(shapes, expected):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_spec_validates_point_counts():
    with pytest.raises(ContractError):
        data.SyntheticShapeSpec(family="sphere", gt_points=32, partial_points=64)


# --- occlusion -------------------------------------------------------------------


def test_sphere_viewed_from_above_keeps_top():
    gt = data.generate_shape(spec(gt_points=1024, partial_points=64))
    kept = data.occlude_viewpoint(gt, np.array([0.0, 0.0, 1.0]), 400)
    assert kept.shape == (400, 3)
    assert kept[:, 2].mean() > 0.3


def test_occlusion_keep_all_is_identity():
    gt = data.generate_shape(spec())
    np.testing.assert_array_equal(data.occlude_viewpoint(gt, [1.0, 0, 0], 256), gt)


def test_box_from_plus_x_drops_far_face():
    gt = data.generate_shape(spec(family="box", gt_points=600, partial_points=64))
    kept = data.occlude_viewpoint(gt, [1.0, 0.0, 0.0], 150)
    assert not np.isclose(kept[:, 0], -0.5, atol=1e-9).any()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_occlusion_refuses_a_non_finite_view_direction(bad):
    # NaN used to keep the first points in index order, inf gave garbage
    gt = data.generate_shape(spec())
    with pytest.raises(ContractError, match=str(bad)):
        data.occlude_viewpoint(gt, [bad, 0.0, 0.0], 100)


def test_occlusion_output_is_subset():
    gt = data.generate_shape(spec(family="cylinder"))
    kept = data.occlude_viewpoint(gt, [1.0, 1.0, 0.0], 100)
    gt_rows = {tuple(r) for r in np.round(gt, 12)}
    assert all(tuple(r) in gt_rows for r in np.round(kept, 12))


# --- resampling ------------------------------------------------------------------


def test_resample_identity():
    pts = data.generate_shape(spec())
    np.testing.assert_array_equal(data.resample_input(pts, 256, seed=1), pts)


def test_resample_upsamples_with_all_originals():
    pts = data.generate_shape(spec(gt_points=64, partial_points=32))
    out = data.resample_input(pts, 128, seed=2)
    assert out.shape == (128, 3)
    np.testing.assert_array_equal(out[:64], pts)


def test_resample_downsamples_to_subset():
    pts = data.generate_shape(spec())
    out = data.resample_input(pts, 100, seed=3)
    rows = {tuple(r) for r in np.round(pts, 12)}
    assert out.shape == (100, 3)
    assert all(tuple(r) in rows for r in np.round(out, 12))
    assert len({tuple(r) for r in out}) == 100


# --- file formats ------------------------------------------------------------------


def test_xyz_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((50, 3))
    path = tmp_path / "cloud.xyz"
    data.write_xyz(path, pts)
    back = data.read_xyz(path)
    assert back.shape == pts.shape
    assert np.abs(back - pts).max() < 1e-6


EXTREMES = {
    np.float32: [-0.0, 0.0, 1e-45, -1.2e-38, 3.4028235e38, -1.0, 0.1, 123456.789],
    np.float64: [-0.0, 0.0, 5e-324, -2.2e-308, 1e300, -1.7976931348623157e308, 0.1, 1 / 3],
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_writers_write_the_per_row_format_strings(tmp_path, dtype):
    extremes = np.asarray(EXTREMES[dtype], dtype=dtype)
    pts = np.concatenate([
        np.stack([extremes, -extremes, extremes[::-1]], axis=1),
        np.random.default_rng(6).standard_normal((40, 3)).astype(dtype),
    ])
    rows = "".join(f"{x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in pts)  # the old writer loop
    data.write_xyz(tmp_path / "cloud.xyz", pts)
    data.write_ply(tmp_path / "cloud.ply", pts)
    assert (tmp_path / "cloud.xyz").read_bytes() == rows.encode()
    header = ("ply\nformat ascii 1.0\nelement vertex 48\nproperty float x\n"
              "property float y\nproperty float z\nend_header\n")
    assert (tmp_path / "cloud.ply").read_bytes() == (header + rows).encode()


def test_xyz_writes_plain_text_to_a_name_ending_gz(tmp_path):
    pts = np.arange(6.0).reshape(2, 3)
    data.write_xyz(tmp_path / "cloud.xyz.gz", pts)
    assert (tmp_path / "cloud.xyz.gz").read_text() == "0 1 2\n3 4 5\n"


def test_xyz_empty_file_raises(tmp_path):
    path = tmp_path / "empty.xyz"
    path.write_text("")
    with pytest.raises(ParseError):
        data.read_xyz(path)


def test_xyz_malformed_line_reports_number(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("0 0 0\n1 2\n")
    with pytest.raises(ParseError) as err:
        data.read_xyz(path)
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("text, line", [("0 0 0\n\n1 nan 2\n", 3), ("-inf 0 0\n", 1)],
                         ids=["nan-after-a-blank-line", "infinity"])
def test_xyz_non_finite_coordinate_reports_file_and_line(tmp_path, text, line):
    # NaN and infinite coordinates used to be read as points
    path = tmp_path / "bad.xyz"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"line {line}: non-finite coordinate"):
        data.read_xyz(path)


def test_ply_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    pts = rng.standard_normal((20, 3))
    path = tmp_path / "cloud.ply"
    data.write_ply(path, pts)
    back = data.read_ply(path)
    assert back.shape == pts.shape
    assert np.abs(back - pts).max() < 1e-6


def test_ply_skips_unknown_properties(tmp_path):
    path = tmp_path / "extra.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float confidence\nend_header\n"
        "1 2 3 0.9\n4 5 6 0.1\n"
    )
    back = data.read_ply(path)
    np.testing.assert_allclose(back, [[1, 2, 3], [4, 5, 6]])


def test_ply_rejects_non_ply(tmp_path):
    path = tmp_path / "not.ply"
    path.write_text("hello\n")
    with pytest.raises(ParseError):
        data.read_ply(path)


_XYZ = "property float x\nproperty float y\nproperty float z\n"


def _ply(tmp_path, header, rows):
    path = tmp_path / "cloud.ply"
    path.write_text(f"ply\nformat ascii 1.0\n{header}end_header\n{rows}")
    return path


@pytest.mark.parametrize("header, rows", [
    ("element vertex 2\nproperty list uchar int idx\n" + _XYZ, "1 5 0 0 0\n1 5 1 1 1\n"),
    ("element face 1\nproperty list uchar int vertex_indices\nelement vertex 2\n" + _XYZ,
     "3 0 1 2\n0 0 0\n1 1 1\n"),
], ids=["list-before-x-y-z", "face-before-vertex"])
def test_ply_reads_past_list_properties_and_earlier_elements(tmp_path, header, rows):
    np.testing.assert_array_equal(data.read_ply(_ply(tmp_path, header, rows)),
                                  [[0, 0, 0], [1, 1, 1]])


@pytest.mark.parametrize("header, rows, line", [
    ("element vertex 1\nproperty list uchar int idx\n" + _XYZ, "x 0 0 0\n", 9),
    ("element vertex 1\nproperty list uchar int idx\n" + _XYZ, "2 5 0 0 0\n", 9),
    ("element vertex 1\n" + _XYZ, "0 0\n", 8),
    ("element vertex 1\nproperty list uchar float x\nproperty float y\n"
     "property float z\n", "1 0 0 0\n", 3),
    ("element vertex 1\nproperty float\n" + _XYZ, "0 0 0\n", 4),
    ("element face 2\nproperty list uchar int idx\nelement vertex 1\n" + _XYZ,
     "0\n0 0 0\n", 11),
    ("element vertex 2\n" + _XYZ, "0 0 0\n0 inf 0\n", 9),
], ids=["list-count-not-a-number", "list-longer-than-the-row", "short-row", "listed-x",
        "property-without-a-name", "a-face-row-short-of-the-vertices", "non-finite"])
def test_ply_rejects_rows_that_do_not_fit_the_header(tmp_path, header, rows, line):
    with pytest.raises(ParseError, match=f"line {line}:"):
        data.read_ply(_ply(tmp_path, header, rows))


def _filler(draw, listed):
    """Tokens of a property the reader skips: an int, or a list of them."""
    if not listed:
        return str(draw(st.integers(-9, 9)))
    items = draw(st.lists(st.integers(0, 9), max_size=3))
    return " ".join(map(str, [len(items), *items]))


@st.composite
def ply_files(draw):
    """A valid ascii PLY text and the vertex coordinates it holds."""
    coord = st.floats(allow_nan=False, allow_infinity=False)
    points = draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=5))
    kinds = st.lists(st.booleans(), min_size=1, max_size=3)  # True: a list property
    extras = [(f"extra{i}", listed) for i, listed in enumerate(draw(kinds))]
    vertex = draw(st.permutations([("x", False), ("y", False), ("z", False), *extras]))
    elements = [
        (f"other{i}", draw(st.integers(0, 3)), [(f"p{j}", l) for j, l in enumerate(draw(kinds))])
        for i in range(draw(st.integers(0, 3)))
    ]
    elements.insert(draw(st.integers(0, len(elements))), ("vertex", len(points), vertex))
    header, body = [], []
    for name, count, props in elements:
        header.append(f"element {name} {count}")
        header += [f"property {'list uchar int' if listed else 'float'} {prop}"
                   for prop, listed in props]
        for i in range(count):
            coords = dict(zip("xyz", map(repr, points[i]))) if name == "vertex" else {}
            body.append(" ".join(coords.get(p) or _filler(draw, l) for p, l in props))
    for text in draw(st.lists(st.sampled_from(["comment by hand", "obj_info v1"]), max_size=3)):
        header.insert(draw(st.integers(0, len(header))), text)
    lines = ["ply", "format ascii 1.0", *header, "end_header", *body]
    return "\n".join(lines) + "\n", np.asarray(points)


_PLY_FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@_PLY_FUZZ
@given(ply_files())
def test_ply_reads_back_any_element_order_and_extra_properties(tmp_path_factory, case):
    text, points = case
    path = tmp_path_factory.mktemp("ply") / "cloud.ply"
    path.write_text(text)
    np.testing.assert_array_equal(data.read_ply(path), points)


@_PLY_FUZZ
@given(ply_files(), st.data())
def test_mutated_ply_and_xyz_read_or_raise_parse_error(tmp_path_factory, case, draw):
    ply_text, points = case
    folder = tmp_path_factory.mktemp("mutated")
    data.write_xyz(folder / "cloud.xyz", points)
    for path, text, reader in ((folder / "cloud.ply", ply_text, data.read_ply),
                               (folder / "cloud.xyz", None, data.read_xyz)):
        lines = (text or path.read_text()).splitlines()
        at = draw.draw(st.integers(0, len(lines) - 1))
        junk = draw.draw(st.sampled_from(["x", "-1", "3", "1e999"]))
        lines[at:at + 1] = draw.draw(st.sampled_from(
            [[], [lines[at]] * 2, [lines[at].rpartition(" ")[0]], [f"{lines[at]} {junk}"]]))
        path.write_text("\n".join(lines) + "\n")
        try:
            reader(path)
        except ParseError:
            pass


# --- dataset helpers ------------------------------------------------------------------


def test_build_and_load_dataset(tmp_path):
    ids = data.build_synthetic_dataset(
        tmp_path, "train", 6, seed=0, gt_points=128, partial_points=96
    )
    assert len(ids) == 6
    samples = data.load_dataset(tmp_path / "train")
    assert [s[0] for s in samples] == sorted(ids)
    for _, partial, gt in samples:
        assert partial.shape == (96, 3)
        assert gt.shape == (128, 3)


def test_build_dataset_deterministic(tmp_path):
    data.build_synthetic_dataset(tmp_path, "a", 3, seed=5, gt_points=64,
                                 partial_points=48)
    data.build_synthetic_dataset(tmp_path, "b", 3, seed=5, gt_points=64,
                                 partial_points=48)
    for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
        assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()


def test_load_dataset_missing_gt(tmp_path):
    d = tmp_path / "broken"
    d.mkdir()
    data.write_xyz(d / "x_partial.xyz", np.zeros((4, 3)) + np.arange(4)[:, None])
    with pytest.raises(ContractError):
        data.load_dataset(d)

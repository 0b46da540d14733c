import struct

import numpy as np
import pytest

from recloud.data import (DatasetManifest, SynthSpec, _read_xyz_lines, load_split,
                          normalize_unit_sphere, read_cloud, resample, synth_generate,
                          write_cloud)
from recloud.geometry import farthest_point_sample


def random_cloud(seed, w=30):
    return np.random.default_rng(seed).standard_normal((w, 3))


class TestXyzRoundTrip:
    def test_round_trip_f32(self, tmp_path):
        pts = random_cloud(0)
        path = tmp_path / "cloud.xyz"
        write_cloud(path, pts)
        back = read_cloud(path)
        np.testing.assert_array_equal(back, pts.astype(np.float32).astype(np.float64))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.xyz"
        path.write_text("")
        with pytest.raises(ValueError, match="zero points"):
            read_cloud(path)

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("0 0 0\n1 nope 2\n")
        with pytest.raises(ValueError, match="bad.xyz:2"):
            read_cloud(path)

    def test_short_line(self, tmp_path):
        path = tmp_path / "short.xyz"
        path.write_text("0 0\n")
        with pytest.raises(ValueError, match=":1"):
            read_cloud(path)



# Texts the loadtxt fast path reads, and texts only the line loop reads.
XYZ_TEXTS = {
    "blank_lines": "1 2 3\n\n   \n4 5 6\n\n",
    "tabs": "1\t2\t3\n4 \t5\t6\n",
    "extra_columns": "1 2 3 9\n4 5 6\n7 8 9 1 2\n",
    "one_point": "0.25 -0.5 0.125\n",
    "non_finite": "nan inf -inf\n+inf NaN 1e400\n",
    "crlf_no_final_newline": "1 2 3\r\n4 5 6",
    "underscore": "1_0 2 3\n4 5 6\n",
    "unicode_digits": "\u0663 2 3\n",
    "trailing_hash": "1 2 3 # note\n",
    "float32_rounding": "0.1 0.2 0.30000001192092896\n1e-40 -1e-46 3.4028234663852886e38\n",
}
XYZ_ERRORS = {
    "empty": ("", "zero points"),
    "blank_only": ("\n  \n", "zero points"),
    "hash_line": ("# x y z\n1 2 3\n", r"hash_line.xyz:1: malformed coordinate in '# x y z'"),
    "malformed": ("0 0 0\n1 nope 2\n", r"malformed.xyz:2: malformed coordinate"),
    "short": ("1 2 3\n0 0\n", r"short.xyz:2: expected 3 coordinates, got 2"),
    "comma": ("1,2,3\n", r"comma.xyz:1: expected 3 coordinates, got 1"),
}


class TestXyzFastPath:
    """``read_cloud`` returns exactly what the line loop returns, and raises
    its errors."""

    @pytest.mark.parametrize("name", XYZ_TEXTS)
    def test_equals_line_loop(self, tmp_path, name):
        path = tmp_path / f"{name}.xyz"
        path.write_text(XYZ_TEXTS[name], newline="")
        got, want = read_cloud(path), _read_xyz_lines(path)
        assert got.dtype == want.dtype == np.float64
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", XYZ_ERRORS)
    def test_errors_are_the_line_loops(self, tmp_path, name):
        text, message = XYZ_ERRORS[name]
        path = tmp_path / f"{name}.xyz"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_cloud(path)
        with pytest.raises(ValueError, match=message):
            _read_xyz_lines(path)

    def test_written_clouds_equal_line_loop(self, tmp_path):
        for seed in range(5):
            path = tmp_path / f"c{seed}.xyz"
            write_cloud(path, random_cloud(seed, w=200) * 10.0 ** (seed - 2))
            assert read_cloud(path).tobytes() == _read_xyz_lines(path).tobytes()

class TestPlyRoundTrip:
    def test_ascii_round_trip(self, tmp_path):
        pts = random_cloud(1)
        path = tmp_path / "cloud.ply"
        write_cloud(path, pts)
        back = read_cloud(path)
        np.testing.assert_array_equal(back, pts.astype(np.float32).astype(np.float64))

    def test_extra_color_properties_ignored_ascii(self, tmp_path):
        path = tmp_path / "color.ply"
        path.write_text("\n".join([
            "ply", "format ascii 1.0", "element vertex 2",
            "property float x", "property float y", "property float z",
            "property uchar red", "property uchar green", "property uchar blue",
            "end_header",
            "0 0 0 255 0 0",
            "1 2 3 0 255 0",
        ]) + "\n")
        back = read_cloud(path)
        np.testing.assert_array_equal(back, [[0, 0, 0], [1, 2, 3]])

    def test_binary_little_endian(self, tmp_path):
        pts = random_cloud(2, w=5).astype(np.float32)
        header = "\n".join([
            "ply", "format binary_little_endian 1.0", "element vertex 5",
            "property float x", "property float y", "property float z",
            "end_header",
        ]) + "\n"
        path = tmp_path / "bin.ply"
        path.write_bytes(header.encode() + pts.astype("<f4").tobytes())
        back = read_cloud(path)
        np.testing.assert_array_equal(back, pts.astype(np.float64))

    def test_binary_with_extra_scalar_props(self, tmp_path):
        header = "\n".join([
            "ply", "format binary_little_endian 1.0", "element vertex 2",
            "property float x", "property float y", "property float z",
            "property uchar intensity",
            "end_header",
        ]) + "\n"
        body = b"".join(struct.pack("<fffB", float(i), 2.0 * i, -1.0 * i, i * 7)
                        for i in range(2))
        path = tmp_path / "extra.ply"
        path.write_bytes(header.encode() + body)
        back = read_cloud(path)
        np.testing.assert_array_equal(back, [[0, 0, 0], [1, 2, -1]])

    def test_double_precision_accepted(self, tmp_path):
        header = "\n".join([
            "ply", "format binary_little_endian 1.0", "element vertex 1",
            "property double x", "property double y", "property double z",
            "end_header",
        ]) + "\n"
        path = tmp_path / "dbl.ply"
        path.write_bytes(header.encode() + struct.pack("<ddd", 0.5, 0.25, -0.125))
        np.testing.assert_array_equal(read_cloud(path), [[0.5, 0.25, -0.125]])

    def test_list_property_rejected(self, tmp_path):
        path = tmp_path / "list.ply"
        path.write_text("\n".join([
            "ply", "format ascii 1.0", "element vertex 1",
            "property float x", "property float y", "property float z",
            "element face 1", "property list uchar int vertex_indices",
            "end_header", "0 0 0", "3 0 0 0",
        ]) + "\n")
        with pytest.raises(ValueError, match="list"):
            read_cloud(path)

    def test_integer_coordinates_rejected(self, tmp_path):
        path = tmp_path / "int.ply"
        path.write_text("\n".join([
            "ply", "format ascii 1.0", "element vertex 1",
            "property int x", "property float y", "property float z",
            "end_header", "0 0 0",
        ]) + "\n")
        with pytest.raises(ValueError, match="non-float"):
            read_cloud(path)

    def test_truncated_binary(self, tmp_path):
        header = "\n".join([
            "ply", "format binary_little_endian 1.0", "element vertex 3",
            "property float x", "property float y", "property float z",
            "end_header",
        ]) + "\n"
        path = tmp_path / "trunc.ply"
        path.write_bytes(header.encode() + b"\x00" * 10)
        with pytest.raises(ValueError, match="truncated"):
            read_cloud(path)


class TestResample:
    def test_identity_when_equal(self):
        pts = random_cloud(3, w=16)
        out = resample(pts, 16, np.random.default_rng(0))
        np.testing.assert_array_equal(out, pts)

    def test_downsample_is_fps_subset(self):
        pts = random_cloud(4, w=32)
        out = resample(pts, 16, np.random.default_rng(5))
        expected = pts[farthest_point_sample(pts, 16, np.random.default_rng(5))]
        np.testing.assert_array_equal(out, expected)

    def test_upsample_duplicates_within_jitter(self):
        pts = random_cloud(5, w=8)
        out = resample(pts, 16, np.random.default_rng(6))
        assert out.shape == (16, 3)
        np.testing.assert_array_equal(out[:8], pts)
        for dup in out[8:]:
            dists = np.linalg.norm(pts - dup, axis=1)
            assert dists.min() <= 1e-6


class TestNormalizeUnitSphere:
    def test_idempotent(self):
        pts = normalize_unit_sphere(random_cloud(6))
        again = normalize_unit_sphere(pts)
        np.testing.assert_allclose(again, pts, atol=1e-12)

    def test_scale_invariance(self):
        pts = random_cloud(7)
        np.testing.assert_allclose(normalize_unit_sphere(pts * 5.0),
                                   normalize_unit_sphere(pts), atol=1e-12)

    def test_max_norm_exactly_one(self):
        out = normalize_unit_sphere(random_cloud(8))
        assert np.linalg.norm(out, axis=1).max() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out.mean(axis=0), 0, atol=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="identical"):
            normalize_unit_sphere(np.ones((5, 3)))


class TestSynthGenerate:
    def test_sphere_points_on_surface(self):
        spec = SynthSpec(families=("sphere",), samples_per_family=1,
                         points_per_cloud=64, jitter_sigma=0.0, seed=1)
        from recloud.data import _sample_sphere
        pts = _sample_sphere(200, np.random.default_rng(0))
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-6)
        del spec

    def test_counts_and_split(self, tmp_path):
        spec = SynthSpec(samples_per_family=10, points_per_cloud=32, seed=2)
        manifest = synth_generate(spec, tmp_path / "data")
        assert len(manifest) == 40
        assert len(manifest.split("train")) == 32
        assert len(manifest.split("test")) == 8
        clouds = load_split(manifest, "train", 32)
        assert len(clouds) == 32 and clouds[0].shape == (32, 3)

    def test_same_seed_byte_identical(self, tmp_path):
        spec = SynthSpec(samples_per_family=3, points_per_cloud=16, seed=3)
        a = tmp_path / "a"
        b = tmp_path / "b"
        synth_generate(spec, a)
        synth_generate(spec, b)
        for fa in sorted(a.iterdir()):
            assert fa.read_bytes() == (b / fa.name).read_bytes()

    @pytest.mark.parametrize("jitter", [float("nan"), float("inf"), -0.01])
    def test_jitter_must_be_finite_and_non_negative(self, jitter):
        with pytest.raises(ValueError, match="jitter sigma must be finite and non-negative"):
            SynthSpec(jitter_sigma=jitter)

    @pytest.mark.parametrize("jitter", ["nan", "inf"])
    def test_cli_non_finite_jitter_exits_bad_config(self, tmp_path, capsys, jitter):
        from recloud import cli
        rc = cli.main(["synth", "--out", str(tmp_path / "data"), "--jitter", jitter])
        assert rc == cli.EXIT_BAD_CONFIG
        assert ("error: invalid-config: jitter sigma must be finite and non-negative, "
                f"got {jitter}" in capsys.readouterr().err)
        assert not (tmp_path / "data").exists()

    def test_torus_geometry(self):
        from recloud.data import _sample_torus
        pts = _sample_torus(300, np.random.default_rng(1))
        ring = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
        # distance to the torus center circle equals the minor radius
        d = np.sqrt((ring - 1.0) ** 2 + pts[:, 2] ** 2)
        np.testing.assert_allclose(d, 0.4, atol=1e-9)


class TestManifest:
    def test_missing_path_fails_fast(self, tmp_path):
        (tmp_path / "ok.xyz").write_text("0 0 0\n")
        mpath = tmp_path / "manifest.tsv"
        mpath.write_text("ok.xyz\tsphere\ttrain\ngone.xyz\tsphere\ttest\n")
        with pytest.raises(FileNotFoundError, match="gone.xyz"):
            DatasetManifest.load(mpath)

    def test_bad_split_rejected(self, tmp_path):
        (tmp_path / "ok.xyz").write_text("0 0 0\n")
        mpath = tmp_path / "manifest.tsv"
        mpath.write_text("ok.xyz\tsphere\tvalidation\n")
        with pytest.raises(ValueError, match="unknown split"):
            DatasetManifest.load(mpath)

    def test_round_trip(self, tmp_path):
        spec = SynthSpec(samples_per_family=2, points_per_cloud=8, seed=4)
        manifest = synth_generate(spec, tmp_path)
        again = DatasetManifest.load(tmp_path / "manifest.tsv")
        assert again.entries == manifest.entries


def test_random_round_trip_both_formats(tmp_path):
    rng = np.random.default_rng(9)
    for i in range(20):
        pts = rng.standard_normal((int(rng.integers(1, 50)), 3)) * rng.uniform(0.01, 100)
        for fmt in ("xyz", "ply"):
            p = tmp_path / f"c{i}.{fmt}"
            write_cloud(p, pts)
            np.testing.assert_array_equal(read_cloud(p),
                                          pts.astype(np.float32).astype(np.float64))
